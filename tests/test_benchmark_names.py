"""The names the benchmark in perfbench/ calls or traces still exist.

perfbench/run.py runs a library pipeline (a Polymatroid constructor, then
structure.closed_inseparable_family and divisors.class_group,
canonical_class and is_gorenstein) and reads fields of what they return;
perfbench/layers.py wraps listed functions by name and reports a missing
one, or a counter whose source changed its return type, as absent.
Deleting such a name fails every library op or nulls a per-layer metric,
so these tests catch it.  They read the benchmark's files and change none.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from polytoric import Polymatroid, divisors, structure
from polytoric.cli import main

ROOT = Path(__file__).resolve().parents[1]

PIPELINE_INPUTS = {
    "from_rank_table": (2, {0: 0, 1: 1, 2: 1, 3: 2}),
    "transversal": (3, [0b011, 0b110]),
    "box": ((1, 2),),
    "veronese": ((1, 1, 1), 2),
}


def family_pipeline(ctor, args):
    """The library op of perfbench/run.py, returning the fields it reads."""
    p = getattr(Polymatroid, ctor)(*args)
    fam = structure.closed_inseparable_family(p)
    pres = divisors.class_group(fam)
    canon = divisors.canonical_class(fam, pres)
    a = divisors.is_gorenstein(fam)
    members = [(m.mask, m.rank, m.size) for m in fam.members]
    invariants = (pres.invariants.free_rank, pres.invariants.torsion)
    return members, invariants, list(pres.relation), list(canon.coords), a


@pytest.mark.parametrize("ctor", PIPELINE_INPUTS)
def test_family_pipeline(ctor):
    members, invariants, relation, canonical, a = family_pipeline(ctor, PIPELINE_INPUTS[ctor])
    assert members
    assert relation == [rank for _, rank, _ in members]
    assert invariants == (len(members) - 1, math.gcd(*relation))
    assert canonical == [size + 1 for _, _, size in members]
    assert a is None or a >= 1


def test_every_traced_layer_is_present(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py"
    )
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    box = tmp_path / "box.json"
    box.write_text(json.dumps({"n": 2, "kind": "box", "v": [1, 2]}))
    # the simplex regime of Veronese type, which had no closed form before
    veronese = tmp_path / "veronese.json"
    veronese.write_text(json.dumps({"n": 3, "kind": "veronese", "s": [3, 3, 3], "d": 3}))
    # a generic transversal family, which reaches the classifier alone
    transversal = tmp_path / "transversal.json"
    transversal.write_text(json.dumps({"n": 3, "kind": "transversal", "sets": [[1, 2], [2, 3], [1, 3]]}))
    multicomplex = tmp_path / "multicomplex.json"
    multicomplex.write_text(json.dumps({"n": 2, "kind": "multicomplex", "facets": [[2, 1]]}))
    tracer = layers.Tracer()
    tracer.install()
    try:
        for ctor, args in PIPELINE_INPUTS.items():
            family_pipeline(ctor, args)
        # the CLI reaches the counted functions, whose return types are read
        for path in (box, multicomplex):
            assert main(["analyze", str(path), "--cone", "--normality", "2"]) == 0
        for path in (box, veronese, transversal):
            assert main(["verify", str(path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.absent == set()
    traced = {span[1] for span in tracer.spans}
    assert {
        "families.box_analysis",
        "families.veronese_analysis",
        "families.classify_transversal",
        "divisors.is_gorenstein",
        "cone.cone_facets",
    } <= traced
