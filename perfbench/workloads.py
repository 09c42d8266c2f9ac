"""The five workloads: seeded input lists with the expected answer of each op.

Each builder writes its CLI inputs under `workdir` and returns the cases of
one pass.  A case is either a CLI call (argv for `polytoric.cli.main`) or a
library call (a constructor spec for the family pipeline), with the exit
code it must return and an oracle over its output.  The sweep lists hold
the extra inputs the traced run times once each, for per-n breakdowns.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import corpus as C


@dataclass
class Case:
    label: str
    n: int
    expect_code: int
    check: Callable[[str, str], list]  # (stdout, stderr) -> problems
    argv: Optional[list] = None  # CLI case
    lib: Optional[tuple] = None  # library case: (constructor name, args)


class Builder:
    def __init__(self, workdir: str, rng):
        self.workdir = workdir
        self.rng = rng
        self.cases = []

    def write(self, name: str, spec) -> str:
        path = os.path.join(self.workdir, f"{len(self.cases):02d}-{name}.json")
        if isinstance(spec, str):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(spec)
        else:
            C.write_spec(path, spec)
        return path

    def cli(self, name, spec, args, check, code=0):
        path = self.write(name, spec)
        n = spec["n"] if isinstance(spec, dict) else 0
        self.cases.append(Case(name, n, code, check, argv=[args[0], path, *args[1:]]))

    def analyze(self, name, spec, meta=None, cone=False, normality=None):
        exp = C.Expected(spec, meta or {})
        args = ["analyze", "--format", "json"]
        if cone:
            args.append("--cone")
        if normality is not None:
            args += ["--normality", str(normality)]

        def check(out, err):
            return C.check_analyze(exp, json.loads(out), cone, normality)

        self.cli(name, spec, args, check)

    def verify(self, name, spec, meta=None):
        exp = C.Expected(spec, meta or {})
        self.cli(name, spec, ["verify"], lambda out, err: C.check_verify(exp, json.loads(out)))

    def facets(self, name, spec):
        exp = C.Expected(spec, {})
        self.cli(name, spec, ["facets"], lambda out, err: C.check_facets(exp, out))

    def rejected(self, name, spec, args, code, needles):
        def check(out, err):
            return [f"stderr does not name {s!r}" for s in needles if s not in err]

        self.cli(name, spec, args, check, code)

    def family(self, name, spec, meta=None):
        """Library pipeline on a rank-function input, no validation."""
        exp = C.Expected(spec, meta or {})
        n, kind = spec["n"], spec["kind"]
        if kind == "rank_table":
            rho = C.rho_of(spec)
            lib = ("from_rank_table", (n, {m: rho[m] for m in range(1 << n)}))
        elif kind == "transversal":
            lib = ("transversal", (n, [C.mask_of(s) for s in spec["sets"]]))
        elif kind == "box":
            lib = ("box", (spec["v"],))
        else:
            lib = ("veronese", (spec["s"], spec["d"]))

        def check(out, err):
            got = json.loads(out)
            fam = [tuple(m) for m in got["family"]]
            pairs = [(m, r) for m, r, _ in fam]
            problems = exp.check_members(fam)
            problems += exp.check_group(pairs, got["free_rank"], got["torsion"])
            if got["relation"] != [r for _, r in pairs]:
                problems.append("relation is not the member ranks")
            if got["canonical"] != [s + 1 for _, _, s in fam]:
                problems.append("canonical class is not |A| + 1")
            if got["a"] != C.gorenstein_a(pairs):
                problems.append(f"gorenstein a={got['a']}")
            return problems

        self.cases.append(Case(name, n, 0, check, lib=lib))


def atom(b: Builder, n: int) -> dict:
    return C.table_spec(n, C.atom_table(n, b.rng))


def ut_meta(i):
    return {"family": "uniform-transversal", "i": i}


# ---------------------------------------------------------------------------
# workloads


def rank_cli(b: Builder) -> None:
    """`analyze --format json` on valid rank-function inputs, n = 8..10."""
    for n in (8, 8, 9, 9):
        b.analyze(f"atom-n{n}", atom(b, n))
    chain = [(2, 2), (4, 4), (7, 6), (9, 2)]
    b.analyze("nested-chain-n9", C.nested_chain(9, chain), {"family": "nested-chain", "chain": chain})
    b.analyze("box-2x9", C.box((2,) * 9))
    b.analyze("veronese-1x9-d5", C.veronese((1,) * 9, 5))
    b.analyze("U(4,9)", C.uniform_matroid(4, 9), {"family": "uniform-matroid", "r": 4})
    b.analyze("UT(10,2)", C.uniform_transversal(10, 2), ut_meta(2))
    b.analyze("atom-n10", atom(b, 10))


def rank_cli_sweep(b: Builder) -> None:
    for n in (9, 10, 11, 12):
        b.analyze(f"sweep-atom-n{n}", atom(b, n))


def family_lib(b: Builder) -> None:
    """Polymatroid -> family -> class group -> canonical -> Gorenstein."""
    for n in (11, 12, 12):
        b.family(f"atom-n{n}", atom(b, n))
    b.family("UT(10,4)", C.uniform_transversal(10, 4), ut_meta(4))
    b.family("veronese-2x13-d9", C.veronese((2,) * 13, 9))
    b.family("box-1..13", C.box(range(1, 14)))
    chain = [(3, 2), (6, 3), (10, 3), (13, 6)]
    b.family("nested-chain-n13", C.nested_chain(13, chain), {"family": "nested-chain", "chain": chain})
    b.family("UT(11,3)", C.uniform_transversal(11, 3), ut_meta(3))
    b.family("UT(12,2)", C.uniform_transversal(12, 2), ut_meta(2))


def family_lib_sweep(b: Builder) -> None:
    for n in (13, 14, 15):
        b.family(f"sweep-atom-n{n}", atom(b, n))


def cone_verify(b: Builder) -> None:
    """`verify` (both paths plus closed forms) and `facets`, n = 3..6."""
    b.verify("UT(4,2)", C.uniform_transversal(4, 2), ut_meta(2))
    b.verify("veronese-2x5-d5", C.veronese((2,) * 5, 5))
    b.verify("veronese-2x6-d7", C.veronese((2,) * 6, 7))
    b.verify("box-2323", C.box((2, 3, 2, 3)))
    b.verify("rank-bounded-n5-d3", C.veronese((3,) * 5, 3))
    b.verify("atom-n5", C.table_spec(5, C.sized_atom_table(5, b.rng, 30, 60, 10)))
    b.verify("atom-n6", C.table_spec(6, C.sized_atom_table(6, b.rng, 150, 200, 10)))
    b.facets("facets-atom-n5", C.table_spec(5, C.sized_atom_table(5, b.rng, 30, 60, 10)))
    b.facets("facets-box-2323", C.box((2, 3, 2, 3)))
    gens = C.lattice_points(3, C.rho_of(C.veronese((2, 2, 2), 3)))
    b.cli("generalized-veronese-222-d3",
          {"n": 3, "kind": "multicomplex", "facets": [list(v) for v in gens], "generalized": True},
          ["verify"], _generalized_verify_check(C.veronese((2, 2, 2), 3)))


def _generalized_verify_check(source_spec):
    exp = C.Expected(source_spec, {})
    free_rank, torsion = C.group_of(exp.members)

    def check(out, err):
        got = json.loads(out)
        cg = got["checks"].get("class_group", {})
        if got["checks"].get("cone_path") != "ran" or (cg.get("free_rank"), cg.get("torsion")) != (free_rank, torsion):
            return [f"cone-path class group {cg}, expected Z^{free_rank} + Z/{torsion}"]
        return []

    return check


def normality(b: Builder) -> None:
    """`analyze --cone --normality n --format json`, n = 3..5."""
    b.analyze("box-232", C.box((2, 3, 2)), cone=True, normality=3)
    b.analyze("window-n3", C.table_spec(3, C.window_table(3, b.rng, 1, 100)), cone=True, normality=3)
    b.analyze("window-n4", C.table_spec(4, C.window_table(4, b.rng, 11, 16)), cone=True, normality=4)
    b.analyze("veronese-333-d5", C.veronese((3, 3, 3), 5), cone=True, normality=3)
    b.analyze("box-234", C.box((2, 3, 4)), cone=True, normality=3)
    b.analyze("box-1212", C.box((1, 2, 1, 2)), cone=True, normality=4)
    b.analyze("veronese-2222-d3", C.veronese((2, 2, 2, 2), 3), cone=True, normality=4)
    b.analyze("veronese-1x5-d2", C.veronese((1,) * 5, 2), cone=True, normality=5)
    # Degree n - 1 = 3 rather than 4: at degree 4 this one op is ~1.5 s, so
    # a run holds about as many of them as the tail needs samples, and the
    # tail would jump between this input and the next slowest.
    b.analyze("UT(4,2)", C.uniform_transversal(4, 2), ut_meta(2), cone=True, normality=3)
    # Downward closure of (2,0,0), (0,2,0), (0,0,1): the hull is
    # x1/2 + x2/2 + x3 <= 1, and (1,1,0) is its lex-first lattice point
    # missing from the set, so the witness stops at degree 1.
    violated = {"n": 3, "kind": "multicomplex", "facets": [[2, 0, 0], [0, 2, 0], [0, 0, 1]]}
    b.cli("multicomplex-degree1-violation", violated,
          ["analyze", "--format", "json", "--cone", "--normality", "3"],
          _normality_check([1, 1, 0, 1]))
    gens = C.lattice_points(3, C.rho_of(C.box((2, 1, 2))))
    b.cli("generalized-box-212",
          {"n": 3, "kind": "multicomplex", "facets": [list(v) for v in gens], "generalized": True},
          ["analyze", "--format", "json", "--cone", "--normality", "3"],
          _normality_check(None, C.Expected(C.box((2, 1, 2)), {})))


def _normality_check(violation, exp=None):
    def check(out, err):
        cone = json.loads(out)["cone"]
        problems = []
        if cone["normality"]["violation"] != violation:
            problems.append(f"normality violation {cone['normality']['violation']}, expected {violation}")
        if exp is not None and cone["facets"] != C.facet_lines(exp.n, exp.members):
            problems.append("cone facets differ from the point set's polymatroid forms")
        return problems

    return check


def reject(b: Builder) -> None:
    """Documented failure paths: exit 2 on invalid input, exit 3 on caps."""
    for n in (9, 9, 10):
        for kind in ("monotonicity", "submodularity"):
            bad, planted = C.corrupt(n, C.atom_table(n, b.rng), b.rng, kind, 50, 600)
            b.rejected(f"corrupt-{kind}-n{n}", C.table_spec(n, bad), ["analyze"], 2,
                       ["input fails validation"] + [C.label(m) for m in planted])
    for n in (9, 10):
        b.rejected(f"max-n-8-on-n{n}", atom(b, n), ["analyze", "--max-n", "8"], 3,
                   ["exceeds the enumeration cap 8"])
    b.rejected("point-cap-500-UT(5,2)", C.uniform_transversal(5, 2),
               ["analyze", "--cone", "--point-cap", "500"], 3, ["exceeds cap of 500"])
    b.rejected("non-antichain-multicomplex",
               {"n": 3, "kind": "multicomplex", "facets": [[1, 1, 0], [1, 0, 0], [0, 1, 1]]},
               ["analyze"], 2, ["antichain"])
    b.rejected("malformed-json", '{"n": 3, "kind": "box", "v": [1, 2', ["analyze"], 2,
               ["invalid JSON"])


WORKLOADS = {
    "rank-cli": (rank_cli, rank_cli_sweep),
    "family-lib": (family_lib, family_lib_sweep),
    "cone-verify": (cone_verify, None),
    "normality": (normality, None),
    "reject": (reject, None),
}
