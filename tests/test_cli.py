import dataclasses
import importlib
import json
import sys

import pytest

from polytoric import (
    Analysis,
    ClosedInseparableFamily,
    DivisorClass,
    GroupInvariants,
    NormalityWitness,
    Polymatroid,
)
from polytoric.cli import main


def write_input(tmp_path, payload, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_veronese_text(tmp_path, capsys):
    path = write_input(
        tmp_path, {"n": 5, "kind": "veronese", "s": [1, 1, 1, 1, 1], "d": 3}
    )
    code, out, _ = run(capsys, ["analyze", path])
    assert code == 0
    assert "gorenstein: yes (a = 2)" in out
    assert "class group: Z^5" in out


def test_analyze_box_json_round_trips(tmp_path, capsys):
    path = write_input(tmp_path, {"n": 3, "kind": "box", "v": [2, 4, 6]})
    code, out, _ = run(capsys, ["analyze", path, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["class_group"]["invariants"]["description"] == "Z^2 + Z/2Z"
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out


def test_analyze_rank_table_matches_reference(tmp_path, capsys):
    table = {"1": 1, "2": 1, "3": 1, "1,2": 2, "1,3": 2, "2,3": 2, "1,2,3": 2}
    path = write_input(tmp_path, {"n": 3, "kind": "rank_table", "table": table})
    code, out, _ = run(capsys, ["analyze", path, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    # this table is the Veronese (1,1,1)/2 rank function
    assert doc["canonical_class"] == [2, 2, 2, 4]
    assert doc["gorenstein"] == {"is_gorenstein": True, "a": 2}


def test_analyze_random_table_matches_brute_force_reference(tmp_path, capsys):
    import random

    from polytoric import bitset
    from polytoric.abelian import quotient_by_relation
    from polytoric.sampling import random_rank_table

    rng = random.Random(424242)
    table = random_rank_table(4, rng)
    payload = {
        "n": 4,
        "kind": "rank_table",
        "table": {
            ",".join(str(i) for i in bitset.one_based(m)): r
            for m, r in table.items()
            if m
        },
    }
    path = write_input(tmp_path, payload)
    code, out, _ = run(capsys, ["analyze", path, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    # reference: both definitions checked verbatim over all subsets
    expected = []
    for mask in bitset.nonempty_subsets(4):
        closed = all(
            table[mask | extra] > table[mask]
            for extra in bitset.submasks(bitset.full_mask(4) & ~mask)
            if extra
        )
        split = any(
            table[part] + table[mask ^ part] == table[mask]
            for part in bitset.submasks(mask)
            if part not in (0, mask)
        )
        if closed and not split:
            expected.append((sorted(bitset.one_based(mask)), table[mask]))
    got = [(m["set"], m["rank"]) for m in doc["family"]]
    assert sorted(got) == sorted(expected)
    ranks = [r for _, r in expected]
    inv = quotient_by_relation(len(ranks), ranks)
    assert doc["class_group"]["invariants"]["free_rank"] == inv.free_rank
    assert doc["class_group"]["invariants"]["torsion"] == inv.torsion


def test_analyze_is_deterministic(tmp_path, capsys):
    path = write_input(tmp_path, {"n": 3, "kind": "veronese", "s": [1, 2, 2], "d": 3})
    _, first, _ = run(capsys, ["analyze", path, "--cone", "--format", "json"])
    _, second, _ = run(capsys, ["analyze", path, "--cone", "--format", "json"])
    assert first == second


def test_analyze_cone_cross_check(tmp_path, capsys):
    path = write_input(tmp_path, {"n": 2, "kind": "box", "v": [1, 1]})
    code, out, _ = run(capsys, ["analyze", path, "--cone", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["cone"]["facets_match_family"] is True
    assert doc["cone"]["paths_agree"] is True
    assert doc["cone"]["facets"] == [[-1, 0, 1], [0, -1, 1], [0, 1, 0], [1, 0, 0]]


def test_analyze_normality_flag(tmp_path, capsys):
    path = write_input(
        tmp_path, {"n": 2, "kind": "multicomplex", "facets": [[2, 0], [0, 2]]}
    )
    code, out, _ = run(capsys, ["analyze", path, "--normality", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["path"] == "cone"
    assert doc["cone"]["normality"]["violation"] == [1, 1, 1]
    assert any("normal" in w for w in doc["warnings"])


def test_analyze_multicomplex_cone_only(tmp_path, capsys):
    path = write_input(tmp_path, {"n": 2, "kind": "multicomplex", "facets": [[1, 1]]})
    code, out, _ = run(capsys, ["analyze", path, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["class_group"]["relation"] == [1, 1]
    assert doc["class_group"]["invariants"]["description"] == "Z"


BOX_12_TEXT = """\
input: kind=box n=2
family (2 members):
  {1}  rank 1
  {2}  rank 2
class group: Z
  relation: 1 2
canonical class: 2 2
gorenstein: no
cone facets (4):
  -1 0 1
  0 -1 2
  0 1 0
  1 0 0
cone facets match family forms: yes
cone path agrees with rank path: yes
normality witness: no violation up to degree 2
"""

BOX_12_JSON = {
    "canonical_class": [2, 2],
    "class_group": {
        "invariants": {"description": "Z", "free_rank": 1, "torsion": 1},
        "labels": ["P_{1}", "P_{2}"],
        "relation": [1, 2],
    },
    "cone": {
        "facets": [[-1, 0, 1], [0, -1, 2], [0, 1, 0], [1, 0, 0]],
        "facets_match_family": True,
        "normality": {"max_degree": 2, "violation": None},
        "paths_agree": True,
    },
    "family": [
        {"rank": 1, "set": [1], "size": 1},
        {"rank": 2, "set": [2], "size": 1},
    ],
    "gorenstein": {"a": None, "is_gorenstein": False},
    "input": {"kind": "box", "n": 2, "v": [1, 2]},
    "path": "rank",
    "warnings": [],
}


def test_analyze_box_report_bytes(tmp_path, capsys):
    path = write_input(tmp_path, {"n": 2, "kind": "box", "v": [1, 2]})
    argv = ["analyze", path, "--cone", "--normality", "2"]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (0, BOX_12_TEXT, "")
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert (code, err) == (0, "")
    assert out == json.dumps(BOX_12_JSON, sort_keys=True, indent=2) + "\n"


ASSUMES_NORMAL = "class group and canonical class assume the semigroup is normal"
RUN_NORMALITY = ASSUMES_NORMAL + "; run --normality to search for a witness against it"

MULTICOMPLEX_TEXT = f"""\
input: kind=multicomplex n=2
class group: Z^2
  relation: 3 2 2
canonical class: 3 2 2
gorenstein: yes (a = 1)
cone facets (5):
  -1 -1 3
  -1 0 2
  0 -1 2
  0 1 0
  1 0 0
warning: {RUN_NORMALITY}
"""

MULTICOMPLEX_JSON = {
    "canonical_class": [3, 2, 2],
    "class_group": {
        "invariants": {"description": "Z^2", "free_rank": 2, "torsion": 1},
        "labels": ["P_{1,2}", "P_{1}", "P_{2}"],
        "relation": [3, 2, 2],
    },
    "cone": {"facets": [[-1, -1, 3], [-1, 0, 2], [0, -1, 2], [0, 1, 0], [1, 0, 0]]},
    "gorenstein": {"a": 1, "is_gorenstein": True},
    "input": {
        "facets": [[2, 1], [1, 2]],
        "generalized": False,
        "kind": "multicomplex",
        "n": 2,
    },
    "path": "cone",
    "warnings": [RUN_NORMALITY],
}


def test_analyze_multicomplex_report_bytes(tmp_path, capsys):
    # the answer sits at the top level, as for a polymatroid, and the text
    # report prints the canonical class and the Gorenstein verdict
    path = write_input(tmp_path, {"n": 2, "kind": "multicomplex", "facets": [[2, 1], [1, 2]]})
    code, out, err = run(capsys, ["analyze", path])
    assert (code, out, err) == (0, MULTICOMPLEX_TEXT, "")
    code, out, err = run(capsys, ["analyze", path, "--format", "json"])
    assert (code, err) == (0, "")
    assert out == json.dumps(MULTICOMPLEX_JSON, sort_keys=True, indent=2) + "\n"


# {0, e1, e2, e3, (1,1,2)}: (1,1,1,2) is half the sum of the generators
# (1,1,2,1), (1,0,0,1), (0,1,0,1) and (0,0,0,1), so it lies in the cone, but
# no two generators sum to it
NOT_NORMAL = {
    "n": 3,
    "kind": "multicomplex",
    "generalized": True,
    "facets": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 2]],
}


@pytest.mark.parametrize(
    "payload, flags, warnings",
    [
        (NOT_NORMAL, [], [RUN_NORMALITY]),
        (
            NOT_NORMAL,
            ["--normality", "3"],
            [
                "the semigroup is not normal, so the class group and canonical "
                "class do not describe its ring",
                "degree-2 cone point (1, 1, 1, 2) is not a sum of generators",
            ],
        ),
        (
            {"n": 2, "kind": "multicomplex", "facets": [[2, 1], [1, 2]]},
            ["--normality", "3"],
            [ASSUMES_NORMAL],
        ),
    ],
)
def test_multicomplex_normality_warning_follows_the_witness(
    tmp_path, capsys, payload, flags, warnings
):
    path = write_input(tmp_path, payload)
    code, out, _ = run(capsys, ["analyze", path, *flags, "--format", "json"])
    assert code == 0
    assert json.loads(out)["warnings"] == warnings
    code, out, _ = run(capsys, ["analyze", path, *flags])
    assert code == 0
    assert out.endswith("".join(f"warning: {w}\n" for w in warnings))


def test_schema_violation_exit_2(tmp_path, capsys):
    path = write_input(tmp_path, {"n": 2, "kind": "box", "v": [1]})
    code, _, err = run(capsys, ["analyze", path])
    assert code == 2
    assert 'at "v"' in err


def test_bad_table_key_exit_2(tmp_path, capsys):
    path = write_input(
        tmp_path, {"n": 2, "kind": "rank_table", "table": {"2,1": 1, "1": 1, "2": 1}}
    )
    code, _, err = run(capsys, ["analyze", path])
    assert code == 2
    assert "sorted" in err


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"kind": "transversal"}, 'at "sets": expected a nonempty array of index arrays'),
        ({"kind": "transversal", "sets": []}, 'at "sets": expected a nonempty array of index arrays'),
        ({"kind": "transversal", "sets": {"1": [1]}}, 'at "sets": expected a nonempty array of index arrays'),
        ({"kind": "transversal", "sets": [[1], "2"]}, "at sets[1]: expected an array of integers"),
        ({"kind": "transversal", "sets": [[1, 2.5]]}, "at sets[0]: expected an array of integers"),
        ({"kind": "transversal", "sets": [[2, 1]]}, "at sets[0]: indices must be sorted and distinct"),
        ({"kind": "transversal", "sets": [[1], [3, 3]]}, "at sets[1]: indices must be sorted and distinct"),
        ({"kind": "transversal", "sets": [[0, 1]]}, "at sets[0]: indices must lie in 1..3"),
        ({"kind": "transversal", "sets": [[1], [4]]}, "at sets[1]: indices must lie in 1..3"),
        ({"kind": "transversal", "sets": [[1], []]}, "transversal family members must be nonempty"),
        ({"kind": "matroid_bases"}, 'at "bases": expected a nonempty array of index arrays'),
        ({"kind": "matroid_bases", "bases": []}, 'at "bases": expected a nonempty array of index arrays'),
        ({"kind": "matroid_bases", "bases": 7}, 'at "bases": expected a nonempty array of index arrays'),
        ({"kind": "matroid_bases", "bases": [[1, 2], None]}, "at bases[1]: expected an array of integers"),
        ({"kind": "matroid_bases", "bases": [[2, 1]]}, "at bases[0]: indices must be sorted and distinct"),
        ({"kind": "matroid_bases", "bases": [[1, 2], [2, 4]]}, "at bases[1]: indices must lie in 1..3"),
        ({"kind": "points"}, 'at "points": expected a nonempty array of vectors'),
        ({"kind": "points", "points": []}, 'at "points": expected a nonempty array of vectors'),
        ({"kind": "points", "points": "1,0,0"}, 'at "points": expected a nonempty array of vectors'),
        ({"kind": "points", "points": [[1, 0, 0], [1, 0]]}, "at points[1]: expected an array of 3 integers"),
        ({"kind": "points", "points": [{"a": 1}]}, "at points[0]: expected an array of 3 integers"),
        ({"kind": "points", "points": [[1, 0, "1"]]}, "at points[0]: entries must be integers"),
        ({"kind": "points", "points": [[1, 1, 1], [0, -1, 0]]}, 'at "points": coordinates must be >= 0'),
        ({"kind": "multicomplex"}, 'at "facets": expected a nonempty array of vectors'),
        ({"kind": "multicomplex", "facets": []}, 'at "facets": expected a nonempty array of vectors'),
        ({"kind": "multicomplex", "facets": [[1, 1]]}, "at facets[0]: expected an array of 3 integers"),
        ({"kind": "multicomplex", "facets": [[1, 1, 1], [0.5, 0, 0]]}, "at facets[1]: entries must be integers"),
        ({"kind": "multicomplex", "facets": [[-1, 1, 1]]}, 'at "facets": coordinates must be >= 0'),
        (
            {"kind": "multicomplex", "facets": [[1, 1, 1]], "generalized": 1},
            'at "generalized": expected a boolean',
        ),
    ],
)
def test_malformed_list_payload_messages(tmp_path, capsys, payload, message):
    path = write_input(tmp_path, {"n": 3, **payload})
    code, out, err = run(capsys, ["analyze", path])
    assert (code, out, err) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"n": True, "kind": "box", "v": [2]}, 'at "n": expected a positive integer'),
        ({"n": 2, "kind": "box", "v": [True, 2]}, 'at "v": entries must be integers'),
        ({"n": 2, "kind": "veronese", "s": [1, 1], "d": True}, 'at "d": expected a positive integer'),
        ({"n": 2, "kind": "transversal", "sets": [[True, 2]]}, "at sets[0]: expected an array of integers"),
        (
            {"n": 2, "kind": "rank_table", "table": {"1": True, "2": 1, "1,2": 2}},
            'at table["1"]: rank must be an integer',
        ),
    ],
)
def test_booleans_are_not_integers(tmp_path, capsys, payload, message):
    path = write_input(tmp_path, payload)
    code, out, err = run(capsys, ["analyze", path])
    assert (code, out, err) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize(
    "key, message",
    [
        # keys that parse to another subset's indices
        ("01", 'at table["01"]: bad subset key'),
        ("1, 2", 'at table["1, 2"]: bad subset key'),
        ("+1,2", 'at table["+1,2"]: bad subset key'),
        (" 2", 'at table[" 2"]: bad subset key'),
        ("1,2 ", 'at table["1,2 "]: bad subset key'),
        # keys refused before the canonical check keep their messages
        ("x", 'at table["x"]: bad subset key'),
        ("1,,2", 'at table["1,,2"]: bad subset key'),
        ("2,1", 'at table["2,1"]: indices must be sorted and distinct'),
        ("03", 'at table["03"]: indices must lie in 1..2'),
    ],
)
def test_non_canonical_table_key_exit_2(tmp_path, capsys, key, message):
    table = {"1": 1, "2": 1, "1,2": 2, key: 1}
    path = write_input(tmp_path, {"n": 2, "kind": "rank_table", "table": table})
    code, out, err = run(capsys, ["analyze", path])
    assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_rank_table_echo_omits_the_empty_set(tmp_path, capsys):
    table = {"1,2": 2, "2": 1, "": 0, "1": 1}
    path = write_input(tmp_path, {"n": 2, "kind": "rank_table", "table": table})
    code, out, _ = run(capsys, ["analyze", path, "--format", "json"])
    assert code == 0
    assert json.loads(out)["input"]["table"] == {"1": 1, "2": 1, "1,2": 2}


def test_invalid_rank_table_exit_2(tmp_path, capsys):
    table = {"1": 1, "2": 1, "1,2": 3}  # submodularity fails
    path = write_input(tmp_path, {"n": 2, "kind": "rank_table", "table": table})
    code, _, err = run(capsys, ["verify", path])
    assert code == 2
    assert "submodularity" in err


def test_resource_cap_exit_3(tmp_path, capsys):
    path = write_input(tmp_path, {"n": 3, "kind": "box", "v": [3, 3, 3]})
    code, _, err = run(capsys, ["facets", path, "--point-cap", "5"])
    assert code == 3
    assert "cap" in err


def test_max_n_cap_exit_3(tmp_path, capsys):
    path = write_input(
        tmp_path, {"n": 4, "kind": "veronese", "s": [1, 1, 1, 1], "d": 2}
    )
    code, _, err = run(capsys, ["analyze", path, "--max-n", "3"])
    assert code == 3


@pytest.mark.parametrize("flag", ["--max-n", "--point-cap", "--normality"])
def test_nonpositive_limits_exit_2_before_reading_input(tmp_path, capsys, flag):
    # the input file does not exist: a refusal that read it first would say so
    path = str(tmp_path / "missing.json")
    for value in ("0", "-1"):
        code, out, err = run(capsys, ["analyze", path, flag, value])
        assert code == 2
        assert out == ""
        assert err == f"input error: {flag} must be >= 1, got {value}\n"


def test_facets_output(tmp_path, capsys):
    path = write_input(tmp_path, {"n": 2, "kind": "box", "v": [1, 1]})
    code, out, err = run(capsys, ["facets", path])
    assert code == 0
    assert out == "-1 0 1\n0 -1 1\n0 1 0\n1 0 0\n"
    assert err == ""
    forms = Analysis(Polymatroid.box((1, 1))).forms
    assert type(forms) is list and all(type(f) is tuple for f in forms)


def test_facets_simplex(tmp_path, capsys):
    path = write_input(
        tmp_path, {"n": 2, "kind": "veronese", "s": [1, 1], "d": 1}
    )
    code, out, _ = run(capsys, ["facets", path])
    assert code == 0
    assert len(out.splitlines()) == 3


def test_verify_agreement(tmp_path, capsys):
    path = write_input(
        tmp_path,
        {"n": 3, "kind": "transversal", "sets": [[1], [1, 2, 3], [1, 2, 3]]},
    )
    code, out, _ = run(capsys, ["verify", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["checks"]["closed_form"] == "transversal:nested-chains"
    assert doc["class_group"]["description"] == "Z"


def test_verify_each_named_family(tmp_path, capsys):
    inputs = [
        {"n": 3, "kind": "box", "v": [2, 2, 2]},
        {"n": 3, "kind": "veronese", "s": [1, 1, 1], "d": 2},
        {"n": 4, "kind": "transversal", "sets": [[1, 2], [1, 2], [3, 4], [3, 4]]},
        {"n": 3, "kind": "points", "points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    ]
    for k, payload in enumerate(inputs):
        path = write_input(tmp_path, payload, name=f"in{k}.json")
        code, out, _ = run(capsys, ["verify", path])
        assert code == 0, out
        assert json.loads(out)["ok"] is True


@pytest.mark.parametrize(
    "payload, closed_form",
    [
        ({"n": 3, "kind": "box", "v": [2, 2, 2]}, "box"),
        ({"n": 3, "kind": "veronese", "s": [1, 1, 1], "d": 2}, "veronese"),
        ({"n": 2, "kind": "veronese", "s": [1, 2], "d": 2}, "veronese"),  # s_n = d
        ({"n": 2, "kind": "veronese", "s": [2, 1], "d": 2}, "veronese"),  # unsorted caps
        (
            {"n": 2, "kind": "transversal", "sets": [[1, 2], [1, 2], [1, 2]]},
            "transversal:nested-chains",
        ),
        (
            {"n": 4, "kind": "transversal", "sets": [[1, 2], [1, 2], [3, 4], [3, 4], [3, 4]]},
            "transversal:nested-chains",
        ),
        (
            {"n": 3, "kind": "transversal", "sets": [[1], [1, 2, 3], [1, 2, 3]]},
            "transversal:nested-chains",
        ),
        (
            {"n": 3, "kind": "transversal", "sets": [[1, 2], [2, 3]]},
            "transversal:torsion-free-witness",
        ),
        ({"n": 3, "kind": "transversal", "sets": [[1, 2], [2, 3], [1, 3]]}, None),  # generic
        (
            # two parts, {1} < {1, 2} and {3, 4}: once generic
            {"n": 4, "kind": "transversal", "sets": [[1], [1, 2], [1, 2], [3, 4], [3, 4]]},
            "transversal:nested-chains",
        ),
    ],
)
def test_verify_closed_form_dispatch(tmp_path, capsys, payload, closed_form):
    path = write_input(tmp_path, payload)
    code, out, _ = run(capsys, ["verify", path])
    doc = json.loads(out)
    assert (code, doc["ok"]) == (0, True)
    assert doc["checks"].get("closed_form") == closed_form


def test_analyze_matroid_runs_unmixedness_screen(tmp_path, capsys):
    # star-skeleton matroid: mixed skeleton, hence not Gorenstein
    payload = {"n": 4, "kind": "matroid_bases", "bases": [[1, 2], [1, 3], [1, 4]]}
    path = write_input(tmp_path, payload)
    code, out, _ = run(capsys, ["analyze", path, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["gorenstein"]["skeleton_unmixed"] is False
    assert doc["gorenstein"]["is_gorenstein"] is False
    assert any("unmixed" in w for w in doc["warnings"])


def test_analyze_unmixed_matroid(tmp_path, capsys):
    payload = {
        "n": 4,
        "kind": "matroid_bases",
        "bases": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]],
    }
    path = write_input(tmp_path, payload)
    code, out, _ = run(capsys, ["analyze", path, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["gorenstein"]["skeleton_unmixed"] is True


def test_verify_multicomplex_single_path(tmp_path, capsys):
    path = write_input(tmp_path, {"n": 2, "kind": "multicomplex", "facets": [[2, 1]]})
    code, out, _ = run(capsys, ["verify", path])
    assert code == 0
    assert "single-path" in json.loads(out)["note"]


def test_unknown_kind_exit_2(tmp_path, capsys):
    path = write_input(tmp_path, {"n": 2, "kind": "mystery"})
    code, _, err = run(capsys, ["analyze", path])
    assert code == 2
    assert 'at "kind"' in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, ["analyze", "/nonexistent/nowhere.json"])
    assert code == 2


def test_max_n_cap_precedes_validation(tmp_path, capsys):
    table = {"1": 1, "2": 1, "3": 1, "1,2": 3, "1,3": 2, "2,3": 2, "1,2,3": 3}
    path = write_input(tmp_path, {"n": 3, "kind": "rank_table", "table": table})
    code, _, err = run(capsys, ["analyze", path, "--max-n", "2"])
    assert code == 3
    assert "ground-set size 3 exceeds the enumeration cap 2" in err
    assert "fails validation" not in err


def test_facets_max_n_cap_prints_nothing(tmp_path, capsys):
    path = write_input(tmp_path, {"n": 3, "kind": "box", "v": [1, 1, 1]})
    code, out, err = run(capsys, ["facets", path, "--max-n", "2"])
    assert code == 3
    assert out == ""
    assert "exceeds the enumeration cap 2" in err


def test_max_n_cap_precedes_rank_table_build(tmp_path, capsys, monkeypatch):
    def no_table(self, n, rep):
        raise AssertionError("the rank table was built")

    monkeypatch.setattr(Polymatroid, "__init__", no_table)
    path = write_input(tmp_path, {"n": 18, "kind": "box", "v": [1] * 18})
    code, out, err = run(capsys, ["analyze", path, "--max-n", "16"])
    assert code == 3
    assert out == ""
    assert "ground-set size 18 exceeds the enumeration cap 16" in err


@pytest.mark.parametrize(
    "payload",
    [
        {"n": 17, "kind": "rank_table", "table": {"1": 1}},  # subsets missing
        {"n": 17, "kind": "transversal", "sets": [[]]},  # empty member
    ],
)
def test_over_cap_input_failing_its_constructor_exits_3(tmp_path, capsys, payload):
    # the constructor's input error comes after the cap; within the cap the
    # same payload exits 2
    path = write_input(tmp_path, payload)
    code, _, err = run(capsys, ["analyze", path, "--max-n", "16"])
    assert code == 3
    assert "ground-set size 17 exceeds the enumeration cap 16" in err
    code, _, err = run(capsys, ["analyze", path, "--max-n", "17"])
    assert code == 2
    assert "input error:" in err


def test_bitmask_limit_precedes_max_n_cap(tmp_path, capsys):
    path = write_input(tmp_path, {"n": 64, "kind": "box", "v": [1] * 64})
    code, _, err = run(capsys, ["analyze", path, "--max-n", "16"])
    assert code == 2
    assert "exceeds the bitmask limit of 63" in err


@pytest.mark.parametrize(
    "payload",
    [
        {"n": 21, "kind": "box", "v": [1] * 21},
        {"n": 21, "kind": "rank_table", "table": {"1": 1}},  # subsets missing
    ],
)
def test_table_limit_exits_3_within_max_n(tmp_path, capsys, payload):
    path = write_input(tmp_path, payload)
    code, out, err = run(capsys, ["analyze", path, "--max-n", "21"])
    assert code == 3
    assert out == ""
    assert err == "resource cap exceeded: ground-set size 21 exceeds the enumeration cap 20\n"


@pytest.mark.parametrize(
    "payload, within",
    [
        (
            {"n": 17, "kind": "rank_table", "table": {"1,x": 1}},
            'at table["1,x"]: bad subset key',
        ),
        (
            {"n": 17, "kind": "rank_table", "table": {"1": True}},
            'at table["1"]: rank must be an integer',
        ),
        ({"n": 17, "kind": "box", "v": [1, 1]}, 'at "v": expected an array of 17 integers'),
        ({"n": 17, "kind": "box", "v": [0] * 17}, 'at "v": bounds must be >= 1'),
        (
            {"n": 17, "kind": "veronese", "s": [0] * 17, "d": 2},
            'at "s": caps must be >= 1',
        ),
    ],
    ids=["bad-key", "boolean-rank", "wrong-length", "zero-bound", "zero-cap"],
)
def test_over_cap_malformed_payload_exits_3(tmp_path, capsys, payload, within):
    # n decides first: over the cap the payload is never read
    path = write_input(tmp_path, payload)
    assert run(capsys, ["analyze", path, "--max-n", "16"]) == (
        3,
        "",
        "resource cap exceeded: ground-set size 17 exceeds the enumeration cap 16\n",
    )
    assert run(capsys, ["analyze", path, "--max-n", "17"]) == (
        2,
        "",
        f"input error: {within}\n",
    )


@pytest.mark.parametrize("n, max_n, cap", [(21, 21, 20), (21, 30, 20), (23, 22, 22)])
def test_over_table_limit_malformed_payload_exits_3(tmp_path, capsys, n, max_n, cap):
    # --max-n refuses first, then the table limit; the bad key is never read
    path = write_input(tmp_path, {"n": n, "kind": "rank_table", "table": {"x": 1}})
    assert run(capsys, ["analyze", path, "--max-n", str(max_n)]) == (
        3,
        "",
        f"resource cap exceeded: ground-set size {n} exceeds the enumeration cap {cap}\n",
    )


@pytest.mark.parametrize(
    "payload",
    [
        {"n": 17, "kind": "rank_table", "table": {"1": 1}},
        {"n": 17, "kind": "transversal", "sets": [[1, 2]]},
        {"n": 17, "kind": "matroid_bases", "bases": [[1, 2]]},
    ],
    ids=["rank_table", "transversal", "matroid_bases"],
)
def test_max_n_cap_precedes_reading_subsets(tmp_path, capsys, monkeypatch, payload):
    def no_subsets(indices, n, where):
        raise AssertionError("a subset was read")

    monkeypatch.setattr("polytoric.cli._subset_mask", no_subsets)
    path = write_input(tmp_path, payload)
    code, out, err = run(capsys, ["analyze", path, "--max-n", "16"])
    assert (code, out) == (3, "")
    assert "ground-set size 17 exceeds the enumeration cap 16" in err


def test_invalid_json_exit_2(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text('{"n": 3, "kind": "box", "v": [1, 2')
    code, out, err = run(capsys, ["analyze", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: at {path}: invalid JSON (")


@pytest.mark.parametrize(
    "payload, err",
    [
        ([1, 2, 3], "at top level: expected a JSON object"),
        ({"n": 2, "kind": "rank_table", "table": [1, 1, 2]}, 'at "table": expected an object'),
    ],
    ids=["top-level-array", "table-array"],
)
def test_non_object_exit_2(tmp_path, capsys, payload, err):
    path = write_input(tmp_path, payload)
    assert run(capsys, ["analyze", path]) == (2, "", f"input error: {err}\n")


def test_generator_set_unit_violation_names_its_element(tmp_path, capsys):
    payload = {
        "n": 2,
        "kind": "multicomplex",
        "generalized": True,
        "facets": [[0, 0], [1, 0], [2, 0]],
    }
    path = write_input(tmp_path, payload)
    assert run(capsys, ["analyze", path]) == (
        2,
        "",
        "input fails validation:\n  generator-set at {2}: unit vector e_2 missing\n",
    )


def test_multicomplex_point_cap_exit_3(tmp_path, capsys):
    path = write_input(tmp_path, {"n": 2, "kind": "multicomplex", "facets": [[3, 3]]})
    assert run(capsys, ["analyze", path, "--point-cap", "5"]) == (
        3,
        "",
        "resource cap exceeded: multicomplex point count exceeds cap of 5\n",
    )


def patch_everywhere(monkeypatch, name, wrap):
    """Replace polytoric function `name` in every module that imported it."""
    original = getattr(importlib.import_module("polytoric"), name)
    replacement = wrap(original)
    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "polytoric" and vars(module).get(name) is original:
            monkeypatch.setattr(module, name, replacement)


def drop_first_form(cone_facets):
    return lambda gens: cone_facets(gens)[1:]


def drop_first_member(closed_inseparable_family):
    def family(p, *args, **kwargs):
        fam = closed_inseparable_family(p, *args, **kwargs)
        return ClosedInseparableFamily(n=fam.n, members=fam.members[1:])

    return family


def test_facets_cross_check_failure_exit_1(tmp_path, capsys, monkeypatch):
    patch_everywhere(monkeypatch, "cone_facets", drop_first_form)
    path = write_input(tmp_path, {"n": 2, "kind": "box", "v": [1, 1]})
    code, out, err = run(capsys, ["facets", path])
    assert code == 1
    assert out.splitlines() == ["0 -1 1", "0 1 0", "1 0 0"]
    assert err.splitlines() == ["facet cross-check FAILED:", "  missing -1 0 1"]


def test_antichain_violation_names_no_subset(tmp_path, capsys):
    payload = {"n": 3, "kind": "multicomplex", "facets": [[1, 1, 0], [1, 0, 0], [0, 1, 1]]}
    path = write_input(tmp_path, payload)
    code, out, err = run(capsys, ["analyze", path])
    assert code == 2
    assert out == ""
    assert err == (
        "input fails validation:\n"
        "  antichain: facets (1, 1, 0) and (1, 0, 0) are comparable\n"
    )


@pytest.mark.parametrize(
    "n, bases, err",
    [
        (
            3,
            [[1, 2], [1, 3], [1, 2, 3]],
            "input fails validation:\n"
            "  basis-cardinality at {1,2}, {1,2,3}: bases of unequal sizes [2, 3]\n",
        ),
        (
            4,
            [[1, 2], [1, 2, 3], [4]],
            "input fails validation:\n"
            "  submodularity at {1,4}, {2,4}: 1 + 1 < 2 + 1\n"
            "  submodularity at {1,4}, {3,4}: 1 + 1 < 2 + 1\n"
            "  submodularity at {1,4}, {2,3,4}: 1 + 2 < 3 + 1\n"
            "  submodularity at {2,4}, {3,4}: 1 + 1 < 2 + 1\n"
            "  submodularity at {2,4}, {1,3,4}: 1 + 2 < 3 + 1\n"
            "  submodularity at {1,2,4}, {3,4}: 2 + 1 < 3 + 1\n"
            "  basis-cardinality at {1,2}, {1,2,3}: bases of unequal sizes [1, 2, 3]\n",
        ),
    ],
    ids=["two-smallest-equal", "two-smallest-differ"],
)
def test_basis_cardinality_names_bases_of_unequal_sizes(tmp_path, capsys, n, bases, err):
    path = write_input(tmp_path, {"n": n, "kind": "matroid_bases", "bases": bases})
    assert run(capsys, ["analyze", path]) == (2, "", err)


def test_generator_set_zero_violation_names_no_subset(tmp_path, capsys):
    payload = {
        "n": 2,
        "kind": "multicomplex",
        "generalized": True,
        "facets": [[1, 0], [0, 1], [2, 2]],
    }
    path = write_input(tmp_path, payload)
    code, out, err = run(capsys, ["analyze", path])
    assert code == 2
    assert out == ""
    assert err == "input fails validation:\n  generator-set: zero vector missing\n"


def test_polymatroid_normality_violation_exit_1(tmp_path, capsys, monkeypatch):
    # polymatroid rings are normal, so a violation here is an engine fault
    def hole(normality_witness):
        return lambda gens, forms, degree, point_cap: NormalityWitness(degree, (1, 1, 2))

    patch_everywhere(monkeypatch, "normality_witness", hole)
    path = write_input(tmp_path, {"n": 2, "kind": "box", "v": [1, 1]})
    code, out, err = run(capsys, ["analyze", path, "--normality", "2"])
    assert code == 1
    assert out == ""
    assert err == (
        "mathematical cross-check failed: normality witness on a polymatroid, "
        "whose ring is normal: degree-2 cone point (1, 1, 2) is not a sum of "
        "generators\n"
    )


def test_verify_disagreement_exit_1(tmp_path, capsys, monkeypatch):
    patch_everywhere(monkeypatch, "closed_inseparable_family", drop_first_member)
    path = write_input(tmp_path, {"n": 2, "kind": "box", "v": [1, 1]})
    code, out, _ = run(capsys, ["verify", path])
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["checks"]["facets_match"] is False
    assert "facet sets differ: 0 missing, 1 unexpected" in doc["diff"]


def test_analyze_cone_normality_enumerates_facets_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(cone_facets):
        def counted(gens):
            calls.append(gens)
            return cone_facets(gens)

        return counted

    patch_everywhere(monkeypatch, "cone_facets", counting)
    path = write_input(tmp_path, {"n": 2, "kind": "box", "v": [1, 2]})
    code, _, _ = run(capsys, ["analyze", path, "--cone", "--normality", "2"])
    assert code == 0
    assert len(calls) == 1


UNIT_BOX_TABLE = {"n": 2, "kind": "rank_table", "table": {"1": 1, "2": 1, "1,2": 2}}


def verify_with(tmp_path, capsys, monkeypatch, name, wrap):
    """Run verify on the unit box (relation (1, 1), a = 2; no closed form)
    with polytoric function `name` wrapped by `wrap`."""
    patch_everywhere(monkeypatch, name, wrap)
    code, out, _ = run(capsys, ["verify", write_input(tmp_path, UNIT_BOX_TABLE)])
    return code, json.loads(out)


def shifted_canonical(shift):
    """Wrap canonical_from_cone to add `shift` to its coordinates."""

    def wrap(canonical_from_cone):
        def shifted(pres):
            coords = canonical_from_cone(pres).coords
            return DivisorClass(tuple(c + s for c, s in zip(coords, shift)), pres)

        return shifted

    return wrap


def test_verify_canonical_mismatch_exit_1(tmp_path, capsys, monkeypatch):
    first = shifted_canonical((1, 0))
    code, doc = verify_with(tmp_path, capsys, monkeypatch, "canonical_from_cone", first)
    assert code == 1
    assert doc["checks"]["canonical_match"] is False
    assert doc["checks"]["gorenstein_match"] is False
    assert doc["diff"] == [
        "canonical classes differ: (2, 2) vs (3, 2)",
        "Gorenstein verdicts differ: 2 vs None",
    ]


def test_verify_canonical_compares_classes_not_coordinates(tmp_path, capsys, monkeypatch):
    # adding the relation (1, 1) keeps the class, but moves the Gorenstein a by one
    relation = shifted_canonical((1, 1))
    code, doc = verify_with(tmp_path, capsys, monkeypatch, "canonical_from_cone", relation)
    assert code == 1
    assert doc["checks"]["canonical_match"] is True
    assert doc["checks"]["gorenstein_match"] is False
    assert doc["diff"] == ["Gorenstein verdicts differ: 2 vs 3"]


def test_verify_gorenstein_mismatch_exit_1(tmp_path, capsys, monkeypatch):
    never = lambda is_gorenstein: lambda family: None
    code, doc = verify_with(tmp_path, capsys, monkeypatch, "is_gorenstein", never)
    assert code == 1
    assert doc["checks"]["canonical_match"] is True
    assert doc["checks"]["gorenstein_match"] is False
    assert doc["diff"] == ["Gorenstein verdicts differ: None vs 2"]


def test_verify_invariants_mismatch_exit_1(tmp_path, capsys, monkeypatch):
    # the cone presentation keeps its keys but claims torsion Z/2Z
    def torsion_2(class_group_from_cone):
        def presentation(forms):
            pres = class_group_from_cone(forms)
            free_rank = pres.invariants.free_rank
            pres.__dict__["invariants"] = GroupInvariants(free_rank, 2)
            return pres

        return presentation

    patch_everywhere(monkeypatch, "class_group_from_cone", torsion_2)
    path = write_input(tmp_path, {"n": 2, "kind": "box", "v": [1, 1]})
    code, out, _ = run(capsys, ["verify", path])
    doc = json.loads(out)
    assert code == 1
    assert doc["checks"]["invariants_match"] is False
    assert doc["checks"]["canonical_match"] is False
    assert doc["checks"]["gorenstein_match"] is True
    assert doc["diff"] == ["invariants differ: Z vs Z + Z/2Z"]


def test_facets_unexpected_form_exit_1(tmp_path, capsys, monkeypatch):
    patch_everywhere(monkeypatch, "closed_inseparable_family", drop_first_member)
    path = write_input(tmp_path, {"n": 2, "kind": "box", "v": [1, 1]})
    code, out, err = run(capsys, ["facets", path])
    assert code == 1
    assert out.splitlines() == ["-1 0 1", "0 -1 1", "0 1 0", "1 0 0"]
    assert err.splitlines() == ["facet cross-check FAILED:", "  unexpected -1 0 1"]


def verify_closed_form(tmp_path, capsys, monkeypatch, payload, name, wrap):
    """verify on `payload` with the closed-form oracle `name` wrapped."""
    patch_everywhere(monkeypatch, name, wrap)
    code, out, _ = run(capsys, ["verify", write_input(tmp_path, payload)])
    doc = json.loads(out)
    assert (code, doc["ok"], doc["checks"]["closed_form_match"]) == (1, False, False)
    return doc["diff"]


def test_verify_broken_free_group_promise_exit_1(tmp_path, capsys, monkeypatch):
    # a generic family with group Z^2 + Z/2Z, which the classification calls free
    payload = {"n": 3, "kind": "transversal", "sets": [[1, 2], [1, 2], [1, 3], [1, 3]]}
    free = lambda classify: lambda n, sets: "torsion-free-witness"
    diff = verify_closed_form(tmp_path, capsys, monkeypatch, payload, "classify_transversal", free)
    assert diff == ["classification promises a free group, computed Z^2 + Z/2Z"]


def test_verify_classification_mismatch_exit_1(tmp_path, capsys, monkeypatch):
    payload = {"n": 2, "kind": "transversal", "sets": [[1, 2], [1, 2], [1, 2]]}

    def wrong(analysis):
        def analyzed(n, sets):
            family, _, a = analysis(n, sets)
            return family, GroupInvariants(1, 3), a

        return analyzed

    diff = verify_closed_form(tmp_path, capsys, monkeypatch, payload, "nested_chain_analysis", wrong)
    assert diff == ["closed-form invariants Z + Z/3Z != computed Z/3Z"]


def test_verify_closed_form_gorenstein_mismatch_exit_1(tmp_path, capsys, monkeypatch):
    # the unit box is Gorenstein with a = 2; the oracle is made to deny it
    def denied(box_analysis):
        def analysis(v):
            family, invariants, _ = box_analysis(v)
            return family, invariants, None

        return analysis

    payload = {"n": 2, "kind": "box", "v": [1, 1]}
    diff = verify_closed_form(tmp_path, capsys, monkeypatch, payload, "box_analysis", denied)
    assert diff == ["closed-form gorenstein None != computed 2"]


def test_analyze_matroid_contradicting_skeleton_screen_exit_1(tmp_path, capsys, monkeypatch):
    # U(2,3) is Gorenstein; a screen that calls its skeleton mixed contradicts it
    def mixed(check):
        return lambda p: dataclasses.replace(check(p), unmixed=False)

    patch_everywhere(monkeypatch, "matroid_unmixed_check", mixed)
    payload = {"n": 3, "kind": "matroid_bases", "bases": [[1, 2], [1, 3], [2, 3]]}
    path = write_input(tmp_path, payload)
    assert run(capsys, ["analyze", path]) == (
        1,
        "",
        "mathematical cross-check failed: Gorenstein verdict contradicts the "
        "mixed one-skeleton screen\n",
    )
