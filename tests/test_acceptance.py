"""Acceptance suite: one test per criterion, with a printed verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The shared corpus (criteria 5-7 and 10) holds 200 seeded random valid rank
tables with n <= 4 plus every named-family instance with n <= 4 from
criteria 1-4; it is built once per session.
"""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from polytoric import (
    Analysis,
    GroupInvariants,
    Polymatroid,
    class_group,
    class_group_from_cone,
    closed_inseparable_family,
    expected_form_keys,
    is_gorenstein,
    principal_class,
    relation_multiple,
    validate,
)
from polytoric import bitset
from polytoric.cli import main
from polytoric.families import (
    graph_complement_family,
    nested_chain_analysis,
    nested_chain_family,
)
from polytoric.sampling import corrupt_rank_table, random_rank_table

SEED = 0x5EED


@contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS - {title}")


def veronese_sweep(n_range, d_max=5):
    """All (s, d) with nondecreasing s, 1 <= s_i <= d <= d_max, d < sum(s),
    and every cap strictly below d."""
    for n in n_range:
        for d in range(2, d_max + 1):
            for s in itertools.combinations_with_replacement(range(1, d), n):
                if sum(s) > d:
                    yield n, s, d


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(SEED)
    instances = []
    for k in range(200):
        n = rng.randint(2, 4)
        table = random_rank_table(n, rng, max_unit_rank=3)
        instances.append((f"random-{k}", Polymatroid.from_rank_table(n, table)))
    for n in range(2, 5):
        for d in range(1, 6):
            instances.append((f"simplex-{n}-{d}", Polymatroid.veronese((d,) * n, d)))
    for n in range(1, 5):
        for v in itertools.product((1, 2, 3), repeat=n):
            instances.append((f"box-{v}", Polymatroid.box(v)))
    for n, s, d in veronese_sweep(range(2, 5)):
        instances.append((f"veronese-{s}-{d}", Polymatroid.veronese(s, d)))
    return instances


@pytest.fixture(scope="module")
def corpus_cone(corpus):
    """One Analysis per corpus instance, so each artifact is computed once."""
    return [(name, Analysis(p)) for name, p in corpus]


def test_criterion_1_uniform_transversal_7_4(tmp_path, capsys):
    with criterion(1, "uniform transversal family on 7 elements, 4-subsets"):
        sets = [
            sorted(i + 1 for i in bitset.elements(m))
            for m in bitset.subsets(7)
            if bitset.card(m) == 4
        ]
        path = tmp_path / "p74.json"
        path.write_text(json.dumps({"n": 7, "kind": "transversal", "sets": sets}))
        start = time.monotonic()
        code = main(["analyze", str(path), "--format", "json"])
        elapsed = time.monotonic() - start
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(doc["family"]) == 64
        assert sorted({m["rank"] for m in doc["family"]}) == [20, 30, 34, 35]
        assert doc["class_group"]["invariants"] == {
            "free_rank": 63,
            "torsion": 1,
            "description": "Z^63",
        }
        assert elapsed < 60.0


def test_criterion_2_degree_bounded_family():
    with criterion(2, "degree-bounded families: cyclic groups and divisibility"):
        start = time.monotonic()
        for d in range(1, 6):
            for n in range(2, 7):
                p = Polymatroid.veronese((d,) * n, d)
                assert validate(p).ok
                fam = closed_inseparable_family(p)
                assert class_group(fam).invariants == GroupInvariants(0, d)
                assert (is_gorenstein(fam) is not None) == ((n + 1) % d == 0)
        assert time.monotonic() - start < 60.0


def test_criterion_3_box_family():
    with criterion(3, "box families: invariants and Gorenstein classification"):
        for n in range(1, 5):
            for v in itertools.product((1, 2, 3), repeat=n):
                fam = closed_inseparable_family(Polymatroid.box(v))
                inv = class_group(fam).invariants
                assert inv == GroupInvariants(n - 1, math.gcd(*v))
                expected = all(x == v[0] for x in v) and v[0] <= 2
                assert (is_gorenstein(fam) is not None) == expected


def test_criterion_4_veronese_gorenstein_classification():
    with criterion(4, "Veronese-type Gorenstein classification, exhaustive"):
        start = time.monotonic()
        checked = 0
        for n, s, d in veronese_sweep(range(2, 6)):
            fam = closed_inseparable_family(Polymatroid.veronese(s, d))
            a = is_gorenstein(fam)
            predicted = (all(x == 2 for x in s) and n == d - 1 and n >= 2) or (
                all(x == 1 for x in s) and n == 2 * d - 1 and n >= 3
            )
            assert (a is not None) == predicted, (s, d, a)
            checked += 1
        assert checked > 100
        assert time.monotonic() - start < 300.0


def test_criterion_5_facet_cross_check(corpus_cone):
    with criterion(5, "facet forms equal family forms plus coordinates"):
        for name, analysis in corpus_cone:
            expected = expected_form_keys(analysis.family)
            actual = set(analysis.forms)
            assert expected == actual, name


def test_criterion_6_path_agreement(corpus_cone):
    with criterion(6, "cone path agrees with the rank-function path"):
        for name, analysis in corpus_cone:
            agreement = analysis.agreement
            assert agreement.ok, (name, agreement.notes)


def test_criterion_7_principal_divisor_nullity(corpus_cone):
    with criterion(7, "principal divisors vanish in the class group"):
        for name, analysis in corpus_cone:
            forms = analysis.forms
            pres = class_group_from_cone(forms)
            for u in itertools.product((-1, 0, 1), repeat=analysis.source.n + 1):
                cls = principal_class(u, pres)
                assert relation_multiple(cls) is not None, (name, u)


def test_criterion_8_transversal_classifications():
    with criterion(8, "transversal closed forms match the generic engine"):
        # all members equal to the ground set: finite cyclic of order s
        for n in range(2, 6):
            full = bitset.full_mask(n)
            for s in range(1, 6):
                fam = closed_inseparable_family(
                    Polymatroid.transversal(n, (full,) * s)
                )
                assert class_group(fam).invariants == GroupInvariants(0, s)
        # strict chains, r <= 3, multiplicities <= 3, n <= 5
        for n in range(2, 6):
            full = bitset.full_mask(n)
            chains = [[(full,)]]
            proper = [m for m in bitset.nonempty_subsets(n) if m != full]
            chains += [[(a1, full)] for a1 in proper]
            chains += [
                [(a1, a2, full)]
                for a2 in proper
                for a1 in bitset.nonempty_subsets(n)
                if a1 != a2 and a1 & ~a2 == 0
            ]
            for (chain_sets,) in chains:
                r = len(chain_sets)
                for mults in itertools.product((1, 2, 3), repeat=r):
                    chain = list(zip(chain_sets, mults))
                    p = nested_chain_family(n, chain)
                    predicted, inv, a = nested_chain_analysis(n, p.rep.sets)
                    fam = closed_inseparable_family(p)
                    assert fam.as_pairs() == predicted.as_pairs(), chain
                    assert class_group(fam).invariants == inv, chain
                    assert is_gorenstein(fam) == a, chain
        # two-shape families, n <= 5, s <= 5
        for n in range(2, 6):
            full = bitset.full_mask(n)
            for s in range(2, 6):
                for q in range(1, s):
                    d = math.gcd(q, s - q)
                    for b in bitset.nonempty_subsets(n):
                        if b == full:
                            continue
                        # partition shape: q copies of b, s-q of its complement
                        sets = (b,) * q + (full & ~b,) * (s - q)
                        fam = closed_inseparable_family(
                            Polymatroid.transversal(n, sets)
                        )
                        assert len(fam) == 2
                        assert class_group(fam).invariants == GroupInvariants(1, d)
                        predicted = nested_chain_analysis(n, sets)[0]
                        assert fam.as_pairs() == predicted.as_pairs()
                        # nested shape: q copies of b, s-q of the full set
                        sets = (b,) * q + (full,) * (s - q)
                        fam = closed_inseparable_family(
                            Polymatroid.transversal(n, sets)
                        )
                        assert len(fam) == 2
                        assert class_group(fam).invariants == GroupInvariants(1, d)
                        predicted = nested_chain_analysis(n, sets)[0]
                        assert fam.as_pairs() == predicted.as_pairs()
        # every target group Z^(r-1) + Z/dZ is realized, r <= 3, d <= 4
        for r in range(1, 4):
            for d in range(1, 5):
                n = max(r, 2)
                chain = [
                    (bitset.full_mask(i + 1), d) for i in range(r - 1)
                ] + [(bitset.full_mask(n), d)]
                fam = closed_inseparable_family(nested_chain_family(n, chain))
                assert class_group(fam).invariants == GroupInvariants(r - 1, d)


def connected_non_star_graphs(n):
    all_edges = list(itertools.combinations(range(n), 2))
    for picks in itertools.product((0, 1), repeat=len(all_edges)):
        edges = [e for e, take in zip(all_edges, picks) if take]
        if len(edges) < n - 1:
            continue
        adjacency = [0] * n
        for i, j in edges:
            adjacency[i] |= 1 << j
            adjacency[j] |= 1 << i
        reached, frontier = 1, [0]
        while frontier:
            v = frontier.pop()
            new = adjacency[v] & ~reached
            reached |= new
            frontier.extend(bitset.elements(new))
        if reached != bitset.full_mask(n):
            continue
        common = bitset.full_mask(n)
        for i, j in edges:
            common &= (1 << i) | (1 << j)
        if common:
            continue  # star
        yield edges


def test_criterion_9_graph_complement_families():
    with criterion(9, "graph complement families: free rank formula"):
        count = 0
        for n in (4, 5):
            for edges in connected_non_star_graphs(n):
                t, predicted, inv = graph_complement_family(n, edges)
                fam = closed_inseparable_family(t)
                assert fam.as_pairs() == predicted.as_pairs(), edges
                assert class_group(fam).invariants == inv, edges
                count += 1
        assert count > 500
        # n = 3: the triangle, free of rank 2
        t, predicted, inv = graph_complement_family(3, [(0, 1), (1, 2), (0, 2)])
        fam = closed_inseparable_family(t)
        assert inv == GroupInvariants(2, 1)
        assert class_group(fam).invariants == inv


def test_criterion_10_property_suite(corpus_cone):
    with criterion(10, "validation and normality witness"):
        # (a) every corrupted table in a 1000-sample corpus is rejected with
        #     a violation naming the planted subsets
        rng = random.Random(SEED + 1)
        for k in range(1000):
            n = rng.randint(2, 4)
            table = random_rank_table(n, rng, max_unit_rank=3)
            bad, fault = corrupt_rank_table(table, n, rng)
            report = validate(Polymatroid.from_rank_table(n, bad))
            assert not report.ok, (k, fault)
            if fault["kind"] == "monotonicity":
                planted = fault["subsets"][0]
                assert any(
                    v.kind == "monotonicity" and v.subsets[0] == planted
                    for v in report.violations
                ), (k, fault)
            else:
                pair = tuple(sorted(fault["subsets"]))
                assert any(
                    v.kind == "submodularity" and v.subsets == pair
                    for v in report.violations
                ), (k, fault)
        # (b) the normality witness finds no violation on any corpus polymatroid
        for name, analysis in corpus_cone:
            witness = analysis.witness()
            assert witness.ok, name
