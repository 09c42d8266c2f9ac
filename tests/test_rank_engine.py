import itertools
import math
import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytoric import (
    Multicomplex,
    Polymatroid,
    ResourceLimitError,
    UsageError,
    bases,
    lattice_points,
    validate,
)
from polytoric import bitset, polymatroid
from polytoric.families import uniform_transversal
from polytoric.polymatroid import vec_on
from polytoric.sampling import corrupt_rank_table, level_window, random_rank_table

from tests.strategies import rank_tables


def brute_veronese_points(s, d):
    return [
        v
        for v in itertools.product(*(range(x + 1) for x in s))
        if sum(v) <= d
    ]


def test_empty_set_rank_is_zero():
    p = Polymatroid.box((2, 3))
    assert p.rank(0) == 0


def test_uniform_transversal_singleton_rank():
    p = uniform_transversal(7, 4)
    assert p.rank(1) == 20
    assert p.rank(1) == math.comb(7, 4) - math.comb(6, 4)


def test_veronese_rank_against_point_enumeration():
    s, d = (1, 2, 2), 3
    p = Polymatroid.veronese(s, d)
    pts = brute_veronese_points(s, d)
    for mask in bitset.subsets(3):
        assert p.rank(mask) == max(vec_on(v, mask) for v in pts)
    assert p.rank(0b110) == 3  # min(2 + 2, 3)


def test_rank_rejects_subset_outside_ground_set():
    p = Polymatroid.box((1, 1))
    with pytest.raises(UsageError):
        p.rank(1 << 2)


def test_matroid_bases_rank():
    # uniform matroid U_{2,4}
    bases_24 = [m for m in bitset.subsets(4) if bitset.card(m) == 2]
    p = Polymatroid.from_matroid_bases(4, bases_24)
    assert p.rank(0b0001) == 1
    assert p.rank(0b0111) == 2
    assert validate(p).ok


def test_point_set_representation_matches_table():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]
    p = Polymatroid.from_points(2, pts)
    assert p.rank(0b01) == 2
    assert p.rank(0b10) == 1
    assert p.rank(0b11) == 2


# -- eager tables ---------------------------------------------------------------


def table_inputs(rng):
    """(n, representation) pairs for all six encodings with n <= 8, valid
    and invalid alike."""
    for n in range(1, 9):
        yield n, polymatroid.Box(tuple(rng.randint(1, 4) for _ in range(n)))
        s = tuple(rng.randint(1, 3) for _ in range(n))
        for d in (-1, 1, rng.randint(1, sum(s)), sum(s) + 1):
            yield n, polymatroid.Veronese(s, d)
        sets = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 2 * n))]
        sets += sets[: rng.randint(1, len(sets))]  # repeated members
        yield n, polymatroid.Transversal(tuple(sets))
        points = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 6))]
        dominated = [tuple(max(0, x - 1) for x in p) for p in points]
        yield n, polymatroid.PointSet(tuple(points + dominated + points[:2]))
        yield n, polymatroid.MatroidBases(tuple(rng.sample(range(1 << n), min(1 << n, 5))))
        yield n, polymatroid.RankTable(tuple(rng.randint(-1, 6) for _ in range(1 << n)))
    for n in range(2, 7):
        table = random_rank_table(n, rng)
        bad, _ = corrupt_rank_table(table, n, rng)
        for t in (table, bad, {**table, 0: 2}):
            yield n, polymatroid.RankTable(tuple(t[m] for m in bitset.subsets(n)))
    yield 6, uniform_transversal(6, 3).rep
    yield 7, polymatroid.MatroidBases(tuple(m for m in bitset.subsets(7) if bitset.card(m) == 3))


def test_tables_match_rank_of():
    rng = random.Random(8128)
    kinds = set()
    for n, rep in table_inputs(rng):
        assert Polymatroid(n, rep).ranks == tuple(rep.rank_of(m) for m in bitset.subsets(n)), rep
        kinds.add(type(rep))
    assert kinds == set(polymatroid.Representation)


@pytest.mark.parametrize(
    "n, rep",
    [
        (4, polymatroid.MatroidBases((0b0011, 0b0111, 0b1000))),  # unequal sizes
        (4, polymatroid.MatroidBases((0b0011, 0b1100))),  # exchange fails
        (3, polymatroid.RankTable((1, 1, 1, 2, 1, 2, 2, 2))),  # rho(empty) = 1
        (3, polymatroid.PointSet(((2, 0, 0), (0, 2, 0), (1, 1, 1)))),  # not submodular
    ],
)
def test_tables_match_rank_of_on_invalid_inputs(n, rep):
    p = Polymatroid(n, rep)
    assert not validate(p).ok
    assert p.ranks == tuple(rep.rank_of(m) for m in bitset.subsets(n))


# -- validation --------------------------------------------------------------


def test_transversal_families_validate():
    p = Polymatroid.transversal(3, (0b011, 0b110))
    assert validate(p).ok


def test_monotonicity_violation_is_pinpointed():
    p = Polymatroid.from_rank_table(2, {0b01: 2, 0b10: 1, 0b11: 1})
    report = validate(p)
    kinds = {(v.kind, v.subsets) for v in report.violations}
    assert ("monotonicity", (0b01, 0b11)) in kinds


def test_submodularity_violation_is_pinpointed():
    p = Polymatroid.from_rank_table(2, {0b01: 1, 0b10: 1, 0b11: 3})
    report = validate(p)
    assert any(
        v.kind == "submodularity" and v.subsets == (0b01, 0b10)
        for v in report.violations
    )


def test_unit_rank_violation():
    p = Polymatroid.from_rank_table(2, {0b01: 0, 0b10: 1, 0b11: 1})
    assert any(v.kind == "unit-rank" for v in validate(p).violations)


def test_unequal_basis_sizes_flagged():
    p = Polymatroid.from_matroid_bases(3, (0b011, 0b100))
    assert any(v.kind == "basis-cardinality" for v in validate(p).violations)


def test_exchange_failure_is_a_submodularity_violation():
    # {1,2} and {3,4} cannot exchange; the induced rank function fails
    # submodularity, which always happens for equal-size non-matroid families
    family = (0b0011, 0b1100)
    assert first_exchange_failure(family) is not None
    report = validate(Polymatroid.from_matroid_bases(4, family))
    assert any(v.kind == "submodularity" for v in report.violations)


def test_true_matroid_bases_get_no_warning():
    bases_u24 = [m for m in bitset.subsets(4) if bitset.card(m) == 2]
    assert first_exchange_failure(bases_u24) is None
    assert validate(Polymatroid.from_matroid_bases(4, bases_u24)).ok


@pytest.mark.parametrize(
    "n, family, warning",
    [
        (4, (0b0011, 0b1100, 0b0101), "basis exchange fails from {1,2} to {3,4} at element 1"),
        (5, (13, 26, 25, 14, 21), "basis exchange fails from {2,3,4} to {1,3,5} at element 4"),
    ],
)
def test_exchange_warning_names_the_first_failing_pair(n, family, warning):
    # several pairs fail; the oracle names the first in set order, and in
    # the second family neither the first basis nor the first element fails
    assert first_exchange_failure(family) == warning
    report = validate(Polymatroid.from_matroid_bases(n, family))
    assert any(v.kind == "submodularity" for v in report.violations)


# -- local check against the pairwise scan -----------------------------------


all_pairs_scan = polymatroid._pairwise_scan  # the oracle, kept from monkeypatching


def pairwise_report(p):
    """validate(p) as the full scan gives it: the direct checks, every
    nested pair and every pair from the all-pairs oracle, and the basis
    sizes of a matroid-bases input."""
    report = polymatroid.ValidationReport()
    report.violations = [
        v for v in validate(p).violations if v.kind in ("normalization", "unit-rank")
    ]
    all_pairs_scan(p, report)
    if isinstance(p.rep, polymatroid.MatroidBases):
        polymatroid._check_matroid_bases(p, report)
    return report


def locally_valid(ranks, n):
    return next(polymatroid._local_faults(ranks, n), None) is None


def first_exchange_failure(bases):
    """Reference exchange scan, one candidate generator per element."""
    bases = set(bases)
    for b1 in bases:
        for b2 in bases:
            for i in bitset.elements(b1 & ~b2):
                if not any((b1 ^ (1 << i)) | (1 << j) in bases for j in bitset.elements(b2 & ~b1)):
                    return (
                        f"basis exchange fails from {bitset.set_label(b1)} to "
                        f"{bitset.set_label(b2)} at element {i + 1}"
                    )
    return None


def top_above_window(table, n):
    """Raise rho(full set) one above its window: covers still hold, and
    only the diamonds under the full set fail."""
    full = bitset.full_mask(n)
    bad = dict(table)
    bad[full] = level_window(table, full)[1] + 1
    return bad


def differential_inputs(rng):
    for _ in range(60):
        n = rng.randint(1, 6)
        table = random_rank_table(n, rng, rng.randint(1, 3))
        yield Polymatroid.from_rank_table(n, table)
        if n >= 2:
            for kind in ("monotonicity", "submodularity"):
                yield Polymatroid.from_rank_table(n, corrupt_rank_table(table, n, rng, kind)[0])
            yield Polymatroid.from_rank_table(n, top_above_window(table, n))
        yield Polymatroid.from_rank_table(n, {**table, 0: rng.choice((-1, 1, 3))})
    yield Polymatroid.from_rank_table(2, {0b01: 1, 0b10: 1, 0b11: 3})  # one diamond
    for _ in range(40):
        n = rng.randint(1, 6)
        sets = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 4))]
        yield Polymatroid.transversal(n, sets)
        yield Polymatroid.veronese([rng.randint(1, 3) for _ in range(n)], rng.randint(1, 5))
        yield Polymatroid.box([rng.randint(1, 3) for _ in range(n)])
        yield Polymatroid.from_matroid_bases(n, [rng.randrange(1 << n) for _ in range(rng.randint(1, 3))])
        points = [[rng.randint(0, 2) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        yield Polymatroid.from_points(n, points)
    for _ in range(40):
        n = rng.randint(4, 6)
        k = rng.randint(2, n - 2)
        same_size = [m for m in bitset.subsets(n) if bitset.card(m) == k]
        yield Polymatroid.from_matroid_bases(n, rng.sample(same_size, rng.randint(2, 6)))


def test_local_check_matches_pairwise_scan():
    rng = random.Random(20240)
    verdicts = set()
    for p in differential_inputs(rng):
        fast = validate(p)
        slow = pairwise_report(p)
        assert fast.violations == slow.violations, p
        verdicts.add(fast.ok)
        if isinstance(p.rep, polymatroid.MatroidBases) and not any(
            v.kind == "basis-cardinality" for v in fast.violations
        ):
            if first_exchange_failure(p.rep.bases) is not None:
                assert any(v.kind == "submodularity" for v in fast.violations), p
    assert verdicts == {True, False}


def test_valid_n12_table_skips_the_pairwise_scan(monkeypatch):
    def scan(p, report):
        raise AssertionError("pairwise scan ran on a valid table")

    monkeypatch.setattr(polymatroid, "_pairwise_scan", scan)
    table = random_rank_table(12, random.Random(12))
    assert validate(Polymatroid.from_rank_table(12, table)).ok


def full_scan_spy(monkeypatch):
    """Count the calls of the all-pairs scan inside validate."""
    calls = []

    def spy(p, report):
        calls.append(p)
        all_pairs_scan(p, report)

    monkeypatch.setattr(polymatroid, "_pairwise_scan", spy)
    return calls


def faulty_inputs(rng):
    """Invalid rank tables: single planted faults of both kinds at n = 2..8,
    two or three stacked faults, ranks lowered below a cover, and
    rho(empty) != 0."""
    for n in range(2, 9):
        for kind in ("monotonicity", "submodularity"):
            for _ in range(3 if n < 8 else 1):
                table = random_rank_table(n, rng)
                yield n, corrupt_rank_table(table, n, rng, kind)[0]
    for _ in range(30):
        n = rng.randint(3, 7)
        bad = random_rank_table(n, rng)
        for _ in range(rng.randint(2, 3)):
            bad = corrupt_rank_table(bad, n, rng)[0]
        yield n, bad
    for _ in range(30):
        n = rng.randint(2, 7)
        bad = random_rank_table(n, rng)
        for mask in rng.sample(range(1, 1 << n), rng.randint(1, 2)):
            below = max(bad[mask ^ (1 << i)] for i in bitset.elements(mask))
            bad[mask] = below - rng.randint(1, 2)
        yield n, bad
    for _ in range(10):
        n = rng.randint(1, 6)
        yield n, {**random_rank_table(n, rng), 0: rng.choice((-2, 1, 2))}


def test_localized_report_matches_the_full_scan(monkeypatch):
    calls = full_scan_spy(monkeypatch)
    rng = random.Random(7)
    for n, bad in faulty_inputs(rng):
        p = Polymatroid.from_rank_table(n, bad)
        fast = validate(p)
        assert not fast.ok
        slow = pairwise_report(p)
        assert fast.violations == slow.violations, (n, bad)
    assert not calls  # every one of them stayed on the localized path
    for n in range(1, 9):
        for _ in range(4):
            values = tuple(rng.randint(0, 5) for _ in range(1 << n))
            p = Polymatroid(n, polymatroid.RankTable(values))
            assert validate(p).violations == pairwise_report(p).violations
    assert len(calls) >= 10  # the tables that outnumber the full scan fell back


def test_single_fault_n12_table_skips_the_full_scan(monkeypatch):
    calls = full_scan_spy(monkeypatch)
    rng = random.Random(12)
    table = random_rank_table(12, rng)
    for kind in ("monotonicity", "submodularity"):
        bad, planted = corrupt_rank_table(table, 12, rng, kind)
        report = validate(Polymatroid.from_rank_table(12, bad))
        assert any(
            v.kind == kind and set(planted["subsets"]) <= set(v.subsets)
            for v in report.violations
        )
    assert not calls


def test_garbage_table_falls_back_to_the_full_scan(monkeypatch):
    calls = full_scan_spy(monkeypatch)
    rng = random.Random(3)
    p = Polymatroid(8, polymatroid.RankTable(tuple(rng.randint(0, 9) for _ in range(256))))
    report = validate(p)
    assert calls == [p]
    assert report.violations == pairwise_report(p).violations


def candidate_count(s: int, i: int, j, n: int) -> int:
    """The number of pairs in the patterns of a fault, in closed form from
    the option counts per element: 2 for each free element of a cover; for
    a diamond with i < j, 3 below i in S and above j outside it, 2 between
    i and j, and both orientations."""
    full = bitset.full_mask(n)
    if j is None:
        free = (s & ((1 << i) - 1)) | (~s & full & -(2 << i))
        return 1 << free.bit_count()
    three = (s & ((1 << i) - 1)) | (~s & full & -(2 << j))
    return 2 * 3 ** three.bit_count() << (j - i - 1)


def test_candidate_counts_match_the_patterns():
    rng = random.Random(31)
    for _ in range(500):
        n = rng.randint(2, 9)
        i, j = sorted(rng.sample(range(n), 2))
        s = rng.randrange(1 << n) & ~(1 << i) & ~(1 << j)
        for fault in ((s, i, None), (s, i, j)):
            patterns = list(polymatroid._pair_patterns(*fault, n))

            def pairs(chunk):
                return sorted(
                    x
                    for _, base, options in patterns
                    for part in polymatroid._expand(base, options, chunk)
                    for x in part
                )

            whole, chunked = pairs(1 << 12), pairs(8)
            assert whole == chunked
            counted = sum(math.prod(map(len, o)) for _, _, o in patterns)
            assert candidate_count(*fault, n) == counted == len(set(whole)) == len(whole)


def test_fallback_starts_where_the_candidates_outnumber_the_pairs():
    rng = random.Random(37)
    for n in range(2, 7):
        ranks = [0] * (1 << n)
        pairs = 3**n + math.comb(1 << n, 2)  # nested pairs, then unordered pairs
        for _ in range(20):
            faults, total = [], 0
            while total <= pairs:
                i, j = sorted(rng.sample(range(n), 2))
                s = rng.randrange(1 << n) & ~(1 << i) & ~(1 << j)
                faults.append((s, i, rng.choice((None, j))))
                total += candidate_count(*faults[-1], n)
            for prefix in (faults[:-1], faults):
                report = polymatroid.ValidationReport()
                kept = polymatroid._localized_scan(ranks, n, iter(prefix), report)
                assert kept == (prefix is not faults)
                assert report.ok

def test_uniform_matroid_u49_validates():
    u49 = [m for m in bitset.subsets(9) if bitset.card(m) == 4]
    assert validate(Polymatroid.from_matroid_bases(9, u49)).ok


def test_locally_valid_families_satisfy_exchange():
    """Exhaustive over equal-size families on n <= 5: a family whose rank
    function passes the local check never fails basis exchange."""
    passed = 0
    for n in range(1, 6):
        for k in range(n + 1):
            same_size = [m for m in bitset.subsets(n) if bitset.card(m) == k]
            for pick in range(1, 1 << len(same_size)):
                family = [b for i, b in enumerate(same_size) if pick >> i & 1]
                p = Polymatroid.from_matroid_bases(n, family)
                if locally_valid(p.ranks, n):
                    passed += 1
                    assert first_exchange_failure(family) is None, (n, family)
    assert passed > 100


# -- lattice points and bases -------------------------------------------------


def test_simplex_points():
    p = Polymatroid.veronese((1, 1, 1), 1)
    assert lattice_points(p) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_box_points():
    p = Polymatroid.box((2, 1))
    pts = lattice_points(p)
    assert len(pts) == 6
    assert set(pts) == {(a, b) for a in range(3) for b in range(2)}


def test_veronese_points_count():
    p = Polymatroid.veronese((1, 1, 1), 2)
    assert len(lattice_points(p)) == 7


def test_point_cap():
    p = Polymatroid.box((9, 9, 9))
    with pytest.raises(ResourceLimitError):
        lattice_points(p, point_cap=10)


def points_by_definition(p):
    """The box prod [0, rho({i})] filtered by v(A) <= rho(A), in lex order."""
    n = p.n
    box = itertools.product(*(range(r + 1) for r in p.unit_ranks()))
    return [
        v for v in box if all(vec_on(v, a) <= p.rank(a) for a in bitset.subsets(n))
    ]


def test_lattice_points_match_definition():
    rng = random.Random(5150)
    for _ in range(150):
        n = rng.randint(1, 5)
        table = random_rank_table(n, rng, rng.randint(1, 3))
        p = Polymatroid.from_rank_table(n, table)
        assert lattice_points(p) == points_by_definition(p), table
    for p in (
        uniform_transversal(4, 2),
        Polymatroid.veronese((2, 1, 3), 4),
        Polymatroid.from_points(3, [(2, 0, 1), (0, 2, 2)]),
    ):
        assert lattice_points(p) == points_by_definition(p)


def test_lattice_point_cap_boundary():
    p = Polymatroid.veronese((2, 2, 2), 3)
    points = lattice_points(p)
    assert lattice_points(p, point_cap=len(points)) == points
    cap = len(points) - 1
    with pytest.raises(ResourceLimitError) as err:
        lattice_points(p, point_cap=cap)
    assert str(err.value) == f"lattice point count exceeds cap of {cap}"


def test_transversal_bases_match_product_formula():
    p = Polymatroid.transversal(3, (0b011, 0b110))
    expected = {(1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1)}
    assert set(bases(p)) == expected


def test_box_basis_is_the_corner():
    v = (2, 3, 1)
    assert bases(Polymatroid.box(v)) == [v]


def test_degree_bounded_bases():
    p = Polymatroid.veronese((2, 2, 2), 2)
    assert all(sum(b) == 2 for b in bases(p))
    assert len(set(bases(p))) == math.comb(2 + 2, 2)


@settings(max_examples=40, deadline=None)
@given(rank_tables(max_n=5))
def test_rank_agrees_with_point_oracle(table_n):
    table, n = table_n
    p = Polymatroid.from_rank_table(n, table)
    pts = lattice_points(p)
    for mask in bitset.nonempty_subsets(n):
        assert p.rank(mask) == max(vec_on(v, mask) for v in pts)


@settings(max_examples=40, deadline=None)
@given(rank_tables(max_n=4))
def test_points_downward_closed_and_contain_units(table_n):
    table, n = table_n
    p = Polymatroid.from_rank_table(n, table)
    pts = set(lattice_points(p))
    for i in range(n):
        assert tuple(1 if j == i else 0 for j in range(n)) in pts
    for v in pts:
        for i in range(n):
            if v[i] > 0:
                w = list(v)
                w[i] -= 1
                assert tuple(w) in pts


@given(st.integers(min_value=2, max_value=5), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_transversal_full_rank_and_basis_degree(n, rnd):
    sets = [rnd.randrange(1, 1 << n) for _ in range(rnd.randint(1, 4))]
    sets.append(bitset.full_mask(n))  # guarantee coverage
    p = Polymatroid.transversal(n, sets)
    assert p.rank(bitset.full_mask(n)) == len(sets)
    for b in bases(p):
        assert sum(b) == len(sets)


# -- the rank table -------------------------------------------------------------


def test_cold_and_warm_evaluations_agree(rng):
    table = random_rank_table(4, rng)
    p = Polymatroid.from_rank_table(4, table)
    cold = [p.rank(m) for m in bitset.subsets(4)]
    warm = [p.rank(m) for m in bitset.subsets(4)]
    assert cold == warm == [table[m] for m in bitset.subsets(4)]


def test_table_limit_admits_n20():
    p = Polymatroid.box((1,) * 20)
    assert len(p.ranks) == 1 << 20
    assert p.rank(bitset.full_mask(20)) == 20


@pytest.mark.parametrize(
    "build",
    [
        lambda n: Polymatroid(n, polymatroid.Box((1,) * n)),
        lambda n: Polymatroid.from_rank_table(n, {1: 1}),  # subsets missing
        lambda n: Polymatroid.transversal(n, (bitset.full_mask(n),)),
        lambda n: Polymatroid.veronese((1,) * n, 2),
        lambda n: Polymatroid.box((1,) * n),
        lambda n: Polymatroid.from_matroid_bases(n, (1, 2)),
        lambda n: Polymatroid.from_points(n, ((1,) * n,)),
    ],
)
def test_ground_sets_above_the_table_limit_are_refused(build):
    # the cap comes before the 2^n table; for from_rank_table also before
    # the missing subsets are reported
    with pytest.raises(ResourceLimitError, match="ground-set size 21 exceeds the enumeration cap 20"):
        build(21)


def test_concurrent_reads_match_serial(rng):
    table = random_rank_table(4, rng)
    serial = Polymatroid.from_rank_table(4, table)
    shared = Polymatroid.from_rank_table(4, table)
    masks = list(bitset.subsets(4)) * 8
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(shared.rank, masks))
    assert results == [serial.rank(m) for m in masks]


# -- multicomplex inputs -------------------------------------------------------


def test_multicomplex_closure_points():
    m = Multicomplex(n=2, facets=((1, 1),))
    assert m.points() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert m.validate().ok


def test_multicomplex_antichain_enforced():
    m = Multicomplex(n=2, facets=((1, 1), (1, 0)))
    assert not m.validate().ok


def test_multicomplex_unit_coverage_enforced():
    m = Multicomplex(n=2, facets=((2, 0),))
    report = m.validate()
    assert any(v.kind == "unit-rank" for v in report.violations)


def test_generalized_requires_zero_and_units():
    m = Multicomplex(n=2, facets=((1, 0), (0, 1), (2, 2)), generalized=True)
    report = m.validate()
    assert any("zero" in v.detail for v in report.violations)
    ok = Multicomplex(
        n=2, facets=((0, 0), (1, 0), (0, 1), (2, 2)), generalized=True
    )
    assert ok.validate().ok
    assert ok.points() == [(0, 0), (0, 1), (1, 0), (2, 2)]


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda: Polymatroid(2, object()),
            "unknown rank representation object",
            id="rep",
        ),
        pytest.param(
            lambda: Polymatroid.transversal(2, []),
            "a transversal family needs at least one set",
            id="no-sets",
        ),
        pytest.param(
            lambda: Polymatroid.transversal(2, [0b100]),
            "transversal family member outside ground set",
            id="set-outside",
        ),
        pytest.param(
            lambda: Polymatroid.veronese((0, 1), 1),
            "coordinate caps must be >= 1",
            id="veronese-cap",
        ),
        pytest.param(
            lambda: Polymatroid.veronese((1, 1), 0),
            "total-degree cap must be >= 1",
            id="veronese-degree",
        ),
        pytest.param(
            lambda: Polymatroid.veronese((True, 2), 2.9),
            "coordinate cap must be an integer, got True",
            id="veronese-non-integer",
        ),
        pytest.param(lambda: Polymatroid.box((1, 0)), "box bounds must be >= 1", id="box"),
        pytest.param(
            lambda: Polymatroid.box((2.7, 1)),
            "box bound must be an integer, got 2.7",
            id="box-non-integer",
        ),
        pytest.param(
            lambda: Polymatroid.from_rank_table(2, {1: 1.9, 2: 1, 3: 2}),
            "rank of {1} must be an integer, got 1.9",
            id="rank-non-integer",
        ),
        pytest.param(
            lambda: Polymatroid.from_matroid_bases(2, []),
            "need at least one basis",
            id="no-basis",
        ),
        pytest.param(
            lambda: Polymatroid.from_matroid_bases(2, [0b100]),
            "basis outside ground set",
            id="basis-outside",
        ),
        pytest.param(
            lambda: Polymatroid.from_points(2, []),
            "need at least one lattice point",
            id="no-point",
        ),
        pytest.param(
            lambda: Polymatroid.from_points(2, [(1, 0, 0)]),
            "point (1, 0, 0) does not have 2 coordinates",
            id="point-length",
        ),
        pytest.param(
            lambda: Polymatroid.from_points(2, [(1, -1)]),
            "point (1, -1) has a negative coordinate",
            id="point-negative",
        ),
        pytest.param(
            lambda: Polymatroid.from_points(2, [(1.5, 0), (0, 1)]),
            "point coordinate must be an integer, got 1.5",
            id="point-non-integer",
        ),
        pytest.param(
            lambda: Multicomplex(n=2, facets=((1, 0, 0),)),
            "facet (1, 0, 0) does not have 2 coordinates",
            id="facet-length",
        ),
        pytest.param(
            lambda: Multicomplex(n=2, facets=((1, -1),)),
            "facet (1, -1) has a negative coordinate",
            id="facet-negative",
        ),
        pytest.param(
            lambda: Multicomplex(2, ((1.5, 0), (0, 1))),
            "facet coordinate must be an integer, got 1.5",
            id="facet-non-integer",
        ),
        pytest.param(
            lambda: Multicomplex(n=2, facets=()),
            "need at least one facet/generator",
            id="no-facet",
        ),
    ],
)
def test_constructor_refusals(build, message):
    with pytest.raises(UsageError) as info:
        build()
    assert type(info.value) is UsageError
    assert str(info.value) == message
