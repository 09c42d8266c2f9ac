import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytoric import (
    ClosedInseparableFamily,
    DivisorClass,
    DivisorPresentation,
    FamilyMember,
    GroupInvariants,
    InvariantViolationError,
    Polymatroid,
    UsageError,
    canonical_class,
    class_group,
    closed_inseparable_family,
    is_gorenstein,
    matroid_unmixed_check,
    relation_multiple,
    validate,
)
from polytoric import bitset, crosscheck, divisors
from polytoric.crosscheck import Analysis
from polytoric.families import uniform_transversal

from tests.strategies import rank_tables


def family_of(p):
    return closed_inseparable_family(p)


def test_uniform_transversal_class_group():
    fam = family_of(uniform_transversal(7, 4))
    pres = class_group(fam)
    assert pres.invariants == GroupInvariants(63, 1)
    assert sorted(set(pres.relation)) == [20, 30, 34, 35]


def test_box_class_group():
    fam = family_of(Polymatroid.box((2, 4, 6)))
    assert class_group(fam).invariants == GroupInvariants(2, 2)


def test_polynomial_ring_trivial_group():
    fam = family_of(Polymatroid.veronese((1, 1, 1), 1))
    pres = class_group(fam)
    assert pres.invariants.is_trivial
    assert pres.relation == (1,)


def test_labels_follow_canonical_order():
    fam = family_of(Polymatroid.veronese((1, 1, 1), 2))
    pres = class_group(fam)
    assert pres.labels == ("P_{1}", "P_{2}", "P_{3}", "P_{1,2,3}")
    assert pres.relation == (1, 1, 1, 2)


@pytest.mark.parametrize(
    "key, label",
    [
        ((-1, 0, -1, 0, 3), "P_{1,3}"),  # a family member's support form
        ((0, 0, 0, 0, -1, 0, 0, 0, 0, 0, -1, 2), "P_{5,11}"),  # two-digit elements
        ((-1, 1, 0, 2), "P(-1,1,0,2)"),  # +1 body coefficient
        ((-1, -1, 0, 0), "P(-1,-1,0,0)"),  # zero degree coefficient
    ],
)
def test_label_for_key(key, label):
    assert divisors.label_for_key(key) == label


def test_canonical_class_degree_bounded():
    for n, d in [(2, 2), (3, 2), (4, 3)]:
        fam = family_of(Polymatroid.veronese((d,) * n, d))
        assert canonical_class(fam, class_group(fam)).coords == (n + 1,)


def test_canonical_class_veronese():
    fam = family_of(Polymatroid.veronese((1, 1, 1), 2))
    assert canonical_class(fam, class_group(fam)).coords == (2, 2, 2, 4)


def test_canonical_class_unit_box():
    fam = family_of(Polymatroid.box((1, 1)))
    assert canonical_class(fam, class_group(fam)).coords == (2, 2)


def test_relation_multiple_of_the_relation():
    fam = family_of(Polymatroid.box((2, 4, 6)))
    pres = class_group(fam)
    assert relation_multiple(DivisorClass(coords=pres.relation, presentation=pres)) == 1
    zero = DivisorClass(coords=(0,) * len(pres.keys), presentation=pres)
    assert relation_multiple(zero) == 0


def test_relation_multiple_rejects_non_multiple():
    fam = family_of(uniform_transversal(7, 4))
    pres = class_group(fam)
    unit = DivisorClass(coords=(1,) + (0,) * (len(pres.keys) - 1), presentation=pres)
    assert relation_multiple(unit) is None


def _difference(x, y, pres):
    return DivisorClass(coords=tuple(a - b for a, b in zip(x, y)), presentation=pres)


def test_classes_equal_reflexive_and_shift_invariant():
    # two classes are equal exactly when their difference is a multiple of the relation
    pres = class_group(family_of(Polymatroid.veronese((1, 2, 2), 4)))
    x = tuple(range(len(pres.keys)))
    shifted = tuple(c + r for c, r in zip(x, pres.relation))
    back = tuple(c - 3 * r for c, r in zip(x, pres.relation))
    assert relation_multiple(_difference(x, x, pres)) == 0
    assert relation_multiple(_difference(x, shifted, pres)) == -1
    assert relation_multiple(_difference(back, x, pres)) == -3


@given(st.integers(min_value=-5, max_value=5), st.integers(min_value=-5, max_value=5))
def test_classes_equal_is_transitive_on_multiples(k1, k2):
    # (7, -1) + k1 * relation and (7, -1) + k2 * relation are one class
    pres = class_group(family_of(Polymatroid.box((2, 3))))
    x = tuple(c + k1 * r for c, r in zip((7, -1), pres.relation))
    y = tuple(c + k2 * r for c, r in zip((7, -1), pres.relation))
    assert relation_multiple(_difference(x, y, pres)) == k1 - k2
    assert relation_multiple(_difference(y, x, pres)) == k2 - k1
    assert relation_multiple(DivisorClass(coords=x, presentation=pres)) is None


def test_gorenstein_veronese_unit_caps():
    fam = family_of(Polymatroid.veronese((1, 1, 1), 2))
    assert is_gorenstein(fam) == 2


def test_gorenstein_box_of_threes_fails():
    fam = family_of(Polymatroid.box((3, 3)))
    assert is_gorenstein(fam) is None


def test_gorenstein_degree_bounded_divisibility():
    for n in range(2, 7):
        for d in range(1, 6):
            fam = family_of(Polymatroid.veronese((d,) * n, d))
            a = is_gorenstein(fam)
            if (n + 1) % d == 0:
                assert a == (n + 1) // d
            else:
                assert a is None


def test_gorenstein_matches_zero_canonical_class():
    for v in itertools.product((1, 2, 3), repeat=2):
        fam = family_of(Polymatroid.box(v))
        pres = class_group(fam)
        assert is_gorenstein(fam) == relation_multiple(canonical_class(fam, pres))


def test_analysis_builds_the_presentation_once(monkeypatch):
    calls = []

    def counted(fam):
        calls.append(fam)
        return class_group(fam)

    monkeypatch.setattr(divisors, "class_group", counted)
    monkeypatch.setattr(crosscheck, "class_group", counted)
    analysis = Analysis(Polymatroid.veronese((1, 1, 1), 2))
    assert analysis.gorenstein == 2
    assert analysis.canonical.presentation is analysis.presentation
    assert len(calls) == 1


@settings(max_examples=40, deadline=None)
@given(rank_tables(max_n=4), st.randoms(use_true_random=False))
def test_relabeling_leaves_invariants_unchanged(table_n, rnd):
    table, n = table_n
    p = Polymatroid.from_rank_table(n, table)
    inv = class_group(family_of(p)).invariants
    perm = list(range(n))
    rnd.shuffle(perm)
    permuted = {
        sum(1 << perm[i] for i in bitset.elements(mask)): r
        for mask, r in table.items()
    }
    q = Polymatroid.from_rank_table(n, permuted)
    assert class_group(family_of(q)).invariants == inv


@settings(max_examples=40, deadline=None)
@given(rank_tables(max_n=4))
def test_unit_rank_member_forces_free_group(table_n):
    table, n = table_n
    p = Polymatroid.from_rank_table(n, table)
    fam = family_of(p)
    if any(m.rank == 1 for m in fam.members):
        assert class_group(fam).invariants.torsion == 1


# -- matroid one-skeleton screen ------------------------------------------------


def test_uniform_matroid_unmixed():
    bases_u24 = [m for m in bitset.subsets(4) if bitset.card(m) == 2]
    report = matroid_unmixed_check(Polymatroid.from_matroid_bases(4, bases_u24))
    assert report.unmixed
    assert len(report.edges) == 6  # complete skeleton K_4
    assert report.sizes() == (1,)


def test_star_skeleton_is_mixed():
    # rank-2 matroid with 2,3,4 parallel: bases {1,j}, skeleton K_{1,3}
    p = Polymatroid.from_matroid_bases(4, (0b0011, 0b0101, 0b1001))
    report = matroid_unmixed_check(p)
    assert not report.unmixed
    assert report.sizes() == (1, 3)


def test_single_element_matroid_vacuously_unmixed():
    p = Polymatroid.from_matroid_bases(1, (0b1,))
    report = matroid_unmixed_check(p)
    assert report.unmixed
    assert report.edges == ()


def test_unmixed_check_needs_matroid_representation():
    with pytest.raises(UsageError):
        matroid_unmixed_check(Polymatroid.box((1, 1)))


def test_gorenstein_matroid_has_unmixed_skeleton():
    # necessary-condition screen on a couple of small matroids
    for bases in [
        [m for m in bitset.subsets(4) if bitset.card(m) == 2],  # U_{2,4}
        [m for m in bitset.subsets(3) if bitset.card(m) == 2],  # U_{2,3}
        [0b0011, 0b0101, 0b1001],  # star skeleton, mixed
    ]:
        p = Polymatroid.from_matroid_bases(4 if max(bases) > 7 else 3, bases)
        fam = family_of(p)
        if is_gorenstein(fam) is not None:
            assert matroid_unmixed_check(p).unmixed


def enumerated_unmixed_check(p):
    """Brute-force oracle: the skeleton's maximal independent sets found by
    testing all 2^n subsets against every edge."""
    n = p.n
    edges = tuple(
        (1 << i) | (1 << j)
        for i in range(n)
        for j in range(i + 1, n)
        if p.rank((1 << i) | (1 << j)) == 2
    )
    independent = [s for s in bitset.subsets(n) if not any(e & s == e for e in edges)]
    indep_set = set(independent)
    maximal = tuple(
        s
        for s in independent
        if all(
            s | (1 << j) not in indep_set
            for j in bitset.elements(bitset.full_mask(n) & ~s)
        )
    )
    return divisors.UnmixedReport(
        unmixed=len({bitset.card(s) for s in maximal}) <= 1,
        edges=edges,
        maximal_independent_sets=maximal,
    )


def _masks(groups):
    return [sum(1 << e for e in g) for g in groups]


def uniform_matroids(_rng):
    """U(r, m) for every 1 <= r <= m <= 8."""
    for m in range(1, 9):
        for r in range(1, m + 1):
            yield m, _masks(itertools.combinations(range(m), r))


def parallel_extensions(rng):
    """U(r, m) with each element replaced by a class of 1-3 parallel
    elements, the ground set shuffled so that classes interleave."""
    for m in range(1, 7):
        for r in range(1, m + 1):
            for _ in range(20):
                sizes = [rng.randint(1, 3) for _ in range(m)]
                if sum(sizes) > 10:
                    continue
                labels = list(range(sum(sizes)))
                rng.shuffle(labels)
                classes, start = [], 0
                for size in sizes:
                    classes.append(labels[start : start + size])
                    start += size
                yield start, _masks(
                    basis
                    for chosen in itertools.combinations(classes, r)
                    for basis in itertools.product(*chosen)
                )


def graphic_matroids(rng):
    """Cycle matroids of random loopless multigraphs on 2-5 vertices with
    up to 10 edges: the bases are the largest forests."""
    for _ in range(200):
        v = rng.randint(2, 5)
        ends = [rng.sample(range(v), 2) for _ in range(rng.randint(1, 10))]

        def acyclic(edge_ids):
            parent = list(range(v))

            def root(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for e in edge_ids:
                a, b = root(ends[e][0]), root(ends[e][1])
                if a == b:
                    return False
                parent[a] = b
            return True

        for r in range(min(len(ends), v - 1), 0, -1):
            forests = [
                t for t in itertools.combinations(range(len(ends)), r) if acyclic(t)
            ]
            if forests:
                yield len(ends), _masks(forests)
                break


MATROID_CORPORA = {
    "uniform": uniform_matroids,
    "parallel": parallel_extensions,
    "graphic": graphic_matroids,
}


@pytest.mark.parametrize("kind", MATROID_CORPORA)
def test_unmixed_check_matches_enumeration(kind):
    mixed = 0
    for n, bases in MATROID_CORPORA[kind](random.Random(19)):
        p = Polymatroid.from_matroid_bases(n, bases)
        assert validate(p).ok, (n, bases)
        report = matroid_unmixed_check(p)
        assert report == enumerated_unmixed_check(p), (n, bases)
        mixed += not report.unmixed
    assert mixed > 0 or kind == "uniform"  # uniform matroids have no parallel pairs


@pytest.mark.parametrize("kind", MATROID_CORPORA)
def test_parallel_classes_are_the_rank_one_family_members(kind):
    for n, bases in MATROID_CORPORA[kind](random.Random(19)):
        p = Polymatroid.from_matroid_bases(n, bases)
        rank_one = tuple(m.mask for m in family_of(p).members if m.rank == 1)
        assert matroid_unmixed_check(p).maximal_independent_sets == rank_one, (n, bases)


EMPTY_FAMILY = ClosedInseparableFamily(n=2, members=())
RANK_0_MEMBER = ClosedInseparableFamily(n=2, members=(FamilyMember(mask=0b01, rank=0, size=1),))
NO_MEMBER = "empty closed/inseparable family; the full ground set is always closed"


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: class_group(EMPTY_FAMILY), NO_MEMBER, id="class-group-empty"),
        pytest.param(lambda: is_gorenstein(EMPTY_FAMILY), NO_MEMBER, id="gorenstein-empty"),
        pytest.param(
            lambda: is_gorenstein(RANK_0_MEMBER),
            "family member {1} has nonpositive rank 0",
            id="gorenstein-rank",
        ),
    ],
)
def test_refusals(call, message):
    with pytest.raises(InvariantViolationError) as info:
        call()
    assert type(info.value) is InvariantViolationError
    assert str(info.value) == message


def test_relation_multiple_on_a_zero_relation():
    # Z^1 modulo the zero relation: only the zero class is a multiple of it
    pres = DivisorPresentation(((1, 0),))
    assert relation_multiple(DivisorClass((0,), pres)) == 0
    assert relation_multiple(DivisorClass((1,), pres)) is None
