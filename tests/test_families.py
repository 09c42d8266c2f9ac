import itertools
import math
import random

import pytest

from polytoric import (
    Analysis,
    GroupInvariants,
    Polymatroid,
    UsageError,
    box_analysis,
    class_group,
    classify_transversal,
    closed_inseparable_family,
    expected_form_keys,
    graph_complement_family,
    is_gorenstein,
    nested_chain_analysis,
    nested_chain_family,
    uniform_transversal,
    uniform_transversal_analysis,
    veronese_analysis,
)
from polytoric import bitset


def engine(p):
    fam = closed_inseparable_family(p)
    return fam, class_group(fam).invariants, is_gorenstein(fam)


# -- uniform transversal ---------------------------------------------------------


def test_uniform_7_4_prediction():
    fam, inv = uniform_transversal_analysis(7, 4)
    assert sorted(set(m.rank for m in fam.members)) == [20, 30, 34, 35]
    assert len(fam) == 64
    assert inv == GroupInvariants(63, 1)


def test_uniform_4_2_singleton_rank():
    fam, _ = uniform_transversal_analysis(4, 2)
    singles = {m.rank for m in fam.members if m.size == 1}
    assert singles == {math.comb(4, 2) - math.comb(3, 2)} == {3}


def test_uniform_top_interval():
    n = 5
    fam, inv = uniform_transversal_analysis(n, n - 1)
    assert len(fam) == n + 1  # singletons and the full set
    assert inv == GroupInvariants(n, 1)


def test_uniform_requires_interior_i():
    with pytest.raises(UsageError):
        uniform_transversal_analysis(4, 1)
    with pytest.raises(UsageError):
        uniform_transversal_analysis(4, 4)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_uniform_matches_engine(n):
    for i in range(2, n):
        predicted, inv = uniform_transversal_analysis(n, i)
        fam, computed, _ = engine(uniform_transversal(n, i))
        assert fam.as_pairs() == predicted.as_pairs()
        assert computed == inv


# -- nested chains ----------------------------------------------------------------


def test_nested_chain_known_groups():
    n = 4
    full = bitset.full_mask(n)
    _, inv, _ = nested_chain_analysis(n, [0b0011] * 3 + [full] * 3)
    assert inv == GroupInvariants(1, 3)
    fam, inv, a = nested_chain_analysis(n, [full] * 5)
    assert (fam.as_pairs(), inv, a) == ({(full, 5)}, GroupInvariants(0, 5), 1)
    _, inv, _ = nested_chain_analysis(3, [0b001, 0b001, 0b111])
    assert inv == GroupInvariants(1, 1)
    # two parts: {1} < {1, 2}, and {3} twice
    fam, inv, a = nested_chain_analysis(3, [0b100, 0b011, 0b001, 0b100])
    assert fam.as_pairs() == {(0b011, 2), (0b010, 1), (0b100, 2)}
    assert (inv, a) == (GroupInvariants(2, 1), None)


def test_nested_chain_rejects_bad_chains():
    """A covering family whose distinct members do not split into one chain
    per part has no closed form; a family that does not cover is refused."""
    assert nested_chain_analysis(3, [0b011, 0b101, 0b111]) is None  # not nested
    assert nested_chain_analysis(3, [0b011, 0b110]) is None  # meets two parts
    assert nested_chain_analysis(3, [0b001, 0b010, 0b111]) is None  # two chains in [3]
    with pytest.raises(UsageError, match="must cover the ground set"):
        nested_chain_analysis(3, [0b011, 0b011])


def test_nested_chain_matches_engine_small():
    n = 4
    full = bitset.full_mask(n)
    for a1 in bitset.nonempty_subsets(n):
        if a1 == full:
            continue
        for k1, k2 in itertools.product((1, 2, 3), repeat=2):
            p = nested_chain_family(n, [(a1, k1), (full, k2)])
            assert answer(*nested_chain_analysis(n, p.rep.sets)) == answer(*engine(p))


def answer(family, invariants, a):
    return family.as_pairs(), invariants, a


def old_shape(n, sets):
    """The shapes once tagged apart: "unique-member" when every set is [n];
    "two-members" when two distinct sets partition [n] or are nested with
    the larger one [n]; None otherwise."""
    full = bitset.full_mask(n)
    distinct = sorted(set(sets))
    if distinct == [full]:
        return "unique-member"
    if len(distinct) == 2:
        a, b = distinct
        if b == full or (a & b == 0 and a | b == full):
            return "two-members"
    return None


def is_chain_sum(sets):
    """Any two distinct members are nested, or disjoint with no member
    meeting both: the distinct members split into one chain per part."""
    distinct = set(sets)
    for a, b in itertools.combinations(distinct, 2):
        if a & b == 0:
            if any(c & a and c & b for c in distinct):
                return False
        elif a & ~b and b & ~a:
            return False
    return True


def covering_families(n, max_sets):
    full = bitset.full_mask(n)
    for k in range(1, max_sets + 1):
        for sets in itertools.combinations_with_replacement(bitset.nonempty_subsets(n), k):
            if _union(sets) == full:
                yield n, sets


def random_chain_sums(rng, count, max_n):
    """Random partitions of [n], one random chain with multiplicities 1..3
    per part, the sets shuffled."""
    for _ in range(count):
        n = rng.randint(1, max_n)
        labels = [rng.randrange(n) for _ in range(n)]
        sets = []
        for label in sorted(set(labels)):
            part = [i for i in range(n) if labels[i] == label]
            rng.shuffle(part)
            cuts = sorted(rng.sample(range(1, len(part)), rng.randint(0, len(part) - 1)))
            for cut in cuts + [len(part)]:
                sets += [sum(1 << i for i in part[:cut])] * rng.randint(1, 3)
        rng.shuffle(sets)
        yield n, sets


def test_nested_chain_closed_form_matches_engine_on_chain_sums():
    """Every covering family of up to 4 sets on n <= 3 and of up to 3 sets
    on n = 4, and 3,000 seeded random chain sums on n <= 7: exactly the
    chain sums get the closed form, every family of the old unique-member
    and two-member shapes among them, and it equals the engine."""
    inputs = [f for n in (1, 2, 3) for f in covering_families(n, 4)]
    inputs += covering_families(4, 3)
    inputs += random_chain_sums(random.Random(30), 3000, 7)
    compared = shapes = 0
    for n, sets in inputs:
        prediction = nested_chain_analysis(n, sets)
        assert (prediction is not None) == is_chain_sum(sets), (n, sets)
        assert (classify_transversal(n, sets) == "nested-chains") == (prediction is not None)
        if old_shape(n, sets):
            assert prediction is not None, (n, sets)
            shapes += 1
        if prediction is not None:
            computed = engine(Polymatroid.transversal(n, sets))
            assert answer(*prediction) == answer(*computed), (n, sets)
            compared += 1
    assert (compared, shapes) == (3280, 1253)


# -- classification ----------------------------------------------------------------


def test_classify_all_full_sets():
    sets = (0b111,) * 4
    assert classify_transversal(3, sets) == "nested-chains"
    fam, inv, a = nested_chain_analysis(3, sets)
    assert (fam.as_pairs(), inv, a) == ({(0b111, 4)}, GroupInvariants(0, 4), 1)


def test_classify_partition():
    b, c = 0b011, 0b100
    sets = (b, b, c, c)
    assert classify_transversal(3, sets) == "nested-chains"
    fam, inv, a = nested_chain_analysis(3, sets)
    assert (fam.as_pairs(), inv, a) == ({(b, 2), (c, 2)}, GroupInvariants(1, 2), None)


def test_classify_nested():
    sets = (0b001, 0b111, 0b111)
    assert classify_transversal(3, sets) == "nested-chains"
    fam, inv, a = nested_chain_analysis(3, sets)
    assert (fam.as_pairs(), inv, a) == ({(0b111, 3), (0b110, 2)}, GroupInvariants(1, 1), None)


def test_classify_torsion_free_witness():
    sets = (0b011, 0b110)
    assert classify_transversal(3, sets) == "torsion-free-witness"
    assert nested_chain_analysis(3, sets) is None
    _, inv, _ = engine(Polymatroid.transversal(3, sets))
    assert inv.torsion == 1


def test_classify_generic():
    assert classify_transversal(3, (0b011, 0b110, 0b101)) == "generic"


@pytest.mark.parametrize(
    "n, sets, message",
    [
        (3, (), "needs at least one set"),
        (3, (0b111, 0), "must be nonempty"),
        (2, (0b11, 0b100), "outside the ground set"),
        (3, (0b011, 0b011), "must cover the ground set"),
        (0, (0b1,), "ground-set size"),
    ],
)
def test_classify_transversal_refuses_non_covering_families(n, sets, message):
    with pytest.raises(UsageError, match=message):
        classify_transversal(n, sets)


def test_nested_chain_family_must_cover():
    with pytest.raises(UsageError, match="must cover the ground set"):
        nested_chain_family(3, [(0b001, 2), (0b011, 1)])
    with pytest.raises(UsageError, match="needs at least one set"):
        nested_chain_family(3, [])


def test_classification_predictions_match_engine():
    for n, sets in [
        (2, (0b11,) * 3),
        (4, (0b0011, 0b0011, 0b1100, 0b1100, 0b1100)),
        (4, (0b0111, 0b1111, 0b1111)),
    ]:
        prediction = nested_chain_analysis(n, sets)
        computed = engine(Polymatroid.transversal(n, sets))
        assert answer(*prediction) == answer(*computed)
        assert len(prediction[0]) in (1, 2)


def test_family_size_characterizations_on_random_families():
    """One member iff all sets are the full set; two members iff the family
    is a partition or nested two-shape - both directions, randomized.  Both
    shapes get the nested-chains closed form."""
    rng = random.Random(5)
    full_checked = two_checked = 0
    for _ in range(300):
        n = rng.randint(2, 5)
        full = bitset.full_mask(n)
        sets = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 5))]
        sets[rng.randrange(len(sets))] |= full & ~_union(sets)  # force coverage
        fam = closed_inseparable_family(Polymatroid.transversal(n, sets))
        shape = old_shape(n, sets)
        assert (len(fam) == 1) == (shape == "unique-member")
        assert (len(fam) == 2) == (shape == "two-members")
        if shape is not None:
            assert classify_transversal(n, sets) == "nested-chains"
        if shape == "unique-member":
            full_checked += 1
        if shape == "two-members":
            two_checked += 1
        if shape != "unique-member":
            assert class_group(fam).invariants.free_rank >= 1
    assert full_checked and two_checked


def _union(sets):
    out = 0
    for s in sets:
        out |= s
    return out


# -- graph complements -------------------------------------------------------------


def test_path_graph_prediction():
    edges = [(0, 1), (1, 2), (2, 3)]
    t, predicted, inv = graph_complement_family(4, edges)
    assert inv == GroupInvariants(4, 1)  # n-l+m = 4-2+2
    fam, computed, _ = engine(t)
    assert computed == inv
    assert fam.as_pairs() == predicted.as_pairs()


def test_triangle_prediction():
    t, predicted, inv = graph_complement_family(3, [(0, 1), (1, 2), (0, 2)])
    assert inv == GroupInvariants(2, 1)
    fam, computed, _ = engine(t)
    assert computed == inv
    assert fam.as_pairs() == predicted.as_pairs()
    assert {m.rank for m in fam.members} == {1}


def test_four_cycle_prediction():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    t, predicted, inv = graph_complement_family(4, edges)
    # every edge has a disjoint partner, no leaves: rank 4 - 0 + 4
    assert inv == GroupInvariants(8, 1)
    fam, computed, _ = engine(t)
    assert computed == inv
    assert fam.as_pairs() == predicted.as_pairs()


def test_star_and_disconnected_rejected():
    with pytest.raises(UsageError):
        graph_complement_family(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(UsageError):
        graph_complement_family(4, [(0, 1), (2, 3)])


# -- Veronese type ------------------------------------------------------------------


def refuses(call, *args):
    try:
        call(*args)
    except UsageError:
        return True
    return False


def test_veronese_params_validation():
    """The closed form refuses exactly the parameters that the Veronese
    constructor refuses, so every Veronese input has a closed form."""
    verdicts = set()
    for s in [(), (0, 1), (2, 0, 1), (2, 1), (1, 3), (1, 2)]:
        for d in (-1, 0, 1, 2, 3, 4):
            refused = refuses(veronese_analysis, s, d)
            assert refuses(Polymatroid.veronese, s, d) == refused, (s, d)
            verdicts.add(refused)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "s, d, message",
    [
        ((), 2, "at least one coordinate cap"),
        ((0, 1, 1), 1, "caps must be >= 1"),
    ],
)
def test_veronese_analysis_refuses_bad_caps(s, d, message):
    with pytest.raises(UsageError, match=message):
        veronese_analysis(s, d)


@pytest.mark.parametrize(
    "s, d",
    [
        pytest.param((2, 1), 3, id="unsorted"),
        pytest.param((2, 1), 2, id="unsorted-inactive"),
        pytest.param((1, 3), 2, id="cap-above-degree"),
        pytest.param((1, 2), 3, id="degree-reaches-sum"),
        pytest.param((1, 2), 4, id="degree-above-sum"),
        pytest.param((1, 2), 2, id="inactive-cap"),
    ],
)
def test_veronese_closed_form_beyond_sorted_active_caps(s, d):
    predicted, inv, a = veronese_analysis(s, d)
    fam, computed, ga = engine(Polymatroid.veronese(s, d))
    assert fam.as_pairs() == predicted.as_pairs()
    assert (computed, ga) == (inv, a)


def test_veronese_closed_form_examples():
    fam, inv, a = veronese_analysis((2, 2, 2), 4)
    assert a == 1
    assert inv == GroupInvariants(3, 2)
    fam, inv, a = veronese_analysis((1, 1, 1), 2)
    assert a == 2
    assert fam.as_pairs() == {(1, 1), (2, 1), (4, 1), (7, 2)}
    # s_2 = d: {2} has the rank of [2] and is not closed
    fam, inv, a = veronese_analysis((1, 2), 2)
    assert fam.as_pairs() == {(1, 1), (3, 2)} and a is None
    # one coordinate: the ground set is the only member
    assert veronese_analysis((3,), 2)[0].as_pairs() == {(1, 2)}


def test_veronese_closed_form_matches_engine():
    """Every s in {1..4}^n for n <= 4 and d = 1..s([n]) + 1, which covers
    the box regime (d >= s([n])) and the simplex regime (every s_i >= d)."""
    for n in range(1, 5):
        for s in itertools.product(range(1, 5), repeat=n):
            for d in range(1, sum(s) + 2):
                predicted, inv, a = veronese_analysis(s, d)
                fam, computed, ga = engine(Polymatroid.veronese(s, d))
                assert fam.as_pairs() == predicted.as_pairs(), (s, d)
                assert computed == inv, (s, d)
                assert ga == a, (s, d)


# -- box and degree-bounded families --------------------------------------------------


def test_box_analysis_examples():
    _, inv, a = box_analysis((2, 2))
    assert inv == GroupInvariants(1, 2) and a == 1
    _, inv, a = box_analysis((1, 1, 1))
    assert inv == GroupInvariants(2, 1) and a == 2
    _, inv, a = box_analysis((2, 3))
    assert inv == GroupInvariants(1, 1) and a is None


def test_box_analysis_matches_engine():
    for n in (1, 2, 3):
        for v in itertools.product((1, 2, 3, 4), repeat=n):
            predicted, inv, a = box_analysis(v)
            fam, computed, ga = engine(Polymatroid.box(v))
            assert fam.as_pairs() == predicted.as_pairs()
            assert computed == inv
            assert ga == a


def test_rank_bounded_analysis_examples():
    _, inv, a = veronese_analysis((2,) * 3, 2)
    assert inv == GroupInvariants(0, 2) and a == 2
    _, inv, a = veronese_analysis((2,) * 4, 2)
    assert a is None
    _, inv, a = veronese_analysis((1,) * 5, 1)
    assert inv.is_trivial and a == 6


def test_rank_bounded_matches_engine():
    for n in (2, 3, 4):
        for d in (1, 2, 3):
            predicted, inv, a = veronese_analysis((d,) * n, d)
            fam, computed, ga = engine(Polymatroid.veronese((d,) * n, d))
            assert fam.as_pairs() == predicted.as_pairs()
            assert computed == inv
            assert ga == a


# -- named families through both paths at n = 5 and 6 ---------------------------------


NO_VERDICT = object()  # the closed form predicts no Gorenstein verdict


def named_families_at_n_5_and_6():
    """(label, polymatroid, predicted family, invariants, Gorenstein a)."""
    for n, i in [(5, 2), (6, 2)]:
        predicted = uniform_transversal_analysis(n, i)
        yield f"UT({n},{i})", uniform_transversal(n, i), *predicted, NO_VERDICT
    s, d = (2,) * 6, 7
    yield "veronese (2,)*6 d=7", Polymatroid.veronese(s, d), *veronese_analysis(s, d)
    v = (2, 4, 2, 4, 2, 2)
    yield f"box {v}", Polymatroid.box(v), *box_analysis(v)
    chain = [(0b000011, 2), (0b001111, 1), (0b111111, 2)]
    p = nested_chain_family(6, chain)
    yield f"nested chain {chain}", p, *nested_chain_analysis(6, p.rep.sets)
    s, d = (7,) * 6, 7
    yield "rank-bounded n=6 d=7", Polymatroid.veronese(s, d), *veronese_analysis(s, d)
    for n, edges in [
        (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),
    ]:
        yield f"graph complement n={n} {edges}", *graph_complement_family(n, edges), NO_VERDICT


def test_named_families_through_both_paths_at_n_5_and_6():
    """The checks of `verify`: the rank path and the cone path agree on the
    facets, the group, the canonical class and the Gorenstein verdict, and
    both match the closed form."""
    cases = list(named_families_at_n_5_and_6())
    assert len(cases) == 8
    for label, p, predicted, invariants, a in cases:
        analysis = Analysis(p)
        assert analysis.agreement.ok, (label, analysis.agreement.notes)
        assert analysis.family.as_pairs() == predicted.as_pairs(), label
        assert set(analysis.forms) == expected_form_keys(predicted), label
        assert analysis.presentation.invariants == invariants, label
        if a is not NO_VERDICT:
            assert analysis.gorenstein == a, label


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: uniform_transversal(4, 1),
            "need 1 < i < n, got i=1, n=4",
            id="uniform",
        ),
        pytest.param(
            lambda: nested_chain_analysis(3, []),
            "a transversal family needs at least one set",
            id="empty-chain",
        ),
        pytest.param(
            lambda: nested_chain_family(3, [(0b011, 1), (0b101, 1), (0b111, 1)]),
            "chain sets must be nested",
            id="not-nested",
        ),
        pytest.param(
            lambda: nested_chain_analysis(3, [0, 0b111]),
            "family members must be nonempty",
            id="empty-chain-set",
        ),
        pytest.param(
            lambda: graph_complement_family(2, [(0, 1)]),
            "need at least three vertices",
            id="two-vertices",
        ),
        pytest.param(
            lambda: graph_complement_family(4, [(0, 0)]),
            "bad edge (0, 0)",
            id="loop",
        ),
        pytest.param(
            lambda: graph_complement_family(4, [(0, 4)]),
            "bad edge (0, 4)",
            id="off-graph",
        ),
        pytest.param(
            lambda: graph_complement_family(4, [(0, 1), (1, 0)]),
            "repeated edge (1, 0)",
            id="repeated-edge",
        ),
        pytest.param(lambda: box_analysis((1, 0)), "box bounds must be >= 1", id="box"),
        pytest.param(
            lambda: box_analysis((2.7, 1)),
            "box bound must be an integer, got 2.7",
            id="box-non-integer",
        ),
        pytest.param(
            lambda: veronese_analysis((1.5, 2), 2),
            "coordinate cap must be an integer, got 1.5",
            id="veronese-non-integer",
        ),
        pytest.param(
            lambda: veronese_analysis((1, 1, 1), 0),
            "degree bound must be >= 1",
            id="degree",
        ),
    ],
)
def test_refusals(call, message):
    with pytest.raises(UsageError) as info:
        call()
    assert type(info.value) is UsageError
    assert str(info.value) == message
