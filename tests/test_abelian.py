import pytest
from hypothesis import given
from hypothesis import strategies as st

from polytoric.abelian import GroupInvariants, gcd_of, quotient_by_relation
from polytoric.errors import UsageError


def test_gcd_of_known_values():
    assert gcd_of([20, 30, 34, 35]) == 1
    assert gcd_of([7]) == 7
    assert gcd_of([6, 10, 15]) == 1  # gcd(6,10)=2, gcd(2,15)=1
    assert gcd_of([4, 6]) == 2
    assert gcd_of([0, 0, 0]) == 0
    assert gcd_of([-4, 6]) == 2


def test_gcd_of_empty_is_usage_error():
    with pytest.raises(UsageError):
        gcd_of([])


def test_quotient_single_generator():
    assert quotient_by_relation(1, (5,)) == GroupInvariants(0, 5)


def test_quotient_uniform_transversal_relation():
    ranks = [20] * 7 + [30] * 21 + [34] * 35 + [35]
    assert quotient_by_relation(64, ranks) == GroupInvariants(63, 1)


def test_quotient_zero_relation_is_free():
    assert quotient_by_relation(3, (0, 0, 0)) == GroupInvariants(3, 1)


def test_quotient_length_mismatch():
    with pytest.raises(UsageError):
        quotient_by_relation(2, (1, 2, 3))


def test_invariants_reject_bad_fields():
    with pytest.raises(UsageError):
        GroupInvariants(-1, 1)
    with pytest.raises(UsageError):
        GroupInvariants(0, 0)


def test_rendering():
    assert str(GroupInvariants(0, 1)) == "0"
    assert str(GroupInvariants(1, 1)) == "Z"
    assert str(GroupInvariants(63, 1)) == "Z^63"
    assert str(GroupInvariants(2, 2)) == "Z^2 + Z/2Z"
    assert str(GroupInvariants(0, 4)) == "Z/4Z"


relations = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=8)


@given(relations)
def test_negation_invariance(a):
    r = len(a)
    assert quotient_by_relation(r, a) == quotient_by_relation(r, [-x for x in a])


@given(relations, st.randoms(use_true_random=False))
def test_permutation_invariance(a, rnd):
    shuffled = list(a)
    rnd.shuffle(shuffled)
    assert quotient_by_relation(len(a), a) == quotient_by_relation(len(a), shuffled)


@given(relations, st.sampled_from((1, -1)))
def test_unit_entry_kills_torsion(a, sign):
    a = a + [sign]
    assert quotient_by_relation(len(a), a).torsion == 1


@pytest.mark.parametrize("r", [0, -1])
def test_quotient_needs_a_generator(r):
    with pytest.raises(UsageError) as info:
        quotient_by_relation(r, ())
    assert type(info.value) is UsageError
    assert str(info.value) == f"need at least one generator, got r={r}"
