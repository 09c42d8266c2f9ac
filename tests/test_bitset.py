import pytest
from hypothesis import given
from hypothesis import strategies as st

from polytoric import Polymatroid, UsageError, bitset
from polytoric.families import classify_transversal

N = 6
masks = st.integers(min_value=0, max_value=(1 << N) - 1)


def comp(m):
    return bitset.full_mask(N) & ~m


def test_ground_set_cap():
    bitset.check_ground_set(63)
    with pytest.raises(UsageError):
        bitset.check_ground_set(64)
    with pytest.raises(UsageError):
        bitset.check_ground_set(0)


def test_ground_set_size_is_not_a_bool():
    message = "ground-set size must be a positive integer, got True"
    with pytest.raises(UsageError, match=message):
        Polymatroid.from_rank_table(True, {1: 1})
    with pytest.raises(UsageError, match=message):
        classify_transversal(True, [1])


def test_mask_of_bounds():
    assert bitset.mask_of([0, 2], 3) == 0b101
    with pytest.raises(UsageError):
        bitset.mask_of([3], 3)


def test_one_based_round_trip():
    mask = 0b1011
    indices = bitset.one_based(mask)
    assert indices == (1, 2, 4)
    assert bitset.mask_of([i - 1 for i in indices], 4) == mask
    assert bitset.set_label(mask) == "{1,2,4}"


def test_submask_count():
    mask = 0b10110
    subs = list(bitset.submasks(mask))
    assert len(subs) == 1 << bitset.card(mask)
    assert set(subs) == {s for s in bitset.subsets(5) if s & ~mask == 0}


@given(masks)
def test_complement_is_involutive(a):
    assert comp(comp(a)) == a


@given(masks, masks, masks)
def test_union_and_intersection_associative(a, b, c):
    assert (a | b) | c == a | (b | c)
    assert (a & b) & c == a & (b & c)


@given(masks, masks)
def test_cardinality_inclusion_exclusion(a, b):
    assert bitset.card(a | b) + bitset.card(a & b) == bitset.card(a) + bitset.card(b)


@given(masks)
def test_elements_are_sorted_and_match_cardinality(a):
    els = list(bitset.elements(a))
    assert els == sorted(els)
    assert len(els) == bitset.card(a)
