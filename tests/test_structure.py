import itertools
import random

import pytest
from hypothesis import given, settings

from polytoric import (
    Polymatroid,
    UsageError,
    closed_inseparable_family,
    is_closed_full,
    is_inseparable,
    validate,
)
from polytoric import bitset
from polytoric.families import (
    nested_chain_family,
    uniform_transversal,
)
from polytoric.sampling import random_polymatroid

from tests.strategies import rank_tables


def brute_family(p):
    """Both definitions checked verbatim, independently of structure.py."""
    out = set()
    for mask in bitset.nonempty_subsets(p.n):
        closed = True
        outside = bitset.full_mask(p.n) & ~mask
        for extra in bitset.submasks(outside):
            if extra and p.rank(mask | extra) <= p.rank(mask):
                closed = False
                break
        if not closed:
            continue
        inseparable = True
        for part in bitset.submasks(mask):
            if part in (0, mask):
                continue
            if p.rank(part) + p.rank(mask ^ part) == p.rank(mask):
                inseparable = False
                break
        if inseparable:
            out.add((mask, p.rank(mask)))
    return out


def test_closedness_requires_nonempty():
    p = Polymatroid.box((1, 1))
    with pytest.raises(UsageError):
        is_closed_full(p, 0)
    with pytest.raises(UsageError):
        is_inseparable(p, 0)


def test_full_set_is_always_closed():
    p = Polymatroid.box((2, 3, 4))
    assert is_closed_full(p, bitset.full_mask(3))


def test_veronese_singletons_closed_when_capped():
    p = Polymatroid.veronese((1, 2, 2), 3)
    for i in range(3):
        assert is_closed_full(p, 1 << i)


def test_uniform_transversal_closedness_threshold():
    n, i = 5, 3
    p = uniform_transversal(n, i)
    for mask in bitset.nonempty_subsets(n):
        size = bitset.card(mask)
        expected = size <= n - i or mask == bitset.full_mask(n)
        assert is_closed_full(p, mask) == expected
        if 1 <= size <= n - i:
            assert is_inseparable(p, mask)


def test_singletons_are_inseparable():
    p = Polymatroid.box((3, 1))
    assert is_inseparable(p, 0b01)
    assert is_inseparable(p, 0b10)


def test_box_sets_of_size_two_or_more_separate():
    p = Polymatroid.box((2, 3, 4))
    for mask in bitset.nonempty_subsets(3):
        assert is_inseparable(p, mask) == (bitset.card(mask) == 1)


def test_degree_bounded_family_is_full_set_only():
    for n in (2, 3, 4):
        for d in (1, 2, 3):
            fam = closed_inseparable_family(Polymatroid.veronese((d,) * n, d))
            assert fam.masks() == (bitset.full_mask(n),)
            assert fam.ranks() == (d,)


def test_veronese_family_members():
    fam = closed_inseparable_family(Polymatroid.veronese((1, 1, 1), 2))
    assert fam.as_pairs() == {(0b001, 1), (0b010, 1), (0b100, 1), (0b111, 2)}


def test_box_family_is_singletons():
    v = (2, 4, 6)
    fam = closed_inseparable_family(Polymatroid.box(v))
    assert fam.as_pairs() == {(1 << i, v[i]) for i in range(3)}


def test_family_order_is_by_mask():
    fam = closed_inseparable_family(Polymatroid.veronese((1, 1, 1), 2))
    assert fam.masks() == tuple(sorted(fam.masks()))


@settings(max_examples=60, deadline=None)
@given(rank_tables(max_n=4))
def test_family_matches_double_brute_force(table_n):
    table, n = table_n
    p = Polymatroid.from_rank_table(n, table)
    assert closed_inseparable_family(p).as_pairs() == brute_family(p)


def definition_family(p):
    """(mask, rank) of every nonempty mask that is_closed_full and
    is_inseparable accept."""
    return [
        (mask, p.rank(mask))
        for mask in bitset.nonempty_subsets(p.n)
        if is_closed_full(p, mask) and is_inseparable(p, mask)
    ]


def family_inputs():
    rng = random.Random(1983)
    for n in range(1, 8):
        for _ in range(8):
            yield random_polymatroid(n, rng)
    for n in range(3, 9):
        for i in range(2, n):
            yield uniform_transversal(n, i)
        yield Polymatroid.box(tuple(rng.randint(1, 3) for _ in range(n)))
        s = tuple(sorted(rng.randint(1, 3) for _ in range(n)))
        yield Polymatroid.veronese(s, rng.randint(s[-1], sum(s) - 1))
        d = rng.randint(1, n)
        yield Polymatroid.veronese((d,) * n, d)
        full = bitset.full_mask(n)
        chain = [(0b1, 2), (0b111, 1), (full, 3)]
        yield nested_chain_family(n, chain)
    for n, r in ((4, 2), (6, 3), (7, 3), (8, 4)):
        yield Polymatroid.from_matroid_bases(
            n, [m for m in bitset.subsets(n) if bitset.card(m) == r]
        )
    # the graphic matroid of K4 (three edges that touch all four vertices
    # form a spanning tree), and U(1,3) plus two coloops
    edges = [0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100]
    trees = [
        t
        for t in itertools.combinations(range(6), 3)
        if edges[t[0]] | edges[t[1]] | edges[t[2]] == 0b1111
    ]
    yield Polymatroid.from_matroid_bases(6, [sum(1 << e for e in t) for t in trees])
    yield Polymatroid.from_matroid_bases(5, [0b00111, 0b01011, 0b10011])


def test_family_matches_definition():
    sizes = set()
    for p in family_inputs():
        assert validate(p).ok, p
        fam = closed_inseparable_family(p)
        assert list(zip(fam.masks(), fam.ranks())) == definition_family(p), p
        sizes.add(len(fam))
    assert len(sizes) > 10


@settings(max_examples=60, deadline=None)
@given(rank_tables(max_n=5))
def test_closedness_shortcut_equals_full_definition(table_n):
    table, n = table_n
    p = Polymatroid.from_rank_table(n, table)
    members = set(closed_inseparable_family(p).masks())
    for mask in bitset.nonempty_subsets(n):
        expected = is_closed_full(p, mask) and is_inseparable(p, mask)
        assert (mask in members) == expected


def test_closedness_shortcut_randomized_up_to_n10():
    import random

    from polytoric.sampling import random_rank_table

    rng = random.Random(2718)
    for n in (8, 9, 10):
        p = Polymatroid.from_rank_table(n, random_rank_table(n, rng))
        members = set(closed_inseparable_family(p).masks())
        for _ in range(60):
            mask = rng.randrange(1, 1 << n)
            expected = is_closed_full(p, mask) and is_inseparable(p, mask)
            assert (mask in members) == expected


@settings(max_examples=40, deadline=None)
@given(rank_tables(max_n=4))
def test_every_member_rank_positive_and_full_set_rule(table_n):
    table, n = table_n
    p = Polymatroid.from_rank_table(n, table)
    fam = closed_inseparable_family(p)
    full = bitset.full_mask(n)
    assert all(m.rank >= 1 for m in fam.members)
    assert (full in fam.masks()) == is_inseparable(p, full)
