import itertools
import random

import pytest

from polytoric import Polymatroid, ResourceLimitError, UsageError, validate
from polytoric import bitset
from polytoric.sampling import corrupt_rank_table, level_window, random_rank_table


def test_sampled_tables_are_valid():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 5)
        table = random_rank_table(n, rng)
        assert validate(Polymatroid.from_rank_table(n, table)).ok
    for n in (8, 9, 10, 11, 12):
        table = random_rank_table(n, rng)
        assert validate(Polymatroid.from_rank_table(n, table)).ok


def test_exhausted_step_budget_raises_resource_limit():
    with pytest.raises(ResourceLimitError):
        random_rank_table(4, random.Random(0), max_steps=1)


def test_level_window_can_be_empty():
    # rho(i) = 1, rho({1,2}) = rho({2,3}) = 1, rho({1,3}) = 2: monotonicity
    # forces rho({1,2,3}) >= 2, submodularity on {1,2}, {2,3} forces <= 1.
    table = {0: 0, 0b001: 1, 0b010: 1, 0b100: 1, 0b011: 1, 0b110: 1, 0b101: 2}
    assert level_window(table, 0b111) == (2, 1)


def test_sampler_reaches_every_valid_table_at_n3():
    # Brute force over all candidate tables with unit ranks in 1..2; any
    # rank is at most the sum of the unit ranks below it (<= 4 on a pair,
    # <= 6 on the full set), so the ranges below miss no valid table.
    valid = set()
    for units in itertools.product((1, 2), repeat=3):
        for pairs in itertools.product(range(5), repeat=3):
            for full in range(7):
                values = dict(zip((0b001, 0b010, 0b100), units))
                values.update(zip((0b011, 0b101, 0b110), pairs))
                values.update({0: 0, 0b111: full})
                if validate(Polymatroid.from_rank_table(3, values)).ok:
                    valid.add(tuple(values[m] for m in bitset.subsets(3)))
    assert len(valid) == 81
    rng = random.Random(3)
    drawn = set()
    for _ in range(20_000):
        table = random_rank_table(3, rng, max_unit_rank=2)
        drawn.add(tuple(table[m] for m in bitset.subsets(3)))
    assert drawn == valid


def test_sampler_covers_all_subsets():
    rng = random.Random(1)
    table = random_rank_table(4, rng)
    assert set(table) == set(bitset.subsets(4))


def test_monotonicity_corruption_detected():
    rng = random.Random(13)
    for _ in range(20):
        table = random_rank_table(3, rng)
        bad, fault = corrupt_rank_table(table, 3, rng, kind="monotonicity")
        report = validate(Polymatroid.from_rank_table(3, bad))
        assert not report.ok
        planted = fault["subsets"][0]
        assert any(
            v.kind == "monotonicity" and v.subsets[0] == planted
            for v in report.violations
        )


def test_submodularity_corruption_detected():
    rng = random.Random(17)
    for _ in range(20):
        table = random_rank_table(4, rng)
        bad, fault = corrupt_rank_table(table, 4, rng, kind="submodularity")
        report = validate(Polymatroid.from_rank_table(4, bad))
        assert not report.ok
        a, b = sorted(fault["subsets"])
        assert any(
            v.kind == "submodularity" and v.subsets == (a, b)
            for v in report.violations
        )


def test_unknown_corruption_kind():
    rng = random.Random(0)
    with pytest.raises(UsageError):
        corrupt_rank_table(random_rank_table(2, rng), 2, rng, kind="nope")


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda rng: random_rank_table(3, rng, max_unit_rank=0),
            "unit ranks must be allowed to reach at least 1",
            id="unit-rank-cap",
        ),
        pytest.param(
            lambda rng: corrupt_rank_table({0: 0, 1: 1}, 1, rng, kind="submodularity"),
            "submodular corruption needs n >= 2",
            id="submodular-n1",
        ),
    ],
)
def test_sampler_refusals(call, message):
    with pytest.raises(UsageError) as info:
        call(random.Random(0))
    assert str(info.value) == message
