"""Random generation of valid and deliberately broken rank tables.

Valid tables are sampled mask by mask: once all ranks on smaller subsets
are fixed, the admissible range for rho(A) is level_window,
[max_i rho(A - i), min_{i != j} rho(A - i) + rho(A - j) - rho(A - i - j)],
and the pairwise local constraints are equivalent to full monotonicity
plus submodularity.  That window can be empty: a partial table is not
always extensible, so the sampler backtracks (see random_rank_table).
Every polymatroid rank function on [n] can be produced this way.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional

from . import bitset
from .errors import ResourceLimitError, UsageError
from .polymatroid import Polymatroid


def level_window(table, mask: int) -> tuple:
    """Admissible range [low, high] for rho(mask), |mask| >= 2, given the
    ranks of all smaller subsets; `table` is indexed by subset mask.

    Lower bound from monotonicity over the covers, upper bound from
    submodularity over the diamonds rho(A+i) + rho(A+j) >= rho(A+i+j) + rho(A)
    that have mask as their top.  The window can be empty: the smaller
    subsets of a partial table are not always extensible.
    """
    covers = [mask ^ (1 << i) for i in bitset.elements(mask)]
    low = max([table[c] for c in covers])
    high = min(
        [table[a] + table[b] - table[a & b] for a, b in itertools.combinations(covers, 2)]
    )
    return low, high


def random_rank_table(
    n: int, rng: random.Random, max_unit_rank: int = 3, max_steps: int = 1_000_000
) -> dict:
    """A random valid rank table, as a mask -> rank dict.

    Unit ranks are drawn uniformly from 1..max_unit_rank.  The other masks
    are filled in increasing integer order, which is valid because every
    cover and co-cover of a mask is a smaller integer.  Each mask tries the
    values of its window in shuffled order; when a window is empty or all
    its values are spent, the search backs up to the previous mask and
    tries its next untried value.

    Every valid table is reachable: it lies in its own windows, the search
    tries every window value before backing up, and any unit ranks have a
    completion (the modular one), so each valid table is the first leaf
    reached with positive probability.  Each value placed counts as one
    step; ResourceLimitError is raised once max_steps are spent.
    """
    bitset.check_ground_set(n)
    if max_unit_rank < 1:
        raise UsageError("unit ranks must be allowed to reach at least 1")
    table = {0: 0}
    for i in range(n):
        table[1 << i] = rng.randint(1, max_unit_rank)
    masks = [m for m in bitset.nonempty_subsets(n) if bitset.card(m) >= 2]
    untried = []  # untried[k]: values still to try at masks[k]
    steps = 0
    k = 0
    while k < len(masks):
        mask = masks[k]
        if len(untried) == k:
            low, high = level_window(table, mask)
            values = list(range(low, high + 1))
            rng.shuffle(values)
            untried.append(values)
        if not untried[k]:
            untried.pop()
            k -= 1
            continue
        if steps == max_steps:
            raise ResourceLimitError(
                f"no valid rank table completed within {max_steps} steps at n={n}"
            )
        steps += 1
        table[mask] = untried[k].pop()
        k += 1
    return table


def random_polymatroid(
    n: int, rng: random.Random, max_unit_rank: int = 3
) -> Polymatroid:
    return Polymatroid.from_rank_table(n, random_rank_table(n, rng, max_unit_rank))


def corrupt_rank_table(
    table: dict, n: int, rng: random.Random, kind: Optional[str] = None
) -> tuple:
    """Break one axiom of a valid table; returns (bad table, planted fault).

    kind 'monotonicity' raises rho(A) above the smallest proper-superset
    rank; kind 'submodularity' raises rho(A | B) above the submodular cap
    of an incomparable pair.  The planted fault names the subsets involved.
    """
    if kind is None:
        kind = rng.choice(("monotonicity", "submodularity"))
    bad = dict(table)
    full = bitset.full_mask(n)
    if kind == "monotonicity":
        candidates = [m for m in bitset.nonempty_subsets(n) if m != full]
        mask = rng.choice(candidates)
        above = min(
            table[mask | (1 << j)]
            for j in bitset.elements(full & ~mask)
        )
        bad[mask] = above + 1 + rng.randint(0, 2)
        return bad, {"kind": "monotonicity", "subsets": (mask,)}
    if kind == "submodularity":
        if n < 2:
            raise UsageError("submodular corruption needs n >= 2")
        while True:
            a = rng.randrange(1, 1 << n)
            b = rng.randrange(1, 1 << n)
            if a & ~b and b & ~a:
                break
        cap = table[a] + table[b] - table[a & b]
        bad[a | b] = cap + 1 + rng.randint(0, 2)
        return bad, {"kind": "submodularity", "subsets": (a, b)}
    raise UsageError(f"unknown corruption kind {kind!r}")
