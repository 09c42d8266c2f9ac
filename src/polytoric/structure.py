"""Closedness, inseparability, and the generating family of subsets.

A nonempty subset A is closed when rho(A) < rho(B) for every proper
superset B, and inseparable when no partition A = A1 | A2 into nonempty
parts has rho(A) = rho(A1) + rho(A2).  The subsets that are both closed
and inseparable index the height-one primes over the degree element, and
their ranks form the single relation of the divisor class group.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bitset
from .errors import UsageError
from .polymatroid import Polymatroid


@dataclass(frozen=True)
class FamilyMember:
    mask: int
    rank: int
    size: int


@dataclass(frozen=True)
class ClosedInseparableFamily:
    """The closed and inseparable subsets with their ranks, sorted by mask."""

    n: int
    members: tuple

    def masks(self) -> tuple:
        return tuple(m.mask for m in self.members)

    def ranks(self) -> tuple:
        return tuple(m.rank for m in self.members)

    def as_pairs(self) -> frozenset:
        """Order-free view for set comparisons against predictions."""
        return frozenset((m.mask, m.rank) for m in self.members)

    def __len__(self):
        return len(self.members)


def is_closed_full(p: Polymatroid, mask: int) -> bool:
    """Literal definition: compare against every proper superset."""
    if mask == 0:
        raise UsageError("closedness is defined for nonempty subsets only")
    r = p.rank(mask)
    outside = bitset.full_mask(p.n) & ~mask
    for extra in bitset.submasks(outside):
        if extra and p.rank(mask | extra) <= r:
            return False
    return True


def is_inseparable(p: Polymatroid, mask: int) -> bool:
    """Brute force over the bipartitions whose first part holds min(A)."""
    if mask == 0:
        raise UsageError("inseparability is defined for nonempty subsets only")
    if bitset.card(mask) == 1:
        return True
    r = p.rank(mask)
    low = mask & -mask
    rest = mask ^ low
    for sub in bitset.submasks(rest):
        if sub == rest:
            continue  # second part would be empty
        a1 = sub | low
        if p.rank(a1) + p.rank(mask ^ a1) == r:
            return False
    return True


def closed_inseparable_family(p: Polymatroid) -> ClosedInseparableFamily:
    """Enumerate every nonempty closed and inseparable subset with its rank.

    One pass over the masks in increasing order, O(n 2^n) rank reads in
    total.  Closedness is the single-element test, n reads: by
    monotonicity, rho(A) < rho(B) for every proper superset B iff
    rho(A) < rho(A + {j}) for every j outside A.
    Inseparability comes from the components: the minimal nonempty K in A
    with rho(K) + rho(A - K) = rho(A), which partition A (Cunningham,
    "Decomposition of submodular functions", 1983).  With t the largest
    element of A, each component of A - t that still splits off A in this
    sense is a component of A, and the other components of A - t merge
    with {t} into one.  A is inseparable iff it has a single component.
    Both shortcuts assume a polymatroid (rho(empty) = 0, monotone,
    submodular); the CLI validates before it calls this, and is_closed_full
    and is_inseparable are the definitions for any input.
    """
    n = p.n
    ranks = p.ranks
    full = bitset.full_mask(n)
    comps: list = [()] * (1 << n)
    found = []
    for mask in range(1, 1 << n):
        top = 1 << (mask.bit_length() - 1)
        r = ranks[mask]
        kept = []
        merged = top
        for k in comps[mask ^ top]:
            if ranks[k] + ranks[mask ^ k] == r:
                kept.append(k)
            else:
                merged |= k
        kept.append(merged)
        comps[mask] = kept
        if len(kept) > 1:
            continue
        outside = full ^ mask
        while outside:
            bit = outside & -outside
            if ranks[mask | bit] <= r:
                break
            outside ^= bit
        else:
            found.append(FamilyMember(mask=mask, rank=r, size=mask.bit_count()))
    return ClosedInseparableFamily(n=n, members=tuple(found))
