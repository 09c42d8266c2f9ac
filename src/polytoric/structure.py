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
from .errors import ResourceLimitError, UsageError
from .polymatroid import Polymatroid

DEFAULT_MAX_N = 16


@dataclass(frozen=True)
class FamilyMember:
    mask: int
    rank: int
    size: int

    @property
    def label(self) -> str:
        return "P_" + bitset.set_label(self.mask)


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


def is_closed(p: Polymatroid, mask: int) -> bool:
    """Closedness via single-element extensions.

    By monotonicity, rho(A) < rho(B) for all proper supersets B iff
    rho(A) < rho(A + {j}) for every j outside A.  The full-definition
    check lives in is_closed_full as an independent oracle.
    """
    if mask == 0:
        raise UsageError("closedness is defined for nonempty subsets only")
    r = p.rank(mask)
    outside = bitset.full_mask(p.n) & ~mask
    return all(p.rank(mask | (1 << j)) > r for j in bitset.elements(outside))


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


def check_enumeration_cap(n: int, max_n: int) -> None:
    """Raise ResourceLimitError when subsets of [n] are too many to enumerate."""
    if n > max_n:
        raise ResourceLimitError(
            f"ground-set size {n} exceeds the enumeration cap {max_n}"
        )


def closed_inseparable_family(
    p: Polymatroid, max_n: int = DEFAULT_MAX_N
) -> ClosedInseparableFamily:
    """Enumerate every nonempty closed and inseparable subset with its rank.

    Subsets are visited by increasing cardinality and the cheap closedness
    test is applied before the exponential inseparability test.
    """
    check_enumeration_cap(p.n, max_n)
    found = []
    by_size = sorted(bitset.nonempty_subsets(p.n), key=bitset.card)
    for mask in by_size:
        if not is_closed(p, mask):
            continue
        if not is_inseparable(p, mask):
            continue
        found.append(FamilyMember(mask=mask, rank=p.rank(mask), size=bitset.card(mask)))
    found.sort(key=lambda m: m.mask)
    return ClosedInseparableFamily(n=p.n, members=tuple(found))
