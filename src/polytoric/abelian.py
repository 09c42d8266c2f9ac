"""Invariants of the quotient of Z^r by a single integer relation vector.

The groups that occur here are always of the form Z^r / <a> for one row
vector a, so no general normal-form machinery is needed: the quotient is
Z^(r-1) (+) Z/dZ with d = gcd of the entries of a, and Z^r when a = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import UsageError


def gcd_of(entries: Sequence[int]) -> int:
    """gcd of the absolute values; an all-zero list has gcd 0.

    Raises UsageError on an empty list.
    """
    if len(entries) == 0:
        raise UsageError("gcd of an empty list is undefined")
    return math.gcd(*entries)


@dataclass(frozen=True)
class GroupInvariants:
    """A finitely generated abelian group Z^free_rank (+) Z/torsion Z."""

    free_rank: int
    torsion: int  # torsion = 1 means no torsion part; 0 is not allowed

    def __post_init__(self):
        if self.free_rank < 0:
            raise UsageError(f"free rank must be nonnegative, got {self.free_rank}")
        if self.torsion < 1:
            raise UsageError(f"torsion order must be positive, got {self.torsion}")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and self.torsion == 1

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        if self.torsion > 1:
            parts.append(f"Z/{self.torsion}Z")
        return " + ".join(parts) if parts else "0"


def quotient_by_relation(r: int, a: Sequence[int]) -> GroupInvariants:
    """Invariants of Z^r modulo the single relation sum_i a_i e_i = 0."""
    if r < 1:
        raise UsageError(f"need at least one generator, got r={r}")
    if len(a) != r:
        raise UsageError(f"relation has length {len(a)}, expected {r}")
    if all(x == 0 for x in a):
        return GroupInvariants(free_rank=r, torsion=1)
    return GroupInvariants(free_rank=r - 1, torsion=gcd_of(a))
