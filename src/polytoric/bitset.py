"""Subsets of the ground set [n] = {1, ..., n} encoded as int bitmasks.

Bit i (0-based) stands for element i+1.  All enumeration loops in the
package iterate over these masks directly.  The ground-set size is capped
at 63 so masks stay machine-word sized.
"""

from __future__ import annotations

from typing import Iterator

from .errors import UsageError

MAX_GROUND_SET = 63


def check_ground_set(n: int) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise UsageError(f"ground-set size must be a positive integer, got {n!r}")
    if n > MAX_GROUND_SET:
        raise UsageError(
            f"ground-set size {n} exceeds the bitmask limit of {MAX_GROUND_SET}"
        )


def full_mask(n: int) -> int:
    return (1 << n) - 1


def card(mask: int) -> int:
    """Number of elements in the subset."""
    return mask.bit_count()


def elements(mask: int) -> Iterator[int]:
    """0-based element indices of the subset, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices, n: int) -> int:
    """Mask for a collection of 0-based indices; bounds-checked against [n]."""
    mask = 0
    for i in indices:
        if not 0 <= i < n:
            raise UsageError(f"element index {i} outside ground set of size {n}")
        mask |= 1 << i
    return mask


def subsets(n: int) -> range:
    """All 2^n masks, ascending (the canonical order)."""
    return range(1 << n)


def nonempty_subsets(n: int) -> range:
    return range(1, 1 << n)


def submasks(mask: int) -> Iterator[int]:
    """All submasks of `mask`, including 0 and `mask` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def one_based(mask: int) -> tuple[int, ...]:
    """Sorted 1-based element list, the external serialization of a subset."""
    return tuple(i + 1 for i in elements(mask))


def set_label(mask: int) -> str:
    """Human-readable form, e.g. '{1,3}'."""
    return "{" + ",".join(str(i) for i in one_based(mask)) + "}"
