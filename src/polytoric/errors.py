"""Exception hierarchy shared across the package."""


class PolytoricError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(PolytoricError):
    """A caller violated a documented precondition or input schema."""


class ResourceLimitError(PolytoricError):
    """An enumeration exceeded a configured cap (ground-set size, point count)."""


class InvariantViolationError(PolytoricError):
    """An internal mathematical invariant failed; indicates a bug or bad input
    that slipped past validation."""
