"""Shared exception types.

The CLI maps these onto exit codes: ConventionError -> 3,
ResourceBoundError -> 4.  ValueError from argument validation -> 2.
"""


class ConventionError(RuntimeError):
    """An internal convention assertion failed (signals a bug, not bad input)."""


class ExactDivisionError(ArithmeticError):
    """A division that must be remainder-free left a remainder."""


class ResourceBoundError(RuntimeError):
    """A configured resource cap (node count, degree) was exceeded."""
