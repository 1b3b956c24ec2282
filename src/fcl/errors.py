"""Shared exception types.

The CLI's exit codes: 0 on success; 2 for invalid input (argparse errors
and ValueError); 3 for ConventionError; 4 for a cost estimate over the budget
(ResourceBoundError) and for an input too large for the stack or memory at
hand (RecursionError, MemoryError); 1 only when ``selfcheck`` reports a
failed oracle.
"""


class ConventionError(RuntimeError):
    """An internal convention assertion failed (signals a bug, not bad input)."""


class ExactDivisionError(ArithmeticError):
    """A division that must be remainder-free left a remainder."""


class ResourceBoundError(RuntimeError):
    """A command's cost estimate is over the CLI's cost budget."""
