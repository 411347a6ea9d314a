"""Shared exception types."""


class RegimeError(ValueError):
    """Raised when an operation's parameter-regime hypothesis fails.

    The message names the violated hypothesis in plain mathematical terms; the
    CLI maps this to exit code 2 (as opposed to 1 for malformed input).
    """


class InvariantError(RuntimeError):
    """Raised when an internal invariant of a computation fails.

    This signals a bug in the library, never bad input; unlike an ``assert``
    it still fires under ``python -O``.
    """
