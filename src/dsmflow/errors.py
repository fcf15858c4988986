"""Exceptions for solver failures, as opposed to caller mistakes.

Each is a DsmError, which the CLI maps to exit code 3, and carries only
its message, which is all the CLI prints. A bad argument is a ValueError
instead, and a check that does not apply reports so rather than raising.
"""


class DsmError(Exception):
    """Base class for solver failures (as opposed to caller mistakes)."""


class LinearSolveError(DsmError):
    """Shifted linear solve failed its residual certificate.

    Raised when the computed solution fails the residual check, which a
    singular J + a*I (its solution is NaN) and every non-finite J, a or
    rhs do. Otherwise the monotonicity precondition (positive
    semidefinite symmetric part of J) is suspect; the failure is reported
    rather than patched.
    """


class NewtonError(DsmError):
    """Damped Newton ran out of iterations or line-search reductions."""


class ContinuationError(DsmError):
    """Continuation toward a -> 0 failed."""
