"""Exception types shared across the solver modules."""


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


class InadmissibleScheduleError(DsmError):
    """Regularizer schedule violates the admissibility conditions."""


class TooFewPointsError(DsmError):
    """A trajectory has too few recorded points for a check to apply.

    residual_dynamics_check needs three, so a run that stops at t = 0 (one
    point) cannot be tested against the residual dynamics.
    """


class NewtonError(DsmError):
    """Damped Newton ran out of iterations or line-search reductions.

    Carries the best iterate seen so far, its residual norm and the number
    of Newton iterations taken, so callers can diagnose whether the
    tolerance was too tight for the problem.
    """

    def __init__(self, message, best, residual_norm, iterations):
        super().__init__(message)
        self.best = best
        self.residual_norm = residual_norm
        self.iterations = iterations


class ContinuationError(DsmError):
    """Continuation toward a -> 0 failed; carries the partial result."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
