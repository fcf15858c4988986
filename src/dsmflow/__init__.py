"""Regularized continuous-Newton flow for monotone operator equations.

Solves F(u) = f for monotone, continuously differentiable F by integrating

    u'(t) = -(F'(u) + a(t) I)^{-1} (F(u) + a(t) u - f),

where the regularizer a(t) decays slowly enough (|a'|/a < 1/2) that the
residual norm h(t) = ||F(u) + a u - f|| collapses and u(t) tracks the
regularized solutions w(t) of F(w) + a(t) w = f all the way to the
minimal-norm solution. The oracle module solves the static equation
independently; the verify module certifies the tracking and decay bounds
on computed trajectories.
"""

from .errors import (
    ContinuationError,
    DsmError,
    LinearSolveError,
    NewtonError,
)
from .flow import (
    IntegratorConfig,
    Trajectory,
    TrajectoryPoint,
    integrate,
    residual_dynamics_check,
    rhs,
)
from .linalg import EPS_LIN, solve_shifted
from .operators import (
    GALLERY_NAMES,
    OperatorProblem,
    check_jacobian,
    check_monotone,
    gallery,
    make_problem,
)
from .oracle import (
    ContinuationResult,
    NewtonConfig,
    lemma_2_1_sweep,
    minimal_norm_limit,
    solve_regularized,
    w_along_schedule,
)
from .schedules import Schedule, check_admissible, constant, exponential, power
from .verify import (
    BoundReport,
    cap_term,
    certify,
    check_eq_2_6,
    check_eq_2_8,
    check_eq_2_10,
    check_eq_3_8,
    check_thm_3_1,
    distances_to_w,
)

__all__ = [
    "BoundReport",
    "ContinuationError",
    "ContinuationResult",
    "DsmError",
    "EPS_LIN",
    "GALLERY_NAMES",
    "IntegratorConfig",
    "LinearSolveError",
    "NewtonConfig",
    "NewtonError",
    "OperatorProblem",
    "Schedule",
    "Trajectory",
    "TrajectoryPoint",
    "cap_term",
    "certify",
    "check_admissible",
    "check_eq_2_6",
    "check_eq_2_8",
    "check_eq_2_10",
    "check_eq_3_8",
    "check_jacobian",
    "check_monotone",
    "check_thm_3_1",
    "constant",
    "distances_to_w",
    "exponential",
    "gallery",
    "integrate",
    "lemma_2_1_sweep",
    "make_problem",
    "minimal_norm_limit",
    "power",
    "residual_dynamics_check",
    "rhs",
    "solve_regularized",
    "solve_shifted",
    "w_along_schedule",
]
