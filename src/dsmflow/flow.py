"""Adaptive integration of the regularized Newton flow.

The flow is the Cauchy problem

    u'(t) = -(F'(u) + a(t) I)^{-1} (F(u) + a(t) u - f),   u(0) = u0,

whose right-hand side costs one operator evaluation, one Jacobian, and one
shifted solve per call. Along the trajectory we track the residual
psi(t) = F(u) + a(t) u - f and its norm h(t) = ||psi||; psi obeys the
equivalent dynamics psi' = a'(t) u - psi, which residual_dynamics_check
uses as a discretization-independent consistency test.

One stepping loop drives two methods, each supplying only its step and its
step-size rule. The default is an embedded Dormand-Prince 5(4) pair with PI
step-size control; a trial stage that fails its shifted solve rejects the
step like a large error estimate does. Each dp54 attempt fills one (7, n)
stage array, one product with a row of the tableau per stage. The pair is
first-same-as-last (Hairer, Norsett & Wanner, Solving ODEs I, II.4-5): its
7th stage is evaluated at the new state, so that state is taken from the
stage rather than recomputed, and the stage serves as the next step's
first. The flow contracts (its linearization near the residual manifold is
-I), so an explicit pair is adequate at desk scale. A fixed-step classical
RK4 mode, at times k * h, exists for bit-reproducible regression runs.
Step-size underflow is reported as a termination reason, never retried
with altered parameters.

Only dp54 runs use the structure of the Jacobian that the problem states
(see OperatorProblem.solve_structure): rk4 solves with a "dense" copy of
the problem so that its runs stay bit for bit, and the oracle keeps dense
LU so that EQ_2_6 and THM_3_1 still compare two independent solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InadmissibleScheduleError, LinearSolveError
from .linalg import DENSE, as_count, as_number, as_vector, solve_shifted
from .operators import OperatorProblem
from .schedules import Schedule, check_admissible

TERMINATED_RESIDUAL = "residual_stop"
TERMINATED_TMAX = "t_max"
TERMINATED_MAX_STEPS = "max_steps"
TERMINATED_STEP_FAILURE = "step_failure"

# Dormand-Prince 5(4) tableau. Row i of _A holds the stage-i coupling
# coefficients; the last row is the 5th-order weights, so the 7th stage sits
# at the new state (FSAL). _E is the 5th-minus-4th order error weight vector.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 10.0
# PI controller exponents for a 5th-order pair.
_PI_ALPHA = 0.17
_PI_BETA = 0.04

# Leading constant of the centered-difference defect tolerance in
# residual_dynamics_check.
C_DYN = 2.0


@dataclass(frozen=True)
class IntegratorConfig:
    t_max: float
    initial_step: float = 1e-2
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_steps: int = 200_000
    residual_stop: float = 1e-10
    record_stride: int = 1
    method: str = "dp54"  # "dp54" adaptive or "rk4" fixed-step

    def __post_init__(self):
        for name in ("t_max", "initial_step", "rel_tol", "abs_tol", "residual_stop"):
            value = getattr(self, name)
            if not 0.0 < as_number(name, value) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("max_steps", "record_stride"):
            as_count(name, getattr(self, name), 1)
        if self.method not in ("dp54", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(eq=False)
class TrajectoryPoint:
    """One recorded state: psi and h are recomputed from u when stored,
    so psi == F(u) + a*u - f and h == ||psi|| hold exactly by construction.
    dist_to_w stays None until a verifier pass fills it."""

    t: float
    u: np.ndarray
    a: float
    psi: np.ndarray
    h: float
    dist_to_w: float | None = None


@dataclass(eq=False)
class Trajectory:
    """Recorded states of one run, under the schedule that drove it.

    points starts with the t = 0 point, so a trajectory is never empty.
    w_table is verify._w_table's memo of the oracle's w at the recorded
    times; it is not an argument of the constructor, so
    dataclasses.replace(traj) starts without one.
    """

    schedule: Schedule
    points: list[TrajectoryPoint]
    terminated_by: str = TERMINATED_TMAX
    w_table: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not self.points:
            raise ValueError("a trajectory holds at least its t = 0 point")

    @property
    def final(self) -> TrajectoryPoint:
        return self.points[-1]

    def require_schedule(self, s: Schedule):
        """Raise ValueError unless s is the schedule this trajectory ran under."""
        if s != self.schedule:
            raise ValueError(f"{s} is not the trajectory's schedule {self.schedule}")


def rhs(p: OperatorProblem, s: Schedule, t: float, u: np.ndarray) -> np.ndarray:
    """Flow direction -(F'(u) + a(t) I)^{-1} (F(u) + a(t) u - f)."""
    a = s.value(t)
    return -solve_shifted(p.jac(u), a, p.residual(a, u), p.solve_structure)


def _make_point(p: OperatorProblem, s: Schedule, t: float, u: np.ndarray) -> TrajectoryPoint:
    a = s.value(t)
    psi = p.residual(a, u)
    return TrajectoryPoint(t=t, u=u.copy(), a=a, psi=psi, h=math.sqrt(psi.dot(psi)))


def integrate(
    p: OperatorProblem, s: Schedule, u0, cfg: IntegratorConfig
) -> Trajectory:
    """Integrate the flow from u0 until residual_stop, t_max, or max_steps.

    The schedule must certify admissibility (positivity, ratio below 1/2)
    over [0, t_max] before any stepping happens; an inadmissible schedule
    is refused outright, with the report's reason. One loop serves both
    methods: max_steps caps the attempted steps, and every
    record_stride-th accepted step is recorded, plus always the first and
    last states. dp54 steps t += h under PI control; a step whose error is
    too large or whose trial stage fails its shifted solve is rejected and
    h shrinks, and step-size underflow below 1e-14 * t_max ends the run
    with terminated_by="step_failure". rk4 takes round(t_max /
    initial_step) equal steps h, at times k * h, with no error estimate:
    every step is accepted, and a failed solve raises LinearSolveError.
    Only dp54 solves with the structure the problem states, which the
    problem works out at its first solve, after the t = 0 residual_stop exit.
    """
    u0 = as_vector(u0)
    if u0.shape[0] != p.dim:
        raise ValueError(f"u0 has dimension {u0.shape[0]}, problem expects {p.dim}")
    report = check_admissible(s, horizon=cfg.t_max)
    if not report.pass_2_2:
        raise InadmissibleScheduleError(report.reason)
    t, u = 0.0, u0.copy()
    pt = _make_point(p, s, t, u)
    points = [pt]
    if pt.h <= cfg.residual_stop:
        return Trajectory(s, points, TERMINATED_RESIDUAL)

    fixed = cfg.method == "rk4"
    if fixed:
        p = replace(p, jacobian_structure=DENSE)
        h = cfg.t_max / max(1, round(cfg.t_max / cfg.initial_step))
    else:
        h = min(cfg.initial_step, cfg.t_max)
        k1 = rhs(p, s, t, u)
        u_norm = math.sqrt(u.dot(u))
        err_prev = 1.0
    accepted = 0
    terminated = None

    for _ in range(cfg.max_steps):
        if fixed:
            # No error estimate and no FSAL stage: every step is accepted.
            u_new, err_norm, k_last, norm_new = _rk4_step(p, s, t, u, h), 0.0, None, None
        else:
            h = min(h, cfg.t_max - t)
            if h < 1e-14 * cfg.t_max:
                terminated = TERMINATED_STEP_FAILURE
                break
            u_new, err_norm, k_last, norm_new = _dp54_step(p, s, t, u, u_norm, h, k1, cfg)

        if err_norm <= 1.0:
            accepted += 1
            # rk4 times are k * h, not a running sum, so step n meets the t_max test.
            t = accepted * h if fixed else t + h
            u, k1, u_norm = u_new, k_last, norm_new
            pt = _make_point(p, s, t, u)
            if pt.h <= cfg.residual_stop:
                terminated = TERMINATED_RESIDUAL
            elif t >= cfg.t_max * (1.0 - 1e-15):
                terminated = TERMINATED_TMAX
            if terminated or accepted % cfg.record_stride == 0:
                points.append(pt)
            if terminated:
                break
        if not fixed:
            h, err_prev = _pi_control(h, err_norm, err_prev)

    if points[-1] is not pt:
        points.append(pt)
    return Trajectory(s, points, terminated or TERMINATED_MAX_STEPS)


def _dp54_step(p, s, t, u, u_norm, h, k1, cfg):
    """One DP5(4) attempt from (t, u): (u_new, err_norm, last stage, ||u_new||).

    The stages fill the rows of one (7, n) array k, from the FSAL stage
    k[0] = k1 = rhs(t, u); stage i is rhs at u + h * (_A[i] @ k[:i]). The
    last row of _A is the 5th-order weight row, so the 7th stage's state is
    u_new itself (FSAL), and the error estimate is h * (_E @ k). u_norm is
    ||u||, carried like k1 from the attempt that accepted u. err_norm is
    inf, and the rest None, when a trial stage fails its shifted solve, or
    when u_new (or its squared norm) is not finite; the 7th stage is then
    never evaluated.
    """
    k = np.empty((7, u.shape[0]))
    k[0] = k1
    for i in range(1, 7):
        ui = u + h * (_A[i] @ k[:i])
        if i == 6:
            norm_new = math.sqrt(ui.dot(ui))
            if not math.isfinite(norm_new):
                return None, math.inf, None, None
        try:
            k[i] = rhs(p, s, t + _C[i] * h, ui)
        except LinearSolveError:
            return None, math.inf, None, None
    err = h * (_E @ k)
    tol = cfg.rel_tol * max(u_norm, norm_new) + cfg.abs_tol
    return ui, math.sqrt(err.dot(err)) / tol, k[6], norm_new


def _pi_control(h, err_norm, err_prev):
    """Next dp54 step size and error memory after an accepted or rejected step."""
    if err_norm <= 1.0:
        err_floor = max(err_norm, 1e-10)
        factor = _SAFETY * err_floor**-_PI_ALPHA * err_prev**_PI_BETA
        err_prev = err_floor
    else:
        factor = min(max(_FAC_MIN, _SAFETY * err_norm**-0.2), 1.0)
    return h * min(_FAC_MAX, max(_FAC_MIN, factor)), err_prev


def _rk4_step(p, s, t, u, h):
    """One classical RK4 step from (t, u)."""
    k1 = rhs(p, s, t, u)
    k2 = rhs(p, s, t + h / 2, u + h / 2 * k1)
    k3 = rhs(p, s, t + h / 2, u + h / 2 * k2)
    k4 = rhs(p, s, t + h, u + h * k3)
    return u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


@dataclass(frozen=True)
class DynamicsReport:
    max_defect: float
    tol: float
    passed: bool
    interior_points: int


def residual_dynamics_check(
    traj: Trajectory, p: OperatorProblem, s: Schedule, rel_tol: float = 1e-8
) -> DynamicsReport:
    """Test the recorded residuals against psi' = a'(t) u - psi.

    psi' is estimated at interior recorded points with the three-point
    Lagrange derivative (second-order accurate, also on nonuniform grids)
    and compared with the closed-form right-hand side. The defect tolerance
    is C_DYN * dt^2 * scale + 10 * rel_tol * scale, where dt is the largest
    half-window and scale the largest recorded h, so halving the recording
    step must shrink the defect roughly fourfold. Below 3 recorded points
    the check is not applicable: there is no interior point, and the report
    reads interior_points = 0 and passed. s must be traj.schedule, else
    ValueError.
    """
    traj.require_schedule(s)
    pts = traj.points
    max_defect = 0.0
    max_dt = 0.0
    scale = max(pt.h for pt in pts)
    for i in range(1, len(pts) - 1):
        t0, t1, t2 = pts[i - 1].t, pts[i].t, pts[i + 1].t
        w0 = (t1 - t2) / ((t0 - t1) * (t0 - t2))
        w1 = (2 * t1 - t0 - t2) / ((t1 - t0) * (t1 - t2))
        w2 = (t1 - t0) / ((t2 - t0) * (t2 - t1))
        psi_dot = w0 * pts[i - 1].psi + w1 * pts[i].psi + w2 * pts[i + 1].psi
        expected = traj.schedule.derivative(t1) * pts[i].u - pts[i].psi
        defect = psi_dot - expected
        max_defect = max(max_defect, math.sqrt(defect.dot(defect)))
        max_dt = max(max_dt, (t2 - t0) / 2.0)
    tol = C_DYN * max_dt**2 * scale + 10.0 * rel_tol * scale
    return DynamicsReport(
        max_defect=max_defect, tol=tol, passed=max_defect <= tol, interior_points=len(pts[1:-1])
    )
