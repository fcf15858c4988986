"""Adaptive integration of the regularized Newton flow.

The flow is the Cauchy problem

    u'(t) = -(F'(u) + a(t) I)^{-1} (F(u) + a(t) u - f),   u(0) = u0,

whose right-hand side costs one operator evaluation, one Jacobian, and one
shifted solve per call; rhs returns the residual psi(t) = F(u) + a(t) u - f
it solved beside the direction. Along the trajectory we track psi and its
norm h(t) = ||psi||; psi obeys the equivalent dynamics psi' = a'(t) u -
psi, which residual_dynamics_check tests the recorded points against. Its
dt^2 tolerance assumes a smooth psi, so on an F' that is only Hoelder
continuous it rejects the clean flow.

One stepping loop drives two methods, each supplying only its step and its
step-size rule. The default is an embedded Dormand-Prince 5(4) pair with PI
step-size control; a trial stage that fails its shifted solve rejects the
step like a large error estimate does. Each dp54 attempt fills one (8, n)
array z = [u; k1; ...; k7] and scales the tableau once, hb = h * _B with
column 0 kept at 1, so each stage's state is one product hb[i] @ z. The pair is
first-same-as-last (Hairer, Norsett & Wanner, Solving ODEs I, II.4-5): its
7th stage is evaluated at the new state, so that state and its psi are
taken from the stage rather than recomputed, and the stage serves as the
next step's first. The flow contracts (its linearization near the residual
manifold is -I), so an explicit pair is adequate at desk scale. A
fixed-step classical RK4 mode, at times k * h, exists for bit-reproducible
regression runs. Step-size underflow, and a failed solve with no step to
reject, are reported as termination reasons, never retried with altered
parameters; under linalg._QUIET, a trial state that overflows F or F' is
rejected with no warning. A run finishes at residual_stop or t_max; the
table UNFINISHED gives every other reason its error line.

Each solver divides when jac returns the Jacobian as its diagonal. Only
dp54 uses the structure a problem states (solve_structure): rk4 solves on
a "dense" copy so that its runs stay bit for bit, and the oracle keeps
dense LU so that EQ_2_6 and THM_3_1 still compare two independent solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .errors import LinearSolveError
from .linalg import _QUIET, as_number, as_vector, norm, _solve_shifted as solve_shifted
from .operators import DENSE, OperatorProblem
from .schedules import Schedule, check_admissible

TERMINATED_RESIDUAL = "residual_stop"
TERMINATED_TMAX = "t_max"
TERMINATED_MAX_STEPS = "max_steps"
TERMINATED_STEP_FAILURE = "step_failure"
TERMINATED_SOLVE_FAILURE = "solve_failure"

# Each reason that leaves a run unfinished, with its error line; the rest finish.
UNFINISHED = {
    TERMINATED_MAX_STEPS: "the run reached flow.MAX_STEPS attempted steps before t_max (max_steps)",
    TERMINATED_STEP_FAILURE: "step size underflow (step_failure)",
    TERMINATED_SOLVE_FAILURE: "a shifted solve failed its residual certificate (solve_failure)",
}

# Cap on the attempted steps of one integrate call, read at call time.
MAX_STEPS = 200_000

# Dormand-Prince 5(4) tableau. Stage i's state is _B[i] @ [u; h k1; ...; h k7]:
# column 0 is all ones, and columns 1.. of row i hold stage i's coupling
# coefficients. The last row is the 5th-order weights, so the 7th stage sits
# at the new state (FSAL). _C holds Python floats, so stage times stay float
# arithmetic. _E is the 5th-minus-4th order error weight vector.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_B = np.array(
    [
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
        [1.0, 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
        [1.0, 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
        [1.0, 35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
    ]
)
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 10.0
# PI controller exponents for a 5th-order pair.
_PI_ALPHA = 0.17
_PI_BETA = 0.04

# Leading constant of the centered-difference defect tolerance in
# residual_dynamics_check, and the default rel_tol behind its floor.
C_DYN = 2.0
DYN_REL_TOL = 1e-8

# Interior points per block of residual_dynamics_check. Its (block, n)
# arrays stay a few kB at the gallery's sizes, so it adds no peak memory.
_DYN_BLOCK = 16


@dataclass(frozen=True)
class IntegratorConfig:
    """Settings of one integrate call; every accepted step is recorded.

    The attempted steps are capped at MAX_STEPS, which is not a setting.
    rk4 takes round(t_max / initial_step) steps, so that ratio is finite.
    """

    t_max: float
    initial_step: float = 1e-2
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    residual_stop: float = 1e-10
    method: str = "dp54"  # "dp54" adaptive or "rk4" fixed-step
    # Not a field: perfbench's tracer reads it; it goes with cli's re-export block.
    record_stride: ClassVar[int] = 1

    def __post_init__(self):
        for name in ("t_max", "initial_step", "rel_tol", "abs_tol", "residual_stop"):
            value = getattr(self, name)
            if not 0.0 < as_number(name, value) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.method not in ("dp54", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "rk4" and not math.isfinite(self.t_max / self.initial_step):
            raise ValueError("rk4 takes t_max / initial_step steps, which must be finite")


@dataclass(frozen=True, eq=False)
class TrajectoryPoint:
    """One recorded state: psi is F(u) + a*u - f, evaluated at u itself (a
    dp54 point's by its FSAL stage), and h == ||psi||, exactly."""

    t: float
    u: np.ndarray
    a: float
    psi: np.ndarray
    h: float


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded states of one run, under the schedule that drove it; frozen.

    points, a tuple, starts with the t = 0 point, so it is never empty.
    cause is a solve_failure run's solve error, naming its stage's t, else "".
    w_tables is verify._w_table's memo, one w table and its ||u - w|| per
    (problem, NewtonConfig); it is not a constructor argument, so
    dataclasses.replace(traj) starts with an empty one.
    """

    schedule: Schedule
    points: tuple[TrajectoryPoint, ...]
    terminated_by: str = TERMINATED_TMAX
    cause: str = ""
    w_tables: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if not self.points:
            raise ValueError("a trajectory holds at least its t = 0 point")
        object.__setattr__(self, "points", tuple(self.points))

    @property
    def final(self) -> TrajectoryPoint:
        return self.points[-1]

    def require_schedule(self, s: Schedule):
        """Raise ValueError unless s is the schedule this trajectory ran under."""
        if s != self.schedule:
            raise ValueError(f"{s} is not the trajectory's schedule {self.schedule}")


def rhs(p: OperatorProblem, s: Schedule, t: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(direction, psi) at (t, u): psi = F(u) + a(t) u - f, direction -(F'(u) + a(t) I)^{-1} psi;
    its F, F' and solve run under the caller's error state (integrate's _QUIET)."""
    a = s.value(t)
    psi = p.residual(a, u)
    try:
        return -solve_shifted(p.jac(u), a, psi, p.solve_structure), psi
    except LinearSolveError as err:
        raise LinearSolveError(f"stage at t={t:.6g}: {err}") from err


def _make_point(p, s, t, u, psi=None) -> TrajectoryPoint:
    """The point (t, u), u kept, not copied; psi is evaluated unless the stage at (t, u) gave it."""
    a = s.value(t)
    psi = p.residual(a, u) if psi is None else psi
    return TrajectoryPoint(t=t, u=u, a=a, psi=psi, h=norm(psi))


@_QUIET
def integrate(
    p: OperatorProblem, s: Schedule, u0, cfg: IntegratorConfig
) -> Trajectory:
    """Integrate the flow from u0 until residual_stop, t_max, or MAX_STEPS.

    The schedule must certify admissibility (positivity, ratio below 1/2)
    over [0, t_max] before any stepping happens; an inadmissible schedule
    is a ValueError with the report's reason. One loop serves both
    methods: it records the t = 0 point and every accepted step, caps the
    attempted steps at MAX_STEPS, and returns at the step that ends the
    run. dp54 steps t += h under PI control; a step whose error is too
    large or whose trial stage fails its shifted solve is rejected and h
    shrinks, and step-size underflow below 1e-14 * t_max ends the run with
    terminated_by="step_failure". rk4 takes round(t_max / initial_step)
    equal steps h, at times k * h, with no error estimate: every step is
    accepted. A failed solve with no step to reject (dp54's first stage,
    any rk4 stage) ends the run with terminated_by="solve_failure" and
    that solve's error as the trajectory's cause. Only dp54 solves with the
    structure the problem states, which the problem works out at its first
    solve, after the t = 0 residual_stop exit.
    """
    u0 = as_vector(u0)
    if u0.shape[0] != p.dim:
        raise ValueError(f"u0 has dimension {u0.shape[0]}, problem expects {p.dim}")
    report = check_admissible(s, horizon=cfg.t_max)
    if not report.pass_2_2:
        raise ValueError(report.reason)
    t, u = 0.0, u0.copy()
    points = [_make_point(p, s, t, u)]
    if points[0].h <= cfg.residual_stop:
        return Trajectory(s, points, TERMINATED_RESIDUAL)

    fixed = cfg.method == "rk4"
    if fixed:
        p = replace(p, jacobian_structure=DENSE)
        h = cfg.t_max / max(1, round(cfg.t_max / cfg.initial_step))
    else:
        h = min(cfg.initial_step, cfg.t_max)
        err_prev = 1.0

    # Only dp54's first stage and rk4's stages raise here: a failed dp54
    # trial stage rejects its step inside _dp54_step.
    try:
        if not fixed:
            k1 = rhs(p, s, t, u)[0]
        for _ in range(MAX_STEPS):
            if fixed:
                # No error estimate and no FSAL stage: every step is accepted.
                u_new, err_norm, last = _rk4_step(p, s, t, u, h), 0.0, (None, None)
            else:
                h = min(h, cfg.t_max - t)
                if h < 1e-14 * cfg.t_max:
                    return Trajectory(s, points, TERMINATED_STEP_FAILURE)
                u_new, err_norm, last = _dp54_step(p, s, t, u, h, k1, cfg)

            if err_norm <= 1.0:
                # rk4 times are k * h, not a running sum, so step n meets the t_max test.
                t = len(points) * h if fixed else t + h
                u, (k1, psi) = u_new, last
                pt = _make_point(p, s, t, u, psi)
                points.append(pt)
                if pt.h <= cfg.residual_stop:
                    return Trajectory(s, points, TERMINATED_RESIDUAL)
                if t >= cfg.t_max * (1.0 - 1e-15):
                    return Trajectory(s, points, TERMINATED_TMAX)
            if not fixed:
                h, err_prev = _pi_control(h, err_norm, err_prev)
    except LinearSolveError as err:
        return Trajectory(s, points, TERMINATED_SOLVE_FAILURE, str(err))
    return Trajectory(s, points, TERMINATED_MAX_STEPS)


def _dp54_step(p, s, t, u, h, k1, cfg):
    """One DP5(4) attempt from (t, u): (u_new, err_norm, last stage).

    The stages fill the rows of one (8, n) array z = [u; k1; ...; k7], from
    the FSAL stage k1, the direction of rhs(t, u). hb is h * _B with its
    column 0 set back to 1, so stage i is rhs at hb[i, :i+1] @ z[:i+1], one
    product: u plus h times stage i's coupling of k1 ... ki. The last row
    of _B is the 5th-order weight row, so the 7th stage's state is u_new
    itself (FSAL), at t + _C[6] * h == t + h, and the last stage is that
    stage's rhs, (direction, u_new's own psi). The error estimate is h *
    ||_E @ z[1:]||, against rel_tol max(||u||, ||u_new||) + abs_tol.
    err_norm is inf, and the rest None, when a trial stage fails its
    shifted solve, or when ||u_new|| is not finite (as when squares of
    finite entries overflow); the 7th stage is then never evaluated.
    """
    z = np.empty((8, u.shape[0]))
    z[0] = u
    z[1] = k1
    hb = h * _B
    hb[:, 0] = 1.0
    for i in range(1, 7):
        ui = hb[i, : i + 1] @ z[: i + 1]
        if i == 6:
            norm_new = norm(ui)
            if not math.isfinite(norm_new):
                return None, math.inf, None
        try:
            z[i + 1], psi = rhs(p, s, t + _C[i] * h, ui)
        except LinearSolveError:
            return None, math.inf, None
    tol = cfg.rel_tol * max(norm(u), norm_new) + cfg.abs_tol
    return ui, h * norm(_E @ z[1:]) / tol, (z[7], psi)


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
    k1 = rhs(p, s, t, u)[0]
    k2 = rhs(p, s, t + h / 2, u + h / 2 * k1)[0]
    k3 = rhs(p, s, t + h / 2, u + h / 2 * k2)[0]
    k4 = rhs(p, s, t + h, u + h * k3)[0]
    return u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


@dataclass(frozen=True)
class DynamicsReport:
    max_defect: float
    worst_ratio: float
    worst_t: float
    passed: bool
    interior_points: int


def residual_dynamics_check(traj: Trajectory, p: OperatorProblem, s: Schedule) -> DynamicsReport:
    """Test the recorded residuals against psi' = a'(t) u - psi.

    psi' is estimated at interior recorded points with the three-point
    Lagrange derivative (second-order accurate, also on nonuniform grids)
    and compared with the closed-form right-hand side. Each interior point
    i has its own tolerance C_DYN * dt_i^2 * h_i + 10 * DYN_REL_TOL * scale,
    where dt_i is its half-window (t[i+1] - t[i-1]) / 2, h_i the largest
    recorded h of its three points, and scale the largest recorded h of
    the run. So halving the recording step must shrink each defect roughly
    fourfold, and a wrong a' cannot hide behind the long late steps or
    h(0). max_defect is the largest defect, and worst_ratio the largest
    defect/tolerance ratio (0 where the defect is 0, NaN if any defect is
    not a number), and worst_t the time of the interior point with that
    ratio (the first such point, and the first NaN one if any ratio is
    NaN); the check passes when worst_ratio <= 1, so when every defect is
    within its own tolerance. Below 3 recorded points the check is not
    applicable: there is no interior point, and the report reads
    interior_points = 0, worst_ratio = 0, worst_t = NaN and passed. s
    must be traj.schedule, else ValueError.

    The defects are computed _DYN_BLOCK interior points at a time, as the
    rows of small arrays, with the arithmetic of one point at a time: the
    same products and sums per entry, linalg.norm per row, and a running
    max from 0.0 that, like max(), passes over a NaN norm.
    """
    traj.require_schedule(s)
    pts = traj.points
    floor = 10.0 * DYN_REL_TOL * max(pt.h for pt in pts)
    m = len(pts) - 2
    if m < 1:
        return DynamicsReport(
            max_defect=0.0, worst_ratio=0.0, worst_t=math.nan, passed=True, interior_points=0
        )
    t = np.array([pt.t for pt in pts])
    h = np.array([pt.h for pt in pts])
    half = (t[2:] - t[:-2]) / 2.0
    tols = C_DYN * (half * half) * np.maximum(np.maximum(h[:-2], h[1:-1]), h[2:]) + floor
    norms = []
    # A repeated recorded time makes its weights non-finite: the defects
    # there are not finite and fail, with no warning, as does a nonzero
    # defect against a zero tolerance (ratio inf).
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(1, m + 1, _DYN_BLOCK):
            hi = min(lo + _DYN_BLOCK, m + 1)
            t0, t1, t2 = t[lo - 1 : hi - 1, None], t[lo:hi, None], t[lo + 1 : hi + 1, None]
            w0 = (t1 - t2) / ((t0 - t1) * (t0 - t2))
            w1 = (2 * t1 - t0 - t2) / ((t1 - t0) * (t1 - t2))
            w2 = (t1 - t0) / ((t2 - t0) * (t2 - t1))
            psi = np.array([pt.psi for pt in pts[lo - 1 : hi + 1]])
            psi_dot = w0 * psi[:-2] + w1 * psi[1:-1] + w2 * psi[2:]
            a_dot = np.array([[traj.schedule.derivative(pt.t)] for pt in pts[lo:hi]])
            defect = psi_dot - (a_dot * np.array([pt.u for pt in pts[lo:hi]]) - psi[1:-1])
            norms += [norm(row) for row in defect]
        max_defect = max([0.0, *norms])
        norms = np.array(norms)
        ratios = np.divide(norms, tols, out=np.zeros(m), where=norms != 0)
    worst = int(np.argmax(ratios))
    worst_ratio = float(ratios[worst])
    return DynamicsReport(
        max_defect=max_defect,
        worst_ratio=worst_ratio,
        worst_t=float(t[worst + 1]),
        passed=worst_ratio <= 1.0,
        interior_points=m,
    )
