"""Adaptive integration of the regularized Newton flow.

The flow is the Cauchy problem

    u'(t) = -(F'(u) + a(t) I)^{-1} (F(u) + a(t) u - f),   u(0) = u0,

whose right-hand side costs one operator evaluation, one Jacobian, and one
shifted solve per call. Along the trajectory we track the residual
psi(t) = F(u) + a(t) u - f and its norm h(t) = ||psi||; psi obeys the
equivalent dynamics psi' = a'(t) u - psi, which residual_dynamics_check
uses as a discretization-independent consistency test.

The default integrator is an embedded Dormand-Prince 5(4) pair with PI
step-size control. The flow contracts (its linearization near the residual
manifold is -I), so an explicit pair is adequate at desk scale; a
fixed-step classical RK4 mode exists for bit-reproducible regression runs.
Step-size underflow is reported as a termination reason, never retried
with altered parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InadmissibleScheduleError
from .linalg import as_vector, solve_shifted
from .operators import OperatorProblem
from .schedules import Schedule, check_admissible

TERMINATED_RESIDUAL = "residual_stop"
TERMINATED_TMAX = "t_max"
TERMINATED_MAX_STEPS = "max_steps"
TERMINATED_STEP_FAILURE = "step_failure"

# Dormand-Prince 5(4) tableau. Row i of _A holds the stage-i coupling
# coefficients; _B5 propagates (and equals the last stage, giving FSAL),
# _E is the 5th-minus-4th order error weight vector.
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
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
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
        if not self.t_max > 0.0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        for name in ("initial_step", "rel_tol", "abs_tol", "residual_stop"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")
        if self.method not in ("dp54", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")

    def to_dict(self) -> dict:
        return {
            "t_max": self.t_max,
            "initial_step": self.initial_step,
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "max_steps": self.max_steps,
            "residual_stop": self.residual_stop,
            "record_stride": self.record_stride,
            "method": self.method,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "IntegratorConfig":
        return cls(**d)


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
    points: list[TrajectoryPoint] = field(default_factory=list)
    terminated_by: str = TERMINATED_TMAX
    problem_name: str = ""
    schedule: Schedule | None = None

    @property
    def final(self) -> TrajectoryPoint:
        return self.points[-1]

    def times(self) -> np.ndarray:
        return np.array([pt.t for pt in self.points])


def rhs(p: OperatorProblem, s: Schedule, t: float, u: np.ndarray) -> np.ndarray:
    """Flow direction -(F'(u) + a(t) I)^{-1} (F(u) + a(t) u - f)."""
    a = s.value(t)
    return -solve_shifted(p.jac(u), a, p.residual(a, u))


def _make_point(p: OperatorProblem, s: Schedule, t: float, u: np.ndarray) -> TrajectoryPoint:
    a = s.value(t)
    psi = p.residual(a, u)
    return TrajectoryPoint(t=t, u=u.copy(), a=a, psi=psi, h=math.sqrt(psi.dot(psi)))


def integrate(
    p: OperatorProblem, s: Schedule, u0, cfg: IntegratorConfig
) -> Trajectory:
    """Integrate the flow from u0 until residual_stop, t_max, or max_steps.

    The schedule must certify admissibility (positivity, cap, ratio below
    1/2) over [0, t_max] before any stepping happens; an inadmissible
    schedule is refused outright. Every record_stride-th accepted step is
    recorded, plus always the first and last states. Step-size underflow
    below 1e-14 * t_max ends the run with terminated_by="step_failure".
    """
    u0 = as_vector(u0)
    if u0.shape[0] != p.dim:
        raise ValueError(f"u0 has dimension {u0.shape[0]}, problem expects {p.dim}")
    report = check_admissible(s, horizon=cfg.t_max)
    if not report.pass_2_2:
        raise InadmissibleScheduleError(
            f"schedule {s.to_dict()} fails admissibility: max |a'|/a = "
            f"{report.max_ratio:.4g} (limit 0.5), positive={report.positive}"
        )
    if cfg.method == "rk4":
        return _integrate_rk4(p, s, u0, cfg)
    return _integrate_dp54(p, s, u0, cfg)


def _integrate_dp54(p, s, u0, cfg) -> Trajectory:
    traj = Trajectory(problem_name=p.name, schedule=s)
    t, u = 0.0, u0.copy()
    pt = _make_point(p, s, t, u)
    traj.points.append(pt)
    if pt.h <= cfg.residual_stop:
        traj.terminated_by = TERMINATED_RESIDUAL
        return traj

    def f(tt, uu):
        return rhs(p, s, tt, uu)

    h = min(cfg.initial_step, cfg.t_max)
    k1 = f(t, u)
    err_prev = 1.0
    accepted = 0
    recorded_t = 0.0
    terminated = None

    for _ in range(cfg.max_steps):
        h = min(h, cfg.t_max - t)
        if h < 1e-14 * cfg.t_max:
            terminated = TERMINATED_STEP_FAILURE
            break

        k = [k1]
        for i in range(1, 7):
            ui = u + h * sum(aij * kj for aij, kj in zip(_A[i], k))
            k.append(f(t + _C[i] * h, ui))
        u_new = u + h * sum(b * kj for b, kj in zip(_B5, k))
        # FSAL: the 7th stage sits at (t + h, u_new) already.
        err_vec = h * sum(e * kj for e, kj in zip(_E, k))

        if np.all(np.isfinite(u_new)):
            tol = cfg.rel_tol * max(np.linalg.norm(u), np.linalg.norm(u_new)) + cfg.abs_tol
            err_norm = np.linalg.norm(err_vec) / tol
        else:
            err_norm = np.inf

        if err_norm <= 1.0:
            t += h
            u = u_new
            k1 = k[6]
            accepted += 1
            store = accepted % cfg.record_stride == 0
            finish = None
            pt = _make_point(p, s, t, u)
            if pt.h <= cfg.residual_stop:
                finish = TERMINATED_RESIDUAL
            elif t >= cfg.t_max * (1.0 - 1e-15):
                finish = TERMINATED_TMAX
            if store or finish:
                traj.points.append(pt)
                recorded_t = t
            if finish:
                terminated = finish
                break
            err_floor = max(err_norm, 1e-10)
            factor = _SAFETY * err_floor**-_PI_ALPHA * err_prev**_PI_BETA
            err_prev = err_floor
        else:
            factor = max(_FAC_MIN, _SAFETY * err_norm**-0.2)
            factor = min(factor, 1.0)
        h *= min(_FAC_MAX, max(_FAC_MIN, factor))

    if terminated is None:
        terminated = TERMINATED_MAX_STEPS
    traj.terminated_by = terminated
    if recorded_t < t:
        traj.points.append(_make_point(p, s, t, u))
    return traj


def _integrate_rk4(p, s, u0, cfg) -> Trajectory:
    """Fixed-step classical RK4 with step initial_step (t_max split evenly)."""
    traj = Trajectory(problem_name=p.name, schedule=s)
    u = u0.copy()
    pt = _make_point(p, s, 0.0, u)
    traj.points.append(pt)
    if pt.h <= cfg.residual_stop:
        traj.terminated_by = TERMINATED_RESIDUAL
        return traj

    n_steps = max(1, round(cfg.t_max / cfg.initial_step))
    h = cfg.t_max / n_steps
    terminated = None
    recorded_t = 0.0
    t = 0.0
    for step in range(1, n_steps + 1):
        if step > cfg.max_steps:
            terminated = TERMINATED_MAX_STEPS
            break
        k1 = rhs(p, s, t, u)
        k2 = rhs(p, s, t + h / 2, u + h / 2 * k1)
        k3 = rhs(p, s, t + h / 2, u + h / 2 * k2)
        k4 = rhs(p, s, t + h, u + h * k3)
        u = u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = step * h
        pt = _make_point(p, s, t, u)
        finished = pt.h <= cfg.residual_stop or step == n_steps
        if step % cfg.record_stride == 0 or finished:
            traj.points.append(pt)
            recorded_t = t
        if pt.h <= cfg.residual_stop:
            terminated = TERMINATED_RESIDUAL
            break
        if step == n_steps:
            terminated = TERMINATED_TMAX
    traj.terminated_by = terminated if terminated is not None else TERMINATED_MAX_STEPS
    if recorded_t < t:
        traj.points.append(_make_point(p, s, t, u))
    return traj


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
    step must shrink the defect roughly fourfold.
    """
    pts = traj.points
    if len(pts) < 3:
        raise ValueError("need at least 3 recorded points to estimate psi'")
    max_defect = 0.0
    max_dt = 0.0
    scale = max(pt.h for pt in pts)
    for i in range(1, len(pts) - 1):
        t0, t1, t2 = pts[i - 1].t, pts[i].t, pts[i + 1].t
        w0 = (t1 - t2) / ((t0 - t1) * (t0 - t2))
        w1 = (2 * t1 - t0 - t2) / ((t1 - t0) * (t1 - t2))
        w2 = (t1 - t0) / ((t2 - t0) * (t2 - t1))
        psi_dot = w0 * pts[i - 1].psi + w1 * pts[i].psi + w2 * pts[i + 1].psi
        expected = s.derivative(t1) * pts[i].u - pts[i].psi
        max_defect = max(max_defect, float(np.linalg.norm(psi_dot - expected)))
        max_dt = max(max_dt, (t2 - t0) / 2.0)
    tol = C_DYN * max_dt**2 * scale + 10.0 * rel_tol * scale
    return DynamicsReport(
        max_defect=max_defect, tol=tol, passed=max_defect <= tol, interior_points=len(pts) - 2
    )
