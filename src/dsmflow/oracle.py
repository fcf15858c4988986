"""Damped-Newton solver for the static regularized equation F(w) + a w = f.

For monotone F and a > 0 the shifted operator is strongly monotone, so the
equation has exactly one solution w_a and Newton's method with residual
backtracking is globally reliable. This module provides:

  * solve_regularized      one solve at fixed a
  * w_along_schedule       w(t) at given times, warm-started in t
  * lemma_2_1_sweep        monotonicity of a * ||w_a|| over an a-grid
  * minimal_norm_limit     continuation a -> 0 toward the minimal-norm
                           solution y of F(y) = f

The continuation is the independent oracle against which the flow's limit
is certified: it never touches the integrator.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ContinuationError, NewtonError
from .linalg import as_vector, solve_shifted
from .operators import OperatorProblem
from .schedules import Schedule

# Armijo backtracking on the residual norm: halve until the decrease test
# holds, give up below the minimal step.
_BACKTRACK_FACTOR = 0.5
_MIN_STEP = 2.0**-30
_SUFFICIENT_DECREASE = 1e-4

# ||w_a|| beyond this is read as "f is not attainable and the continuation
# is diverging" rather than ground for more iterations.
_DIVERGENCE_NORM = 1e6

# Continuation levels a = 1, 1/2, 1/4, ... down to the first at or below 1e-8.
_A_START = 1.0
_A_FACTOR = 0.5
_A_FLOOR = 1e-8


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-12
    max_iters: int = 100

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NewtonConfig":
        return cls(**d)


@dataclass(eq=False)
class ContinuationResult:
    a_values: list[float]
    w_values: list[np.ndarray]
    y_estimate: np.ndarray
    converged: bool


def solve_regularized(
    p: OperatorProblem, a: float, w_init, cfg: NewtonConfig = NewtonConfig()
) -> np.ndarray:
    """Solve F(w) + a w = f to residual norm <= cfg.tol by damped Newton.

    Each step solves (F'(w) + a I) delta = -(F(w) + a w - f) and
    backtracks on the residual norm, so the residual decreases monotonically.
    Exhausting max_iters or the line search raises NewtonError carrying the
    best iterate and the Newton iterations taken, the stalled one included;
    that usually means tol is too tight for the problem's conditioning.
    """
    if not a > 0.0:
        raise ValueError(f"regularization a must be positive, got {a}")
    w = as_vector(w_init).copy()
    if w.shape[0] != p.dim:
        raise ValueError(f"w_init has dimension {w.shape[0]}, problem expects {p.dim}")
    r = p.residual(a, w)
    rn = math.sqrt(r.dot(r))
    for it in range(cfg.max_iters):
        if rn <= cfg.tol:
            return w
        delta = solve_shifted(p.jac(w), a, -r)
        lam = 1.0
        while True:
            w_trial = w + lam * delta
            r_trial = p.residual(a, w_trial)
            rn_trial = math.sqrt(r_trial.dot(r_trial))
            if math.isfinite(rn_trial) and rn_trial <= (1.0 - _SUFFICIENT_DECREASE * lam) * rn:
                break
            lam *= _BACKTRACK_FACTOR
            if lam < _MIN_STEP:
                raise NewtonError(
                    f"line search stalled at a={a:g} with residual {rn:.3e}",
                    best=w,
                    residual_norm=rn,
                    iterations=it + 1,
                )
        w, r, rn = w_trial, r_trial, rn_trial
    if rn <= cfg.tol:
        return w
    raise NewtonError(
        f"no convergence in {cfg.max_iters} iterations at a={a:g}; residual {rn:.3e}",
        best=w,
        residual_norm=rn,
        iterations=cfg.max_iters,
    )


def w_along_schedule(
    p: OperatorProblem, s: Schedule, times, cfg: NewtonConfig = NewtonConfig()
) -> list[tuple[float, np.ndarray]]:
    """Solve F(w) + a(t) w = f at each time, warm-starting from the last w."""
    times = list(times)
    if any(t < 0.0 for t in times):
        raise ValueError("times must be nonnegative")
    if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("times must be nondecreasing")
    w = np.zeros(p.dim)
    out = []
    for t in times:
        try:
            # A fresh array each time, so the table needs no copies.
            w = solve_regularized(p, s.value(t), w, cfg)
        except NewtonError as err:
            raise NewtonError(
                f"oracle failed at t={t:g}: {err}",
                best=err.best,
                residual_norm=err.residual_norm,
                iterations=err.iterations,
            ) from err
        out.append((t, w))
    return out


@dataclass(frozen=True)
class SweepReport:
    a_grid: list[float]
    values: list[float]  # a * ||w_a||, aligned with a_grid
    monotone_nondecreasing_in_a: bool
    slack: float


def lemma_2_1_sweep(
    p: OperatorProblem, a_grid, cfg: NewtonConfig = NewtonConfig()
) -> SweepReport:
    """Check that a * ||w_a|| is nondecreasing in a over a decreasing grid.

    The grid is traversed from large a to small with warm starts. The
    sequence read in increasing-a order must be nondecreasing within slack
    10 * cfg.tol (the Newton residual bounds a * ||w error||).
    """
    a_grid = [float(a) for a in a_grid]
    if len(a_grid) < 2:
        raise ValueError("need at least two grid values")
    if any(a <= 0.0 for a in a_grid):
        raise ValueError("grid values must be positive")
    if any(a2 >= a1 for a1, a2 in zip(a_grid, a_grid[1:])):
        raise ValueError("grid must be strictly decreasing")
    w = np.zeros(p.dim)
    values = []
    for a in a_grid:
        w = solve_regularized(p, a, w, cfg)
        values.append(a * math.sqrt(w.dot(w)))
    slack = 10.0 * cfg.tol
    increasing_order = values[::-1]
    monotone = all(
        v2 >= v1 - slack for v1, v2 in zip(increasing_order, increasing_order[1:])
    )
    return SweepReport(
        a_grid=a_grid, values=values, monotone_nondecreasing_in_a=monotone, slack=slack
    )


def minimal_norm_limit(
    p: OperatorProblem, cfg: NewtonConfig = NewtonConfig()
) -> ContinuationResult:
    """Drive a -> 0 geometrically and return the limit of w_a.

    Solves at the fixed levels a = 1, 1/2, 1/4, ... down to 2^-27, the
    first at or below 1e-8: 28 levels, each warm-starting the next. When
    F(y) = f is solvable the iterates converge to its minimal-norm
    solution; when it is not, ||w_a|| grows without bound, which is
    detected at _DIVERGENCE_NORM and reported as a likely-unsolvable
    diagnostic instead of looping. Convergence is declared when the last
    two levels agree to 1e-6 * (1 + ||w||).
    """
    a_values: list[float] = []
    w_values: list[np.ndarray] = []
    w = np.zeros(p.dim)
    a = _A_START
    while True:
        try:
            w = solve_regularized(p, a, w, cfg)
        except NewtonError as err:
            partial = ContinuationResult(
                a_values=a_values,
                w_values=w_values,
                y_estimate=err.best,
                converged=False,
            )
            raise ContinuationError(
                f"continuation failed at a={a:g}: {err}", partial=partial
            ) from err
        a_values.append(a)
        w_values.append(w.copy())
        if float(np.linalg.norm(w)) > _DIVERGENCE_NORM:
            partial = ContinuationResult(
                a_values=a_values, w_values=w_values, y_estimate=w.copy(), converged=False
            )
            raise ContinuationError(
                f"||w_a|| exceeded {_DIVERGENCE_NORM:g} at a={a:g}; "
                "the equation F(u) = f is likely unsolvable",
                partial=partial,
            )
        if a <= _A_FLOOR:
            break
        a *= _A_FACTOR
    converged = False
    if len(w_values) >= 2:
        diff = float(np.linalg.norm(w_values[-1] - w_values[-2]))
        converged = diff <= 1e-6 * (1.0 + float(np.linalg.norm(w_values[-1])))
    return ContinuationResult(
        a_values=a_values, w_values=w_values, y_estimate=w_values[-1].copy(), converged=converged
    )
