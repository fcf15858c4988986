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
from dataclasses import dataclass

import numpy as np

from .errors import ContinuationError, NewtonError
from .linalg import as_count, as_number, as_vector, solve_shifted
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

# Continuation levels a = 1, 1/2, 1/4, ..., 2^-27, the first at or below 1e-8.
_A_LEVELS = tuple(2.0**-k for k in range(28))


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-12
    max_iters: int = 100

    def __post_init__(self):
        if not 0.0 < as_number("tol", self.tol) < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        as_count("max_iters", self.max_iters, 1)


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

    w_init is never written, so it is not copied, and it is returned as
    is when it already meets tol. Nor is it scanned up front: a NaN or Inf
    in it leaves the first residual non-finite, and only then does
    as_vector look for one, so the warm-start loop below, which passes the
    finite array the previous solve returned, pays for neither.
    """
    if not a > 0.0:
        raise ValueError(f"regularization a must be positive, got {a}")
    w = np.asarray(w_init, dtype=float)
    if w.ndim != 1 or w.shape[0] != p.dim:
        raise ValueError(f"w_init has shape {w.shape}, problem expects ({p.dim},)")
    r = p.residual(a, w)
    rn = math.sqrt(r.dot(r))
    if not math.isfinite(rn):
        as_vector(w)
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


def _warm_started(p: OperatorProblem, a_values, cfg: NewtonConfig):
    """Yield w_a for each a in turn, from zeros, each solve warm-started from the last.

    Each w is a fresh array, so a table of them needs no copies. A
    NewtonError propagates for the caller to place; solve_regularized is
    looked up on this module, so a wrapper installed there sees each solve.
    """
    w = np.zeros(p.dim)
    for a in a_values:
        w = solve_regularized(p, a, w, cfg)
        yield w


def w_along_schedule(
    p: OperatorProblem, s: Schedule, times, cfg: NewtonConfig = NewtonConfig()
) -> list[tuple[float, np.ndarray]]:
    """Solve F(w) + a(t) w = f at each time, warm-starting from the last w."""
    times = list(times)
    if any(t < 0.0 for t in times):
        raise ValueError("times must be nonnegative")
    if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("times must be nondecreasing")
    out = []
    try:
        for w in _warm_started(p, map(s.value, times), cfg):
            out.append((times[len(out)], w))
    except NewtonError as err:
        raise NewtonError(
            f"oracle failed at t={times[len(out)]:g}: {err}",
            best=err.best,
            residual_norm=err.residual_norm,
            iterations=err.iterations,
        ) from err
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
    values = [a * math.sqrt(w.dot(w)) for a, w in zip(a_grid, _warm_started(p, a_grid, cfg))]
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

    Solves at the 28 fixed levels of _A_LEVELS, a = 1, 1/2, ..., 2^-27,
    each warm-starting the next. When F(y) = f is solvable the iterates
    converge to its minimal-norm solution; when it is not, ||w_a|| grows
    without bound, which is detected at _DIVERGENCE_NORM and reported as a
    likely-unsolvable diagnostic instead of looping. Convergence is
    declared when the last two levels agree to 1e-6 * (1 + ||w||).
    """
    a_values: list[float] = []
    w_values: list[np.ndarray] = []
    try:
        for a, w in zip(_A_LEVELS, _warm_started(p, _A_LEVELS, cfg)):
            a_values.append(a)
            w_values.append(w)
            if float(np.linalg.norm(w)) > _DIVERGENCE_NORM:
                raise ContinuationError(
                    f"||w_a|| exceeded {_DIVERGENCE_NORM:g} at a={a:g}; "
                    "the equation F(u) = f is likely unsolvable",
                    partial=ContinuationResult(a_values, w_values, w, converged=False),
                )
    except NewtonError as err:
        raise ContinuationError(
            f"continuation failed at a={_A_LEVELS[len(a_values)]:g}: {err}",
            partial=ContinuationResult(a_values, w_values, err.best, converged=False),
        ) from err
    converged = np.linalg.norm(w - w_values[-2]) <= 1e-6 * (1.0 + np.linalg.norm(w))
    return ContinuationResult(a_values, w_values, w, converged=bool(converged))
