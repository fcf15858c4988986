"""Certification of the flow's residual and tracking bounds.

Each check compares a computed trajectory against an inequality that holds
for the exact flow, with an explicit slack absorbing integrator and oracle
error. Reports carry the worst normalized margin so a pass is auditable:
pass holds iff worst_margin >= -slack(bound_id).

  EQ_2_6   ||u(t) - w(t)|| <= h(t)/a(t) at every checkpoint, where w(t)
           solves F(w) + a(t) w = f. Margin normalized by 1 + RHS,
           slack 1e-8.
  EQ_2_8   h(t) <= h(0) e^{-t/2} + int_0^t e^{(s-t)/2} |a'(s)| ||w(s)|| ds,
           with w(s) from the oracle at the recorded times, integrated
           as a lower sum (below). Margin normalized by the envelope,
           slack 1e-2.
  EQ_2_10  h(t) <= h(0) e^{-t/2} + (1 - e^{-t/2}) * C ||w_C||, where w_C
           solves the static equation at the schedule cap C. Margin
           normalized by 1 + RHS, slack 1e-6.
  EQ_3_8   residual vanishing: the final h must fall below
           max(residual_stop, 1e-2 h(0)), and pointwise
           h(t) <= h(0) e^{-t} + c_traj * int_0^t e^{s-t} |a'(s)| ds with
           c_traj = max recorded ||u|| (the state-norm factor the bare
           integral envelope omits). Margin normalized by the envelope,
           slack 1e-2.
  THM_3_1  limit identification: ||F(u_final) - f|| below
           max(1e3 * residual_stop, 1e-6 (1 + ||f||)) and
           ||u_final - y|| <= 1e-2 (1 + ||y||), for every problem, against
           the continuation oracle's y. Slack 0 (tolerances already explicit).
  LEMMA_2_1 a ||w_a|| nondecreasing in a over LEMMA_GRID: margin is each
           increment plus the sweep's slack 10 * tol, worst_t the a at the
           worst one. Slack 0.

certify runs every bound but EQ_2_8 on one trajectory, in that order, and
is the pipeline behind `dsmflow verify`; run over configs/*.json, which
hold every gallery problem, it certifies the whole gallery.

EQ_2_8 and EQ_3_8 share one envelope, h(0) e^{-r t} plus
int_0^t e^{r(s-t)} |a'(s)| weight(s) ds with r = 1/2 and r = 1, built by
_envelope in one pass over the recorded times t_j: E_0 = h(0),
E_{j+1} = e^{-r (t_{j+1} - t_j)} E_j + weight_j C_j, with the cell
integral C_j = int_{t_j}^{t_{j+1}} e^{r(s - t_{j+1})} |a'(s)| ds from
Schedule.cell_integral: exact for the exponential schedule (0 at rate
0, a constant schedule), composite Simpson for the power schedule.

EQ_3_8's weight is the constant c_traj. EQ_2_8's is a lower sum:
||w_a|| is nonincreasing in a for monotone F (Ramm, Dynamical Systems
Method for Solving Operator Equations, 2007), so ||w(t)|| is
nondecreasing along a nonincreasing schedule, and on each cell it is at
least L_j = max(0, ||w_j|| - tol/a(t_j)): the oracle's residual tol bounds
its error in w by tol/a. The envelope with weight L_j stays below (2.8)'s
at every t_j, so passing it implies (2.8). A table whose norms fall
by more than the oracle's error allows contradicts monotonicity, and the
lower sum is then no bound: EQ_2_8 fails.

Every check reads the schedule that drove the trajectory from it
(Trajectory.schedule); where a check still takes one as s (and the flow's
residual_dynamics_check), s must be traj.schedule, else ValueError.

EQ_2_6 and EQ_2_8 read one table of w at the recorded times, one
warm-started oracle solve a point, that _w_table keeps on the frozen
trajectory (Trajectory.w_tables) per (problem object, NewtonConfig).
The memo keeps ||u - w|| at every point too, read by distances_to_w for
EQ_2_6 and for the dist_to_w column of trajectory.csv.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import oracle
from .flow import TERMINATED_RESIDUAL, UNFINISHED, Trajectory
from .linalg import norm
from .operators import OperatorProblem
from .oracle import ContinuationResult, NewtonConfig, solve_regularized, w_along_schedule
from .schedules import Schedule, check_admissible

SLACK = {
    "EQ_2_6": 1e-8,
    "EQ_2_8": 1e-2,
    "EQ_2_10": 1e-6,
    "EQ_3_8": 1e-2,
    "THM_3_1": 0.0,
    "LEMMA_2_1": 0.0,
}

# THM_3_1 requires the regularizer to have genuinely decayed.
_A_FINAL_MAX = 1e-3

# Standard grid for the LEMMA_2_1 a * ||w_a|| monotonicity sweep.
LEMMA_GRID = (10.0, 3.0, 1.0, 0.3, 0.1, 0.03, 0.01, 0.003, 0.001)


@dataclass(frozen=True)
class BoundReport:
    bound_id: str
    passed: bool
    worst_margin: float
    worst_t: float
    checkpoints: int
    notes: str

    def to_dict(self) -> dict:
        """The fields in order, passed under the key "pass"."""
        return {("pass" if k == "passed" else k): v for k, v in asdict(self).items()}


def _report(bound_id: str, margins, times, checkpoints: int, notes: str) -> BoundReport:
    """Report the worst margin and its time; a NaN margin is the worst and fails."""
    idx = int(np.argmin(margins))
    worst = float(margins[idx])
    return BoundReport(
        bound_id, worst >= -SLACK[bound_id], worst, float(times[idx]), checkpoints, notes
    )


def _envelope(s: Schedule, times, h0: float, weights, rate: float) -> list[float]:
    """h0 e^{-rate t} + int_0^t e^{rate (x - t)} |a'(x)| weight(x) dx at every time.

    weight is the step function weights[j] on [t_j, t_{j+1}], and the sum
    is the one-pass recursion of the module docstring.
    """
    envelope = [h0]
    for t0, t1, weight in zip(times, times[1:], weights):
        term = weight * s.cell_integral(t0, t1, rate)
        envelope.append(math.exp(-rate * (t1 - t0)) * envelope[-1] + term)
    return envelope


def _w_table(traj: Trajectory, p: OperatorProblem, cfg: NewtonConfig):
    """((t, w) list, ||u - w|| tuple) at traj's recorded times, once per (p, cfg): p by identity."""
    key = (p, cfg)
    if key not in traj.w_tables:
        ws = w_along_schedule(p, traj.schedule, [pt.t for pt in traj.points], cfg)
        traj.w_tables[key] = ws, tuple(norm(pt.u - w) for pt, (_, w) in zip(traj.points, ws))
    return traj.w_tables[key]


def distances_to_w(traj: Trajectory, p: OperatorProblem, cfg: NewtonConfig) -> tuple[float, ...]:
    """||u - w|| at every recorded point, kept with the shared table (_w_table)."""
    return _w_table(traj, p, cfg)[1]


def check_eq_2_6(
    traj: Trajectory, p: OperatorProblem, s: Schedule, cfg: NewtonConfig = NewtonConfig()
) -> BoundReport:
    """Distance-to-regularized-solution bound ||u - w|| <= h/a per checkpoint."""
    traj.require_schedule(s)
    times = [pt.t for pt in traj.points]
    margins = []
    for pt, lhs in zip(traj.points, distances_to_w(traj, p, cfg)):
        rhs_bound = pt.h / pt.a
        margins.append((rhs_bound - lhs) / (1.0 + rhs_bound))
    return _report(
        "EQ_2_6", margins, times, len(times), "lhs=||u-w||, rhs=h/a; margin=(rhs-lhs)/(1+rhs)"
    )


def cap_term(p: OperatorProblem, s: Schedule, cfg: NewtonConfig) -> float:
    """C ||w_C||, where w_C solves F(w) + C w = f at the schedule cap C."""
    w_cap = solve_regularized(p, s.cap, np.zeros(p.dim), cfg)
    return s.cap * norm(w_cap)


def cap_envelope(h0: float, t: float, cap: float) -> float:
    """EQ_2_10's right-hand side h0 e^{-t/2} + (1 - e^{-t/2}) cap, with cap = C ||w_C||."""
    decay = math.exp(-t / 2.0)
    return h0 * decay + (1.0 - decay) * cap


def check_eq_2_10(
    traj: Trajectory, p: OperatorProblem, s: Schedule, cfg: NewtonConfig = NewtonConfig()
) -> BoundReport:
    """Cap envelope h(t) <= h(0) e^{-t/2} + (1 - e^{-t/2}) C ||w_C||."""
    traj.require_schedule(s)
    return _eq_2_10(traj, cap_term(p, s, cfg))


def _eq_2_10(traj: Trajectory, cap: float) -> BoundReport:
    """EQ_2_10 with C ||w_C|| solved; an inadmissible schedule is a ValueError."""
    report = check_admissible(traj.schedule, horizon=max(traj.final.t, 1.0))
    if not report.pass_2_2:
        raise ValueError(report.reason)
    h0 = traj.points[0].h
    times = [pt.t for pt in traj.points]
    margins = []
    for pt in traj.points:
        rhs_bound = cap_envelope(h0, pt.t, cap)
        margins.append((rhs_bound - pt.h) / (1.0 + rhs_bound))
    notes = f"C={traj.schedule.cap:.6g}, C*||w_C||={cap:.6g}; margin=(rhs-h)/(1+rhs)"
    return _report("EQ_2_10", margins, times, len(times), notes)


def check_eq_2_8(
    traj: Trajectory, p: OperatorProblem, cfg: NewtonConfig = NewtonConfig()
) -> BoundReport:
    """Oracle-weighted envelope with integrand e^{(s-t)/2} |a'(s)| ||w(s)||.

    Reads w at every recorded time from the trajectory's shared table
    (_w_table: one oracle solve a point, none if EQ_2_6 already solved it)
    and checks h at each one against the lower sum of the module
    docstring. Fails, with margin -1 at the first offending time, when the
    table's ||w|| falls by more than the oracle's error tol/a allows,
    because the lower sum is then no bound.
    """
    times = [pt.t for pt in traj.points]
    ws, _ = _w_table(traj, p, cfg)
    norms = np.array([norm(w) for _, w in ws])
    err = cfg.tol / np.array([pt.a for pt in traj.points])
    notes = (
        "envelope h0*e^(-t/2) + lower sum of int e^((s-t)/2)|a'| ||w(s)|| ds; "
        "margin=(env-h)/env"
    )
    falls = np.flatnonzero(norms[1:] < norms[:-1] - err[:-1] - err[1:])
    if falls.size:
        j = int(falls[0])
        notes = (
            f"cannot certify: ||w|| falls from {norms[j]:.6g} at t={times[j]:g} "
            f"to {norms[j + 1]:.6g} at t={times[j + 1]:g}; " + notes
        )
        return _report("EQ_2_8", [-1.0], [times[j + 1]], len(times), notes)
    lower = np.maximum(norms[:-1] - err[:-1], 0.0)
    envelope = _envelope(traj.schedule, times, traj.points[0].h, lower, 0.5)
    margins = [(e - pt.h) / max(e, 1e-30) for pt, e in zip(traj.points, envelope)]
    return _report("EQ_2_8", margins, times, len(times), notes)


def check_eq_3_8(traj: Trajectory, residual_stop: float) -> BoundReport:
    """Residual vanishing plus the closed-form decay envelope.

    The integral term is scaled by c_traj = max recorded ||u(t)||: the bare
    envelope h(0)e^{-t} + int e^{s-t} |a'(s)| ds omits the state-norm
    factor of the underlying differential inequality, so it is restored
    here explicitly (noted in every report). The envelope at every
    checkpoint is the cell recursion of the module docstring at rate 1,
    with the constant weight c_traj.
    """
    notes = "envelope h0*e^(-t) + c_traj*int e^(s-t)|a'(s)| ds; integral term scaled by c_traj=max ||u||"
    if traj.terminated_by in UNFINISHED:
        notes = f"cannot certify: terminated_by={traj.terminated_by}; " + notes
        return _report("EQ_3_8", [-1.0], [traj.final.t], len(traj.points), notes)
    h0 = traj.points[0].h
    c_traj = max(norm(pt.u) for pt in traj.points)
    times = [pt.t for pt in traj.points]
    envelope = _envelope(traj.schedule, times, h0, itertools.repeat(c_traj), 1.0)
    margins = [(e - pt.h) / max(e, 1e-30) for pt, e in zip(traj.points, envelope)]
    h_final = traj.final.h
    allowed_final = max(residual_stop, 1e-2 * h0)
    margins.append((allowed_final - h_final) / max(allowed_final, 1e-30))
    notes = f"c_traj={c_traj:.6g}, final h={h_final:.3e} vs {allowed_final:.3e}; " + notes
    return _report("EQ_3_8", margins, times + [traj.final.t], len(times), notes)


def check_thm_3_1(
    traj: Trajectory,
    p: OperatorProblem,
    oracle_y: ContinuationResult,
    residual_stop: float,
    eps_y_rel: float = 1e-2,
) -> BoundReport:
    """Limit identification: u(final) solves F(u) = f and matches the
    continuation oracle's minimal-norm estimate.

    Requires a run that terminated by residual_stop or t_max with the
    regularizer already below 1e-3; anything else cannot witness the
    t -> infinity limit and is reported as a failure, not an exception.
    Exception to the a-condition: a residual_stop exit with the final h at
    or below the stop threshold is accepted at any a, because the solution
    residual ||F(u) - f|| is then checked directly anyway (a start at the
    regularized solution stops at t = 0 with a(0) = a0). The notes split
    ||F(u) - f|| <= h(T) + a(T) ||u(T)|| (as F(u) - f = psi - a u) and order
    the two terms: the flow's lag behind w_a(T), and the horizon's bias.
    """
    base = f"eps_y_rel={eps_y_rel:g}; margins=(allowed-actual)/(1+allowed)"
    stationary = traj.terminated_by == TERMINATED_RESIDUAL and traj.final.h <= residual_stop
    if traj.terminated_by in UNFINISHED or (
        traj.final.a > _A_FINAL_MAX and not stationary
    ):
        notes = (
            f"cannot certify: terminated_by={traj.terminated_by}, "
            f"a_final={traj.final.a:.3e} (need <= {_A_FINAL_MAX:g}); " + base
        )
        return _report("THM_3_1", [-1.0], [traj.final.t], len(traj.points), notes)
    u_final = traj.final.u
    res_sol = norm(p.fun(u_final) - p.rhs)
    eps_sol = max(1e3 * residual_stop, 1e-6 * (1.0 + norm(p.rhs)))
    y = oracle_y.y_estimate
    dist_y = norm(u_final - y)
    eps_y = eps_y_rel * (1.0 + norm(y))
    margins = [
        (eps_sol - res_sol) / (1.0 + eps_sol),
        (eps_y - dist_y) / (1.0 + eps_y),
    ]
    bias = traj.final.a * norm(u_final)
    notes = (
        f"||F(u)-f||={res_sol:.3e} (allowed {eps_sol:.3e}) <= h(T) + a(T)||u(T)||, "
        f"h(T)={traj.final.h:.3e} {'>=' if traj.final.h >= bias else '<'} a(T)||u(T)||={bias:.3e}; "
        f"||u-y||={dist_y:.3e} (allowed {eps_y:.3e}); " + base
    )
    return _report("THM_3_1", margins, [traj.final.t] * 2, len(traj.points), notes)


def _lemma_report(p: OperatorProblem, cfg: NewtonConfig) -> BoundReport:
    """LEMMA_2_1 over LEMMA_GRID, its increments taken in increasing-a order."""
    sweep = oracle.lemma_2_1_sweep(p, LEMMA_GRID, cfg)
    increasing = sweep.values[::-1]
    margins = [v2 - v1 + sweep.slack for v1, v2 in zip(increasing, increasing[1:])]
    notes = (
        "a*||w_a|| nondecreasing in a over grid "
        f"{list(sweep.a_grid)}; margin = min increment + slack {sweep.slack:g}; "
        "worst_t is the a-value at the worst increment"
    )
    return _report("LEMMA_2_1", margins, sweep.a_grid[::-1][1:], len(sweep.a_grid), notes)


def certify(
    traj: Trajectory, p: OperatorProblem, cfg: NewtonConfig, residual_stop: float
) -> tuple[list[BoundReport], float, ContinuationResult | None]:
    """EQ_2_6, EQ_2_10, EQ_3_8, THM_3_1 and LEMMA_2_1 on one trajectory, in order.

    THM_3_1 runs only when traj.schedule decays to zero (its limit needs
    a -> 0). Returns (reports, C ||w_C||, continuation): the cap term is
    solved once, and continuation is None when THM_3_1 is skipped. Oracle
    failures (NewtonError, ContinuationError, LinearSolveError) propagate.
    minimal_norm_limit and lemma_2_1_sweep are looked up on the oracle
    module at each call, so a wrapper installed there sees them.
    """
    s = traj.schedule
    reports = [check_eq_2_6(traj, p, s, cfg)]
    cap = cap_term(p, s, cfg)
    reports.append(_eq_2_10(traj, cap))
    reports.append(check_eq_3_8(traj, residual_stop=residual_stop))
    continuation = None
    if s.decays_to_zero():
        continuation = oracle.minimal_norm_limit(p, cfg=cfg)
        reports.append(check_thm_3_1(traj, p, continuation, residual_stop=residual_stop))
    reports.append(_lemma_report(p, cfg))
    return reports, cap, continuation
