"""Small independent oracles used to freeze expected values in tests.

These deliberately avoid the library's own solvers: bisection for scalar
roots, the adjugate formula for 2x2 inverses, an eigendecomposition
pseudoinverse for small symmetric matrices, the textbook dense shifted
solve, adaptive quadrature and a one-node-at-a-time Simpson rule for the
certificate envelopes, the two separate dp54 and rk4 stepping loops that
the single loop in dsmflow.flow.integrate replaced, the dp54 step that
built each stage as a Python sum over a list, the bound sequence of
`dsmflow verify` that dsmflow.verify.certify replaced, and the plain
warm-started loop of oracle solves that the oracle's entry points share.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.integrate import quad, simpson

from dsmflow.errors import LinearSolveError, NewtonError
from dsmflow.flow import (
    _A,
    _C,
    _E,
    _FAC_MAX,
    _FAC_MIN,
    _PI_ALPHA,
    _PI_BETA,
    _SAFETY,
    TERMINATED_MAX_STEPS,
    TERMINATED_RESIDUAL,
    TERMINATED_STEP_FAILURE,
    TERMINATED_TMAX,
    Trajectory,
    _make_point,
    rhs,
)
from dsmflow.linalg import DENSE, as_vector
from dsmflow.oracle import lemma_2_1_sweep, minimal_norm_limit, solve_regularized
from dsmflow.schedules import check_admissible
from dsmflow.verify import (
    EPS_Y_OVERRIDES,
    LEMMA_GRID,
    SLACK,
    BoundReport,
    check_eq_2_6,
    check_eq_3_8,
    check_thm_3_1,
)


def bisect_root(g, lo, hi, tol=1e-12):
    """Root of a scalar function by plain bisection; g(lo), g(hi) must bracket."""
    glo, ghi = g(lo), g(hi)
    assert glo * ghi <= 0.0, "bisection bracket does not straddle a root"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if glo * gm <= 0.0:
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def inverse_2x2(m):
    """Adjugate-formula inverse of a 2x2 matrix."""
    (a, b), (c, dd) = m
    det = a * dd - b * c
    assert det != 0.0
    return np.array([[dd, -b], [-c, a]]) / det


def spectral_pinv_apply(a_mat, rhs, cutoff=1e-10):
    """Minimal-norm least-squares solution via an explicit eigendecomposition.

    Only for symmetric matrices: invert eigenvalues above cutoff, zero the
    rest.
    """
    lam, q = np.linalg.eigh(a_mat)
    inv = np.where(np.abs(lam) > cutoff, 1.0 / np.where(lam == 0.0, 1.0, lam), 0.0)
    return q @ (inv * (q.T @ rhs))


def dense_shifted_solve(j, a, b):
    """np.linalg.solve(J + a*I, b) with an explicit identity matrix.

    The formula solve_shifted must reproduce bit for bit.
    """
    j = np.asarray(j, dtype=float)
    return np.linalg.solve(j + a * np.eye(j.shape[0]), np.asarray(b, dtype=float))


def simpson_integral(f, t, panels=200):
    """Composite Simpson of a scalar f over [0, t], calling f node by node.

    The tests' reference for EQ_2_8's envelope with ||w|| linearly
    interpolated between oracle solves, whose kinks adaptive quadrature
    handles poorly; 0 for t <= 0.
    """
    if t <= 0.0:
        return 0.0
    xs = np.linspace(0.0, t, panels + 1)
    ys = np.array([f(x) for x in xs])
    return float(simpson(ys, x=xs))


def envelope_integral(s, t, rate):
    """int_0^t e^{rate (x - t)} |a'(x)| dx by adaptive quadrature; 0 for t <= 0.

    The reference for the cell recursion behind the EQ_2_8 and EQ_3_8
    envelopes, good to about 1e-15 relative on the smooth integrands of
    the three schedules.
    """
    if t <= 0.0:
        return 0.0
    value, _ = quad(
        lambda x: math.exp(rate * (x - t)) * abs(s.derivative(x)),
        0.0,
        t,
        epsabs=0.0,
        epsrel=1e-13,
        limit=200,
    )
    return value


def reference_integrate(p, s, u0, cfg):
    """integrate() as two loops, one per method, after its argument checks.

    The trajectories integrate must reproduce bit for bit, except where a
    dp54 trial stage fails its shifted solve: there this raises, and
    integrate rejects the step. Like integrate, the dp54 loop solves with the
    Jacobian structure p states, and the rk4 loop with a "dense" copy of p.
    """
    u0 = as_vector(u0)
    if cfg.method == "rk4":
        return _integrate_rk4(replace(p, jacobian_structure=DENSE), s, u0, cfg)
    return _integrate_dp54(p, s, u0, cfg)


def _integrate_dp54(p, s, u0, cfg) -> Trajectory:
    t, u = 0.0, u0.copy()
    pt = _make_point(p, s, t, u)
    traj = Trajectory(s, [pt])
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

        k = np.empty((7, u.shape[0]))
        k[0] = k1
        for i in range(1, 7):
            ui = u + h * (_A[i] @ k[:i])
            k[i] = f(t + _C[i] * h, ui)
        # FSAL: the last row of _A is the 5th-order weights, so the 7th
        # stage sits at (t + h, u_new).
        u_new = ui
        err_vec = h * (_E @ k)

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


# The 5th-order weights of the DP5(4) pair, padded for the 7th stage.
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])


def generator_sum_dp54_step(p, s, t, u, u_norm, h, k1, cfg):
    """flow._dp54_step as it was, each stage a Python sum over a list.

    Same contract as flow._dp54_step; u_new is recomputed from the 5th-order
    weights rather than taken from the 7th stage's state, so trajectories
    differ from the stage-array step in the last bits only. Both norms are
    computed here, the carried u_norm is not used.
    """
    k = [k1]
    for i in range(1, 7):
        ui = u + h * sum(aij * kj for aij, kj in zip(_A[i], k))
        try:
            k.append(rhs(p, s, t + _C[i] * h, ui))
        except LinearSolveError:
            return None, np.inf, None, None
    u_new = u + h * sum(b * kj for b, kj in zip(_B5, k))
    if not np.all(np.isfinite(u_new)):
        return None, np.inf, None, None
    err_vec = h * sum(e * kj for e, kj in zip(_E, k))
    norm_new = np.linalg.norm(u_new)
    tol = cfg.rel_tol * max(np.linalg.norm(u), norm_new) + cfg.abs_tol
    return u_new, np.linalg.norm(err_vec) / tol, k[6], norm_new


def _integrate_rk4(p, s, u0, cfg) -> Trajectory:
    """Fixed-step classical RK4 with step initial_step (t_max split evenly)."""
    u = u0.copy()
    pt = _make_point(p, s, 0.0, u)
    traj = Trajectory(s, [pt])
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


def reference_certify(traj, p, s, cfg, residual_stop):
    """The bound sequence of `dsmflow verify` before certify, kept verbatim.

    EQ_2_10 and the cap term are solved separately, as the CLI did, and
    EQ_2_10 and LEMMA_2_1 are built by their old bodies. Returns
    (reports, cap_term, continuation) like certify.
    """
    eps_y = EPS_Y_OVERRIDES.get(p.name, 1e-2)
    reports = []
    continuation = None
    reports.append(check_eq_2_6(traj, p, s, cfg))
    reports.append(_reference_eq_2_10(traj, p, s, cfg))
    reports.append(check_eq_3_8(traj, residual_stop=residual_stop))
    if check_admissible(s, horizon=traj.final.t + 1.0).pass_3_3:
        continuation = minimal_norm_limit(p, cfg=cfg)
        reports.append(
            check_thm_3_1(traj, p, continuation, residual_stop=residual_stop, eps_y_rel=eps_y)
        )
    reports.append(_reference_lemma_report(p, cfg))
    w_cap = solve_regularized(p, s.cap, np.zeros(p.dim), cfg)
    cap_term = s.cap * float(np.linalg.norm(w_cap))
    return reports, cap_term, continuation


def _reference_eq_2_10(traj, p, s, cfg):
    w_cap = solve_regularized(p, s.cap, np.zeros(p.dim), cfg)
    cap_term = s.cap * float(np.linalg.norm(w_cap))
    h0 = traj.points[0].h
    times = [pt.t for pt in traj.points]
    margins = []
    for pt in traj.points:
        decay = math.exp(-pt.t / 2.0)
        rhs_bound = h0 * decay + (1.0 - decay) * cap_term
        margins.append((rhs_bound - pt.h) / (1.0 + rhs_bound))
    idx = int(np.argmin(margins))
    worst, worst_t = float(margins[idx]), float(times[idx])
    return BoundReport(
        bound_id="EQ_2_10",
        passed=worst >= -SLACK["EQ_2_10"],
        worst_margin=worst,
        worst_t=worst_t,
        checkpoints=len(times),
        notes=f"C={s.cap:.6g}, C*||w_C||={cap_term:.6g}; margin=(rhs-h)/(1+rhs)",
    )


def _reference_lemma_report(p, cfg):
    sweep = lemma_2_1_sweep(p, LEMMA_GRID, cfg)
    increasing = sweep.values[::-1]
    increments = [v2 - v1 for v1, v2 in zip(increasing, increasing[1:])]
    worst = min(increments) + sweep.slack
    grid_increasing = list(sweep.a_grid[::-1])
    worst_a = grid_increasing[1 + int(np.argmin(increments))]
    return BoundReport(
        bound_id="LEMMA_2_1",
        passed=sweep.monotone_nondecreasing_in_a,
        worst_margin=worst,
        worst_t=worst_a,
        checkpoints=len(sweep.a_grid),
        notes=(
            "a*||w_a|| nondecreasing in a over grid "
            f"{list(sweep.a_grid)}; margin = min increment + slack {sweep.slack:g}; "
            "worst_t is the a-value at the worst increment"
        ),
    )


def warm_started_solves(p, a_values, cfg):
    """solve_regularized at each a in turn, warm-started from the last w.

    The first solve starts from zeros. Returns (ws, err): the solutions
    before the first NewtonError, and that error, or None when every solve
    converged. The loop w_along_schedule, lemma_2_1_sweep and
    minimal_norm_limit must reproduce bit for bit.
    """
    ws, w = [], np.zeros(p.dim)
    for a in a_values:
        try:
            w = solve_regularized(p, a, w, cfg)
        except NewtonError as err:
            return ws, err
        ws.append(w)
    return ws, None
