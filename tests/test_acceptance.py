"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them live). The
runs stay at desk scale; the whole module completes in well under a minute
per criterion.
"""

import dataclasses
import math

import numpy as np
import pytest

import dsmflow as d
from dsmflow.operators import diag_cubic, non_monotone_fixture
from oracles import bisect_root, spectral_pinv_apply

DEFAULT_SCHEDULE = d.power(1.0, 0.25)
DEEP_SCHEDULE = d.exponential(1.0, 0.44)


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def default_runs(stock_problems):
    """All six gallery problems under the default power schedule."""
    runs = {}
    for p in stock_problems:
        cfg = d.IntegratorConfig(t_max=20.0)
        traj = d.integrate(p, DEFAULT_SCHEDULE, np.ones(p.dim), cfg)
        runs[p.name] = (p, traj)
    return runs


def test_criterion_1_analytic_trajectory():
    p = d.make_problem("identity", dim=10)
    u0 = np.ones(10)
    worst = 0.0
    for t_end in (1.0, 2.0, 5.0):
        traj = d.integrate(p, DEFAULT_SCHEDULE, u0, d.IntegratorConfig(t_max=t_end))
        worst = max(worst, float(np.linalg.norm(traj.final.u - math.exp(-t_end) * u0)))
    report(1, "analytic_trajectory", worst <= 1e-6, f"worst deviation {worst:.3e} <= 1e-6")


def test_criterion_2_constant_schedule_residual_law():
    p = d.make_problem("diag_cubic", dim=5)
    cfg = d.IntegratorConfig(t_max=5.0, rel_tol=1e-11, abs_tol=1e-13)
    traj = d.integrate(p, d.constant(0.8), np.zeros(5), cfg)
    h0 = traj.points[0].h
    worst = max(
        abs(pt.h - h0 * math.exp(-pt.t)) / (h0 * math.exp(-pt.t)) for pt in traj.points
    )
    report(2, "constant_residual_law", worst <= 1e-6,
           f"worst relative defect {worst:.3e} <= 1e-6 over {len(traj.points)} points")


def test_criterion_3_distance_bound_certificate(default_runs):
    failures, worst = [], np.inf
    for name, (p, traj) in default_runs.items():
        r = d.check_eq_2_6(traj, p, DEFAULT_SCHEDULE)
        worst = min(worst, r.worst_margin)
        if not r.passed:
            failures.append(name)
    report(3, "eq_2_6_certificate", not failures,
           f"all six problems, worst margin {worst:+.3e}, failures={failures or 'none'}")


def test_criterion_4_cap_envelope_certificate(default_runs):
    failures, worst = [], np.inf
    for name, (p, traj) in default_runs.items():
        r = d.check_eq_2_10(traj, p, DEFAULT_SCHEDULE)
        worst = min(worst, r.worst_margin)
        if not r.passed:
            failures.append(name)
    report(4, "eq_2_10_certificate", not failures,
           f"all six problems, worst margin {worst:+.3e}, failures={failures or 'none'}")


def test_criterion_5_regularized_norm_sweep(stock_problems):
    grid = (10.0, 3.0, 1.0, 0.3, 0.1, 0.03, 0.01, 0.003, 0.001)
    cfg = d.NewtonConfig(tol=1e-12)
    failures = []
    for p in stock_problems:
        sweep = d.lemma_2_1_sweep(p, grid, cfg)
        assert sweep.slack == pytest.approx(1e-11)
        if not sweep.monotone_nondecreasing_in_a:
            failures.append(p.name)
    report(5, "lemma_2_1_sweep", not failures,
           f"a*||w_a|| nondecreasing on all six, slack 1e-11, failures={failures or 'none'}")


def test_criterion_6_well_posed_nonlinear_limit():
    p = diag_cubic(dim=1, rhs=[8.0])
    t_star = math.log(1e3) / 0.44  # a(t_star) = 1e-3
    traj = d.integrate(p, DEEP_SCHEDULE, np.zeros(1), d.IntegratorConfig(t_max=t_star + 0.05))
    flow_err = abs(traj.final.u[0] - 2.0)
    y_ref = bisect_root(lambda w: w**3 - 8.0, 0.0, 3.0)
    cont = d.minimal_norm_limit(p)
    oracle_err = abs(cont.y_estimate[0] - y_ref)
    ok = traj.final.a <= 1e-3 and flow_err <= 1e-3 and oracle_err <= 1e-6
    report(6, "thm_3_1_well_posed", ok,
           f"a_final={traj.final.a:.2e}, |u-2|={flow_err:.2e} <= 1e-3, "
           f"|y_oracle-2|={oracle_err:.2e} <= 1e-6")


def test_criterion_7_minimal_norm_limit():
    p = d.make_problem("psd_rank_deficient", dim=20)
    assert len(p.null_space_basis) == 5  # rank 15
    cfg = d.IntegratorConfig(t_max=32.0, rel_tol=1e-10, abs_tol=1e-12, residual_stop=1e-8)
    traj = d.integrate(p, DEEP_SCHEDULE, np.zeros(20), cfg)
    u_final = traj.final.u
    un = float(np.linalg.norm(u_final))
    worst_ortho = max(abs(np.dot(u_final, z)) for z in p.null_space_basis)
    a_mat = p.jac(np.zeros(20))
    y_pinv = spectral_pinv_apply(a_mat, p.rhs, cutoff=1e-8)
    dist = float(np.linalg.norm(u_final - y_pinv))
    allowed = 1e-3 * (1.0 + float(np.linalg.norm(y_pinv)))
    ok = worst_ortho <= 1e-4 * un and dist <= allowed
    report(7, "thm_3_1_minimal_norm", ok,
           f"max |<u,z>|={worst_ortho:.2e} <= {1e-4 * un:.2e}, "
           f"||u - pinv(A)f||={dist:.2e} <= {allowed:.2e}")


def test_criterion_8_ill_posed_decay():
    p = d.make_problem("fredholm_first_kind", dim=100)
    cfg = d.IntegratorConfig(t_max=33.0, rel_tol=1e-10, abs_tol=1e-12, residual_stop=1e-8)
    traj = d.integrate(p, DEEP_SCHEDULE, np.zeros(100), cfg)
    ratio = traj.final.h / traj.points[0].h
    env = d.check_eq_3_8(traj, residual_stop=cfg.residual_stop)
    cont = d.minimal_norm_limit(p)
    thm = d.check_thm_3_1(traj, p, cont, residual_stop=cfg.residual_stop)
    ok = ratio <= 1e-4 and env.passed and thm.passed and "c_traj" in env.notes
    report(8, "ill_posed_decay", ok,
           f"h_final/h0={ratio:.2e} <= 1e-4, envelope margin {env.worst_margin:+.2e}, "
           f"limit margin {thm.worst_margin:+.2e}")


def test_criterion_9_property_suites(stock_problems):
    failures = []
    for p in stock_problems:
        for seed in range(5):
            if not d.check_monotone(p, seed=seed).passed:
                failures.append((p.name, "monotone", seed))
        rng = np.random.default_rng(42)
        for _ in range(10):
            point = rng.uniform(-2.0, 2.0, p.dim)
            if not d.check_jacobian(p, point).passed:
                failures.append((p.name, "jacobian"))
    fixture_fails = not d.check_monotone(non_monotone_fixture(), seed=0).passed
    ok = not failures and fixture_fails
    report(9, "property_suites", ok,
           f"monotone 200x5 + jacobian x10 on six problems, failures={failures or 'none'}; "
           f"non-monotone fixture rejected={fixture_fails}")


def test_criterion_10_dynamics_defect_convergence():
    p = d.make_problem("identity", dim=4)
    defects = {}
    cfg = d.IntegratorConfig(t_max=4.0, initial_step=0.01, method="rk4")
    full = d.integrate(p, DEFAULT_SCHEDULE, np.ones(4), cfg)
    for stride in (8, 4):
        # Every stride-th step, so the check sees steps of stride * 0.01.
        traj = dataclasses.replace(full, points=full.points[::stride])
        rep = d.residual_dynamics_check(traj, p, DEFAULT_SCHEDULE)
        assert rep.passed
        defects[stride] = rep.max_defect
    ratio = defects[8] / defects[4]
    report(10, "dynamics_defect_convergence", ratio >= 3.5,
           f"defect {defects[8]:.3e} -> {defects[4]:.3e}, ratio {ratio:.2f} >= 3.5")
