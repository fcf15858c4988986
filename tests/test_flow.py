import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsmflow as d
import dsmflow.flow
from dsmflow.errors import InadmissibleScheduleError, LinearSolveError
from dsmflow.flow import _C, _FAC_MIN, TERMINATED_MAX_STEPS, TERMINATED_STEP_FAILURE
from dsmflow.linalg import DENSE, DIAGONAL, SYMMETRIC_CONSTANT
from dsmflow.operators import GALLERY_NAMES, OperatorProblem, diag_cubic, identity

from oracles import generator_sum_dp54_step, reference_integrate
from problems import componentwise_monotone_problem, monotone_problem, psd_linear_problem, psd_plus_skew


def test_rhs_identity_scalar():
    # F = I, f = 0, a = 1: direction -(1+1)^{-1} (u + u) = -u.
    p = d.make_problem("identity", dim=1)
    s = d.constant(1.0)
    np.testing.assert_allclose(d.rhs(p, s, 0.0, np.array([4.0])), [-4.0], rtol=1e-14)


def test_rhs_identity_any_schedule_cancels():
    p = d.make_problem("identity", dim=3)
    s = d.power(1.0, 0.25)
    u = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(d.rhs(p, s, 3.0, u), -u, rtol=1e-13)


def test_rhs_vanishes_at_regularized_solution():
    p = identity(dim=2, rhs=[1.0, 2.0])
    s = d.constant(0.5)
    u = p.rhs / 1.5
    np.testing.assert_allclose(d.rhs(p, s, 1.0, u), 0.0, atol=1e-12)


def test_identity_flow_matches_exponential_decay():
    p = d.make_problem("identity", dim=1)
    traj = d.integrate(p, d.power(1.0, 0.25), np.array([1.0]), d.IntegratorConfig(t_max=5.0))
    assert traj.terminated_by == "t_max"
    assert abs(traj.final.u[0] - math.exp(-5.0)) < 1e-6


def test_recorded_points_are_consistent():
    p = d.make_problem("diag_cubic")
    s = d.power(1.0, 0.25)
    traj = d.integrate(p, s, np.zeros(p.dim), d.IntegratorConfig(t_max=8.0))
    assert traj.points[0].t == 0.0
    np.testing.assert_array_equal(traj.points[0].u, np.zeros(p.dim))
    times = [pt.t for pt in traj.points]
    assert np.all(np.diff(times) > 0.0)
    for pt in traj.points:
        psi = p.residual(pt.a, pt.u)
        np.testing.assert_allclose(pt.psi, psi, rtol=1e-12)
        assert pt.h == float(np.linalg.norm(pt.psi))
        assert pt.a == s.value(pt.t)


def test_inadmissible_schedule_refused():
    p = d.make_problem("identity")
    with pytest.raises(InadmissibleScheduleError):
        d.integrate(p, d.power(1.0, 0.75), np.zeros(p.dim), d.IntegratorConfig(t_max=5.0))


def test_u0_dimension_checked():
    p = d.make_problem("identity", dim=4)
    with pytest.raises(ValueError, match="dimension"):
        d.integrate(p, d.constant(1.0), np.zeros(3), d.IntegratorConfig(t_max=1.0))


def test_constant_schedule_residual_decays_exactly():
    # With a' = 0 the residual obeys psi' = -psi, so h(t) = h(0) e^{-t}.
    p = d.make_problem("diag_cubic", dim=5)
    cfg = d.IntegratorConfig(t_max=5.0, rel_tol=1e-11, abs_tol=1e-13)
    traj = d.integrate(p, d.constant(0.8), np.zeros(5), cfg)
    h0 = traj.points[0].h
    for pt in traj.points:
        assert pt.h == pytest.approx(h0 * math.exp(-pt.t), rel=1e-8)


def test_tolerance_halving_changes_little():
    p = d.make_problem("convex_gradient", dim=6)
    s = d.power(1.0, 0.25)
    rel = 1e-8
    cfg1 = d.IntegratorConfig(t_max=10.0, rel_tol=rel, abs_tol=1e-10)
    cfg2 = d.IntegratorConfig(t_max=10.0, rel_tol=rel / 2, abs_tol=5e-11)
    u1 = d.integrate(p, s, np.zeros(6), cfg1).final.u
    u2 = d.integrate(p, s, np.zeros(6), cfg2).final.u
    assert np.linalg.norm(u1 - u2) < 10 * rel * np.linalg.norm(u1)


def test_max_steps_termination():
    p = d.make_problem("diag_cubic")
    cfg = d.IntegratorConfig(t_max=20.0, max_steps=5)
    traj = d.integrate(p, d.power(1.0, 0.25), np.zeros(p.dim), cfg)
    assert traj.terminated_by == TERMINATED_MAX_STEPS
    assert traj.final.t < 20.0


def test_rk4_max_steps_termination():
    p = d.make_problem("diag_cubic")
    cfg = d.IntegratorConfig(t_max=20.0, initial_step=0.05, max_steps=5, method="rk4")
    traj = d.integrate(p, d.power(1.0, 0.25), np.zeros(p.dim), cfg)
    assert traj.terminated_by == TERMINATED_MAX_STEPS
    assert len(traj.points) == 6
    assert traj.final.t == 5 * (20.0 / 400)


def test_step_failure_on_unresolvable_horizon():
    # 1e15 time units cannot be resolved by any explicit step sequence.
    p = d.make_problem("diag_cubic", dim=2)
    cfg = d.IntegratorConfig(t_max=1e15)
    traj = d.integrate(p, d.power(1.0, 0.25), np.zeros(2), cfg)
    assert traj.terminated_by == TERMINATED_STEP_FAILURE


def test_residual_stop_terminates_early():
    p = identity(dim=3, rhs=[1.0, 1.0, 1.0])
    for method in ("dp54", "rk4"):
        cfg = d.IntegratorConfig(t_max=60.0, residual_stop=1e-8, method=method)
        traj = d.integrate(p, d.exponential(1.0, 0.44), np.zeros(3), cfg)
        assert traj.terminated_by == "residual_stop"
        assert traj.final.h <= 1e-8
        assert traj.final.t < 60.0


def test_record_stride_thins_output():
    p = d.make_problem("diag_cubic", dim=3)
    cfg_all = d.IntegratorConfig(t_max=2.0, initial_step=0.01, method="rk4", record_stride=1)
    cfg_thin = d.IntegratorConfig(t_max=2.0, initial_step=0.01, method="rk4", record_stride=10)
    s = d.constant(1.0)
    t_all = d.integrate(p, s, np.zeros(3), cfg_all)
    t_thin = d.integrate(p, s, np.zeros(3), cfg_thin)
    assert len(t_all.points) == 201
    assert len(t_thin.points) == 21
    np.testing.assert_allclose(t_all.final.u, t_thin.final.u, rtol=1e-14)


def test_rk4_is_deterministic():
    p = d.make_problem("psd_rank_deficient")
    s = d.power(1.0, 0.25)
    cfg = d.IntegratorConfig(t_max=3.0, initial_step=0.02, method="rk4")
    t1 = d.integrate(p, s, np.zeros(p.dim), cfg)
    t2 = d.integrate(p, s, np.zeros(p.dim), cfg)
    for p1, p2 in zip(t1.points, t2.points):
        assert p1.t == p2.t
        assert np.array_equal(p1.u, p2.u)
        assert p1.h == p2.h


@pytest.mark.parametrize("n_points", [0, 1, 2])
def test_dynamics_check_is_not_applicable_below_three_points(n_points):
    # No interior point, no psi' estimate: the report says so and passes.
    # A trajectory without its t = 0 point cannot be built at all.
    p = d.make_problem("identity", dim=1)
    traj = d.integrate(p, d.constant(1.0), np.array([1.0]), d.IntegratorConfig(t_max=1.0))
    if n_points == 0:
        with pytest.raises(ValueError, match="t = 0 point"):
            d.Trajectory(traj.schedule, points=traj.points[:0])
        return
    short = d.Trajectory(traj.schedule, points=traj.points[:n_points])
    report = d.residual_dynamics_check(short, p, traj.schedule)
    assert (report.interior_points, report.max_defect, report.passed) == (0, 0.0, True)


def test_dynamics_check_passes_on_fixed_grid():
    p = d.make_problem("diag_cubic", dim=4)
    s = d.power(1.0, 0.25)
    cfg = d.IntegratorConfig(t_max=4.0, initial_step=0.005, method="rk4", record_stride=4)
    traj = d.integrate(p, s, np.zeros(4), cfg)
    report = d.residual_dynamics_check(traj, p, s, rel_tol=cfg.rel_tol)
    assert report.passed
    assert report.max_defect <= report.tol


def test_dynamics_check_passes_on_adaptive_grid():
    p = d.make_problem("convex_gradient", dim=5)
    s = d.exponential(1.0, 0.3)
    traj = d.integrate(p, s, np.zeros(5), d.IntegratorConfig(t_max=6.0))
    report = d.residual_dynamics_check(traj, p, s)
    assert report.passed


def test_oracle_weighted_envelope_from_regularized_start():
    # Start at the a(0)-regularized solution: h(0) = 0 and the envelope is
    # the pure integral term.
    p = d.make_problem("psd_rank_deficient")
    s = d.power(1.0, 0.25)
    w0 = d.solve_regularized(p, s.value(0.0), np.zeros(p.dim))
    traj = d.integrate(p, s, w0, d.IntegratorConfig(t_max=10.0, record_stride=2))
    report = d.check_eq_2_8(traj, p)
    assert report.passed, report.notes
    assert traj.points[0].h < 1e-11


def test_oracle_weighted_envelope_from_cold_start():
    p = d.make_problem("diag_cubic", dim=3)
    s = d.power(1.0, 0.25)
    traj = d.integrate(p, s, np.zeros(3), d.IntegratorConfig(t_max=8.0, record_stride=2))
    report = d.check_eq_2_8(traj, p)
    assert report.passed, report.notes


def test_config_validation():
    with pytest.raises(ValueError):
        d.IntegratorConfig(t_max=-1.0)
    with pytest.raises(ValueError):
        d.IntegratorConfig(t_max=1.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        d.IntegratorConfig(t_max=1.0, max_steps=0)
    with pytest.raises(ValueError):
        d.IntegratorConfig(t_max=1.0, method="euler")


def test_trajectory_requires_and_stores_its_schedule():
    # EQ_2_8 and EQ_3_8 read the schedule, so a trajectory has one.
    with pytest.raises(TypeError, match="schedule"):
        d.Trajectory()
    p = d.make_problem("identity", dim=2)
    s = d.constant(1.0)
    traj = d.integrate(p, s, np.ones(2), d.IntegratorConfig(t_max=1.0))
    assert traj.schedule == s


def test_cubic_flow_approaches_cube_root():
    p = diag_cubic(dim=1, rhs=[8.0])
    s = d.exponential(1.0, 0.44)
    t_star = math.log(1e3) / 0.44
    traj = d.integrate(p, s, np.zeros(1), d.IntegratorConfig(t_max=t_star + 0.05))
    assert traj.final.a <= 1e-3
    assert abs(traj.final.u[0] - 2.0) < 1e-3


def _assert_same_trajectory(traj, ref):
    assert traj.terminated_by == ref.terminated_by
    assert len(traj.points) == len(ref.points)
    for pt, pr in zip(traj.points, ref.points):
        assert (pt.t, pt.a, pt.h) == (pr.t, pr.a, pr.h)
        assert pt.u.tobytes() == pr.u.tobytes()
        assert pt.psi.tobytes() == pr.psi.tobytes()


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_one_loop_matches_separate_loops_bitwise(name):
    # Stride 1 and 3, a max_steps cut (7 is no multiple of 3, so it forces
    # a trailing point), and finishes at residual_stop and (except identity)
    # at t_max. The reference loops solve as integrate does in each method,
    # so the test checks the loop, not the solver.
    p = d.make_problem(name, dim=4)
    u0 = np.ones(4)
    finishes = set()
    for s in (d.power(1.0, 0.25), d.exponential(1.0, 0.44), d.constant(0.8)):
        for method in ("dp54", "rk4"):
            for stride, max_steps in ((1, 200_000), (3, 7), (3, 200_000)):
                cfg = d.IntegratorConfig(
                    t_max=8.0, initial_step=0.1, residual_stop=1e-2,
                    max_steps=max_steps, record_stride=stride, method=method,
                )
                traj = d.integrate(p, s, u0, cfg)
                ref = reference_integrate(p, s, u0, cfg)
                _assert_same_trajectory(traj, ref)
                finishes.add((method, traj.terminated_by))
    assert {(m, r) for m in ("dp54", "rk4") for r in (TERMINATED_MAX_STEPS, "residual_stop")} <= finishes


def test_one_loop_matches_separate_loops_at_the_edges():
    # A start at the regularized solution (a stop at t = 0) and step failure.
    s = d.power(1.0, 0.25)
    p = d.make_problem("psd_rank_deficient", dim=4)
    w0 = d.solve_regularized(p, s.value(0.0), np.zeros(4))
    for method in ("dp54", "rk4"):
        cfg = d.IntegratorConfig(t_max=5.0, residual_stop=1e-10, method=method)
        traj = d.integrate(p, s, w0, cfg)
        assert traj.terminated_by == "residual_stop" and len(traj.points) == 1
        _assert_same_trajectory(traj, reference_integrate(p, s, w0, cfg))
    p = d.make_problem("diag_cubic", dim=2)
    cfg = d.IntegratorConfig(t_max=1e15)
    traj = d.integrate(p, s, np.zeros(2), cfg)
    assert traj.terminated_by == TERMINATED_STEP_FAILURE
    _assert_same_trajectory(traj, reference_integrate(p, s, np.zeros(2), cfg))


def _exp_problem():
    # F(u) = exp(u) is monotone; from u0 = -30 with f = 100 the first dp54
    # trial stages overshoot far enough that exp overflows.
    return OperatorProblem(
        name="exp", dim=1, fun=np.exp, jac=lambda u: np.diag(np.exp(u)),
        rhs=np.array([100.0]),
    )


def test_failed_trial_stage_rejects_the_dp54_step():
    p = _exp_problem()
    cfg = d.IntegratorConfig(t_max=5.0)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = d.integrate(p, d.constant(1e-3), np.array([-30.0]), cfg)
    assert traj.terminated_by == "t_max"
    h0 = traj.points[0].h
    for pt in traj.points:
        assert pt.h == pytest.approx(h0 * math.exp(-pt.t), rel=1e-5)


def test_failed_stage_still_raises_in_fixed_step_mode():
    p = _exp_problem()
    cfg = d.IntegratorConfig(t_max=5.0, method="rk4")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(LinearSolveError):
        d.integrate(p, d.constant(1e-3), np.array([-30.0]), cfg)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("stage", [6, 7])
def test_non_finite_late_stage_rejects_the_dp54_step(monkeypatch, stage):
    # rhs returns inf, without raising, at one stage of the first attempt.
    # At stage 6 the 7th stage's state u_new is inf; at stage 7 the error
    # estimate is. Either way the step is rejected and h shrinks, no stage
    # is evaluated at a non-finite state, and no RuntimeWarning is raised.
    calls = []
    real_rhs = dsmflow.flow.rhs

    def poisoned_rhs(p, s, t, u):
        # Call 1 is k1 at t = 0; calls 2-7 are stages 2-7 of the first attempt.
        calls.append((t, bool(np.all(np.isfinite(u)))))
        if len(calls) == stage:
            return np.full_like(u, np.inf)
        return real_rhs(p, s, t, u)

    monkeypatch.setattr(dsmflow.flow, "rhs", poisoned_rhs)
    p = d.make_problem("convex_gradient", dim=5)
    cfg = d.IntegratorConfig(t_max=3.0, initial_step=0.5)
    traj = d.integrate(p, d.power(1.0, 0.25), np.zeros(5), cfg)
    assert all(finite for _, finite in calls)
    # The poisoned attempt ends there: the next call is stage 2 of a new
    # attempt from t = 0 with h cut by _FAC_MIN.
    assert calls[stage][0] == _C[1] * (_FAC_MIN * cfg.initial_step)
    assert traj.terminated_by == "t_max"
    assert traj.points[1].t < cfg.initial_step
    assert all(np.all(np.isfinite(pt.u)) for pt in traj.points)


def _count_rhs_calls(monkeypatch, cfg):
    # Counts calls and the attempted dp54 steps: only a step's last two
    # stages share a time (c6 = c7 = 1).
    calls = []
    real_rhs = dsmflow.flow.rhs

    def counting_rhs(p, s, t, u):
        calls.append(t)
        return real_rhs(p, s, t, u)

    monkeypatch.setattr(dsmflow.flow, "rhs", counting_rhs)
    p = d.make_problem("convex_gradient", dim=5)
    traj = d.integrate(p, d.power(1.0, 0.25), np.zeros(5), cfg)
    attempts = sum(t0 == t1 for t0, t1 in zip(calls, calls[1:]))
    return len(calls), attempts, len(traj.points)


def test_rhs_calls_match_rk4_steps(monkeypatch):
    cfg = d.IntegratorConfig(t_max=3.0, initial_step=0.1, method="rk4")
    calls, _, points = _count_rhs_calls(monkeypatch, cfg)
    assert points == 31
    assert calls == 4 * (points - 1)


def test_rhs_calls_match_dp54_attempts(monkeypatch):
    cfg = d.IntegratorConfig(t_max=3.0, initial_step=1.0)
    calls, attempts, points = _count_rhs_calls(monkeypatch, cfg)
    assert calls == 1 + 6 * attempts
    assert attempts > points - 1  # initial_step 1 is too long: some steps are rejected


def _record_structures(monkeypatch, module):
    """The structure argument of every solve_shifted call made from module."""
    seen = []
    real = module.solve_shifted

    def recording(j, a, b, structure=None):
        seen.append(structure)
        return real(j, a, b, structure)

    monkeypatch.setattr(module, "solve_shifted", recording)
    return seen


@pytest.mark.parametrize(
    "name, path",
    [
        ("identity", "diagonal"),
        ("diag_cubic", "diagonal"),
        ("psd_rank_deficient", "eigh"),
        ("fredholm_first_kind", "eigh"),
        ("skew_perturbed", "lu"),
        ("convex_gradient", "lu"),
    ],
)
def test_only_dp54_solves_with_the_stated_structure(monkeypatch, name, path):
    flow_solves = _record_structures(monkeypatch, dsmflow.flow)
    oracle_solves = _record_structures(monkeypatch, dsmflow.oracle)
    p = d.make_problem(name, dim=6)
    s, u0 = d.power(1.0, 0.25), np.full(6, 0.5)
    d.integrate(p, s, u0, d.IntegratorConfig(t_max=2.0))
    assert flow_solves
    if path == "eigh":
        # One eigendecomposition serves the whole run.
        assert flow_solves[0].eigenvalues.shape == (6,)
        assert all(st is flow_solves[0] for st in flow_solves)
    else:
        assert set(flow_solves) == {DIAGONAL if path == "diagonal" else None}
    flow_solves.clear()
    d.integrate(p, s, u0, d.IntegratorConfig(t_max=2.0, initial_step=0.1, method="rk4"))
    d.solve_regularized(p, 0.5, u0)
    assert flow_solves and oracle_solves
    assert all(st is None for st in flow_solves + oracle_solves)


def _record_eigh(monkeypatch):
    calls = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or real_eigh(m))
    return calls


def test_stop_at_t0_decomposes_nothing(monkeypatch):
    # The eigendecomposition comes after the t = 0 residual_stop exit.
    calls = _record_eigh(monkeypatch)
    p = d.make_problem("fredholm_first_kind", dim=6)
    w = d.solve_regularized(p, 1.0, np.zeros(6))
    traj = d.integrate(p, d.constant(1.0), w, d.IntegratorConfig(t_max=1.0))
    assert traj.terminated_by == "residual_stop" and not calls
    d.integrate(p, d.constant(1.0), np.ones(6), d.IntegratorConfig(t_max=1.0))
    assert len(calls) == 1


def test_eigh_runs_at_most_once_per_problem(monkeypatch):
    # One eigendecomposition serves every dp54 run of the same problem
    # object; rk4 solves with a "dense" copy and takes none.
    calls = _record_eigh(monkeypatch)
    p = d.make_problem("psd_rank_deficient", dim=6)
    s, u0 = d.exponential(1.0, 0.44), np.ones(6)
    d.integrate(p, s, u0, d.IntegratorConfig(t_max=1.0, initial_step=0.1, method="rk4"))
    assert not calls
    for t_max in (1.0, 2.0):
        d.integrate(p, s, u0, d.IntegratorConfig(t_max=t_max))
    assert len(calls) == 1
    d.integrate(d.make_problem("psd_rank_deficient", dim=6), s, u0, d.IntegratorConfig(t_max=1.0))
    assert len(calls) == 2


@pytest.mark.parametrize("name", ["diag_cubic", "psd_rank_deficient", "fredholm_first_kind"])
def test_problem_without_the_facts_integrates_as_before(monkeypatch, name):
    # Stated "dense", a problem stays on dense LU in dp54 too, and its run
    # is bit for bit the reference loop's on LU.
    flow_solves = _record_structures(monkeypatch, dsmflow.flow)
    p = dataclasses.replace(d.make_problem(name, dim=6), jacobian_structure=DENSE)
    u0 = np.full(6, 0.5)
    assert p.solve_structure is None
    cfg = d.IntegratorConfig(t_max=8.0, rel_tol=1e-10, abs_tol=1e-12)
    traj = d.integrate(p, d.exponential(1.0, 0.44), u0, cfg)
    assert all(st is None for st in flow_solves)
    _assert_same_trajectory(traj, reference_integrate(p, d.exponential(1.0, 0.44), u0, cfg))


@pytest.mark.parametrize("structure", [SYMMETRIC_CONSTANT, DIAGONAL])
def test_false_structure_fact_fails_the_certificate(structure):
    # convex_gradient's Jacobian is neither constant nor diagonal. Each solve
    # is certified against the Jacobian at its own state, so the false fact
    # raises where it would give a wrong direction.
    dense = d.make_problem("convex_gradient", dim=5)
    p = dataclasses.replace(dense, jacobian_structure=structure)
    s, u0 = d.constant(0.5), np.zeros(5)
    u = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(LinearSolveError, match="structure"):
        d.rhs(p, s, 0.0, u)
    if structure == DIAGONAL:
        with pytest.raises(LinearSolveError, match="structure"):
            d.integrate(p, s, u0, d.IntegratorConfig(t_max=5.0))
    else:
        # Taken at the origin, u0 here, the eigendecomposition is right only
        # there: it fails every trial stage away from it, and the run ends.
        np.testing.assert_allclose(d.rhs(p, s, 0.0, u0), d.rhs(dense, s, 0.0, u0), atol=1e-12)
        traj = d.integrate(p, s, u0, d.IntegratorConfig(t_max=5.0))
        assert traj.terminated_by == TERMINATED_STEP_FAILURE and traj.final.t < 1e-3
    # rk4 solves on dense LU whatever the problem states, so it never trips.
    rk4 = d.IntegratorConfig(t_max=1.0, initial_step=0.1, method="rk4")
    _assert_same_trajectory(d.integrate(p, s, u0, rk4), d.integrate(dense, s, u0, rk4))


# perfbench's margin tolerances for dp54 runs.
MARGIN_ATOL = 1e-6
MARGIN_ATOL_BY_BOUND = {"EQ_3_8": 1e-4}


@pytest.mark.parametrize(
    "name, schedule, t_max",
    [
        ("identity", d.exponential(1.0, 0.44), 32.0),
        ("diag_cubic", d.exponential(1.0, 0.44), 32.0),
        ("diag_cubic", d.power(1.0, 0.25), 20.0),
        ("psd_rank_deficient", d.exponential(1.0, 0.44), 32.0),
        ("fredholm_first_kind", d.exponential(1.0, 0.44), 33.0),
        ("skew_perturbed", d.exponential(1.0, 0.44), 32.0),
    ],
)
def test_structured_and_dense_dp54_give_the_same_verdicts(name, schedule, t_max):
    _assert_structure_keeps_the_verdicts(d.make_problem(name), schedule, t_max)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("build", [psd_linear_problem, componentwise_monotone_problem])
def test_structure_keeps_the_verdicts_on_random_problems(build, seed):
    # Random draws beyond the gallery: dp54 as stated against dense LU, and
    # rk4 byte for byte whichever structure is stated.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    p = build(rng, n)
    s = d.exponential(1.0, 0.44)
    _assert_structure_keeps_the_verdicts(p, s, 16.0)
    rk4 = d.IntegratorConfig(t_max=4.0, initial_step=0.05, method="rk4")
    u0 = np.full(n, 0.5)
    for structure in (DENSE, DIAGONAL, SYMMETRIC_CONSTANT):
        q = dataclasses.replace(p, jacobian_structure=structure)
        _assert_same_trajectory(d.integrate(q, s, u0, rk4), d.integrate(p, s, u0, rk4))


def _assert_structure_keeps_the_verdicts(p, schedule, t_max):
    """dp54 on p as stated and on a "dense" copy: the same stop and verdicts,
    and margins within perfbench's tolerances, at the stock configs'
    settings from u0 = 0.5 (so that identity moves too)."""
    dense = dataclasses.replace(p, jacobian_structure=DENSE)
    cfg = d.IntegratorConfig(t_max=t_max, rel_tol=1e-10, abs_tol=1e-12, residual_stop=1e-8)
    u0 = np.full(p.dim, 0.5)
    results = []
    for q in (p, dense):
        traj = d.integrate(q, schedule, u0, cfg)
        reports, _, _ = d.certify(traj, q, d.NewtonConfig(), cfg.residual_stop)
        results.append((traj.terminated_by, reports))
    (stop, reports), (dense_stop, dense_reports) = results
    assert stop == dense_stop
    assert [(r.bound_id, r.passed) for r in reports] == [
        (r.bound_id, r.passed) for r in dense_reports
    ]
    for r, rd in zip(reports, dense_reports):
        atol = MARGIN_ATOL_BY_BOUND.get(r.bound_id, MARGIN_ATOL)
        assert r.worst_margin == pytest.approx(rd.worst_margin, rel=0.0, abs=atol), r.bound_id


@pytest.mark.filterwarnings("error")
def test_jacobian_eigh_cannot_take_stays_on_lu_and_fails_its_certificate():
    # eigh raises LinAlgError on a NaN matrix; the run keeps dense LU, whose
    # certificate turns the NaN into a LinearSolveError (exit 3), not a
    # stray traceback.
    nan_jac = np.full((3, 3), np.nan)
    p = OperatorProblem(
        name="nan_linear", dim=3, fun=lambda u: u, jac=lambda u: nan_jac,
        rhs=np.ones(3), jacobian_structure=SYMMETRIC_CONSTANT,
    )
    assert p.solve_structure is None
    with pytest.raises(LinearSolveError, match="residual nan"):
        d.integrate(p, d.constant(1.0), np.zeros(3), d.IntegratorConfig(t_max=1.0))


@pytest.mark.parametrize(
    "schedule, t_max",
    [(d.exponential(1.0, 0.44), 32.0), (d.power(1.0, 0.25), 20.0)],
    ids=["exponential", "power"],
)
@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_stage_array_step_gives_the_generator_sum_step_verdicts(monkeypatch, name, schedule, t_max):
    # The stock settings, from u0 = 0.5 so that identity moves too. The old
    # step reaches the same stop, point count and verdicts, with margins
    # within perfbench's tolerances.
    p = d.make_problem(name)
    cfg = d.IntegratorConfig(t_max=t_max, rel_tol=1e-10, abs_tol=1e-12, residual_stop=1e-8)
    u0 = np.full(p.dim, 0.5)
    runs = []
    for step in (dsmflow.flow._dp54_step, generator_sum_dp54_step):
        monkeypatch.setattr(dsmflow.flow, "_dp54_step", step)
        traj = d.integrate(p, schedule, u0, cfg)
        reports, _, _ = d.certify(traj, p, d.NewtonConfig(), cfg.residual_stop)
        runs.append((traj, reports))
    (traj, reports), (old_traj, old_reports) = runs
    assert traj.terminated_by == old_traj.terminated_by
    assert len(traj.points) == len(old_traj.points)
    assert [(r.bound_id, r.passed) for r in reports] == [
        (r.bound_id, r.passed) for r in old_reports
    ]
    for r, ro in zip(reports, old_reports):
        atol = MARGIN_ATOL_BY_BOUND.get(r.bound_id, MARGIN_ATOL)
        assert r.worst_margin == pytest.approx(ro.worst_margin, rel=0.0, abs=atol), r.bound_id


@settings(max_examples=12)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    term=st.sampled_from(["cube", "sinh", "holder"]),
)
def test_stage_array_step_on_random_monotone_problems(n, seed, term):
    # PSD + skew + a monotone diagonal term, "holder" with an F' that is
    # only Hoelder continuous: both steps end the same way, and EQ_2_6 and
    # EQ_2_10 hold on the stage-array run.
    rng = np.random.default_rng(seed)
    p = monotone_problem(psd_plus_skew(rng, n), term, rng.uniform(-1.0, 1.0, n))
    s = d.exponential(1.0, 0.44)
    cfg = d.IntegratorConfig(t_max=8.0, rel_tol=1e-10, abs_tol=1e-12, residual_stop=1e-8)
    u0 = np.full(n, 0.5)
    traj = d.integrate(p, s, u0, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dsmflow.flow, "_dp54_step", generator_sum_dp54_step)
        old_traj = d.integrate(p, s, u0, cfg)
    assert traj.terminated_by == old_traj.terminated_by
    assert d.check_eq_2_6(traj, p, s).passed
    assert d.check_eq_2_10(traj, p, s).passed
