import math

import numpy as np
import pytest

import dsmflow as d
import dsmflow.flow
from dsmflow.errors import InadmissibleScheduleError, LinearSolveError
from dsmflow.flow import TERMINATED_MAX_STEPS, TERMINATED_STEP_FAILURE
from dsmflow.operators import GALLERY_NAMES, OperatorProblem, diag_cubic, identity

from oracles import reference_integrate


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
    times = traj.times()
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


def test_dynamics_check_needs_three_points():
    p = d.make_problem("identity", dim=1)
    traj = d.integrate(p, d.constant(1.0), np.array([1.0]), d.IntegratorConfig(t_max=1.0))
    short = d.Trajectory(points=traj.points[:2], terminated_by="t_max",
                         problem_name="identity", schedule=traj.schedule)
    with pytest.raises(ValueError, match="3 recorded points"):
        d.residual_dynamics_check(short, p, traj.schedule)


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


def test_trajectory_stores_problem_and_schedule():
    p = d.make_problem("identity", dim=2)
    s = d.constant(1.0)
    traj = d.integrate(p, s, np.ones(2), d.IntegratorConfig(t_max=1.0))
    assert traj.problem_name == "identity"
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
    # at t_max.
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
                _assert_same_trajectory(traj, reference_integrate(p, s, u0, cfg))
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
        rhs=np.array([100.0]), symmetric_jacobian=True,
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
