import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsmflow as d
import dsmflow.cli
import dsmflow.flow
from dsmflow.errors import LinearSolveError
from dsmflow.flow import (
    _B,
    _C,
    _E,
    _FAC_MIN,
    TERMINATED_MAX_STEPS,
    TERMINATED_NON_FINITE,
    TERMINATED_SOLVE_FAILURE,
    TERMINATED_STEP_FAILURE,
)
from dsmflow.operators import (
    GALLERY_NAMES,
    OperatorProblem,
    diag_cubic,
    identity,
    linear_problem,
)

import workloads  # perfbench/workloads.py, put on the path by conftest.py
from oracles import generator_sum_dp54_step, reference_dynamics_check, reference_integrate
from problems import (
    componentwise_monotone_problem,
    monotone_problem,
    psd_linear_problem,
    psd_plus_skew,
)


def test_rhs_identity_scalar():
    # F = I, f = 0, a = 1: direction -(1+1)^{-1} (u + u) = -u.
    p = d.make_problem("identity", dim=1)
    s = d.constant(1.0)
    np.testing.assert_allclose(d.rhs(p, s, 0.0, np.array([4.0]))[0], [-4.0], rtol=1e-14)


def test_rhs_identity_any_schedule_cancels():
    p = d.make_problem("identity", dim=3)
    s = d.power(1.0, 0.25)
    u = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(d.rhs(p, s, 3.0, u)[0], -u, rtol=1e-13)


def test_rhs_vanishes_at_regularized_solution():
    p = identity(rhs=[1.0, 2.0])
    s = d.constant(0.5)
    u = p.rhs / 1.5
    direction, psi = d.rhs(p, s, 1.0, u)
    np.testing.assert_allclose(direction, 0.0, atol=1e-12)
    np.testing.assert_allclose(psi, 0.0, atol=1e-12)


def test_identity_flow_matches_exponential_decay():
    p = d.make_problem("identity", dim=1)
    traj = d.integrate(p, d.power(1.0, 0.25), np.array([1.0]), d.IntegratorConfig(t_max=5.0))
    assert traj.terminated_by == "t_max" and traj.cause == ""
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
    with pytest.raises(ValueError, match="inadmissible"):
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


def test_max_steps_termination(monkeypatch):
    # The cap is a module constant, read at call time, not a setting.
    assert "max_steps" not in {f.name for f in dataclasses.fields(d.IntegratorConfig)}
    with pytest.raises(TypeError, match="max_steps"):
        d.IntegratorConfig(t_max=1.0, max_steps=5)
    monkeypatch.setattr(dsmflow.flow, "MAX_STEPS", 5)
    p = d.make_problem("diag_cubic")
    cfg = d.IntegratorConfig(t_max=20.0)
    traj = d.integrate(p, d.power(1.0, 0.25), np.zeros(p.dim), cfg)
    assert traj.terminated_by == TERMINATED_MAX_STEPS
    assert traj.final.t < 20.0


def test_every_termination_reason_finishes_or_has_an_error_line():
    # A run finishes at residual_stop or t_max; every other reason, and so a
    # new one, must have its error line in flow.UNFINISHED, or the CLI would
    # pass a run that did not finish.
    reasons = {v for k, v in vars(dsmflow.flow).items() if k.startswith("TERMINATED_")}
    assert reasons - dsmflow.flow.UNFINISHED.keys() == {"residual_stop", "t_max"}
    assert dsmflow.flow.UNFINISHED.keys() <= reasons
    for reason, line in dsmflow.flow.UNFINISHED.items():
        assert line.endswith(f"({reason})")


def test_rk4_max_steps_termination(monkeypatch):
    monkeypatch.setattr(dsmflow.flow, "MAX_STEPS", 5)
    p = d.make_problem("diag_cubic")
    cfg = d.IntegratorConfig(t_max=20.0, initial_step=0.05, method="rk4")
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
    p = identity(rhs=[1.0, 1.0, 1.0])
    for method in ("dp54", "rk4"):
        cfg = d.IntegratorConfig(t_max=60.0, residual_stop=1e-8, method=method)
        traj = d.integrate(p, d.exponential(1.0, 0.44), np.zeros(3), cfg)
        assert traj.terminated_by == "residual_stop"
        assert traj.final.h <= 1e-8
        assert traj.final.t < 60.0


@pytest.mark.parametrize("method", ["dp54", "rk4"])
def test_every_accepted_step_is_recorded(method, monkeypatch):
    # No setting thins the record: the trajectory holds the t = 0 point and
    # one point per accepted step, also when MAX_STEPS cuts the run.
    assert "record_stride" not in {f.name for f in dataclasses.fields(d.IntegratorConfig)}
    with pytest.raises(TypeError, match="record_stride"):
        d.IntegratorConfig(t_max=1.0, record_stride=2)
    name = {"dp54": "_dp54_step", "rk4": "_rk4_step"}[method]
    step = getattr(dsmflow.flow, name)
    accepted = []

    def counting_step(*args):
        out = step(*args)
        accepted.append(method == "rk4" or out[1] <= 1.0)
        return out

    monkeypatch.setattr(dsmflow.flow, name, counting_step)
    p = d.make_problem("diag_cubic", dim=4)
    cfg = d.IntegratorConfig(t_max=8.0, initial_step=1.0, method=method)
    for max_steps, finish in ((200_000, "t_max"), (7, TERMINATED_MAX_STEPS)):
        accepted.clear()
        monkeypatch.setattr(dsmflow.flow, "MAX_STEPS", max_steps)
        traj = d.integrate(p, d.exponential(1.0, 0.44), np.zeros(4), cfg)
        assert traj.terminated_by == finish
        assert len(traj.points) == sum(accepted) + 1
    # dp54's 7 attempts include rejected ones.
    assert all(accepted) == (method == "rk4")


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
    assert (report.interior_points, report.max_defect, report.worst_ratio) == (0, 0.0, 0.0)
    assert report.passed and math.isnan(report.worst_t)


def test_dynamics_check_passes_on_fixed_grid():
    p = d.make_problem("diag_cubic", dim=4)
    s = d.power(1.0, 0.25)
    cfg = d.IntegratorConfig(t_max=4.0, initial_step=0.005, method="rk4")
    traj = d.integrate(p, s, np.zeros(4), cfg)
    # Every 4th step, so the check sees steps of 0.02.
    traj = dataclasses.replace(traj, points=traj.points[::4])
    report = d.residual_dynamics_check(traj, p, s)
    assert report.passed and 0.0 < report.worst_ratio <= 1.0


def test_dynamics_check_passes_on_adaptive_grid():
    p = d.make_problem("convex_gradient", dim=5)
    s = d.exponential(1.0, 0.3)
    traj = d.integrate(p, s, np.zeros(5), d.IntegratorConfig(t_max=6.0))
    report = d.residual_dynamics_check(traj, p, s)
    assert report.passed


def _with_nan_psi(traj, i):
    """traj with the psi of its point i all NaN."""
    pts = list(traj.points)
    pts[i] = dataclasses.replace(pts[i], psi=np.full(pts[i].psi.shape, np.nan))
    return d.Trajectory(traj.schedule, pts)


@pytest.mark.parametrize("name", ["diag_cubic", "fredholm_first_kind", "convex_gradient"])
@pytest.mark.parametrize("method", ["rk4", "dp54"])
def test_dynamics_check_blocks_match_the_point_loop_bitwise(name, method):
    # Runs of more than two blocks, and a NaN psi row: the running max
    # passes over its NaN defects, as max() did, and the pass test does not.
    p = d.make_problem(name)
    s = d.exponential(1.0, 0.44)
    cfg = d.IntegratorConfig(t_max=8.0, initial_step=0.05, method=method)
    traj = d.integrate(p, s, np.zeros(p.dim), cfg)
    assert len(traj.points) > 2 * dsmflow.flow._DYN_BLOCK + 2
    report = d.residual_dynamics_check(traj, p, s)
    assert report.passed
    assert report == reference_dynamics_check(traj)
    spoiled = _with_nan_psi(traj, dsmflow.flow._DYN_BLOCK + 1)
    report = d.residual_dynamics_check(spoiled, p, s)
    assert not report.passed and math.isfinite(report.max_defect)
    expected = reference_dynamics_check(spoiled)
    assert math.isnan(report.worst_ratio) and math.isnan(expected.worst_ratio)
    assert report == dataclasses.replace(expected, worst_ratio=report.worst_ratio)


def test_dynamics_check_tells_a_wrong_a_prime():
    # Each interior point has its own tolerance. With one tolerance for the
    # run, taken at the longest late step and h(0), the defect against
    # constant(1.0) (0.367) passed under 0.405; its worst point is now 61
    # times over its own tolerance, and the report says so.
    p = d.make_problem("diag_cubic", dim=4)
    traj = d.integrate(p, d.exponential(1.0, 0.44), np.zeros(4), d.IntegratorConfig(t_max=8.0))
    assert d.residual_dynamics_check(traj, p, traj.schedule).passed
    wrong = d.Trajectory(d.constant(1.0), traj.points)
    report = d.residual_dynamics_check(wrong, p, wrong.schedule)
    assert not report.passed
    assert report.max_defect > 0.3 and 60.0 < report.worst_ratio < 62.0


def test_dynamics_check_says_where_it_fails():
    # The wrong a' above: the report names its worst point, the first with
    # the largest ratio in the point-by-point loop, 61-fold at t = 0.186.
    p = d.make_problem("diag_cubic", dim=4)
    traj = d.integrate(p, d.exponential(1.0, 0.44), np.zeros(4), d.IntegratorConfig(t_max=8.0))
    wrong = dataclasses.replace(traj, schedule=d.constant(1.0))
    report = d.residual_dynamics_check(wrong, p, wrong.schedule)
    assert report == reference_dynamics_check(wrong)
    assert report.worst_t in [pt.t for pt in wrong.points[1:-1]]
    assert report.worst_ratio == pytest.approx(61.0, abs=0.5)
    assert report.worst_t == pytest.approx(0.186, abs=5e-4)


@pytest.mark.filterwarnings("error")
def test_dynamics_check_passes_a_run_at_the_solution():
    # At the solution of every regularized problem (identity, f = 0, u = 0)
    # each h is 0, so each tolerance is 0 too: a zero defect is within it,
    # ratio 0, with no 0/0.
    p = d.make_problem("identity", dim=3)
    s = d.exponential(1.0, 0.44)
    zero = np.zeros(3)
    traj = d.Trajectory(s, [d.TrajectoryPoint(t, zero, s.value(t), zero, 0.0) for t in (0.0, 0.5, 1.0)])
    report = d.residual_dynamics_check(traj, p, s)
    assert (report.max_defect, report.worst_ratio, report.passed) == (0.0, 0.0, True)
    assert report == reference_dynamics_check(traj)


@pytest.mark.filterwarnings("error")
def test_dynamics_check_fails_a_repeated_time_without_a_warning():
    # A point recorded twice has no three-point derivative: its defects are
    # not finite, and the report fails instead of raising or warning.
    p = d.make_problem("diag_cubic", dim=4)
    traj = d.integrate(p, d.exponential(1.0, 0.44), np.zeros(4), d.IntegratorConfig(t_max=4.0))
    pts = list(traj.points)
    pts.insert(5, pts[5])
    report = d.residual_dynamics_check(d.Trajectory(traj.schedule, pts), p, traj.schedule)
    assert not report.passed
    assert report.interior_points == len(pts) - 2


@pytest.mark.parametrize("method", ["dp54", "rk4"])
def test_recorded_states_are_arrays_of_their_own(method):
    # Each point owns its state: no two points share one, and none is the
    # caller's u0.
    p = d.make_problem("diag_cubic", dim=4)
    u0 = np.zeros(4)
    cfg = d.IntegratorConfig(t_max=4.0, method=method)
    traj = d.integrate(p, d.exponential(1.0, 0.44), u0, cfg)
    us = [pt.u for pt in traj.points]
    assert len({id(u) for u in us}) == len(us) > 2
    assert all(u.base is None and u is not u0 for u in us)
    u0[:] = 1.0
    assert not traj.points[0].u.any()


def test_oracle_weighted_envelope_from_regularized_start():
    # Start at the a(0)-regularized solution: h(0) = 0 and the envelope is
    # the pure integral term.
    p = d.make_problem("psd_rank_deficient")
    s = d.power(1.0, 0.25)
    w0 = d.solve_regularized(p, s.value(0.0), np.zeros(p.dim))
    traj = d.integrate(p, s, w0, d.IntegratorConfig(t_max=10.0))
    report = d.check_eq_2_8(traj, p)
    assert report.passed, report.notes
    assert traj.points[0].h < 1e-11


def test_oracle_weighted_envelope_from_cold_start():
    p = d.make_problem("diag_cubic", dim=3)
    s = d.power(1.0, 0.25)
    traj = d.integrate(p, s, np.zeros(3), d.IntegratorConfig(t_max=8.0))
    report = d.check_eq_2_8(traj, p)
    assert report.passed, report.notes


def test_config_validation():
    with pytest.raises(ValueError):
        d.IntegratorConfig(t_max=-1.0)
    with pytest.raises(ValueError):
        d.IntegratorConfig(t_max=1.0, rel_tol=0.0)
    # rk4 would take round(inf) steps.
    for t_max, initial_step in ((10.0, 5e-324), (1e308, 1e-300)):
        with pytest.raises(ValueError, match="rk4 takes t_max / initial_step steps"):
            d.IntegratorConfig(t_max=t_max, initial_step=initial_step, method="rk4")
        d.IntegratorConfig(t_max=t_max, initial_step=initial_step)
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
    p = diag_cubic(rhs=[8.0])
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
def test_one_loop_matches_separate_loops_bitwise(name, monkeypatch):
    # A MAX_STEPS cut at 7 steps, and finishes at residual_stop and (except
    # identity) at t_max. The reference loops solve as integrate does in
    # each method, so the test checks the loop, not the solver.
    p = d.make_problem(name, dim=4)
    u0 = np.ones(4)
    finishes = set()
    for s in (d.power(1.0, 0.25), d.exponential(1.0, 0.44), d.constant(0.8)):
        for method in ("dp54", "rk4"):
            cfg = d.IntegratorConfig(
                t_max=8.0, initial_step=0.1, residual_stop=1e-2, method=method
            )
            for max_steps in (200_000, 7):
                # Both integrate and the reference loops read the patched cap.
                monkeypatch.setattr(dsmflow.flow, "MAX_STEPS", max_steps)
                traj = d.integrate(p, s, u0, cfg)
                ref = reference_integrate(p, s, u0, cfg)
                _assert_same_trajectory(traj, ref)
                finishes.add((method, traj.terminated_by))
    assert {(m, r) for m in ("dp54", "rk4") for r in (TERMINATED_MAX_STEPS, "residual_stop")} <= finishes


def test_one_loop_matches_separate_loops_at_the_edges():
    # A start at the regularized solution (a stop at t = 0), step failure,
    # and an rk4 run that overflows h.
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
    p, s, cfg = _diverging_rk4()
    traj = d.integrate(p, s, np.zeros(4), cfg)
    assert traj.terminated_by == TERMINATED_NON_FINITE
    _assert_same_trajectory(traj, reference_integrate(p, s, np.zeros(4), cfg))


def _diverging_rk4():
    """(problem, schedule, config) of an rk4 run whose h overflows: at a = 1
    the flow's linearization is -I, and each step of 32 multiplies h by
    R(-32) = 1 - 32 + 32^2/2 - 32^3/6 + 32^4/24, about 3.9e4."""
    cfg = d.IntegratorConfig(t_max=1280.0, initial_step=32.0, method="rk4")
    return d.make_problem("psd_rank_deficient", dim=4), d.exponential(1.0, 0.0), cfg


@pytest.mark.filterwarnings("error")
def test_a_point_whose_h_is_not_finite_ends_the_run_unrecorded():
    # The run ends at the first new point whose h is not finite, keeps the
    # points before it, and has not reached t_max: it is unfinished.
    p, s, cfg = _diverging_rk4()
    traj = d.integrate(p, s, np.zeros(4), cfg)
    assert traj.terminated_by == TERMINATED_NON_FINITE
    assert TERMINATED_NON_FINITE in dsmflow.flow.UNFINISHED
    assert all(math.isfinite(pt.h) for pt in traj.points)
    assert traj.final.h > 1e150 and traj.final.t == 32.0 * (len(traj.points) - 1) < cfg.t_max


def _exp_problem():
    # F(u) = exp(u) is monotone; from u0 = -30 with f = 100 the first dp54
    # trial stages overshoot far enough that exp overflows.
    return OperatorProblem(
        name="exp", fun=np.exp, jac=lambda u: np.diag(np.exp(u)),
        rhs=np.array([100.0]),
    )


def test_dormand_prince_tableau_meets_the_order_conditions():
    # tests/oracles.py's reference steppers read the same tableau, so only
    # the order conditions (Hairer, Norsett & Wanner, Solving ODEs I, II.2)
    # can tell a wrong coefficient.
    a = _B[:, 1:]
    c, b5 = np.array(_C), a[6]
    b4 = b5 - _E
    conditions = [a.sum(axis=1) - c, [_E.sum()]]
    conditions += [[b5 @ c**k - 1 / (k + 1)] for k in range(5)]
    conditions += [[b4 @ c**k - 1 / (k + 1)] for k in range(4)]
    conditions += [
        [b5 @ (a @ c) - 1 / 6],
        [b5 @ (a @ c**2) - 1 / 12],
        [b5 @ (c * (a @ c)) - 1 / 8],
        [b5 @ (a @ (a @ c)) - 1 / 24],
    ]
    residuals = np.abs(np.concatenate(conditions))
    assert residuals.max() <= 1e-14, residuals


def test_failed_trial_stage_rejects_the_dp54_step():
    p = _exp_problem()
    cfg = d.IntegratorConfig(t_max=5.0)
    traj = d.integrate(p, d.constant(1e-3), np.array([-30.0]), cfg)
    assert traj.terminated_by == "t_max"
    h0 = traj.points[0].h
    for pt in traj.points:
        assert pt.h == pytest.approx(h0 * math.exp(-pt.t), rel=1e-5)


def test_failed_stage_ends_the_run_in_fixed_step_mode(monkeypatch):
    # rk4 has no step to reject: a failed solve ends the run, which keeps
    # the points it has. From u0 = -30 the first step overflows exp.
    cfg = d.IntegratorConfig(t_max=5.0, method="rk4")
    traj = d.integrate(_exp_problem(), d.constant(1e-3), np.array([-30.0]), cfg)
    assert traj.terminated_by == TERMINATED_SOLVE_FAILURE
    assert [pt.t for pt in traj.points] == [0.0]
    # Solve 15 is the 3rd stage of the 4th step: the three steps before stay.
    calls = []
    real = dsmflow.flow.solve_shifted

    def failing_15th(*args):
        calls.append(args)
        if len(calls) == 15:
            raise LinearSolveError("injected solve failure")
        return real(*args)

    monkeypatch.setattr(dsmflow.flow, "solve_shifted", failing_15th)
    p = d.make_problem("diag_cubic", dim=3)
    traj = d.integrate(p, d.exponential(1.0, 0.44), np.zeros(3), cfg)
    assert traj.terminated_by == TERMINATED_SOLVE_FAILURE
    assert [pt.t for pt in traj.points] == [k * cfg.initial_step for k in range(4)]
    assert traj.cause == "stage at t=0.035: injected solve failure"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("stage", [6, 7])
def test_non_finite_late_stage_rejects_the_dp54_step(monkeypatch, stage):
    # rhs returns an inf direction, without raising, at one stage of the
    # first attempt, and the stage's own psi. At stage 6 the 7th stage's
    # state u_new is inf; at stage 7 the error estimate is. Either way the
    # step is rejected and h shrinks, no stage is evaluated at a non-finite
    # state, and no RuntimeWarning is raised.
    calls = []
    real_rhs = dsmflow.flow.rhs

    def poisoned_rhs(p, s, t, u):
        # Call 1 is k1 at t = 0; calls 2-7 are stages 2-7 of the first attempt.
        calls.append((t, bool(np.all(np.isfinite(u)))))
        direction, psi = real_rhs(p, s, t, u)
        if len(calls) == stage:
            return np.full_like(direction, np.inf), psi
        return direction, psi

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
    # Counts rhs calls, F calls and the attempted dp54 steps: only a step's
    # last two stages share a time (c6 = c7 = 1).
    calls, fun_calls = [], []
    real_rhs = dsmflow.flow.rhs

    def counting_rhs(p, s, t, u):
        calls.append(t)
        return real_rhs(p, s, t, u)

    monkeypatch.setattr(dsmflow.flow, "rhs", counting_rhs)
    p = d.make_problem("convex_gradient", dim=5)

    def counting_fun(u, fun=p.fun):
        fun_calls.append(u)
        return fun(u)

    p = dataclasses.replace(p, fun=counting_fun)
    traj = d.integrate(p, d.power(1.0, 0.25), np.zeros(5), cfg)
    attempts = sum(t0 == t1 for t0, t1 in zip(calls, calls[1:]))
    return len(calls), attempts, len(traj.points), len(fun_calls)


def test_rhs_calls_match_rk4_steps(monkeypatch):
    cfg = d.IntegratorConfig(t_max=3.0, initial_step=0.1, method="rk4")
    calls, _, points, fun_calls = _count_rhs_calls(monkeypatch, cfg)
    assert points == 31
    assert calls == 4 * (points - 1)
    # F once per stage, and once per point: rk4 points have no stage at their state.
    assert fun_calls == 5 * (points - 1) + 1


def test_rhs_calls_match_dp54_attempts(monkeypatch):
    cfg = d.IntegratorConfig(t_max=3.0, initial_step=1.0)
    calls, attempts, points, fun_calls = _count_rhs_calls(monkeypatch, cfg)
    assert calls == 1 + 6 * attempts
    assert attempts > points - 1  # initial_step 1 is too long: some steps are rejected
    # F once per stage, and once for the t = 0 point: every later point
    # takes its psi from its FSAL stage.
    assert fun_calls == calls + 1


def _record_structures(monkeypatch, module):
    """The eigh argument of every solve_shifted call made from module."""
    seen = []
    real = module.solve_shifted

    def recording(j, a, b, eigh=None):
        seen.append(eigh)
        return real(j, a, b, eigh)

    monkeypatch.setattr(module, "solve_shifted", recording)
    return seen


def _dense(p):
    """p on dense LU: its jac_eigh dropped, and a 1-D jac made the diagonal matrix."""
    if np.ndim(p.jac(np.zeros(p.dim))) == 2:
        return dataclasses.replace(p, jac_eigh=None)
    return dataclasses.replace(p, jac=lambda u: np.diag(p.jac(u)), jac_eigh=None)


@pytest.mark.parametrize(
    "name, path",
    [
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
        # The one eigendecomposition of the matrix jac returns serves the whole run.
        eigh = p.jac_eigh(p.jac(u0))
        assert eigh.eigenvalues.shape == (6,)
        assert all(st is eigh for st in flow_solves)
    else:
        assert set(flow_solves) == {None}
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


@pytest.mark.parametrize("name", ["identity", "diag_cubic"])
def test_every_solver_divides_on_a_diagonal_problem(monkeypatch, name):
    # jac returns the diagonal, so dp54, rk4 and the oracle all divide on
    # it, whatever eigh they pass, and nothing is decomposed.
    shapes = []
    real = dsmflow.linalg.solve_shifted

    def recording(j, a, b, eigh=None):
        shapes.append(np.shape(j))
        return real(j, a, b, eigh)

    for module in (dsmflow.flow, dsmflow.oracle):
        monkeypatch.setattr(module, "solve_shifted", recording)
    eigh_calls = _record_eigh(monkeypatch)
    p = d.make_problem(name, dim=6)
    s, u0 = d.power(1.0, 0.25), np.full(6, 0.5)
    for method in ("dp54", "rk4"):
        d.integrate(p, s, u0, d.IntegratorConfig(t_max=2.0, initial_step=0.1, method=method))
        assert shapes and set(shapes) == {(6,)}
        shapes.clear()
    d.solve_regularized(p, 0.5, u0)
    assert shapes and set(shapes) == {(6,)}
    assert p.jac_eigh is None and not eigh_calls


def test_nothing_is_decomposed_before_a_dp54_stage(monkeypatch, capsys):
    # Only dp54 stages read jac_eigh, so building a problem, rk4, the oracle
    # and the gallery listing take no eigendecomposition.
    calls = _record_eigh(monkeypatch)
    for name in GALLERY_NAMES:
        d.make_problem(name)
    d.make_problem("fredholm_first_kind", dim=512)
    p = d.make_problem("psd_rank_deficient", dim=6)
    s, u0 = d.exponential(1.0, 0.44), np.ones(6)
    d.integrate(p, s, u0, d.IntegratorConfig(t_max=1.0, initial_step=0.1, method="rk4"))
    d.solve_regularized(p, 0.5, u0)
    d.minimal_norm_limit(p)
    assert dsmflow.cli.main(["gallery"]) == 0
    assert capsys.readouterr().err == ""
    assert not calls


def test_eigh_runs_at_most_once_per_problem(monkeypatch):
    # A problem's first dp54 stage takes the one eigendecomposition; every
    # later dp54 run of that object reuses it, and so does a copy whose
    # wrapped jac returns the same matrix, as perfbench's tracer makes.
    calls = _record_eigh(monkeypatch)
    p = d.make_problem("psd_rank_deficient", dim=6)
    s, u0 = d.exponential(1.0, 0.44), np.ones(6)
    for t_max in (1.0, 2.0):
        d.integrate(p, s, u0, d.IntegratorConfig(t_max=t_max))
        assert len(calls) == 1
    wrapped = dataclasses.replace(p, fun=lambda u: p.fun(u), jac=lambda u: p.jac(u))
    d.integrate(wrapped, s, u0, d.IntegratorConfig(t_max=1.0))
    assert len(calls) == 1
    d.integrate(d.make_problem("psd_rank_deficient", dim=6), s, u0, d.IntegratorConfig(t_max=1.0))
    assert len(calls) == 2


@pytest.mark.parametrize("name", ["diag_cubic", "psd_rank_deficient", "fredholm_first_kind"])
def test_problem_without_the_facts_integrates_as_before(monkeypatch, name):
    # Without a jac_eigh, a problem stays on dense LU in dp54 too, and its
    # run is bit for bit the reference loop's on LU.
    flow_solves = _record_structures(monkeypatch, dsmflow.flow)
    p = _dense(d.make_problem(name, dim=6))
    u0 = np.full(6, 0.5)
    assert p.jac_eigh is None
    cfg = d.IntegratorConfig(t_max=8.0, rel_tol=1e-10, abs_tol=1e-12)
    traj = d.integrate(p, d.exponential(1.0, 0.44), u0, cfg)
    assert all(st is None for st in flow_solves)
    _assert_same_trajectory(traj, reference_integrate(p, d.exponential(1.0, 0.44), u0, cfg))


def test_false_jac_eigh_fails_the_certificate():
    # convex_gradient's Jacobian is not constant. Each solve is certified
    # against the Jacobian at its own state, so a jac_eigh taken at one
    # state raises where it would give a wrong direction. (A jac that
    # returns only the diagonal of this Jacobian is certified against
    # itself, and fails check_jacobian instead; see test_operators.)
    dense = d.make_problem("convex_gradient", dim=5)
    s, u0 = d.constant(0.5), np.zeros(5)
    eigh0 = np.linalg.eigh(dense.jac(u0))
    p = dataclasses.replace(dense, jac_eigh=lambda J: eigh0)
    u = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(LinearSolveError, match="structure"):
        d.rhs(p, s, 0.0, u)
    # Taken at the origin, u0 here, the eigendecomposition is right only
    # there: it fails every trial stage away from it, and the run ends.
    np.testing.assert_allclose(d.rhs(p, s, 0.0, u0)[0], d.rhs(dense, s, 0.0, u0)[0], atol=1e-12)
    traj = d.integrate(p, s, u0, d.IntegratorConfig(t_max=5.0))
    assert traj.terminated_by == TERMINATED_STEP_FAILURE and traj.final.t < 1e-3
    # rk4 solves on dense LU whatever the problem states, so it never trips.
    rk4 = d.IntegratorConfig(t_max=1.0, initial_step=0.1, method="rk4")
    _assert_same_trajectory(d.integrate(p, s, u0, rk4), d.integrate(dense, s, u0, rk4))


def test_a_swapped_jac_solves_by_lu():
    # dataclasses.replace(p, jac=...) keeps p's jac_eigh, which gives the
    # eigh of p's own matrix only, so a jac that returns another matrix
    # solves by dense LU: the run steps, byte for byte as with no jac_eigh.
    p = d.make_problem("psd_rank_deficient", dim=6)
    m = p.jac(np.zeros(6))
    swapped = dataclasses.replace(p, jac=lambda u: 2 * m)
    s, u0 = d.exponential(1.0, 0.44), np.ones(6)
    cfg = d.IntegratorConfig(t_max=4.0)
    traj = d.integrate(swapped, s, u0, cfg)
    assert traj.terminated_by != TERMINATED_SOLVE_FAILURE and len(traj.points) > 1
    lu = dataclasses.replace(swapped, jac_eigh=None)
    _assert_same_trajectory(traj, d.integrate(lu, s, u0, cfg))


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
    # Random draws beyond the gallery: dp54 as built against dense LU, and
    # rk4 byte for byte whatever jac_eigh it is given. On a componentwise
    # draw, dividing on the 1-D jac and LU on np.diag(jac) give equal
    # points in both methods.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    p = build(rng, n)
    s = d.exponential(1.0, 0.44)
    _assert_structure_keeps_the_verdicts(p, s, 16.0)
    rk4 = d.IntegratorConfig(t_max=4.0, initial_step=0.05, method="rk4")
    u0 = np.full(n, 0.5)
    for eigh in (None, lambda J: np.linalg.eigh(np.eye(n))):
        q = dataclasses.replace(p, jac_eigh=eigh)
        _assert_same_trajectory(d.integrate(q, s, u0, rk4), d.integrate(p, s, u0, rk4))
    if build is componentwise_monotone_problem:
        dp54 = d.IntegratorConfig(t_max=16.0, rel_tol=1e-10, abs_tol=1e-12, residual_stop=1e-8)
        for cfg in (dp54, rk4):
            divided, lu = (d.integrate(q, s, u0, cfg) for q in (p, _dense(p)))
            assert divided.terminated_by == lu.terminated_by
            assert len(divided.points) == len(lu.points)
            for pt, pt_lu in zip(divided.points, lu.points):
                assert (pt.t, pt.h) == (pt_lu.t, pt_lu.h) and np.array_equal(pt.u, pt_lu.u)


def _assert_structure_keeps_the_verdicts(p, schedule, t_max):
    """dp54 on p as built and on a dense LU copy: the same stop and verdicts,
    and margins within perfbench's tolerances, at the stock configs'
    settings from u0 = 0.5 (so that identity moves too)."""
    dense = _dense(p)
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
        atol = workloads.MARGIN_ATOL_BY_BOUND.get(r.bound_id, workloads.MARGIN_ATOL)
        assert r.worst_margin == pytest.approx(rd.worst_margin, rel=0.0, abs=atol), r.bound_id


@pytest.mark.filterwarnings("error")
def test_jacobian_eigh_cannot_take_stays_on_lu_and_fails_its_certificate():
    # eigh raises LinAlgError on an all-inf symmetric matrix, so the
    # problem's jac_eigh gives None for it. Dense LU's certificate fails at
    # dp54's first stage: the run ends there with solve_failure and its
    # t = 0 point (exit 3 from the CLI), not a stray traceback or a warning.
    m = np.full((3, 3), np.inf)
    p = linear_problem("inf", m, np.ones(3))
    assert p.jac_eigh(m) is None
    traj = d.integrate(p, d.constant(1.0), np.zeros(3), d.IntegratorConfig(t_max=1.0))
    assert traj.terminated_by == TERMINATED_SOLVE_FAILURE
    assert [pt.t for pt in traj.points] == [0.0]
    assert traj.cause.startswith("stage at t=0: shifted solve residual nan")


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
        atol = workloads.MARGIN_ATOL_BY_BOUND.get(r.bound_id, workloads.MARGIN_ATOL)
        assert r.worst_margin == pytest.approx(ro.worst_margin, rel=0.0, abs=atol), r.bound_id


@settings(max_examples=12)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    term=st.sampled_from(["cube", "sinh", "holder"]),
    a0=st.sampled_from([1.0, 0.1]),
)
def test_residual_decays_as_e_to_minus_t_on_random_monotone_problems(n, seed, term, a0):
    # With a constant a, psi' = a' u - psi = -psi, so h(t) = h(0) e^{-t}
    # exactly; dp54 at rel_tol 1e-10 follows it to within 1e-6 relative.
    rng = np.random.default_rng(seed)
    p = monotone_problem(psd_plus_skew(rng, n), term, rng.uniform(-1.0, 1.0, n))
    cfg = d.IntegratorConfig(t_max=8.0, rel_tol=1e-10, abs_tol=1e-12)
    traj = d.integrate(p, d.constant(a0), np.zeros(n), cfg)
    h0 = traj.points[0].h
    assert len(traj.points) > 2
    for pt in traj.points:
        exact = h0 * math.exp(-pt.t)
        assert abs(pt.h - exact) <= 1e-6 * exact, (pt.t, pt.h, exact)


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


@pytest.mark.filterwarnings("error")
def test_singular_first_stage_ends_the_run_without_a_warning():
    # rhs's solve enters no error state of its own: it runs under
    # integrate's _QUIET. J = -I is symmetric, so dp54 solves by eigh, whose
    # division by lam + a = 0 fails the certificate at the first stage.
    p = linear_problem("neg", -np.eye(2), np.ones(2))
    traj = d.integrate(p, d.constant(1.0), np.zeros(2), d.IntegratorConfig(t_max=1.0))
    assert traj.terminated_by == TERMINATED_SOLVE_FAILURE
    assert traj.cause.startswith("stage at t=0: shifted solve residual nan")
