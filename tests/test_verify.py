import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dsmflow as d
from dsmflow.flow import Trajectory
from dsmflow.operators import identity
from dsmflow.schedules import RATIO_LIMIT
from dsmflow.verify import SLACK
from oracles import envelope_integral, reference_certify, simpson_integral
from problems import monotone_problem, psd_plus_skew


def test_eq_2_6_fills_distances_and_passes(deep_run, monkeypatch):
    # The check fills the w table that distances_to_w then reads, solving nothing.
    p, s, cfg, traj = deep_run
    traj = dataclasses.replace(traj)
    report = d.check_eq_2_6(traj, p, s)
    assert report.passed
    assert report.checkpoints == len(traj.points)
    calls = _counting_solves(monkeypatch)
    dists = d.distances_to_w(traj, p, d.NewtonConfig())
    assert calls == []
    for pt, dist in zip(traj.points, dists, strict=True):
        assert dist <= pt.h / pt.a + 1e-8 * (1.0 + pt.h / pt.a)


def test_distances_to_w_are_computed_once(deep_run, monkeypatch):
    # verify reads ||u - w|| for EQ_2_6 and again for trajectory.csv: the
    # second call returns the stored distances and does no arithmetic.
    p, s, cfg, traj = deep_run
    traj = dataclasses.replace(traj)
    newton = d.NewtonConfig()
    assert d.check_eq_2_6(traj, p, s, newton).passed
    calls = _counting_solves(monkeypatch)
    first = d.distances_to_w(traj, p, newton)
    assert d.distances_to_w(traj, p, newton) is first
    assert calls == [] and len(first) == len(traj.points)
    assert d.distances_to_w(traj, p, d.NewtonConfig(tol=1e-11)) is not first


def test_eq_2_6_identity_closed_form():
    # f = 0 gives w(t) = 0, so the check reduces to ||u|| <= (1+a)||u||/a.
    p = d.make_problem("identity", dim=4)
    s = d.power(1.0, 0.25)
    traj = d.integrate(p, s, np.ones(4), d.IntegratorConfig(t_max=6.0))
    report = d.check_eq_2_6(traj, p, s)
    assert report.passed
    for pt, dist in zip(traj.points, d.distances_to_w(traj, p, d.NewtonConfig()), strict=True):
        assert dist == pytest.approx(float(np.linalg.norm(pt.u)), abs=1e-11)


def test_eq_2_6_detects_mismatched_problem(deep_run):
    # Certifying against a different right-hand side must fail loudly.
    p, s, cfg, traj = deep_run
    wrong = identity(rhs=[50.0] * p.dim)
    report = d.check_eq_2_6(traj, wrong, s)
    assert not report.passed
    assert report.worst_margin < -SLACK["EQ_2_6"]


def test_eq_2_10_equality_at_start(deep_run):
    p, s, cfg, traj = deep_run
    report = d.check_eq_2_10(traj, p, s)
    assert report.passed
    assert report.worst_t == 0.0
    assert abs(report.worst_margin) <= 1e-9  # equality h(0) = rhs at t = 0


def test_eq_2_10_requires_admissible_schedule(deep_run):
    # integrate refuses power(1, 0.75), so its trajectory is built by hand.
    p, _, _, traj = deep_run
    steep = Trajectory(d.power(1.0, 0.75), traj.points)
    with pytest.raises(ValueError, match="inadmissible"):
        d.check_eq_2_10(steep, p, steep.schedule)


def test_a_schedule_other_than_the_trajectorys_is_refused():
    # Checked against constant(1.0), this exponential run would pass EQ_2_6
    # against the wrong w table (margin +0.378), so every check that still
    # takes a schedule refuses one not its own.
    p = d.make_problem("diag_cubic", dim=4)
    traj = d.integrate(p, d.exponential(1.0, 0.44), np.zeros(4), d.IntegratorConfig(t_max=8.0))
    wrong = d.constant(1.0)
    for check in (d.check_eq_2_6, d.check_eq_2_10, d.residual_dynamics_check):
        with pytest.raises(ValueError, match="is not the trajectory's schedule"):
            check(traj, p, wrong)
    assert traj.w_tables == {}
    # An equal schedule is the trajectory's schedule.
    assert d.check_eq_2_6(traj, p, d.exponential(1.0, 0.44)).passed


def test_records_are_frozen():
    # When a trajectory took assignments, traj.schedule = constant(1.0) on a
    # checked run left EQ_2_6 reading the w table of the old schedule
    # (+0.3917, against +0.3776 on a fresh trajectory). A changed record is
    # now a new one, with a table of its own.
    p = d.make_problem("diag_cubic", dim=4)
    traj = d.integrate(p, d.exponential(1.0, 0.44), np.zeros(4), d.IntegratorConfig(t_max=8.0))
    report = d.check_eq_2_6(traj, p, traj.schedule)
    continuation = d.minimal_norm_limit(p)
    assert isinstance(traj.points, tuple)
    fields = [(traj, f.name) for f in dataclasses.fields(traj)]
    fields += [(traj.final, "t"), (traj.final, "u"), (report, "passed"), (continuation, "converged")]
    for record, name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
    changed = dataclasses.replace(traj, schedule=d.constant(1.0))
    assert changed.points is traj.points and changed.w_tables == {}
    margin = d.check_eq_2_6(changed, p, changed.schedule).worst_margin
    assert margin == pytest.approx(0.3776, abs=1e-4)


def test_eq_3_8_constant_schedule_envelope_is_pure_decay():
    p = d.make_problem("diag_cubic", dim=4)
    s = d.constant(0.9)
    cfg = d.IntegratorConfig(t_max=6.0, rel_tol=1e-11, abs_tol=1e-13)
    traj = d.integrate(p, s, np.zeros(4), cfg)
    report = d.check_eq_3_8(traj, residual_stop=cfg.residual_stop)
    assert report.passed
    assert "c_traj" in report.notes


def test_eq_3_8_identity_power_schedule():
    # h(t) = (1 + a(t)) ||u0|| e^{-t} sits under the envelope with room.
    p = d.make_problem("identity", dim=4)
    cfg = d.IntegratorConfig(t_max=6.0)
    traj = d.integrate(p, d.power(1.0, 0.25), np.ones(4), cfg)
    report = d.check_eq_3_8(traj, residual_stop=cfg.residual_stop)
    assert report.passed


def test_eq_3_8_passes_deep_run(deep_run):
    p, s, cfg, traj = deep_run
    report = d.check_eq_3_8(traj, residual_stop=cfg.residual_stop)
    assert report.passed
    assert report.worst_margin >= -SLACK["EQ_3_8"]


def test_eq_3_8_rejects_step_failure():
    p = d.make_problem("diag_cubic", dim=2)
    cfg = d.IntegratorConfig(t_max=1e15)
    traj = d.integrate(p, d.power(1.0, 0.25), np.zeros(2), cfg)
    assert traj.terminated_by == "step_failure"
    report = d.check_eq_3_8(traj, residual_stop=cfg.residual_stop)
    assert not report.passed
    assert "cannot certify" in report.notes


def test_thm_3_1_passes_deep_run(deep_run):
    p, s, cfg, traj = deep_run
    continuation = d.minimal_norm_limit(p)
    report = d.check_thm_3_1(traj, p, continuation, residual_stop=cfg.residual_stop)
    assert report.passed
    assert "allowed" in report.notes


def test_thm_3_1_requires_decayed_regularizer():
    p = d.make_problem("diag_cubic", dim=3)
    cfg = d.IntegratorConfig(t_max=5.0)
    traj = d.integrate(p, d.power(1.0, 0.25), np.zeros(3), cfg)
    continuation = d.minimal_norm_limit(p)
    report = d.check_thm_3_1(traj, p, continuation, residual_stop=cfg.residual_stop)
    assert not report.passed
    assert "cannot certify" in report.notes


def test_thm_3_1_stationary_start_decided_by_solution_residual():
    # A run that stops instantly with h = 0 is admitted at any a; the
    # solution-residual subcheck then decides. Starting at the true
    # solution passes, starting at a merely regularized solution fails.
    s = d.exponential(1.0, 0.44)
    cfg = d.IntegratorConfig(t_max=30.0)

    p0 = d.make_problem("identity", dim=3)  # f = 0, u0 = 0 solves F(u) = f
    traj0 = d.integrate(p0, s, np.zeros(3), cfg)
    assert traj0.terminated_by == "residual_stop" and traj0.final.t == 0.0
    report0 = d.check_thm_3_1(traj0, p0, d.minimal_norm_limit(p0), residual_stop=cfg.residual_stop)
    assert report0.passed

    p1 = identity(rhs=[1.0, 2.0, -1.0])
    traj1 = d.integrate(p1, s, p1.rhs / 2.0, cfg)  # solves u + a(0) u = f only
    assert traj1.terminated_by == "residual_stop" and traj1.final.t == 0.0
    report1 = d.check_thm_3_1(traj1, p1, d.minimal_norm_limit(p1), residual_stop=cfg.residual_stop)
    assert not report1.passed


def test_thm_3_1_notes_split_the_solution_residual(deep_run):
    # F(u) - f = psi - a u, so ||F(u) - f|| <= h(T) + a(T) ||u(T)||: the
    # notes give both terms and which is the larger.
    p, s, cfg, traj = deep_run
    report = d.check_thm_3_1(traj, p, d.minimal_norm_limit(p), residual_stop=cfg.residual_stop)
    h, bias = traj.final.h, traj.final.a * float(np.linalg.norm(traj.final.u))
    assert float(np.linalg.norm(p.fun(traj.final.u) - p.rhs)) <= h + bias
    order = ">=" if h >= bias else "<"
    assert f"h(T)={h:.3e} {order} a(T)||u(T)||={bias:.3e};" in report.notes
    assert "eps_y_rel=0.01" in report.notes


def test_reports_satisfy_margin_invariant(deep_run):
    p, s, cfg, traj = deep_run
    continuation = d.minimal_norm_limit(p)
    reports = [
        d.check_eq_2_6(traj, p, s),
        d.check_eq_2_10(traj, p, s),
        d.check_eq_3_8(traj, residual_stop=cfg.residual_stop),
        d.check_thm_3_1(traj, p, continuation, residual_stop=cfg.residual_stop),
    ]
    for r in reports:
        assert r.passed == (r.worst_margin >= -SLACK[r.bound_id])


def test_margins_reproduce_bitwise_in_fixed_step_mode():
    p = d.make_problem("diag_cubic", dim=4)
    s = d.power(1.0, 0.25)
    cfg = d.IntegratorConfig(t_max=4.0, initial_step=0.02, method="rk4")
    margins = []
    for _ in range(2):
        traj = d.integrate(p, s, np.zeros(4), cfg)
        traj = dataclasses.replace(traj, points=traj.points[::5])
        r1 = d.check_eq_2_6(traj, p, s)
        r2 = d.check_eq_2_10(traj, p, s)
        r3 = d.check_eq_2_8(traj, p)
        r4 = d.check_eq_3_8(traj, residual_stop=cfg.residual_stop)
        margins.append((r1.worst_margin, r2.worst_margin, r3.worst_margin, r4.worst_margin))
    assert margins[0] == margins[1]


def _reference_eq_3_8(traj, residual_stop):
    """EQ_3_8 envelopes and (worst margin, worst t), integrals by adaptive quadrature."""
    h0 = traj.points[0].h
    c_traj = max(float(np.linalg.norm(pt.u)) for pt in traj.points)
    envelopes = [
        h0 * math.exp(-pt.t) + c_traj * envelope_integral(traj.schedule, pt.t, 1.0)
        for pt in traj.points
    ]
    margins = [(e - pt.h) / max(e, 1e-30) for pt, e in zip(traj.points, envelopes)]
    allowed_final = max(residual_stop, 1e-2 * h0)
    margins.append((allowed_final - traj.final.h) / max(allowed_final, 1e-30))
    worst = int(np.argmin(margins))
    times = [pt.t for pt in traj.points] + [traj.final.t]
    return envelopes, (margins[worst], times[worst])


ENVELOPE_SCHEDULES = [d.power(1.0, 0.25), d.exponential(1.0, 0.44), d.constant(0.9)]

# Relative accuracy of the cell recursion: exact cells for the exponential
# schedule, constant(0.9) included, 8-panel Simpson cells for the power
# schedule (at most 2e-9 on the runs below; 2-panel cells exceed 1e-7).
ENVELOPE_RTOL = {"exponential": 1e-12, "power": 1e-7}


def _recording_envelope(monkeypatch):
    """Record every envelope verify._envelope returns into the list returned."""
    envelopes = []
    envelope = d.verify._envelope

    def recording(*args):
        envelopes.append(envelope(*args))
        return envelopes[-1]

    monkeypatch.setattr(d.verify, "_envelope", recording)
    return envelopes


@pytest.mark.parametrize("method", ["rk4", "dp54"])
@pytest.mark.parametrize("s", ENVELOPE_SCHEDULES, ids=["power", "exponential", "constant"])
def test_eq_3_8_envelope_matches_quad(s, method, monkeypatch):
    # The envelope check_eq_3_8 builds, at every checkpoint, against
    # h0 e^{-t} + c_traj int_0^t e^{x-t} |a'(x)| dx by adaptive quadrature.
    p = d.make_problem("diag_cubic", dim=4)
    cfg = d.IntegratorConfig(t_max=6.0, method=method, initial_step=0.08)
    traj = d.integrate(p, s, np.zeros(4), cfg)
    assert traj.points[0].t == 0.0 and len(traj.points) > 40
    envelopes = _recording_envelope(monkeypatch)
    report = d.check_eq_3_8(traj, residual_stop=cfg.residual_stop)
    (envelope,) = envelopes
    ref_envelope, (ref_margin, ref_t) = _reference_eq_3_8(traj, cfg.residual_stop)
    np.testing.assert_allclose(envelope, ref_envelope, rtol=ENVELOPE_RTOL[s.kind], atol=0.0)
    assert report.worst_t == ref_t
    assert report.worst_margin == pytest.approx(ref_margin, rel=0.0, abs=1e-6)


def _interpolated_eq_2_8_envelope(traj, p):
    """EQ_2_8's envelope with ||w|| linearly interpolated on a fine uniform
    grid of oracle solves and integrated by the scalar 200-panel rule: an
    upper estimate of the envelope the lower sum must stay under."""
    s = traj.schedule
    grid = np.linspace(0.0, traj.final.t, max(401, 4 * len(traj.points) + 1))
    norms = [float(np.linalg.norm(w)) for _, w in d.w_along_schedule(p, s, grid)]

    def integrand(x, t):
        return math.exp((x - t) / 2.0) * abs(s.derivative(x)) * float(np.interp(x, grid, norms))

    h0 = traj.points[0].h
    return np.array([
        h0 * math.exp(-pt.t / 2.0) + simpson_integral(lambda x, t=pt.t: integrand(x, t), pt.t)
        for pt in traj.points
    ])


@pytest.mark.parametrize("method", ["rk4", "dp54"])
@pytest.mark.parametrize("s", ENVELOPE_SCHEDULES, ids=["power", "exponential", "constant"])
def test_eq_2_8_lower_sum_stays_under_interpolated_envelope(s, method, monkeypatch):
    p = d.make_problem("diag_cubic", dim=4)
    cfg = d.IntegratorConfig(t_max=6.0, method=method, initial_step=0.08)
    traj = d.integrate(p, s, np.zeros(4), cfg)
    envelopes = _recording_envelope(monkeypatch)
    report = d.check_eq_2_8(traj, p)
    assert report.passed and report.checkpoints == len(traj.points)
    (envelope,) = envelopes
    h = np.array([pt.h for pt in traj.points])
    margins = (np.array(envelope) - h) / np.array(envelope)
    assert report.worst_margin == margins.min()
    assert np.all(envelope <= _interpolated_eq_2_8_envelope(traj, p) * (1.0 + 1e-6))


@pytest.mark.parametrize("method", ["rk4", "dp54"])
@pytest.mark.parametrize(
    "s",
    ENVELOPE_SCHEDULES + [d.exponential(1.0, 0.5), d.exponential(1.0, 0.6)],
    ids=["power", "exponential", "constant", "exponential-half", "exponential-0.6"],
)
def test_eq_2_8_recursion_with_unit_weight_matches_simpson(s, method):
    # With weight 1 and h0 = 0 the recursion is int_0^t e^{(x-t)/2} |a'(x)| dx,
    # checked against adaptive quadrature. exponential(1, 0.5) takes the
    # rate == k branch of the exact cell.
    p = d.make_problem("diag_cubic", dim=4)
    cfg = d.IntegratorConfig(t_max=6.0, method=method, initial_step=0.08)
    times = [pt.t for pt in d.integrate(p, d.power(1.0, 0.25), np.zeros(4), cfg).points]
    recursion = d.verify._envelope(s, times, 0.0, np.ones(len(times) - 1), 0.5)
    reference = [envelope_integral(s, t, 0.5) for t in times]
    assert recursion[0] == reference[0] == 0.0
    np.testing.assert_allclose(recursion, reference, rtol=ENVELOPE_RTOL[s.kind], atol=0.0)


@pytest.mark.parametrize("fall, passes", [(0.9, True), (1.1, False), (1e3, False)])
def test_eq_2_8_fails_when_the_w_table_falls(fall, passes, monkeypatch):
    # ||w|| is nondecreasing along the run, up to the oracle's error tol/a
    # at each end of a cell. Shrink one w of the table by `fall` times that
    # allowance below its predecessor's norm: within it the check passes,
    # beyond it the lower sum is no bound and the check fails there.
    p = d.make_problem("diag_cubic", dim=4)
    s = d.exponential(1.0, 0.44)
    cfg = d.IntegratorConfig(t_max=4.0, method="rk4", initial_step=0.1)
    traj = d.integrate(p, s, np.zeros(4), cfg)
    tol = d.NewtonConfig().tol
    k = 20
    w_along_schedule = d.w_along_schedule

    def falling(*args):
        table = w_along_schedule(*args)
        (t_prev, w_prev), (t, w) = table[k - 1], table[k]
        allowed = tol / s.value(t_prev) + tol / s.value(t)
        target = float(np.linalg.norm(w_prev)) - fall * allowed
        table[k] = (t, w * (target / float(np.linalg.norm(w))))
        return table

    monkeypatch.setattr(d.verify, "w_along_schedule", falling)
    report = d.check_eq_2_8(traj, p)
    assert report.passed == passes
    if not passes:
        assert report.worst_margin == -1.0
        assert report.worst_t == traj.points[k].t
        assert "cannot certify: ||w|| falls" in report.notes


def _counting_solves(monkeypatch):
    """Record the shift of every oracle solve into the list returned."""
    calls = []
    solve = d.oracle.solve_regularized

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(d.oracle, "solve_regularized", counting)
    monkeypatch.setattr(d.verify, "solve_regularized", counting)
    return calls


def test_eq_2_8_makes_one_oracle_solve_per_point(deep_run, monkeypatch):
    # deep_run is shared, and an earlier check may have left its w table on
    # it; a replace of it starts without one.
    p, s, cfg, traj = deep_run
    traj = dataclasses.replace(traj)
    calls = _counting_solves(monkeypatch)
    assert d.check_eq_2_8(traj, p).passed
    assert calls == [pt.a for pt in traj.points]


def _short_rk4_run():
    p = d.make_problem("diag_cubic", dim=4)
    s = d.exponential(1.0, 0.44)
    cfg = d.IntegratorConfig(t_max=4.0, method="rk4", initial_step=0.1)
    return p, s, d.integrate(p, s, np.zeros(4), cfg)


def test_eq_2_6_and_eq_2_8_share_one_w_table(monkeypatch):
    p, s, traj = _short_rk4_run()
    calls = _counting_solves(monkeypatch)
    assert d.check_eq_2_6(traj, p, s).passed
    assert d.check_eq_2_8(traj, p).passed
    assert len(calls) == len(traj.points)


@pytest.mark.parametrize("eq_2_8_first", [False, True], ids=["eq_2_6-first", "eq_2_8-first"])
def test_shared_w_table_gives_the_reports_of_lone_checks(eq_2_8_first):
    p, s, traj = _short_rk4_run()
    alone_2_6, alone_2_8, shared = (dataclasses.replace(traj) for _ in range(3))
    ref_2_6 = d.check_eq_2_6(alone_2_6, p, s)
    ref_2_8 = d.check_eq_2_8(alone_2_8, p)
    if eq_2_8_first:
        r_2_8 = d.check_eq_2_8(shared, p)
        r_2_6 = d.check_eq_2_6(shared, p, s)
    else:
        r_2_6 = d.check_eq_2_6(shared, p, s)
        r_2_8 = d.check_eq_2_8(shared, p)
    assert r_2_6 == ref_2_6
    assert r_2_8 == ref_2_8
    newton = d.NewtonConfig()
    assert d.distances_to_w(shared, p, newton) == d.distances_to_w(alone_2_6, p, newton)


@pytest.mark.parametrize("change", ["tol", "schedule", "problem"])
def test_w_table_is_solved_again_for_another_key(change, monkeypatch):
    # Same times, but another oracle tolerance, a trajectory under a
    # schedule of another rate, or an equal but distinct problem object:
    # the memo does not apply, and the second check solves its own table.
    p, s, traj = _short_rk4_run()
    other_p, other_cfg, other_traj = p, d.NewtonConfig(), traj
    if change == "tol":
        other_cfg = d.NewtonConfig(tol=1e-11)
    elif change == "schedule":
        other_traj = Trajectory(d.exponential(1.0, 0.4), traj.points)
    else:
        other_p = dataclasses.replace(p)
    calls = _counting_solves(monkeypatch)
    d.check_eq_2_6(traj, p, s)
    d.check_eq_2_6(other_traj, other_p, other_traj.schedule, other_cfg)
    assert len(calls) == 2 * len(traj.points)
    # The second key is now the memo: the same check again reads it.
    d.check_eq_2_6(other_traj, other_p, other_traj.schedule, other_cfg)
    assert len(calls) == 2 * len(traj.points)


@pytest.mark.parametrize(
    "family, param",
    [(d.exponential, 0.449), (d.power, 0.449), (d.exponential, 0.499), (d.power, 0.499)],
    ids=["exp-0.449", "power-0.449", "exp-0.499", "power-0.499"],
)
def test_schedules_just_under_the_ratio_thresholds(family, param):
    # The run is admissible up to the 1/2 limit, and the certificates assume
    # the worst rate there already: EQ_2_8 and EQ_3_8 hold on a short rk4
    # run, long enough for EQ_3_8's final h to fall below 1e-2 h(0) under
    # the slow power schedule (t_max 8 is not).
    p = d.make_problem("diag_cubic", dim=4)
    cfg = d.IntegratorConfig(t_max=16.0, method="rk4", initial_step=0.05)
    s = family(1.0, param)
    report = d.check_admissible(s, horizon=cfg.t_max)
    traj = d.integrate(p, s, np.zeros(4), cfg)
    assert report.pass_2_2 and report.max_ratio < RATIO_LIMIT
    assert traj.terminated_by == "t_max"
    assert d.check_eq_2_8(traj, p).passed
    assert d.check_eq_3_8(traj, residual_stop=cfg.residual_stop).passed


def test_envelopes_of_one_point_trajectory():
    # u0 = 0 solves the identity problem with f = 0, so the run stops at
    # t = 0 and both integrals are the empty integral.
    p = d.make_problem("identity", dim=3)
    cfg = d.IntegratorConfig(t_max=5.0)
    traj = d.integrate(p, d.power(1.0, 0.25), np.zeros(3), cfg)
    assert len(traj.points) == 1 and traj.final.t == 0.0
    assert d.verify._envelope(traj.schedule, [0.0], 0.0, [], 0.5) == [
        envelope_integral(traj.schedule, 0.0, 0.5)
    ] == [0.0]
    report = d.check_eq_2_8(traj, p)
    assert (report.worst_margin, report.worst_t, report.checkpoints) == (0.0, 0.0, 1)
    _, ref_worst = _reference_eq_3_8(traj, cfg.residual_stop)
    report = d.check_eq_3_8(traj, residual_stop=cfg.residual_stop)
    assert (report.worst_margin, report.worst_t) == ref_worst


def test_empty_trajectory_rejected():
    # No check meets an empty trajectory: it cannot be built.
    with pytest.raises(ValueError, match="t = 0 point"):
        Trajectory(d.constant(1.0), points=[], terminated_by="t_max")


def test_serialized_report_round_trips(deep_run):
    p, s, cfg, traj = deep_run
    report = d.check_eq_2_10(traj, p, s)
    blob = report.to_dict()
    assert blob["bound_id"] == "EQ_2_10"
    assert blob["pass"] is True
    assert set(blob) == {"bound_id", "pass", "worst_margin", "worst_t", "checkpoints", "notes"}


_CERTIFY_SCHEDULES = {
    "exponential": d.exponential(1.0, 0.44),
    "power": d.power(1.0, 0.25),
    "constant": d.constant(0.8),
}


@pytest.mark.parametrize("method", ["dp54", "rk4"])
@pytest.mark.parametrize("schedule", sorted(_CERTIFY_SCHEDULES))
@pytest.mark.parametrize("name", d.GALLERY_NAMES)
def test_certify_matches_reference_bitwise(name, schedule, method):
    p = d.make_problem(name, dim=4)
    s = _CERTIFY_SCHEDULES[schedule]
    # t_max 18 takes exponential(1, 0.44) below THM_3_1's a <= 1e-3.
    cfg = d.IntegratorConfig(
        t_max=18.0, initial_step=0.1, method=method, rel_tol=1e-8, abs_tol=1e-10, residual_stop=1e-8
    )
    traj = d.integrate(p, s, np.zeros(p.dim), cfg)
    ref_traj = dataclasses.replace(traj)
    reports, cap, continuation = d.certify(traj, p, d.NewtonConfig(), cfg.residual_stop)
    ref_reports, ref_cap, ref_continuation = reference_certify(
        ref_traj, p, s, d.NewtonConfig(), cfg.residual_stop
    )
    assert reports == ref_reports
    assert cap == ref_cap
    newton = d.NewtonConfig()
    assert d.distances_to_w(traj, p, newton) == d.distances_to_w(ref_traj, p, newton)
    assert (continuation is None) == (schedule == "constant")
    assert ("THM_3_1" in [r.bound_id for r in reports]) == (continuation is not None)
    if continuation is not None:
        assert np.array_equal(continuation.y_estimate, ref_continuation.y_estimate)


def test_certify_does_not_read_the_problem_name():
    # THM_3_1 has one tolerance for every problem: a renamed fredholm
    # problem gets the same reports.
    p = d.make_problem("fredholm_first_kind", dim=10)
    cfg = d.IntegratorConfig(t_max=18.0, rel_tol=1e-10, abs_tol=1e-12, residual_stop=1e-8)
    traj = d.integrate(p, d.exponential(1.0, 0.44), np.zeros(p.dim), cfg)
    reports, _, _ = d.certify(traj, p, d.NewtonConfig(), cfg.residual_stop)
    renamed = dataclasses.replace(p, name="renamed")
    assert "THM_3_1" in [r.bound_id for r in reports]
    assert d.certify(traj, renamed, d.NewtonConfig(), cfg.residual_stop)[0] == reports


def test_certify_solves_cap_once(deep_run, monkeypatch):
    p, s, cfg, traj = deep_run
    shifts = _counting_solves(monkeypatch)
    _, cap, _ = d.certify(dataclasses.replace(traj), p, d.NewtonConfig(), cfg.residual_stop)
    assert shifts.count(s.cap) == 1
    assert cap == d.cap_term(p, s, d.NewtonConfig())


@settings(max_examples=12)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    term=st.sampled_from(["cube", "sinh", "holder"]),
    s=st.sampled_from([d.exponential(1.0, 0.44), d.power(1.0, 0.25)]),
)
# h(16) = 2.99e-3 lies under the envelope, 3.02e-3, but above EQ_3_8's
# vanishing threshold 1e-2 h(0) = 2.58e-3, which that envelope cannot promise.
@example(n=2, seed=489031, term="cube", s=d.power(1.0, 0.25))
def test_decay_envelopes_on_random_monotone_problems(n, seed, term, s):
    # ||w(t)|| is nondecreasing along the schedule up to the oracle's error
    # tol/a at each end, the premise of EQ_2_8's lower sum, and on a short
    # rk4 run EQ_2_8 holds and h stays under EQ_3_8's envelope. The
    # envelope gives EQ_3_8's vanishing test only where it ends below the
    # threshold, so EQ_3_8 may fail only where it does not.
    rng = np.random.default_rng(seed)
    p = monotone_problem(psd_plus_skew(rng, n), term, rng.uniform(-1.0, 1.0, n))
    grid = np.linspace(0.0, 16.0, 161)
    norms = np.array([np.linalg.norm(w) for _, w in d.w_along_schedule(p, s, grid)])
    err = d.NewtonConfig().tol / np.array([s.value(t) for t in grid])
    assert np.all(norms[1:] >= norms[:-1] - err[:-1] - err[1:])
    cfg = d.IntegratorConfig(t_max=16.0, method="rk4", initial_step=0.05)
    traj = d.integrate(p, s, np.zeros(n), cfg)
    assert d.check_eq_2_8(traj, p).passed
    envelopes, _ = _reference_eq_3_8(traj, cfg.residual_stop)
    for pt, e in zip(traj.points, envelopes, strict=True):
        assert pt.h <= (1.0 + SLACK["EQ_3_8"]) * e
    threshold = max(cfg.residual_stop, 1e-2 * traj.points[0].h)
    report = d.check_eq_3_8(traj, residual_stop=cfg.residual_stop)
    assert report.passed or envelopes[-1] > threshold, report.notes


@settings(max_examples=12)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    term=st.sampled_from(["cube", "sinh", "holder"]),
)
def test_thm_3_1_on_strictly_monotone_random_problems(n, seed, term):
    # B B^T / n is positive definite almost surely, so F is strictly
    # monotone and y is the one solution of F(u) = f: the flow's limit
    # matches both the continuation oracle's estimate and y itself.
    rng = np.random.default_rng(seed)
    y = rng.uniform(-1.0, 1.0, n)
    p = monotone_problem(psd_plus_skew(rng, n), term, y)
    cfg = d.IntegratorConfig(t_max=32.0, rel_tol=1e-10, abs_tol=1e-12, residual_stop=1e-8)
    traj = d.integrate(p, d.exponential(1.0, 0.44), np.zeros(n), cfg)
    continuation = d.minimal_norm_limit(p)
    known = d.ContinuationResult(a_values=[0.0], w_values=[y], y_estimate=y, converged=True)
    for oracle_y in (continuation, known):
        report = d.check_thm_3_1(traj, p, oracle_y, residual_stop=cfg.residual_stop)
        assert report.passed, report.notes
