"""Fault matrix: flows that are not the paper's flow, and the checks that see them.

Each fault makes integrate follow a direction other than
u' = -(F'(u) + a(t) I)^{-1} (F(u) + a(t) u - f), on three gallery problems
and nine random monotone draws (DRAWS), under exponential(1, 0.44) to
t_max 32 at deep tolerances. The checks always read the true problem.
residual_dynamics_check, which tests the recorded residuals against
psi' = a' u - psi, fails every fault (worst ratios 1.19 to 7.05e4 on the
gallery and 1.16 to 1.3e5 on the draws, against 0.12 to 0.22 and 0.099 to
0.126 on the clean runs). certify fails four of the six faults, on
EQ_3_8: a flow that decays faster than the paper's, here jac x 0.7 and
rhs x 1.2, stays under every envelope.

A wrong Jacobian in the oracle, not the flow, moves no certificate: its
Newton iteration stops on the residual, whatever F' it steps with.

The converse shows on a random monotone problem with a Hoelder F': the
clean flow passes certify but fails residual_dynamics_check, whose dt^2
tolerance assumes a smooth psi, which the paper's hypothesis (F'
continuous) does not give.
"""

import dataclasses
import functools

import numpy as np
import pytest

import dsmflow as d
from dsmflow import flow
from problems import monotone_problem, psd_linear_problem, psd_plus_skew

PROBLEMS = {"diag_cubic": 8, "psd_rank_deficient": 20, "skew_perturbed": 16}
# Random monotone draws from problems.py, by (kind, seed): F = M u + g(u)
# for a smooth g, and a PSD linear F, which may be singular.
DRAWS = {
    f"{kind}-seed{seed}": (kind, seed) for kind in ("cube", "sinh", "psd_linear") for seed in range(3)
}
SCHEDULE = d.exponential(1.0, 0.44)
CFG = d.IntegratorConfig(t_max=32.0, rel_tol=1e-10, abs_tol=1e-12, residual_stop=1e-8)

_rhs = flow.rhs


def _direction_fault(fault):
    """flow.rhs with fault applied to its direction; psi stays the stage's own."""

    def faulty(p, s, t, u):
        direction, psi = _rhs(p, s, t, u)
        return fault(direction), psi

    return faulty


# Faults of the flow direction, patched over flow.rhs. Each passes on the
# stage's true psi, which a dp54 point records.
RHS_FAULTS = {
    "rhs_x0.9": _direction_fault(lambda k: 0.9 * k),
    "rhs_x1.2": _direction_fault(lambda k: 1.2 * k),
    "rhs_plus_1e-6": _direction_fault(lambda k: k + 1e-6),
    # The direction at a(t - 0.5), held at a(0) until t = 0.5: rhs reads t
    # only through a(t). psi is at a(t).
    "a_late_0.5": lambda p, s, t, u: (
        _rhs(p, s, max(t - 0.5, 0.0), u)[0],
        p.residual(s.value(t), u),
    ),
}
# Factors on the Jacobian the flow solves with.
JAC_FAULTS = {"jac_x1.5": 1.5, "jac_x0.7": 0.7}

# No bound in certify sees these two faults.
_UNSEEN = pytest.mark.xfail(strict=True, reason="ROADMAP item 2")


def _draw(kind, seed):
    """The problems.py draw of kind under default_rng(seed): n first, then M and y."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    if kind == "psd_linear":
        return psd_linear_problem(rng, n)
    return monotone_problem(psd_plus_skew(rng, n), kind, rng.uniform(-1.0, 1.0, n))


def _problem(name):
    if name in PROBLEMS:
        return d.make_problem(name, dim=PROBLEMS[name])
    return _draw(*DRAWS[name])


def _run(name, fault):
    """(true problem, trajectory of its flow under fault); fault None is the clean run."""
    p = _problem(name)
    flown = p
    with pytest.MonkeyPatch.context() as mp:
        if fault in RHS_FAULTS:
            mp.setattr(flow, "rhs", RHS_FAULTS[fault])
        elif fault is not None:
            # The scaled Jacobian is another matrix, so the flow solves with it by LU.
            flown = dataclasses.replace(p, jac=lambda u: JAC_FAULTS[fault] * p.jac(u))
        traj = d.integrate(flown, SCHEDULE, np.zeros(p.dim), CFG)
    return p, traj


@pytest.fixture(scope="module")
def run():
    """_run, each (name, fault) integrated once for this module's tests."""
    return functools.cache(_run)


def _certify_passes(p, traj):
    reports, _, _ = d.certify(traj, p, d.NewtonConfig(), CFG.residual_stop)
    return all(r.passed for r in reports)


@pytest.mark.parametrize("name", [*PROBLEMS, *DRAWS])
def test_clean_runs_pass(run, name):
    p, traj = run(name, None)
    assert traj.terminated_by == "t_max"
    assert d.residual_dynamics_check(traj, p, SCHEDULE).passed
    assert _certify_passes(p, traj)


@pytest.mark.parametrize("fault", [*RHS_FAULTS, *JAC_FAULTS])
@pytest.mark.parametrize("name", [*PROBLEMS, *DRAWS])
def test_dynamics_check_fails_every_fault(run, name, fault):
    p, traj = run(name, fault)
    assert not d.residual_dynamics_check(traj, p, SCHEDULE).passed


@pytest.mark.parametrize(
    "fault",
    [
        "jac_x1.5",
        "rhs_plus_1e-6",
        "rhs_x0.9",
        "a_late_0.5",
        pytest.param("jac_x0.7", marks=_UNSEEN),
        pytest.param("rhs_x1.2", marks=_UNSEEN),
    ],
)
@pytest.mark.parametrize("name", [*PROBLEMS, *DRAWS])
def test_certify_fails_the_fault(run, name, fault):
    p, traj = run(name, fault)
    assert not _certify_passes(p, traj)


@pytest.mark.parametrize("factor", [0.7, 1.5])
@pytest.mark.parametrize("name", PROBLEMS)
def test_a_wrong_oracle_jacobian_changes_no_certificate(run, name, factor):
    # The oracle's Newton stops on its residual test, which pins w to within
    # tol/a whatever Jacobian it steps with: no bound can see a scaled F'
    # in the oracle, only how many steps it takes (ROADMAP item 2).
    p, traj = run(name, None)
    wrong = dataclasses.replace(p, jac=lambda u: factor * p.jac(u))
    cfg = d.NewtonConfig()
    reports, _, _ = d.certify(traj, p, cfg, CFG.residual_stop)
    wrong_reports, _, _ = d.certify(traj, wrong, cfg, CFG.residual_stop)
    assert [r.passed for r in wrong_reports] == [r.passed for r in reports]
    for r, wrong_r in zip(reports, wrong_reports):
        assert wrong_r.worst_margin == pytest.approx(r.worst_margin, rel=0.0, abs=1e-12)


@functools.cache
def _holder_runs():
    """(problem, clean runs from u0 = 0 and u0 = 0.5) of one draw with a Hoelder F'."""
    p = _draw("holder", 2)
    return p, [d.integrate(p, SCHEDULE, np.full(p.dim, u0), CFG) for u0 in (0.0, 0.5)]


def test_certify_passes_the_clean_flow_on_a_hoelder_jacobian():
    p, runs = _holder_runs()
    assert p.dim == 11
    for traj in runs:
        assert traj.terminated_by == "t_max"
        assert _certify_passes(p, traj)


# The check reads worst ratios 34 (t = 2.4e-6) and 243 (t = 0.61) on these
# runs, and finer integration does not cure it (ROADMAP item 2).
@pytest.mark.xfail(strict=True, reason="the dynamics check assumes a smooth psi; ROADMAP item 2")
def test_dynamics_check_passes_the_clean_flow_on_a_hoelder_jacobian():
    p, runs = _holder_runs()
    for traj in runs:
        assert d.residual_dynamics_check(traj, p, SCHEDULE).passed
