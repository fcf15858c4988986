import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dsmflow
import dsmflow.cli as cli
from dsmflow import flow, oracle, verify
from dsmflow.cli import RunConfig
from dsmflow.errors import LinearSolveError
from dsmflow.flow import Trajectory, TrajectoryPoint

import workloads  # perfbench/workloads.py, put on the path by conftest.py
from problems import nan_jacobian_problem

# Every warning is an error: the CLI's contract is an exit code and its own
# message, and a stray warning is neither.
pytestmark = pytest.mark.filterwarnings("error")

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# The largest double: a0 * (1 + CAP_MARGIN) overflows to inf.
LARGEST_A0 = 1.7976931348623157e308


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "problem": "diag_cubic",
        "dim": 4,
        "schedule": {"kind": "exponential", "a0": 1.0, "param": 0.44},
        "integrator": {"t_max": 32.0, "rel_tol": 1e-10, "abs_tol": 1e-12, "residual_stop": 1e-8},
        "oracle": {"tol": 1e-12, "max_iters": 100},
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_run_writes_trajectory_and_metadata(tmp_path):
    path, cfg = write_config(tmp_path)
    assert cli.main(["run", str(path)]) == 0
    out = tmp_path / "out"
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,a,h,norm_u,dist_to_w,bound_2_6_rhs,bound_2_10_rhs"
    assert len(lines) > 2
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[4] == ""  # dist_to_w empty until verified
    meta = json.loads((out / "run.json").read_text())
    assert meta["terminated_by"] == "t_max"
    assert meta["points_recorded"] == len(lines) - 1


def test_run_json_round_trips_config(tmp_path):
    path, _ = write_config(tmp_path)
    assert cli.main(["run", str(path)]) == 0
    meta = json.loads((tmp_path / "out" / "run.json").read_text())
    rebuilt = RunConfig.from_dict(meta["config"])
    assert rebuilt == cli.load_config(path)
    assert dataclasses.asdict(rebuilt) == meta["config"]


def test_run_missing_config_is_validation_error(tmp_path):
    assert cli.main(["run", str(tmp_path / "nope.json")]) == 2


def test_run_unknown_problem(tmp_path):
    path, _ = write_config(tmp_path, problem="does_not_exist")
    assert cli.main(["run", str(path)]) == 2


def test_run_rejects_inadmissible_ratio(tmp_path, capsys):
    path, _ = write_config(tmp_path, schedule={"kind": "power", "a0": 1.0, "param": 0.75})
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "0.75" in err and "0.5" in err


def test_inadmissible_message_names_the_failed_condition(tmp_path, capsys):
    # exponential(1, 0.44) underflows to a = 0 long before t = 2000: the
    # message blames positivity, not the ratio, which is admissible.
    path, _ = write_config(tmp_path, integrator={"t_max": 2000.0})
    for command in ("run", "verify", "oracle"):
        assert cli.main([command, str(path)]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error:") and "a(t_max) = a(2000) = 0 must be positive" in err
        assert "sup |a'|/a" not in err
    # With a ratio of 0.75 as well, both conditions are named.
    path, _ = write_config(
        tmp_path,
        schedule={"kind": "exponential", "a0": 1.0, "param": 0.75},
        integrator={"t_max": 2000.0},
    )
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "sup |a'|/a = 0.75 must stay below 0.5; a(t_max)" in err
    assert "cap" not in err


@pytest.mark.parametrize(
    "kind,param", [("exponential", 0.44), ("power", 0.75), ("exponential", 0.75)]
)
def test_integrate_and_eq_2_10_raise_the_text_the_cli_prints(tmp_path, capsys, kind, param):
    # One reason text, from the admissibility report, for every refusal.
    schedule = {"kind": kind, "a0": 1.0, "param": param}
    path, _ = write_config(tmp_path, schedule=schedule, integrator={"t_max": 2000.0})
    assert cli.main(["run", str(path)]) == 2
    printed = capsys.readouterr().err
    s, p = dsmflow.Schedule(**schedule), dsmflow.make_problem("diag_cubic", dim=4)
    with pytest.raises(ValueError) as flow_err:
        dsmflow.integrate(p, s, np.zeros(p.dim), dsmflow.IntegratorConfig(t_max=2000.0))
    zero = np.zeros(p.dim)
    traj = Trajectory(s, [TrajectoryPoint(t, zero, s.value(t), zero, 1.0) for t in (0.0, 2000.0)])
    with pytest.raises(ValueError) as verify_err:
        dsmflow.check_eq_2_10(traj, p, s)
    assert printed == f"error: {flow_err.value}\n" == f"error: {verify_err.value}\n"


@pytest.mark.parametrize(
    "overrides",
    [
        {"integrator": {"t_max": float("inf"), "method": "rk4"}},
        {"integrator": {"t_max": float("nan")}},
        {"integrator": {"t_max": 4.0, "initial_step": float("inf"), "method": "rk4"}},
        {"integrator": {"t_max": 4.0, "residual_stop": float("inf")}},
        {"oracle": {"tol": float("inf")}},
        # No longer fields: unknown keys, and so validation errors too.
        {"integrator": {"t_max": 1.0, "max_steps": 1.5}},
        {"integrator": {"t_max": 1.0, "record_stride": 2.5}},
        {"oracle": {"max_iters": 2.5}},
        {"dim": 4.7},
        {"seed": 0.5},
        {"problem": ["x"]},
        {"dim": True},
        {"integrator": {"t_max": True}},
        {"seed": True},
        {"oracle": {"max_iters": True}},
        {"integrator": {"t_max": 10**400}},
        {"integrator": {"t_max": 4.0, "rel_tol": 10**400}},
        {"integrator": {"t_max": 4.0, "initial_step": 10**400}},
        {"oracle": {"tol": 10**400}},
        {"schedule": {"kind": "exponential", "a0": 1.0, "param": 10**400}},
        {"seed": -1},
        {"output_dir": None},
        {"integratr": {"t_max": 1.0}},
        # t_max / initial_step overflows to inf, too many rk4 steps to count.
        {"dim": 2, "integrator": {"t_max": 10, "initial_step": 5e-324, "method": "rk4"}},
    ],
    ids=[
        "t_max-inf",
        "t_max-nan",
        "initial_step-inf",
        "residual_stop-inf",
        "tol-inf",
        "max_steps",
        "record_stride",
        "max_iters",
        "dim",
        "seed",
        "problem-list",
        "dim-true",
        "t_max-true",
        "seed-true",
        "max_iters-true",
        "t_max-huge-int",
        "rel_tol-huge-int",
        "initial_step-huge-int",
        "tol-huge-int",
        "param-huge-int",
        "seed-negative",
        "output_dir-null",
        "unknown-key",
        "rk4-step-count-inf",
    ],
)
def test_malformed_numbers_are_validation_errors(tmp_path, capsys, monkeypatch, overrides):
    # json writes inf and nan as Infinity and NaN, which json.loads reads
    # back, and an integer of any size exactly: 10**400 is no float.
    path, _ = write_config(tmp_path, **overrides)
    # A null output_dir must not become a directory named None here.
    monkeypatch.chdir(tmp_path)
    for command in ("run", "verify", "oracle"):
        assert cli.main([command, str(path)]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, (command, err)
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name], command


def exponential(**fields):
    return {"schedule": {"kind": "exponential", **fields}}


@pytest.mark.parametrize("command", ["run", "verify", "oracle"])
@pytest.mark.parametrize(
    "overrides, message",
    [
        (exponential(a0=True, param=0.44), "a0 must be a number, got True"),
        (exponential(a0=1.0, param=True), "param must be a number, got True"),
        (exponential(a0=1.0, param="0.44"), "param must be a number, got '0.44'"),
        (exponential(a0="1.0", param=0.44), "a0 must be a number, got '1.0'"),
        (exponential(a0=1.0, rate=0.44), "unexpected keyword argument 'rate'"),
        (exponential(a0=10**400, param=0.44), "too large to convert to float"),
        # a0 * (1 + CAP_MARGIN) rounds back to a subnormal a0, and overflows
        # to inf at the largest double: neither has a finite cap above it.
        (exponential(a0=1e-320, param=0.44), "below its cap"),
        (exponential(a0=LARGEST_A0, param=0.44), "below its cap"),
        # The derived cap, and with it EQ_2_10, holds only for a nonincreasing
        # a(t): a growing one must stop at the config gate, not in a check.
        (
            {"schedule": {"kind": "power", "a0": 1.0, "param": -0.25}, "integrator": {"t_max": 1e-6}},
            "param must be nonnegative",
        ),
        # A constant a(t) is the exponential schedule at rate 0.
        ({"schedule": {"kind": "constant", "a0": 0.8}}, "unknown schedule kind 'constant'"),
        # Every accepted step is recorded and the step cap is flow.MAX_STEPS:
        # a config, or a run.json written when either was a setting, that
        # sets one is refused.
        ({"integrator": {"t_max": 4.0, "record_stride": 1}}, "unexpected keyword argument 'record_stride'"),
        ({"integrator": {"t_max": 4.0, "max_steps": 200_000}}, "unexpected keyword argument 'max_steps'"),
    ],
    ids=[
        "a0-true",
        "param-true",
        "param-string",
        "a0-string",
        "unknown-key",
        "a0-huge-int",
        "a0-subnormal",
        "a0-largest",
        "param-negative",
        "kind-constant",
        "record_stride",
        "max_steps",
    ],
)
def test_schedule_numbers_are_strict(tmp_path, capsys, command, overrides, message):
    # A JSON true or a string is no schedule number, an unknown key is no
    # field, and a schedule needs a finite cap above a0 and no growth: no
    # coercion, one line of error, and nothing written.
    path, _ = write_config(tmp_path, **overrides)
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid run config:") and message in err
    assert err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_stock_configs_load_and_cover_the_gallery():
    # `dsmflow verify` over configs/*.json is how the whole gallery is certified.
    paths = sorted(CONFIGS.glob("*.json"))
    problems = {cli.load_config(path).problem for path in paths}
    assert problems == set(dsmflow.GALLERY_NAMES)


@pytest.mark.parametrize(
    "command, config, code, err",
    [
        ("run", "diag_cubic", 0, ""),
        ("oracle", "diag_cubic", 0, ""),
        # THM_3_1 cannot certify this short power-schedule run: exit 1 by
        # design, with the verdict alone on stderr.
        ("verify", "power_schedule_short", 1, "failed checks: THM_3_1\n"),
    ],
    ids=["run-diag_cubic", "oracle-diag_cubic", "verify-power_schedule_short"],
)
def test_stock_config_end_to_end(tmp_path, capsys, monkeypatch, command, config, code, err):
    # In process, with every test dependency importable; the NumPy-only
    # child in test_runtime.py runs the same calls without them.
    # The stock output_dir is relative, so the outputs land in tmp_path.
    monkeypatch.chdir(tmp_path)
    assert cli.main([command, str(CONFIGS / f"{config}.json")]) == code
    assert capsys.readouterr().err == err


def test_every_oracle_solve_is_a_newton_step_of_solve_regularized(tmp_path, monkeypatch):
    # verify on the stock configs of the configs_verify benchmark workload,
    # read from the benchmark itself: each shifted solve the oracle makes is
    # inside a solve_regularized call, wherever that call was looked up (the
    # oracle's warm-start chain, verify's cap solve, the cli module), so
    # counting Newton iterations counts the oracle's solves.
    monkeypatch.chdir(tmp_path)
    count = {"depth": 0, "solves": 0, "outside": 0}
    solve_shifted, solve_regularized = oracle.solve_shifted, oracle.solve_regularized

    def counted_solve(*args, **kwargs):
        count["solves"] += 1
        count["outside"] += count["depth"] == 0
        return solve_shifted(*args, **kwargs)

    def counted_regularized(*args, **kwargs):
        count["depth"] += 1
        try:
            return solve_regularized(*args, **kwargs)
        finally:
            count["depth"] -= 1

    monkeypatch.setattr(oracle, "solve_shifted", counted_solve)
    for module in (oracle, verify, cli):
        monkeypatch.setattr(module, "solve_regularized", counted_regularized)
    stems = workloads.STOCK_CONFIGS
    codes = {stem: cli.main(["verify", str(CONFIGS / f"{stem}.json")]) for stem in stems}
    assert codes == {stem: int(stem == "power_schedule_short") for stem in stems}
    assert count["solves"] > 0 and count["outside"] == 0, count


def test_fixed_step_verify_certifies(tmp_path):
    integrator = {"t_max": 32.0, "initial_step": 0.05, "method": "rk4"}
    path, _ = write_config(tmp_path, dim=None, integrator=integrator)
    assert cli.main(["verify", str(path)]) == 0


def test_run_step_failure_exit_code(tmp_path):
    path, _ = write_config(
        tmp_path,
        schedule={"kind": "power", "a0": 1.0, "param": 0.25},
        integrator={"t_max": 1e15},
    )
    assert cli.main(["run", str(path)]) == 3
    meta = json.loads((tmp_path / "out" / "run.json").read_text())
    assert meta["terminated_by"] == "step_failure"


@pytest.mark.parametrize("command", ["run", "verify"])
def test_overflowing_trial_states_end_in_step_failure_without_a_warning(tmp_path, capsys, command):
    # At a = 1e-300 the flow's trial stages reach states where u^3 and
    # 3 u^2 overflow. The certificate and the error test reject them with no
    # RuntimeWarning (an error here), and the run ends in step failure,
    # exit 3, with no oracle solve after it.
    path, _ = write_config(
        tmp_path,
        schedule={"kind": "exponential", "a0": 1e-300, "param": 0.0},
        integrator={"t_max": 2.0},
    )
    assert cli.main([command, str(path)]) == 3
    assert capsys.readouterr().err == "error: step size underflow (step_failure)\n"


def test_norms_stay_right_where_their_squares_underflow(tmp_path, capsys):
    # At a0 = 1e300, u and w_C are about f / a, some 3e-300, whose squares
    # underflow. A dot-product norm read 0 for them: norm_u was 0 after t = 0,
    # C ||w_C|| was 0, so EQ_2_10 failed, and ||u - w|| was 0, so EQ_2_6 held
    # by a margin of h/a. EQ_3_8 fails on its final-residual test, h(4) =
    # 0.968 against 1e-2 h(0), and THM_3_1 because a has not decayed.
    path, _ = write_config(
        tmp_path,
        schedule={"kind": "exponential", "a0": 1e300, "param": 0.44},
        integrator={"t_max": 4.0},
    )
    assert cli.main(["verify", str(path)]) == 1
    assert capsys.readouterr().err == "failed checks: EQ_3_8, THM_3_1\n"
    out = tmp_path / "out"
    bounds = {r["bound_id"]: r for r in json.loads((out / "bounds.json").read_text())["bounds"]}
    assert bounds["EQ_2_10"]["pass"]
    assert "C*||w_C||=3.18104;" in bounds["EQ_2_10"]["notes"]
    assert bounds["EQ_2_6"]["pass"]
    assert abs(bounds["EQ_2_6"]["worst_margin"]) < 1e-310
    assert "final h=9.678e-01 vs 3.181e-02;" in bounds["EQ_3_8"]["notes"]
    rows = [line.split(",") for line in (out / "trajectory.csv").read_text().splitlines()[1:]]
    norm_u = [float(row[3]) for row in rows]
    assert norm_u[0] == 0.0
    assert 3.17e-302 < norm_u[1] == min(norm_u[1:]) < 3.18e-302
    assert 1.28e-299 < norm_u[-1] == max(norm_u) < 1.29e-299


# An rk4 run whose h overflows: each step of 32 multiplies h by about 3.9e4.
DIVERGING_RK4 = {
    "problem": "psd_rank_deficient",
    "dim": 4,
    "schedule": {"kind": "exponential", "a0": 1.0, "param": 0.0},
    "integrator": {"t_max": 1280.0, "initial_step": 32.0, "method": "rk4"},
}


@pytest.mark.parametrize(
    "command, reason",
    [
        (command, reason)
        for reason in ("solve_failure", "max_steps", "non_finite")
        for command in ("run", "verify")
    ],
    ids=["run", "verify", "run-max_steps", "verify-max_steps", "run-non_finite", "verify-non_finite"],
)
def test_solve_failure_exit_code(tmp_path, capsys, monkeypatch, command, reason):
    # A run that does not finish: every shifted solve fails, so the flow ends
    # at its t = 0 point, or the attempted steps are capped at 7, far short
    # of t_max, or an rk4 step reaches a point whose h overflows, which is
    # not recorded. The run's outputs land, every number in them finite
    # where the run finished none, neither command makes an oracle solve,
    # and main returns 3 rather than raising, warning or passing. The one
    # error line names the reason, and a failed solve's cause.
    if reason == "solve_failure":
        monkeypatch.setattr(cli, "make_problem", lambda *args, **kwargs: nan_jacobian_problem())
        path, _ = write_config(tmp_path)
        out, max_points = tmp_path / "out", 1
        error = (
            "error: a shifted solve failed its residual certificate (solve_failure): "
            "stage at t=0: shifted solve residual nan exceeds certificate"
        )
    elif reason == "max_steps":
        monkeypatch.setattr(flow, "MAX_STEPS", 7)
        monkeypatch.chdir(tmp_path)
        path = CONFIGS / "diag_cubic.json"
        out, max_points = tmp_path / cli.load_config(path).output_dir, 8
        error = "error: the run reached flow.MAX_STEPS attempted steps before t_max (max_steps)"
    else:
        path, _ = write_config(tmp_path, **DIVERGING_RK4)
        out, max_points = tmp_path / "out", 40
        error = "error: the residual norm h of a new point is not finite (non_finite)"
    oracle_solves = []
    solve_regularized = oracle.solve_regularized

    def counted(*args, **kwargs):
        oracle_solves.append(args)
        return solve_regularized(*args, **kwargs)

    for module in (oracle, verify, cli):
        monkeypatch.setattr(module, "solve_regularized", counted)
    assert cli.main([command, str(path)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(error) if reason == "solve_failure" else line == error
    meta = json.loads((out / "run.json").read_text())
    assert meta["terminated_by"] == reason
    # The t = 0 point, and at most one point per attempted step.
    rows = [row.split(",") for row in (out / "trajectory.csv").read_text().splitlines()[1:]]
    assert len(rows) == meta["points_recorded"] <= max_points
    if reason != "solve_failure":  # that run's F is finite, its Jacobian NaN
        assert np.isfinite(meta["h_final"])
        assert all(np.isfinite(float(cell)) for row in rows for cell in row if cell)
    assert not (out / "bounds.json").exists()
    assert oracle_solves == []


@pytest.mark.parametrize(
    "command, overrides, code, left",
    [
        (
            "verify",
            {"oracle": {"tol": 1e-300, "max_iters": 1}, "integrator": {"t_max": 4.0}},
            3,
            ["run.json", "trajectory.csv"],
        ),
        ("verify", {"problem": "non_monotone_fixture", "integrator": {"t_max": 5.0}}, 1, ["bounds.json"]),
        (
            "verify",
            {"schedule": {"kind": "power", "a0": 1.0, "param": 0.25}, "integrator": {"t_max": 1e15}},
            3,
            ["run.json", "trajectory.csv"],
        ),
        ("run", {"oracle": {"tol": 1e-300, "max_iters": 1}, "integrator": {"t_max": 4.0}}, 3,
         ["run.json", "trajectory.csv"]),
    ],
    ids=["verify-oracle-failure", "verify-not-monotone", "verify-step-failure", "run-after-verify"],
)
def test_outputs_of_an_earlier_run_are_cleared(tmp_path, command, overrides, code, left):
    # A passing verify first fills the directory; what the second command
    # leaves there is its own output only.
    good, _ = write_config(tmp_path, name="good.json")
    assert cli.main(["verify", str(good)]) == 0
    path, _ = write_config(tmp_path, **overrides)
    assert cli.main([command, str(path)]) == code
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == left
    if "run.json" in left:
        meta = json.loads((out / "run.json").read_text())
        assert meta["config"] == dataclasses.asdict(cli.load_config(path))


@pytest.mark.parametrize(
    "stem, max_steps",
    [*((path.stem, None) for path in sorted(CONFIGS.glob("*.json"))), ("diag_cubic", 7)],
    ids=[*(path.stem for path in sorted(CONFIGS.glob("*.json"))), "diag_cubic-max_steps"],
)
def test_run_and_verify_land_one_run_the_same_way(tmp_path, monkeypatch, stem, max_steps):
    # One run, two commands: verify's run.json is run's byte for byte, and
    # its trajectory.csv is run's with dist_to_w filled in, whether the run
    # finishes or not (attempted steps capped at 7).
    if max_steps is not None:
        monkeypatch.setattr(flow, "MAX_STEPS", max_steps)
    config = CONFIGS / f"{stem}.json"
    dist_to_w = cli.TRAJECTORY_COLUMNS.index("dist_to_w")
    outputs = []
    for command in ("run", "verify"):
        (tmp_path / command).mkdir()
        monkeypatch.chdir(tmp_path / command)
        cli.main([command, str(config)])
        out = Path(cli.load_config(config).output_dir)
        rows = [line.split(",") for line in (out / "trajectory.csv").read_text().splitlines()]
        for row in rows:
            del row[dist_to_w]
        outputs.append(((out / "run.json").read_bytes(), rows))
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize(
    "command, blocked, overrides, left",
    [
        ("run", "run.json.tmp", {}, ["run.json.tmp", "trajectory.csv"]),
        ("verify", "bounds.json.tmp", {}, ["bounds.json.tmp", "run.json", "trajectory.csv"]),
        ("oracle", "continuation.csv.tmp", {}, ["continuation.csv.tmp"]),
        # The write error replaces the oracle error already in flight.
        (
            "verify",
            "run.json.tmp",
            {"oracle": {"tol": 1e-300, "max_iters": 1}, "integrator": {"t_max": 4.0}},
            ["run.json.tmp", "trajectory.csv"],
        ),
    ],
    ids=["run", "verify", "oracle", "verify-oracle-failure"],
)
def test_output_that_cannot_be_written_is_a_validation_error(
    tmp_path, capsys, command, blocked, overrides, left
):
    # A directory where an output's temporary file goes: exit 2 and one
    # error line, never a traceback.
    path, _ = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert cli.main([command, str(path)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith(f"error: output_dir {str(out)!r} cannot hold the outputs: ")
    assert err.endswith(f"{out / blocked}'")
    assert sorted(p.name for p in out.iterdir()) == left


@pytest.mark.parametrize("command", ["run", "verify", "oracle"])
def test_output_dir_that_is_a_file_is_a_validation_error(tmp_path, capsys, command):
    afile = tmp_path / "afile"
    afile.write_text("")
    path, _ = write_config(tmp_path, output_dir=str(afile))
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "output_dir" in err
    assert afile.read_text() == ""


@pytest.mark.parametrize(
    "command, code, line",
    [
        ("oracle", 3, "error: continuation failed at a=1: "),
        ("run", 3, "error: no convergence in 1 iterations at a=1"),
        ("verify", 3, "error: oracle failed at t=0: "),
    ],
    ids=["oracle", "run", "verify"],
)
def test_each_command_reports_an_oracle_that_cannot_converge(tmp_path, capsys, command, code, line):
    # The finished run's own files land, with the oracle's columns empty.
    path, _ = write_config(
        tmp_path,
        dim=None,
        schedule={"kind": "power", "a0": 1.0, "param": 0.25},
        oracle={"tol": 1e-300, "max_iters": 1},
        integrator={"t_max": 4.0},
    )
    assert cli.main([command, str(path)]) == code
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith(line)
    out = tmp_path / "out"
    if command != "oracle":
        assert sorted(p.name for p in out.iterdir()) == ["run.json", "trajectory.csv"]
        rows = [text.split(",") for text in (out / "trajectory.csv").read_text().splitlines()[1:]]
        assert {(row[4], row[6]) for row in rows} == {("", "")}


def test_oracle_clears_an_earlier_continuation(tmp_path):
    # A failed oracle leaves no converged continuation.csv from an earlier run.
    good, _ = write_config(tmp_path, name="good.json")
    assert cli.main(["oracle", str(good)]) == 0
    assert (tmp_path / "out" / "continuation.csv").is_file()
    path, _ = write_config(tmp_path, oracle={"tol": 1e-300, "max_iters": 1})
    assert cli.main(["oracle", str(path)]) == 3
    assert list((tmp_path / "out").iterdir()) == []


def test_verify_identity_all_pass(tmp_path):
    path, _ = write_config(tmp_path, problem="identity", dim=6)
    assert cli.main(["verify", str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "bounds.json").read_text())
    ids = [b["bound_id"] for b in payload["bounds"]]
    assert ids == ["EQ_2_6", "EQ_2_10", "EQ_3_8", "THM_3_1", "LEMMA_2_1"]
    assert all(b["pass"] for b in payload["bounds"])
    assert payload["schedule_admissibility"]["pass_2_2"]
    assert payload["monotonicity"]["pass"]
    assert payload["continuation"]["converged"]


def test_verify_fills_dist_to_w(tmp_path):
    path, _ = write_config(tmp_path)
    assert cli.main(["verify", str(path)]) == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    for line in lines[1:]:
        assert line.split(",")[4] != ""


def test_verify_non_monotone_fixture_names_the_check(tmp_path, capsys):
    path, _ = write_config(
        tmp_path,
        problem="non_monotone_fixture",
        dim=4,
        integrator={"t_max": 5.0},
    )
    assert cli.main(["verify", str(path)]) == 1
    assert "monotonicity" in capsys.readouterr().err
    payload = json.loads((tmp_path / "out" / "bounds.json").read_text())
    assert not payload["monotonicity"]["pass"]
    assert payload["bounds"] == []


def test_verify_nan_operator_fails_monotonicity(tmp_path, capsys, monkeypatch):
    make = cli.make_problem

    def nan_problem(*args, **kwargs):
        p = make(*args, **kwargs)
        return dataclasses.replace(p, fun=lambda u: np.full(p.dim, np.nan))

    monkeypatch.setattr(cli, "make_problem", nan_problem)
    path, _ = write_config(tmp_path)
    assert cli.main(["verify", str(path)]) == 1
    assert "FAIL monotonicity: min pairing nan < 0" in capsys.readouterr().err
    payload = json.loads((tmp_path / "out" / "bounds.json").read_text())
    assert not payload["monotonicity"]["pass"]


def test_verify_oracle_solve_failure_is_runtime_error(tmp_path, capsys, monkeypatch):
    def failing_solve(*args):
        raise LinearSolveError("injected oracle solve failure")

    # The flow looks solve_shifted up on its own module, so only the oracle fails.
    monkeypatch.setattr(dsmflow.oracle, "solve_shifted", failing_solve)
    path, _ = write_config(tmp_path)
    assert cli.main(["verify", str(path)]) == 3
    assert capsys.readouterr().err == "error: injected oracle solve failure\n"


def test_verify_solves_cap_once(tmp_path, monkeypatch):
    path, _ = write_config(tmp_path)
    cap = cli.load_config(path).schedule.cap
    shifts = []
    solve = dsmflow.oracle.solve_regularized

    def counting(p, a, *args, **kwargs):
        shifts.append(a)
        return solve(p, a, *args, **kwargs)

    # Every module that binds the name, so no lookup site escapes the count.
    for mod in (dsmflow.oracle, dsmflow.verify, cli):
        monkeypatch.setattr(mod, "solve_regularized", counting, raising=False)
    assert cli.main(["verify", str(path)]) == 0
    assert shifts.count(cap) == 1


def test_verify_fredholm_passes_at_the_one_thm_3_1_tolerance(tmp_path):
    path, _ = write_config(
        tmp_path,
        problem="fredholm_first_kind",
        dim=60,
        integrator={"t_max": 33.0, "rel_tol": 1e-10, "abs_tol": 1e-12, "residual_stop": 1e-8},
    )
    assert cli.main(["verify", str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "bounds.json").read_text())
    thm = next(b for b in payload["bounds"] if b["bound_id"] == "THM_3_1")
    assert "eps_y_rel=0.01" in thm["notes"]


def test_verify_constant_schedule_skips_limit_check(tmp_path):
    # A constant a(t) is the exponential family at rate 0, param's default.
    path, _ = write_config(
        tmp_path,
        schedule={"kind": "exponential", "a0": 0.8},
        integrator={"t_max": 6.0, "rel_tol": 1e-11, "abs_tol": 1e-13},
    )
    assert cli.main(["verify", str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "bounds.json").read_text())
    ids = [b["bound_id"] for b in payload["bounds"]]
    assert "THM_3_1" not in ids
    assert payload["skipped"] == ["THM_3_1: schedule does not decay to zero"]
    assert all(b["pass"] for b in payload["bounds"])


def test_verify_states_a_ratio_near_the_limit_in_bounds_json_alone(tmp_path, capsys):
    # Near the 1/2 limit the schedule's ratio has one channel, the
    # admissibility record: no warning (an error here) and nothing on stderr
    # but the verdict. At t_max 4 the final h is still above 1e-2 h(0), and
    # THM_3_1 cannot certify a regularizer still at a(4) = 0.15: verify exits 1.
    path, _ = write_config(
        tmp_path,
        schedule={"kind": "exponential", "a0": 1.0, "param": 0.47},
        integrator={"t_max": 4.0},
    )
    for command, code, err in (("run", 0, ""), ("verify", 1, "failed checks: EQ_3_8, THM_3_1\n")):
        assert cli.main([command, str(path)]) == code
        assert capsys.readouterr().err == err, command
    payload = json.loads((tmp_path / "out" / "bounds.json").read_text())
    admissibility = payload["schedule_admissibility"]
    assert admissibility["max_ratio"] == 0.47 and "grid_points" not in admissibility


def test_gallery_lists_six_rows(capsys):
    assert cli.main(["gallery"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 7  # header + six problems
    assert out[0].split() == ["name", "dim", "jacobian_structure", "known_y", "null_dim"]
    rows = {row.split()[0]: row.split()[2] for row in out[1:]}
    # "diagonal" is read off jac, which returns a diagonal as a vector.
    assert rows == {
        "identity": "diagonal",
        "diag_cubic": "diagonal",
        "psd_rank_deficient": "symmetric_constant",
        "fredholm_first_kind": "symmetric_constant",
        "skew_perturbed": "dense",
        "convex_gradient": "dense",
    }
    assert out[1].split()[:3] == ["identity", "10", "diagonal"]


def test_check_schedule_pass_and_fail(capsys):
    assert cli.main(["check-schedule", "power", "1.0", "0.25"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("schedule: {'kind': 'power', 'a0': 1.0, 'param': 0.25}\n")
    assert "max_ratio=0.25" in out and err == ""
    # A failing schedule gets the reason run, verify and oracle refuse it with.
    assert cli.main(["check-schedule", "power", "1.0", "0.75"]) == 1
    assert capsys.readouterr().err == "schedule is inadmissible: sup |a'|/a = 0.75 must stay below 0.5\n"
    # A constant schedule is exponential at rate 0: admissible, never decaying.
    assert cli.main(["check-schedule", "exponential", "2.0"]) == 0
    assert capsys.readouterr() == (
        "schedule: {'kind': 'exponential', 'a0': 2.0, 'param': 0.0}\n"
        "max_ratio=0 positive=True pass_2_2=True pass_3_3=False\n",
        "",
    )
    assert cli.main(["check-schedule", "power", "-1.0", "0.25"]) == 2
    assert cli.main(["check-schedule", "power", "1.0", "-0.25"]) == 2


def test_console_script_exits_with_the_code_of_main(monkeypatch, capsys):
    # [project.scripts] installs dsmflow as cli.entrypoint, which reads sys.argv.
    monkeypatch.setattr(sys, "argv", ["dsmflow", "check-schedule", "exponential", "1", "0.44"])
    with pytest.raises(SystemExit) as exit_info:
        cli.entrypoint()
    assert exit_info.value.code == 0
    assert "pass_2_2=True" in capsys.readouterr().out


def test_check_schedule_has_no_constant_kind(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["check-schedule", "constant", "1.0"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'constant'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "a0, err",
    [
        # argparse reads 1e309 as inf.
        ("1e309", "error: a0 must be positive and finite, got inf\n"),
        # The largest double is finite, but its cap overflows to inf.
        (
            repr(LARGEST_A0),
            "error: a0 = 1.7976931348623157e+308 must lie below its cap "
            "a0 * (1 + 1e-06) < inf, got cap inf\n",
        ),
    ],
    ids=["a0-inf", "cap-inf"],
)
def test_check_schedule_rejects_infinite_a0(capsys, a0, err):
    assert cli.main(["check-schedule", "exponential", a0, "0.44"]) == 2
    assert capsys.readouterr() == ("", err)


def test_oracle_writes_continuation(tmp_path):
    path, _ = write_config(tmp_path)
    assert cli.main(["oracle", str(path)]) == 0
    lines = (tmp_path / "out" / "continuation.csv").read_text().splitlines()
    assert lines[0] == "a,norm_w,a_norm_w,residual"
    rows = [line.split(",") for line in lines[1:]]
    a_vals = [float(r[0]) for r in rows]
    assert a_vals[0] == 1.0 and a_vals[-1] <= 1e-8
    assert all(a1 > a2 for a1, a2 in zip(a_vals, a_vals[1:]))
    assert all(float(r[3]) <= 1e-12 for r in rows)


def test_fixed_step_runs_are_byte_identical(tmp_path):
    overrides = {
        "integrator": {"t_max": 3.0, "initial_step": 0.01, "method": "rk4"},
        "schedule": {"kind": "power", "a0": 1.0, "param": 0.25},
        "problem": "psd_rank_deficient",
        "dim": 12,
    }
    path1, _ = write_config(tmp_path, name="c1.json", output_dir=str(tmp_path / "o1"), **overrides)
    path2, _ = write_config(tmp_path, name="c2.json", output_dir=str(tmp_path / "o2"), **overrides)
    assert cli.main(["run", str(path1)]) == 0
    assert cli.main(["run", str(path2)]) == 0
    b1 = (tmp_path / "o1" / "trajectory.csv").read_bytes()
    b2 = (tmp_path / "o2" / "trajectory.csv").read_bytes()
    assert b1 == b2


def test_config_defaults_fill_in(tmp_path):
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps({"problem": "identity"}))
    cfg = cli.load_config(path)
    assert cfg.dim is None
    assert cfg.schedule.kind == "power"
    assert cfg.integrator.t_max == 20.0
    assert cfg.oracle.tol == 1e-12


def test_invalid_json_is_validation_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(cli.ConfigError):
        cli.load_config(path)
    assert cli.main(["run", str(path)]) == 2


@pytest.mark.parametrize("command", ["run", "verify", "oracle"])
@pytest.mark.parametrize(
    "content",
    [b'\xff\xfe{"problem": "diag_cubic"}', b"[" * 100_000 + b"]" * 100_000],
    ids=["not-utf8", "nested-too-deep"],
)
def test_unparsable_config_file_is_validation_error(tmp_path, capsys, command, content):
    # A UnicodeDecodeError from reading, or a RecursionError from parsing,
    # is a config error naming the file, not a traceback.
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {path} cannot be read as JSON: ")


def test_float_format_has_17_significant_digits():
    x = float(np.pi)
    assert cli._fmt(x) == "3.1415926535897931e+00"
    assert len(cli._fmt(x).split("e")[0].replace(".", "").lstrip("-")) == 17


def test_cold_start_imports_no_scipy():
    # SciPy installed is still SciPy unused: an optional or fallback import,
    # which the NumPy-only child in test_runtime.py cannot see, costs a cold
    # `dsmflow verify` about half a second and doubles its peak RSS.
    src = str(Path(dsmflow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import dsmflow, dsmflow.cli, dsmflow.verify, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    # -W error: importing the package raises no warning either.
    argv = [sys.executable, "-W", "error", "-c", code]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
