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
from dsmflow.cli import RunConfig
from dsmflow.errors import LinearSolveError


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
    assert rebuilt.to_dict() == meta["config"]


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


@pytest.mark.parametrize("command", ["run", "verify", "oracle"])
def test_growing_schedule_is_validation_error(tmp_path, capsys, command):
    # The derived cap, and with it EQ_2_10, holds only for a nonincreasing
    # a(t): a growing one must stop at the config gate, not in a check.
    path, _ = write_config(
        tmp_path,
        schedule={"kind": "power", "a0": 1.0, "param": -0.25},
        integrator={"t_max": 1e-6},
    )
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "param must be nonnegative" in err
    assert "Traceback" not in err


def test_run_step_failure_exit_code(tmp_path):
    path, _ = write_config(
        tmp_path,
        schedule={"kind": "power", "a0": 1.0, "param": 0.25},
        integrator={"t_max": 1e15},
    )
    assert cli.main(["run", str(path)]) == 3
    meta = json.loads((tmp_path / "out" / "run.json").read_text())
    assert meta["terminated_by"] == "step_failure"


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


def test_verify_relaxed_eps_for_fredholm_noted(tmp_path):
    path, _ = write_config(
        tmp_path,
        problem="fredholm_first_kind",
        dim=60,
        integrator={"t_max": 33.0, "rel_tol": 1e-10, "abs_tol": 1e-12, "residual_stop": 1e-8},
    )
    assert cli.main(["verify", str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "bounds.json").read_text())
    thm = next(b for b in payload["bounds"] if b["bound_id"] == "THM_3_1")
    assert "eps_y_rel=0.05" in thm["notes"]


def test_verify_constant_schedule_skips_limit_check(tmp_path):
    path, _ = write_config(
        tmp_path,
        schedule={"kind": "constant", "a0": 0.8},
        integrator={"t_max": 6.0, "rel_tol": 1e-11, "abs_tol": 1e-13},
    )
    assert cli.main(["verify", str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "bounds.json").read_text())
    ids = [b["bound_id"] for b in payload["bounds"]]
    assert "THM_3_1" not in ids
    assert payload["skipped"] == ["THM_3_1: schedule does not decay to zero"]
    assert all(b["pass"] for b in payload["bounds"])


def test_gallery_lists_six_rows(capsys):
    assert cli.main(["gallery"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 7  # header + six problems
    assert out[1].startswith("identity")


def test_check_schedule_pass_and_fail(capsys):
    assert cli.main(["check-schedule", "power", "1.0", "0.25"]) == 0
    assert "max_ratio=0.25" in capsys.readouterr().out
    assert cli.main(["check-schedule", "power", "1.0", "0.75"]) == 1
    assert cli.main(["check-schedule", "constant", "2.0"]) == 0
    assert cli.main(["check-schedule", "power", "-1.0", "0.25"]) == 2
    assert cli.main(["check-schedule", "power", "1.0", "-0.25"]) == 2


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


def test_float_format_has_17_significant_digits():
    x = float(np.pi)
    assert cli._fmt(x) == "3.1415926535897931e+00"
    assert len(cli._fmt(x).split("e")[0].replace(".", "").lstrip("-")) == 17


def test_cold_start_imports_no_scipy():
    # SciPy is a test-only reference; importing it would cost a cold
    # `dsmflow verify` about half a second and double its peak RSS.
    src = str(Path(dsmflow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import dsmflow, dsmflow.cli, dsmflow.verify, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
