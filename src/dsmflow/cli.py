"""Command-line front end: run, verify, and inspect experiments.

Subcommands
    run CONFIG             integrate the flow; write trajectory.csv, run.json
    verify CONFIG          run + certify all bounds; write bounds.json too
    gallery                list the stock problems
    check-schedule K A0 P  admissibility report for a schedule
    oracle CONFIG          continuation a -> 0; write continuation.csv

CONFIG is a JSON file with fields
    problem, dim, schedule {kind, a0, param}, integrator {...},
    oracle {tol, max_iters}, seed, output_dir
where a missing field takes the library default and an unknown one, at any
level, is a validation error. run.json echoes the fully
normalized config, so a run is reproducible from its own output.

Exit codes: 0 success / all checks pass, 1 check failure, 2 validation
error, 3 runtime failure (step-size underflow, solver breakdown).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import DsmError, NewtonError
from .flow import TERMINATED_STEP_FAILURE, IntegratorConfig, Trajectory, integrate
from .linalg import as_count
from .operators import OperatorProblem, check_monotone, gallery, make_problem
from .oracle import NewtonConfig, minimal_norm_limit
from .schedules import KINDS, Schedule, check_admissible
from .verify import cap_envelope, cap_term, certify

# Not used here: perfbench imports EPS_Y_OVERRIDES and LEMMA_GRID from this
# module and its tracer patches the other names on it. Drop these once the
# tracer reads counters the library records itself.
from .oracle import lemma_2_1_sweep, solve_regularized  # noqa: F401
from .verify import (  # noqa: F401
    EPS_Y_OVERRIDES,
    LEMMA_GRID,
    check_eq_2_6,
    check_eq_2_10,
    check_eq_3_8,
    check_thm_3_1,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

TRAJECTORY_COLUMNS = ("t", "a", "h", "norm_u", "dist_to_w", "bound_2_6_rhs", "bound_2_10_rhs")


class ConfigError(ValueError):
    """Bad or missing run configuration."""


_DEFAULT_SCHEDULE = {"kind": "power", "a0": 1.0, "param": 0.25}


@dataclass(frozen=True)
class RunConfig:
    problem: str
    dim: int | None
    schedule: Schedule
    integrator: IntegratorConfig
    oracle: NewtonConfig
    seed: int
    output_dir: str

    def __post_init__(self):
        for name in ("problem", "output_dir"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        if self.dim is not None:
            as_count("dim", self.dim, 1)
        as_count("seed", self.seed, 0)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """The config a JSON dict states: missing keys take defaults, unknown keys are errors."""
        try:
            return cls(**{
                "dim": None, "seed": 0, "output_dir": "runs", **d,
                "schedule": Schedule(**d.get("schedule", _DEFAULT_SCHEDULE)),
                "integrator": IntegratorConfig(**{"t_max": 20.0, **d.get("integrator", {})}),
                "oracle": NewtonConfig(**d.get("oracle", {})),
            })
        except (TypeError, ValueError) as err:
            raise ConfigError(f"invalid run config: {err}") from err


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    return RunConfig.from_dict(raw)


def _load(config_path):
    """(config, schedule admissibility report, problem) of a config file.

    Raises ConfigError on a bad file, a schedule that is not admissible
    over [0, t_max] (with the report's reason), or an unknown problem or
    dimension.
    """
    cfg = load_config(config_path)
    adm = check_admissible(cfg.schedule, horizon=cfg.integrator.t_max)
    if not adm.pass_2_2:
        raise ConfigError(adm.reason)
    try:
        return cfg, adm, make_problem(cfg.problem, dim=cfg.dim, seed=cfg.seed)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _atomic_write(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _trajectory_csv(traj: Trajectory, cap: float) -> str:
    h0 = traj.points[0].h
    lines = [",".join(TRAJECTORY_COLUMNS)]
    for pt in traj.points:
        row = (
            _fmt(pt.t),
            _fmt(pt.a),
            _fmt(pt.h),
            _fmt(math.sqrt(pt.u.dot(pt.u))),
            "" if pt.dist_to_w is None else _fmt(pt.dist_to_w),
            _fmt(pt.h / pt.a),
            "" if not math.isfinite(cap) else _fmt(cap_envelope(h0, pt.t, cap)),
        )
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _continuation_csv(p: OperatorProblem, result) -> str:
    lines = ["a,norm_w,a_norm_w,residual"]
    for a, w in zip(result.a_values, result.w_values):
        nw = float(np.linalg.norm(w))
        res = float(np.linalg.norm(p.residual(a, w)))
        lines.append(",".join((_fmt(a), _fmt(nw), _fmt(a * nw), _fmt(res))))
    return "\n".join(lines) + "\n"


def _write_run_outputs(out_dir: Path, cfg: RunConfig, traj: Trajectory, cap: float):
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "trajectory.csv", _trajectory_csv(traj, cap))
    run_meta = {
        "config": asdict(cfg),
        "terminated_by": traj.terminated_by,
        "points_recorded": len(traj.points),
        "t_final": traj.final.t,
        "h_final": traj.final.h,
    }
    _atomic_write(out_dir / "run.json", json.dumps(run_meta, indent=2) + "\n")


def cmd_run(config_path) -> int:
    cfg, _, p = _load(config_path)
    traj = integrate(p, cfg.schedule, np.zeros(p.dim), cfg.integrator)
    try:
        cap = cap_term(p, cfg.schedule, cfg.oracle)
    except NewtonError as err:
        # Cap-envelope column degrades to empty; the run itself still lands.
        print(f"warning: cap solve failed, bound_2_10_rhs left empty ({err})", file=sys.stderr)
        cap = float("nan")
    out_dir = Path(cfg.output_dir)
    _write_run_outputs(out_dir, cfg, traj, cap)
    print(
        f"{p.name}: terminated_by={traj.terminated_by} t_final={traj.final.t:.6g} "
        f"h_final={traj.final.h:.3e} -> {out_dir / 'trajectory.csv'}"
    )
    if traj.terminated_by == TERMINATED_STEP_FAILURE:
        print("error: step size underflow (step_failure)", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_verify(config_path) -> int:
    cfg, adm, p = _load(config_path)
    out_dir = Path(cfg.output_dir)
    mono = check_monotone(p, samples=200, radius=5.0, seed=cfg.seed)
    payload = {
        "problem": p.name,
        "schedule_admissibility": asdict(adm),
        "monotonicity": {
            "min_pairing": mono.min_pairing,
            "pass": mono.passed,
            "samples": mono.samples,
            "seed": mono.seed,
        },
        "bounds": [],
    }
    if not mono.passed:
        out_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write(out_dir / "bounds.json", json.dumps(payload, indent=2) + "\n")
        print(f"FAIL monotonicity: min pairing {mono.min_pairing:.3e} < 0", file=sys.stderr)
        return EXIT_CHECK_FAILED

    traj = integrate(p, cfg.schedule, np.zeros(p.dim), cfg.integrator)
    if traj.terminated_by == TERMINATED_STEP_FAILURE:
        _write_run_outputs(out_dir, cfg, traj, float("nan"))
        print("error: step size underflow (step_failure)", file=sys.stderr)
        return EXIT_RUNTIME

    reports, cap, continuation = certify(traj, p, cfg.oracle, cfg.integrator.residual_stop)
    payload["bounds"] = [r.to_dict() for r in reports]
    if continuation is None:
        payload["skipped"] = ["THM_3_1: schedule does not decay to zero"]
    else:
        payload["continuation"] = {
            "a_final": continuation.a_values[-1],
            "norm_y": float(np.linalg.norm(continuation.y_estimate)),
            "converged": continuation.converged,
        }
    _write_run_outputs(out_dir, cfg, traj, cap)
    _atomic_write(out_dir / "bounds.json", json.dumps(payload, indent=2) + "\n")

    failing = [r.bound_id for r in reports if not r.passed]
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.bound_id:9s} worst_margin={r.worst_margin:+.3e} at t={r.worst_t:.6g}")
    if failing:
        print(f"failed checks: {', '.join(failing)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_gallery() -> int:
    print(f"{'name':22s} {'dim':>4s} {'jacobian_structure':>18s} {'known_y':>7s} {'null_dim':>8s}")
    for p in gallery():
        null_dim = len(p.null_space_basis) if p.null_space_basis else 0
        known = "yes" if p.minimal_norm_solution is not None else "no"
        print(f"{p.name:22s} {p.dim:4d} {p.jacobian_structure:>18s} {known:>7s} {null_dim:8d}")
    return EXIT_OK


def cmd_check_schedule(kind: str, a0: float, param: float) -> int:
    try:
        s = Schedule(kind=kind, a0=a0, param=param)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    report = check_admissible(s, horizon=100.0)
    print(f"schedule: {asdict(s)}")
    print(
        f"max_ratio={report.max_ratio:.6g} positive={report.positive} "
        f"pass_2_2={report.pass_2_2} pass_3_3={report.pass_3_3}"
    )
    return EXIT_OK if report.pass_2_2 else EXIT_CHECK_FAILED


def cmd_oracle(config_path) -> int:
    cfg, _, p = _load(config_path)
    result = minimal_norm_limit(p, cfg=cfg.oracle)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "continuation.csv", _continuation_csv(p, result))
    print(
        f"{p.name}: continuation to a={result.a_values[-1]:.3e}, "
        f"||y||={float(np.linalg.norm(result.y_estimate)):.6g}, converged={result.converged} "
        f"-> {out_dir / 'continuation.csv'}"
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dsmflow",
        description="Regularized Newton flow for monotone operator equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="integrate the flow from a JSON config")
    p_run.add_argument("config")
    p_verify = sub.add_parser("verify", help="run and certify all bounds")
    p_verify.add_argument("config")
    sub.add_parser("gallery", help="list stock problems")
    p_sched = sub.add_parser("check-schedule", help="admissibility report")
    p_sched.add_argument("kind", choices=KINDS)
    p_sched.add_argument("a0", type=float)
    p_sched.add_argument("param", type=float, nargs="?", default=0.0)
    p_oracle = sub.add_parser("oracle", help="continuation a -> 0 toward the minimal-norm solution")
    p_oracle.add_argument("config")
    args = parser.parse_args(argv)

    if args.command == "gallery":
        return cmd_gallery()
    if args.command == "check-schedule":
        return cmd_check_schedule(args.kind, args.a0, args.param)
    command = {"run": cmd_run, "verify": cmd_verify, "oracle": cmd_oracle}[args.command]
    try:
        return command(args.config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except DsmError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
