"""The benchmark's workloads, how one instance runs, and what it produced.

Every instance is a dsmflow run config (the dict format of configs/*.json).
The cli workloads run ``dsmflow verify`` in-process; gallery_certify runs
the scripts/verify_gallery.py pipeline through the library in fixed-step
rk4 mode and adds EQ_2_8 and the residual-dynamics check.

Library functions are looked up on their modules at call time
(``flow.integrate``, not a name imported once), so the tracer's patches
see every call made here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

# The two ladders are not in BENCHMARK.json. Dense LU at n >= 200 takes
# most of their time, and on the shared two-core host its speed drifts
# from run to run by 10-25% in a way the speed kernel of run.py does not
# track, so their spread stays above what the bounds allow; a linear
# ladder pass also takes 33-45 s of the run budget. They stay runnable by
# hand, with their outcomes checked against the reference table.
WORKLOADS = ("configs_verify", "linear_ladder", "nonlinear_ladder", "gallery_certify")

# The workload seed selects one of this many config seeds (seed mod
# CONFIG_SEEDS); the reference table holds outcomes for each of them.
CONFIG_SEEDS = 16

# In adaptive dp54 mode a margin may move by this much (margins are
# normalised to order one) before it counts as a different result; in
# fixed-step rk4 mode margins and counts must match bit for bit. The
# worst EQ_3_8 margin depends on where the adaptive steps put the
# checkpoints, so it may move by 1% of that bound's slack (1e-2).
MARGIN_ATOL = 1e-6
MARGIN_ATOL_BY_BOUND = {"EQ_3_8": 1e-4}

STOCK_CONFIGS = ("diag_cubic", "fredholm", "identity", "power_schedule_short", "psd_rank_deficient")

_SCHEDULE = {"kind": "exponential", "a0": 1.0, "param": 0.44}
_ORACLE = {"tol": 1e-12, "max_iters": 100}
_DEEP = {"rel_tol": 1e-10, "abs_tol": 1e-12, "residual_stop": 1e-8}

# (problem, dim, t_max): fredholm keeps t_max 33 of configs/fredholm.json,
# the others the t_max 32 of the remaining stock configs.
_LINEAR_LADDER = (
    ("fredholm_first_kind", 200, 33.0),
    ("fredholm_first_kind", 400, 33.0),
    ("fredholm_first_kind", 512, 33.0),
    ("skew_perturbed", 256, 32.0),
)
_NONLINEAR_LADDER = (("diag_cubic", 256, 32.0), ("convex_gradient", 256, 32.0))

GALLERY = (
    "identity",
    "diag_cubic",
    "psd_rank_deficient",
    "fredholm_first_kind",
    "skew_perturbed",
    "convex_gradient",
)
_GALLERY_INTEGRATOR = {"t_max": 32.0, "initial_step": 0.05, "method": "rk4", **_DEEP}

# Names of cli instances across all workloads, for the per-instance
# cli.verify_s metrics.
CLI_INSTANCES = STOCK_CONFIGS + tuple(
    f"{prob}_n{dim}" for prob, dim, _ in _LINEAR_LADDER + _NONLINEAR_LADDER
)


@dataclass(frozen=True)
class Instance:
    name: str
    via_cli: bool
    config: dict

    @property
    def exact(self) -> bool:
        """Fixed-step rk4 results must repeat bit for bit."""
        return self.config["integrator"].get("method", "dp54") == "rk4"


def _ladder(rungs, config_seed):
    return [
        Instance(
            f"{prob}_n{dim}",
            True,
            {
                "problem": prob,
                "dim": dim,
                "schedule": _SCHEDULE,
                "integrator": {"t_max": t_max, **_DEEP},
                "oracle": _ORACLE,
                "seed": config_seed,
            },
        )
        for prob, dim, t_max in rungs
    ]


def instances(workload: str, root: Path, config_seed: int) -> list[Instance]:
    """The instances of one pass, in run order."""
    if workload == "configs_verify":
        out = []
        for stem in STOCK_CONFIGS:
            cfg = json.loads((root / "configs" / f"{stem}.json").read_text())
            cfg["seed"] = config_seed
            out.append(Instance(stem, True, cfg))
        return out
    if workload == "linear_ladder":
        return _ladder(_LINEAR_LADDER, config_seed)
    if workload == "nonlinear_ladder":
        return _ladder(_NONLINEAR_LADDER, config_seed)
    if workload == "gallery_certify":
        return [
            Instance(
                name,
                False,
                {
                    "problem": name,
                    "schedule": _SCHEDULE,
                    "integrator": _GALLERY_INTEGRATOR,
                    "oracle": _ORACLE,
                    "seed": config_seed,
                },
            )
            for name in GALLERY
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def write_config(inst: Instance, cfg_path: Path, out_dir: Path):
    """Write the instance's config with its output_dir pointed at out_dir."""
    cfg_path.write_text(json.dumps({**inst.config, "output_dir": str(out_dir)}, indent=2))


def execute(inst: Instance, cfg_path: Path):
    """Run one instance: the part a user waits for, and the part timed."""
    from dsmflow import cli

    if inst.via_cli:
        return cli.main(["verify", str(cfg_path)])
    return _certify_gallery(cli.load_config(cfg_path))


def _certify_gallery(cfg):
    import numpy as np
    from dsmflow import cli, flow, operators, oracle, verify

    p = operators.make_problem(cfg.problem, dim=cfg.dim, seed=cfg.seed)
    traj = flow.integrate(p, cfg.schedule, np.zeros(p.dim), cfg.integrator)
    continuation = oracle.minimal_norm_limit(p, cfg=cfg.oracle)
    stop = cfg.integrator.residual_stop
    reports = [
        verify.check_eq_2_6(traj, p, cfg.schedule, cfg.oracle),
        verify.check_eq_2_8(traj, p, cfg.oracle),
        verify.check_eq_2_10(traj, p, cfg.schedule, cfg.oracle),
        verify.check_eq_3_8(traj, residual_stop=stop),
        verify.check_thm_3_1(
            traj, p, continuation, residual_stop=stop,
            eps_y_rel=cli.EPS_Y_OVERRIDES.get(p.name, 1e-2),
        ),
    ]
    sweep = oracle.lemma_2_1_sweep(p, cli.LEMMA_GRID, cfg.oracle)
    # Known defect, left to a later fix: a run that stops at t = 0 records
    # one point (identity), and residual_dynamics_check raises a bare
    # ValueError below three points. The check is not applicable there.
    dynamics = None
    if len(traj.points) >= 3:
        dynamics = flow.residual_dynamics_check(traj, p, cfg.schedule)
    return traj, reports, sweep, dynamics


def _bound(r: dict) -> dict:
    return {k: r[k] for k in ("bound_id", "pass", "worst_margin", "checkpoints")}


def outcome(inst: Instance, result, out_dir: Path) -> dict:
    """What an instance produced, in the form the reference table records.

    The JSON round trip gives the same types the stored reference has.
    """
    return json.loads(json.dumps(_outcome(inst, result, out_dir)))


def _outcome(inst: Instance, result, out_dir: Path) -> dict:
    if not inst.via_cli:
        traj, reports, sweep, dynamics = result
        return {
            "terminated_by": traj.terminated_by,
            "points_recorded": len(traj.points),
            "bounds": [_bound(r.to_dict()) for r in reports],
            "lemma_2_1": {"pass": sweep.monotone_nondecreasing_in_a, "values": list(sweep.values)},
            "dynamics": None if dynamics is None else {
                "pass": dynamics.passed,
                "max_defect": dynamics.max_defect,
                "interior_points": dynamics.interior_points,
            },
        }
    out = {"exit_code": result}
    run_json = out_dir / "run.json"
    if run_json.is_file():
        run = json.loads(run_json.read_text())
        out["terminated_by"] = run["terminated_by"]
        out["points_recorded"] = run["points_recorded"]
    bounds_json = out_dir / "bounds.json"
    if bounds_json.is_file():
        b = json.loads(bounds_json.read_text())
        out["monotonicity_pass"] = b["monotonicity"]["pass"]
        out["bounds"] = [_bound(r) for r in b["bounds"]]
        out["skipped"] = b.get("skipped", [])
    return out


def bytes_written(out_dir: Path) -> int:
    return sum(f.stat().st_size for f in out_dir.iterdir() if f.is_file())


_MARGINS = {"worst_margin", "max_defect"}
_COUNTS = {"points_recorded", "checkpoints", "interior_points"}


def compare(
    got, ref, exact: bool, path: str = "", atol: float = MARGIN_ATOL
) -> tuple[list[str], list[str]]:
    """Differences between an outcome and its reference.

    Returns (failures, drifts). A different exit code, termination reason,
    verdict or bound list, or a margin beyond its tolerance, is a failure.
    A different point or checkpoint count is a failure in rk4 mode and
    only a drift in adaptive mode, where step counts may legitimately move.
    """
    failures: list[str] = []
    drifts: list[str] = []
    key = path.rsplit(".", 1)[-1]
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(got) != set(ref):
            failures.append(f"{path or 'outcome'}: keys {sorted(got)} != {sorted(ref)}")
        atol = MARGIN_ATOL_BY_BOUND.get(ref.get("bound_id"), atol)
        for k in sorted(set(got) & set(ref)):
            f, d = compare(got[k], ref[k], exact, f"{path}.{k}" if path else k, atol)
            failures += f
            drifts += d
    elif isinstance(ref, list) and isinstance(got, list):
        if len(got) != len(ref):
            failures.append(f"{path}: {len(got)} entries != {len(ref)}")
        for i, (g, r) in enumerate(zip(got, ref)):
            f, d = compare(g, r, exact, f"{path}[{i}]", atol)
            failures += f
            drifts += d
    elif key in _MARGINS and not exact:
        if not math.isclose(got, ref, rel_tol=0.0, abs_tol=atol):
            failures.append(f"{path}: {got!r} != {ref!r} (tolerance {atol:g})")
    elif got != ref or type(got) is not type(ref):
        msg = f"{path}: {got!r} != {ref!r}"
        (drifts if key in _COUNTS and not exact else failures).append(msg)
    return failures, drifts
