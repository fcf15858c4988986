#!/usr/bin/env python3
"""A/B benchmark of the working tree against a git revision: writes BENCH_<pr>.json.

Usage, from anywhere inside a git checkout:

    python3 scripts/bench.py --pr N --base REV --pairs K --seconds S \\
        [--workload W [W ...]] [--out PATH]

Each side runs its own unchanged perfbench/run.py with one BLAS thread.
Its tree sits in a temporary directory outside the checkout (run.py writes
under its tree's .bench_out/) and is moved, for each run, to the one path
that every run is made from: the base side is `git archive REV`, the
change side the working tree's files that git tracks or does not ignore,
as they are on disk, so a new file need not be added first. A third
side, the control, is a second copy of the base: odd pairs run it last
and even pairs first, so that a base-vs-base comparison measures what the
directories alone move. Pair k uses seed k for every side, and odd pairs
run the base first. The workloads are those BENCHMARK.json lists unless
--workload names some. After the pairs, each side (not the control) gets
one --trace 1 run at seed 0 for the per-layer counts and times.

The output holds every run's metrics, its correct flag and its raw
pass_wall_s (the median wall time of a pass, from run.py's detail line);
per side, the median, quartiles and IQR of each metric; per metric, the
pairs the change won against the base (and the control against the base);
the traced runs; the seeds; and the environment run.py reports. A metric
the change improves is claimed only if "claims" says met: the change won
at least nine of ten pairs, and the medians differ by more than the
base's IQR.
"""

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The raw wall time of a pass, from run.py's detail line, beside its scaled pass_s.
WALL = "pass_wall_s"
# Every run is made from this directory of the temporary one; see run().
RUN_DIR = "run"


def git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True).stdout


def base_tree(rev: str, dest: Path):
    """Extract `git archive rev` into dest."""
    # The "data" filter exists from Python 3.10.12 and 3.11.4 on; an archive
    # git made of a revision holds nothing it would refuse.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, **safe)


def change_tree(dest: Path):
    """Copy the working tree's files that git tracks or does not ignore, as on disk, into dest."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in listed.decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench/run.py run of tree: its result, plus pass_wall_s and its detail line.

    The tree is moved for the run to RUN_DIR beside it, the one path every
    side runs from, so that no side's timing depends on its path.
    """
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"} | BLAS_ENV
    cwd = tree.rename(tree.parent / RUN_DIR)
    try:
        out = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    finally:
        cwd.rename(tree)
    if out.returncode != 0:
        cmd = " ".join(argv)
        raise SystemExit(f"error: {cmd} for {tree.name} exited {out.returncode}:\n{out.stderr}")
    detail_line, result_line = out.stdout.strip().splitlines()[-2:]
    detail, result = json.loads(detail_line), json.loads(result_line)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        metrics[WALL] = detail[WALL]["median"]
    return {"seed": seed, "correct": result["correct"], "metrics": metrics, "detail": detail}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: dict, better: dict) -> dict:
    """Quartiles per side and metric, the change's and the control's wins, and the claims."""
    sides = {side: [r["metrics"] for r in side_runs] for side, side_runs in runs.items()}
    stats = {
        side: {m: quartiles([row[m] for row in rows]) for m in better}
        for side, rows in sides.items()
    }

    def wins(side):
        return {
            m: sum(
                (x[m] < b[m]) if better[m] == "lower" else (x[m] > b[m])
                for x, b in zip(sides[side], sides["base"])
            )
            for m in better
        }

    out = {"stats": stats, "wins": {side: wins(side) for side in sides if side != "base"}}
    pairs = len(sides["base"])
    claims = {}
    for m in better:
        base, change = stats["base"][m], stats["change"][m]
        gap = change["median"] - base["median"]
        won = out["wins"]["change"][m]
        improved = gap < 0 if better[m] == "lower" else gap > 0
        claims[m] = {
            "wins": won,
            "pairs": pairs,
            "median_gap": gap,
            "relative_gap": gap / base["median"] if base["median"] else None,
            "base_iqr": base["iqr"],
            "met": improved and won >= 0.9 * pairs and abs(gap) > base["iqr"],
        }
    out["claims"] = claims
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--pr", type=int, required=True, help="number in the output's name")
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", nargs="+", help="default: every workload of BENCHMARK.json")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="run.py --seconds per run")
    ap.add_argument("--out", type=Path, help="output path (default: BENCH_<pr>.json at the root)")
    args = ap.parse_args(argv)
    # A SIGTERM unwinds like an error: the run in progress is killed and the trees removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    out_path = args.out or ROOT / f"BENCH_{args.pr}.json"
    spec = json.loads(SPEC.read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]} | {WALL: "lower"}

    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}").decode().strip()
    head = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    tmp = Path(tempfile.mkdtemp(prefix="dsmflow-bench-"))
    try:
        trees = {side: tmp / side for side in ("base", "change", "control")}
        for side, tree in trees.items():
            tree.mkdir()
            if side == "change":
                change_tree(tree)
            else:
                base_tree(base_commit, tree)

        report = {
            "pr": args.pr,
            "base": {"rev": args.base, "commit": base_commit},
            "change": {"head": head, "uncommitted_changes": dirty},
            "command": ["scripts/bench.py", *(argv if argv is not None else sys.argv[1:])],
            "run_py": "perfbench/run.py --workload W --seed K --seconds S --trace 0|1",
            "blas_env": BLAS_ENV,
            "pairs": args.pairs,
            "seeds": list(range(1, args.pairs + 1)),
            "trace_seed": 0,
            "seconds": args.seconds,
            "loadavg_start": os.getloadavg(),
            "workloads": {},
        }
        environment = None
        for workload in workloads:
            runs = {side: [] for side in trees}
            for seed in report["seeds"]:
                order = list(trees) if seed % 2 else list(reversed(trees))
                for side in order:
                    r = run(trees[side], workload, seed, args.seconds, trace=0)
                    environment = environment or r["detail"]["environment"]
                    runs[side].append({k: r[k] for k in ("seed", "correct", "metrics")})
                    pass_s = r["metrics"]["pass_s"]
                    print(f"{workload} seed {seed} {side}: pass_s {pass_s:.4f}", file=sys.stderr)
            traced = {}
            for side in ("base", "change"):
                r = run(trees[side], workload, 0, args.seconds, trace=1)
                traced[side] = {
                    "correct": r["correct"],
                    "tracer_problems": r["detail"]["tracer_problems"],
                    "metrics": r["metrics"],
                }
            report["workloads"][workload] = {
                "runs": runs,
                **summarize(runs, better),
                "all_correct": all(r["correct"] for rows in runs.values() for r in rows),
                "traced": traced,
            }
        report["loadavg_end"] = os.getloadavg()
        report["environment"] = environment
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
