import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = {"pass_s", "setup_s", "peak_rss_mb", "ok_frac", "pass_wall_s"}


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)


def test_bench_driver_writes_its_file_and_nothing_in_the_checkout(tmp_path):
    # One short pair on configs_verify, with the control side: the file has
    # every key a BENCH file cites, and the checkout is left as it was.
    if shutil.which("git") is None or _git("rev-parse", "HEAD").returncode != 0:
        pytest.skip("the driver needs git and a checkout with a commit")
    before = _git("status", "--porcelain").stdout
    out = tmp_path / "BENCH.json"
    argv = [sys.executable, str(ROOT / "scripts" / "bench.py"), "--pr", "0", "--base", "HEAD"]
    argv += ["--workload", "configs_verify", "--pairs", "1", "--seconds", "0.1"]
    subprocess.run([*argv, "--out", str(out)], capture_output=True, check=True, timeout=600)
    assert _git("status", "--porcelain").stdout == before

    report = json.loads(out.read_text())
    assert report["pr"] == 0 and report["seeds"] == [1] and report["trace_seed"] == 0
    assert report["base"]["commit"] == _git("rev-parse", "HEAD").stdout.strip()
    assert report["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert report["environment"]["blas_threads_set"] == "1"
    w = report["workloads"]["configs_verify"]
    assert set(w["runs"]) == {"base", "change", "control"}
    for runs in w["runs"].values():
        (run,) = runs
        assert run["seed"] == 1 and isinstance(run["correct"], bool)
        assert set(run["metrics"]) == METRICS
    for stats in w["stats"].values():
        assert set(stats) == METRICS
        assert all(set(q) == {"median", "q1", "q3", "iqr"} for q in stats.values())
    assert set(w["wins"]) == {"change", "control"}
    claim = {"wins", "pairs", "median_gap", "relative_gap", "base_iqr", "met"}
    assert set(w["claims"]["pass_s"]) == claim
    assert set(w["traced"]) == {"base", "change", "control"}
    for traced in w["traced"].values():
        assert traced["tracer_problems"] == [] and traced["metrics"]["flow.rhs_calls"] > 0
