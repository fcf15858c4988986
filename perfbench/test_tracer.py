"""Self-test of the benchmark's tracer and result format.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_tracer.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.load_dsmflow()

import numpy as np  # noqa: E402

import dsmflow  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

COUNTS = (
    "linalg.solve_calls.flow",
    "linalg.solve_calls.oracle",
    "linalg.flops_computed",
    "operators.fun_calls",
    "operators.jac_calls",
    "schedules.value_calls",
    "schedules.derivative_calls",
    "flow.rhs_calls",
    "flow.steps_accepted",
    "flow.steps_rejected",
    "flow.points_recorded",
    "oracle.solve_regularized_calls",
    "oracle.newton_iters",
    "oracle.backtracks",
)


def _traced_passes(workload, tmp_path, passes=2):
    runner = run.Runner(workload, 0, tmp_path, json.loads(run.REFERENCE.read_text()))
    tracer = tr.Tracer()
    tracer.install()
    try:
        metrics = []
        for _ in range(passes):
            begin = tracer.mark()
            runner.run_pass(tracer)
            metrics.append(tracer.layer_metrics(begin, tracer.mark(), runner.span_instance))
    finally:
        tracer.uninstall()
    assert runner.failed == 0, runner.failures
    assert tracer.problems == []
    return tracer, metrics


def test_dp54_rhs_calls_match_attempted_steps(tmp_path):
    tracer, metrics = _traced_passes("configs_verify", tmp_path)
    m = metrics[0]
    assert m["flow.steps_rejected"] > 0, "no rejected step: the repeat count goes untested"
    # dp54 reuses a step's last stage as the next step's first: one rhs
    # call to start each stepping run, then six per attempted step.
    stepping = [r for r in tracer.integrations[: len(tracer.integrations) // 2] if r.rhs_calls]
    attempted = m["flow.steps_accepted"] + m["flow.steps_rejected"]
    assert m["flow.rhs_calls"] == len(stepping) + 6 * attempted
    assert m["linalg.solve_calls.flow"] == m["flow.rhs_calls"]
    for name in COUNTS:
        assert metrics[0][name] == metrics[1][name], name


def test_rk4_rhs_calls_are_four_per_step():
    p = dsmflow.make_problem("diag_cubic")
    s = dsmflow.exponential(1.0, 0.44)
    cfg = dsmflow.IntegratorConfig(t_max=2.0, initial_step=0.05, method="rk4")
    tracer = tr.Tracer()
    tracer.install()
    try:
        runs = []
        for _ in range(2):
            begin = tracer.mark()
            traj = dsmflow.flow.integrate(p, s, np.zeros(p.dim), cfg)
            runs.append(tracer.layer_metrics(begin, tracer.mark(), {}))
    finally:
        tracer.uninstall()
    assert tracer.problems == []
    steps = len(traj.points) - 1
    assert steps == 40
    for m in runs:
        assert m["flow.rhs_calls"] == 4 * steps
        assert m["linalg.solve_calls.flow"] == m["flow.rhs_calls"]
        assert m["flow.steps_rejected"] == 0
    for name in COUNTS:
        assert runs[0][name] == runs[1][name], name


def test_uninstall_restores_the_library():
    def sites():
        return dsmflow.cli.integrate, dsmflow.flow.solve_shifted, dsmflow.schedules.Schedule.value

    before = sites()
    tracer = tr.Tracer()
    tracer.install()
    assert sites() != before
    tracer.uninstall()
    assert sites() == before


def test_inconsistent_counts_are_reported():
    def dp54(rhs_calls, repeats=3, points=3):
        return tr._Integration(0, "dp54", 1, rhs_calls=rhs_calls, repeats=repeats, points=points)

    assert tr.integration_steps(dp54(19), 19) == (2, 1)
    for rec, solves in ((dp54(20), 20), (dp54(19), 18), (dp54(19, repeats=1), 19)):
        with pytest.raises(AssertionError):
            tr.integration_steps(rec, solves)
    assert tr.integration_steps(tr._Integration(0, "rk4", 1, rhs_calls=8, points=3), 8) == (2, 0)
    with pytest.raises(AssertionError):
        tr.integration_steps(tr._Integration(0, "rk4", 1, rhs_calls=9, points=3), 9)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_has_every_metric_of_benchmark_json(trace, capsys):
    spec = json.loads(run.SPEC.read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    argv = ["--workload", "configs_verify", "--seed", "17", "--seconds", "0", "--trace", trace]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 5 * (1 + int(trace))
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
