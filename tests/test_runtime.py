"""The runtime contract: dsmflow needs the standard library and NumPy alone.

SciPy, pytest and hypothesis are test-only; importing one at run time would
break an install of the runtime dependencies, and SciPy would cost a cold
`dsmflow verify` about half a second and double its peak RSS.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
SOURCES = ROOT / "src" / "dsmflow"

# Run by a fresh interpreter under -W error. Its hook refuses every module
# whose top-level name is neither the standard library's, numpy nor dsmflow,
# so the calls in argv[1] run as they would with `pip install .` alone. It
# prints one [exit code, stderr] per call.
CHILD = """
import sys

ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "dsmflow"}


class StdlibAndNumpyOnly:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in ALLOWED:
            raise ModuleNotFoundError(f"{name} is not a runtime dependency", name=name)
        return None


sys.meta_path.insert(0, StdlibAndNumpyOnly())
try:
    import scipy
except ModuleNotFoundError:
    pass
else:
    sys.exit("the import hook let scipy through")

import contextlib, io, json
from dsmflow.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        results.append([main(argv), err.getvalue()])
print(json.dumps(results))
"""


def test_stock_configs_run_with_the_standard_library_and_numpy_alone(tmp_path):
    # verify on every stock config, and run and oracle on one, each with its
    # exit code and stderr. THM_3_1 cannot certify power_schedule_short, a
    # short power-schedule run: exit 1 by design, the verdict alone on stderr.
    # A schedule just under the 1/2 ratio limit warns of nothing, whether
    # checked alone or run. An oracle that cannot converge is one error line
    # from run and verify, each of which still writes its finished run's
    # files as the error unwinds.
    diag_cubic = CONFIGS / "diag_cubic.json"
    near_limit = tmp_path / "near_limit.json"
    config = json.loads(diag_cubic.read_text())
    config["schedule"]["param"], config["output_dir"] = 0.49, "runs/near_limit"
    near_limit.write_text(json.dumps(config))
    calls = [["verify", str(path)] for path in sorted(CONFIGS.glob("*.json"))]
    calls += [["run", str(diag_cubic)], ["oracle", str(diag_cubic)], ["run", str(near_limit)]]
    calls += [["check-schedule", "exponential", "1", "0.49"]]
    for command in ("run", "verify"):
        oracle_fails = tmp_path / f"oracle_fails_{command}.json"
        config = json.loads(diag_cubic.read_text())
        config["integrator"]["t_max"], config["output_dir"] = 4.0, f"runs/oracle_fails_{command}"
        config["oracle"] = {"tol": 1e-300, "max_iters": 1}
        oracle_fails.write_text(json.dumps(config))
        calls += [[command, str(oracle_fails)]]
    expected = {
        " ".join(Path(arg).stem if arg.endswith(".json") else arg for arg in argv): [0, ""]
        for argv in calls
    }
    expected["verify power_schedule_short"] = [1, "failed checks: THM_3_1\n"]
    no_convergence = "no convergence in 1 iterations at a=1; residual 1.394e+00\n"
    expected["run oracle_fails_run"] = [3, f"error: {no_convergence}"]
    expected["verify oracle_fails_verify"] = [3, f"error: oracle failed at t=0: {no_convergence}"]
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    # The stock output_dir is relative, so the outputs land in tmp_path.
    argv = [sys.executable, "-W", "error", "-c", CHILD, json.dumps(calls)]
    out = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stderr) == (0, "")
    assert dict(zip(expected, json.loads(out.stdout))) == expected
    for command in ("run", "verify"):
        written = tmp_path / "runs" / f"oracle_fails_{command}"
        assert sorted(path.name for path in written.iterdir()) == ["run.json", "trajectory.csv"]


def test_sources_import_no_scipy_and_take_one_norm():
    # No SciPy import, on any branch. Outside linalg.py every vector norm is
    # linalg.norm, which stays right where the squares underflow.
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(SOURCES.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"^\s*(import|from) scipy", line)
        or (path.name != "linalg.py" and re.search(r"np\.linalg\.norm|sqrt\([^()]*\.dot\(", line))
    ]
    assert hits == []
