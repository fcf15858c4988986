import sys
from pathlib import Path

import hypothesis
import numpy as np
import pytest

import dsmflow as d

hypothesis.settings.register_profile("default", deadline=None, max_examples=50)
hypothesis.settings.load_profile("default")

# perfbench/ on the path, as perfbench/test_tracer.py puts it: a test that
# checks one of the benchmark's facts reads it from perfbench/workloads.py.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))


@pytest.fixture(scope="session")
def stock_problems():
    return d.gallery()


@pytest.fixture(scope="session")
def deep_run():
    """One well-converged diag_cubic run shared by verifier tests."""
    p = d.make_problem("diag_cubic")
    s = d.exponential(1.0, 0.44)
    cfg = d.IntegratorConfig(t_max=32.0, rel_tol=1e-10, abs_tol=1e-12, residual_stop=1e-8)
    traj = d.integrate(p, s, np.zeros(p.dim), cfg)
    return p, s, cfg, traj
