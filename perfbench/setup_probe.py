"""Set-up probe, run in a fresh interpreter by run.py.

Does what must happen before the first integrate can start: import
dsmflow (with numpy and scipy), load each config given on the command
line, build its problem and check its schedule. Prints "ready" when done.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from dsmflow import cli, operators, schedules  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"dsmflow was imported from {cli.__file__}, not from {SRC}")
for path in sys.argv[1:]:
    cfg = cli.load_config(path)
    operators.make_problem(cfg.problem, dim=cfg.dim, seed=cfg.seed)
    schedules.check_admissible(cfg.schedule, horizon=cfg.integrator.t_max)
print("ready", flush=True)
