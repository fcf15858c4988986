import os
import re
import subprocess
import sys
from pathlib import Path

import dsmflow

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs_without_a_warning(tmp_path):
    # The README's one python block, the library quick start, run as a
    # reader would, with every warning an error.
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    src = str(Path(dsmflow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-W", "error", "-c", block]
    out = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stderr) == (0, "")
    lines = out.stdout.splitlines()
    assert [line.split()[:2] for line in lines[:5]] == [
        [bound_id, "True"] for bound_id in ("EQ_2_6", "EQ_2_10", "EQ_3_8", "THM_3_1", "LEMMA_2_1")
    ]
    assert lines[5].startswith("BoundReport(bound_id='EQ_2_8', passed=True,")
    assert len(lines) == 6
