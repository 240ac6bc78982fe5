"""Each demo script, and README's library tour, runs to completion from a
source checkout."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_TOUR = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                        re.S).group(1)
RUNS = {demo.name: [str(demo)] for demo in DEMOS} | {"README.md": ["-c", README_TOUR]}


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("args", list(RUNS.values()), ids=list(RUNS))
def test_demo_runs(args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
