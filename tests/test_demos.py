"""The demos run against the current API: a change that breaks one fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("demo, prints", [
    ("01_quickstart.py", "log-loss task 0: "),
    ("05_model_files.py", "model file header:\n  mtboost-model-v2\n"),
])
def test_demo_runs(demo, prints, tmp_path):
    # TMPDIR keeps the files a demo leaves in its temporary folder under tmp_path.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert prints in done.stdout
