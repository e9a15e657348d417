"""The demos run against the current API: a change that breaks one fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
# Whole lines a demo prints besides the one its test case names.
ALSO_PRINTS = {
    "05_model_files.py": (
        "base score written 1: edited.txt: line 10 is not as save_model writes it, from "
        "character 13: expected '0x1.0000000000000p+0 0x1.e0bc3925532fap-', "
        "got '1 0x1.e0bc3925532fap-5'\n"),
}


# 02_two_noisy_labels.py is left out: it trains for about 16 s.
@pytest.mark.parametrize("demo, prints", [
    ("01_quickstart.py", "log-loss task 0: "),
    ("03_rare_subclass.py", "main-task test AUC: multi-task "),
    ("04_timeseries_ratio.py", "chronological hold-out RMSE (main task): "),
    ("05_model_files.py", "model file header:\n  mtboost-model-v2\n"),
])
def test_demo_runs(demo, prints, tmp_path):
    # The demo's temporary files go under an empty TMPDIR, which it must
    # leave empty.
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert prints in done.stdout
    assert ALSO_PRINTS.get(demo, "") in done.stdout
    assert list(tmp.iterdir()) == []
