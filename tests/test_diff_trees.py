"""scripts/diff_trees.py against this checkout itself: both sides build
the same corpus, so every family hash must match."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_diff_trees_matches_itself():
    cmd = [sys.executable, str(ROOT / "scripts" / "diff_trees.py"), "--ref", str(ROOT)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines if line.endswith(" ok")] == [
        "[greedy]",
        "[oracle]",
        "[surgery]",
    ]
