"""scripts/diff_training.py refuses a reference checkout whose `hill`
would not come from its own `src/hill`, before it trains anything."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_diff_training_refuses_a_ref_without_src_hill(tmp_path):
    cmd = [sys.executable, str(ROOT / "scripts" / "diff_training.py"), "--ref", str(tmp_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {tmp_path} has no src/hill; "), lines
