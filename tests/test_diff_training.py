"""scripts/diff_training.py refuses a reference checkout whose `hill`
would not come from its own `src/hill`, before it trains anything, and
ends with one error line when a side's `hill` command fails."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_diff_training(ref):
    cmd = [sys.executable, str(ROOT / "scripts" / "diff_training.py"), "--ref", str(ref)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=60)


def test_diff_training_refuses_a_ref_without_src_hill(tmp_path):
    proc = run_diff_training(tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {tmp_path} has no src/hill; "), lines


def test_diff_training_reports_a_failing_hill_command_in_one_line(tmp_path):
    stub = tmp_path / "src" / "hill"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("")
    (stub / "cli.py").write_text("import sys\n\nsys.exit('error: boom')\n")
    proc = run_diff_training(tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: {tmp_path}: hill gen-data exited 1: error: boom"]
