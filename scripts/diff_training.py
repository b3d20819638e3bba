#!/usr/bin/env python3
"""Differential check of this tree against a reference checkout on the
seed-42 default training run.

Runs scripts/train_default.py once against each tree's `src/` (in a
subprocess, one BLAS thread) and compares the per-epoch reports: dev
micro- and macro-F1 must be identical in every epoch and train loss
within 1e-6 relative. Exits 1 on any mismatch.

    mkdir ../hill-parent && git archive HEAD~1 | tar -x -C ../hill-parent
    python scripts/diff_training.py --ref ../hill-parent
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

LOSS_RTOL = 1e-6
SEED = 42
TREE = Path(__file__).resolve().parents[1]
TRAIN_SCRIPT = TREE / "scripts" / "train_default.py"


def run_report(tree):
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"), OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, str(TRAIN_SCRIPT), "--seed", str(SEED)]
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def compare(ref, new, rtol):
    """Return (largest relative train-loss difference, list of mismatches)."""
    problems = []
    if len(ref) != len(new):
        problems.append(f"epoch count differs: {len(ref)} vs {len(new)}")
    worst = 0.0
    for a, b in zip(ref, new):
        rel = abs(a["train_loss"] - b["train_loss"]) / abs(a["train_loss"])
        worst = max(worst, rel)
        if rel > rtol:
            problems.append(f"epoch {a['epoch']}: train loss rel diff {rel:.3e} > {rtol}")
        for key in ("dev_micro_f1", "dev_macro_f1"):
            if a.get(key) != b.get(key):
                problems.append(f"epoch {a['epoch']}: {key} {a.get(key)} vs {b.get(key)}")
    return worst, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="reference checkout (holds src/hill)")
    args = parser.parse_args()
    ref = run_report(args.ref)
    new = run_report(TREE)
    worst, problems = compare(ref, new, LOSS_RTOL)
    print(f"epochs {len(new)}; max train-loss rel diff {worst:.3e}; mismatches {len(problems)}")
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
