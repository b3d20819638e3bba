#!/usr/bin/env python3
"""Differential check of this tree against a reference checkout on the
seed-42 default training run.

With each tree's `src/` (in a subprocess, one BLAS thread) it runs
`hill gen-data` with the default dataset settings and then
`hill train --config configs/default.json --seed 42`, and compares the
two `report.jsonl` files: dev micro- and macro-F1 must be identical in
every epoch and train loss within 1e-6 relative. Both runs read this
tree's config file. Exits 1 on any mismatch. It also prints whether the
two `checkpoint.json` files are byte-identical, and each side's peak
resident set for `hill train` (the child's `ru_maxrss`, read when it is
reaped); those lines are information only and do not affect the exit
status.

    mkdir ../hill-parent && git archive HEAD~1 | tar -x -C ../hill-parent
    python scripts/diff_training.py --ref ../hill-parent
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

LOSS_RTOL = 1e-6
SEED = 42
TREE = Path(__file__).resolve().parents[1]
CONFIG = TREE / "configs" / "default.json"


def run_hill(cmd, env, log):
    """Run one hill command with its output in `log`; return its peak
    resident set in MB. Raises CalledProcessError on a nonzero exit."""
    with open(log, "w", encoding="utf-8") as out:
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=subprocess.STDOUT)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, cmd, Path(log).read_text("utf-8"))
    return usage.ru_maxrss / 1024.0  # kilobytes on Linux


def run_report(tree, workdir):
    """(report rows, checkpoint bytes, peak RSS of `hill train` in MB)."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"), OPENBLAS_NUM_THREADS="1")
    hill = [sys.executable, "-m", "hill.cli"]
    data, run, log = Path(workdir) / "data", Path(workdir) / "run", Path(workdir) / "log.txt"
    seed = ["--seed", str(SEED)]
    run_hill(hill + ["gen-data", "--out", str(data)] + seed, env, log)
    train = ["train", "--data", str(data), "--out", str(run), "--config", str(CONFIG)]
    rss = run_hill(hill + train + seed, env, log)
    lines = (run / "report.jsonl").read_text(encoding="utf-8").splitlines()
    report = [json.loads(line) for line in lines if line.strip()]
    return report, (run / "checkpoint.json").read_bytes(), rss


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
    with tempfile.TemporaryDirectory() as ref_dir, tempfile.TemporaryDirectory() as new_dir:
        ref, ref_ckpt, ref_rss = run_report(args.ref, ref_dir)
        new, new_ckpt, new_rss = run_report(TREE, new_dir)
    worst, problems = compare(ref, new, LOSS_RTOL)
    print(f"epochs {len(new)}; max train-loss rel diff {worst:.3e}; mismatches {len(problems)}")
    print(f"checkpoint.json byte-identical: {'yes' if ref_ckpt == new_ckpt else 'no'}")
    print(f"hill train peak RSS: ref {ref_rss:.1f} MB, this tree {new_rss:.1f} MB")
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
