#!/usr/bin/env python3
"""Differential check of this tree against a reference checkout on two
seed-42 training runs.

With each tree's `src/` (in a subprocess, one BLAS thread) it runs
`hill gen-data` with the default dataset settings and then two
`hill train --seed 42` runs: one with `configs/default.json`, and one
with that config changed to K=3, the `mean` readout and the
`paper_literal` NT-Xent for 3 epochs, so the paths the default leaves
out are checked too. For each run it compares the two `report.jsonl`
files: dev micro- and macro-F1 must be identical in every epoch and
train loss within 1e-6 relative. Both sides read this tree's configs.
Exits 1 on any mismatch, and exits 1 before any run if a side's `hill`
is not imported from that side's `src/hill` (say, an installed copy
shadows a checkout without one). A failing `hill` command on either
side ends the check with one `error:` line that names the checkout and
quotes the command's last output line. It also prints whether the two
`checkpoint.json` files of each run are byte-identical, and each side's
peak resident set for `hill train` (the child's `ru_maxrss`, read when
it is reaped); those lines are information only and do not affect the
exit status.

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
VARIANT = {"K": 3, "eta": "mean", "ntxent_form": "paper_literal", "epochs": 3}


def run_hill(tree, args, env, log):
    """Run `hill <args>` with its output in `log`; return its peak
    resident set in MB. On a nonzero exit, exit 1 naming `tree`, the
    subcommand and the command's last output line."""
    cmd = [sys.executable, "-m", "hill.cli", *args]
    with open(log, "w", encoding="utf-8") as out:
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=subprocess.STDOUT)
    _, status, usage = os.wait4(proc.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code:
        last = (Path(log).read_text("utf-8", errors="replace").splitlines() or [""])[-1]
        sys.exit(f"error: {tree}: hill {args[0]} exited {code}: {last}")
    return usage.ru_maxrss / 1024.0  # kilobytes on Linux


def check_import(tree, env):
    """Exit 1 unless `hill` imports from `<tree>/src/hill` under `env`."""
    cmd = [sys.executable, "-c", "import hill; print(hill.__file__)"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    found = proc.stdout.strip()
    if proc.returncode or Path(found).resolve().parent != Path(tree).resolve() / "src" / "hill":
        sys.exit(f"error: {tree} has no src/hill; hill was imported from {found or 'nowhere'}")


def run_reports(tree, workdir, configs):
    """Per config file: (report rows, checkpoint bytes, peak RSS of
    `hill train` in MB), all trained on one generated dataset."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"), OPENBLAS_NUM_THREADS="1")
    check_import(tree, env)
    data, log = Path(workdir) / "data", Path(workdir) / "log.txt"
    seed = ["--seed", str(SEED)]
    run_hill(tree, ["gen-data", "--out", str(data)] + seed, env, log)
    out = []
    for i, config in enumerate(configs):
        run = Path(workdir) / f"run{i}"
        train = ["train", "--data", str(data), "--out", str(run), "--config", str(config)]
        rss = run_hill(tree, train + seed, env, log)
        lines = (run / "report.jsonl").read_text(encoding="utf-8").splitlines()
        report = [json.loads(line) for line in lines if line.strip()]
        out.append((report, (run / "checkpoint.json").read_bytes(), rss))
    return out


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
        variant = Path(new_dir) / "variant.json"
        config = json.loads(CONFIG.read_text(encoding="utf-8"))
        variant.write_text(json.dumps({**config, **VARIANT}), encoding="utf-8")
        names = ["default", "K=3 mean paper_literal"]
        refs = run_reports(args.ref, ref_dir, [CONFIG, variant])
        news = run_reports(TREE, new_dir, [CONFIG, variant])
    failed = False
    for name, (ref, ref_ckpt, ref_rss), (new, new_ckpt, new_rss) in zip(names, refs, news):
        worst, problems = compare(ref, new, LOSS_RTOL)
        print(f"[{name}] epochs {len(new)}; max train-loss rel diff {worst:.3e}; "
              f"mismatches {len(problems)}")
        print(f"[{name}] checkpoint.json byte-identical: {'yes' if ref_ckpt == new_ckpt else 'no'}")
        print(f"[{name}] hill train peak RSS: ref {ref_rss:.1f} MB, this tree {new_rss:.1f} MB")
        for p in problems:
            print(p)
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
