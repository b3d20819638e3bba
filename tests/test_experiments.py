import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from hill import experiments
from hill.datagen import Example
from hill.hill_model import HillConfig

ROOT = Path(__file__).resolve().parents[1]


def test_lambda_comparison_rows_are_the_runs_final_macro_f1():
    hierarchy, train_docs, dev_docs = experiments.default_dataset(2, 2, 16, 8, 64, 0)
    config = HillConfig(d_B=8, d_V=4, epochs=1, batch_size=4)
    rows = experiments.lambda_comparison(
        config, [1, 2], hierarchy, train_docs, dev_docs, vocab=64, lam=0.3
    )
    assert [row["seed"] for row in rows] == [1, 2]
    for row in rows:
        for key, lam in (("macro_with_clr", 0.3), ("macro_without_clr", 0.0)):
            run = replace(config, lambda_clr=lam, seed=row["seed"])
            _, report = experiments.run_training(run, hierarchy, train_docs, dev_docs, 64)
            assert row[key] == report[-1]["dev_macro_f1"]


@pytest.mark.parametrize("lambda_clr", [0.1, 0.0])
def test_run_training_refuses_empty_doc_only_for_contrastive_training(lambda_clr):
    hierarchy, train_docs, dev_docs = experiments.default_dataset(2, 2, 16, 8, 64, 0)
    train_docs[5] = Example(tokens=[], labels=train_docs[5].labels)
    config = HillConfig(d_B=8, d_V=4, epochs=1, batch_size=4, lambda_clr=lambda_clr)
    if lambda_clr > 0:
        with pytest.raises(ValueError, match=r"^example 6 has no tokens"):
            experiments.run_training(config, hierarchy, train_docs, dev_docs, 64)
    else:
        _, report = experiments.run_training(config, hierarchy, train_docs, dev_docs, 64)
        assert len(report) == 1


def run_script(name, *args):
    """The script's one stdout JSON row, run against this checkout's src."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ROOT / "scripts" / name), *args]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path}
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


def test_experiment_scripts_train_the_same_default_run():
    # both recipes train the default config at seed 42, one epoch, lambda 0.1
    sweep = run_script("k_sweep.py", "--ks", "2", "--epochs", "1")
    assert set(sweep) == {"K", "dev_micro_f1", "dev_macro_f1"} and sweep["K"] == 2
    lam = run_script("lambda_comparison.py", "--seeds", "42", "--epochs", "1")
    assert set(lam) == {"seed", "macro_with_clr", "macro_without_clr"} and lam["seed"] == 42
    assert sweep["dev_macro_f1"] == lam["macro_with_clr"]
