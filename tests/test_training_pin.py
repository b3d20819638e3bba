"""The two seed-42 training runs of `hill train`, pinned.

One `hill gen-data` with default flags, then two `hill train --seed 42`
runs on it, both in-process through `hill.cli.main`:

- default: `configs/default.json` (20 epochs);
- variant: that config with K=3, the `mean` readout and the
  `paper_literal` NT-Xent for 3 epochs, the paths the default leaves out.

Each run is checked in order: every epoch's dev micro- and macro-F1
exactly and its train loss within 1e-6 relative, then the SHA-256 of
`checkpoint.json`. A change that must not move the model leaves this
file unedited. A change that moves the bits but not the results edits
only the digest. A change that is meant to move the model edits the rows
or digest its failure prints and says so in CHANGES.md.

The pins depend on numpy 2.4.6 and the OpenBLAS its wheel bundles, on an
x86-64 Xeon; they read the same with OpenBLAS on one thread or two.
Another numpy, BLAS or CPU may round a matmul differently and move the
digest, and over 20 epochs perhaps the rows."""

import hashlib
import json
from pathlib import Path

import pytest

from hill.cli import main

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"
LOSS_RTOL = 1e-6

# run: (config overrides, (train_loss, dev_micro_f1, dev_macro_f1) per epoch,
# checkpoint.json SHA-256)
RUNS = {
    "default": (
        {},
        [
            (0.6718808951331906, 0.5753803596127247, 0.12872436588460454),
            (0.38923934289328516, 0.8517279821627648, 0.5663269298275099),
            (0.3494168567681517, 0.9385203195554012, 0.8293191905480402),
            (0.3370670497446608, 0.9662691652470188, 0.9044926208517595),
            (0.3310840935046154, 0.9763513513513513, 0.9269822759003389),
            (0.32845446157746105, 0.9817813765182186, 0.9456551971183875),
            (0.3266585359771295, 0.9879113498992612, 0.9638454057313954),
            (0.32534919919613436, 0.9845637583892617, 0.9538779584719367),
            (0.324698153995208, 0.9889075630252101, 0.9655918888484061),
            (0.3242260861212675, 0.9889224572004028, 0.9653685363521484),
            (0.32418622027926636, 0.9895798319327731, 0.9625971281937435),
            (0.32350514035759576, 0.9926174496644296, 0.9722973850260397),
            (0.32316586679338327, 0.9922948073701843, 0.9727179733124409),
            (0.3226326757968625, 0.9902717208990272, 0.9663095490560509),
            (0.32270777288868135, 0.9905913978494624, 0.967569029695608),
            (0.3223796620089214, 0.9932975871313673, 0.9738990858782453),
            (0.3225332155891377, 0.9929553840992955, 0.9737625150288717),
            (0.3217717302903651, 0.9932930918846412, 0.9746836740062966),
            (0.3225086985749168, 0.9926273458445041, 0.9726310389339463),
            (0.32232486218868905, 0.9932975871313673, 0.9744397759841618),
        ],
        "9d075e202d9f629e31fa32b73d7231594786ca6bd53562035774aeb8d2bc6cae",
    ),
    "variant": (
        {"K": 3, "eta": "mean", "ntxent_form": "paper_literal", "epochs": 3},
        [
            (0.5171593196181328, 0.7243697478991596, 0.23120428803735044),
            (0.37300186325975765, 0.9248146840804801, 0.7645292884949462),
            (0.35276737048279155, 0.9723832253665189, 0.9151544667844557),
        ],
        "03f3881e3dd559aa32775829e98a468270821c9d317bc72c0ff9ffe0f860f3cd",
    ),
}


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = tmp_path_factory.mktemp("training-pin") / "data"
    assert main(["gen-data", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("run", RUNS)
def test_training_run_is_pinned(run, data, tmp_path):
    overrides, rows, digest = RUNS[run]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**json.loads(CONFIG.read_text("utf-8")), **overrides}), "utf-8")
    out = tmp_path / "run"
    argv = ["train", "--data", str(data), "--out", str(out), "--config", str(config)]
    assert main(argv + ["--seed", "42"]) == 0
    report = [json.loads(line) for line in (out / "report.jsonl").read_text("utf-8").splitlines()]
    new = [(r["train_loss"], r["dev_micro_f1"], r["dev_macro_f1"]) for r in report]
    same = len(new) == len(rows) and all(
        abs(row[0] - pin[0]) <= LOSS_RTOL * abs(pin[0]) and row[1:] == pin[1:]
        for row, pin in zip(new, rows)
    )
    listing = "".join(f"\n        {row!r}," for row in new)
    assert same, f"{run} run's report changed: rows now [{listing}\n    ]"
    sha = hashlib.sha256((out / "checkpoint.json").read_bytes()).hexdigest()
    assert sha == digest, f"{run} run's checkpoint.json changed: digest now {sha}"
