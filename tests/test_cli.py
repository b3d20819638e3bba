import json

import pytest

from hill.cli import main
from hill.coding_tree import CodingTree, initial_tree
from hill.datagen import Example, save_dataset
from hill.graph import load_graph_file

CYCLE4 = "0 1\n1 2\n2 3\n3 0\n"
BRIDGE = "0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n2 3\n"


@pytest.fixture
def cycle4_file(tmp_path):
    p = tmp_path / "cycle4.txt"
    p.write_text(CYCLE4, encoding="utf-8")
    return p


@pytest.fixture
def bridge_file(tmp_path):
    p = tmp_path / "bridge.txt"
    p.write_text(BRIDGE, encoding="utf-8")
    return p


def test_entropy_golden_cycle4(tmp_path, cycle4_file, capsys):
    g = load_graph_file(cycle4_file)
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(initial_tree(g).to_json(), encoding="utf-8")
    assert main(["entropy", "--graph", str(cycle4_file), "--tree", str(tree_path)]) == 0
    assert capsys.readouterr().out.strip() == "2.0000"


def test_build_tree_writes_valid_tree(tmp_path, bridge_file, capsys):
    out = tmp_path / "tree.json"
    rc = main(
        [
            "build-tree",
            "--graph",
            str(bridge_file),
            "--height",
            "2",
            "--out",
            str(out),
            "--report-entropy",
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    g = load_graph_file(bridge_file)
    tree = CodingTree.from_json(g, out.read_text(encoding="utf-8"))
    tree.validate()
    assert tree.height == 2
    assert printed == f"{tree.structural_entropy():.4f}"


def test_oracle_reports_gap(bridge_file, capsys):
    assert main(["oracle", "--graph", str(bridge_file), "--height", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("oracle_entropy ")
    assert lines[1].startswith("greedy_entropy ")
    assert lines[2] == "gap 0.0000"  # greedy is optimal on this graph


def test_gen_data_writes_dataset(tmp_path, capsys):
    out = tmp_path / "data"
    rc = main(
        [
            "gen-data",
            "--out",
            str(out),
            "--depth",
            "2",
            "--branching",
            "2",
            "--n-train",
            "8",
            "--n-dev",
            "4",
            "--vocab",
            "64",
        ]
    )
    assert rc == 0
    for name in ("taxonomy.txt", "train.jsonl", "dev.jsonl", "meta.json"):
        assert (out / name).exists()
    meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
    assert meta["num_labels"] == 7
    assert meta["vocab_size"] == 64


def test_train_and_eval_round_trip(tmp_path, capsys):
    data = tmp_path / "data"
    assert (
        main(
            [
                "gen-data",
                "--out",
                str(data),
                "--depth",
                "2",
                "--branching",
                "2",
                "--n-train",
                "30",
                "--n-dev",
                "10",
                "--vocab",
                "64",
            ]
        )
        == 0
    )
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"d_B": 8, "d_V": 4, "epochs": 2, "batch_size": 8}), encoding="utf-8"
    )
    run = tmp_path / "run"
    rc = main(
        ["train", "--config", str(config), "--data", str(data), "--out", str(run), "--seed", "1"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "micro_f1" in out
    for name in ("config.json", "report.jsonl", "checkpoint.json"):
        assert (run / name).exists()
    assert json.loads((run / "config.json").read_text(encoding="utf-8"))["seed"] == 1

    # eval a prediction file against itself: micro is perfect; macro
    # averages over the inferred label range 0..3, and label 0 never
    # appears, so it contributes a zero
    preds = tmp_path / "preds.jsonl"
    save_dataset([Example(tokens=[], labels=[1, 3]), Example(tokens=[], labels=[2])], preds)
    assert main(["eval", "--pred", str(preds), "--gold", str(preds)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "micro_f1 1.0000"
    assert lines[1] == "macro_f1 0.7500"


@pytest.mark.parametrize("field,bad", [("tokens", -1), ("tokens", 64), ("tokens", 2.5), ("labels", 7)])
def test_train_rejects_bad_ids(tmp_path, capsys, field, bad):
    data = tmp_path / "data"
    args = ["gen-data", "--out", str(data), "--depth", "2", "--branching", "2"]
    assert main(args + ["--n-train", "8", "--n-dev", "4", "--vocab", "64"]) == 0
    rows = (data / "train.jsonl").read_text(encoding="utf-8").splitlines()
    row = json.loads(rows[3])
    row[field].append(bad)
    rows[3] = json.dumps(row)
    (data / "train.jsonl").write_text("\n".join(rows) + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and f"train.jsonl: line 4: {field[:-1]} id {bad!r} " in err[0]


def test_eval_with_explicit_label_count(tmp_path, capsys):
    preds = tmp_path / "p.jsonl"
    golds = tmp_path / "g.jsonl"
    save_dataset([Example(tokens=[], labels=[1])], preds)
    save_dataset([Example(tokens=[], labels=[1])], golds)
    assert main(["eval", "--pred", str(preds), "--gold", str(golds), "--labels", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "macro_f1 0.2500"


def test_missing_file_exits_nonzero(tmp_path, capsys):
    rc = main(["oracle", "--graph", str(tmp_path / "nope.txt"), "--height", "2"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_graph_exits_nonzero(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("0 0\n", encoding="utf-8")
    rc = main(["build-tree", "--graph", str(p), "--height", "2"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
