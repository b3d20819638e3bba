import json
import logging
import math
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hill import experiments
from hill.cli import main
from hill.coding_tree import CodingTree, initial_tree
from hill.datagen import Example, load_dataset, load_taxonomy, save_dataset
from hill.graph import load_graph, load_graph_file
from hill.hill_model import HillConfig

CYCLE4 = "0 1\n1 2\n2 3\n3 0\n"
BRIDGE = "0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n2 3\n"


def cli_error(capsys, argv):
    """Run `hill` and check that it failed through the one-line error path:
    exit code 1, nothing on stdout, one stderr line starting `error: `, and
    no `--out` path left behind. Returns that line."""
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    if "--out" in argv:
        assert not Path(argv[argv.index("--out") + 1]).exists()
    return lines[0]


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


def test_oracle_reports_gap(tmp_path, capsys):
    # greedy is optimal on both graphs; on the second its entropy is one
    # ulp below the oracle's, which must not print as -0.0000
    for text in (BRIDGE, "0 4\n1 4\n2 3\n2 4\n3 4\n"):
        graph = tmp_path / "graph.txt"
        graph.write_text(text, encoding="utf-8")
        assert main(["oracle", "--graph", str(graph), "--height", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("oracle_entropy ")
        assert lines[1].startswith("greedy_entropy ")
        assert lines[2] == "gap 0.0000"


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
def test_train_rejects_bad_ids(tmp_path, capsys, tiny_data, field, bad):
    data = tmp_path / "data"
    shutil.copytree(tiny_data, data)
    rows = (data / "train.jsonl").read_text(encoding="utf-8").splitlines()
    row = json.loads(rows[3])
    row[field].append(bad)
    rows[3] = json.dumps(row)
    (data / "train.jsonl").write_text("\n".join(rows) + "\n", encoding="utf-8")
    err = cli_error(capsys, ["train", "--data", str(data), "--out", str(tmp_path / "run")])
    assert f"train.jsonl: line 4: {field[:-1]} id {bad!r} " in err


def test_eval_with_explicit_label_count(tmp_path, capsys):
    preds = tmp_path / "p.jsonl"
    golds = tmp_path / "g.jsonl"
    save_dataset([Example(tokens=[], labels=[1])], preds)
    save_dataset([Example(tokens=[], labels=[1])], golds)
    assert main(["eval", "--pred", str(preds), "--gold", str(golds), "--labels", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "macro_f1 0.2500"


def test_eval_memory_does_not_grow_with_the_largest_label_id(tmp_path, capsys):
    # without --labels the count is the largest id + 1, here 10**12 + 1;
    # only the labels that occur are counted
    preds, golds = tmp_path / "p.jsonl", tmp_path / "g.jsonl"
    save_dataset([Example(tokens=[], labels=[10**12])], preds)
    save_dataset([Example(tokens=[], labels=[1])], golds)
    assert main(["eval", "--pred", str(preds), "--gold", str(golds)]) == 0
    assert capsys.readouterr().out.splitlines() == ["micro_f1 0.0000", "macro_f1 0.0000"]


def test_missing_file_exits_nonzero(tmp_path, capsys):
    cli_error(capsys, ["oracle", "--graph", str(tmp_path / "nope.txt"), "--height", "2"])


def test_bad_graph_exits_nonzero(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("0 0\n", encoding="utf-8")
    cli_error(capsys, ["build-tree", "--graph", str(p), "--height", "2"])


@pytest.mark.parametrize("value", ["verbose", "basic_format"])
def test_bad_hill_log_exits_before_the_command_runs(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("HILL_LOG", value)
    assert cli_error(capsys, ["gen-data", "--out", str(tmp_path / "data")]) == (
        "error: HILL_LOG must name a logging level such as error, info or debug, "
        f"got {value!r}"
    )


@pytest.mark.parametrize(
    "value,level",
    [("debug", logging.DEBUG), ("INFO", logging.INFO), ("", logging.ERROR), (None, logging.ERROR)],
    ids=["debug", "INFO", "empty", "unset"],
)
def test_hill_log_names_the_level(bridge_file, capsys, monkeypatch, value, level):
    if value is None:
        monkeypatch.delenv("HILL_LOG", raising=False)
    else:
        monkeypatch.setenv("HILL_LOG", value)
    levels = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
    assert main(["oracle", "--graph", str(bridge_file), "--height", "2"]) == 0
    assert levels == [level]


@pytest.mark.parametrize(
    "meta", [{}, {"vocab_size": 0}, {"vocab_size": "64"}, {"vocab_size": 2.5}, [], "{"]
)
def test_train_rejects_bad_meta(tmp_path, capsys, tiny_data, meta):
    data = tmp_path / "data"
    shutil.copytree(tiny_data, data)
    text = meta if isinstance(meta, str) else json.dumps(meta)  # a str is malformed JSON
    (data / "meta.json").write_text(text, encoding="utf-8")
    err = cli_error(capsys, ["train", "--data", str(data), "--out", str(tmp_path / "run")])
    assert err.startswith(f"error: {data / 'meta.json'}: ")
    assert isinstance(meta, str) or "vocab_size" in err


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("tiny") / "data"
    args = ["gen-data", "--out", str(data), "--depth", "2", "--branching", "2"]
    assert main(args + ["--n-train", "8", "--n-dev", "4", "--vocab", "64"]) == 0
    return data


@pytest.mark.parametrize(
    "text,why",
    [
        ("[1]", "expected a JSON object, got list"),
        ("{", "Expecting property name"),
        ('{"foo": 1}', "unknown config key(s) foo"),
        ('{"d_B": "64"}', "d_B must be int"),
        ('{"epochs": 2.0}', "epochs must be int"),
        ('{"K": true}', "K must be int"),
        ('{"lambda_clr": false}', "lambda_clr must be float"),
        ('{"eta": 1}', "eta must be str"),
        ('{"epochs": 0}', "epochs must be at least 1"),
        ('{"d_B": 0}', "d_B must be at least 1"),
        ('{"d_V": -2}', "d_V must be at least 1"),
        ('{"tau": 0}', "tau must be positive"),
        ('{"tau": -0.5}', "tau must be positive"),
        ('{"tau": NaN}', "tau must be positive"),
        ('{"tau": Infinity}', "tau must be positive and finite"),
        ('{"seed": -1}', "seed must be at least 0"),
        ('{"a\\nb": 1}', "unknown config key(s) a\\nb"),
        ('{"lr_encoder": -1}', "lr_encoder must be positive and finite"),
        ('{"lr_encoder": 0}', "lr_encoder must be positive and finite"),
        ('{"lr_encoder": Infinity}', "lr_encoder must be positive and finite"),
        ('{"lr_structure": -0.5}', "lr_structure must be positive and finite"),
        ('{"lr_structure": NaN}', "lr_structure must be positive and finite"),
        ('{"lambda_clr": -5}', "lambda_clr must be non-negative and finite"),
        ('{"lambda_clr": NaN}', "lambda_clr must be non-negative and finite"),
        ('{"lambda_clr": Infinity}', "lambda_clr must be non-negative and finite"),
        # an int past the largest float, which float() cannot convert
        *(
            pytest.param(
                f'{{"{name}": 1{"0" * 400}}}', f"{name} must be {rule}", id=f"{name}-10**400"
            )
            for name, rule in (
                ("tau", "positive and finite"),
                ("lambda_clr", "non-negative and finite"),
                ("lr_encoder", "positive and finite"),
                ("lr_structure", "positive and finite"),
            )
        ),
    ],
)
def test_train_rejects_bad_config(tmp_path, capsys, tiny_data, text, why):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    args = ["train", "--data", str(tiny_data), "--out", str(tmp_path / "run")]
    err = cli_error(capsys, args + ["--config", str(config)])
    assert err.startswith(f"error: {config}: ") and why in err


@pytest.mark.parametrize("k", [7, 9])
def test_train_rejects_unrealizable_height_before_writing(tmp_path, capsys, tiny_data, k):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"K": k}), encoding="utf-8")
    args = ["train", "--data", str(tiny_data), "--out", str(tmp_path / "run")]
    err = cli_error(capsys, args + ["--config", str(config)])
    assert err == f"error: height {k} not realizable on 7 vertices"


@pytest.mark.parametrize("where", ["config", "meta"])
def test_train_refuses_a_model_too_big_for_memory_before_writing(tmp_path, capsys, tiny_data,
                                                                  where):
    # a 64 x 10**16 embedding needs about 2**62 bytes, more than any address
    # space holds, so numpy's allocation fails at once instead of lazily
    data = tmp_path / "data"
    shutil.copytree(tiny_data, data)
    args = ["train", "--data", str(data), "--out", str(tmp_path / "run")]
    if where == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"d_B": 10**16}), encoding="utf-8")
        args += ["--config", str(config)]
    else:
        meta = json.loads((data / "meta.json").read_text(encoding="utf-8"))
        meta["vocab_size"] = 10**16
        (data / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    cli_error(capsys, args)


@pytest.mark.parametrize(
    "edit,why",
    [
        (lambda rows: rows + ["n0\tn1.0"], "line 4: label 'n1.0' has two parents"),
        (lambda rows: rows + ["x\ty"], "line 4: label 'x' has no parent"),
        (lambda rows: rows + ["n0\troot"], "line 4: label 'root' is the root and cannot have a parent"),
        (lambda rows: ["root\t\tn0\tn1"] + rows[1:], "line 1: empty label name"),
        (lambda rows: rows + ["x\ty", "y\tx"], "line 4: label 'x' is its own ancestor"),
    ],
    ids=["two-parents", "no-parent", "root-as-child", "empty-name", "cycle"],
)
def test_train_rejects_bad_taxonomy_naming_the_file(tmp_path, capsys, tiny_data, edit, why):
    data = tmp_path / "data"
    shutil.copytree(tiny_data, data)
    taxonomy = data / "taxonomy.txt"
    rows = taxonomy.read_text(encoding="utf-8").splitlines()
    taxonomy.write_text("\n".join(edit(rows)) + "\n", encoding="utf-8")
    err = cli_error(capsys, ["train", "--data", str(data), "--out", str(tmp_path / "run")])
    assert err.startswith(f"error: {taxonomy}: ") and why in err


@pytest.mark.parametrize("lambda_clr", [0.1, 0])
def test_train_refuses_empty_doc_only_for_contrastive_training(tmp_path, capsys, tiny_data, lambda_clr):
    # a doc with no tokens embeds to exactly 0 at init, and NT-Xent cannot normalise 0
    data = tmp_path / "data"
    shutil.copytree(tiny_data, data)
    train = data / "train.jsonl"
    rows = train.read_text(encoding="utf-8").splitlines()
    rows[2] = json.dumps({"tokens": [], "labels": json.loads(rows[2])["labels"]})
    train.write_text("\n".join(rows) + "\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lambda_clr": lambda_clr, "epochs": 1}), encoding="utf-8")
    args = ["train", "--data", str(data), "--out", str(tmp_path / "run"), "--config", str(config)]
    if lambda_clr == 0:
        assert main(args) == 0 and capsys.readouterr().out.startswith("epoch 1 ")
    else:
        assert cli_error(capsys, args).startswith(f"error: {train}: example 3 has no tokens")


@pytest.mark.parametrize(
    "name,text,why",
    [
        ("train.jsonl", "", "empty training set"),
        ("train.jsonl", '{"tokens": [1, 2], "labels": [1]}\n', "one example only, which contrastive"),
        ("config.json", '{"batch_size": 1}', "batch_size must be at least 2 when lambda_clr > 0"),
    ],
    ids=["empty-set", "one-doc", "batch-of-one"],
)
def test_train_refuses_untrainable_contrastive_runs_before_writing(
    tmp_path, capsys, tiny_data, name, text, why
):
    # NT-Xent needs at least two documents in every batch
    data = tmp_path / "data"
    shutil.copytree(tiny_data, data)
    bad = (tmp_path if name == "config.json" else data) / name
    bad.write_text(text, encoding="utf-8")
    args = ["train", "--data", str(data), "--out", str(tmp_path / "run")]
    err = cli_error(capsys, args + (["--config", str(bad)] if name == "config.json" else []))
    assert err.startswith(f"error: {bad}: {why}")


def test_wide_taxonomy_trains_one_epoch(tmp_path, capsys):
    # 1365 labels; checks that the wide path runs and times nothing
    data, run = tmp_path / "data", tmp_path / "run"
    args = ["gen-data", "--out", str(data), "--depth", "5", "--branching", "4"]
    assert main(args + ["--n-train", "48", "--n-dev", "16", "--vocab", "256"]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"K": 3, "epochs": 1}), encoding="utf-8")
    assert main(["train", "--data", str(data), "--out", str(run), "--config", str(config)]) == 0
    lines = (run / "report.jsonl").read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
    assert len(rows) == 1 and math.isfinite(rows[0]["train_loss"])
    h = load_taxonomy(data / "taxonomy.txt")
    assert h.num_labels == 1365
    docs = [load_dataset(data / name, 256, h.num_labels) for name in ("train.jsonl", "dev.jsonl")]
    model, report = experiments.run_training(HillConfig(K=3, epochs=1), h, *docs, 256)
    assert model.structure.k == 3
    assert report == rows


def test_train_accepts_integers_for_float_fields(tmp_path, capsys, tiny_data):
    config = tmp_path / "config.json"
    text = '{"tau": 1, "lambda_clr": 0, "epochs": 1, "batch_size": 4}'
    config.write_text(text, encoding="utf-8")
    args = ["train", "--data", str(tiny_data), "--out", str(tmp_path / "run")]
    assert main(args + ["--config", str(config)]) == 0
    assert capsys.readouterr().out.startswith("epoch 1 ")


def test_gen_data_rejects_empty_vocabulary(tmp_path, capsys):
    args = ["gen-data", "--out", str(tmp_path / "data"), "--depth", "2", "--branching", "2"]
    assert cli_error(capsys, args + ["--vocab", "0"]) == "error: --vocab must be at least 1, got 0"


@pytest.mark.parametrize(
    "argv,why",
    [
        (["gen-data", "--depth", "1"], "--depth must be at least 2, got 1"),
        (["gen-data", "--branching", "1"], "--branching must be at least 2, got 1"),
        (["gen-data", "--vocab", str(2**63 + 1)],
         f"--vocab must be at most {2**63}, got {2**63 + 1}"),
        (["build-tree", "--height", "1"], "--height must be at least 2, got 1"),
        (["oracle", "--height", "1"], "--height must be at least 2, got 1"),
        (["compare", "--ks", "1"], "--ks must be at least 2, got 1"),
        (["compare", "--ks", "2", "--seeds", "42", "-1"], "--seeds must be at least 0, got -1"),
        (["compare", "--lam", "0.1", "--epochs", "0"], "--epochs must be at least 1, got 0"),
        (["compare", "--lam", "-1"], "--lam must be non-negative and finite, got -1.0"),
        (["compare", "--lam", "nan"], "--lam must be non-negative and finite, got nan"),
        (["compare", "--lam", "inf"], "--lam must be non-negative and finite, got inf"),
    ],
    ids=["depth", "branching", "vocab-above-2**63", "build-tree-height", "oracle-height",
         "compare-ks", "compare-seeds", "compare-epochs", "compare-lam-negative",
         "compare-lam-nan", "compare-lam-inf"],
)
def test_every_integer_flag_is_bounded_before_the_command_runs(
    tmp_path, capsys, bridge_file, argv, why
):
    files = {
        "gen-data": ["--out", str(tmp_path / "data")],
        "build-tree": ["--graph", str(bridge_file), "--out", str(tmp_path / "tree.json")],
        "oracle": ["--graph", str(bridge_file)],
        "compare": [],
    }
    assert cli_error(capsys, argv[:1] + files[argv[0]] + argv[1:]) == f"error: {why}"


def test_gen_data_takes_the_largest_vocabulary(tmp_path, capsys):
    args = ["gen-data", "--out", str(tmp_path / "data"), "--n-train", "1", "--n-dev", "1"]
    assert main(args + ["--vocab", str(2**63)]) == 0


@pytest.mark.parametrize(
    "argv,why",
    [
        (["gen-data", "--out", "data", "--seed", "abc"],
         "argument --seed: invalid int value: 'abc'"),
        (["train", "--data", "data"], "the following arguments are required: --out"),
        (["fly"], "argument command: invalid choice: 'fly' (choose from "),
        ([], "the following arguments are required: command"),
        (["compare", "--ks", "abc"], "argument --ks: invalid int value: 'abc'"),
        (["compare", "--ks", "2", "--lam", "0.1"], "argument --lam: not allowed with argument --ks"),
        (["compare"], "one of the arguments --ks --lam is required"),
        (["compare", "--ks", "99", "--epochs", "1"], "height 99 not realizable on 85 vertices"),
    ],
    ids=["non-integer", "missing-flag", "unknown-command", "no-command", "compare-non-integer",
         "compare-both-arms", "compare-no-arms", "compare-unrealizable-height"],
)
def test_malformed_command_line_is_one_error_line(tmp_path, capsys, monkeypatch, argv, why):
    monkeypatch.chdir(tmp_path)
    assert cli_error(capsys, argv).startswith(f"error: {why}")


def compare_row(capsys, *args):
    """`hill compare`'s one stdout JSON row."""
    capsys.readouterr()
    assert main(["compare", *args]) == 0
    [line] = capsys.readouterr().out.splitlines()
    return json.loads(line)


def test_compare_ablations_train_the_same_default_run(capsys):
    # both ablations train the default config at seed 42, one epoch, lambda 0.1
    sweep = compare_row(capsys, "--ks", "2", "--epochs", "1")
    assert sweep["seed"] == 42 and [arm["K"] for arm in sweep["arms"]] == [2]
    lam = compare_row(capsys, "--lam", "0.1", "--seeds", "42", "--epochs", "1")
    assert lam["seed"] == 42 and [arm["lambda_clr"] for arm in lam["arms"]] == [0.1, 0.0]
    assert set(sweep["arms"][0]) == {"K", "dev_micro_f1", "dev_macro_f1"}
    for f in ("dev_micro_f1", "dev_macro_f1"):
        assert sweep["arms"][0][f] == lam["arms"][0][f]


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hill ")


@pytest.mark.parametrize(
    "command,flags,why",
    [
        pytest.param("train-config", ["--seed", "-1"], "--seed must be at least 0, got -1",
                     id="train-config-seed"),
        pytest.param("train", ["--seed", "-1"], "--seed must be at least 0, got -1",
                     id="train-seed"),
        pytest.param("gen-data", ["--seed", "-1"], "--seed must be at least 0, got -1",
                     id="gen-data-seed"),
        pytest.param("gen-data", ["--n-train", "0"], "--n-train must be at least 1, got 0",
                     id="gen-data-n-train"),
        pytest.param("gen-data", ["--n-dev", "0"], "--n-dev must be at least 1, got 0",
                     id="gen-data-n-dev"),
    ],
)
def test_bad_flag_is_blamed_on_the_flag(tmp_path, capsys, tiny_data, command, flags, why):
    out = tmp_path / "out"
    config = tmp_path / "c.json"
    config.write_text('{"epochs": 1}', encoding="utf-8")
    if command == "gen-data":
        args = ["gen-data", "--out", str(out), "--depth", "2", "--branching", "2"]
    else:
        args = ["train", "--data", str(tiny_data), "--out", str(out)]
        args += ["--config", str(config)] if command == "train-config" else []
    assert cli_error(capsys, args + flags) == f"error: {why}"


def test_gen_data_defaults_are_the_experiment_defaults(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["gen-data", "--out", str(out)]) == 0
    _, train_docs, dev_docs = experiments.default_dataset()
    for name, docs in (("train.jsonl", train_docs), ("dev.jsonl", dev_docs)):
        save_dataset(docs, tmp_path / name)
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


@pytest.mark.parametrize("labels", ["0", "-2", "3"])
def test_eval_rejects_bad_label_count(tmp_path, capsys, labels):
    preds = tmp_path / "p.jsonl"
    save_dataset([Example(tokens=[], labels=[1, 3])], preds)
    cli_error(capsys, ["eval", "--pred", str(preds), "--gold", str(preds), "--labels", labels])


def test_eval_names_the_file_and_line_of_a_label_outside_labels(tmp_path, capsys):
    preds, golds = tmp_path / "p.jsonl", tmp_path / "g.jsonl"
    save_dataset([Example(tokens=[], labels=[5])], preds)
    save_dataset([Example(tokens=[], labels=[1])], golds)
    argv = ["eval", "--pred", str(preds), "--gold", str(golds), "--labels", "3"]
    assert cli_error(capsys, argv) == f"error: {preds}: line 1: label id 5 outside [0, 3)"


# -- malformed tree JSON through `hill entropy` -------------------------

_CYCLE4_TREE = json.loads(initial_tree(load_graph(CYCLE4)).to_json())["nodes"]
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats() | st.text(max_size=3),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
_not_an_id = st.none() | st.booleans() | st.floats() | st.text(max_size=3) | st.lists(st.integers())
_not_a_parent = _not_an_id.filter(lambda x: x is not None)
_not_children = (st.none() | st.integers() | st.text(max_size=3)) | st.lists(
    st.integers(0, 4), max_size=2
).flatmap(lambda ok: _not_an_id.map(lambda bad: ok + [bad]))


_BREAKS = (
    "drop key",
    "bad id",
    "bad parent",
    "bad children",
    "missing child",
    "duplicate",
    "drop node",
    "cycle",
)


@st.composite
def _broken_tree(draw):
    """The valid cycle4 tree with one change that always breaks it."""
    nodes = [dict(n) for n in _CYCLE4_TREE]
    i = draw(st.integers(0, len(nodes) - 1))
    kind = draw(st.sampled_from(_BREAKS))
    if kind == "drop key":
        del nodes[i][draw(st.sampled_from(["id", "parent", "children"]))]
    elif kind == "bad id":
        nodes[i]["id"] = draw(_not_an_id)
    elif kind == "bad parent":
        nodes[i]["parent"] = draw(_not_a_parent)
    elif kind == "bad children":
        nodes[i]["children"] = draw(_not_children)
    elif kind == "missing child":
        nodes[i]["children"] = nodes[i]["children"] + [draw(st.integers(5, 99))]
    elif kind == "duplicate":
        nodes.append(dict(nodes[i]))
    elif kind == "drop node":
        del nodes[i]
    else:
        nodes += [{"id": 7, "parent": 8, "children": [8]}, {"id": 8, "parent": 7, "children": [7]}]
    return {"height": 1, "nodes": nodes}


_not_a_tree = st.one_of(
    _json.filter(lambda x: not isinstance(x, dict) or not isinstance(x.get("nodes"), list)),
    st.lists(_json, max_size=4).map(lambda nodes: {"nodes": nodes}),
    _broken_tree(),
)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(obj=_not_a_tree)
def test_entropy_rejects_malformed_tree_json(tmp_path, cycle4_file, capsys, obj):
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(obj), encoding="utf-8")
    cli_error(capsys, ["entropy", "--graph", str(cycle4_file), "--tree", str(tree_path)])


_NOT_UTF8 = b"\xff\xfe not utf-8\n"
_GOOD_ROW = b'{"tokens": [1], "labels": [1]}\n'


@pytest.mark.parametrize(
    "name,content,why",
    [
        ("train.jsonl", b'{"tokens": [1], "labels": [1]}\n{"tokens": [1,\n', "line 2: Expecting value"),
        ("train.jsonl", _NOT_UTF8, "line 1: byte 0xff is not UTF-8"),
        ("taxonomy.txt", _NOT_UTF8, "line 1: byte 0xff is not UTF-8"),
        ("meta.json", _NOT_UTF8, "'utf-8' codec can't decode"),
        ("train.jsonl", _GOOD_ROW * 2 + b'{"tokens": [1], "labels": ["\xe9"]}\n' + _GOOD_ROW * 2,
         "line 3: byte 0xe9 is not UTF-8"),
    ],
    ids=[
        "dataset-truncated-line",
        "dataset-not-utf8",
        "taxonomy-not-utf8",
        "meta-not-utf8",
        "dataset-not-utf8-on-line-3",
    ],
)
def test_train_input_errors_name_the_file(tmp_path, capsys, tiny_data, name, content, why):
    data = tmp_path / "data"
    shutil.copytree(tiny_data, data)
    (data / name).write_bytes(content)
    err = cli_error(capsys, ["train", "--data", str(data), "--out", str(tmp_path / "run")])
    assert err.startswith(f"error: {data / name}: {why}")


@pytest.mark.parametrize(
    "command,content,why",
    [
        ("build-tree", b"0 1\n1 x\n", "line 2: non-integer vertex id in '1 x'"),
        ("build-tree", _NOT_UTF8, "line 1: byte 0xff is not UTF-8"),
        ("entropy", b'{"nodes": 3}', "tree JSON must be an object with a 'nodes' list"),
        ("entropy", _NOT_UTF8, "'utf-8' codec can't decode"),
        ("entropy", json.dumps({"height": 7, "nodes": _CYCLE4_TREE}).encode(),
         "tree JSON height 7 != tree height 1"),
        ("eval", b'{"labels": [1]}\n{"labels": [\n', "line 2: Expecting value"),
        # a form feed or U+2028 ends no line, as in a text-mode read
        ("build-tree", b"0 1\f\n1 x\n", "line 2: non-integer vertex id in '1 x'"),
        ("build-tree", "0 1\u20281 2\n".encode(), "line 1: expected 'u v', got '0 1\\u20281 2'"),
    ],
    ids=[
        "graph-bad-line",
        "graph-not-utf8",
        "tree-bad",
        "tree-not-utf8",
        "tree-wrong-height",
        "pred-truncated-line",
        "graph-form-feed",
        "graph-line-separator",
    ],
)
def test_input_errors_name_the_file(tmp_path, capsys, cycle4_file, command, content, why):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    argv = {
        "build-tree": ["build-tree", "--graph", str(bad), "--height", "2"],
        "entropy": ["entropy", "--graph", str(cycle4_file), "--tree", str(bad)],
        "eval": ["eval", "--pred", str(bad), "--gold", str(bad)],
    }[command]
    assert cli_error(capsys, argv).startswith(f"error: {bad}: {why}")


DEEP_JSON = "[" * 100_000 + "]" * 100_000  # deeper than any recursion limit


@pytest.mark.parametrize(
    "command,name,content,where",
    [
        ("entropy", "tree.json", DEEP_JSON, ""),
        ("train", "config.json", DEEP_JSON, ""),
        ("train", "meta.json", DEEP_JSON, ""),
        ("train", "train.jsonl", '{"tokens": [1], "labels": [1]}\n' + DEEP_JSON + "\n", "line 2: "),
        ("eval", "pred.jsonl", DEEP_JSON + "\n", "line 1: "),
    ],
    ids=["tree", "config", "meta", "dataset-line", "pred-line"],
)
def test_deeply_nested_json_is_one_error_line(
    tmp_path, capsys, cycle4_file, tiny_data, command, name, content, where
):
    data = tmp_path / "data"
    shutil.copytree(tiny_data, data)
    bad = (data if name in ("meta.json", "train.jsonl") else tmp_path) / name
    bad.write_text(content, encoding="utf-8")
    argv = {
        "entropy": ["entropy", "--graph", str(cycle4_file), "--tree", str(bad)],
        "train": ["train", "--data", str(data), "--out", str(tmp_path / "run")],
        "eval": ["eval", "--pred", str(bad), "--gold", str(data / "dev.jsonl")],
    }[command]
    if name == "config.json":
        argv += ["--config", str(bad)]
    err = cli_error(capsys, argv)
    assert err.startswith(f"error: {bad}: {where}") and "recursion" in err


_GRAPH_BREAKS = ("fields", "token", "negative", "self-loop", "isolated", "empty", "utf-8")


@st.composite
def _broken_graph_file(draw):
    """Bytes of an edge list over ids 0..99 with one change that always
    breaks it."""
    edges = draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=8))
    lines = [f"{u} {v}" for u, v in edges]
    kind = draw(st.sampled_from(_GRAPH_BREAKS))
    at = draw(st.integers(0, len(lines)))
    if kind == "fields":
        fields = draw(st.lists(st.integers(0, 99), min_size=1, max_size=4).filter(lambda f: len(f) != 2))
        lines.insert(at, " ".join(map(str, fields)))
    elif kind == "token":
        lines.insert(at, f"{draw(st.integers(0, 99))} {draw(st.sampled_from(['x', '1.5', '0x1', '']))}x")
    elif kind == "negative":
        lines.insert(at, f"{draw(st.integers(0, 99))} -{draw(st.integers(1, 99))}")
    elif kind == "self-loop":
        v = draw(st.integers(0, 99))
        lines.insert(at, f"{v} {v}")
    elif kind == "isolated":
        v = draw(st.integers(0, 97))
        lines = [f"{a} {b}" for a, b in edges if v not in (a, b)] + ["98 99"]
    elif kind == "empty":
        lines = draw(st.lists(st.sampled_from(["", "# comment", "   "]), max_size=3))
    text = "\n".join(lines).encode("utf-8")
    return b"\xff" + text if kind == "utf-8" else text


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(content=_broken_graph_file())
def test_build_tree_rejects_malformed_graph_files(tmp_path, capsys, content):
    graph = tmp_path / "graph.txt"
    graph.write_bytes(content)
    err = cli_error(capsys, ["build-tree", "--graph", str(graph), "--height", "2"])
    assert err.startswith(f"error: {graph}: ")


# -- malformed train.jsonl and dev.jsonl through `hill train` ---------------

_LIMITS = {"tokens": 64, "labels": 7}  # tiny_data's vocabulary and label count
_BAD_LINE_KINDS = (
    "json", "non-object", "no labels", "not a list", "not an id", "negative", "over", "utf-8"
)


def _not_json(text):
    try:
        json.loads(text.strip())  # the reader strips each line first
    except ValueError:
        return bool(text.strip())
    return False


@st.composite
def _broken_dataset_line(draw):
    """One line that breaks a dataset file, as (kind, bytes)."""
    kind = draw(st.sampled_from(_BAD_LINE_KINDS))
    field = draw(st.sampled_from(["tokens", "labels"]))
    row = {"tokens": [1, 2], "labels": [1]}
    if kind == "json":
        chars = st.characters(exclude_categories=("Cs",), exclude_characters="\r\n")
        text = draw(st.text(chars, min_size=1).filter(_not_json))
        return kind, text.encode()
    if kind == "non-object":
        return kind, json.dumps(draw(_json.filter(lambda x: not isinstance(x, dict)))).encode()
    if kind == "utf-8":
        return kind, json.dumps(row).encode().replace(b"[", b"[\xff", 1)
    if kind == "no labels":
        del row["labels"]
    elif kind == "not a list":
        row[field] = draw(_json.filter(lambda x: not isinstance(x, list)))
    else:
        bad = {
            "not an id": _not_an_id,
            "negative": st.integers(max_value=-1),
            "over": st.integers(min_value=_LIMITS[field]),
        }[kind]
        row[field].insert(draw(st.integers(0, len(row[field]))), draw(bad))
    return kind, json.dumps(row).encode()


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    name=st.sampled_from(["train.jsonl", "dev.jsonl"]),
    at=st.integers(0, 8),
    replace=st.booleans(),
    broken=_broken_dataset_line(),
)
def test_train_rejects_malformed_dataset_lines(
    tmp_path, capsys, tiny_data, name, at, replace, broken
):
    kind, line = broken
    lines = (tiny_data / name).read_bytes().splitlines()
    at = min(at, len(lines) - replace)
    lines[at : at + replace] = [line]
    data = tmp_path / "data"
    shutil.copytree(tiny_data, data, dirs_exist_ok=True)
    (data / name).write_bytes(b"\n".join(lines) + b"\n")
    err = cli_error(capsys, ["train", "--data", str(data), "--out", str(tmp_path / "run")])
    assert err.startswith(f"error: {data / name}: line {at + 1}: ")


# -- malformed taxonomy.txt, config files and meta.json through `hill train` --

_TINY_LABELS = ("root", "n0", "n1", "n0.0", "n0.1", "n1.0", "n1.1")  # tiny_data's taxonomy
_label_name = st.text(
    st.characters(exclude_categories=("Cs", "Cc")), min_size=1, max_size=4
).filter(lambda name: not name.startswith("#"))
_new_label_name = _label_name.filter(lambda name: name not in _TINY_LABELS)
_TAXONOMY_BREAKS = (
    "one field", "empty name", "two parents", "no parent", "cycle", "empty", "utf-8"
)


@st.composite
def _broken_taxonomy(draw):
    """tiny_data's taxonomy.txt with one change that always breaks it."""
    lines = [b"root\tn0\tn1", b"n0\tn0.0\tn0.1", b"n1\tn1.0\tn1.1"]
    kind = draw(st.sampled_from(_TAXONOMY_BREAKS))
    at = draw(st.integers(0, len(lines)))
    if kind == "one field":
        line = draw(_label_name)
    elif kind == "empty name":
        fields = st.lists(_label_name | st.just(""), min_size=2, max_size=4)
        line = "\t".join(draw(fields.filter(lambda f: "" in f)))
    elif kind == "two parents":
        line = f"{draw(_label_name)}\t{draw(st.sampled_from(_TINY_LABELS[1:]))}"
    elif kind == "no parent":
        line = f"{draw(_new_label_name)}\t{draw(_new_label_name)}"
    elif kind == "cycle":
        a, b = draw(st.lists(_new_label_name, min_size=2, max_size=2, unique=True))
        line = f"{a}\t{b}\n{b}\t{a}"
    elif kind == "empty":
        return "taxonomy.txt", "\n".join(draw(st.lists(st.sampled_from(["", "# note"])))).encode()
    else:
        line = "n2\t\udcff"  # surrogateescape writes back the byte 0xff
    lines.insert(at, line.encode("utf-8", "surrogateescape"))
    return "taxonomy.txt", b"\n".join(lines) + b"\n"


_not_a_number = st.none() | st.booleans() | st.text(max_size=3) | st.lists(st.integers(), max_size=2)
_not_an_int = _not_a_number | st.floats()
_not_positive = st.floats(max_value=0) | st.sampled_from([math.inf, math.nan])
_BAD_CONFIG_VALUES = {
    **dict.fromkeys(("d_B", "d_V", "epochs"), _not_an_int | st.integers(max_value=0)),
    "batch_size": _not_an_int | st.integers(max_value=1),  # lambda_clr stays 0.1
    "K": _not_an_int | st.integers(max_value=1),
    "seed": _not_an_int | st.integers(max_value=-1),
    **dict.fromkeys(("tau", "lr_encoder", "lr_structure"), _not_a_number | _not_positive),
    "lambda_clr": _not_a_number
    | st.floats(max_value=0).filter(lambda x: x < 0)
    | st.sampled_from([math.inf, math.nan]),
    "eta": _json.filter(lambda x: x not in ("sum", "mean")),
    "ntxent_form": _json.filter(lambda x: x not in ("simclr", "paper_literal")),
}


@st.composite
def _broken_config(draw):
    kind = draw(st.sampled_from(["json", "non-object", "unknown key", "bad value", "utf-8"]))
    if kind == "json":
        chars = st.characters(exclude_categories=("Cs",))
        return "config.json", draw(st.text(chars).filter(_not_json)).encode()
    if kind == "non-object":
        blob = draw(_json.filter(lambda x: not isinstance(x, dict)))
    elif kind == "unknown key":
        blob = {draw(st.text().filter(lambda k: k not in _BAD_CONFIG_VALUES)): draw(_json)}
    elif kind == "bad value":
        key = draw(st.sampled_from(sorted(_BAD_CONFIG_VALUES)))
        blob = {key: draw(_BAD_CONFIG_VALUES[key])}
    else:
        return "config.json", b'{"eta": "\xffsum"}'
    return "config.json", json.dumps(blob).encode()


@st.composite
def _broken_meta(draw):
    kind = draw(st.sampled_from(["json", "non-object", "no vocab_size", "bad vocab_size", "utf-8"]))
    meta = {"depth": 2, "branching": 2, "num_labels": 7, "vocab_size": 64}  # tiny_data's meta
    if kind == "json":
        chars = st.characters(exclude_categories=("Cs",))
        return "meta.json", draw(st.text(chars).filter(_not_json)).encode()
    if kind == "non-object":
        meta = draw(_json.filter(lambda x: not isinstance(x, dict)))
    elif kind == "no vocab_size":
        del meta["vocab_size"]
    elif kind == "bad vocab_size":
        meta["vocab_size"] = draw(_not_an_int | st.integers(max_value=0))
    else:
        return "meta.json", b'{"vocab_size": 64, "name": "\xff"}'
    return "meta.json", json.dumps(meta).encode()


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(broken=_broken_taxonomy() | _broken_config() | _broken_meta())
@example(broken=("config.json", b'{"seed": -1}'))  # numpy would refuse it naming no file
@example(broken=("config.json", b'{"a\\nb": 1}'))  # a line break in a key
def test_train_rejects_malformed_taxonomy_config_and_meta(tmp_path, capsys, tiny_data, broken):
    name, content = broken
    data = tmp_path / "data"
    shutil.copytree(tiny_data, data, dirs_exist_ok=True)
    bad = (tmp_path if name == "config.json" else data) / name
    bad.write_bytes(content)
    args = ["train", "--data", str(data), "--out", str(tmp_path / "run")]
    err = cli_error(capsys, args + (["--config", str(bad)] if name == "config.json" else []))
    assert err.startswith(f"error: {bad}: ")
