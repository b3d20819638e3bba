import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hill import experiments
from hill import tensor_nn as tn
from hill.coding_tree import initial_tree
from hill.datagen import Example, LabelHierarchy, gen_corpus, hierarchy_to_graph
from hill.entropy_min import build_coding_tree
from hill.hill_model import ETA_MODES, HillConfig, HillModel


def test_compare_arms_are_the_runs_final_f1():
    hierarchy, train_docs, dev_docs = experiments.default_dataset(2, 2, 16, 8, 64, 0)
    config = HillConfig(d_B=8, d_V=4, epochs=1, batch_size=4)
    arms = [{"lambda_clr": 0.3}, {"lambda_clr": 0.0, "eta": "mean"}]
    rows = experiments.compare(config, arms, [1, 2], hierarchy, train_docs, dev_docs, vocab=64)
    assert [row["seed"] for row in rows] == [1, 2]
    for row in rows:
        assert len(row["arms"]) == len(arms)
        for arm, fields in zip(row["arms"], arms):
            run = replace(config, **fields, seed=row["seed"])
            _, report = experiments.run_training(run, hierarchy, train_docs, dev_docs, 64)
            assert arm == {**fields, "dev_micro_f1": report[-1]["dev_micro_f1"],
                           "dev_macro_f1": report[-1]["dev_macro_f1"]}


def test_run_training_writes_the_run_directory(tmp_path):
    hierarchy, train_docs, dev_docs = experiments.default_dataset(2, 2, 16, 8, 64, 0)
    config = HillConfig(d_B=8, d_V=4, epochs=2, batch_size=4)
    out = tmp_path / "run"
    model, report = experiments.run_training(config, hierarchy, train_docs, dev_docs, 64, out=out)
    assert sorted(p.name for p in out.iterdir()) == ["checkpoint.json", "config.json", "report.jsonl"]
    lines = (out / "report.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == report and len(report) == 2
    assert HillConfig.from_json_file(out / "config.json") == config
    # a model from another seed, so every parameter must come from the file
    tree = build_coding_tree(hierarchy_to_graph(hierarchy), config.K)
    fresh = HillModel(replace(config, seed=1), 64, hierarchy.num_labels, tree)
    tn.load_checkpoint(fresh.parameters(), out / "checkpoint.json")
    pairs = list(zip(fresh.parameters(), model.parameters(), strict=True))
    assert all(a.name == b.name and np.array_equal(a.value, b.value) for a, b in pairs)


def test_run_training_refuses_a_tree_of_another_height_before_making_out(tmp_path):
    hierarchy, train_docs, dev_docs = experiments.default_dataset(2, 2, 16, 8, 64, 0)
    tree = build_coding_tree(hierarchy_to_graph(hierarchy), 3)
    config = HillConfig(d_B=8, d_V=4, K=2, epochs=1, batch_size=4)
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="^tree height 3 != configured K 2$"):
        experiments.run_training(config, hierarchy, train_docs, dev_docs, 64, tree=tree, out=out)
    assert not out.exists()


def test_run_training_refuses_a_tree_with_leaves_at_two_depths_before_making_out(tmp_path):
    hierarchy, train_docs, dev_docs = experiments.default_dataset(2, 2, 16, 8, 64, 0)
    tree = initial_tree(hierarchy_to_graph(hierarchy))
    tree.compress(0, 1)  # height 2, but every other leaf stays at depth 1
    config = HillConfig(d_B=8, d_V=4, K=2, epochs=1, batch_size=4)
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=r"^leaf depths not uniform: \[1, 2\]$"):
        experiments.run_training(config, hierarchy, train_docs, dev_docs, 64, tree=tree, out=out)
    assert not out.exists()


def test_compare_builds_one_tree_per_distinct_k(monkeypatch):
    built = []
    monkeypatch.setattr(experiments, "build_coding_tree",
                        lambda graph, k: built.append(k) or build_coding_tree(graph, k))
    report = [{"dev_micro_f1": 0.0, "dev_macro_f1": 0.0}]
    monkeypatch.setattr(experiments, "train", lambda *args: report)
    hierarchy, train_docs, dev_docs = experiments.default_dataset(2, 2, 16, 8, 64, 0)
    config = HillConfig(d_B=8, d_V=4, epochs=1, batch_size=4)
    arms = [{"K": 2}, {"K": 3}, {"K": 2, "lambda_clr": 0.0}]
    rows = experiments.compare(config, arms, [1, 2], hierarchy, train_docs, dev_docs, vocab=64)
    assert [len(row["arms"]) for row in rows] == [3, 3]
    assert built == [2, 3]


@pytest.mark.parametrize("lambda_clr", [0.1, 0.0])
def test_run_training_refuses_empty_doc_only_for_contrastive_training(tmp_path, lambda_clr):
    hierarchy, train_docs, dev_docs = experiments.default_dataset(2, 2, 16, 8, 64, 0)
    train_docs[5] = Example(tokens=[], labels=train_docs[5].labels)
    config = HillConfig(d_B=8, d_V=4, epochs=1, batch_size=4, lambda_clr=lambda_clr)
    out = tmp_path / "run"
    if lambda_clr > 0:
        with pytest.raises(ValueError, match=r"^example 6 has no tokens"):
            experiments.run_training(config, hierarchy, train_docs, dev_docs, 64, out=out)
        assert not out.exists()
    else:
        _, report = experiments.run_training(config, hierarchy, train_docs, dev_docs, 64, out=out)
        assert len(report) == 1 and (out / "checkpoint.json").exists()


def test_run_training_refuses_a_bad_token_id_before_making_out(tmp_path):
    hierarchy, train_docs, dev_docs = experiments.default_dataset(2, 2, 16, 8, 64, 0)
    train_docs[3] = Example(tokens=[5000], labels=train_docs[3].labels)
    config = HillConfig(d_B=8, d_V=4, epochs=1, batch_size=4)
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=r"^doc 3: token id 5000 outside \[0, 64\)$"):
        experiments.run_training(config, hierarchy, train_docs, dev_docs, 64, out=out)
    assert not out.exists()


@pytest.mark.parametrize(
    "arms, seeds, message",
    [
        ([{"K": 2}, {"K": 99}], [1, 2], "height 99 not realizable"),
        ([{"K": 2}], [1, -1], "seed must be at least 0, got -1"),
    ],
    ids=["K=99", "seed=-1"],
)
def test_compare_checks_every_arm_before_training_any(monkeypatch, arms, seeds, message):
    calls = []
    report = [{"dev_micro_f1": 0.0, "dev_macro_f1": 0.0}]
    monkeypatch.setattr(experiments, "train", lambda *args: calls.append(args) or report)
    hierarchy, train_docs, dev_docs = experiments.default_dataset(2, 2, 16, 8, 64, 0)
    config = HillConfig(d_B=8, d_V=4, epochs=1, batch_size=4)
    with pytest.raises(ValueError, match=message):
        experiments.compare(config, arms, seeds, hierarchy, train_docs, dev_docs, vocab=64)
    assert calls == []


@st.composite
def random_taxonomies(draw):
    """2 to 39 labels; each label hangs under the one before it (a chain),
    under the root (a star) or under any earlier label."""
    parent = {}
    for label in range(1, draw(st.integers(2, 39))):
        parent[label] = draw(st.one_of(st.just(label - 1), st.just(0), st.integers(0, label - 1)))
    return LabelHierarchy(names=[f"l{i}" for i in range(len(parent) + 1)], parent=parent)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(hierarchy=random_taxonomies())
def test_every_realizable_height_of_a_random_taxonomy_trains(hierarchy):
    # at every K up to |V| - 1 the greedy tree is valid and one narrow
    # epoch ends with a finite loss under both readouts; K = |V| is the
    # one refusal
    g = hierarchy_to_graph(hierarchy)
    train_docs, dev_docs = gen_corpus(hierarchy, 8, 64, 0), gen_corpus(hierarchy, 4, 64, 1)
    for k in range(2, hierarchy.num_labels + 1):
        try:
            tree = build_coding_tree(g, k)
        except ValueError as err:
            assert k == hierarchy.num_labels and str(err) == f"height {k} not realizable on {k} vertices"
            continue
        tree.validate()
        assert tree.height == k
        for eta in ETA_MODES:
            config = HillConfig(d_B=8, d_V=4, K=k, eta=eta, epochs=1)
            _, report = experiments.run_training(config, hierarchy, train_docs, dev_docs, 64, tree=tree)
            assert np.isfinite(report[-1]["train_loss"])
