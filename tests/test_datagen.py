import numpy as np
import pytest

from hill import datagen
from hill.datagen import (
    Example,
    LabelHierarchy,
    count_matrix,
    gen_corpus,
    gen_hierarchy,
    hierarchy_to_graph,
    label_matrix,
    label_token,
    load_dataset,
    load_taxonomy,
    parent_closed,
    save_dataset,
    save_taxonomy,
)


def test_gen_hierarchy_shape():
    h = gen_hierarchy(3, 4)
    assert h.num_labels == 1 + 4 + 16 + 64
    assert h.parent[1] == 0
    assert len(h.leaves()) == 64
    assert all(h.depth_of(leaf) == 3 for leaf in h.leaves())


def test_gen_hierarchy_argument_checks():
    with pytest.raises(ValueError):
        gen_hierarchy(1, 4)
    with pytest.raises(ValueError):
        gen_hierarchy(3, 1)


def test_hierarchy_validation():
    with pytest.raises(ValueError, match="exactly one parent"):
        LabelHierarchy(names=["root", "a", "b"], parent={1: 0})
    with pytest.raises(ValueError, match="out of range"):
        LabelHierarchy(names=["root", "a"], parent={1: 5})
    with pytest.raises(ValueError, match="cycle"):
        LabelHierarchy(names=["root", "a", "b"], parent={1: 2, 2: 1})


def test_path_from_root():
    h = gen_hierarchy(2, 2)
    leaf = h.leaves()[0]
    path = h.path_from_root(leaf)
    assert path[-1] == leaf
    assert h.parent[path[0]] == 0
    assert len(path) == 2


def test_hierarchy_to_graph_is_tree():
    h = gen_hierarchy(2, 3)
    g = hierarchy_to_graph(h)
    assert g.node_count == h.num_labels
    assert len(g.edges) == h.num_labels - 1
    assert g.degree[0] == 3  # root connects to its children only


def test_taxonomy_round_trip(tmp_path):
    h = gen_hierarchy(3, 2)
    path = tmp_path / "tax.txt"
    save_taxonomy(h, path)
    back = load_taxonomy(path)
    assert back.names == h.names
    assert back.parent == h.parent


def test_load_taxonomy_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        load_taxonomy(p)
    p.write_text("root\ta\nother\ta\n", encoding="utf-8")
    with pytest.raises(ValueError, match="two parents"):
        load_taxonomy(p)


def test_label_token_deterministic_and_in_range():
    for label in range(10):
        for slot in range(datagen.TOKENS_PER_LABEL):
            t = label_token(label, slot, 512)
            assert 0 <= t < 512
            assert t == label_token(label, slot, 512)


def test_gen_corpus_labels_are_paths():
    h = gen_hierarchy(3, 2)
    docs = gen_corpus(h, 50, 256, seed=0)
    leaves = set(h.leaves())
    for ex in docs:
        assert len(ex.labels) == 3  # one label per level, root excluded
        assert 0 not in ex.labels
        assert parent_closed(h, ex.labels)
        assert leaves & set(ex.labels)
        assert 20 <= len(ex.tokens) <= 40
        assert all(0 <= t < 256 for t in ex.tokens)


def test_gen_corpus_deterministic():
    h = gen_hierarchy(2, 2)
    a = gen_corpus(h, 20, 128, seed=5)
    b = gen_corpus(h, 20, 128, seed=5)
    c = gen_corpus(h, 20, 128, seed=6)
    assert [(x.tokens, x.labels) for x in a] == [(x.tokens, x.labels) for x in b]
    assert [(x.tokens, x.labels) for x in a] != [(x.tokens, x.labels) for x in c]


def test_gen_corpus_max_tokens():
    h = gen_hierarchy(2, 2)
    docs = gen_corpus(h, 30, 128, seed=1, max_tokens=10)
    assert all(len(ex.tokens) <= 10 for ex in docs)


def test_parent_closed_negative():
    h = gen_hierarchy(2, 2)
    leaf = h.leaves()[0]
    assert not parent_closed(h, [leaf])
    assert parent_closed(h, h.path_from_root(leaf))


def test_dataset_round_trip(tmp_path):
    h = gen_hierarchy(2, 2)
    docs = gen_corpus(h, 10, 64, seed=2)
    path = tmp_path / "docs.jsonl"
    save_dataset(docs, path)
    back = load_dataset(path)
    assert [(x.tokens, x.labels) for x in back] == [(x.tokens, x.labels) for x in docs]


def test_load_dataset_requires_labels(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"tokens": [1, 2]}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="labels"):
        load_dataset(p)


def test_count_and_label_matrices():
    docs = [Example(tokens=[0, 0, 3], labels=[1, 2]), Example(tokens=[3], labels=[2])]
    counts = count_matrix(docs, 4)
    assert counts.tolist() == [[2.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]]
    y = label_matrix(docs, 3)
    assert y.tolist() == [[0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize(
    "build,docs,message",
    [
        (count_matrix, [Example([1], [1]), Example([2, -1], [1])], "doc 1: token id -1 "),
        (count_matrix, [Example([4], [1])], "doc 0: token id 4 "),
        (label_matrix, [Example([], []), Example([], [1]), Example([], [0, -2])], "doc 2: label id -2 "),
        (label_matrix, [Example([], [4])], "doc 0: label id 4 "),
    ],
)
def test_count_and_label_matrices_reject_bad_ids(build, docs, message):
    with pytest.raises(ValueError, match=message):
        build(docs, 4)


@pytest.mark.parametrize(
    "line,message",
    [
        ('{"tokens": [1, -1], "labels": [1]}', "token id -1 is negative"),
        ('{"tokens": [1, 4], "labels": [1]}', r"token id 4 outside \[0, 4\)"),
        ('{"tokens": [1], "labels": [3]}', r"label id 3 outside \[0, 3\)"),
        ('{"tokens": [1, 1.5], "labels": [1]}', "token id 1.5 is not an integer"),
        ('{"tokens": [1, "3"], "labels": [1]}', "token id '3' is not an integer"),
        ('{"tokens": [1, true], "labels": [1]}', "token id True is not an integer"),
        ('{"tokens": [1], "labels": [1, [2]]}', r"label id \[2\] is not an integer"),
        ('{"tokens": [1], "labels": 3}', "labels 3 is not a list"),
        ("[1]", "missing 'labels'"),
    ],
)
def test_load_dataset_rejects_bad_ids(tmp_path, line, message):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"tokens": [0], "labels": [0]}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"bad.jsonl: line 2: {message}"):
        load_dataset(p, vocab_size=4, num_labels=3)


def test_load_dataset_without_limits_still_rejects_negative_ids(tmp_path):
    p = tmp_path / "preds.jsonl"
    p.write_text('{"labels": [7, 99]}\n{"labels": [-1]}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: label id -1 is negative"):
        load_dataset(p)
