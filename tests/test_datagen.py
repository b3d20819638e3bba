import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hill import datagen
from hill.datagen import (
    Example,
    LabelHierarchy,
    PackedExamples,
    _checked_ids,
    _ids_by_doc,
    check_ids,
    count_matrix,
    gen_corpus,
    gen_hierarchy,
    hierarchy_to_graph,
    label_matrix,
    label_token,
    load_dataset,
    load_taxonomy,
    save_dataset,
    save_taxonomy,
)


def test_gen_hierarchy_shape():
    h = gen_hierarchy(3, 4)
    assert h.num_labels == 1 + 4 + 16 + 64
    assert h.parent[1] == 0
    assert len(h.leaves()) == 64
    assert all(len(h.path_from_root(leaf)) == 3 for leaf in h.leaves())


def test_gen_hierarchy_argument_checks():
    with pytest.raises(ValueError):
        gen_hierarchy(1, 4)
    with pytest.raises(ValueError):
        gen_hierarchy(3, 1)


def test_hierarchy_validation():
    with pytest.raises(ValueError, match="needs its root"):
        LabelHierarchy(names=[], parent={})
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
    p.write_text("root\ta\nlonely\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.txt: line 2: expected parent and children"):
        load_taxonomy(p)
    p.write_text("root\ta\tb\nc\td\n", encoding="utf-8")  # a second root
    with pytest.raises(ValueError, match="bad.txt: line 2: label 'c' has no parent"):
        load_taxonomy(p)
    p.write_text("root\ta\na\troot\n", encoding="utf-8")  # a parent over the root
    with pytest.raises(ValueError, match="bad.txt: line 2: label 'root' is the root and cannot"):
        load_taxonomy(p)
    p.write_text("root\ta\nb\tc\nc\tb\n", encoding="utf-8")  # a cycle that avoids the root
    with pytest.raises(ValueError, match="bad.txt: line 2: label 'b' is its own ancestor"):
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
        assert all(h.parent[y] == 0 or h.parent[y] in ex.labels for y in ex.labels)
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


def test_gen_corpus_rejects_no_documents():
    with pytest.raises(ValueError, match="at least one document"):
        gen_corpus(gen_hierarchy(2, 2), 0, 64, seed=0)


@pytest.mark.parametrize(
    "n_docs,vocab,message",
    [
        (3, 64.0, "vocab_size must be an int, got 64.0"),
        (3, True, "vocab_size must be an int, got True"),
        (3, np.bool_(True), "vocab_size must be an int"),
        (3, "64", "vocab_size must be an int, got '64'"),
        (3.0, 64, "n_docs must be an int, got 3.0"),
        (True, 64, "n_docs must be an int, got True"),
        (3, 2**63 + 1, r"vocab_size must be at most 2\*\*63"),
        (3, 2**64, r"vocab_size must be at most 2\*\*63"),
    ],
)
def test_gen_corpus_refuses_bad_arguments(n_docs, vocab, message):
    with pytest.raises(ValueError, match=message):
        gen_corpus(gen_hierarchy(2, 2), n_docs, vocab, seed=0)


@pytest.mark.parametrize(
    "seed,message",
    [
        (None, "seed must be an int, got None"),
        (1.5, "seed must be an int, got 1.5"),
        (True, "seed must be an int, got True"),
        (np.bool_(False), "seed must be an int"),
        (-1, "seed must be at least 0, got -1"),
        (np.int64(-2), "seed must be at least 0, got -2"),
    ],
)
def test_gen_corpus_refuses_a_bad_seed(seed, message):
    with pytest.raises(ValueError, match=message):
        gen_corpus(gen_hierarchy(2, 2), 3, 64, seed)


def test_gen_corpus_refuses_a_root_only_hierarchy():
    with pytest.raises(ValueError, match="label besides the root"):
        gen_corpus(LabelHierarchy(names=["root"], parent={}), 3, 64, seed=0)


def test_gen_corpus_takes_numpy_integers_as_ints():
    h = gen_hierarchy(2, 3)
    docs = gen_corpus(h, np.int64(5), np.int32(64), seed=3)
    assert docs == gen_corpus(h, 5, 64, seed=3) == gen_corpus(h, 5, 64, seed=np.uint32(3))
    assert {type(t) for ex in docs for t in ex.tokens} == {int}


def _reference_gen_corpus(h, n_docs, vocab_size, seed):
    """gen_corpus as scalar np.random.Generator calls, the form it
    replaced."""
    leaves = h.leaves()
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_docs):
        leaf = leaves[rng.integers(len(leaves))]
        labels = sorted(h.path_from_root(leaf))
        tokens = []
        for _ in range(int(rng.integers(20, 41))):
            if rng.random() < datagen._SIGNAL_PROB:
                lab = labels[rng.integers(len(labels))]
                tokens.append(label_token(lab, int(rng.integers(datagen.TOKENS_PER_LABEL)), vocab_size))
            else:
                tokens.append(int(rng.integers(vocab_size)))
        docs.append(Example(tokens=tokens, labels=labels))
    return docs


# paths of two and three labels, then the same with label 2 a one-label path
UNEVEN = LabelHierarchy(names=list("rabcdefg"), parent={1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 5, 7: 5})
ONE_LABEL_PATH = LabelHierarchy(names=list("rabcdef"), parent={1: 0, 2: 0, 3: 1, 4: 1, 5: 3, 6: 3})
SINGLE_LEAF = LabelHierarchy(names=list("rab"), parent={1: 0, 2: 1})


@pytest.mark.parametrize("shape", [(2, 2), (3, 4), (4, 3), (2, 7), UNEVEN, ONE_LABEL_PATH, SINGLE_LEAF])
def test_gen_corpus_equals_the_scalar_generator_form(shape):
    # 100 documents take about 6000 raw draws, more than one block; the
    # walk redraws nothing up to 2**32 - 1 here, falls back at 2**31 + 1,
    # and does not run at 1 or above 2**32, for a one-label path or for
    # a single leaf
    h = gen_hierarchy(*shape) if isinstance(shape, tuple) else shape
    for n_docs in (1, 100):
        for vocab in (1, 3, 64, 1000, 2048, 2**31 + 1, 2**32, 2**32 + 1, 2**63):
            for seed in (0, 1, 42):
                assert gen_corpus(h, n_docs, vocab, seed) == _reference_gen_corpus(h, n_docs, vocab, seed)
    n_docs = 3 * datagen._CHUNK_DOCS + 1  # across three chunk boundaries
    for vocab in (3, 2048):
        assert gen_corpus(h, n_docs, vocab, 7) == _reference_gen_corpus(h, n_docs, vocab, 7)


def test_a_redraw_after_the_first_chunk_gives_the_whole_reference_corpus():
    h = gen_hierarchy(3, 4)
    paths = [sorted(h.path_from_root(leaf)) for leaf in h.leaves()]
    n_docs = 3 * datagen._CHUNK_DOCS + 1
    assert datagen._walk_corpus(paths, n_docs, 2048, 1) is not None  # the walk runs
    # found by search: this vocabulary redraws about one 32-bit half in
    # 2000, and under seed 1 the first redraw lies past the first chunk
    vocab, seed = 1430940765, 1
    assert datagen._walk_corpus(paths, datagen._CHUNK_DOCS, vocab, seed) is not None
    assert datagen._walk_corpus(paths, n_docs, vocab, seed) is None
    assert gen_corpus(h, n_docs, vocab, seed) == _reference_gen_corpus(h, n_docs, vocab, seed)


@pytest.mark.parametrize("shape", [(3, 4), ONE_LABEL_PATH, SINGLE_LEAF])
def test_each_distinct_token_id_is_one_int_object(shape):
    # (3, 4) takes the walk, across chunks; the other two take the loop
    h = gen_hierarchy(*shape) if isinstance(shape, tuple) else shape
    docs = gen_corpus(h, 3 * datagen._CHUNK_DOCS + 1, 2048, seed=7)
    tokens = [t for ex in docs for t in ex.tokens]
    assert len({id(t) for t in tokens}) == len(set(tokens))
    assert {type(t) for t in tokens} == {int}


def test_corpus_memory_is_its_lists_and_one_int_per_distinct_id():
    # 8192 documents hold 246,378 tokens of 2048 ids: about 4 MB live with
    # one int per distinct id, 10.9 MB with an int object per token
    h = gen_hierarchy(3, 4)
    gen_corpus(h, 1, 2048, seed=7)
    tracemalloc.start()
    try:
        docs = gen_corpus(h, 8192, 2048, seed=7)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(docs) == 8192
    assert live < 6e6


# 2**31 + 1 redraws about half its 32-bit halves and 2**62 + 1 a quarter of
# its 64-bit draws; 2**32 takes a half as it is; from 2**32 + 1 up, the draws
# are whole; 2**63 is the largest vocab_size
SAMPLER_BOUNDS = [1, 3, 21, 2048, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32, 2**32 + 1,
                  2**40 + 3, 2**62 + 1, 2**63 - 1, 2**63]


@pytest.mark.parametrize("seeds,calls", [(range(200), 300), (range(200, 203), 12000)])
def test_sampler_matches_numpy_generator(seeds, calls):
    for seed in seeds:
        sampler, gen = datagen._Sampler(seed), np.random.default_rng(seed)
        picks = np.random.default_rng([seed, 1]).integers(len(SAMPLER_BOUNDS) + 1, size=calls)
        for k in picks.tolist():
            if k == len(SAMPLER_BOUNDS):
                assert sampler.random() == gen.random(), (seed, "random")
            else:
                n = SAMPLER_BOUNDS[k]
                assert sampler.integers(n) == gen.integers(n), (seed, n)


def test_dataset_round_trip(tmp_path):
    h = gen_hierarchy(2, 2)
    docs = gen_corpus(h, 10, 64, seed=2)
    path = tmp_path / "docs.jsonl"
    save_dataset(docs, path)
    back = load_dataset(path)
    assert [(x.tokens, x.labels) for x in back] == [(x.tokens, x.labels) for x in docs]


def test_loaded_memory_is_its_lists_and_one_int_per_distinct_id(tmp_path):
    # the saved 8192-document corpus reloads as about 4 MB live, as
    # generated; with an int object per token it read 10 MB
    path = tmp_path / "docs.jsonl"
    save_dataset(gen_corpus(gen_hierarchy(3, 4), 8192, 2048, seed=7), path)
    load_dataset(path, 2048, 85)
    tracemalloc.start()
    try:
        docs = load_dataset(path, 2048, 85)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    tokens = [t for ex in docs for t in ex.tokens]
    assert len(docs) == 8192
    assert len({id(t) for t in tokens}) == len(set(tokens))
    assert live < 6e6


def test_load_dataset_runs_the_id_rule_only_on_a_refusal(tmp_path, monkeypatch):
    path = tmp_path / "docs.jsonl"
    docs = gen_corpus(gen_hierarchy(2, 3), 50, 64, seed=4)
    save_dataset(docs, path)
    ruled = []

    def rule(ids, limit, what):
        ruled.append(ids)
        _checked_ids(ids, limit, what)

    monkeypatch.setattr(datagen, "_checked_ids", rule)
    for limits in ((64, 13), (None, None)):
        back = load_dataset(path, *limits)
        assert [(x.tokens, x.labels) for x in back] == [(x.tokens, x.labels) for x in docs]
    assert ruled == []
    docs[30].tokens[5] = 64
    save_dataset(docs, path)
    with pytest.raises(ValueError, match=r"docs.jsonl: line 31: token id 64 outside \[0, 64\)$"):
        load_dataset(path, 64, 13)
    assert ruled


@pytest.mark.parametrize(
    "lines,message",
    [
        # token ids are judged before label ids, whatever their lines
        (['{"labels": [0]}', '{"labels": [9]}', '{"labels": [0]}', '{"tokens": [99], "labels": [0]}'],
         r"line 4: token id 99 outside \[0, 4\)"),
        # every line parses before any id is judged
        (['{"labels": [0]}', '{"tokens": [-1], "labels": [0]}', '{"labels": '], "line 3: "),
    ],
    ids=["tokens-before-labels", "lines-before-ids"],
)
def test_load_dataset_names_faults_in_check_order(tmp_path, lines, message):
    p = tmp_path / "bad.jsonl"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: {message}"):
        load_dataset(p, vocab_size=VOCAB, num_labels=LABELS)


def test_load_dataset_without_limits_takes_ids_past_int64(tmp_path):
    p = tmp_path / "preds.jsonl"
    p.write_text('{"labels": [18446744073709551616]}\n', encoding="utf-8")
    assert [(x.tokens, x.labels) for x in load_dataset(p)] == [([], [2**64])]


def test_load_dataset_skips_blank_lines(tmp_path):
    p = tmp_path / "docs.jsonl"
    p.write_text('\n{"tokens": [1], "labels": [2]}\n  \n\n{"labels": [3]}\n', encoding="utf-8")
    assert [(x.tokens, x.labels) for x in load_dataset(p)] == [([1], [2]), ([], [3])]


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


VOCAB, LABELS = 4, 3

# Bad id lists, one table for every reader of ids: the field that holds
# them, the index of the document they sit in, the ids, and the id rule's
# message. Tokens are read below VOCAB and labels below LABELS.
BAD_IDS = [
    ("tokens", 1, [1, -1], "token id -1 is negative"),
    ("tokens", 0, [1, 4], r"token id 4 outside \[0, 4\)"),
    ("labels", 2, [0, -2], "label id -2 is negative"),
    ("labels", 0, [3], r"label id 3 outside \[0, 3\)"),
    ("tokens", 0, [1, 1.5], "token id 1.5 is not an integer"),
    ("tokens", 1, [1, "3"], "token id '3' is not an integer"),
    ("tokens", 0, [1, True], "token id True is not an integer"),
    ("tokens", 0, [1, [2]], r"token id \[2\] is not an integer"),
    ("tokens", 0, [[1], [2]], r"token id \[1\] is not an integer"),
    ("labels", 1, [0.9], "label id 0.9 is not an integer"),
    ("labels", 1, [1, [2]], r"label id \[2\] is not an integer"),
    ("labels", 1, 3, "label ids 3 is not a list"),
    ("labels", 0, [2, False], "label id False is not an integer"),
    ("tokens", 2, [2**70], r"token id 1180591620717411303424 outside \[0, 4\)"),
]


def _bad_doc(field, ids):
    return {"tokens": [1], "labels": [1], field: ids}


@pytest.mark.parametrize(
    "build,docs,message",
    [
        (
            count_matrix if field == "tokens" else label_matrix,
            [Example([0], [0])] * doc + [Example(**_bad_doc(field, ids))],
            f"doc {doc}: {message}",
        )
        for field, doc, ids, message in BAD_IDS
        + [("tokens", 0, [np.True_], "token id np.True_ is not an integer")]
    ],
)
def test_count_and_label_matrices_reject_bad_ids(build, docs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(docs, VOCAB if build is count_matrix else LABELS)
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_ids(docs, VOCAB, LABELS)


_good_id = st.integers(0, 9) | st.integers(0, 9).map(np.int64)
_bad_id = st.one_of(
    st.booleans(),
    st.booleans().map(np.bool_),
    st.floats(),
    st.text(max_size=2),
    st.lists(st.integers(0, 3), max_size=2),
    st.integers(2**63, 2**70),
    st.integers(-5, -1) | st.integers(-5, -1).map(np.int64),
    st.integers(10, 20),
)
_id_list = st.lists(_good_id, max_size=5) | st.lists(_good_id | _bad_id, max_size=5)
_doc_ids = st.one_of(
    _id_list,
    _id_list.map(tuple),
    st.none(),
    st.integers(),
    st.text(max_size=3),
    st.sets(st.integers(0, 9), max_size=3),
    st.dictionaries(st.integers(0, 9), st.integers(0, 9), max_size=2),
    st.lists(st.integers(0, 9), max_size=3).map(np.array),
)


@settings(max_examples=300, deadline=None)
@given(id_lists=st.lists(_doc_ids, max_size=4), limit=st.sampled_from([10, None]))
def test_ids_by_doc_accepts_exactly_what_the_rule_accepts(id_lists, limit):
    first_error = None
    for doc, ids in enumerate(id_lists):
        try:
            _checked_ids(ids, limit, "token")
        except ValueError as exc:
            first_error = f"doc {doc}: {exc}"
            break
    if first_error is not None:
        with pytest.raises(ValueError) as refused:
            _ids_by_doc(id_lists, limit, "token")
        assert str(refused.value) == first_error
        return
    rows, ids = _ids_by_doc(id_lists, limit, "token")
    flat = [i for doc_ids in id_lists for i in doc_ids]
    assert rows.tolist() == [doc for doc, doc_ids in enumerate(id_lists) for _ in doc_ids]
    if any(i >= 2**63 for i in flat):  # only a None limit takes these
        assert limit is None and ids is None
        return
    assert ids.dtype == np.int64
    assert np.array_equal(ids, np.array(flat, dtype=np.int64))


def test_count_and_label_matrices_accept_empty_id_lists():
    # numpy reads an empty list as float64; it must still index as no ids
    docs = [Example([], []), Example([], [])]
    assert count_matrix(docs, 3).tolist() == [[0.0] * 3] * 2
    assert label_matrix(docs, 2).tolist() == [[0.0] * 2] * 2
    check_ids(docs, 3, 2)


@pytest.mark.parametrize("ids", [5, None, "12"])
def test_ids_that_are_not_a_list_are_refused(ids):
    # a string would otherwise be read as one id per character
    bad_tokens = [Example([1], [1]), Example(ids, [1])]
    bad_labels = [Example([1], [1]), Example([1], ids)]
    token_msg = f"^doc 1: token ids {re.escape(repr(ids))} is not a list$"
    label_msg = f"^doc 1: label ids {re.escape(repr(ids))} is not a list$"
    with pytest.raises(ValueError, match=token_msg):
        count_matrix(bad_tokens, 4)
    with pytest.raises(ValueError, match=token_msg):
        check_ids(bad_tokens, 4, 4)
    with pytest.raises(ValueError, match=label_msg):
        label_matrix(bad_labels, 4)
    with pytest.raises(ValueError, match=label_msg):
        check_ids(bad_labels, 4, 4)


def test_tuples_and_list_subclasses_hold_ids():
    class Ids(list):
        pass

    docs = [Example((0, 2, 2), (1,)), Example(Ids([1]), Ids([0, 1]))]
    assert count_matrix(docs, 3).tolist() == [[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]
    assert label_matrix(docs, 2).tolist() == [[0.0, 1.0], [1.0, 1.0]]


def add_at_counts(examples, vocab_size):
    """count_matrix as the np.add.at scatter into zeros that it replaced,
    kept as its bit-for-bit reference."""
    rows = np.repeat(np.arange(len(examples)), [len(ex.tokens) for ex in examples])
    tokens = np.array([t for ex in examples for t in ex.tokens], dtype=np.int64)
    counts = np.zeros((len(examples), vocab_size))
    np.add.at(counts, (rows, tokens), 1.0)
    return counts


@pytest.mark.parametrize(
    "docs,vocab",
    [
        ([Example([3, 3, 3, 0, 3], []), Example([1, 1], [])], 4),  # repeated ids
        ([Example([], []), Example([2, 0, 2], []), Example([], [])], 4),  # empty documents
        ([Example([], []), Example([], [])], 4),  # no ids at all
        ([], 4),  # no documents
        (gen_corpus(gen_hierarchy(3, 4), 256, 2048, seed=5), 2048),
    ],
)
def test_count_matrix_matches_add_at_scatter(docs, vocab):
    got, want = count_matrix(docs, vocab), add_at_counts(docs, vocab)
    assert got.shape == want.shape == (len(docs), vocab)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "line,message",
    [(json.dumps(_bad_doc(field, ids)), message) for field, _, ids, message in BAD_IDS]
    + [("[1]", "missing 'labels'")],
)
def test_load_dataset_rejects_bad_ids(tmp_path, line, message):
    # as a file, each bad document is line 2, after a valid one
    p = tmp_path / "bad.jsonl"
    p.write_text('{"tokens": [0], "labels": [0]}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"bad.jsonl: line 2: {message}$"):
        load_dataset(p, vocab_size=VOCAB, num_labels=LABELS)


def test_load_dataset_without_limits_still_rejects_negative_ids(tmp_path):
    p = tmp_path / "preds.jsonl"
    p.write_text('{"labels": [7, 99]}\n{"labels": [-1]}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: label id -1 is negative"):
        load_dataset(p)


def packed_cases():
    corpus = gen_corpus(gen_hierarchy(3, 4), 300, 2048, seed=8)
    rng = np.random.default_rng(3)
    with_empty = corpus[:20] + [Example([], [1]), Example([], [])] + corpus[20:40]
    cases = [(corpus, rng.integers(0, len(corpus), size=n)) for n in (32, 32, 17, 300)]
    cases += [(corpus, rng.permutation(len(corpus))[:32]), (corpus, [5]), (corpus, [])]
    cases += [(with_empty, [20]), (with_empty, [21, 3, 20, 21]), (with_empty, np.arange(len(with_empty)))]
    cases += [([Example([], []), Example([], [])], [1, 0])]  # no ids at all
    return cases


@pytest.mark.parametrize("docs,idx", packed_cases())
def test_packed_batches_equal_count_and_label_matrices(docs, idx):
    packed = PackedExamples(docs, 2048, 85)
    batch = [docs[i] for i in idx]
    for got, want in ((packed.count_matrix(idx), count_matrix(batch, 2048)),
                      (packed.label_matrix(idx), label_matrix(batch, 85))):
        assert got.shape == want.shape == (len(batch), want.shape[1])
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "docs,message",
    [([Example([0], [0])] * doc + [Example(**_bad_doc(field, ids))], f"doc {doc}: {message}")
     for field, doc, ids, message in BAD_IDS]
    # a bad token id is named before a bad label id in an earlier document
    + [([Example([0], [0]), Example([0], [9]), Example([9], [0])], r"doc 2: token id 9 outside \[0, 4\)")],
)
def test_packing_refuses_what_check_ids_refuses(docs, message):
    for check in (check_ids, PackedExamples):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check(docs, VOCAB, LABELS)
