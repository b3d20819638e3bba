"""Synthetic label hierarchies and corpora.

A hierarchy is a complete branching-ary tree of labels (root included,
BFS ids). Each document samples a root-to-leaf path; its label set is the
path excluding the root, so label sets are closed under the (non-root)
parent relation by construction. Tokens are drawn from label-specific
token pools so the labels are learnable by a bag-of-words encoder.

File formats: taxonomy text ("parent<TAB>child1<TAB>child2..." per line)
and JSON-lines datasets ({"tokens": [...], "labels": [...]}).

The id rule, stated once in `_checked_ids`: a document's ids are a list
or tuple of ints (numpy integers count, bool never does), each >= 0 and,
when a limit is given, below it. Every reader of ids defers to it.
"""

from __future__ import annotations

import json
from array import array
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .graph import Graph, build_graph, prefix_errors, read_lines

TOKENS_PER_LABEL = 4
_SIGNAL_PROB = 0.85
_ID_CONTAINERS = (list, tuple)
_RAW_BLOCK = 4096  # raw draws _Sampler reads at a time


@dataclass
class LabelHierarchy:
    names: list
    parent: dict  # non-root label id -> parent id; root is id 0

    def __post_init__(self):
        n = len(self.names)
        if n == 0:
            raise ValueError("a label hierarchy needs its root, label 0")
        if set(self.parent) != set(range(1, n)):
            raise ValueError("every non-root label needs exactly one parent")
        for child, par in self.parent.items():
            if not 0 <= par < n:
                raise ValueError(f"parent {par} of label {child} out of range")
        # acyclicity: walking up from any label must reach the root
        for label in range(1, n):
            seen = set()
            while label != 0:
                if label in seen:
                    raise ValueError("cycle in label hierarchy")
                seen.add(label)
                label = self.parent[label]

    @property
    def num_labels(self):
        return len(self.names)

    def children(self):
        out = {i: [] for i in range(self.num_labels)}
        for child, par in sorted(self.parent.items()):
            out[par].append(child)
        return out

    def leaves(self):
        non_leaves = set(self.parent.values())
        return [i for i in range(self.num_labels) if i not in non_leaves]

    def path_from_root(self, label):
        path = []
        while label != 0:
            path.append(label)
            label = self.parent[label]
        return path[::-1]


@dataclass
class Example:
    tokens: list
    labels: list


def gen_hierarchy(depth: int, branching: int, seed: int = 0) -> LabelHierarchy:
    """Complete branching-ary label tree of the given depth. The shape is
    fully determined by (depth, branching); `seed` is accepted for
    interface uniformity."""
    if depth < 2 or branching < 2:
        raise ValueError(f"need depth >= 2 and branching >= 2, got {depth}, {branching}")
    names = ["root"]
    parent = {}
    frontier = [0]
    for _ in range(depth):
        nxt = []
        for p in frontier:
            for j in range(branching):
                nid = len(names)
                names.append(f"{names[p]}.{j}" if p != 0 else f"n{j}")
                parent[nid] = p
                nxt.append(nid)
        frontier = nxt
    return LabelHierarchy(names=names, parent=parent)


def hierarchy_to_graph(h: LabelHierarchy) -> Graph:
    """Undirected unit-weight view of the hierarchy, root vertex included."""
    return build_graph(h.num_labels, [(p, c) for c, p in h.parent.items()])


def save_taxonomy(h: LabelHierarchy, path):
    kids = h.children()
    with open(path, "w", encoding="utf-8") as fh:
        for par in range(h.num_labels):
            if kids[par]:
                fh.write("\t".join([h.names[par]] + [h.names[c] for c in kids[par]]) + "\n")


def load_taxonomy(path) -> LabelHierarchy:
    """Ids are assigned in order of first appearance; the first parent
    token is the root. ValueError names the file, and the line where
    there is one."""
    ids = {}
    first_line = []  # label id -> the line where the label first appears
    parent = {}

    def intern(name, lineno):
        if name not in ids:
            ids[name] = len(ids)
            first_line.append(lineno)
        return ids[name]

    with prefix_errors(path):
        for lineno, raw in read_lines(path):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            where = f"line {lineno}"
            fields = line.split("\t")
            if len(fields) < 2:
                raise ValueError(f"{where}: expected parent and children")
            if not all(fields):
                raise ValueError(f"{where}: empty label name")
            par = intern(fields[0], lineno)
            for name in fields[1:]:
                child = intern(name, lineno)
                if child == 0:
                    raise ValueError(f"{where}: label {name!r} is the root and cannot have a parent")
                if child in parent:
                    raise ValueError(f"{where}: label {name!r} has two parents")
                parent[child] = par
        if not ids:
            raise ValueError("taxonomy file is empty")
        names = list(ids)  # in order of first appearance, so names[i] has id i
        for i in range(1, len(names)):
            if i not in parent:
                raise ValueError(f"line {first_line[i]}: label {names[i]!r} has no parent")
        return LabelHierarchy(names=names, parent=parent)


def label_token(label: int, slot: int, vocab_size: int) -> int:
    # multiplicative hash into the vocabulary
    return (label * 7919 + slot * 104729 + 13) % vocab_size


class _Sampler:
    """`random()` and `integers(n)` of `np.random.default_rng(seed)`, value
    for value, from its PCG64 raw 64-bit draws read _RAW_BLOCK at a time:
    numpy's samplers, which NEP 19 does not keep stable across versions,
    on the bit generator's stream, which it does.

    - `random()`: the top 53 bits of one draw, times 2**-53;
    - `integers(n)`, n <= 2**32: Lemire's multiply-shift on a 32-bit half
      x, giving (x*n) >> 32, redrawn while (x*n) mod 2**32 < (2**32 - n)
      mod n. A fresh draw gives its low half and keeps its high half for
      the next 32-bit request, which `random()` leaves alone;
    - `integers(n)`, larger n: the same on whole draws, mod 2**64;
    - `integers(1)`: 0, drawing nothing."""

    def __init__(self, seed):
        bits = np.random.default_rng(seed).bit_generator
        blocks = (bits.random_raw(_RAW_BLOCK).tolist() for _ in repeat(None))
        self._draw = chain.from_iterable(blocks).__next__
        self._half = None

    def random(self):
        return (self._draw() >> 11) * 2.0**-53

    def integers(self, n):
        if n > 2**32:
            while True:
                m = self._draw() * n
                if m & 0xFFFFFFFFFFFFFFFF >= n or m & 0xFFFFFFFFFFFFFFFF >= (2**64 - n) % n:
                    return m >> 64
        if n == 1:
            return 0
        while True:
            if self._half is None:
                r = self._draw()
                m, self._half = (r & 0xFFFFFFFF) * n, r >> 32
            else:
                m, self._half = self._half * n, None
            if m & 0xFFFFFFFF >= n or m & 0xFFFFFFFF >= (2**32 - n) % n:
                return m >> 32


def gen_corpus(h: LabelHierarchy, n_docs: int, vocab_size: int, seed: int):
    """Documents with root-to-leaf label paths and 20 to 40
    label-indicative tokens each; deterministic under seed.

    The draws, from one `_Sampler(seed)`, are per document: integers(number
    of leaves) for its leaf, then 20 + integers(21) tokens, each random()
    < 0.85 for a label token (integers(path length) for the label, then
    integers(TOKENS_PER_LABEL) for the slot) or else integers(vocab_size).
    These are the values the scalar calls of `np.random.default_rng(seed)`
    give in that order, so the corpus depends only on PCG64's raw stream.
    A vocab_size above 2**63, which numpy's integers refuses, raises
    before any draw."""
    for name, value in (("n_docs", n_docs), ("vocab_size", vocab_size)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")
    n_docs, vocab_size = int(n_docs), int(vocab_size)
    if n_docs < 1:
        raise ValueError("need at least one document")
    if vocab_size < 1:
        raise ValueError(f"vocabulary size must be at least 1, got {vocab_size}")
    if vocab_size > 2**63:
        raise ValueError(f"vocab_size must be at most 2**63, got {vocab_size}")
    if h.num_labels < 2:
        raise ValueError("a corpus needs a hierarchy with a label besides the root")
    paths = [sorted(h.path_from_root(leaf)) for leaf in h.leaves()]
    sampler = _Sampler(seed)
    random, integers = sampler.random, sampler.integers
    docs = []
    for _ in range(n_docs):
        labels = paths[integers(len(paths))]
        tokens = []
        for _ in range(20 + integers(21)):
            if random() < _SIGNAL_PROB:
                lab = labels[integers(len(labels))]
                tokens.append(label_token(lab, integers(TOKENS_PER_LABEL), vocab_size))
            else:
                tokens.append(integers(vocab_size))
        docs.append(Example(tokens=tokens, labels=list(labels)))
    return docs


def save_dataset(examples, path):
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({"tokens": ex.tokens, "labels": ex.labels}) + "\n")


def load_dataset(path, vocab_size=None, num_labels=None):
    """Read a JSONL dataset whose ids keep the id rule below vocab_size
    and num_labels; ValueError names the file, the line and the id."""
    out = []
    with prefix_errors(path):
        for lineno, raw in read_lines(path):
            line = raw.strip()
            if not line:
                continue
            with prefix_errors(f"line {lineno}"):
                obj = json.loads(line)
                if not isinstance(obj, dict) or "labels" not in obj:
                    raise ValueError("missing 'labels'")
                tokens = _checked_ids(obj.get("tokens", []), vocab_size, "token")
                labels = _checked_ids(obj["labels"], num_labels, "label")
            out.append(Example(tokens=tokens, labels=labels))
    return out


def _checked_ids(ids, limit, what):
    if not isinstance(ids, _ID_CONTAINERS):
        raise ValueError(f"{what} ids {ids!r} is not a list")
    for i in ids:
        if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
            raise ValueError(f"{what} id {i!r} is not an integer")
        if i < 0:
            raise ValueError(f"{what} id {i} is negative")
        if limit is not None and i >= limit:
            raise ValueError(f"{what} id {i} outside [0, {limit})")
    return ids


def _ids_by_doc(id_lists, limit, what):
    """Per-document id lists as (doc index, id) int64 arrays, by a fast
    path that accepts what the id rule accepts (for limits below 2**63):
    array("q") takes only ints, numpy integers and bools that fit int64,
    and a bool reads as 0 or 1, so only ids <= 1 need a type look. On any
    refusal the rule judges each document, so the error is its own."""
    ids = flat = None
    if all(isinstance(doc_ids, _ID_CONTAINERS) for doc_ids in id_lists):  # a str or dict would chain as ids
        flat = list(chain.from_iterable(id_lists))
        with suppress(TypeError, OverflowError):  # a float, str, list, np.bool_ or int past int64
            ids = np.frombuffer(array("q", flat), dtype=np.int64)
    if ids is None or ids.size and (ids.min() < 0 or ids.max() >= limit) or any(
        type(flat[i]) is bool for i in np.flatnonzero(ids <= 1).tolist()
    ):
        for doc, doc_ids in enumerate(id_lists):
            with prefix_errors(f"doc {doc}"):
                _checked_ids(doc_ids, limit, what)
    return np.repeat(np.arange(len(id_lists)), list(map(len, id_lists))), ids


def check_ids(examples, vocab_size, num_labels):
    """The id checks of count_matrix and label_matrix, building neither."""
    _ids_by_doc([ex.tokens for ex in examples], vocab_size, "token")
    _ids_by_doc([ex.labels for ex in examples], num_labels, "label")


def _counts(rows, ids, n, width) -> np.ndarray:
    """(n, width) float64 counts of each (row, id) pair. One weighted
    bincount over the flat cell index row * width + id: each cell is a
    sum of 1.0s, exact below 2**53 in any order, so it equals the
    np.add.at scatter into zeros it replaced, bit for bit."""
    counts = np.bincount(rows * width + ids, weights=np.ones(len(ids)), minlength=n * width)
    # with no ids at all, bincount returns int64 even when given weights
    return counts.reshape(n, width).astype(np.float64, copy=False)


def _indicator(rows, ids, n, width) -> np.ndarray:
    """(n, width) float64 array with 1.0 at each (row, id) pair."""
    y = np.zeros((n, width))
    y[rows, ids] = 1.0
    return y


def count_matrix(examples, vocab_size) -> np.ndarray:
    """(docs, vocab_size) float64 token counts."""
    return _counts(*_ids_by_doc([ex.tokens for ex in examples], vocab_size, "token"),
                   len(examples), vocab_size)


def label_matrix(examples, num_labels) -> np.ndarray:
    return _indicator(*_ids_by_doc([ex.labels for ex in examples], num_labels, "label"),
                      len(examples), num_labels)


class PackedExamples:
    """A list of examples whose ids are checked once, as check_ids checks
    them (tokens, then labels), and kept as one flat int64 array per
    field with per-document offsets. ``count_matrix(idx)`` and
    ``label_matrix(idx)`` build the arrays of the examples at idx from
    slices of those arrays, reading and checking no id list again. They
    hand the same (row, id) arrays that _ids_by_doc gives for those
    examples to the same kernels, so they equal count_matrix and
    label_matrix of ``[examples[i] for i in idx]`` bit for bit."""

    def __init__(self, examples, vocab_size, num_labels):
        self.vocab_size, self.num_labels = vocab_size, num_labels
        self._tokens = _packed([ex.tokens for ex in examples], vocab_size, "token")
        self._labels = _packed([ex.labels for ex in examples], num_labels, "label")

    def count_matrix(self, idx) -> np.ndarray:
        return _counts(*_cut(*self._tokens, idx), len(idx), self.vocab_size)

    def label_matrix(self, idx) -> np.ndarray:
        return _indicator(*_cut(*self._labels, idx), len(idx), self.num_labels)


def _packed(id_lists, limit, what):
    """(ids, offsets): the checked flat ids, and offsets[d] where
    document d's ids start, with offsets[-1] == len(ids)."""
    rows, ids = _ids_by_doc(id_lists, limit, what)
    return ids, np.searchsorted(rows, np.arange(len(id_lists) + 1))


def _cut(ids, offsets, idx):
    """(rows, ids) of the documents at idx, in idx order: what
    _ids_by_doc returns for their id lists."""
    idx = np.asarray(idx, dtype=np.intp)
    starts = offsets[idx]
    lens = offsets[idx + 1] - starts
    rows = np.repeat(np.arange(len(idx)), lens)
    # entry j of the batch sits in row r, at flat position j - first[r] + starts[r]
    first = np.cumsum(lens) - lens
    return rows, ids[np.arange(len(rows)) + (starts - first)[rows]]
