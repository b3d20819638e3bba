"""Synthetic label hierarchies and corpora.

A hierarchy is a complete branching-ary tree of labels (root included,
BFS ids). Each document samples a root-to-leaf path; its label set is the
path excluding the root, so label sets are closed under the (non-root)
parent relation by construction. Tokens are drawn from label-specific
token pools so the labels are learnable by a bag-of-words encoder.

File formats: taxonomy text ("parent<TAB>child1<TAB>child2..." per line)
and JSON-lines datasets ({"tokens": [...], "labels": [...]}).

The id rule, stated once in `_checked_ids`: ids are a list or tuple of ints
(numpy integers count, bool never does), each >= 0 and below any limit.
All readers, files too, judge ids by `_ids_by_doc`; the rule names refusals.
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
_CHUNK_DOCS = 256  # documents of the most draws one _walk_corpus chunk has room for
_DOC_DRAWS = 81  # most raw draws a document takes without redraws: 1 + 2 per token
_COIN = int(_SIGNAL_PROB * 2**53)  # random() < 0.85 is exactly (draw >> 11) < _COIN


def _lowest_on_cycle(parent, n):
    """The lowest label on the first cycle met walking up from labels 1..n-1
    in id order, else None. Walks stop at labels known to reach the root."""
    reached = {0}
    for label in range(1, n):
        walk = {}  # label -> its position on this walk
        while label not in reached:
            if label in walk:
                return min(list(walk)[walk[label]:])
            walk[label] = len(walk)
            label = parent[label]
        reached.update(walk)
    return None


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
        if _lowest_on_cycle(self.parent, n) is not None:
            raise ValueError("cycle in label hierarchy")

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
        low = _lowest_on_cycle(parent, len(names))
        if low is not None:
            raise ValueError(f"line {first_line[low]}: label {names[low]!r} is its own ancestor")
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


def _walk_corpus(paths, n_docs, vocab_size, seed):
    """gen_corpus's documents for 1 < vocab_size <= 2**32, at least two
    leaves and paths of at least two labels, computed from chunks of
    _CHUNK_DOCS * _DOC_DRAWS + 2 raw draws, each walking the documents
    that surely fit and carrying the rest into the next; None when a used
    32-bit half meets its redraw bound. Equal token ids are one int object.

    Without redraws the stream moves by rule. With (p, b) for the next
    draw and whether a high half is buffered (then it is draw p - 1's):
    a document's leaf and length take one draw; a label token takes its
    coin and one fresh draw for its label and slot halves, so it moves
    by 2 and keeps b; a noise token moves by 2 from b = 0 and by 1 from
    b = 1, and flips b. So its tokens are the coins at p, p + 2, ... up
    to the next noise coin of p's parity, which a table gives. A Python
    loop walks from noise coin to noise coin and records the runs; numpy
    computes every id. Up to the first redraw the walk reads the same
    halves as the sampler, so that first redraw is a used half that
    fails the check: when none fails, the walk was the sampler's."""
    width = max(map(len, paths))
    table = np.array([path + [0] * (width - len(path)) for path in paths], dtype=np.int64)
    # label_token of each leaf's (label index, slot), at label index * TOKENS_PER_LABEL + slot
    table = label_token(table[:, :, None], np.arange(TOKENS_PER_LABEL), vocab_size).reshape(len(paths), -1)
    path_len = np.array(list(map(len, paths)), dtype=np.uint64)
    bits = np.random.default_rng(seed).bit_generator
    draws, p, b = np.zeros(1, dtype=np.uint64), 1, 0  # draws[0] stands in for draw -1
    docs, ints = [], {}
    while len(docs) < n_docs:
        left_docs = n_docs - len(docs)
        kept = draws[p - 1:]  # draw p - 1, then at most one document's draws
        size = min(_CHUNK_DOCS, left_docs) * _DOC_DRAWS + 2
        draws = np.concatenate([kept, bits.random_raw(size - len(kept))])
        p = 1
        noise = (draws >> 11) >= _COIN
        # nxt[i]: the first noise coin at or after i with i's parity
        at = np.where(noise, np.arange(len(draws)), len(draws) + 2 * _DOC_DRAWS)
        nxt = np.empty_like(at)
        for parity in (0, 1):
            nxt[parity::2] = np.minimum.accumulate(at[parity::2][::-1])[::-1]
        halves = np.empty(2 * len(draws), dtype=np.uint64)
        halves[0::2], halves[1::2] = draws & 0xFFFFFFFF, draws >> 32
        nxt, raw = memoryview(nxt), memoryview(draws)
        heads, runs = [], []  # per document its leaf half; per run (first coin, tokens, b)
        stop = len(draws) - _DOC_DRAWS  # a document from p < stop fits, however long
        while p < stop and len(heads) < left_docs:
            heads.append(2 * p - b)
            left = 20 + ((raw[p] & 0xFFFFFFFF if b else raw[p] >> 32) * 21 >> 32)
            p += 1
            while True:
                q = nxt[p]
                k = (q - p) >> 1
                if k >= left:
                    runs += (p, left, b)
                    p += 2 * left
                    break
                runs += (p, k + 1, b)
                p, b, left = q + 2 - b, b ^ 1, left - k - 1
        heads = np.array(heads)
        starts, lengths, buffered = np.array(runs, dtype=np.int64).reshape(-1, 3).T
        coin = np.repeat(starts - 2 * (np.cumsum(lengths) - lengths), lengths) + 2 * np.arange(lengths.sum())
        tb = np.repeat(buffered, lengths)
        leaf, leaf_fits = _lemire(halves[heads], np.uint64(len(paths)))
        count, count_fits = _lemire(halves[heads + 1], np.uint64(21))
        leaf, count = leaf.astype(np.int64), count.astype(np.int64) + 20
        doc_leaf = np.repeat(leaf, count)
        is_noise = noise[coin]
        bound = np.where(is_noise, np.uint64(vocab_size), path_len[doc_leaf])
        value, value_fits = _lemire(halves[2 * coin + 2 - 3 * tb], bound)
        slot, slot_fits = _lemire(halves[2 * coin + 3 - tb], np.uint64(TOKENS_PER_LABEL))
        if not (leaf_fits.all() and count_fits.all() and value_fits.all() and (slot_fits | is_noise).all()):
            return None  # a noise token reads no slot half
        value, slot = value.astype(np.int64), slot.astype(np.int64)
        pick = np.where(is_noise, 0, value) * TOKENS_PER_LABEL + slot
        tokens = _shared_ints(np.where(is_noise, value, table[doc_leaf, pick]), ints)
        ends = np.cumsum(count).tolist()
        docs += (Example(tokens=tokens[e - c:e], labels=list(paths[i]))
                 for e, c, i in zip(ends, count.tolist(), leaf.tolist()))
    return docs


def _shared_ints(ids, ints):
    """The int64 array ids as a list of ints, each value the one object
    that the dict ints holds for it, added there if new."""
    values, inverse = np.unique(ids, return_inverse=True)
    return np.array([ints.setdefault(v, v) for v in values.tolist()], dtype=object)[inverse].tolist()


def _lemire(x, n):
    """(x * n) >> 32 for 32-bit halves x and bounds n <= 2**32 as uint64,
    and which halves clear their redraw bound (2**32 - n) % n."""
    m = x * n
    return m >> 32, m & 0xFFFFFFFF >= (2**32 - n) % n


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
    before any draw.

    The corpus comes from `_walk_corpus`, which walks chunks of the raw
    draws and computes the ids in numpy, and which checks that no draw it
    used would have been redrawn. Where that check fails, or for a
    vocab_size of 1 or above 2**32, a single leaf or a one-label path,
    the `_Sampler` loop below makes the whole corpus; both give the same
    documents. A chunk's arrays hold at most 256 * 81 + 2 draws.

    On either path each distinct token id is one int object for the whole
    corpus. So a document costs its two lists, one pointer per token or
    label, and the corpus one int per distinct id."""
    for name, value in (("n_docs", n_docs), ("vocab_size", vocab_size), ("seed", seed)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")
    n_docs, vocab_size, seed = int(n_docs), int(vocab_size), int(seed)
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    if n_docs < 1:
        raise ValueError("need at least one document")
    if vocab_size < 1:
        raise ValueError(f"vocabulary size must be at least 1, got {vocab_size}")
    if vocab_size > 2**63:
        raise ValueError(f"vocab_size must be at most 2**63, got {vocab_size}")
    if h.num_labels < 2:
        raise ValueError("a corpus needs a hierarchy with a label besides the root")
    paths = [sorted(h.path_from_root(leaf)) for leaf in h.leaves()]
    if 1 < vocab_size <= 2**32 and len(paths) > 1 and min(map(len, paths)) > 1:
        docs = _walk_corpus(paths, n_docs, vocab_size, seed)
        if docs is not None:
            return docs
    sampler = _Sampler(seed)
    random, integers = sampler.random, sampler.integers
    shared = {}.setdefault
    docs = []
    for _ in range(n_docs):
        labels = paths[integers(len(paths))]
        tokens = []
        for _ in range(20 + integers(21)):
            if random() < _SIGNAL_PROB:
                lab = labels[integers(len(labels))]
                token = label_token(lab, integers(TOKENS_PER_LABEL), vocab_size)
            else:
                token = integers(vocab_size)
            tokens.append(shared(token, token))
        docs.append(Example(tokens=tokens, labels=list(labels)))
    return docs


def save_dataset(examples, path):
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({"tokens": ex.tokens, "labels": ex.labels}) + "\n")


def load_dataset(path, vocab_size=None, num_labels=None):
    """Read a JSONL dataset, parse every line, then check_ids its ids below
    vocab_size and num_labels. ValueError names the file, the line and the
    first fault: JSON or shape, then a token id, then a label id."""
    out, names = [], []
    with prefix_errors(path):
        for lineno, raw in read_lines(path):
            line = raw.strip()
            if not line:
                continue
            with prefix_errors(f"line {lineno}"):
                obj = json.loads(line)
                if not isinstance(obj, dict) or "labels" not in obj:
                    raise ValueError("missing 'labels'")
            out.append(Example(tokens=obj.get("tokens", []), labels=obj["labels"]))
            names.append(f"line {lineno}")
        check_ids(out, vocab_size, num_labels, names)
    shared = {}.setdefault  # one int per distinct token id; check_ids refused bools
    for ex in out:  # a document at a time, so the peak stays the check's
        ex.tokens = [shared(t, t) for t in ex.tokens]
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


def _ids_by_doc(id_lists, limit, what, names=None):
    """Per-document id lists as (doc index, id) int64 arrays, by a fast path
    accepting what the id rule accepts (a limit below 2**63, or None: then ids
    is None if one is past int64): array("q") takes only ints, numpy integers
    and bools that fit int64, a bool reads as 0 or 1, so only ids <= 1 need a
    type look. The rule judges a refusal, per names[doc] or "doc {doc}"."""
    ids = flat = None
    if all(isinstance(doc_ids, _ID_CONTAINERS) for doc_ids in id_lists):  # a str or dict would chain as ids
        flat = list(chain.from_iterable(id_lists))
        with suppress(TypeError, OverflowError):  # a float, str, list, np.bool_ or int past int64
            ids = np.frombuffer(array("q", flat), dtype=np.int64)
    if ids is None or ids.size and (ids.min() < 0 or limit is not None and ids.max() >= limit) or any(
        type(flat[i]) is bool for i in np.flatnonzero(ids <= 1).tolist()
    ):
        for doc, doc_ids in enumerate(id_lists):
            with prefix_errors(f"doc {doc}" if names is None else names[doc]):
                _checked_ids(doc_ids, limit, what)
    return np.repeat(np.arange(len(id_lists)), list(map(len, id_lists))), ids


def check_ids(examples, vocab_size, num_labels, names=None):
    """The id checks of count_matrix, then label_matrix, building neither."""
    _ids_by_doc([ex.tokens for ex in examples], vocab_size, "token", names)
    _ids_by_doc([ex.labels for ex in examples], num_labels, "label", names)


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
