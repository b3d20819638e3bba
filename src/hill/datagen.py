"""Synthetic label hierarchies and corpora.

A hierarchy is a complete branching-ary tree of labels (root included,
BFS ids). Each document samples a root-to-leaf path; its label set is the
path excluding the root, so label sets are closed under the (non-root)
parent relation by construction. Tokens are drawn from label-specific
token pools so the labels are learnable by a bag-of-words encoder.

File formats: taxonomy text ("parent<TAB>child1<TAB>child2..." per line)
and JSON-lines datasets ({"tokens": [...], "labels": [...]}).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, build_graph

TOKENS_PER_LABEL = 4
_SIGNAL_PROB = 0.85


@dataclass
class LabelHierarchy:
    names: list
    parent: dict  # non-root label id -> parent id; root is id 0

    def __post_init__(self):
        n = len(self.names)
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

    def depth_of(self, label):
        return len(self.path_from_root(label))


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
    token is the root."""
    ids = {}
    parent = {}

    def intern(name):
        if name not in ids:
            ids[name] = len(ids)
        return ids[name]

    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) < 2:
                raise ValueError(f"line {lineno}: expected parent and children")
            par = intern(fields[0])
            for name in fields[1:]:
                child = intern(name)
                if child in parent:
                    raise ValueError(f"line {lineno}: label {name!r} has two parents")
                parent[child] = par
    if not ids:
        raise ValueError("taxonomy file is empty")
    names = [None] * len(ids)
    for name, i in ids.items():
        names[i] = name
    return LabelHierarchy(names=names, parent=parent)


def label_token(label: int, slot: int, vocab_size: int) -> int:
    # multiplicative hash into the vocabulary
    return (label * 7919 + slot * 104729 + 13) % vocab_size


def gen_corpus(
    h: LabelHierarchy,
    n_docs: int,
    vocab_size: int,
    seed: int,
    max_tokens: int = 64,
):
    """Documents with root-to-leaf label paths and label-indicative tokens;
    deterministic under seed."""
    if n_docs < 1:
        raise ValueError("need at least one document")
    leaves = h.leaves()
    if not leaves:
        raise ValueError("hierarchy has no leaves")
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_docs):
        leaf = leaves[rng.integers(len(leaves))]
        labels = sorted(h.path_from_root(leaf))
        length = min(int(rng.integers(20, 41)), max_tokens)
        tokens = []
        for _ in range(length):
            if rng.random() < _SIGNAL_PROB:
                lab = labels[rng.integers(len(labels))]
                tokens.append(label_token(lab, int(rng.integers(TOKENS_PER_LABEL)), vocab_size))
            else:
                tokens.append(int(rng.integers(vocab_size)))
        docs.append(Example(tokens=tokens, labels=labels))
    return docs


def parent_closed(h: LabelHierarchy, labels) -> bool:
    s = set(labels)
    return all(h.parent[y] == 0 or h.parent[y] in s for y in s)


def save_dataset(examples, path):
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({"tokens": ex.tokens, "labels": ex.labels}) + "\n")


def load_dataset(path, vocab_size=None, num_labels=None):
    """Read a JSONL dataset. Every id must be an integer, not negative and,
    when the limit is given, below vocab_size (tokens) or num_labels
    (labels); otherwise ValueError names the file, the line and the id."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            where = f"{path}: line {lineno}"
            obj = json.loads(line)
            if not isinstance(obj, dict) or "labels" not in obj:
                raise ValueError(f"{where}: missing 'labels'")
            tokens = _checked_ids(obj.get("tokens", []), vocab_size, "token", where)
            labels = _checked_ids(obj["labels"], num_labels, "label", where)
            out.append(Example(tokens=tokens, labels=labels))
    return out


def _checked_ids(ids, limit, what, where):
    if not isinstance(ids, list):
        raise ValueError(f"{where}: {what}s {ids!r} is not a list")
    for i in ids:
        if type(i) is not int:  # rejects 1.5, "3", true and nested lists
            raise ValueError(f"{where}: {what} id {i!r} is not an integer")
        if i < 0:
            raise ValueError(f"{where}: {what} id {i} is negative")
        if limit is not None and i >= limit:
            raise ValueError(f"{where}: {what} id {i} outside [0, {limit})")
    return ids


def _ids_by_doc(id_lists, limit, what):
    """Flatten per-document id lists into (doc index, id) arrays, raising
    ValueError naming the document and the id on the first id outside
    [0, limit)."""
    rows = np.repeat(np.arange(len(id_lists)), [len(ids) for ids in id_lists])
    ids = np.asarray([i for ids in id_lists for i in ids], dtype=np.int64)
    bad = np.flatnonzero((ids < 0) | (ids >= limit))
    if bad.size:
        raise ValueError(f"doc {rows[bad[0]]}: {what} id {ids[bad[0]]} outside [0, {limit})")
    return rows, ids


def count_matrix(examples, vocab_size) -> np.ndarray:
    rows, tokens = _ids_by_doc([ex.tokens for ex in examples], vocab_size, "token")
    counts = np.zeros((len(examples), vocab_size))
    np.add.at(counts, (rows, tokens), 1.0)
    return counts


def label_matrix(examples, num_labels) -> np.ndarray:
    rows, labels = _ids_by_doc([ex.labels for ex in examples], num_labels, "label")
    y = np.zeros((len(examples), num_labels))
    y[rows, labels] = 1.0
    return y
