"""Greedy structural-entropy minimization (height-K coding tree
construction) and an exhaustive oracle for small graphs.

The greedy construction grows the tree one level per iteration, choosing
between refining at the root (on a copy) or refining every
parent-of-leaves node (in place), whichever merged tree has lower
entropy; a tie keeps the second. At `HILL_LOG=info` it logs one line per
level. The inner two-level step compresses the best sibling pair until
two children remain, then deletes the internal node with the smallest
entropy increase until height 2. It runs on integer ids and builds no
tree; `delta_*` and the CodingTree surgeries stay its reference.

Both steps score moves with exact closed forms (Li & Pan 2016), each
written once, in `_compress_delta` and `_remove_delta`:

    delta_compress(a, b) = (2 * cross(a, b) / vol G) * log2(vol gamma / vol parent)
    delta_remove(v) = ((sum of cut(children) - cut(v)) / vol G) * log2(vol parent / vol v)

So compressing two siblings that share no edge changes entropy by exactly
0, and every adjacent pair gives a strictly negative delta. The compress
loop keeps a sibling super-graph of cross-edge counts (a merged node's row
is the sum of its two rows) and heaps only adjacent pairs; an entry stays
valid while both its nodes are alive, because a pair's delta depends only
on the pair and their fixed parent. When no adjacent pair is left, every
delta is 0 and the two lowest alive ids are compressed. A merged node
takes its first kid's slot among v's children. The removal loop keeps a
lazily invalidated min-heap of (delta, id): removing v changes only the
deltas of v's children and of v's parent, which are re-scored. Removals
keep the leaves' left-to-right order, from which the groups are read.

Every argmin breaks ties on the smallest (delta, node-id pair) or
(delta, node id), so construction is deterministic and picks exactly what
an exhaustive argmin over the same deltas would.

The oracle builds every candidate tree with `merge` from `initial_tree`
and scores it with `structural_entropy`, so the entropy it returns is
exactly its tree's `structural_entropy()`.
"""

from __future__ import annotations

import heapq
import logging
import math
import time
from collections import deque
from itertools import groupby

from .coding_tree import CodingTree, initial_tree
from .graph import Graph, cross_edges

ORACLE_MAX_VERTICES = {2: 8, 3: 5}

log = logging.getLogger(__name__)


def _compress_delta(cross, vol_a, vol_b, vol_parent, vol_g) -> float:
    """(2 * cross / vol G) * log2((vol a + vol b) / vol parent); exactly 0.0
    when cross is 0."""
    if cross == 0:
        return 0.0
    return (2 * cross / vol_g) * math.log2((vol_a + vol_b) / vol_parent)


def _remove_delta(inner, vol_parent, vol_v, vol_g) -> float:
    """(inner / vol G) * log2(vol parent / vol v), where inner is the sum
    of v's children's cuts minus v's cut."""
    return (inner / vol_g) * math.log2(vol_parent / vol_v)


def delta_compress(tree: CodingTree, a_id: int, b_id: int) -> float:
    """Entropy change of compress(a, b):
    (2 * cross(a, b) / vol G) * log2((vol a + vol b) / vol parent).

    Scores distinct siblings only; `compress` raises on any other pair.
    Exactly 0.0 when a and b share no edge.
    """
    a, b = tree.nodes[a_id], tree.nodes[b_id]
    cross = cross_edges(tree.graph, a.subset, b.subset)
    vol_parent = tree.nodes[a.parent].volume
    return _compress_delta(cross, a.volume, b.volume, vol_parent, tree.graph.volume)


def delta_remove(tree: CodingTree, v_id: int) -> float:
    """Entropy change of remove_node(v), v non-root and internal (`remove_node` raises on others):
    ((sum of cut(children) - cut(v)) / vol G) * log2(vol parent / vol v)."""
    v = tree.nodes[v_id]
    inner = sum(tree.nodes[c].cut for c in v.children) - v.cut
    return _remove_delta(inner, tree.nodes[v.parent].volume, v.volume, tree.graph.volume)


def _pair_merges(tree: CodingTree, v_id: int):
    """The compress phase of `build_two_level` on ids: v's child kids[i]
    is id i, v is n = len(kids), and merges[j] = (a, b, cross(a, b)) made
    id n + 1 + j. Returns (kids, vol, merges, top): vol holds every id's
    volume, and top the two (or fewer) ids left under v, in order."""
    v = tree.nodes[v_id]
    if v.is_leaf():
        raise ValueError(f"node {v_id} is a leaf")
    kids = sorted(v.children)
    n, vol_g = len(kids), tree.graph.volume
    vol = [tree.nodes[c].volume for c in kids] + [v.volume]
    # rows[i] = {adjacent sibling id: cross-edge count}, counted once from
    # the graph's adjacency; None for v and for every id already compressed
    owner = {u: i for i, c in enumerate(kids) for u in tree.nodes[c].subset}
    rows = [{} for _ in kids] + [None]
    adjacency = tree.graph.adjacency
    for u, i in owner.items():
        row = rows[i]
        for w in adjacency[u]:
            j = owner.get(w)
            if j is not None and j != i:
                row[j] = row.get(j, 0) + 1
    heap = [
        (_compress_delta(w, vol[a], vol[b], v.volume, vol_g), a, b)
        for a in range(n)
        for b, w in rows[a].items()
        if a < b
    ]
    heapq.heapify(heap)
    tail = None  # alive ids, lowest first, once no pair is adjacent (merged empty rows stay empty)
    slot = list(range(n)) + [None]  # each alive id's place among v's children
    merges = []
    for gamma in range(n + 1, 2 * n - 1):  # n - 2 compresses leave two children
        while heap and (rows[heap[0][1]] is None or rows[heap[0][2]] is None):
            heapq.heappop(heap)
        if heap:
            _, a, b = heapq.heappop(heap)
        else:  # every delta is exactly 0: the lowest-id pair wins the tie
            if tail is None:
                tail = deque(x for x, row in enumerate(rows) if row is not None)
            a, b = tail.popleft(), tail.popleft()
            tail.append(gamma)
        row, b_row = rows[a], rows[b]
        rows[a] = rows[b] = None
        cross = row.pop(b, 0)
        b_row.pop(a, None)
        for x, w in b_row.items():
            row[x] = row.get(x, 0) + w
        vol.append(vol[a] + vol[b])
        for x, w in row.items():
            x_row = rows[x]
            x_row.pop(a, None)
            x_row.pop(b, None)
            x_row[gamma] = w
            d = _compress_delta(w, vol[x], vol[gamma], v.volume, vol_g)
            heapq.heappush(heap, (d, x, gamma))
        rows.append(row)
        slot.append(slot[a])
        merges.append((a, b, cross))
    top = sorted((x for x, row in enumerate(rows) if row is not None), key=slot.__getitem__)
    return kids, vol, merges, top


def build_two_level(tree: CodingTree, v_id: int) -> list:
    """v's children in ordered groups for `merge`: greedy pair compression
    over v's children, lowest id first on ties, then least-increase
    deletion until every remaining internal node hangs off v."""
    kids, vol, merges, top = _pair_merges(tree, v_id)
    n, vol_g = len(kids), tree.graph.volume
    root = n  # v's id
    parent = [root] * (n + 1 + len(merges))
    below = [()] * (n + 1)  # each compressed id's current children
    inner = [0] * (n + 1)  # sum of its children's cuts minus its own cut
    for a, b, cross in merges:
        parent[a] = parent[b] = len(below)
        below.append({a, b})
        inner.append(2 * cross)
    score, heap = {}, []

    def rescore(x):
        score[x] = d = _remove_delta(inner[x], vol[parent[x]], vol[x], vol_g)
        heapq.heappush(heap, (d, x))

    deep = 0  # compressed ids whose parent is not v
    for x in range(n + 1, len(below)):
        rescore(x)
        deep += parent[x] != root
    while deep:
        d, x = heapq.heappop(heap)
        if score.get(x) != d:
            continue
        del score[x]
        p = parent[x]
        deep -= p != root
        inner[p] += inner[x]
        for c in below[x]:
            parent[c] = p
            if c > root:
                deep -= p == root
                rescore(c)
        if p != root:
            below[p].remove(x)
            below[p] |= below[x]
            rescore(p)
    # leaves in the compressed tree's order; a group's leaves are adjacent
    leaves, stack = [], top[::-1]
    while stack:
        x = stack.pop()
        if x < root:
            leaves.append(x)
        else:
            a, b, _ = merges[x - root - 1]
            stack += (b, a)
    # a leaf still under v is a group of one
    runs = groupby(leaves, key=lambda i: parent[i] if parent[i] != root else ~i)
    return [[kids[i] for i in run] for _, run in runs]


def _log_level(tree: CodingTree, won: str, start: float) -> None:
    """Log one refinement level at INFO, reading each refined node's new
    children from the merged tree: the root's, or every layer-2 node's
    when the in-place candidate won. Each new child holds one group of
    that node's `build_two_level` step; a step over n children made
    max(n - 2, 0) compresses, and removed each compressed node not left
    as a group."""
    if not log.isEnabledFor(logging.INFO):
        return
    seconds = time.perf_counter() - start
    compresses = removals = 0
    for v in [tree.root_id] if won == "root" else tree.layer(2):
        groups = [tree.nodes[c].children for c in tree.nodes[v].children]
        made = max(sum(map(len, groups)) - 2, 0)
        compresses += made
        removals += made - sum(len(grp) > 1 for grp in groups)
    log.info(
        "height %d (%s refinement): %d compresses, %d removals, H(T) = %.4f bits, %.3f s",
        tree.height, won, compresses, removals, tree.structural_entropy(), seconds,
    )


def build_coding_tree(g: Graph, k: int) -> CodingTree:
    """Greedy coding tree of height exactly k (2 <= k < |V|)."""
    if k < 2:
        raise ValueError(f"height must be at least 2, got {k}")
    if k >= g.node_count:
        raise ValueError(f"height {k} not realizable on {g.node_count} vertices")
    start = time.perf_counter()
    tree = initial_tree(g)
    tree.merge(tree.root_id, build_two_level(tree, tree.root_id))
    _log_level(tree, "root", start)
    while tree.height < k:
        start = time.perf_counter()
        # candidate 1: refine the partition at the root, on a copy
        t1 = tree.copy()
        t1.merge(t1.root_id, build_two_level(t1, t1.root_id))
        # candidate 2, in place: refine below every parent-of-leaves node
        # (each merge keeps all leaves at one depth, so those are layer 1)
        for v in tree.layer(1):
            tree.merge(v, build_two_level(tree, v))
        won = "in place"
        if t1.structural_entropy() < tree.structural_entropy():  # a tie keeps candidate 2
            tree, won = t1, "root"
        _log_level(tree, won, start)
    return tree


# -- exhaustive oracle -----------------------------------------------


def set_partitions(items):
    """All set partitions of `items`. Each block keeps the items' order, but
    the blocks are not ordered by smallest element ([[1, 2], [0, 3]] is
    one); the oracle breaks ties in this enumeration order."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]
        yield [[first]] + partition


def oracle_min_entropy(g: Graph, k: int):
    """Exact minimum entropy over all coding trees of height <= k, by
    exhaustive enumeration of (nested) set partitions, each merged under
    the root of `initial_tree(g)`. Returns (optimal tree, entropy), the
    entropy being exactly that tree's `structural_entropy()`; ties keep
    the first candidate in enumeration order."""
    if k not in ORACLE_MAX_VERTICES:
        raise ValueError(f"oracle supports heights 2 and 3, got {k}")
    if g.node_count > ORACLE_MAX_VERTICES[k]:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_VERTICES[k]} vertices for height {k}, "
            f"graph has {g.node_count}"
        )
    best, best_entropy = None, math.inf
    for partition in set_partitions(range(g.node_count)):
        groupings = [None] if k == 2 else set_partitions(range(len(partition)))
        for grouping in groupings:
            tree = initial_tree(g)
            tree.merge(tree.root_id, partition)
            if grouping is not None:
                blocks = tree.nodes[tree.root_id].children
                tree.merge(tree.root_id, [[blocks[i] for i in grp] for grp in grouping])
            h = tree.structural_entropy()
            if h < best_entropy:
                best, best_entropy = tree, h
    return best, best_entropy
