"""Greedy structural-entropy minimization (height-K coding tree
construction) and an exhaustive oracle for small graphs.

The greedy construction grows the tree one level per iteration, choosing
between refining at the root (on a copy) or refining every
parent-of-leaves node (in place), whichever merged tree has lower
entropy; a tie keeps the second. The inner two-level step
compresses the best sibling pair until two children remain, then deletes
the internal node with the smallest entropy increase until height 2.

Both steps score moves with exact closed forms (Li & Pan 2016):

    delta_compress(a, b) = (2 * cross(a, b) / vol G) * log2(vol gamma / vol parent)
    delta_remove(v) = ((sum of cut(children) - cut(v)) / vol G) * log2(vol parent / vol v)

So compressing two siblings that share no edge changes entropy by exactly
0, and every adjacent pair gives a strictly negative delta. The compress
loop keeps a sibling super-graph of cross-edge counts (a merged node's row
is the sum of its two rows) and heaps only adjacent pairs; an entry stays
valid while both its nodes are alive, because a pair's delta depends only
on the pair and their fixed parent. When no adjacent pair is left, every
delta is 0 and the two lowest alive ids are compressed. The removal loop
keeps a lazily invalidated min-heap of (delta, id): removing v changes only
the deltas of v's children and of v's parent, which are re-scored.

Every argmin breaks ties on the smallest (delta, node-id pair) or
(delta, node id), so construction is deterministic and picks exactly what
an exhaustive argmin over the same deltas would.
"""

from __future__ import annotations

import heapq
import math

from .coding_tree import CodingTree, entropy_term, initial_tree, star_tree
from .graph import Graph, cross_edges, cut_size, subset_volume

ORACLE_MAX_VERTICES = {2: 8, 3: 5}


def delta_compress(tree: CodingTree, a_id: int, b_id: int, cross: int | None = None) -> float:
    """Entropy change of compress(a, b):
    (2 * cross(a, b) / vol G) * log2((vol a + vol b) / vol parent).

    Scores distinct siblings only; `compress` raises on any other pair.
    Exactly 0.0 when a and b share no edge. `cross` is their edge count
    if the caller knows it; otherwise it is counted from the graph.
    """
    a, b = tree.nodes[a_id], tree.nodes[b_id]
    if cross is None:
        cross = cross_edges(tree.graph, a.subset, b.subset)
    if cross == 0:
        return 0.0
    parent_vol = tree.nodes[a.parent].volume
    return (2 * cross / tree.graph.volume) * math.log2((a.volume + b.volume) / parent_vol)


def delta_remove(tree: CodingTree, v_id: int) -> float:
    """Entropy change of remove_node(v), v non-root and internal (`remove_node` raises on others):
    ((sum of cut(children) - cut(v)) / vol G) * log2(vol parent / vol v)."""
    v = tree.nodes[v_id]
    inner = sum(tree.nodes[c].cut for c in v.children) - v.cut
    parent_vol = tree.nodes[v.parent].volume
    return (inner / tree.graph.volume) * math.log2(parent_vol / v.volume)


def _sibling_graph(sub: CodingTree) -> dict:
    """{child id: {adjacent sibling id: cross-edge count}} over the root's
    children, counted once from the graph's adjacency."""
    owner = {}
    for c in sub.nodes[sub.root_id].children:
        for u in sub.nodes[c].subset:
            owner[u] = c
    rows = {c: {} for c in sub.nodes[sub.root_id].children}
    adjacency = sub.graph.adjacency
    for u, c in owner.items():
        row = rows[c]
        for w in adjacency[u]:
            d = owner.get(w)
            if d is not None and d != c:
                row[d] = row.get(d, 0) + 1
    return rows


def _compress_to_binary(sub: CodingTree) -> None:
    """Compress the root's children pairwise, best pair first, until the
    root has two children."""
    root = sub.nodes[sub.root_id]
    rows = _sibling_graph(sub)
    heap = [
        (delta_compress(sub, a, b, w), a, b)
        for a, row in rows.items()
        for b, w in row.items()
        if a < b
    ]
    heapq.heapify(heap)
    by_id = sorted(rows)  # alive ids, lowest first, for the no-adjacent-pair case
    while len(root.children) > 2:
        while heap and (heap[0][1] not in rows or heap[0][2] not in rows):
            heapq.heappop(heap)
        if heap:
            _, a, b = heapq.heappop(heap)
        else:  # every delta is exactly 0: the lowest-id pair wins the tie
            pair = []
            while len(pair) < 2:
                x = heapq.heappop(by_id)
                if x in rows:
                    pair.append(x)
            a, b = pair
        gamma = sub.compress(a, b)
        row = rows.pop(a)
        for x, w in rows.pop(b).items():
            row[x] = row.get(x, 0) + w
        row.pop(a, None)
        row.pop(b, None)
        for x, w in row.items():
            x_row = rows[x]
            x_row.pop(a, None)
            x_row.pop(b, None)
            x_row[gamma] = w
            heapq.heappush(heap, (delta_compress(sub, x, gamma, w), x, gamma))
        rows[gamma] = row
        heapq.heappush(by_id, gamma)


def _remove_to_height_two(sub: CodingTree) -> None:
    """Delete the internal node of least delta_remove until every internal
    node hangs off the root (height 2 once aligned)."""
    root_id = sub.root_id
    score = {}
    heap = []

    def rescore(n_id):
        score[n_id] = d = delta_remove(sub, n_id)
        heapq.heappush(heap, (d, n_id))

    deep = 0  # internal nodes whose parent is not the root
    for n in sub.nodes.values():
        if n.parent is not None and not n.is_leaf():
            rescore(n.id)
            deep += n.parent != root_id
    while deep:
        d, v_id = heapq.heappop(heap)
        if score.get(v_id) != d:
            continue
        del score[v_id]
        v = sub.nodes[v_id]
        parent, kids = v.parent, v.children
        deep -= parent != root_id
        sub.remove_node(v_id)
        for c in kids:
            if not sub.nodes[c].is_leaf():
                deep -= parent == root_id
                rescore(c)
        if parent != root_id:
            rescore(parent)


def build_two_level(tree: CodingTree, v_id: int) -> list:
    """v's children in ordered groups for `merge`: on a star whose leaf i is v's
    i-th smallest child, greedy pair compression, then least-increase deletion to height 2."""
    v = tree.nodes[v_id]
    if v.is_leaf():
        raise ValueError(f"node {v_id} is a leaf")
    kids = sorted(v.children)
    leaves = [(tree.nodes[c].subset, tree.nodes[c].volume, tree.nodes[c].cut) for c in kids]
    sub = star_tree(tree.graph, leaves, (v.subset, v.volume, v.cut))
    _compress_to_binary(sub)
    _remove_to_height_two(sub)
    # a leaf child of the root is a group of one; no internal node sits deeper
    top = sub.nodes[sub.root_id].children
    return [[kids[j] for j in sub.nodes[m].children or [m]] for m in top]


def build_coding_tree(g: Graph, k: int) -> CodingTree:
    """Greedy coding tree of height exactly k (2 <= k < |V|)."""
    if k < 2:
        raise ValueError(f"height must be at least 2, got {k}")
    if k >= g.node_count:
        raise ValueError(f"height {k} not realizable on {g.node_count} vertices")
    tree = initial_tree(g)
    tree.merge(tree.root_id, build_two_level(tree, tree.root_id))
    while tree.height < k:
        # candidate 1: refine the partition at the root, on a copy
        t1 = tree.copy()
        t1.merge(t1.root_id, build_two_level(t1, t1.root_id))
        # candidate 2, in place: refine below every parent-of-leaves node
        # (each merge keeps all leaves at one depth, so those are layer 1)
        for v in tree.layer(1):
            tree.merge(v, build_two_level(tree, v))
        if t1.structural_entropy() < tree.structural_entropy():  # a tie keeps candidate 2
            tree = t1
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


def _layered_entropy(g: Graph, layers) -> float:
    """Entropy of the tree described by nested vertex-subset layers,
    computed directly from the graph (no tree caches).

    `layers` runs bottom-up, excluding the leaf layer and the root; each
    entry is a list of vertex sets, each nested in some set one level up.
    """
    vol_g = g.volume
    total = 0.0
    # leaf terms against their immediate enclosing block
    for block in layers[0]:
        bvol = subset_volume(g, block)
        for v in block:
            total += entropy_term(g.degree[v], g.degree[v], bvol, vol_g)
    for i, layer in enumerate(layers):
        upper = layers[i + 1] if i + 1 < len(layers) else [set(range(g.node_count))]
        for block in layer:
            parent = next(u for u in upper if set(block) <= set(u))
            total += entropy_term(
                cut_size(g, block), subset_volume(g, block), subset_volume(g, parent), vol_g
            )
    return total


def _tree_from_layers(g: Graph, layers) -> CodingTree:
    """Build an explicit coding tree from bottom-up nested layers and
    align it to uniform leaf depth."""
    tree = initial_tree(g)
    below = {frozenset({v}): v for v in range(g.node_count)}
    for layer in layers:
        current = {}
        for block in layer:
            s = frozenset(block)
            kids = sorted(c for sub, c in below.items() if sub <= s)
            current[s] = tree._insert_above(kids, s, subset_volume(g, s), cut_size(g, s)).id
        below = current
    # set_partitions does not order blocks by their smallest element
    tree.nodes[tree.root_id].children.sort()
    tree.align(len(layers) + 1)
    return tree


def oracle_min_entropy(g: Graph, k: int):
    """Exact minimum entropy over all coding trees of height <= k, by
    exhaustive enumeration of (nested) set partitions. Returns
    (optimal tree, entropy)."""
    if k not in ORACLE_MAX_VERTICES:
        raise ValueError(f"oracle supports heights 2 and 3, got {k}")
    if g.node_count > ORACLE_MAX_VERTICES[k]:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_VERTICES[k]} vertices for height {k}, "
            f"graph has {g.node_count}"
        )
    best_entropy = None
    best_layers = None
    for partition in set_partitions(range(g.node_count)):
        blocks = [set(b) for b in partition]
        if k == 2:
            candidates = [[blocks]]
        else:
            candidates = []
            for grouping in set_partitions(range(len(blocks))):
                groups = [set().union(*(blocks[i] for i in grp)) for grp in grouping]
                candidates.append([blocks, groups])
        for layers in candidates:
            h = _layered_entropy(g, layers)
            if best_entropy is None or h < best_entropy:
                best_entropy = h
                best_layers = [[sorted(b) for b in layer] for layer in layers]
    tree = _tree_from_layers(g, best_layers)
    return tree, best_entropy
