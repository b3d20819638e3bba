import hashlib
import heapq
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hill import coding_tree, entropy_min
from hill.coding_tree import CodingTree, initial_tree, star_tree
from hill.datagen import gen_hierarchy, hierarchy_to_graph
from hill.entropy_min import (
    build_coding_tree,
    build_two_level,
    delta_compress,
    delta_remove,
    oracle_min_entropy,
    set_partitions,
)
from hill.graph import build_graph

from conftest import random_graph


def test_delta_compress_matches_full_difference(bridge_triangles):
    tree = initial_tree(bridge_triangles)
    before = tree.structural_entropy()
    predicted = delta_compress(tree, 0, 1)
    tree.compress(0, 1)
    assert tree.structural_entropy() - before == pytest.approx(predicted, abs=1e-12)


def test_delta_remove_matches_full_difference(bridge_triangles):
    tree = initial_tree(bridge_triangles)
    gamma = tree.compress(0, 1)
    before = tree.structural_entropy()
    predicted = delta_remove(tree, gamma)
    tree.remove_node(gamma)
    assert tree.structural_entropy() - before == pytest.approx(predicted, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_deltas_match_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_min=4, n_max=7)
    tree = initial_tree(g)
    kids = tree.nodes[tree.root_id].children
    a, b = sorted(rng.choice(kids, size=2, replace=False).tolist())
    before = tree.structural_entropy()
    dc = delta_compress(tree, a, b)
    gamma = tree.compress(a, b)
    mid = tree.structural_entropy()
    assert mid - before == pytest.approx(dc, abs=1e-12)
    dr = delta_remove(tree, gamma)
    tree.remove_node(gamma)
    assert tree.structural_entropy() - mid == pytest.approx(dr, abs=1e-12)


def test_build_two_level_shape(bridge_triangles, cycle4):
    tree = initial_tree(bridge_triangles)
    groups = build_two_level(tree, tree.root_id)
    assert {frozenset(grp) for grp in groups} == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
    # a node with two children keeps each in a group of its own
    tree = build_coding_tree(cycle4, 3)
    a, b = tree.nodes[tree.root_id].children
    assert build_two_level(tree, tree.root_id) == [[a], [b]]


def test_build_two_level_rejects_leaf(cycle4):
    tree = initial_tree(cycle4)
    with pytest.raises(ValueError, match="leaf"):
        build_two_level(tree, 0)


def test_build_two_level_builds_no_tree(monkeypatch, bridge_triangles):
    # the step runs on ids; the surgeries and cross_edges stay its reference
    def refuse(*_args, **_kw):
        raise AssertionError("build_two_level used the tree API")

    tree = initial_tree(bridge_triangles)
    for owner, name in ((CodingTree, "__init__"), (CodingTree, "compress"),
                        (CodingTree, "remove_node"), (entropy_min, "cross_edges")):
        monkeypatch.setattr(owner, name, refuse)
    monkeypatch.setattr(coding_tree.TreeNode, "__init__", refuse)
    assert len(build_two_level(tree, tree.root_id)) == 2


def test_build_coding_tree_recovers_triangles(bridge_triangles):
    tree = build_coding_tree(bridge_triangles, 2)
    tree.validate()
    groups = {tree.nodes[c].subset for c in tree.nodes[tree.root_id].children}
    assert groups == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}


def test_build_coding_tree_height_and_validity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = random_graph(rng, n_min=5, n_max=9)
        for k in (2, 3):
            tree = build_coding_tree(g, k)
            tree.validate()
            assert tree.height == k


def test_build_coding_tree_never_above_flat():
    rng = np.random.default_rng(11)
    for _ in range(15):
        g = random_graph(rng, n_min=4, n_max=8)
        flat = initial_tree(g).structural_entropy()
        greedy = build_coding_tree(g, 2).structural_entropy()
        assert greedy <= flat + 1e-12


def test_build_coding_tree_logs_each_level_at_info(bridge_triangles, cycle4, caplog):
    build_coding_tree(bridge_triangles, 2)
    assert caplog.records == []  # nothing below the default warning level
    with caplog.at_level(logging.INFO, logger="hill.entropy_min"):
        build_coding_tree(bridge_triangles, 2)
        build_coding_tree(cycle4, 3)
    lines = [r.getMessage() for r in caplog.records]
    assert [line.split(", H(T)")[0] for line in lines] == [
        "height 2 (root refinement): 4 compresses, 2 removals",
        "height 2 (root refinement): 2 compresses, 0 removals",
        "height 3 (in place refinement): 0 compresses, 0 removals",
    ]


def test_build_coding_tree_argument_checks(cycle4):
    with pytest.raises(ValueError, match="at least 2"):
        build_coding_tree(cycle4, 1)
    with pytest.raises(ValueError, match="not realizable"):
        build_coding_tree(cycle4, 4)


def test_build_coding_tree_deterministic(bridge_triangles):
    a = build_coding_tree(bridge_triangles, 2)
    b = build_coding_tree(bridge_triangles, 2)
    assert a.to_json() == b.to_json()


def test_level_tie_keeps_the_refinement_below(cycle4):
    # at K=3 neither candidate can split cycle4's two pairs further, so
    # both keep the entropy; the tie keeps candidate 2, whose unary chains
    # sit under the pairs (candidate 1 would put them above)
    tree = build_coding_tree(cycle4, 3)
    tree.validate()
    pairs = tree.nodes[tree.root_id].children
    assert sorted(tree.nodes[c].subset for c in pairs) == [frozenset({0, 1}), frozenset({2, 3})]
    assert all(len(tree.nodes[c].children) == 2 for c in pairs)


def test_set_partitions_counts_are_bell_numbers():
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
    for n, count in bell.items():
        parts = list(set_partitions(range(n)))
        assert len(parts) == count
        # each partition covers the ground set exactly once
        for p in parts:
            flat = sorted(v for block in p for v in block)
            assert flat == list(range(n))


def test_oracle_cycle4(cycle4):
    tree, h = oracle_min_entropy(cycle4, 2)
    tree.validate()
    assert h == pytest.approx(1.5, abs=1e-12)
    assert tree.structural_entropy() == h


def test_oracle_height3_on_path():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    tree, h = oracle_min_entropy(g, 3)
    tree.validate()
    assert tree.structural_entropy() == h
    greedy = build_coding_tree(g, 3).structural_entropy()
    assert h <= greedy + 1e-12


def test_oracle_root_children_ascend():
    # the optimum's blocks come out of set_partitions as [1, 2], [0, 3, 4]
    g = build_graph(5, [(0, 3), (0, 4), (1, 2), (1, 3), (3, 4)])
    tree, _ = oracle_min_entropy(g, 2)
    assert tree.nodes[5].children == [6, 7]
    assert tree.nodes[6].subset == frozenset({1, 2})
    assert tree.nodes[6].children == [1, 2]
    assert tree.nodes[7].children == [0, 3, 4]


def _oracle_corpus():
    rng = np.random.default_rng(1414)
    return [
        pytest.param(random_graph(rng, n_min=3 if k == 2 else 4, n_max=8 if k == 2 else 5), k,
                     id=f"k{k}-{i}")
        for k, count in ((2, 25), (3, 15))
        for i in range(count)
    ]


@pytest.mark.parametrize("g,k", _oracle_corpus())
def test_oracle_tree_scores_its_optimum(g, k):
    tree, h = oracle_min_entropy(g, k)
    tree.validate()
    assert tree.height == k
    assert tree.structural_entropy() == h
    assert tree.entropy_from_scratch() == pytest.approx(h, abs=1e-12)


def test_oracle_limits(cycle4):
    with pytest.raises(ValueError, match="heights 2 and 3"):
        oracle_min_entropy(cycle4, 4)
    big = build_graph(9, [(i, (i + 1) % 9) for i in range(9)])
    with pytest.raises(ValueError, match="limited"):
        oracle_min_entropy(big, 2)


# -- exact ties --------------------------------------------------------


def test_delta_compress_exact_zero_and_sign():
    rng = np.random.default_rng(5)
    seen = {True: 0, False: 0}
    for _ in range(60):
        g = random_graph(rng, n_min=4, n_max=8, p=0.4)
        tree = initial_tree(g)
        for a in range(g.node_count):
            for b in range(a + 1, g.node_count):
                adjacent = b in g.adjacency[a]
                d = delta_compress(tree, a, b)
                if adjacent:
                    assert d < 0
                else:
                    assert d == 0.0
                seen[adjacent] += 1
    assert min(seen.values()) > 100


def _two_groups(g, left):
    """Height-2 tree with `left` under one node and the other vertices
    under another."""
    n = g.node_count
    g_left, g_right, root = n, n + 1, n + 2
    nodes = [
        {"id": v, "parent": g_left if v in left else g_right, "children": []} for v in range(n)
    ]
    nodes += [
        {"id": g_left, "parent": root, "children": sorted(left)},
        {"id": g_right, "parent": root, "children": sorted(set(range(n)) - set(left))},
        {"id": root, "parent": None, "children": [g_left, g_right]},
    ]
    return CodingTree.from_json(g, json.dumps({"nodes": nodes}))


def _first_compress(tree, v_id):
    # the step's ids for v's children are their ranks, which these trees' ids equal
    _, _, merges, _ = entropy_min._pair_merges(tree, v_id)
    a, b, _ = merges[0]
    return a, b


def test_first_compress_takes_lowest_pair_on_a_symmetric_star():
    # every (centre, leaf) pair has the same delta
    g = build_graph(9, [(0, i) for i in range(1, 9)])
    tree = initial_tree(g)
    assert _first_compress(tree, tree.root_id) == (0, 1)


def test_first_compress_takes_lowest_pair_among_zero_deltas():
    # left vertex i joins the first (1, 1, 2, 3)[i] right vertices: the
    # left group's members share no edge, so every pair ties at exactly 0
    edges = [(i, 4 + j) for i, d in enumerate((1, 1, 2, 3)) for j in range(d)]
    tree = _two_groups(build_graph(7, edges), {0, 1, 2, 3})
    group = tree.nodes[0].parent
    assert all(delta_compress(tree, a, b) == 0.0 for a in range(4) for b in range(a + 1, 4))
    assert _first_compress(tree, group) == (0, 1)


# -- differential test against the exhaustive two-level step ------------


def _reference_two_level(tree, v_id):
    """The two-level step as an exhaustive argmin: every sibling pair on
    one heap (cross-edges counted from the graph), and a rescan of every
    internal node per removal."""
    node = tree.nodes[v_id]
    kids = sorted(node.children)
    leaves = [(tree.nodes[c].subset, tree.nodes[c].volume, tree.nodes[c].cut) for c in kids]
    sub = star_tree(tree.graph, leaves, (node.subset, node.volume, node.cut))
    root = sub.nodes[sub.root_id]
    heap = []
    alive = set(root.children)
    members = sorted(alive)
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            heapq.heappush(heap, (delta_compress(sub, a, b), a, b))
    while len(root.children) > 2:
        _, a, b = heapq.heappop(heap)
        if a not in alive or b not in alive:
            continue
        gamma = sub.compress(a, b)
        alive -= {a, b}
        for other in sorted(alive):
            heapq.heappush(heap, (delta_compress(sub, other, gamma), other, gamma))
        alive.add(gamma)
    while sub.height > 2:
        _, v = min(
            (delta_remove(sub, n.id), n.id)
            for n in sub.nodes.values()
            if n.parent is not None and not n.is_leaf()
        )
        sub.remove_node(v)
    sub.align(2)
    return [[kids[l] for l in sub.nodes[m].children] for m in root.children]


def _relabelled(g, rng):
    perm = rng.permutation(g.node_count)
    return build_graph(g.node_count, [(int(perm[u]), int(perm[v])) for u, v in sorted(g.edges)])


def _sbm(rng, blocks, size, p_in, p_out):
    n = blocks * size
    while True:
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < (p_in if u // size == v // size else p_out)
        ]
        try:
            return build_graph(n, edges)
        except ValueError:
            continue


def _disjoint_union(*graphs):
    edges, base = [], 0
    for g in graphs:
        edges += [(u + base, v + base) for u, v in g.edges]
        base += g.node_count
    return build_graph(base, edges)


def _differential_corpus():
    rng = np.random.default_rng(2024)
    corpus = []
    for i in range(12):
        corpus.append((f"random{i}", random_graph(rng, n_min=5, n_max=12, p=0.4)))
    for i in range(3):
        corpus.append((f"sbm{i}", _sbm(rng, 3, 8, 0.6, 0.05)))
    for depth, branching in ((3, 3), (2, 5), (3, 4)):
        taxonomy = hierarchy_to_graph(gen_hierarchy(depth, branching))
        corpus.append((f"taxonomy{depth}{branching}", _relabelled(taxonomy, rng)))
    # three or more components: once each is one node, no sibling pair is
    # adjacent and the lowest-id fallback must pick the compressions
    triangle = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    path = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    corpus.append(("disconnected-small", _disjoint_union(triangle, path, triangle, path)))
    corpus.append(
        (
            "disconnected-random",
            _disjoint_union(*(random_graph(rng, n_min=3, n_max=6) for _ in range(4))),
        )
    )
    # eight components leave eight ids to the fallback, so it compresses merged ids too
    corpus.append(("disconnected-eight", _disjoint_union(*[triangle, path] * 4)))
    params = [pytest.param(g, k, id=f"{name}-k{k}") for name, g in corpus for k in (2, 3)]
    # the shapes perfbench's tree-build workload times, at its heights
    bench = [("sbm8x20", _sbm(rng, 8, 20, 0.5, 0.014), 2)]
    for depth, branching, k in ((4, 3, 3), (3, 5, 2)):
        taxonomy = hierarchy_to_graph(gen_hierarchy(depth, branching))
        bench.append((f"taxonomy{depth}{branching}", _relabelled(taxonomy, rng), k))
    return params + [pytest.param(g, k, id=f"{name}-k{k}") for name, g, k in bench]


@pytest.mark.parametrize("g,k", _differential_corpus())
def test_build_matches_exhaustive_two_level(monkeypatch, g, k):
    fast = build_coding_tree(g, k)
    monkeypatch.setattr(entropy_min, "build_two_level", _reference_two_level)
    reference = build_coding_tree(g, k)
    assert fast.to_json() == reference.to_json()


def test_large_taxonomy_at_height_three():
    g = hierarchy_to_graph(gen_hierarchy(5, 4))
    assert g.node_count == 1365
    tree = build_coding_tree(g, 3)
    tree.validate()
    assert tree.height == 3
    assert tree.structural_entropy() == pytest.approx(tree.entropy_from_scratch(), abs=1e-9)


def test_wide_taxonomy_trees_are_pinned():
    # 4681 children under the root: the compress phase's slot order decides its child order
    g = hierarchy_to_graph(gen_hierarchy(4, 8))
    text = "\n".join(build_coding_tree(g, k).to_json() for k in (2, 3))
    digest = "5edbe63b9a7a9ad55c5b83a25c366a6bd39c493a4e6f1c328cc0ea8e73ffcb13"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
