import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hill.coding_tree import CodingTree, initial_tree
from hill.entropy_min import build_coding_tree, build_two_level
from hill.graph import build_graph

from conftest import random_graph, ref_entropy


def degree_shannon_entropy(g):
    vol = g.volume
    return -sum(d / vol * math.log2(d / vol) for d in g.degree)


def test_initial_tree_shape(cycle4):
    tree = initial_tree(cycle4)
    tree.validate()
    assert tree.height == 1
    assert sorted(tree.leaf_ids()) == [0, 1, 2, 3]
    assert len(tree.nodes[tree.root_id].children) == 4


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_flat_entropy_matches_shannon(seed):
    g = random_graph(np.random.default_rng(seed))
    tree = initial_tree(g)
    assert tree.structural_entropy() == pytest.approx(degree_shannon_entropy(g), abs=1e-9)


def test_compress_updates_caches(bridge_triangles):
    tree = initial_tree(bridge_triangles)
    gamma = tree.compress(0, 1)
    tree.validate(require_uniform_depth=False)
    node = tree.nodes[gamma]
    assert node.subset == frozenset({0, 1})
    assert node.volume == 4
    assert node.cut == 2  # edges (0,2) and (1,2) leave the pair
    assert tree.depths()[0] == 2
    assert tree.height == 2
    # leaves 2..5 still sit at depth 1, so uniform-depth validation fails
    with pytest.raises(ValueError, match="uniform"):
        tree.validate(require_uniform_depth=True)


def _links(tree):
    """{node id: (parent, children)} for every node."""
    return {n.id: (n.parent, n.children) for n in tree.nodes.values()}


def test_compress_takes_the_first_nodes_slot(bridge_triangles):
    tree = initial_tree(bridge_triangles)  # leaves 0..5 under root 6
    assert tree.compress(4, 2) == 7
    assert tree.nodes[6].children == [0, 1, 3, 7, 5]
    assert tree.nodes[7].children == [4, 2]
    assert tree.nodes[2].parent == tree.nodes[4].parent == 7
    assert tree.nodes[7].parent == 6


def test_compress_rejects_non_siblings(cycle4):
    tree = initial_tree(cycle4)
    tree.compress(0, 1)
    with pytest.raises(ValueError, match="not siblings"):
        tree.compress(0, 2)
    with pytest.raises(ValueError, match="distinct"):
        tree.compress(3, 3)


def test_remove_node_inverts_compress(cycle4):
    tree = initial_tree(cycle4)
    before = tree.structural_entropy()
    gamma = tree.compress(0, 1)
    tree.remove_node(gamma)
    tree.validate()
    assert tree.structural_entropy() == pytest.approx(before, abs=1e-12)
    assert tree.height == 1


def test_remove_node_rejects_root_and_leaves(cycle4):
    tree = initial_tree(cycle4)
    with pytest.raises(ValueError, match="root"):
        tree.remove_node(tree.root_id)
    with pytest.raises(ValueError, match="leaf"):
        tree.remove_node(0)


def test_align_levels_leaves_and_adds_zero_terms(bridge_triangles):
    tree = initial_tree(bridge_triangles)
    tree.compress(0, 1)
    before = tree.structural_entropy()
    tree.align()
    tree.validate()
    assert tree.height == 2
    assert before == pytest.approx(tree.structural_entropy(), abs=1e-12)


def test_align_to_target_height(cycle4):
    tree = initial_tree(cycle4)
    h = tree.structural_entropy()
    tree.align(3)
    tree.validate()
    assert tree.height == 3
    assert tree.structural_entropy() == pytest.approx(h, abs=1e-12)
    with pytest.raises(ValueError, match="below current height"):
        tree.align(1)


def test_align_chains_run_top_first_down_to_the_leaf(cycle4):
    tree = initial_tree(cycle4)  # leaves 0..3 under root 4
    tree.compress(0, 1)  # node 5
    tree.align(tree.height + 2)
    assert _links(tree) == {
        0: (7, []), 1: (9, []), 2: (12, []), 3: (15, []),
        4: (None, [5, 10, 13]),
        5: (4, [6, 8]), 6: (5, [7]), 7: (6, [0]), 8: (5, [9]), 9: (8, [1]),
        10: (4, [11]), 11: (10, [12]), 12: (11, [2]),
        13: (4, [14]), 14: (13, [15]), 15: (14, [3]),
    }  # fmt: skip


def test_merge_replaces_children(bridge_triangles):
    tree = initial_tree(bridge_triangles)
    # split the vertices into the two triangles
    tree.merge(tree.root_id, [[0, 1, 2], [3, 4, 5]])
    tree.validate()
    assert tree.height == 2
    groups = {tree.nodes[c].subset for c in tree.nodes[tree.root_id].children}
    assert groups == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
    assert tree.structural_entropy() == pytest.approx(ref_entropy(tree), abs=1e-12)


def test_merge_keeps_the_sub_trees_order(bridge_triangles):
    tree = initial_tree(bridge_triangles)  # leaves 0..5 under root 6
    tree.merge(6, [[5, 3, 4], [2, 0, 1]])
    assert _links(tree) == {
        0: (8, []), 1: (8, []), 2: (8, []), 3: (7, []), 4: (7, []), 5: (7, []),
        6: (None, [7, 8]), 7: (6, [5, 3, 4]), 8: (6, [2, 0, 1]),
    }  # fmt: skip


@pytest.mark.parametrize(
    "groups",
    [
        [[0, 1, 2], [], [3, 4, 5]],
        [[0, 1], [3, 4, 5]],
        [[0, 1, 2], [2, 3, 4, 5]],
        [[0, 1, 6], [3, 4, 5]],
    ],
    ids=["empty-group", "missing-child", "child-twice", "not-a-child"],
)
def test_merge_refuses_groups_that_do_not_split_the_children(bridge_triangles, groups):
    tree = initial_tree(bridge_triangles)  # leaves 0..5 under root 6
    before = tree.to_json()
    with pytest.raises(ValueError, match="groups must split node 6's children"):
        tree.merge(6, groups)
    assert tree.to_json() == before


def test_layer_indexing(bridge_triangles):
    tree = initial_tree(bridge_triangles)
    tree.compress(0, 1)
    tree.compress(tree.nodes[0].parent, 2)
    tree.align()
    tree.validate(require_uniform_depth=False)
    assert tree.layer(0) == sorted(tree.leaf_ids())
    assert tree.layer(tree.height) == [tree.root_id]


def test_copy_is_independent(cycle4):
    tree = initial_tree(cycle4)
    clone = tree.copy()
    clone.compress(0, 1)
    assert tree.height == 1
    assert clone.height == 2
    tree.validate()
    clone.validate(require_uniform_depth=False)


def test_entropy_from_scratch_agrees(bridge_triangles):
    tree = initial_tree(bridge_triangles)
    tree.compress(0, 1)
    tree.compress(3, 4)
    tree.align()
    assert tree.structural_entropy() == pytest.approx(tree.entropy_from_scratch(), abs=1e-12)
    assert tree.structural_entropy() == pytest.approx(ref_entropy(tree), abs=1e-12)


def test_json_round_trip(bridge_triangles):
    tree = initial_tree(bridge_triangles)
    tree.compress(0, 1)
    tree.align()
    text = tree.to_json()
    back = CodingTree.from_json(bridge_triangles, text)
    back.validate()
    assert back.height == tree.height
    assert back.structural_entropy() == pytest.approx(tree.structural_entropy(), abs=1e-12)
    assert back.to_json() == text
    # the height key is checked when present, and optional
    nodes = json.dumps({"nodes": json.loads(text)["nodes"]})
    assert CodingTree.from_json(bridge_triangles, nodes).to_json() == text


def test_from_json_rejects_wrong_leaf_count(cycle4):
    tree = initial_tree(build_graph(3, [(0, 1), (1, 2), (0, 2)]))
    with pytest.raises(ValueError, match="leaf count"):
        CodingTree.from_json(cycle4, tree.to_json())


def _cycle4_nodes():
    """initial_tree(cycle4) as JSON: leaves 0-3 under root 4."""
    tree = initial_tree(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    return json.loads(tree.to_json())["nodes"]


def _with(nodes, node_id, **fields):
    return [dict(n, **fields) if n["id"] == node_id else n for n in nodes]


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [1],
        None,
        {"nodes": 3},
        {"nodes": [{"id": 0}]},
        {"nodes": [1, 2]},
        {"nodes": _with(_cycle4_nodes(), 4, children=[0, 1, 2, 3, 9])},  # missing child
        {"nodes": _cycle4_nodes() + [{"id": 0, "parent": 4, "children": [1]}]},  # duplicate id
        {  # a cycle beside the tree
            "nodes": _cycle4_nodes()
            + [{"id": 7, "parent": 8, "children": [8]}, {"id": 8, "parent": 7, "children": [7]}]
        },
        {"nodes": _with(_cycle4_nodes(), 4, children=[0, 1, 2, 3, 3])},  # child listed twice
        {"nodes": _with(_cycle4_nodes(), 0, parent=3)},  # parent does not list it
        {"nodes": _with(_cycle4_nodes(), 0, id=True)},
        {"nodes": _with(_cycle4_nodes(), 0, parent="4")},
        {"nodes": _with(_cycle4_nodes(), 4, children=[0, 1, 2, 3.0])},
        {"height": 7, "nodes": _cycle4_nodes()},  # the tree has height 1
        {"height": "x", "nodes": _cycle4_nodes()},
        {"height": True, "nodes": _cycle4_nodes()},
    ],
)
def test_from_json_rejects_malformed_input(cycle4, obj):
    with pytest.raises(ValueError):
        CodingTree.from_json(cycle4, json.dumps(obj))


def test_validate_catches_stale_cache(cycle4):
    tree = initial_tree(cycle4)
    tree.nodes[0].volume += 1
    with pytest.raises(ValueError, match="stale cached volume"):
        tree.validate()


def _move_leaf(tree, leaf, to):
    tree.nodes[tree.nodes[leaf].parent].children.remove(leaf)
    tree.nodes[to].children.append(leaf)
    tree.nodes[leaf].parent = to


def _reroot(tree, nid):
    keep = set(tree.subtree_ids(nid))
    tree.nodes = {i: n for i, n in tree.nodes.items() if i in keep}
    tree.root_id, tree.nodes[nid].parent = nid, None


def _collapse(tree, nid):
    for c in tree.nodes[nid].children:
        del tree.nodes[c]
    tree.nodes[nid].children = []


# Each corruption gets (tree, root, a, b): a greedy K=2 tree over two
# triangles, whose root 6 has the two triangles a = 7 and b = 8 as
# children; 9 is the first free id.
_CORRUPTIONS = {
    "missing-root": (lambda t, r, a, b: setattr(t, "root_id", max(t.nodes) + 1), "missing root"),
    "root-parent": (lambda t, r, a, b: setattr(r, "parent", a.id), "root must have no parent"),
    "reached-twice": (lambda t, r, a, b: r.children.append(a.id), "reachable twice"),
    "cycle": (lambda t, r, a, b: a.children.append(r.id), "node 6 reachable twice"),
    "dangling-child": (lambda t, r, a, b: a.children.append(9), "child 9 is not a node"),
    "unreachable": (lambda t, r, a, b: a.children.pop(), "unreachable from the root"),
    "not-in-parent-list": (
        lambda t, r, a, b: setattr(t.nodes[a.children[0]], "parent", b.id),
        "missing from parent's child list",
    ),
    "dangling-parent": (lambda t, r, a, b: setattr(a, "parent", 9), "node 7 missing from parent"),
    "not-a-partition": (
        lambda t, r, a, b: _move_leaf(t, a.children[0], b.id),
        "children do not partition its subset",
    ),
    "stale-cut": (
        lambda t, r, a, b: setattr(t.nodes[a.children[0]], "cut", t.nodes[a.children[0]].cut + 1),
        "stale cached cut",
    ),
    "root-not-whole-graph": (lambda t, r, a, b: _reroot(t, a.id), "root must mark the whole graph"),
    "leaf-not-a-vertex": (lambda t, r, a, b: _collapse(t, a.id), "leaves do not biject"),
}


@pytest.mark.parametrize("corrupt,why", _CORRUPTIONS.values(), ids=_CORRUPTIONS.keys())
def test_validate_names_each_broken_invariant(bridge_triangles, corrupt, why):
    tree = build_coding_tree(bridge_triangles, 2)
    tree.validate()
    root = tree.nodes[tree.root_id]
    a, b = (tree.nodes[c] for c in root.children)
    corrupt(tree, root, a, b)
    with pytest.raises(ValueError, match=why):
        tree.validate()


def _hops_to_root(tree, nid):
    hops = 0
    while tree.nodes[nid].parent is not None:
        nid = tree.nodes[nid].parent
        hops += 1
    return hops


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_random_surgeries_keep_tree_coherent(seed, data):
    """Any sequence of surgeries keeps the links valid, the derived depths
    equal to parent-hop counts, and the cached entropy exact."""
    tree = initial_tree(random_graph(np.random.default_rng(seed)))
    for _ in range(data.draw(st.integers(1, 10))):
        internal = sorted(n.id for n in tree.nodes.values() if not n.is_leaf())
        kind = data.draw(st.sampled_from(["compress", "remove", "align", "merge"]))
        if kind == "compress":
            groups = [i for i in internal if len(tree.nodes[i].children) >= 2]
            kids = sorted(tree.nodes[data.draw(st.sampled_from(groups))].children)
            a, b = data.draw(st.lists(st.sampled_from(kids), min_size=2, max_size=2, unique=True))
            tree.compress(a, b)
        elif kind == "remove" and len(internal) > 1:
            tree.remove_node(data.draw(st.sampled_from([i for i in internal if i != tree.root_id])))
        elif kind == "align":
            tree.align(tree.height + data.draw(st.integers(0, 1)))
        elif kind == "merge":
            v = data.draw(st.sampled_from(internal))
            tree.merge(v, build_two_level(tree, v))
        tree.validate(require_uniform_depth=False)
        assert tree.depths() == {nid: _hops_to_root(tree, nid) for nid in tree.nodes}
        assert tree.structural_entropy() == pytest.approx(tree.entropy_from_scratch(), abs=1e-9)


def test_from_json_rejects_extra_leaves_and_rootless_trees(cycle4):
    five = initial_tree(build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))
    with pytest.raises(ValueError, match="more leaves than graph vertices"):
        CodingTree.from_json(cycle4, five.to_json())
    with pytest.raises(ValueError, match="expected exactly one root, found 0"):
        CodingTree.from_json(cycle4, json.dumps({"nodes": _with(_cycle4_nodes(), 4, parent=0)}))
