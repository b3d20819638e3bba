"""Coding trees over a graph, the four tree surgeries (compress, remove,
align, and merge, which puts one new node over each listed group of a
node's children), validity checking, and structural entropy in bits.

A coding tree is a rooted tree whose leaves biject with the graph's
vertices; every node marks the vertex subset under it, and caches that
subset's volume and cut count. A node's depth is not cached: it is
derived from the parent/children links, one walk from the root per
`depths()` call, so surgeries rewire links and nothing else. Entropy of
a tree T over graph G:

    H(T) = -sum over non-root nodes v of (cut(v) / vol(G)) * log2(vol(v) / vol(parent(v)))

`entropy_term` gives one node's term, 0 when its cut is 0. Trees are
single-writer; entropy reads on distinct trees may run concurrently.
"""

from __future__ import annotations

import json
import math

from .graph import Graph, cross_edges, cut_size, subset_volume


class TreeNode:
    __slots__ = ("id", "parent", "children", "subset", "volume", "cut")

    def __init__(self, node_id, parent, subset, volume, cut):
        self.id = node_id
        self.parent = parent
        self.children = []
        self.subset = subset
        self.volume = volume
        self.cut = cut

    def is_leaf(self):
        return not self.children


class CodingTree:
    """Handle-indexed rooted tree; mutators rewire parent/children links."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.nodes: dict[int, TreeNode] = {}
        self.root_id: int | None = None
        self._next_id = 0

    # -- construction -------------------------------------------------

    def _alloc(self, parent, subset, volume, cut) -> TreeNode:
        node = TreeNode(self._next_id, parent, subset, volume, cut)
        self.nodes[node.id] = node
        self._next_id += 1
        return node

    def _insert_above(self, kids, subset, volume, cut) -> TreeNode:
        """Allocate a node in the slot of kids[0] under the kids' common
        parent, drop the other kids from that parent's list, and adopt the
        kids in the given order."""
        parent = self.nodes[self.nodes[kids[0]].parent]
        node = self._alloc(parent.id, subset, volume, cut)
        parent.children[parent.children.index(kids[0])] = node.id
        for k in kids[1:]:
            parent.children.remove(k)
        node.children = list(kids)
        for k in kids:
            self.nodes[k].parent = node.id
        return node

    def copy(self) -> "CodingTree":
        other = CodingTree(self.graph)
        other.root_id = self.root_id
        other._next_id = self._next_id
        for nid, n in self.nodes.items():
            m = TreeNode(n.id, n.parent, n.subset, n.volume, n.cut)
            m.children = list(n.children)
            other.nodes[nid] = m
        return other

    # -- queries ------------------------------------------------------

    def depths(self) -> dict[int, int]:
        """{node id: edges from the root}, from one walk down the links."""
        depth = {self.root_id: 0}
        stack = [self.root_id]
        while stack:
            nid = stack.pop()
            below = depth[nid] + 1
            for c in self.nodes[nid].children:
                depth[c] = below
                stack.append(c)
        return depth

    @property
    def height(self) -> int:
        # the deepest node is always a leaf
        return max(self.depths().values())

    def leaf_ids(self):
        return [n.id for n in self.nodes.values() if n.is_leaf()]

    def subtree_ids(self, node_id):
        out, stack = [], [node_id]
        while stack:
            nid = stack.pop()
            out.append(nid)
            stack.extend(self.nodes[nid].children)
        return out

    def _leaf_unions(self) -> dict:
        """{node id: union of the leaf subsets below it}, children first."""
        unions = {}
        for nid in reversed(self.subtree_ids(self.root_id)):
            n = self.nodes[nid]
            kids = (unions[c] for c in n.children)
            unions[nid] = n.subset if n.is_leaf() else frozenset().union(*kids)
        return unions

    def layer(self, k: int):
        """Node ids at layer k, where layer 0 is the leaves and layer
        height is the root. Requires uniform leaf depth."""
        depth = self.depths()
        h = max(depth.values())
        return sorted(nid for nid, d in depth.items() if d == h - k)

    # -- entropy ------------------------------------------------------

    def structural_entropy(self) -> float:
        """Entropy in bits from the cached per-node volumes and cuts."""
        vol_g = self.graph.volume
        total = 0.0
        for n in self.nodes.values():
            if n.parent is not None:
                total += entropy_term(n.cut, n.volume, self.nodes[n.parent].volume, vol_g)
        return total

    def entropy_from_scratch(self) -> float:
        """Entropy recomputed from leaf subsets and the graph, ignoring
        every cached volume/cut. Differential-test oracle for the caches."""
        g, subsets, total = self.graph, self._leaf_unions(), 0.0
        for nid, s in subsets.items():
            p = self.nodes[nid].parent
            if p is not None:
                vol_p = subset_volume(g, subsets[p])
                total += entropy_term(cut_size(g, s), subset_volume(g, s), vol_p, g.volume)
        return total

    # -- mutators -----------------------------------------------------

    def compress(self, a_id: int, b_id: int) -> int:
        """Insert a new node over siblings a and b; returns its handle."""
        if a_id == b_id:
            raise ValueError("compress needs two distinct nodes")
        a, b = self.nodes[a_id], self.nodes[b_id]
        if a.parent is None or a.parent != b.parent:
            raise ValueError(f"nodes {a_id} and {b_id} are not siblings")
        cut = a.cut + b.cut - 2 * cross_edges(self.graph, a.subset, b.subset)
        return self._insert_above([a_id, b_id], a.subset | b.subset, a.volume + b.volume, cut).id

    def remove_node(self, v_id: int) -> None:
        """Delete a non-root internal node, reattaching its children to
        its former parent."""
        v = self.nodes[v_id]
        if v.parent is None:
            raise ValueError("cannot remove the root")
        if v.is_leaf():
            raise ValueError(f"cannot remove leaf {v_id}")
        parent = self.nodes[v.parent]
        idx = parent.children.index(v_id)
        parent.children[idx : idx + 1] = v.children
        for c in v.children:
            self.nodes[c].parent = parent.id
        del self.nodes[v_id]

    def align(self, target_height: int | None = None) -> None:
        """Insert unary chains so every leaf sits at the target depth.

        Chain nodes inherit the leaf's subset, volume and cut, so their
        entropy terms are exactly 0. Default target is the current height.
        """
        depth = self.depths()
        h = max(depth.values())
        if target_height is None:
            target_height = h
        elif target_height < h:
            raise ValueError(f"target height {target_height} below current height {h}")
        for leaf_id in sorted(self.leaf_ids()):
            leaf = self.nodes[leaf_id]
            # each node goes right above the leaf, so the first is the chain's top
            for _ in range(target_height - depth[leaf_id]):
                self._insert_above([leaf_id], leaf.subset, leaf.volume, leaf.cut)

    def merge(self, at_id: int, groups) -> None:
        """Replace the children of `at` with one new node per group, in
        the groups' order; each node adopts its group's children in the
        listed order. Every group must be non-empty, and together they
        must list each child of `at` exactly once."""
        at = self.nodes[at_id]
        if not all(groups) or sorted(c for kids in groups for c in kids) != sorted(at.children):
            raise ValueError(f"groups must split node {at_id}'s children into non-empty lists")
        new_children = []
        for kids in groups:
            subset = frozenset().union(*(self.nodes[c].subset for c in kids))
            volume = sum(self.nodes[c].volume for c in kids)
            node = self._alloc(at_id, subset, volume, cut_size(self.graph, subset))
            node.children = list(kids)
            for c in kids:
                self.nodes[c].parent = node.id
            new_children.append(node.id)
        at.children = new_children

    # -- validation ---------------------------------------------------

    def validate(self, require_uniform_depth: bool = True) -> None:
        """Raise ValueError on any broken coding-tree invariant."""
        g = self.graph
        if self.root_id not in self.nodes:
            raise ValueError("missing root")
        root = self.nodes[self.root_id]
        if root.parent is not None:
            raise ValueError("root must have no parent")
        seen, stack = set(), [self.root_id]
        while stack:  # each node is entered once, so a cycle ends the walk too
            nid = stack.pop()
            if nid in seen:
                raise ValueError(f"node {nid} reachable twice")
            if nid not in self.nodes:
                raise ValueError(f"child {nid} is not a node")
            seen.add(nid)
            stack.extend(self.nodes[nid].children)
        if seen != set(self.nodes):
            raise ValueError("nodes unreachable from the root")
        leaves = []
        for n in self.nodes.values():
            if n.parent is not None:
                if n.parent not in self.nodes or n.id not in self.nodes[n.parent].children:
                    raise ValueError(f"node {n.id} missing from parent's child list")
            if n.is_leaf():
                leaves.append(n)
            else:
                union = set()
                count = 0
                for c in n.children:
                    union |= self.nodes[c].subset
                    count += len(self.nodes[c].subset)
                if union != set(n.subset) or count != len(n.subset):
                    raise ValueError(f"node {n.id}: children do not partition its subset")
            if n.volume != subset_volume(g, n.subset):
                raise ValueError(f"node {n.id}: stale cached volume")
            if n.cut != cut_size(g, n.subset):
                raise ValueError(f"node {n.id}: stale cached cut")
        if root.cut != 0 or root.volume != g.volume:
            raise ValueError("root must mark the whole graph")
        # partitioned from the root, singleton leaves are pairwise disjoint
        if len(leaves) != g.node_count or any(len(l.subset) != 1 for l in leaves):
            raise ValueError("leaves do not biject with graph vertices")
        if require_uniform_depth:
            depths = {d for nid, d in self.depths().items() if self.nodes[nid].is_leaf()}
            if len(depths) != 1:
                raise ValueError(f"leaf depths not uniform: {sorted(depths)}")

    # -- serialization ------------------------------------------------

    def to_json(self) -> str:
        """{height, nodes:[...]} with leaves listed first in graph-vertex
        order, then internal nodes by ascending handle; keys sorted."""
        leaves = sorted(
            (n for n in self.nodes.values() if n.is_leaf()), key=lambda n: min(n.subset)
        )
        internal = sorted(
            (n for n in self.nodes.values() if not n.is_leaf()), key=lambda n: n.id
        )
        nodes = [
            {"id": n.id, "parent": n.parent, "children": list(n.children)}
            for n in leaves + internal
        ]
        return json.dumps({"height": self.height, "nodes": nodes}, sort_keys=True)

    @classmethod
    def from_json(cls, graph: Graph, text: str) -> "CodingTree":
        """Tree from the text `to_json` writes; leaves mark graph vertices
        in the order they are listed, and a `height` key, if present, must
        be the tree's. Raises ValueError on any malformed or inconsistent
        input."""
        obj = json.loads(text)
        entries = obj.get("nodes") if isinstance(obj, dict) else None
        if not isinstance(entries, list):
            raise ValueError("tree JSON must be an object with a 'nodes' list")
        tree = cls(graph)
        vertex = 0
        roots = []
        for i, e in enumerate(entries):
            if not isinstance(e, dict) or not {"id", "parent", "children"} <= e.keys():
                raise ValueError(f"tree node {i}: expected an object with id, parent and children")
            nid, parent, children = e["id"], e["parent"], e["children"]
            if not (
                _is_id(nid)
                and (parent is None or _is_id(parent))
                and isinstance(children, list)
                and all(_is_id(c) for c in children)
            ):
                raise ValueError(
                    f"tree node {i}: id and children must be integers, parent an integer or null"
                )
            if nid in tree.nodes:
                raise ValueError(f"duplicate tree node id {nid}")
            node = TreeNode(nid, parent, None, 0, 0)
            node.children = list(children)
            if not node.children:
                if vertex >= graph.node_count:
                    raise ValueError("more leaves than graph vertices")
                node.subset = frozenset({vertex})
                vertex += 1
            if node.parent is None:
                roots.append(node.id)
            tree.nodes[node.id] = node
        if vertex != graph.node_count:
            raise ValueError("leaf count does not match graph vertex count")
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {len(roots)}")
        # with every child naming its lister as parent, the walk below
        # from the root ends; validate() rejects any node it reaches twice
        # or never reaches (cycles included)
        for n in tree.nodes.values():
            for c in n.children:
                if c not in tree.nodes or tree.nodes[c].parent != n.id:
                    raise ValueError(
                        f"tree node {n.id}: child {c} is missing or names another parent"
                    )
        tree.root_id = roots[0]
        tree._next_id = max(tree.nodes) + 1
        for nid, s in tree._leaf_unions().items():
            n = tree.nodes[nid]
            n.subset, n.volume, n.cut = s, subset_volume(graph, s), cut_size(graph, s)
        tree.validate()
        height = obj.get("height", tree.height)
        if not _is_id(height) or height != tree.height:
            raise ValueError(f"tree JSON height {height!r} != tree height {tree.height}")
        return tree


def entropy_term(cut, vol, parent_vol, vol_g) -> float:
    """One non-root node's term of H(T): 0.0 when its cut is 0."""
    if cut == 0:
        return 0.0
    return -(cut / vol_g) * math.log2(vol / parent_vol)


def _is_id(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def star_tree(g: Graph, leaves, root) -> CodingTree:
    """Height-1 tree of one root over the given leaves. Each argument is
    a (subset, volume, cut) tuple; leaf i gets handle i and the root
    handle len(leaves)."""
    tree = CodingTree(g)
    for leaf in leaves:
        tree._alloc(len(leaves), *leaf)
    tree.root_id = tree._alloc(None, *root).id
    tree.nodes[tree.root_id].children = list(range(len(leaves)))
    return tree


def initial_tree(g: Graph) -> CodingTree:
    """Height-1 tree: every graph vertex as a leaf under a fresh root."""
    leaves = [(frozenset({v}), g.degree[v], g.degree[v]) for v in range(g.node_count)]
    return star_tree(g, leaves, (frozenset(range(g.node_count)), g.volume, 0))
