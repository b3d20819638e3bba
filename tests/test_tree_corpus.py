"""The coding trees of one fixed corpus, pinned by digest.

Three families of trees, each hashed into one SHA-256, every tree
contributing its `to_json()` and the `repr` of its `structural_entropy()`:

- greedy: `build_coding_tree` at K=2 and K=3 on seeded random graphs, and
  on four `gen_hierarchy` taxonomies;
- oracle: `oracle_min_entropy` at K=2 and K=3 on small seeded random
  graphs, with the `repr` of each optimum;
- surgery: every state of seeded random compress/remove/align/merge
  sequences, as in acceptance check 4.

A change that is meant to alter the trees edits the digest its failure
prints and says so in CHANGES.md."""

import hashlib

import numpy as np
import pytest

from hill.coding_tree import initial_tree
from hill.datagen import gen_hierarchy, hierarchy_to_graph
from hill.entropy_min import build_coding_tree, build_two_level, oracle_min_entropy

from conftest import random_graph

GAP_TOL = 1e-12
TAXONOMIES = ((3, 4, 2), (3, 4, 3), (4, 3, 3), (3, 5, 2))  # (depth, branching, K)


def greedy_trees(rng):
    for _ in range(150):
        g = random_graph(rng, 5, 14)
        for k in (2, 3):
            yield build_coding_tree(g, k), ""
    # gen_hierarchy draws nothing from its seed, so these trees are fixed
    for depth, branching, k in TAXONOMIES:
        yield build_coding_tree(hierarchy_to_graph(gen_hierarchy(depth, branching)), k), ""


def oracle_trees(rng):
    for _ in range(30):
        for k, n_max in ((2, 7), (3, 5)):
            tree, optimum = oracle_min_entropy(random_graph(rng, 3, n_max), k)
            yield tree, repr(optimum)


def surgery_states(rng):
    for _ in range(300):
        tree = initial_tree(random_graph(rng, 4, 8))
        for _ in range(int(rng.integers(3, 7))):
            op = rng.choice(["compress", "remove", "align", "merge"])
            internal = [n.id for n in tree.nodes.values() if len(n.children) >= 2]
            if op == "compress":
                parent = tree.nodes[int(rng.choice(internal))]
                a, b = rng.choice(parent.children, size=2, replace=False)
                tree.compress(int(a), int(b))
            elif op == "remove":
                removable = [
                    n.id for n in tree.nodes.values() if n.parent is not None and not n.is_leaf()
                ]
                if not removable:
                    continue
                tree.remove_node(int(rng.choice(removable)))
            elif op == "align":
                tree.align()
            else:
                target = tree.nodes[int(rng.choice(internal))]
                if len(target.children) < 3 or not all(
                    tree.nodes[c].is_leaf() for c in target.children
                ):
                    continue
                tree.merge(target.id, build_two_level(tree, target.id))
            yield tree, ""


FAMILIES = {  # family: (trees, seed, pinned SHA-256)
    "greedy": (greedy_trees, 0, "4296b1db1a01041097c6a3b175cdb8803f0f44b5f4252b2f12b84295f09352b0"),
    "oracle": (oracle_trees, 1, "a5de5ec3a532b613d331557cd2e4329d42502e784a5d62bf64d158706d5565aa"),
    "surgery": (surgery_states, 2, "0cb667b14614f9d8c6b821e4a4b7334d591f12bc92be9326664e328232744dd5"),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_tree_corpus_is_pinned(family):
    trees, seed, digest = FAMILIES[family]
    sha, gap = hashlib.sha256(), 0.0
    for tree, extra in trees(np.random.default_rng(seed)):
        h = tree.structural_entropy()
        sha.update(f"{tree.to_json()}\n{h!r}\n{extra}\n".encode())
        gap = max(gap, abs(h - tree.entropy_from_scratch()))
    assert sha.hexdigest() == digest, f"{family} trees changed: digest now {sha.hexdigest()}"
    assert gap <= GAP_TOL, f"{family}: structural_entropy is {gap:.2e} from entropy_from_scratch"
