import numpy as np
import pytest

from hill.graph import build_graph, cut_size, subset_volume


def random_graph(rng, n_min=4, n_max=8, p=0.5):
    """Seeded Erdos-Renyi graph, resampled until no vertex is isolated."""
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        try:
            return build_graph(n, edges)
        except ValueError:
            continue


def ref_entropy(tree):
    """Reference entropy: recomputed from marked subsets and raw graph
    queries, sharing nothing with the tree's caches."""
    g = tree.graph
    subsets = {}

    def collect(nid):
        node = tree.nodes[nid]
        if not node.children:
            subsets[nid] = set(node.subset)
        else:
            s = set()
            for c in node.children:
                collect(c)
                s |= subsets[c]
            subsets[nid] = s

    collect(tree.root_id)
    total = 0.0
    for nid, s in subsets.items():
        node = tree.nodes[nid]
        if node.parent is None:
            continue
        cut = cut_size(g, s)
        if cut == 0:
            continue
        ratio = subset_volume(g, s) / subset_volume(g, subsets[node.parent])
        total -= cut / g.volume * np.log2(ratio)
    return total


@pytest.fixture
def cycle4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def bridge_triangles():
    # two triangles {0,1,2} and {3,4,5} joined by the edge (2,3)
    return build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
