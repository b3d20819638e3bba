#!/usr/bin/env python3
"""Differential check of this tree's coding trees against a reference
checkout on one fixed corpus.

With each tree's `src/` (in a subprocess) it builds three families of
trees and hashes each family into one SHA-256, every tree contributing
its `to_json()` and the `repr` of its `structural_entropy()`:

- greedy: `build_coding_tree` at K=2 and K=3 on seeded random graphs,
  and on the four `gen_hierarchy` taxonomies that
  `tests/test_entropy_min.py` pins;
- oracle: `oracle_min_entropy` at K=2 and K=3 on small seeded random
  graphs, with the `repr` of each optimum;
- surgery: every state of seeded random compress/remove/align/merge
  sequences, as in acceptance check 4.

It prints each family's hash on both sides and the largest gap between
`structural_entropy` and `entropy_from_scratch` over the family. Exits 1
if any hash differs or any gap exceeds 1e-12. The corpus uses only the
public tree API, so any older checkout can be the reference.

    mkdir ../hill-parent && git archive HEAD~1 | tar -x -C ../hill-parent
    python scripts/diff_trees.py --ref ../hill-parent
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

GAP_TOL = 1e-12
TREE = Path(__file__).resolve().parents[1]
TAXONOMIES = ((3, 4, 2), (3, 4, 3), (4, 3, 3), (3, 5, 2))  # (depth, branching, K)


def random_graph(rng, n_min, n_max, p=0.5):
    """Seeded Erdos-Renyi graph, resampled until no vertex is isolated."""
    from hill.graph import build_graph

    while True:
        n = int(rng.integers(n_min, n_max + 1))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        try:
            return build_graph(n, edges)
        except ValueError:
            continue


def greedy_trees(rng):
    from hill.datagen import gen_hierarchy, hierarchy_to_graph
    from hill.entropy_min import build_coding_tree

    for _ in range(150):
        g = random_graph(rng, 5, 14)
        for k in (2, 3):
            yield build_coding_tree(g, k), ""
    for depth, branching, k in TAXONOMIES:
        yield build_coding_tree(hierarchy_to_graph(gen_hierarchy(depth, branching)), k), ""


def oracle_trees(rng):
    from hill.entropy_min import oracle_min_entropy

    for _ in range(30):
        for k, n_max in ((2, 7), (3, 5)):
            tree, optimum = oracle_min_entropy(random_graph(rng, 3, n_max), k)
            yield tree, repr(optimum)


def surgery_states(rng):
    from hill.coding_tree import initial_tree
    from hill.entropy_min import build_two_level

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


FAMILIES = {"greedy": greedy_trees, "oracle": oracle_trees, "surgery": surgery_states}


def digest_families():
    """{family: [SHA-256, largest |structural_entropy - entropy_from_scratch|]},
    plus the `src` directory hill was imported from."""
    import numpy as np

    import hill

    out = {"src": str(Path(hill.__file__).resolve().parents[1])}
    for seed, (name, trees) in enumerate(FAMILIES.items()):
        sha, gap = hashlib.sha256(), 0.0
        for tree, extra in trees(np.random.default_rng(seed)):
            h = tree.structural_entropy()
            sha.update(f"{tree.to_json()}\n{h!r}\n{extra}\n".encode())
            gap = max(gap, abs(h - tree.entropy_from_scratch()))
        out[name] = [sha.hexdigest(), gap]
    return out


def run_side(checkout):
    src = Path(checkout).resolve() / "src"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--emit"]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE)  # its stderr shows
    if proc.returncode:
        sys.exit(f"error: the corpus run with {src} failed")
    out = json.loads(proc.stdout)
    if out.pop("src") != str(src):
        sys.exit(f"error: {checkout} has no src/hill; hill was imported from elsewhere")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", help="reference checkout (holds src/hill)")
    parser.add_argument("--emit", action="store_true", help="print this side's digests as JSON")
    args = parser.parse_args()
    if args.emit:
        print(json.dumps(digest_families()))
        return 0
    if not args.ref:
        parser.error("--ref is required")
    ref, new = run_side(args.ref), run_side(TREE)
    failed = False
    for name in FAMILIES:
        (ref_sha, ref_gap), (new_sha, new_gap) = ref[name], new[name]
        bad = ref_sha != new_sha or max(ref_gap, new_gap) > GAP_TOL
        failed = failed or bad
        print(f"[{name}] ref {ref_sha} gap {ref_gap:.2e}")
        print(f"[{name}] new {new_sha} gap {new_gap:.2e} {'MISMATCH' if bad else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
