"""Reusable experiment recipes on the default synthetic dataset:
`run_training`, the one composer of a training run, and `compare`, which
trains arms of config fields per seed through it. `hill compare` runs
the paper's two ablations with it: the tree height (`--ks 2 3 4 5
--epochs 8`) and the contrastive weight (`--lam 0.1 --seeds 42 43 44`)."""

from __future__ import annotations

from dataclasses import replace

from .datagen import gen_corpus, gen_hierarchy, hierarchy_to_graph
from .entropy_min import build_coding_tree
from .hill_model import HillConfig, HillModel, train

DEFAULT_DEPTH = 3
DEFAULT_BRANCHING = 4
DEFAULT_N_TRAIN = 2000
DEFAULT_N_DEV = 500
DEFAULT_VOCAB = 2048
DEFAULT_SEED = 42


def default_dataset(
    depth=DEFAULT_DEPTH,
    branching=DEFAULT_BRANCHING,
    n_train=DEFAULT_N_TRAIN,
    n_dev=DEFAULT_N_DEV,
    vocab=DEFAULT_VOCAB,
    seed=DEFAULT_SEED,
):
    hierarchy = gen_hierarchy(depth, branching, seed)
    train_docs = gen_corpus(hierarchy, n_train, vocab, seed)
    dev_docs = gen_corpus(hierarchy, n_dev, vocab, seed + 1)
    return hierarchy, train_docs, dev_docs


def run_training(config: HillConfig, hierarchy, train_docs, dev_docs, vocab=DEFAULT_VOCAB, *,
                 tree=None, out=None):
    """(model, report) of one run on `tree`, else on the greedy tree of height config.K.
    Given `out`, `train` writes the run directory there once its input checks pass."""
    if tree is None:
        tree = build_coding_tree(hierarchy_to_graph(hierarchy), config.K)
    model = HillModel(config, vocab, hierarchy.num_labels, tree)
    return model, train(model, train_docs, dev_docs, config, out)


def compare(base_config: HillConfig, arms, seeds, hierarchy, train_docs, dev_docs,
            vocab=DEFAULT_VOCAB):
    """One training run per seed and arm, an arm being a dict of config
    fields set on `base_config`; per seed, each arm with its final dev F1,
    in the given order. Every (seed, arm) config and one coding tree per
    distinct K are built before the first run, so a bad arm or seed
    raises before any training."""
    configs = [[replace(base_config, **arm, seed=seed) for arm in arms] for seed in seeds]
    graph = hierarchy_to_graph(hierarchy)
    ks = dict.fromkeys(c.K for row in configs for c in row)
    trees = {k: build_coding_tree(graph, k) for k in ks}
    rows = []
    for seed, seed_configs in zip(seeds, configs):
        row = {"seed": seed, "arms": []}
        for arm, config in zip(arms, seed_configs):
            _, report = run_training(config, hierarchy, train_docs, dev_docs, vocab,
                                     tree=trees[config.K])
            last = report[-1]
            row["arms"].append({**arm, **{f: last[f] for f in ("dev_micro_f1", "dev_macro_f1")}})
        rows.append(row)
    return rows


def k_sweep(base_config: HillConfig, ks, hierarchy, train_docs, dev_docs, vocab=DEFAULT_VOCAB):
    """Dev F1 per coding-tree height at `base_config.seed`."""
    [row] = compare(base_config, [{"K": k} for k in ks], [base_config.seed],
                    hierarchy, train_docs, dev_docs, vocab)
    return {arm.pop("K"): arm for arm in row["arms"]}
