"""Reusable experiment recipes on the default synthetic dataset: single
training runs, the contrastive-weight comparison, and the tree-height
sweep."""

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


def build_model(config: HillConfig, hierarchy, vocab=DEFAULT_VOCAB):
    """The untrained model: graph, then coding tree of height config.K."""
    tree = build_coding_tree(hierarchy_to_graph(hierarchy), config.K)
    return HillModel(config, vocab, hierarchy.num_labels, tree)


def run_training(config: HillConfig, hierarchy, train_docs, dev_docs, vocab=DEFAULT_VOCAB):
    model = build_model(config, hierarchy, vocab)
    report = train(model, train_docs, dev_docs, config)
    return model, report


def lambda_comparison(base_config: HillConfig, seeds, hierarchy, train_docs, dev_docs,
                      vocab=DEFAULT_VOCAB, lam=0.1):
    """Final dev Macro-F1 of the contrastive run vs the pure-classifier
    run, per seed."""
    out = []
    for seed in seeds:
        with_clr = replace(base_config, lambda_clr=lam, seed=seed)
        without = replace(base_config, lambda_clr=0.0, seed=seed)
        _, rep_with = run_training(with_clr, hierarchy, train_docs, dev_docs, vocab)
        _, rep_without = run_training(without, hierarchy, train_docs, dev_docs, vocab)
        out.append(
            {
                "seed": seed,
                "macro_with_clr": rep_with[-1]["dev_macro_f1"],
                "macro_without_clr": rep_without[-1]["dev_macro_f1"],
            }
        )
    return out


def k_sweep(base_config: HillConfig, ks, hierarchy, train_docs, dev_docs, vocab=DEFAULT_VOCAB):
    """Dev F1 per coding-tree height; used to probe non-monotonicity in K."""
    results = {}
    for k in ks:
        config = replace(base_config, K=k)
        _, report = run_training(config, hierarchy, train_docs, dev_docs, vocab)
        results[k] = {
            "dev_micro_f1": report[-1]["dev_micro_f1"],
            "dev_macro_f1": report[-1]["dev_macro_f1"],
        }
    return results
