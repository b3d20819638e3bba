"""Structural-entropy coding trees and hierarchy-aware contrastive
multi-label learning, at desk scale."""

from .coding_tree import CodingTree, initial_tree
from .entropy_min import build_coding_tree, oracle_min_entropy
from .graph import Graph, build_graph, cut_size, load_graph, subset_volume
from .hill_model import HillConfig, HillModel, train
from .metrics import macro_f1, micro_f1

__all__ = [
    "CodingTree",
    "Graph",
    "HillConfig",
    "HillModel",
    "build_coding_tree",
    "build_graph",
    "cut_size",
    "initial_tree",
    "load_graph",
    "macro_f1",
    "micro_f1",
    "oracle_min_entropy",
    "subset_volume",
    "train",
]
