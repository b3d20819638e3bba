"""Command-line entry point: entropy, build-tree, oracle, gen-data,
train, eval. All subcommands are deterministic under --seed and exit
nonzero with a one-line diagnostic on any module error. Set HILL_LOG to
error|info|debug for verbosity."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import datagen
from .coding_tree import CodingTree
from .entropy_min import build_coding_tree, oracle_min_entropy
from .graph import load_graph_file
from .hill_model import HillConfig, HillModel, train
from .metrics import macro_f1, micro_f1
from .tensor_nn import save_checkpoint

log = logging.getLogger("hill")


def _cmd_entropy(args):
    g = load_graph_file(args.graph)
    with open(args.tree, encoding="utf-8") as fh:
        tree = CodingTree.from_json(g, fh.read())
    print(f"{tree.structural_entropy():.4f}")


def _cmd_build_tree(args):
    g = load_graph_file(args.graph)
    tree = build_coding_tree(g, args.height)
    if args.out:
        Path(args.out).write_text(tree.to_json() + "\n", encoding="utf-8")
        log.info("wrote tree to %s", args.out)
    if args.report_entropy:
        print(f"{tree.structural_entropy():.4f}")


def _cmd_oracle(args):
    g = load_graph_file(args.graph)
    _, optimal = oracle_min_entropy(g, args.height)
    greedy = build_coding_tree(g, args.height).structural_entropy()
    print(f"oracle_entropy {optimal:.4f}")
    print(f"greedy_entropy {greedy:.4f}")
    print(f"gap {greedy - optimal:.4f}")


def _cmd_gen_data(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    h = datagen.gen_hierarchy(args.depth, args.branching, args.seed)
    datagen.save_taxonomy(h, out / "taxonomy.txt")
    train_docs = datagen.gen_corpus(h, args.n_train, args.vocab, args.seed)
    dev_docs = datagen.gen_corpus(h, args.n_dev, args.vocab, args.seed + 1)
    datagen.save_dataset(train_docs, out / "train.jsonl")
    datagen.save_dataset(dev_docs, out / "dev.jsonl")
    meta = {
        "depth": args.depth,
        "branching": args.branching,
        "num_labels": h.num_labels,
        "vocab_size": args.vocab,
        "seed": args.seed,
        "n_train": args.n_train,
        "n_dev": args.n_dev,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8")
    log.info("wrote dataset with %d labels to %s", h.num_labels, out)


def _cmd_train(args):
    data = Path(args.data)
    meta = json.loads((data / "meta.json").read_text(encoding="utf-8"))
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.config:
        config = HillConfig.from_json_file(args.config, **overrides)
    else:
        config = HillConfig(**overrides)
    h = datagen.load_taxonomy(data / "taxonomy.txt")
    vocab = meta["vocab_size"]
    train_docs = datagen.load_dataset(data / "train.jsonl", vocab, h.num_labels)
    dev_docs = datagen.load_dataset(data / "dev.jsonl", vocab, h.num_labels)
    graph = datagen.hierarchy_to_graph(h)
    tree = build_coding_tree(graph, config.K)
    model = HillModel(config, vocab, h.num_labels, tree)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config.to_json_file(out / "config.json")
    report = train(model, train_docs, dev_docs, config, report_path=out / "report.jsonl")
    save_checkpoint(model.parameters(), out / "checkpoint.json")
    last = report[-1]
    print(
        f"epoch {last['epoch']} loss {last['train_loss']:.4f} "
        f"micro_f1 {last.get('dev_micro_f1', float('nan')):.4f} "
        f"macro_f1 {last.get('dev_macro_f1', float('nan')):.4f}"
    )


def _cmd_eval(args):
    preds = [set(ex.labels) for ex in datagen.load_dataset(args.pred)]
    golds = [set(ex.labels) for ex in datagen.load_dataset(args.gold)]
    if args.labels:
        label_count = args.labels
    else:
        label_count = max((max(s) for s in preds + golds if s), default=0) + 1
    print(f"micro_f1 {micro_f1(preds, golds):.4f}")
    print(f"macro_f1 {macro_f1(preds, golds, label_count):.4f}")


def build_parser():
    parser = argparse.ArgumentParser(prog="hill")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="print H(T) for a graph and tree file")
    p.add_argument("--graph", required=True)
    p.add_argument("--tree", required=True)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("build-tree", help="greedy coding-tree construction")
    p.add_argument("--graph", required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--report-entropy", action="store_true")
    p.set_defaults(func=_cmd_build_tree)

    p = sub.add_parser("oracle", help="exact minimum entropy and the greedy gap")
    p.add_argument("--graph", required=True)
    p.add_argument("--height", type=int, required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen-data", help="write a synthetic hierarchy and corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--branching", type=int, default=4)
    p.add_argument("--n-train", type=int, default=2000)
    p.add_argument("--n-dev", type=int, default=500)
    p.add_argument("--vocab", type=int, default=2048)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="run the full training pipeline")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a prediction file against gold labels")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--labels", type=int, help="label count for macro averaging")
    p.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None):
    level = os.environ.get("HILL_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR), format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
