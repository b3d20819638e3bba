"""Command-line entry point: entropy, build-tree, oracle, gen-data,
train, eval, compare. Every subcommand is deterministic; gen-data and
train take their seed from --seed, compare from --seeds. Every failure,
from HILL_LOG, the command line or a module, exits 1 with one `error:`
line. HILL_LOG names the logging level."""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import datagen, experiments
from .coding_tree import CodingTree
from .entropy_min import build_coding_tree, oracle_min_entropy
from .graph import load_graph_file, prefix_errors
from .hill_model import HillConfig, refuse_empty_docs
from .metrics import macro_f1, micro_f1

log = logging.getLogger("hill")


def _cmd_entropy(args):
    g = load_graph_file(args.graph)
    with prefix_errors(args.tree), open(args.tree, encoding="utf-8") as fh:
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
    print(f"gap {round(greedy - optimal, 4) + 0.0:.4f}")  # + 0.0 prints -0.0 as 0.0


def _cmd_gen_data(args):
    # generate first, so a bad argument leaves nothing behind in --out
    h, train_docs, dev_docs = experiments.default_dataset(
        args.depth, args.branching, args.n_train, args.n_dev, args.vocab, args.seed
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    datagen.save_taxonomy(h, out / "taxonomy.txt")
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


def _vocab_size(meta_path: Path) -> int:
    with prefix_errors(meta_path):
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        vocab = meta.get("vocab_size") if isinstance(meta, dict) else None
        if not isinstance(vocab, int) or isinstance(vocab, bool) or vocab < 1:
            raise ValueError(f"vocab_size must be a positive integer, got {vocab!r}")
    return vocab


def _cmd_train(args):
    data = Path(args.data)
    vocab = _vocab_size(data / "meta.json")
    config = HillConfig.from_json_file(args.config) if args.config else HillConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    h = datagen.load_taxonomy(data / "taxonomy.txt")
    train_docs = datagen.load_dataset(data / "train.jsonl", vocab, h.num_labels)
    with prefix_errors(data / "train.jsonl"):
        refuse_empty_docs(train_docs, config)
    dev_docs = datagen.load_dataset(data / "dev.jsonl", vocab, h.num_labels)
    # builds the model before --out exists, so a K too high or a model too big leaves nothing
    _, report = experiments.run_training(config, h, train_docs, dev_docs, vocab, out=args.out)
    last = report[-1]
    print(
        f"epoch {last['epoch']} loss {last['train_loss']:.4f} "
        f"micro_f1 {last.get('dev_micro_f1', float('nan')):.4f} "
        f"macro_f1 {last.get('dev_macro_f1', float('nan')):.4f}"
    )


def _cmd_eval(args):
    preds = [set(ex.labels) for ex in datagen.load_dataset(args.pred, num_labels=args.labels)]
    golds = [set(ex.labels) for ex in datagen.load_dataset(args.gold, num_labels=args.labels)]
    label_count = args.labels
    if label_count is None:
        label_count = max((max(s) for s in preds + golds if s), default=0) + 1
    # both scores before any output, so a failure prints only the error
    micro, macro = micro_f1(preds, golds), macro_f1(preds, golds, label_count)
    print(f"micro_f1 {micro:.4f}")
    print(f"macro_f1 {macro:.4f}")


def _cmd_compare(args):
    if args.ks:
        arms = [{"K": k} for k in args.ks]
    else:
        if not 0 <= args.lam < math.inf:  # False for nan too
            raise ValueError(f"--lam must be non-negative and finite, got {args.lam}")
        arms = [{"lambda_clr": args.lam}, {"lambda_clr": 0.0}]
    config = HillConfig(epochs=args.epochs)
    for row in experiments.compare(config, arms, args.seeds, *experiments.default_dataset()):
        print(json.dumps(row, sort_keys=True))


# each integer flag's lowest and highest value, checked before any command runs
FLAG_BOUNDS = {
    "--height": (2, math.inf), "--depth": (2, math.inf), "--branching": (2, math.inf),
    "--n-train": (1, math.inf), "--n-dev": (1, math.inf), "--labels": (1, math.inf),
    "--seed": (0, math.inf), "--vocab": (1, 2**63),  # gen_corpus's largest vocabulary
    "--epochs": (1, math.inf), "--ks": (2, math.inf), "--seeds": (0, math.inf),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one `error:` line and exit 1, not usage and exit 2
        raise ValueError(message)


def build_parser():
    parser = _Parser(prog="hill")
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
    p.add_argument("--depth", type=int, default=experiments.DEFAULT_DEPTH)
    p.add_argument("--branching", type=int, default=experiments.DEFAULT_BRANCHING)
    p.add_argument("--n-train", type=int, default=experiments.DEFAULT_N_TRAIN)
    p.add_argument("--n-dev", type=int, default=experiments.DEFAULT_N_DEV)
    p.add_argument("--vocab", type=int, default=experiments.DEFAULT_VOCAB)
    p.add_argument("--seed", type=int, default=experiments.DEFAULT_SEED)
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

    p = sub.add_parser("compare", help="train arms per seed on the default dataset")
    arms = p.add_mutually_exclusive_group(required=True)
    arms.add_argument("--ks", type=int, nargs="+", help="one arm per coding-tree height")
    arms.add_argument("--lam", type=float, help="arms lambda_clr=LAM and lambda_clr=0")
    p.add_argument("--seeds", type=int, nargs="+", default=[experiments.DEFAULT_SEED])
    p.add_argument("--epochs", type=int, default=20)
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None):
    try:
        name = os.environ.get("HILL_LOG") or "error"
        level = getattr(logging, name.upper(), None)
        if not isinstance(level, int):
            hint = "HILL_LOG must name a logging level such as error, info or debug"
            raise ValueError(f"{hint}, got {name!r}")
        logging.basicConfig(level=level, format="%(message)s")
        args = build_parser().parse_args(argv)
        for flag, (low, high) in FLAG_BOUNDS.items():
            value = getattr(args, flag[2:].replace("-", "_"), None)  # None: unset or not ours
            for v in value if isinstance(value, list) else [value]:  # each of --ks, --seeds
                if v is not None and not low <= v <= high:
                    bound = f"at least {low}" if v < low else f"at most {high}"
                    raise ValueError(f"{flag} must be {bound}, got {v}")
        args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
