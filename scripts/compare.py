#!/usr/bin/env python3
"""Train the default config once per seed and arm on the default dataset
and print one JSON line per seed with each arm's final dev F1.

The arms are either coding-tree heights (--ks) or the contrastive weight
against none (--lam L gives lambda_clr=L and lambda_clr=0):

    python3 scripts/compare.py --ks 2 3 4 5 --epochs 8
    python3 scripts/compare.py --lam 0.1 --seeds 42 43 44
"""

import argparse
import json
import sys

from hill.experiments import compare, default_dataset
from hill.hill_model import HillConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    arms = parser.add_mutually_exclusive_group(required=True)
    arms.add_argument("--ks", type=int, nargs="+", help="one arm per coding-tree height")
    arms.add_argument("--lam", type=float, help="arms lambda_clr=LAM and lambda_clr=0")
    parser.add_argument("--seeds", type=int, nargs="+", default=[42])
    parser.add_argument("--epochs", type=int, default=20)
    args = parser.parse_args()
    if args.ks:
        arms = [{"K": k} for k in args.ks]
    else:
        arms = [{"lambda_clr": args.lam}, {"lambda_clr": 0.0}]
    try:
        rows = compare(HillConfig(epochs=args.epochs), arms, args.seeds, *default_dataset())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
