#!/usr/bin/env python3
"""Collate the perfbench records of a parent checkout and a change
checkout into one BENCH_<n>.json.

Each checkout has run `perfbench/run.py` on the same workloads and seeds,
which leaves one `.perfbench/<workload>-seed<n>-trace<t>.json` per run
there. For every workload, trace setting and metric, the output holds
each side's median, quartiles and per-seed values, and how many of the
seeds both sides ran the change won, ties counting for neither side,
and the change's median over the parent's. Metric names, units and which way is better come from this tree's
BENCHMARK.json; a per-layer metric that reads 0 in every record of a
workload (a layer it does not run) is left out. Each side also
gets its commits, source hash and the provenance its records share.
Standard library only; it runs no benchmark.

    git archive PARENT_COMMIT | tar -x -C ../parent   # and CHANGE_COMMIT into ../change
    python3 scripts/collate_bench.py --parent ../parent --change ../change \
        --parent-commit PARENT_COMMIT --change-commit CHANGE_COMMIT --out BENCH_<n>.json

A `git archive` checkout has no .git, so its records name no commit;
`--parent-commit` and `--change-commit` name them. A record that names
a commit other than the one given is refused.

Run both sides from fresh checkouts side by side: where a checkout sits
moves its end-to-end numbers by several percent. A side whose records
carry more than one source hash (runs left over from before an edit) is
refused, since its seeds would pair records of different programs.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

TREE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json$")


def load_records(checkout, commit=None):
    """{(workload, 'trace<t>'): {seed: record}} from checkout/.perfbench.
    A given `commit` fills the git_commit of records that carry none and
    refuses a record that names another."""
    out = {}
    for path in sorted(glob.glob(os.path.join(checkout, ".perfbench", "*.json"))):
        m = RECORD.match(os.path.basename(path))
        if not m:
            continue
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        key = (m["workload"], f"trace{m['trace']}")
        out.setdefault(key, {})[int(m["seed"])] = record
    if not out:
        raise ValueError(f"{checkout}: no .perfbench/<workload>-seed<n>-trace<t>.json records")
    records = [r for runs in out.values() for r in runs.values()]
    states = sorted({r["provenance"]["source_sha256"] for r in records})
    if len(states) > 1:
        shown = ", ".join(h[:12] for h in states)
        raise ValueError(
            f"{checkout}: records from {len(states)} source states ({shown}); "
            "rerun in a fresh checkout"
        )
    if commit is not None:
        for r in records:
            own = r["provenance"].get("git_commit")
            if own is not None and own != commit:
                raise ValueError(f"{checkout}: records of commit {own}, not the given {commit}")
            r["provenance"]["git_commit"] = commit
    return out


def summary(values):
    """Median and quartiles (inclusive method), with the per-seed values."""
    vals = list(values.values())
    if len(vals) == 1:
        q1 = med = q3 = vals[0]
    else:
        q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": {str(s): v for s, v in values.items()}}


def compare(parent, change, better):
    """Wins of the change over the parent on the seeds both ran."""
    seeds = sorted(set(parent) & set(change))
    if better == "higher":
        wins = sum(change[s] > parent[s] for s in seeds)
    else:
        wins = sum(change[s] < parent[s] for s in seeds)
    ties = sum(change[s] == parent[s] for s in seeds)
    return {"pairs": len(seeds), "change_wins": wins, "ties": ties}


def side_info(records):
    """Commits, source hash and the provenance fields all records share."""
    provs = [r["provenance"] for runs in records.values() for r in runs.values()]
    shared = {k: v for k, v in provs[0].items() if all(p.get(k) == v for p in provs)}
    for key in ("git_commit", "source_sha256", "seed"):
        shared.pop(key, None)
    return {
        "commits": sorted({str(p.get("git_commit")) for p in provs}),
        "source_sha256": [provs[0]["source_sha256"]],  # one, as load_records checks
        "provenance": shared,
    }


def collate(parent_dir, change_dir, spec, parent_commit=None, change_commit=None):
    parent, change = load_records(parent_dir, parent_commit), load_records(change_dir, change_commit)
    workloads = {}
    for key in sorted(set(parent) | set(change)):
        workload, trace = key
        runs = {"parent": parent.get(key, {}), "change": change.get(key, {})}
        entry = {
            "seeds": {side: sorted(r) for side, r in runs.items()},
            "failed": {
                side: {str(s): rec["failed"] for s, rec in r.items()} for side, r in runs.items()
            },
            "metrics": {},
        }
        for m in spec["end_to_end" if trace == "trace0" else "per_layer"]:
            row = {"unit": m["unit"], "better": m["better"]}
            values = {}
            for side, r in runs.items():
                values[side] = {s: rec["metrics"][m["name"]]["value"] for s, rec in r.items()}
                if values[side]:
                    row[side] = summary(values[side])
            if not any(v for vals in values.values() for v in vals.values()):
                continue  # a layer this workload does not run reads 0
            if values["parent"] and values["change"]:
                row.update(compare(values["parent"], values["change"], m["better"]))
                if row["parent"]["median"]:
                    row["median_ratio"] = row["change"]["median"] / row["parent"]["median"]
            entry["metrics"][m["name"]] = row
        workloads.setdefault(workload, {})[trace] = entry
    return {"parent": side_info(parent), "change": side_info(change), "workloads": workloads}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout holding the parent's .perfbench/")
    parser.add_argument("--change", required=True, help="checkout holding the change's .perfbench/")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--parent-commit", help="the parent's commit, for records that name none")
    parser.add_argument("--change-commit", help="the change's commit, for records that name none")
    args = parser.parse_args(argv)
    with open(os.path.join(TREE, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        result = collate(args.parent, args.change, spec, args.parent_commit, args.change_commit)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
