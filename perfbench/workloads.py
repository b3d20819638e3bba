"""The benchmark's workloads. Each one builds its inputs from the workload
seed in ``setup``, runs one timed operation per ``op`` call, checks every
output, and summarises quality in ``finish``.

``op`` returns (seconds, items, ok, key): ops with the same key do the
same work, so their times are comparable. ``finish`` returns (quality,
extras, ids of failed ops, number of extra checked ops it ran).

Timed regions hold only library calls; model construction, checks and
bookkeeping run outside them.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from hill import datagen, entropy_min, experiments, metrics
from hill.coding_tree import initial_tree
from hill.graph import build_graph
from hill.hill_model import HillConfig, HillModel, train

CONFIG_PATH = "configs/default.json"
TRAIN_EPOCHS = 4  # the fewest epochs whose final dev micro-F1 clears the 0.90 floor
MICRO_F1_FLOOR = 0.90
PREDICT_TRAIN_EPOCHS = 2
PREDICT_CHUNK = 256
PREDICT_POOL_CHUNKS = 32  # fresh docs drawn once; ops cycle over them
PREDICT_MIN_CHUNKS = 100
RECHECK_CHUNK = 97  # re-run size for the chunking check; shares no divisor with PREDICT_CHUNK
RECHECK_STRIDE = 16
ENTROPY_TOL = 1e-9
# (depth, branching, K): 121 vertices at K=3 and 156 at K=2. Builds of
# about 0.1 s give each graph hundreds of timed ops a run.
TAXONOMIES = ((4, 3, 3), (3, 5, 2))
# 160 vertices in 8 blocks; about 10 neighbours inside the block and 2 outside
SBM_BLOCKS, SBM_BLOCK_SIZE, SBM_P_IN, SBM_P_OUT, SBM_K = 8, 20, 0.5, 0.014, 2


def _sub_seeds(seed, n):
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=n)]


def _clock(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t, out


class TrainDefault:
    """One op is a one-epoch train() call on a fresh model, so a run holds
    many short ops; finish() trains TRAIN_EPOCHS epochs once to check
    that the model still learns."""

    name = "train-default"
    unit = "train docs/s"
    min_ops = 5
    trace_groups = {None: [0]}

    def setup(self, seed):
        config = HillConfig.from_json_file(CONFIG_PATH, epochs=1)
        hierarchy, train_docs, dev_docs = experiments.default_dataset(seed=_sub_seeds(seed, 1)[0])
        tree = entropy_min.build_coding_tree(datagen.hierarchy_to_graph(hierarchy), config.K)
        model = HillModel(config, experiments.DEFAULT_VOCAB, hierarchy.num_labels, tree)
        return {"config": config, "hierarchy": hierarchy, "tree": tree, "model": model,
                "train": train_docs, "dev": dev_docs, "reports": []}

    def _model(self, s):
        return s.pop("model", None) or HillModel(
            s["config"], experiments.DEFAULT_VOCAB, s["hierarchy"].num_labels, s["tree"]
        )

    def op(self, s, i):
        dt, report = _clock(train, self._model(s), s["train"], s["dev"], s["config"])
        s["reports"].append(report)
        ok = math.isfinite(report[0]["train_loss"]) and report == s["reports"][0]
        return dt, s["config"].epochs * len(s["train"]), ok, None

    def finish(self, s):
        config = replace(s["config"], epochs=TRAIN_EPOCHS)
        report = train(self._model(s), s["train"], s["dev"], config)
        last = report[-1]
        learns = (all(math.isfinite(row["train_loss"]) for row in report)
                  and last["dev_micro_f1"] >= MICRO_F1_FLOOR)
        failed = set() if learns else {"learning check"}
        extras = {"dev_macro_f1": last["dev_macro_f1"], "final_train_loss": last["train_loss"]}
        return last["dev_micro_f1"], extras, failed, 1


class PredictBulk:
    name = "predict-bulk"
    unit = "predicted docs/s"
    min_ops = PREDICT_MIN_CHUNKS
    trace_groups = {None: list(range(PREDICT_MIN_CHUNKS))}

    def setup(self, seed):
        data_seed, corpus_seed = _sub_seeds(seed, 2)
        config = HillConfig.from_json_file(CONFIG_PATH, epochs=PREDICT_TRAIN_EPOCHS)
        hierarchy, train_docs, dev_docs = experiments.default_dataset(seed=data_seed)
        tree = entropy_min.build_coding_tree(datagen.hierarchy_to_graph(hierarchy), config.K)
        model = HillModel(config, experiments.DEFAULT_VOCAB, hierarchy.num_labels, tree)
        train(model, train_docs, dev_docs, config)
        corpus = datagen.gen_corpus(
            hierarchy, PREDICT_CHUNK * PREDICT_POOL_CHUNKS, experiments.DEFAULT_VOCAB, corpus_seed
        )
        chunks = [corpus[i : i + PREDICT_CHUNK] for i in range(0, len(corpus), PREDICT_CHUNK)]
        return {"model": model, "corpus": corpus, "chunks": chunks, "preds": [None] * len(chunks)}

    def _predict(self, model, docs):
        counts = datagen.count_matrix(docs, experiments.DEFAULT_VOCAB)
        return model.predict_labels(counts)

    def op(self, s, i):
        k = i % len(s["chunks"])
        chunk = s["chunks"][k]
        dt, preds = _clock(self._predict, s["model"], chunk)
        first = s["preds"][k]
        if first is None:
            s["preds"][k] = preds
        return dt, len(chunk), first is None or preds == first, None

    def finish(self, s):
        preds = [p for chunk in s["preds"] for p in chunk]
        sample = list(range(0, len(preds), RECHECK_STRIDE))
        docs = [s["corpus"][j] for j in sample]
        again = []
        for start in range(0, len(docs), RECHECK_CHUNK):
            again.extend(self._predict(s["model"], docs[start : start + RECHECK_CHUNK]))
        failed = {j // PREDICT_CHUNK for j, p in zip(sample, again) if p != preds[j]}
        golds = [set(ex.labels) for ex in s["corpus"]]
        extras = {"micro_f1": metrics.micro_f1(preds, golds),
                  "macro_f1": metrics.macro_f1(preds, golds, s["model"].num_labels)}
        return extras["micro_f1"], extras, failed, 0


def _relabelled(g, rng):
    perm = rng.permutation(g.node_count)
    return build_graph(g.node_count, [(int(perm[u]), int(perm[v])) for u, v in sorted(g.edges)])


def _sbm(rng):
    n = SBM_BLOCKS * SBM_BLOCK_SIZE
    block = np.repeat(np.arange(SBM_BLOCKS), SBM_BLOCK_SIZE)
    u, v = np.triu_indices(n, k=1)
    p = np.where(block[u] == block[v], SBM_P_IN, SBM_P_OUT)
    while True:
        keep = rng.random(len(u)) < p
        try:
            return build_graph(n, zip(u[keep].tolist(), v[keep].tolist()))
        except ValueError:  # an isolated vertex: draw again
            continue


class TreeBuild:
    """build_coding_tree over two graph families: sparse taxonomies
    (vertex ids shuffled by the seed) and a dense SBM. One op builds one
    graph; ops cycle over the graphs, and each graph is timed on its own."""

    name = "tree-build"
    unit = "vertices/s"
    min_ops = 6
    trace_groups = {"taxonomy": [0, 1], "sbm": [2]}

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        graphs = [
            (f"taxonomy-d{d}b{b}-k{k}",
             _relabelled(datagen.hierarchy_to_graph(datagen.gen_hierarchy(d, b)), rng), k)
            for d, b, k in TAXONOMIES
        ]
        graphs.append((f"sbm-{SBM_BLOCKS}x{SBM_BLOCK_SIZE}-k{SBM_K}", _sbm(rng), SBM_K))
        return {"graphs": graphs, "bits": {}}

    def op(self, s, i):
        label, g, k = s["graphs"][i % len(s["graphs"])]
        dt, tree = _clock(entropy_min.build_coding_tree, g, k)
        h = tree.structural_entropy()
        try:
            tree.validate()
            ok = tree.height == k and abs(h - tree.entropy_from_scratch()) <= ENTROPY_TOL
        except ValueError:
            ok = False
        first = s["bits"].setdefault(label, h)
        return dt, g.node_count, ok and h == first, label

    def finish(self, s):
        flat = {label: initial_tree(g).structural_entropy() for label, g, _ in s["graphs"]}
        extras = {f"tree_entropy_bits.{label}": h for label, h in s["bits"].items()}
        extras.update({f"flat_entropy_bits.{label}": h for label, h in flat.items()})
        return sum(flat.values()) / sum(s["bits"].values()), extras, set(), 0


WORKLOADS = {w.name: w for w in (TrainDefault(), PredictBulk(), TreeBuild())}
