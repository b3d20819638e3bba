"""In-memory span tracer that wraps the public functions of the hill
modules from outside, and the per-layer metrics computed from its spans.

Each span records its name, start, end, parent span and phase (the
nearest enclosing span whose name is a phase: a training step part or a
predict call). Spans live in flat arrays until the run ends; a layer's
self time is its span's duration minus the durations of its child spans.
Hot helpers that are too small to time (``check_finite``, ``matmul``) are
counted per phase instead.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

STEP_PHASES = (
    "hill_model.step.fwd",
    "hill_model.step.bwd",
    "hill_model.zero_grad",
    "tensor_nn.adam.encoder.step",
    "tensor_nn.adam.structure.step",
)
PREDICT_PHASE = "hill_model.predict"
PHASES = STEP_PHASES + (PREDICT_PHASE,)

# Sub-layers of one model pass; their self times attribute a step's time.
MODEL_PARTS = ("encoder", "label_proj", "structure", "contrastive", "bce", "classifier")
TREE_SPANS = (
    "entropy_min.build_two_level",
    "entropy_min.delta_compress",
    "entropy_min.delta_remove",
    "coding_tree.compress",
    "coding_tree.remove_node",
    "coding_tree.copy",
    "coding_tree.structural_entropy",
    "graph.cross_edges",
)
COUNTED = ("tensor_nn.check_finite", "tensor_nn.matmul")
TREE_FAMILIES = ("taxonomy", "sbm")


def _classifier_span(suffix):
    def name(layer, *_args, **_kw):
        return f"hill_model.classifier.{suffix}" if layer.weight.name == "classifier.weight" else None

    return name


def _adam_span(opt, *_args, **_kw):
    group = "encoder" if opt.params[0].name.startswith("encoder.") else "structure"
    return f"tensor_nn.adam.{group}.step"


def _len_first(*args, **_kw):
    return len(args[0])


def _len_second(*args, **_kw):
    return len(args[1])


def wrap_points(hill):
    """(owner, attribute, span name or naming function, unit counter).

    A name shared by several owners is one span kind: a module that
    imported a function by name gets its own patch so calls through
    that binding are seen too.
    """
    hm, tn, dg, mt = hill.hill_model, hill.tensor_nn, hill.datagen, hill.metrics
    em, ct, gr = hill.entropy_min, hill.coding_tree, hill.graph
    points = [
        (hm.HillModel, "forward_batch", "hill_model.step.fwd", None),
        (hm.HillModel, "backward", "hill_model.step.bwd", None),
        (hm.HillModel, "zero_grad", "hill_model.zero_grad", None),
        (hm.HillModel, "predict_labels", PREDICT_PHASE, _len_second),
        (hm.BagOfWordsEncoder, "encode_counts", "hill_model.encoder.fwd", None),
        (hm.BagOfWordsEncoder, "backward", "hill_model.encoder.bwd", None),
        (hm.LabelProjector, "forward_batch", "hill_model.label_proj.fwd", None),
        (hm.LabelProjector, "backward", "hill_model.label_proj.bwd", None),
        (hm.StructureEncoder, "forward_batch", "hill_model.structure.fwd", None),
        (hm.StructureEncoder, "backward", "hill_model.structure.bwd", None),
        (hm.MlpProjector, "forward", "hill_model.contrastive.fwd", None),
        (hm.MlpProjector, "backward", "hill_model.contrastive.bwd", None),
        (hm, "nt_xent", "hill_model.contrastive.fwd", None),
        (hm, "nt_xent_backward", "hill_model.contrastive.bwd", None),
        (hm, "bce_loss", "hill_model.bce.fwd", None),
        (hm, "bce_backward", "hill_model.bce.bwd", None),
        (tn.LinearLayer, "forward", _classifier_span("fwd"), None),
        (tn.LinearLayer, "backward", _classifier_span("bwd"), None),
        (tn.Adam, "step", _adam_span, None),
        (dg, "count_matrix", "datagen.count_matrix", _len_first),
        (hm, "count_matrix", "datagen.count_matrix", _len_first),
        (mt, "micro_f1", "metrics.micro_f1", None),
        (hm, "micro_f1", "metrics.micro_f1", None),
        (mt, "macro_f1", "metrics.macro_f1", None),
        (hm, "macro_f1", "metrics.macro_f1", None),
        (em, "build_coding_tree", "entropy_min.build_coding_tree", None),
        (em, "build_two_level", "entropy_min.build_two_level", None),
        (em, "delta_compress", "entropy_min.delta_compress", None),
        (em, "delta_remove", "entropy_min.delta_remove", None),
        (ct.CodingTree, "compress", "coding_tree.compress", None),
        (ct.CodingTree, "remove_node", "coding_tree.remove_node", None),
        (ct.CodingTree, "copy", "coding_tree.copy", None),
        (ct.CodingTree, "structural_entropy", "coding_tree.structural_entropy", None),
        (gr, "cross_edges", "graph.cross_edges", None),
        (em, "cross_edges", "graph.cross_edges", None),
        (ct, "cross_edges", "graph.cross_edges", None),
    ]
    counted = [(tn, name.split(".")[1], name) for name in COUNTED]
    return points, counted


class Tracer:
    """Records spans and phase counts while installed; restores every
    patched attribute on exit."""

    def __init__(self, hill):
        self.hill = hill
        self.names = []
        self.name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.phase = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units = Counter()
        self.counts = Counter()
        self._stack = [-1]
        self._saved = []

    def _id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _span(self, fn, name, units):
        clock = time.perf_counter
        stack, names_arr, parents, phases = self._stack, self.name, self.parent, self.phase
        starts, ends, unit_counts = self.start, self.end, self.units
        static_id = self._id(name) if isinstance(name, str) else None
        phase_ids = {self._id(p) for p in PHASES}

        def traced(*args, **kwargs):
            nid = static_id
            if nid is None:
                label = name(*args, **kwargs)
                if label is None:
                    return fn(*args, **kwargs)
                nid = self._id(label)
            if units is not None:
                unit_counts[nid] += units(*args, **kwargs)
            i = len(starts)
            up = stack[-1]
            names_arr.append(nid)
            parents.append(up)
            phases.append(nid if nid in phase_ids else (phases[up] if up >= 0 else -1))
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _counter(self, fn, name):
        cid = self._id(name)
        stack, phases, counts = self._stack, self.phase, self.counts

        def counted(*args, **kwargs):
            up = stack[-1]
            counts[(cid, phases[up] if up >= 0 else -1)] += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self):
        points, counted = wrap_points(self.hill)
        for owner, attr, name, units in points:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._span(fn, name, units))
        for owner, attr, name in counted:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._counter(fn, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def arrays(self):
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "phase": np.array(self.phase, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path):
        """Write every span, the name table and the phase counts."""
        a = self.arrays()
        counts = np.array(
            [(c, p, n) for (c, p), n in sorted(self.counts.items())], dtype=np.int64
        ).reshape(-1, 3)
        np.savez(path, names=np.array(self.names), counts=counts, **a)

    # -- aggregation ------------------------------------------------------

    def totals(self):
        """Per span name: calls, inclusive seconds and self seconds, each
        split by phase as {name: {phase_name: (calls, incl, self)}}."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        n_names = len(self.names) + 1
        key = a["name"].astype(np.int64) * n_names + (a["phase"].astype(np.int64) + 1)
        calls = np.bincount(key, minlength=n_names * n_names)
        incl = np.bincount(key, weights=dur, minlength=n_names * n_names)
        self_s = np.bincount(key, weights=own, minlength=n_names * n_names)
        out = {}
        for k in np.nonzero(calls)[0]:
            nid, ph = divmod(int(k), n_names)
            phase = self.names[ph - 1] if ph else None
            out.setdefault(self.names[nid], {})[phase] = (int(calls[k]), incl[k], self_s[k])
        return out


def _sum(totals, name, phases=None, field=0):
    by_phase = totals.get(name, {})
    return sum(v[field] for p, v in by_phase.items() if phases is None or p in phases)


def layer_metrics(tracer, family=None):
    """Per-layer metrics of one traced pass. Model spans are per step
    when the workload trains, else per predict call; tree spans are per
    pass and named after the graph ``family`` the pass built. A layer the
    pass did not exercise reads 0."""
    t = tracer.totals()
    steps = _sum(t, "hill_model.step.fwd")
    if steps:
        model_phases, per = set(STEP_PHASES), steps
    else:
        model_phases, per = {PREDICT_PHASE}, _sum(t, PREDICT_PHASE)
    m = {}

    def per_unit(total, n):
        return total / n if n else 0.0

    for part in MODEL_PARTS:
        for d in ("fwd", "bwd"):
            name = f"hill_model.{part}.{d}"
            m[f"{name}_us"] = per_unit(1e6 * _sum(t, name, model_phases, 2), per)
    for d in ("fwd", "bwd"):
        m[f"hill_model.step.{d}_us"] = per_unit(1e6 * _sum(t, f"hill_model.step.{d}", None, 1), steps)
    attributed = sum(
        _sum(t, f"hill_model.{part}.{d}", set(STEP_PHASES), 2)
        for part in MODEL_PARTS
        for d in ("fwd", "bwd")
    )
    step_total = 0.0
    for name in STEP_PHASES:
        step_total += _sum(t, name, None, 1)
        if not name.startswith("hill_model.step."):
            attributed += _sum(t, name, None, 1)
    m["hill_model.step.attributed_ratio"] = per_unit(attributed, step_total)
    m["hill_model.predict_us_per_doc"] = per_unit(
        1e6 * _sum(t, PREDICT_PHASE, None, 1), tracer.units[tracer.name_ids.get(PREDICT_PHASE)]
    )
    for group in ("encoder", "structure"):
        name = f"tensor_nn.adam.{group}.step"
        m[f"{name}_us"] = per_unit(1e6 * _sum(t, name, None, 1), _sum(t, name))
    phase_ids = {tracer.name_ids[p] for p in model_phases if p in tracer.name_ids}
    for name in COUNTED:
        cid = tracer.name_ids.get(name)
        n = sum(c for (k, ph), c in tracer.counts.items() if k == cid and ph in phase_ids)
        m[f"{name}.calls_per_step"] = per_unit(n, per)
    m["datagen.count_matrix.us_per_doc"] = per_unit(
        1e6 * _sum(t, "datagen.count_matrix", None, 1),
        tracer.units[tracer.name_ids.get("datagen.count_matrix")],
    )
    m["metrics.f1.us_per_eval"] = per_unit(
        1e6 * (_sum(t, "metrics.micro_f1", None, 1) + _sum(t, "metrics.macro_f1", None, 1)),
        _sum(t, "metrics.micro_f1"),
    )
    for fam in TREE_FAMILIES:
        seen = fam == family
        for name in TREE_SPANS:
            m[f"{name}.calls.{fam}"] = _sum(t, name) if seen else 0
            m[f"{name}.s.{fam}"] = _sum(t, name, None, 2) if seen else 0.0
        m[f"entropy_min.compress_useful_ratio.{fam}"] = per_unit(
            _sum(t, "coding_tree.compress"), _sum(t, "entropy_min.delta_compress")
        ) if seen else 0.0
    return m


def is_count(name):
    return ".calls" in name
