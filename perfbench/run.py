"""Benchmark of the hill library: end-to-end metrics with tracing off, or
per-layer metrics from traced passes with ``--trace 1``.

Run from the repository root:

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --list

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with provenance, goes to ``.perfbench/``, and a traced run also writes its
spans there.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

sys.dont_write_bytecode = True

# One BLAS thread: the numpy kernels here are small, and a single thread
# keeps timings steady on a shared machine. Must be set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import spans  # noqa: E402

SETUP_REPEATS = 4
OUT_DIR = ".perfbench"
HERE = os.path.dirname(os.path.abspath(__file__))

# per-layer metric -> (layer, workloads it is measured on, end-to-end
# metric it should move there)
TRAINING = ("train-default",)
MODEL = ("train-default", "predict-bulk")
TREES = ("tree-build",)
LAYER_MAP = {
    **{
        f"hill_model.{part}.{d}_us": ("hill_model", MODEL if d == "fwd" else TRAINING, "items_per_s")
        for part in spans.MODEL_PARTS
        for d in ("fwd", "bwd")
    },
    "hill_model.step.fwd_us": ("hill_model", TRAINING, "items_per_s"),
    "hill_model.step.bwd_us": ("hill_model", TRAINING, "items_per_s"),
    "hill_model.step.attributed_ratio": ("hill_model", TRAINING, "none; trace coverage"),
    "hill_model.predict_us_per_doc": ("hill_model", MODEL, "items_per_s"),
    "tensor_nn.adam.encoder.step_us": ("tensor_nn", TRAINING, "items_per_s; none on predict-bulk"),
    "tensor_nn.adam.structure.step_us": ("tensor_nn", TRAINING, "items_per_s; none on predict-bulk"),
    "tensor_nn.check_finite.calls_per_step": ("tensor_nn", MODEL, "items_per_s"),
    "tensor_nn.matmul.calls_per_step": ("tensor_nn", MODEL, "items_per_s"),
    "datagen.count_matrix.us_per_doc": ("datagen", MODEL, "items_per_s; setup_s on train-default"),
    "metrics.f1.us_per_eval": ("metrics", TRAINING, "items_per_s, a little"),
    **{
        f"{span}.{kind}.{family}": (span.split(".")[0], TREES, "items_per_s; setup_s on train-default")
        for family in spans.TREE_FAMILIES
        for span in spans.TREE_SPANS
        for kind in ("calls", "s")
    },
    **{
        f"entropy_min.compress_useful_ratio.{family}": ("entropy_min", TREES, "items_per_s")
        for family in spans.TREE_FAMILIES
    },
    "trace.slowdown": ("tracer", MODEL + TREES, "none; traced over untraced wall time"),
}


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def list_metrics(spec):
    for w in spec["workloads"]:
        print(f"workload {w['name']}: {w['why']}")
    for m in spec["end_to_end"]:
        print(f"end_to_end {m['name']} [{m['unit']}] {m['better']} is better, bound {m['bound']}")
    for m in spec["per_layer"]:
        layer, where, moves = LAYER_MAP[m["name"]]
        print(f"per_layer {m['name']} [{m['unit']}] {m['better']} is better; "
              f"layer {layer}; on {', '.join(where)}; moves {moves}")


def blas_info():
    """BLAS name from numpy's build config and the thread count the
    loaded OpenBLAS reports (None where it cannot be asked)."""
    import ctypes

    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, fn()
    return name, None


def git_commit():
    """HEAD's commit read from .git, or None outside a git checkout."""
    try:
        with open(".git/HEAD", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(".git/packed-refs", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed):
    digest = hashlib.sha256()
    for path in sorted(glob.glob("src/hill/*.py")) + ["configs/default.json"]:
        with open(path, "rb") as fh:
            digest.update(path.encode() + b"\0" + fh.read())
    blas_name, blas_threads = blas_info()
    return {
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "machine": platform.machine(),
    }


def measure(wl, seed, seconds, import_s):
    """Untraced run: ops until `seconds` of op time pass, with set-ups
    repeated at even intervals in between.

    items_per_s is best-of-N: for each kind of op, its fastest time.
    Interference from other tenants only ever adds time, and on a shared
    machine it shifts a run's median op by far more than its fastest.
    setup_s is the median set-up; spreading the set-ups over the run keeps
    one burst of interference from hitting all of them.
    """
    t = time.perf_counter()
    state = wl.setup(seed)
    setup_times = [time.perf_counter() - t]
    ops = []
    deadline = time.perf_counter() + seconds
    marks = [deadline - seconds * (1 - k / SETUP_REPEATS) for k in range(1, SETUP_REPEATS)]
    while time.perf_counter() < deadline or len(ops) < wl.min_ops:
        if marks and time.perf_counter() >= marks[0]:
            t = time.perf_counter()
            wl.setup(seed)
            took = time.perf_counter() - t
            setup_times.append(took)
            deadline += took
            marks = [m + took for m in marks[1:]]
        ops.append(wl.op(state, len(ops)))
    quality, extras, late_failures, checks = wl.finish(state)
    failed = {i for i, op in enumerate(ops) if not op[2]} | late_failures
    by_key = {}
    for dt, units, _, key in ops:
        by_key.setdefault(key, (units, []))[1].append(dt)
    best = {key: min(times) for key, (_, times) in by_key.items()}
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_s": sum(u for u, _ in by_key.values()) / sum(best.values()),
        "quality": quality,
    }
    for key, (units, times) in by_key.items():
        tag = "op" if key is None else key
        extras[f"{tag}.ms_min"] = 1e3 * best[key]
        extras[f"{tag}.ms_p50"] = 1e3 * statistics.median(times)
        if len(times) >= 100:
            extras[f"{tag}.ms_p90"] = 1e3 * statistics.quantiles(times, n=10)[-1]
        extras[f"{tag}.ops"] = len(times)
    attempted = len(ops) + checks
    extras.update({
        "items": wl.unit,
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "failed_ratio": len(failed) / attempted,
    })
    return metrics, extras, attempted, len(failed)


def traced(wl, seed, hill):
    """Passes of the same fixed work on one set-up: a warm-up, then
    untraced and traced passes in turn. Each trace group (a tree family)
    gets its own tracer, so its layer metrics are its own. Every count
    must repeat exactly across the two traced passes."""
    state = wl.setup(seed)
    walls = {False: [], True: []}
    layer, tracers, failed, attempted = [], {}, 0, 0
    for is_traced in (False, False, True, False, True):
        wall, units, metrics = 0.0, 0, {}
        for group, indices in wl.trace_groups.items():
            tracer = spans.Tracer(hill) if is_traced else None
            with tracer or contextlib.nullcontext():
                ops = [wl.op(state, i) for i in indices]
            wall += sum(op[0] for op in ops)
            units += sum(op[1] for op in ops)
            attempted += len(ops)
            failed += sum(not op[2] for op in ops)
            if tracer:
                tracers[group] = tracer
                for name, value in spans.layer_metrics(tracer, group).items():
                    metrics[name] = metrics.get(name, 0.0) + value
        walls[is_traced].append(wall)
        if is_traced:
            layer.append(metrics)
    _, _, late_failures, checks = wl.finish(state)
    failed += len(late_failures)
    attempted += checks
    first, second = layer
    metrics = {}
    for name, value in first.items():
        if spans.is_count(name):
            attempted += 1
            if value != second[name]:
                failed += 1
                print(f"count mismatch: {name} {value} vs {second[name]}", file=sys.stderr)
            metrics[name] = value
        else:
            metrics[name] = (value + second[name]) / 2
    plain, traced_walls = min(walls[False][1:]), min(walls[True])
    metrics["trace.slowdown"] = traced_walls / plain
    extras = {"items": wl.unit,
              "untraced_items_per_s": units / plain,
              "traced_items_per_s": units / traced_walls,
              "spans_per_pass": sum(len(t.start) for t in tracers.values())}
    return metrics, extras, attempted, failed, tracers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every metric and exit")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.list:
        list_metrics(spec)
        return 0
    if not os.path.isfile("src/hill/__init__.py") or not os.path.isfile("configs/default.json"):
        print("error: run from the root of a hill checkout (src/hill and configs/ not found)",
              file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.abspath("src"))
    import hill
    import workloads

    import_s = time.perf_counter() - T_START
    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    prov = provenance(args.seed)
    print("provenance " + json.dumps(prov, sort_keys=True))

    if args.trace:
        metrics, extras, attempted, failed, tracers = traced(wl, args.seed, hill)
        wanted = spec["per_layer"]
    else:
        metrics, extras, attempted, failed = measure(wl, args.seed, args.seconds, import_s)
        tracers = {}
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        print(f"error: metrics {sorted(set(metrics) ^ {m['name'] for m in wanted})} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    for group, tracer in tracers.items():
        tracer.save(stem + (f"-{group}" if group else "") + "-spans.npz")
    out = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted}
    for m in wanted:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']} ({m['better']} is better)")
    for key, value in extras.items():
        print(f"  {key} = {value}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": args.workload, "trace": args.trace,
                   "provenance": prov, "extras": extras}, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
