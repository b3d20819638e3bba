"""The benchmark's tracer (perfbench/spans.py) patches hill functions by
name, so a refactor that deletes or renames one breaks
`perfbench/run.py --trace 1`. These tests catch that in the unit suite."""

from pathlib import Path

import hill
from hill.datagen import count_matrix, gen_corpus, gen_hierarchy, hierarchy_to_graph, label_matrix
from hill.entropy_min import build_coding_tree
from hill.hill_model import HillConfig, HillModel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_patches_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    points, counted = spans.wrap_points(hill)
    targets = [(owner, attr) for owner, attr, *_ in points + counted]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets if attr not in vars(owner)]
    assert not missing, f"names the benchmark tracer patches are gone: {missing}"
    before = [vars(owner)[attr] for owner, attr in targets]
    with spans.Tracer(hill):
        assert all(vars(owner)[attr] is not fn for (owner, attr), fn in zip(targets, before))
    assert [vars(owner)[attr] for owner, attr in targets] == before


def test_benchmark_workloads_import(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    assert {"train-default", "predict-bulk", "tree-build"} <= set(workloads.WORKLOADS)


def test_tracer_records_label_projector_and_structure_spans(monkeypatch):
    # the benchmark's per-layer numbers need these classes on the step path,
    # the encoder in its training form too
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    h = gen_hierarchy(2, 2, 0)
    tree = build_coding_tree(hierarchy_to_graph(h), 2)
    model = HillModel(HillConfig(d_B=8, d_V=4), 32, h.num_labels, tree)
    docs = gen_corpus(h, 4, 32, seed=0)
    counts, y = count_matrix(docs, 32), label_matrix(docs, h.num_labels)
    with spans.Tracer(hill) as tracer:
        _, _, ctx = model.forward_batch(counts, y)
        model.backward(ctx)
    recorded = set(tracer.totals())
    for part in ("encoder", "label_proj", "structure"):
        for d in ("fwd", "bwd"):
            assert f"hill_model.{part}.{d}" in recorded


def test_structure_ffns_are_not_timed_as_contrastive_projectors(monkeypatch):
    # the level FFNs share the projectors' perceptron code, not their
    # patched methods; with lambda_clr=0 no contrastive span may appear
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    h = gen_hierarchy(2, 2, 0)
    tree = build_coding_tree(hierarchy_to_graph(h), 2)
    model = HillModel(HillConfig(d_B=8, d_V=4, lambda_clr=0.0), 32, h.num_labels, tree)
    docs = gen_corpus(h, 4, 32, seed=0)
    counts, y = count_matrix(docs, 32), label_matrix(docs, h.num_labels)
    with spans.Tracer(hill) as tracer:
        _, _, ctx = model.forward_batch(counts, y)
        model.backward(ctx)
    recorded = set(tracer.totals())
    assert {"hill_model.structure.fwd", "hill_model.structure.bwd"} <= recorded
    assert not [name for name in recorded if name.startswith("hill_model.contrastive.")]
