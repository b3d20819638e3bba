"""The benchmark's tracer (perfbench/spans.py) patches hill functions by
name, so a refactor that deletes or renames one breaks
`perfbench/run.py --trace 1`. These tests catch that in the unit suite."""

from pathlib import Path

import hill

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
