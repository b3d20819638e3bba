"""scripts/collate_bench.py on synthetic perfbench records; no benchmark
is run."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "collate_bench.py"


@pytest.fixture(scope="module")
def collate_bench():
    spec = importlib.util.spec_from_file_location("collate_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_record(checkout, workload, seed, trace, commit, metrics, failed=0):
    out = checkout / ".perfbench"
    out.mkdir(parents=True, exist_ok=True)
    record = {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": "x"} for name, v in metrics.items()},
        "workload": workload,
        "trace": trace,
        "provenance": {"git_commit": commit, "source_sha256": commit * 2, "seed": seed,
                       "numpy": "2.0", "nproc": 2},
        "extras": {},
    }
    (out / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def e2e(items, setup=1.0, rss=50.0, quality=0.8):
    return {"setup_s": setup, "peak_rss_mb": rss, "items_per_s": items, "quality": quality}


def test_collates_medians_quartiles_and_wins(tmp_path, collate_bench):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for i, seed in enumerate([1, 2, 3, 4, 5]):
        write_record(parent, "predict-bulk", seed, 0, "aaa", e2e(100.0 + i))
        # the change wins four seeds on items_per_s, ties one on setup_s
        items = 90.0 if seed == 3 else 120.0 + i
        setup = 1.0 if seed == 1 else 2.0
        write_record(change, "predict-bulk", seed, 0, "bbb", e2e(items, setup), failed=int(seed == 5))
    out = tmp_path / "BENCH_0.json"
    args = ["--parent", str(parent), "--change", str(change), "--out", str(out)]
    assert collate_bench.main(args) == 0
    bench = json.loads(out.read_text())
    assert bench["parent"]["commits"] == ["aaa"] and bench["change"]["commits"] == ["bbb"]
    assert bench["parent"]["provenance"] == {"numpy": "2.0", "nproc": 2}
    entry = bench["workloads"]["predict-bulk"]["trace0"]
    assert entry["seeds"] == {"parent": [1, 2, 3, 4, 5], "change": [1, 2, 3, 4, 5]}
    assert entry["failed"]["change"] == {"1": 0, "2": 0, "3": 0, "4": 0, "5": 1}
    items = entry["metrics"]["items_per_s"]
    assert items["better"] == "higher"
    assert (items["parent"]["q1"], items["parent"]["median"], items["parent"]["q3"]) == (101, 102, 103)
    assert items["change"]["values"]["3"] == 90.0
    assert (items["pairs"], items["change_wins"], items["ties"]) == (5, 4, 0)
    assert items["median_ratio"] == pytest.approx(121.0 / 102.0)  # 90, 120, 121, 123, 124
    setup = entry["metrics"]["setup_s"]  # lower is better: the change loses four, ties one
    assert (setup["change_wins"], setup["ties"]) == (0, 1)


def test_traced_records_keep_only_layers_that_ran(tmp_path, collate_bench):
    parent, change = tmp_path / "parent", tmp_path / "change"
    spec = json.loads((SCRIPT.parents[1] / "BENCHMARK.json").read_text())
    layers = {m["name"]: 0.0 for m in spec["per_layer"]}
    write_record(parent, "predict-bulk", 7, 1, "aaa", {**layers, "hill_model.label_proj.fwd_us": 500.0})
    write_record(change, "predict-bulk", 7, 1, "bbb", {**layers, "hill_model.label_proj.fwd_us": 300.0})
    bench = collate_bench.collate(parent, change, spec)
    metrics = bench["workloads"]["predict-bulk"]["trace1"]["metrics"]
    assert list(metrics) == ["hill_model.label_proj.fwd_us"]
    row = metrics["hill_model.label_proj.fwd_us"]
    assert (row["parent"]["median"], row["change"]["median"], row["change_wins"]) == (500.0, 300.0, 1)


def test_refuses_a_checkout_without_records(tmp_path, collate_bench, capsys):
    (tmp_path / "parent").mkdir()
    write_record(tmp_path / "change", "tree-build", 1, 0, "bbb", e2e(10.0))
    args = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--out", str(tmp_path / "out.json")]
    assert collate_bench.main(args) == 1
    assert "no .perfbench/" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_refuses_a_side_whose_records_come_from_different_code(tmp_path, collate_bench, capsys):
    # leftovers of a run before an edit would pair records of two programs per seed
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2, 3):
        write_record(parent, "tree-build", seed, 0, "aaa", e2e(10.0))
        write_record(change, "tree-build", seed, 0, "bbb" if seed < 3 else "ccc", e2e(12.0))
    args = ["--parent", str(parent), "--change", str(change), "--out", str(tmp_path / "out.json")]
    assert collate_bench.main(args) == 1
    assert capsys.readouterr().err == (
        f"error: {change}: records from 2 source states (bbbbbb, cccccc); rerun in a fresh checkout\n"
    )
    assert not (tmp_path / "out.json").exists()


def test_commit_flags_name_the_commits_of_records_that_carry_none(tmp_path, collate_bench, capsys):
    # records run from a git archive checkout carry git_commit null
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2):
        write_record(parent, "tree-build", seed, 0, "aaa", e2e(10.0))
        write_record(change, "tree-build", seed, 0, "bbb", e2e(12.0))
    for rec in (parent / ".perfbench").iterdir():
        blob = json.loads(rec.read_text())
        blob["provenance"]["git_commit"] = None
        rec.write_text(json.dumps(blob))
    out = tmp_path / "out.json"
    base = ["--parent", str(parent), "--change", str(change), "--out", str(out)]
    assert collate_bench.main(base) == 0  # older records, no flags: still collated
    bench = json.loads(out.read_text())
    assert (bench["parent"]["commits"], bench["change"]["commits"]) == (["None"], ["bbb"])
    assert collate_bench.main(base + ["--parent-commit", "aaa", "--change-commit", "bbb"]) == 0
    bench = json.loads(out.read_text())
    assert (bench["parent"]["commits"], bench["change"]["commits"]) == (["aaa"], ["bbb"])
    out.unlink()
    assert collate_bench.main(base + ["--parent-commit", "aaa", "--change-commit", "ccc"]) == 1
    assert capsys.readouterr().err == f"error: {change}: records of commit bbb, not the given ccc\n"
    assert not out.exists()
