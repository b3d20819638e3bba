from dataclasses import replace

from hill import experiments
from hill.hill_model import HillConfig


def test_lambda_comparison_rows_are_the_runs_final_macro_f1():
    hierarchy, train_docs, dev_docs = experiments.default_dataset(2, 2, 16, 8, 64, 0)
    config = HillConfig(d_B=8, d_V=4, epochs=1, batch_size=4)
    rows = experiments.lambda_comparison(
        config, [1, 2], hierarchy, train_docs, dev_docs, vocab=64, lam=0.3
    )
    assert [row["seed"] for row in rows] == [1, 2]
    for row in rows:
        for key, lam in (("macro_with_clr", 0.3), ("macro_without_clr", 0.0)):
            run = replace(config, lambda_clr=lam, seed=row["seed"])
            _, report = experiments.run_training(run, hierarchy, train_docs, dev_docs, 64)
            assert row[key] == report[-1]["dev_macro_f1"]
