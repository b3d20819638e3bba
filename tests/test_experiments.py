from dataclasses import replace

import pytest

from hill import experiments
from hill.datagen import Example
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


@pytest.mark.parametrize("lambda_clr", [0.1, 0.0])
def test_run_training_refuses_empty_doc_only_for_contrastive_training(lambda_clr):
    hierarchy, train_docs, dev_docs = experiments.default_dataset(2, 2, 16, 8, 64, 0)
    train_docs[5] = Example(tokens=[], labels=train_docs[5].labels)
    config = HillConfig(d_B=8, d_V=4, epochs=1, batch_size=4, lambda_clr=lambda_clr)
    if lambda_clr > 0:
        with pytest.raises(ValueError, match=r"^example 6 has no tokens"):
            experiments.run_training(config, hierarchy, train_docs, dev_docs, 64)
    else:
        _, report = experiments.run_training(config, hierarchy, train_docs, dev_docs, 64)
        assert len(report) == 1
