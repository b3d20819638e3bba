import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hill.metrics import macro_f1, micro_f1


def confusion_f1_oracle(preds, golds, label_count):
    """Independent reference: per-label confusion matrices via indicator
    arrays, then F1 from precision and recall."""
    p = np.zeros((len(preds), label_count), dtype=bool)
    g = np.zeros((len(golds), label_count), dtype=bool)
    for i, s in enumerate(preds):
        for y in s:
            p[i, y] = True
    for i, s in enumerate(golds):
        for y in s:
            g[i, y] = True
    tp = (p & g).sum(axis=0).astype(float)
    fp = (p & ~g).sum(axis=0).astype(float)
    fn = (~p & g).sum(axis=0).astype(float)

    def f1(tp_, fp_, fn_):
        # harmonic mean of precision and recall, reduced to counts so the
        # comparison against the implementation can be exact
        denom = 2 * tp_ + fp_ + fn_
        return 2 * tp_ / denom if denom else 0.0

    micro = f1(tp.sum(), fp.sum(), fn.sum())
    macro = sum(f1(tp[y], fp[y], fn[y]) for y in range(label_count)) / label_count
    return micro, macro


def test_perfect_predictions():
    golds = [{0, 1}, {2}, {1, 2}]
    assert micro_f1(golds, golds) == 1.0
    assert macro_f1(golds, golds, 3) == 1.0


def test_empty_predictions_score_zero():
    preds = [set(), set()]
    golds = [{0}, {1}]
    assert micro_f1(preds, golds) == 0.0
    assert macro_f1(preds, golds, 2) == 0.0


def test_known_values():
    preds = [{0, 1}, {1}]
    golds = [{0}, {1, 2}]
    # pooled: tp=2, fp=1, fn=1
    assert micro_f1(preds, golds) == pytest.approx(2 * 2 / (2 * 2 + 1 + 1))
    # label 0: perfect; label 1: tp=1 fp=1; label 2: fn=1
    expected = (1.0 + 2 / 3 + 0.0) / 3
    assert macro_f1(preds, golds, 3) == pytest.approx(expected)


def test_absent_label_counts_in_macro_denominator():
    preds = [{0}]
    golds = [{0}]
    assert macro_f1(preds, golds, 4) == pytest.approx(0.25)


def test_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        micro_f1([{0}], [])
    with pytest.raises(ValueError, match="length mismatch"):
        macro_f1([{0}], [], 1)


def test_macro_rejects_out_of_range_label():
    with pytest.raises(ValueError, match="out of range"):
        macro_f1([{5}], [{0}], 2)


@pytest.mark.parametrize("preds, golds", [([], []), ([set()], [set()]), ([{0}], [{0}])])
@pytest.mark.parametrize("label_count", [0, -1])
def test_macro_rejects_label_count_below_one(preds, golds, label_count):
    with pytest.raises(ValueError, match=f"^label_count must be at least 1, got {label_count}$"):
        macro_f1(preds, golds, label_count)


def _random_sets(rng, n, label_count):
    return [
        {int(y) for y in np.nonzero(rng.random(label_count) < 0.3)[0]} for _ in range(n)
    ]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_agrees_with_confusion_oracle(seed):
    rng = np.random.default_rng(seed)
    label_count = int(rng.integers(2, 12))
    n = int(rng.integers(1, 30))
    preds = _random_sets(rng, n, label_count)
    golds = _random_sets(rng, n, label_count)
    micro, macro = confusion_f1_oracle(preds, golds, label_count)
    assert micro_f1(preds, golds) == micro
    assert macro_f1(preds, golds, label_count) == macro


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    n, label_count = 12, 6
    preds = _random_sets(rng, n, label_count)
    golds = _random_sets(rng, n, label_count)
    order = rng.permutation(n)
    shuffled_p = [preds[i] for i in order]
    shuffled_g = [golds[i] for i in order]
    assert micro_f1(preds, golds) == micro_f1(shuffled_p, shuffled_g)
    assert macro_f1(preds, golds, label_count) == macro_f1(shuffled_p, shuffled_g, label_count)
