"""Micro- and Macro-F1 for multi-label predictions over label-id sets."""

from __future__ import annotations


def _f1(tp, fp, fn):
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def micro_f1(preds, golds) -> float:
    """F1 of precision/recall pooled over all instances and labels."""
    if len(preds) != len(golds):
        raise ValueError(f"length mismatch: {len(preds)} predictions vs {len(golds)} golds")
    tp = fp = fn = 0
    for p, g in zip(preds, golds):
        p, g = set(p), set(g)
        tp += len(p & g)
        fp += len(p - g)
        fn += len(g - p)
    return _f1(tp, fp, fn)


def macro_f1(preds, golds, label_count: int) -> float:
    """Unweighted mean of per-label F1 over all `label_count` labels;
    labels absent from both sides score exactly +0.0, so only the labels
    that occur are counted, and summed in increasing order."""
    if len(preds) != len(golds):
        raise ValueError(f"length mismatch: {len(preds)} predictions vs {len(golds)} golds")
    if label_count < 1:
        raise ValueError(f"label_count must be at least 1, got {label_count}")
    counts = {}  # label -> [tp, fp, fn]
    for p, g in zip(preds, golds):
        p, g = set(p), set(g)
        for y in p | g:
            if y >= label_count or y < 0:
                raise ValueError(f"label {y} out of range for {label_count} labels")
            tp_fp_fn = counts.setdefault(y, [0, 0, 0])
            if y in p and y in g:
                tp_fp_fn[0] += 1
            elif y in p:
                tp_fp_fn[1] += 1
            else:
                tp_fp_fn[2] += 1
    return sum(_f1(*counts[y]) for y in sorted(counts)) / label_count
