"""Evaluation metrics: one-vs-one ROC AUC and argmax accuracy."""

from __future__ import annotations

import numpy as np


class UndefinedMetricError(ValueError):
    """The metric has no value on this input (e.g. a single-class label set)."""


def _binary_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Rank-based Mann-Whitney AUC; tied scores count as half a win."""
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # each run of equal scores spans sorted positions first..last and gets
    # their average 1-based rank
    first = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    last = np.r_[first[1:], scores.size] - 1
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    rank_sum = ranks[positive].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_auc_ovo(probs: np.ndarray, labels: np.ndarray) -> float:
    """Macro ROC AUC over all unordered class pairs.

    For each pair (i, j) present in the labels, averages the AUC of i
    against j scored by column i with the AUC of j against i scored by
    column j, restricted to rows labelled i or j. Pairs missing a class
    are skipped; if every pair is skipped the metric is undefined.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2 or labels.shape != (probs.shape[0],):
        raise ValueError(f"bad shapes: probs {probs.shape}, labels {labels.shape}")
    if probs.shape[0] < 2:
        raise UndefinedMetricError("need at least two samples")
    n_classes = probs.shape[1]
    present = set(np.unique(labels).tolist())
    pair_values = []
    for i in range(n_classes):
        for j in range(i + 1, n_classes):
            if i not in present or j not in present:
                continue
            keep = (labels == i) | (labels == j)
            sub_labels = labels[keep]
            auc_ij = _binary_auc(probs[keep, i], sub_labels == i)
            auc_ji = _binary_auc(probs[keep, j], sub_labels == j)
            pair_values.append(0.5 * (auc_ij + auc_ji))
    if not pair_values:
        raise UndefinedMetricError("no class pair has both classes present")
    return sum(pair_values) / len(pair_values)


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax matches; ties break to the lowest class."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2 or labels.shape != (probs.shape[0],):
        raise ValueError(f"bad shapes: probs {probs.shape}, labels {labels.shape}")
    return float((probs.argmax(axis=1) == labels).mean())
