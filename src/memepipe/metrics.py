"""Evaluation metrics: AUROC (rank-based), ROC curve, accuracy.

AUROC is the Mann-Whitney statistic: the fraction of (positive, negative)
pairs ranked concordantly, ties counting one half.  The trapezoidal area
under roc_curve() agrees with it to floating-point precision, which the
tests use as a cross-check.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError


def _aligned(scores, labels):
    """(scores, labels, positives, negatives) over sorted ids; needs both classes."""
    ids = sorted(labels)
    for meme_id in ids:
        if meme_id not in scores:
            raise DataFormatError(f"no score for labeled meme {meme_id}")
        if labels[meme_id] not in (0, 1):
            raise DataFormatError(f"label for meme {meme_id} must be 0 or 1")
    y = np.array([labels[i] for i in ids], dtype=np.int64)
    s = np.array([scores[i] for i in ids], dtype=np.float64)
    pos = int(y.sum())
    neg = len(y) - pos
    if pos == 0 or neg == 0:
        raise DataFormatError(f"degenerate labels: {pos} positives, {neg} negatives")
    return s, y, pos, neg


def auroc(scores, labels):
    """Probability that a random positive outranks a random negative.

    Needs at least one positive and one negative; otherwise the metric is
    undefined and a DataFormatError is raised.
    """
    s, y, pos, neg = _aligned(scores, labels)
    # tied scores share the average of their 1-based ranks: a group of c
    # scores ending at rank e gets e - (c - 1) / 2, an exact half-integer
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True,
                                 equal_nan=False)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    pos_rank_sum = float(ranks[y == 1].sum())
    return (pos_rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


def roc_curve(scores, labels):
    """(FPR, TPR) staircase from (0, 0) to (1, 1), one step per distinct score."""
    s, y, pos, neg = _aligned(scores, labels)
    order = np.argsort(-s, kind="mergesort")
    s_desc = s[order]
    y_desc = y[order]
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(s_desc):
        j = i
        while j + 1 < len(s_desc) and s_desc[j + 1] == s_desc[i]:
            j += 1
        tp += int(y_desc[i:j + 1].sum())
        fp += (j - i + 1) - int(y_desc[i:j + 1].sum())
        points.append((fp / neg, tp / pos))
        i = j + 1
    return points


def trapezoid_area(points):
    """Area under a piecewise-linear curve given as (x, y) points."""
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def accuracy(pred_labels, labels):
    """Fraction of exact label matches.  Coverage must be identical."""
    if set(pred_labels) != set(labels):
        diff = sorted(set(pred_labels).symmetric_difference(labels))[:5]
        raise DataFormatError(f"prediction/label ids differ, e.g. {diff}")
    if not labels:
        raise DataFormatError("empty label set")
    hits = sum(1 for meme_id in labels if pred_labels[meme_id] == labels[meme_id])
    return hits / len(labels)


@dataclass(frozen=True)
class EvaluationReport:
    auroc: float
    accuracy: float
    n: int
    positives: int

    def to_text(self):
        return (f"n          {self.n}\n"
                f"positives  {self.positives}\n"
                f"auroc      {self.auroc:.6f}\n"
                f"accuracy   {self.accuracy:.6f}\n")

    def machine_line(self):
        return (f"RESULT auroc={self.auroc:.9f} accuracy={self.accuracy:.9f} "
                f"n={self.n} positives={self.positives}")


def evaluate(scores, pred_labels, labels):
    """Bundle AUROC and accuracy against a shared truth mapping."""
    return EvaluationReport(
        auroc=auroc(scores, labels),
        accuracy=accuracy(pred_labels, labels),
        n=len(labels),
        positives=sum(1 for v in labels.values() if v == 1),
    )
