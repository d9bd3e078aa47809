"""Independent AUROC oracles that test_metrics.py and test_acceptance.py
check `metrics.auroc` against: brute-force pair counting, and the
trapezoidal area under a ROC staircase."""

import numpy as np


def pair_count_auroc(scores, labels):
    """Brute-force Mann-Whitney: wins + half ties over all pos/neg pairs."""
    pos = [scores[i] for i in labels if labels[i] == 1]
    neg = [scores[i] for i in labels if labels[i] == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def roc_curve(scores, labels):
    """(FPR, TPR) staircase from (0, 0) to (1, 1), one step per distinct score."""
    ids = sorted(labels)
    s = np.array([scores[i] for i in ids], dtype=np.float64)
    y = np.array([labels[i] for i in ids], dtype=np.int64)
    pos = int(y.sum())
    neg = len(y) - pos
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
