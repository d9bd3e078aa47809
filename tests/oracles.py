"""Independent references the tests check the package against.

- The hash's DCT: scipy's `dctn` of an exact area resize (`dct2` and
  `resize_area`), which `phash`'s rank-8 product is checked against, and a
  direct double-cosine sum that checks `dct2` in turn.
- AUROC, for test_metrics.py and test_acceptance.py: brute-force pair
  counting, and the trapezoidal area under a ROC staircase.
- Image clusters, for test_clustering.py and test_acceptance.py: the
  transitive closure of the within-threshold pairs, found by an O(n^2) search.
"""

import math

import numpy as np
from scipy.fft import dctn

from memepipe.phash import _overlap_weights


def resize_area(m, s):
    """Resize a 2-D matrix to s x s by exact area-weighted averaging."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"need a non-empty 2-D matrix, got shape {m.shape}")
    if s < 1:
        raise ValueError(f"target side must be >= 1, got {s}")
    return _overlap_weights(m.shape[0], s) @ m @ _overlap_weights(m.shape[1], s).T


def dct2(m):
    """Orthonormal 2-D DCT-II.  Energy-preserving; a constant c maps to c*s at (0,0)."""
    return dctn(np.asarray(m, dtype=np.float64), type=2, norm="ortho")


def dct2_double_sum(x):
    """Direct double-sum orthonormal DCT-II, O(n^4).  Only for tiny inputs."""
    n0, n1 = x.shape
    out = np.zeros((n0, n1))
    for u in range(n0):
        for v in range(n1):
            s = 0.0
            for i in range(n0):
                for j in range(n1):
                    s += (x[i, j]
                          * math.cos(math.pi * (2 * i + 1) * u / (2 * n0))
                          * math.cos(math.pi * (2 * j + 1) * v / (2 * n1)))
            au = math.sqrt(1.0 / n0) if u == 0 else math.sqrt(2.0 / n0)
            av = math.sqrt(1.0 / n1) if v == 0 else math.sqrt(2.0 / n1)
            out[u, v] = au * av * s
    return out


def closure_oracle(entries, threshold):
    """Cluster labels of (id, hash) entries: each id -> the least id of its
    component, where two hashes within `threshold` bits share a component."""
    ids = [i for i, _ in entries]
    hs = dict(entries)
    labels = {}
    seen = set()
    for i in ids:
        if i in seen:
            continue
        seen.add(i)
        comp, queue = [i], [i]
        while queue:
            a = queue.pop()
            for b in ids:
                if b not in seen and bin(hs[a] ^ hs[b]).count("1") <= threshold:
                    seen.add(b)
                    comp.append(b)
                    queue.append(b)
        lab = min(comp)
        for c in comp:
            labels[c] = lab
    return labels


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
