import numpy as np
import pytest

from memepipe.metrics import (accuracy, auroc, evaluate, roc_curve,
                              trapezoid_area)


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


def random_instance(rng):
    n = int(rng.integers(5, 200))
    ids = list(range(n))
    # quantized scores so exact ties actually happen
    scores = {i: round(float(rng.uniform()), 2) for i in ids}
    labels = {i: int(rng.integers(0, 2)) for i in ids}
    labels[ids[0]] = 1
    labels[ids[1]] = 0
    return scores, labels


def test_auroc_perfect_separation():
    assert auroc({1: 0.9, 2: 0.1}, {1: 1, 2: 0}) == 1.0
    assert auroc({1: 0.1, 2: 0.9}, {1: 1, 2: 0}) == 0.0


def test_auroc_all_tied_is_half():
    scores = {i: 0.5 for i in range(6)}
    labels = {0: 1, 1: 1, 2: 1, 3: 0, 4: 0, 5: 0}
    assert auroc(scores, labels) == pytest.approx(0.5, abs=1e-15)


def test_auroc_hand_example():
    scores = {0: 0.8, 1: 0.4, 2: 0.6, 3: 0.2}
    labels = {0: 1, 1: 1, 2: 0, 3: 0}
    assert auroc(scores, labels) == pytest.approx(0.75, abs=1e-15)


def test_auroc_matches_pair_counting():
    rng = np.random.default_rng(20)
    for trial in range(100):
        scores, labels = random_instance(rng)
        got = auroc(scores, labels)
        want = pair_count_auroc(scores, labels)
        assert abs(got - want) <= 1e-12


def auroc_rank_loop(scores, labels):
    """Reference Mann-Whitney AUROC: walk the sorted scores, giving each run
    of tied scores the average of its 1-based ranks."""
    ids = sorted(labels)
    s = np.array([scores[i] for i in ids], dtype=np.float64)
    y = np.array([labels[i] for i in ids])
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(len(s))
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s[order[j + 1]] == s[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    pos = int(y.sum())
    neg = len(y) - pos
    return (float(ranks[y == 1].sum()) - pos * (pos + 1) / 2.0) / (pos * neg)


def test_auroc_equals_the_rank_loop_bit_for_bit():
    rng = np.random.default_rng(22)
    for trial in range(200):
        scores, labels = random_instance(rng)
        if trial % 2:
            # signed zeros tie with each other
            scores = {i: (-0.0 if v < 0.3 else 0.0) if v < 0.6 else v
                      for i, v in scores.items()}
        assert auroc(scores, labels) == auroc_rank_loop(scores, labels)


def test_auroc_matches_trapezoid_area():
    rng = np.random.default_rng(21)
    for trial in range(100):
        scores, labels = random_instance(rng)
        area = trapezoid_area(roc_curve(scores, labels))
        assert abs(auroc(scores, labels) - area) <= 1e-12


def test_auroc_degenerate_labels_raise():
    with pytest.raises(ValueError, match="degenerate"):
        auroc({1: 0.2, 2: 0.8}, {1: 1, 2: 1})
    with pytest.raises(ValueError, match="degenerate"):
        auroc({1: 0.2, 2: 0.8}, {1: 0, 2: 0})


def test_auroc_missing_score_raises():
    with pytest.raises(ValueError, match="no score"):
        auroc({1: 0.2}, {1: 1, 2: 0})


def test_auroc_bad_label_raises():
    with pytest.raises(ValueError):
        auroc({1: 0.2, 2: 0.8}, {1: 1, 2: 2})


def test_roc_curve_perfect_pair():
    points = roc_curve({1: 0.9, 2: 0.1}, {1: 1, 2: 0})
    assert points == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]


def test_roc_curve_all_ties_is_diagonal():
    points = roc_curve({1: 0.5, 2: 0.5}, {1: 1, 2: 0})
    assert points == [(0.0, 0.0), (1.0, 1.0)]


def test_roc_curve_monotone():
    rng = np.random.default_rng(22)
    scores, labels = random_instance(rng)
    points = roc_curve(scores, labels)
    assert points[0] == (0.0, 0.0)
    assert points[-1] == (1.0, 1.0)
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        assert x1 >= x0 and y1 >= y0


def test_accuracy_identical():
    labels = {1: 0, 2: 1, 3: 1}
    assert accuracy(dict(labels), labels) == 1.0


def test_accuracy_two_thirds():
    assert accuracy({1: 1, 2: 0, 3: 0}, {1: 1, 2: 0, 3: 1}) == pytest.approx(2 / 3)


def test_accuracy_coverage_mismatch():
    with pytest.raises(ValueError):
        accuracy({1: 1}, {1: 1, 2: 0})
    with pytest.raises(ValueError):
        accuracy({1: 1, 2: 0}, {1: 1})
    with pytest.raises(ValueError):
        accuracy({}, {})


def test_report_text_and_machine_line():
    report = evaluate({1: 0.9, 2: 0.2}, {1: 1, 2: 0}, {1: 1, 2: 0})
    assert report.auroc == 1.0
    assert report.accuracy == 1.0
    assert report.n == 2
    assert report.positives == 1
    text = report.to_text()
    assert "auroc      1.000000" in text
    assert "accuracy   1.000000" in text
    line = report.machine_line()
    assert line.startswith("RESULT auroc=1.000000000 accuracy=1.000000000")
    assert line.endswith("n=2 positives=1")
