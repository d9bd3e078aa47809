"""Session-wide fixtures.

The acceptance tests share one 20-seed end-to-end sweep (synthetic corpus,
structure detection, simulated base models, both adjustment placements).
Building it once keeps the whole suite inside the runtime budgets.
"""

import time

import pytest

from memepipe.clustering import ClusterAssignment, cluster_images, cluster_texts
from memepipe.ensemble import stack_equal_weight
from memepipe.generator import generate_dataset, image_hashes
from memepipe.metrics import accuracy, auroc
from memepipe.rules import (PredictionSet, PseudoLabelSet, apply_rule1,
                            apply_rule2, rule1_pseudo_labels)
from memepipe.simulator import (SimulatorConfig, shared_noise,
                                simulate_predictions)
from memepipe.tuples import detect_tuples

SWEEP_SEEDS = tuple(range(100, 120))
SWEEP_N = 2000
SWEEP_SETS = 20          # 4 models x 5 folds


def split_eval(scores, truth, ids):
    sub_scores = {i: scores[i] for i in ids}
    sub_truth = {i: truth[i] for i in ids}
    preds = {i: 1 if sub_scores[i] >= 0.5 else 0 for i in ids}
    return auroc(sub_scores, sub_truth), accuracy(preds, sub_truth)


def _run_seed(seed):
    ds = generate_dataset(SWEEP_N, seed=seed)
    records = ds.records
    truth = {r.id: r.label for r in records}
    assignment = ClusterAssignment(
        image=cluster_images(image_hashes(ds.images), 10),
        text=cluster_texts(records))
    groups = detect_tuples(records, assignment)

    full = rule1_pseudo_labels(groups)
    pseudo_acc_clean = accuracy(full.labels, {i: truth[i] for i in full.labels})
    held = {r.id for r in records if r.split != "train"}
    pseudo = PseudoLabelSet(
        {i: v for i, v in full.labels.items() if i in held},
        {i: v for i, v in full.provenance.items() if i in held})

    cfg = SimulatorConfig(seed=seed)
    # the model-shared draws depend on (seed, id) only: one set serves all 40
    shared = shared_noise(cfg, [r.id for r in records])
    raw = [simulate_predictions(records, groups, None, cfg, i, shared)
           for i in range(SWEEP_SETS)]
    boosted = [simulate_predictions(records, groups, pseudo, cfg, i, shared)
               for i in range(SWEEP_SETS)]

    test_ids = [r.id for r in records if r.split == "test"]
    base_stack = stack_equal_weight(raw)
    baseline_auroc, baseline_acc = split_eval(base_stack.mean_score, truth,
                                              test_ids)

    adjusted = [apply_rule2(groups, ps, 1.0, 0.0) for ps in boosted]
    before = apply_rule1(groups, PredictionSet(
        "stacked", stack_equal_weight(adjusted).mean_score))
    before_auroc, before_acc = split_eval(before.scores, truth, test_ids)

    after = apply_rule1(groups, apply_rule2(groups, PredictionSet(
        "stacked", stack_equal_weight(boosted).mean_score), 1.0, 0.0))
    after_auroc, _ = split_eval(after.scores, truth, test_ids)

    return {
        "seed": seed,
        "pseudo_acc_clean": pseudo_acc_clean,
        "baseline_auroc": baseline_auroc,
        "baseline_acc": baseline_acc,
        "before_auroc": before_auroc,
        "before_acc": before_acc,
        "after_auroc": after_auroc,
        "stacked_full_auroc": auroc(base_stack.mean_score, truth),
        "model_full_aurocs": [auroc(ps.scores, truth) for ps in raw],
    }


@pytest.fixture(scope="session")
def sweep():
    start = time.perf_counter()
    rows = [_run_seed(seed) for seed in SWEEP_SEEDS]
    return {"rows": rows, "elapsed": time.perf_counter() - start}
