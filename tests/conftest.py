"""Session-wide fixtures.

The acceptance tests share one 20-seed end-to-end sweep: a synthetic corpus
per seed, run through the pipeline's own `detect` and `simulate` phases
once, and its prediction sets scored with rules off and under both
adjustment placements.  Building it once keeps the whole suite inside the
runtime budgets.
"""

import dataclasses
import time

import pytest

from memepipe.generator import generate_dataset
from memepipe.metrics import accuracy, auroc
from memepipe.pipeline import PipelineConfig, detect, score, simulate
from memepipe.rules import rule1_pseudo_labels

SWEEP_SEEDS = tuple(range(100, 120))
SWEEP_N = 2000


def _run_seed(seed):
    cfg = PipelineConfig(n=SWEEP_N, seed=seed, quiet=True)
    ds = generate_dataset(SWEEP_N, seed=seed)
    records = ds.records
    truth = {r.id: r.label for r in records}
    structure = detect(cfg, records, ds.hashes)
    full = rule1_pseudo_labels(structure.groups)
    # the labels this corpus gets with 2% label noise (see label_draws)
    noisy = dict(zip(truth, (ds.label_draws < 0.02).tolist()))

    sets = simulate(cfg, records, structure.groups)
    off = score(dataclasses.replace(cfg, rule1=False, rule2=False),
                records, structure, sets)
    before = score(cfg, records, structure, sets).report
    after = score(dataclasses.replace(cfg, adjust_placement="after_stacking"),
                  records, structure, sets).report

    return {
        "seed": seed,
        "pseudo_acc_clean": accuracy(full.labels, {i: truth[i] for i in full.labels}),
        "pseudo_acc_noisy": accuracy(full.labels,
                                     {i: truth[i] ^ noisy[i] for i in full.labels}),
        "baseline_auroc": off.report.auroc,
        "baseline_acc": off.report.accuracy,
        "before_auroc": before.auroc,
        "before_acc": before.accuracy,
        "after_auroc": after.auroc,
        "stacked_full_auroc": auroc(off.final.mean_score, truth),
        "model_full_aurocs": [auroc(ps.scores, truth) for ps in sets],
    }


@pytest.fixture(scope="session")
def sweep():
    start = time.perf_counter()
    rows = [_run_seed(seed) for seed in SWEEP_SEEDS]
    return {"rows": rows, "elapsed": time.perf_counter() - start}
