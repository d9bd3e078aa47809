"""Acceptance suite.

One test per shipping criterion; each prints a single PASS/FAIL banner on the
real stdout so the verdicts survive pytest's capture.  The heavy 20-seed
sweep lives in the session fixture `sweep` (conftest.py) and is shared by
criteria 5-8.
"""

import time

import numpy as np

from memepipe import cli
from memepipe.clustering import cluster_images
from memepipe.dataset import GeneratorNoise
from memepipe.generator import generate_dataset
from memepipe.metrics import auroc
from memepipe.phash import hamming, phash
from memepipe.pipeline import PipelineConfig, build_config, detect, run_pipeline
from memepipe.tuples import ThreeTuple
from oracles import pair_count_auroc, roc_curve, trapezoid_area


def report(capfd, num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"[criterion {num}] {verdict} {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_auroc_oracle_equivalence(capfd):
    rng = np.random.default_rng(202401)
    start = time.perf_counter()
    worst_pair = 0.0
    worst_trap = 0.0
    for _ in range(500):
        n = int(rng.integers(5, 201))
        scores = {i: round(float(rng.uniform()), 2) for i in range(n)}
        labels = {i: int(rng.integers(0, 2)) for i in range(n)}
        labels[0], labels[1] = 1, 0
        value = auroc(scores, labels)
        worst_pair = max(worst_pair, abs(value - pair_count_auroc(scores, labels)))
        worst_trap = max(worst_trap,
                         abs(value - trapezoid_area(roc_curve(scores, labels))))
    elapsed = time.perf_counter() - start
    ok = worst_pair <= 1e-12 and worst_trap <= 1e-12 and elapsed < 10.0
    report(capfd, 1, ok, f"auroc oracle equivalence: max |rank-paircount|={worst_pair:.2e} "
                  f"max |rank-trapezoid|={worst_trap:.2e} elapsed={elapsed:.1f}s")


def closure_oracle(entries, threshold):
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


def test_criterion_2_clustering_oracle_equivalence(capfd):
    rng = np.random.default_rng(7302)
    start = time.perf_counter()
    checked = 0
    for _ in range(50):
        n = int(rng.integers(2, 201))
        ids = sorted(int(v) for v in rng.choice(10000, size=n, replace=False))
        entries = []
        for idx, meme_id in enumerate(ids):
            if idx and rng.uniform() < 0.5:
                # near-duplicate of an earlier hash, a few bits flipped
                parent = entries[int(rng.integers(0, idx))][1]
                h = parent
                for bit in rng.integers(0, 64, size=int(rng.integers(0, 9))):
                    h ^= 1 << int(bit)
            else:
                h = int(rng.integers(0, 2**63)) * 2 + int(rng.integers(0, 2))
            entries.append((meme_id, h))
        for threshold in (0, 5, 10, 16):
            assert cluster_images(entries, threshold) == \
                closure_oracle(entries, threshold)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 200 and elapsed < 30.0
    report(capfd, 2, ok, f"clustering matches transitive-closure oracle on "
                  f"{checked} set/threshold combos, elapsed={elapsed:.1f}s")


def test_criterion_3_phash_affine_invariance(capfd):
    rng = np.random.default_rng(515)
    bad = 0
    for _ in range(200):
        h = int(rng.integers(16, 97))
        w = int(rng.integers(16, 97))
        img = rng.uniform(0.0, 255.0, size=(h, w))
        if rng.uniform() < 0.3:
            img = np.stack([img] * 3, axis=-1) * rng.uniform(0.5, 1.0, size=3)
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(-50.0, 50.0))
        original = phash(img)
        if phash(a * img + b) != original or hamming(original, original) != 0:
            bad += 1
    report(capfd, 3, bad == 0, f"phash affine invariance: {200 - bad}/200 images exact")


def detect_triples(ds):
    cfg = PipelineConfig(out_dir="", rule1=False, quiet=True)
    groups = detect(cfg, ds.records, ds.images).groups
    return {g for g in groups if isinstance(g, ThreeTuple)}


def test_criterion_4_tuple_recovery(capfd):
    quiet = GeneratorNoise(image_amplitude=0.0, text_perturb_prob=0.0)
    clean = generate_dataset(1000, noise=quiet, seed=11)
    exact = detect_triples(clean) == set(clean.three_tuples)

    noisy = generate_dataset(1000, seed=12)
    planted = set(noisy.three_tuples)
    recovered = len(detect_triples(noisy) & planted) / len(planted)
    ok = exact and recovered >= 0.95
    report(capfd, 4, ok, f"tuple recovery: zero-noise exact={exact}, "
                  f"default-noise recovery={recovered:.3f}")


def test_criterion_5_pseudo_label_accuracy(sweep, capfd):
    clean_accs = [row["pseudo_acc_clean"] for row in sweep["rows"]]
    clean_ok = all(v == 1.0 for v in clean_accs)
    noisy_accs = [row["pseudo_acc_noisy"] for row in sweep["rows"]]
    band_ok = all(0.96 <= v <= 1.0 for v in noisy_accs)
    ok = clean_ok and band_ok
    report(capfd, 5, ok, f"pseudo-label accuracy: clean all 1.0={clean_ok}, "
                  f"2% label noise range=[{min(noisy_accs):.4f}, "
                  f"{max(noisy_accs):.4f}] over {len(noisy_accs)} seeds")


def test_criterion_6_end_to_end_uplift(sweep, capfd):
    rows = sweep["rows"]
    mean_baseline = sum(r["baseline_auroc"] for r in rows) / len(rows)
    auroc_lifts = [r["before_auroc"] - r["baseline_auroc"] for r in rows]
    acc_lifts = [r["before_acc"] - r["baseline_acc"] for r in rows]
    hits = sum(1 for da, dc in zip(auroc_lifts, acc_lifts)
               if da >= 0.10 and dc >= 0.10)
    elapsed = sweep["elapsed"]
    ok = 0.70 <= mean_baseline <= 0.75 and hits >= 18 and elapsed < 300.0
    report(capfd, 6, ok, f"end-to-end uplift: baseline mean AUROC={mean_baseline:.4f} "
                  f"(band [0.70, 0.75]), >=0.10 AUROC and accuracy uplift in "
                  f"{hits}/20 seeds, sweep elapsed={elapsed:.0f}s")


def test_criterion_7_adjustment_placement(sweep, capfd):
    rows = sweep["rows"]
    wins = sum(1 for r in rows if r["before_auroc"] >= r["after_auroc"])
    ok = wins > len(rows) // 2
    report(capfd, 7, ok, f"adjustment placement: before >= after in {wins}/20 seeds")


def test_criterion_8_stacking_benefit(sweep, capfd):
    rows = sweep["rows"]
    wins = sum(1 for r in rows
               if r["stacked_full_auroc"] >= np.mean(r["model_full_aurocs"]))
    ok = wins >= 18
    report(capfd, 8, ok, f"stacking benefit: stacked >= mean individual AUROC in "
                  f"{wins}/20 seeds")


def test_criterion_9_pipeline_determinism(tmp_path, capfd):
    args = ["--quiet", "pipeline", "--n", "600", "--seed", "21", "--no-images"]
    assert cli.main(args + ["--outdir", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--outdir", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "submission.csv").read_bytes()
    second = (tmp_path / "b" / "submission.csv").read_bytes()
    ok = first == second and len(first) > 0
    report(capfd, 9, ok, f"pipeline determinism: identical configs gave "
                  f"{'byte-identical' if ok else 'DIFFERING'} submissions "
                  f"({len(first)} bytes)")


def test_simulated_models_sit_in_calibration_band(sweep):
    # raw per-model discrimination is tuned to the band the uplift criterion
    # measures against
    per_seed = [np.mean(r["model_full_aurocs"]) for r in sweep["rows"]]
    mean = float(np.mean(per_seed))
    assert 0.70 <= mean <= 0.75, mean


def test_default_run_beats_rules_off(tmp_path):
    on = run_pipeline(build_config(
        str(tmp_path / "on"), {}, {"save_images": False, "quiet": True}))
    off = run_pipeline(build_config(
        str(tmp_path / "off"), {},
        {"save_images": False, "quiet": True, "rule1": False, "rule2": False}))
    assert on.report is not None and off.report is not None
    assert on.report.auroc > off.report.auroc
