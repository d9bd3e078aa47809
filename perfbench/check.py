"""Correctness checks for one benchmark operation.

Every check reads the artifacts a pipeline run left on disk and recomputes
the answer with its own code, never with memepipe's: a brute-force pair
count for AUROC, an all-pairs Hamming scan plus transitive closure for the
image clusters, the planted groups for the detected three-tuples.  Each
check returns a list of problems; an empty list means the operation passed.
"""

import json
import math
import os
import re

import numpy as np

RESULT_RE = re.compile(r"^RESULT auroc=(\S+) accuracy=(\S+) n=(\d+) positives=(\d+)$")

# README golden: `memepipe pipeline` on its defaults with seed 7.
README_RESULT = "RESULT auroc=0.964531250 accuracy=0.885000000 n=200 positives=120"

TOLERANCE = 1e-9
HAMMING_THRESHOLD = 10     # the pipeline default, which every workload keeps
_ROW_BLOCK = 256           # rows per all-pairs block; keeps the scan's memory small


def parse_result(stdout):
    """The (auroc, accuracy, n, positives) of the RESULT line, or None."""
    for line in stdout.splitlines():
        match = RESULT_RE.match(line.strip())
        if match:
            auroc, acc, n, pos = match.groups()
            return float(auroc), float(acc), int(n), int(pos)
    return None


def read_manifest(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _csv_rows(path, header=None):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if header is not None:
        if not lines or lines[0] != header:
            raise ValueError(f"{path}: expected header {header!r}")
        lines = lines[1:]
    return [line.split(",") for line in lines if line]


def pair_count_auroc(scores, labels):
    """P(random positive outranks random negative), ties half, over all pairs."""
    pos = np.array([s for s, y in zip(scores, labels) if y == 1])
    neg = np.array([s for s, y in zip(scores, labels) if y == 0])
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins) / (len(pos) * len(neg))


def check_result_line(stdout, seed, golden_seed):
    """Problems with the RESULT line; on the golden seed it must match exactly."""
    lines = [line.strip() for line in stdout.splitlines() if line.startswith("RESULT")]
    if len(lines) != 1:
        return [f"expected one RESULT line on stdout, got {len(lines)}"]
    if seed == golden_seed and lines[0] != README_RESULT:
        return [f"seed {seed}: {lines[0]!r} != README {README_RESULT!r}"]
    return []


def check_submission(outdir, manifest, result):
    """Recompute AUROC and accuracy from submission.csv and the manifest labels."""
    truth = {rec["id"]: rec["label"] for rec in manifest if rec["split"] == "test"}
    rows = _csv_rows(os.path.join(outdir, "submission.csv"), "id,proba,label")
    ids = [int(r[0]) for r in rows]
    if sorted(ids) != sorted(truth):
        return ["submission.csv ids differ from the manifest's test split"]
    scores = [float(r[1]) for r in rows]
    labels = [truth[i] for i in ids]
    hits = sum(int(r[2]) == truth[i] for r, i in zip(rows, ids))
    auroc, acc, n, positives = result
    problems = []
    brute = pair_count_auroc(scores, labels)
    if abs(brute - auroc) > TOLERANCE:
        problems.append(f"pair-count AUROC {brute:.12f} != reported {auroc:.9f}")
    if abs(hits / len(ids) - acc) > TOLERANCE:
        problems.append(f"recomputed accuracy {hits / len(ids):.12f} != reported {acc:.9f}")
    if (n, positives) != (len(ids), sum(labels)):
        problems.append(f"reported n={n} positives={positives}, "
                        f"manifest has {len(ids)} and {sum(labels)}")
    return problems


def _three_tuples(path):
    with open(path, encoding="utf-8") as fh:
        objs = [json.loads(line) for line in fh if line.strip()]
    return {(o["pivot"], o["image_partner"], o["text_partner"])
            for o in objs if o["kind"] == "three_tuple"}


def check_three_tuples(tuples_path, planted_path):
    """(problems, recall): detected ThreeTuples must equal the planted ones."""
    detected = _three_tuples(tuples_path)
    planted = _three_tuples(planted_path)
    recall = len(detected & planted) / len(planted) if planted else 1.0
    if detected != planted:
        return [f"three-tuples: {len(detected - planted)} detected but not planted, "
                f"{len(planted - detected)} planted but not detected"], recall
    return [], recall


def _min_id_closure(ids, edges):
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {i: find(i) for i in ids}


def check_clusters(outdir, manifest):
    """clusters.csv against an O(n^2) exact-pairs closure and exact text groups."""
    hashes = _csv_rows(os.path.join(outdir, "hashes.csv"))
    ids = np.array([int(r[0]) for r in hashes])
    values = np.array([int(r[1], 16) for r in hashes], dtype=np.uint64)
    edges = []
    for lo in range(0, len(values), _ROW_BLOCK):
        dist = np.bitwise_count(values[lo:lo + _ROW_BLOCK, None] ^ values[None, :])
        rows, cols = np.nonzero(dist <= HAMMING_THRESHOLD)
        edges.extend(zip(ids[rows + lo].tolist(), ids[cols].tolist()))
    image = _min_id_closure(ids.tolist(), edges)

    text = {}
    first_with = {}
    for rec in sorted(manifest, key=lambda r: r["id"]):
        norm = " ".join(rec["text"].lower().split())
        text[rec["id"]] = first_with.setdefault(norm, rec["id"])

    got = {int(r[0]): (int(r[1]), int(r[2]))
           for r in _csv_rows(os.path.join(outdir, "clusters.csv"))}
    if sorted(got) != sorted(image):
        return ["clusters.csv ids differ from hashes.csv"]
    bad_img = sum(got[i][0] != image[i] for i in got)
    bad_txt = sum(got[i][1] != text[i] for i in got)
    problems = []
    if bad_img:
        problems.append(f"clusters.csv: {bad_img} image labels differ from the exact closure")
    if bad_txt:
        problems.append(f"clusters.csv: {bad_txt} text labels differ from exact text groups")
    return problems


def run_digests(outdir):
    with open(os.path.join(outdir, "run_manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)["artifacts"]


def artifact_bytes(outdir):
    """Total size of the artifacts run_manifest.json digests."""
    return sum(os.path.getsize(os.path.join(outdir, name)) for name in run_digests(outdir))


def check_restage(outdir, restaged):
    """Restaged scores against stacked.csv (1e-9) and labels against the pipeline's.

    The restage averages the 9-decimal preds_adjusted files while the
    pipeline averages full-precision floats, so the last printed digit may
    differ; bytes are not compared.
    """
    stacked = {int(r[0]): float(r[1])
               for r in _csv_rows(os.path.join(outdir, "stacked.csv"), "id,proba")}
    submitted = {int(r[0]): int(r[2])
                 for r in _csv_rows(os.path.join(outdir, "submission.csv"), "id,proba,label")}
    if set(restaged) != set(stacked):
        return ["restaged ids differ from stacked.csv"]
    far = [i for i in stacked if not math.isclose(restaged[i], stacked[i],
                                                  rel_tol=0.0, abs_tol=TOLERANCE)]
    flipped = [i for i, label in submitted.items() if (restaged[i] >= 0.5) != bool(label)]
    problems = []
    if far:
        problems.append(f"restage: {len(far)} scores differ from stacked.csv by > 1e-9, "
                        f"e.g. id {far[0]}")
    if flipped:
        problems.append(f"restage: {len(flipped)} labels differ from submission.csv, "
                        f"e.g. id {flipped[0]}")
    return problems
