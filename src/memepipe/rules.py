"""Probability adjustment rules driven by confounder structure.

Rule 1: inside a ThreeTuple the pivot is hateful and both partners are
benign, so their probabilities become (1, 0, 0) and the same labels can be
used as pseudo-labels for unlabeled data.

Rule 2: inside a TwoTuple the member with the larger probability goes to hi
and the other to lo (defaults 1 and 0).  An exact tie leaves both alone.

All adjustments copy the prediction set; inputs are never mutated.
"""

from dataclasses import dataclass

from .dataset import MemeRecord, _parse_label, read_csv
from .errors import ConfigError, DataFormatError
from .tuples import ThreeTuple, TwoTuple, UnimodalHate


@dataclass
class PredictionSet:
    """Scores for one model: meme id -> probability of hateful."""

    model_id: str
    scores: dict


@dataclass
class PseudoLabelSet:
    labels: dict       # meme id -> 0/1, each implied by rule 1


def _require(scores, meme_id, rule):
    if meme_id not in scores:
        raise DataFormatError(f"{rule}: meme {meme_id} missing from predictions")


def apply_rule1(groups, preds):
    """Force every ThreeTuple to (pivot=1, partners=0).  Other kinds are ignored."""
    scores = dict(preds.scores)
    for g in groups:
        if not isinstance(g, ThreeTuple):
            continue
        for meme_id in g.member_ids():
            _require(scores, meme_id, "rule 1")
        scores[g.pivot_id] = 1.0
        scores[g.image_partner_id] = 0.0
        scores[g.text_partner_id] = 0.0
    return PredictionSet(preds.model_id, scores)


def rule1_pseudo_labels(groups):
    """Pseudo-labels implied by ThreeTuples: pivot 1, partners 0."""
    labels = {}
    for g in groups:
        if not isinstance(g, ThreeTuple):
            continue
        for meme_id, label in ((g.pivot_id, 1), (g.image_partner_id, 0),
                               (g.text_partner_id, 0)):
            labels[meme_id] = label
    return PseudoLabelSet(labels)


def apply_rule2(groups, preds, hi=1.0, lo=0.0):
    """Polarize every TwoTuple to (hi, lo) by the larger score; ties untouched."""
    if not 0.0 <= lo < hi <= 1.0:
        raise ConfigError(f"need 0 <= lo < hi <= 1, got lo={lo} hi={hi}")
    scores = dict(preds.scores)
    for g in groups:
        if not isinstance(g, TwoTuple):
            continue
        _require(scores, g.a_id, "rule 2")
        _require(scores, g.b_id, "rule 2")
        sa, sb = scores[g.a_id], scores[g.b_id]
        if sa == sb:
            continue
        if sa > sb:
            scores[g.a_id], scores[g.b_id] = hi, lo
        else:
            scores[g.a_id], scores[g.b_id] = lo, hi
    return PredictionSet(preds.model_id, scores)


def apply_unimodal_signatures(signatures, assignment, preds):
    """Set score 1.0 for every meme whose cluster matches a hateful signature."""
    scores = dict(preds.scores)
    img_sig = {s.cluster_id for s in signatures
               if isinstance(s, UnimodalHate) and s.modality == "image"}
    txt_sig = {s.cluster_id for s in signatures
               if isinstance(s, UnimodalHate) and s.modality == "text"}
    for meme_id in scores:
        img = assignment.image.get(meme_id)
        txt = assignment.text.get(meme_id)
        if (img is not None and img in img_sig) or (txt is not None and txt in txt_sig):
            scores[meme_id] = 1.0
    return PredictionSet(preds.model_id, scores)


def write_pseudo_labels(pseudo, path):
    """Write `id,label,rule` CSV, sorted by id; the rule is always rule1."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,label,rule\n")
        for meme_id in sorted(pseudo.labels):
            fh.write(f"{meme_id},{pseudo.labels[meme_id]},rule1\n")


def _pseudo_label_row(label, rule):
    if rule != "rule1":
        raise ValueError(f"rule must be rule1, got {rule!r}")
    return _parse_label(label)


def read_pseudo_labels(path):
    return PseudoLabelSet(read_csv(path, ("id", "label", "rule"), _pseudo_label_row))


def merge_pseudo_labels(train, pseudo, test):
    """Append pseudo-labeled test records to the training set.

    Every pseudo id must exist in `test` and must not collide with a train
    id.  Matching test records are re-tagged split="train" with the pseudo
    label; originals are untouched.
    """
    train_ids = {rec.id for rec in train}
    test_by_id = {rec.id: rec for rec in test}
    for meme_id in pseudo.labels:
        if meme_id in train_ids:
            raise DataFormatError(f"pseudo-labeled id {meme_id} collides with a train record")
        if meme_id not in test_by_id:
            raise DataFormatError(f"pseudo-labeled id {meme_id} not found in test records")
    merged = list(train)
    for rec in test:
        if rec.id in pseudo.labels:
            merged.append(MemeRecord(id=rec.id, img=rec.img, text=rec.text,
                                     label=pseudo.labels[rec.id], split="train"))
    return merged
