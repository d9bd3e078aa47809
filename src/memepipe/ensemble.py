"""Equal-weight stacking and prediction file IO.

Prediction files are CSV with header `id,proba`; submissions add a `label`
column, and read as prediction files with that column ignored.
Probabilities are written with nine decimal places so a round trip stays
within 1e-9.
"""

import math
import re
from dataclasses import dataclass
from pathlib import Path

from .dataset import _parse_label, read_csv, write_lines
from .errors import DataFormatError
from .rules import PredictionSet

# ASCII digits, an optional point and exponent: float() also takes signs, spaces, '_'
_PROBA = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


@dataclass
class StackedPrediction:
    mean_score: dict
    label: dict


def stack_equal_weight(sets):
    """Average prediction sets with equal weight; label 1 iff mean >= 0.5.

    All sets must cover exactly the same ids.  The mean uses exact float
    summation, so reordering the sets cannot change the result.
    """
    if not sets:
        raise ValueError("need at least one prediction set")
    ids = set(sets[0].scores)
    for ps in sets[1:]:
        if set(ps.scores) != ids:
            missing = ids.symmetric_difference(ps.scores)
            sample = sorted(missing)[:5]
            raise DataFormatError(f"prediction sets disagree on ids, e.g. {sample}")
    return thresholded({meme_id: math.fsum(ps.scores[meme_id] for ps in sets) / len(sets)
                        for meme_id in ids})


def thresholded(scores):
    """The scores as a StackedPrediction, labelled 1 iff score >= 0.5."""
    return StackedPrediction(scores, {meme_id: 1 if s >= 0.5 else 0
                                      for meme_id, s in scores.items()})


def write_predictions(preds, path):
    """Write a prediction set as `id,proba` CSV, sorted by id."""
    write_lines(path, ["id,proba", *(f"{meme_id},{preds.scores[meme_id]:.9f}"
                                     for meme_id in sorted(preds.scores))])


def _proba(field):
    if not _PROBA.fullmatch(field):
        raise ValueError(f"probability must be a decimal number, got {field!r}")
    proba = float(field)
    if not 0.0 <= proba <= 1.0:
        raise ValueError(f"probability {proba} outside [0, 1]")
    return proba


def _submission_row(proba, label):
    return _proba(proba), _parse_label(label)


def read_predictions(path):
    """Parse an `id,proba` CSV, or a submission with its label column
    ignored; the model id is the file stem."""
    path = Path(path)
    scores = read_csv(path, ("id", "proba"), _proba, ignored=("label",))
    return PredictionSet(path.stem, scores)


def write_submission(stacked, path, ids=None):
    """Write `id,proba,label` rows for the given ids (default: all), sorted."""
    write_lines(path, ["id,proba,label", *(
        f"{meme_id},{stacked.mean_score[meme_id]:.9f},{stacked.label[meme_id]}"
        for meme_id in sorted(stacked.mean_score if ids is None else ids))])


def read_submission(path):
    """Parse a submission into (scores, labels) keyed by id."""
    rows = read_csv(path, ("id", "proba", "label"), _submission_row)
    return ({i: proba for i, (proba, _) in rows.items()},
            {i: label for i, (_, label) in rows.items()})
