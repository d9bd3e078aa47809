"""Equal-weight stacking and prediction file IO.

Prediction files are CSV with header `id,proba`; submissions add a `label`
column, and read as prediction files with that column ignored.
Probabilities are written with nine decimal places.  The pipeline holds
every score on that grid (`on_grid`), so a score it writes reads back as
exactly the float it held, and a restage from its files reproduces it.

A score x in [0, 1] is written as the ten digits of num = rint(x * 1e9):
the product is within 2**-24 of the exact one, so it rounds as `:.9f` does
unless the exact value may sit at a half; for a score within 1e-6 (in
units of the ninth place) of a half, `:.9f` itself decides, one value at a
time.  Its grid value num / 1e9 is float() of those digits, as both
operands are exact and the division rounds correctly.

Both prediction-file functions have a bulk path for the one shape the
pipeline writes, and fall back on the per-row code, which is the reference,
for every other input; the bytes and the values are the same either way.
`write_predictions` formats in numpy when every id is an int in [0, 2**63)
and every score a float in [0, 1] without a sign bit, else it writes one
f-string per row.  `read_predictions` parses a file in the writer's exact
form from its bytes in numpy: each row's digits are found from its newline,
and its score is num / 1e9 for the integer num its ten digits spell.  A
file with an id of more than 18 digits, a repeated id or a value above 1,
and any other file, goes to `read_csv`, which reads or rejects it with its
line.
"""

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import _parse_label, read_csv, write_lines
from .errors import DataFormatError
from .rules import PredictionSet

# ASCII digits, an optional point and exponent: float() also takes signs, spaces, '_'
_PROBA = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_HEADER = b"id,proba\n"
_ID_DIGITS = 18   # the most an int64 always holds; longer ids go to read_csv
# the weight of each byte of `d.ddddddddd` in units of 1e-9, '.' weighing 0
_FRACTION_WEIGHTS = np.array([1e9, 0.0, 1e8, 1e7, 1e6, 1e5, 1e4, 1e3, 1e2, 1e1, 1e0])


@dataclass
class StackedPrediction:
    mean_score: dict
    label: dict


def stack_equal_weight(sets):
    """Average prediction sets with equal weight, on the grid the files
    use; label 1 iff that mean >= 0.5.

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
    order = list(ids)
    sums = map(math.fsum, zip(*(map(ps.scores.__getitem__, order) for ps in sets)))
    return thresholded(dict(zip(order, on_grid([s / len(sets) for s in sums]))))


def thresholded(scores):
    """The scores as a StackedPrediction, labelled 1 iff score >= 0.5."""
    return StackedPrediction(scores, {meme_id: 1 if s >= 0.5 else 0
                                      for meme_id, s in scores.items()})


def _numerators(x):
    """rint(x * 1e9) for an array of scores in [0, 1], the digits `:.9f`
    writes; next to a half of the ninth place `:.9f` decides."""
    y = x * 1e9
    num = np.rint(y)
    for j in np.flatnonzero(np.abs(y - np.floor(y) - 0.5) <= 1e-6):
        num[j] = int(f"{x[j]:.9f}".replace(".", ""))
    return num


def on_grid(scores):
    """Each score as its `:.9f` text reads back, as a list of floats; a
    value outside [0, 1] goes through the text.  Its two callers are the
    simulator, for each simulated set, and `stack_equal_weight`."""
    x = np.asarray(scores, np.float64)
    inside = (x >= 0.0) & (x <= 1.0)
    grid = _numerators(np.where(inside, x, 0.0)) / 1e9
    for j in np.flatnonzero(~inside):
        grid[j] = float(f"{x[j]:.9f}")
    return grid.tolist()


def write_predictions(preds, path):
    """Write a prediction set as `id,proba` CSV, sorted by id."""
    ids = sorted(preds.scores)
    scores = [preds.scores[meme_id] for meme_id in ids]
    rows = _bulk_rows(ids, scores)
    if rows is None:
        write_lines(path, ["id,proba", *(f"{meme_id},{score:.9f}"
                                         for meme_id, score in zip(ids, scores))])
    else:
        with open(path, "wb") as fh:
            fh.write(_HEADER + rows)


def _digits(values, width):
    """The last `width` decimal digits of each uint64 value, as rows of ASCII."""
    out = np.empty((width, len(values)), np.uint8)
    for place in reversed(range(width)):
        rest = values // 10
        out[place] = values - rest * 10 + ord("0")
        values = rest
    return out.T


def _bulk_rows(ids, scores):
    """The rows `id,d.ddddddddd\\n` for sorted ids, as `:.9f` writes them, or
    None when an id or a score is off the bulk path."""
    if not ({*map(type, ids)} <= {int} and {*map(type, scores)} <= {float}
            and (not ids or 0 <= ids[0] and ids[-1] < 2**63)):
        return None
    x = np.array(scores, dtype=np.float64)
    if not np.all((x >= 0.0) & (x <= 1.0) & ~np.signbit(x)):
        return None
    meme_ids = np.array(ids, dtype=np.uint64)
    width = len(str(ids[-1] if ids else 0))
    frac = _digits(_numerators(x).astype(np.uint64), 10)
    comma, point, newline = (np.full((len(ids), 1), ord(c), np.uint8) for c in ",.\n")
    rows = np.hstack([_digits(meme_ids, width), comma, frac[:, :1], point, frac[:, 1:],
                      newline])
    # sorted ids of each digit count form one block; drop its leading zeros
    starts = np.searchsorted(meme_ids, 10 ** np.arange(1, width, dtype=np.uint64)).tolist()
    return b"".join(rows[lo:hi, width - k:].tobytes() for k, (lo, hi)
                    in enumerate(zip([0, *starts], [*starts, len(ids)]), start=1))


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
    scores = _bulk_read(path)
    if scores is None:
        scores = read_csv(path, ("id", "proba"), _proba, ignored=("label",))
    return PredictionSet(path.stem, scores)


def _bulk_read(path):
    """The scores of a file in exactly the writer's form with ids of at most
    18 digits, none repeated, and no value above 1, in file order; else None
    for `read_csv` to read or reject."""
    text = path.read_bytes()
    if not (text.startswith(_HEADER) and text.endswith(b"\n")):
        return None
    body = np.frombuffer(text, np.uint8, offset=len(_HEADER))
    ends = np.flatnonzero(body == ord("\n"))
    id_len = ends - np.append(-1, ends[:-1]) - len(",d.ddddddddd\n")
    width = int(id_len.max(initial=1))   # the longest id
    if width > _ID_DIGITS or id_len.min(initial=1) < 1:
        return None
    # each byte's digit value, after _ID_DIGITS zeros so that a window as wide
    # as the longest row starts inside the array; ',' and '.' wrap to 252, 254
    digits = np.zeros(_ID_DIGITS + len(body), np.uint8)
    np.subtract(body, np.uint8(ord("0")), out=digits[_ID_DIGITS:])
    rows = np.ndarray((len(digits) - width - 11, width + 12), np.uint8, digits,
                      strides=(1, 1))[ends + _ID_DIGITS - width - 12]
    # each row is its id right-aligned, ',' and `d.ddddddddd`; every other
    # byte is a digit but the newline
    if not (np.count_nonzero(digits > 9) == 3 * len(ends) and np.all(rows[:, width] == 252)
            and np.all(rows[:, width + 2] == 254)):
        return None
    # both operands of num / 1e9 are exact, and the division rounds correctly,
    # so the quotient is float() of the text
    num = rows[:, width + 1:] @ _FRACTION_WEIGHTS
    # a shorter id's row starts with bytes of the row before: mask them out
    ids = (np.where(np.arange(width, 0, -1) <= id_len[:, None], rows[:, :width], 0)
           @ 10 ** np.arange(width - 1, -1, -1, dtype=np.int64))
    if num.max(initial=0.0) > 1e9:
        return None
    if not np.all(ids[1:] > ids[:-1]):   # the writer's order; else look for repeats
        ordered = np.sort(ids)
        if np.any(ordered[1:] == ordered[:-1]):
            return None
    return dict(zip(ids.tolist(), (num / 1e9).tolist()))


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
