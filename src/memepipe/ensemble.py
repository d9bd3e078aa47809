"""Equal-weight stacking and prediction file IO, on the columns of a
prediction set.

A PredictionSet (rules.py) is `ids`, sorted int64 meme ids in [0, 2**63),
and `values`, one float64 probability in [0, 1] each, checked when the set
is built.  The sets of one run share a single read-only `ids` array, and
the stacked set shares it too.  Stacking sums the sets' score columns id by
id, exactly: a score on the files' grid is 0 or at least 1e-9 > 2**-30, so
a multiple of 2**-82, and fewer than 4096 columns of them add up in two
float64 accumulators without rounding, so the sum is math.fsum's with no
Python float per score (`_sums`).  The writers format the shared id column
once per run, so each file costs only its score digits and one write.

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

The writers and the reader share one row layout: the id right-aligned in
the widest id's field, then a fixed tail.  The writers fill it in numpy,
zero-padded, and drop the padding with one mask, so the bytes are those of
one `f"{id},{x:.9f}"` per row; a set holds only scores in [0, 1] without a
sign bit.  `read_predictions` cuts a file in the writer's exact form into
that layout from each row's newline, and a row's score is num / 1e9 for the
integer num its ten digits spell.  A file with an id of more than 18 digits,
ids out of the writer's strictly increasing order or a value above 1, and
any other file, falls back on `read_csv`, the per-row reference, which reads
or rejects it with its line.  Both give the same values, and the set comes
back sorted by id.
"""

import math
import re
from pathlib import Path

import numpy as np

from .dataset import _parse_label, read_csv
from .errors import DataFormatError
from .rules import PredictionSet

# ASCII digits, an optional point and exponent: float() also takes signs, spaces, '_'
_PROBA = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_HEADER = b"id,proba\n"
_ID_DIGITS = 18   # the most an int64 always holds; longer ids go to read_csv
# the weight of each byte of `d.ddddddddd` in units of 1e-9, '.' weighing 0
_FRACTION_WEIGHTS = np.array([1e9, 0.0, 1e8, 1e7, 1e6, 1e5, 1e4, 1e3, 1e2, 1e1, 1e0])
# `d.ddd` for each of 0 to 1000 thousandths, as ASCII rows; a row's last three
# bytes, the three digits of each number below 1000
_LEADS = np.frombuffer("".join(f"{i // 1000}.{i % 1000:03d}" for i in range(1001)).encode(),
                       np.uint8).reshape(1001, 5)
_TRIPLES = _LEADS[:1000, 2:]


class StackedPrediction(PredictionSet):
    """A stacked set, labelled 1 iff its score >= 0.5; `mean_score` reads
    it as a fresh dict id -> score."""

    @property
    def labels(self):
        return (self.values >= 0.5).astype(np.int64)

    @property
    def mean_score(self):
        return self.scores


def stack_equal_weight(sets):
    """Average prediction sets with equal weight, on the grid the files
    use, as a StackedPrediction: label 1 iff that mean >= 0.5.

    All sets must cover exactly the same ids, and the stacked set shares the
    first one's `ids`.  The mean uses exact float summation, so reordering
    the sets cannot change the result.
    """
    if not sets:
        raise ValueError("need at least one prediction set")
    ids = sets[0].ids
    for ps in sets[1:]:
        if ps.ids is not ids and not np.array_equal(ps.ids, ids):
            sample = np.setxor1d(ids, ps.ids)[:5].tolist()
            raise DataFormatError(f"prediction sets disagree on ids, e.g. {sample}")
    sums = _sums([ps.values for ps in sets])
    return StackedPrediction("stacked", ids=ids, values=on_grid(sums / len(sets)))


# a score that is 0 or at least _FINEST is a whole multiple of _FINEST * 2**-52
_FINEST = 2.0 ** -30
_SCALE = 2.0 ** 41


def _sums(columns):
    """math.fsum of each row of equal-length columns of scores in [0, 1],
    bit for bit.

    Each score times 2**41 is its whole part, at most 2**41, plus a multiple
    of 2**-41 below 1, when the score is 0 or at least 2**-30; fewer than
    4096 such parts of either kind then add up exactly in a float64, and one
    correctly rounded addition of the two totals gives fsum's value.  Any
    other columns go row by row through fsum."""
    if len(columns) >= 4096 or any(((c > 0) & (c < _FINEST)).any() for c in columns):
        rows = np.stack(columns, axis=1).tolist()
        return np.fromiter(map(math.fsum, rows), np.float64, len(rows))
    whole, frac = np.zeros(len(columns[0])), np.zeros(len(columns[0]))
    for column in columns:
        f, w = np.modf(column * _SCALE)
        whole += w
        frac += f
    return (whole + frac) / _SCALE


def _numerators(x):
    """rint(x * 1e9) for an array of scores in [0, 1], the digits `:.9f`
    writes; next to a half of the ninth place `:.9f` decides."""
    y = x * 1e9
    num = np.rint(y)
    for j in np.flatnonzero(np.abs(y - np.floor(y) - 0.5) <= 1e-6):
        num[j] = int(f"{x[j]:.9f}".replace(".", ""))
    return num


def on_grid(scores):
    """Each score in [0, 1] as its `:.9f` text reads back, as a float64
    array.  Its two callers are the simulator's logistic, for each simulated
    set, and the means of `stack_equal_weight`, both always in [0, 1]."""
    return _numerators(np.asarray(scores, np.float64)) / 1e9


def write_predictions(preds, path):
    """Write a prediction set as `id,proba` CSV, sorted by id."""
    _write_rows(path, "id,proba", preds.ids, preds.values)


def write_submission(stacked, path, ids=None):
    """Write `id,proba,label` rows for the given ids (default: all), sorted."""
    pos = slice(None) if ids is None else stacked.positions(sorted(ids), "submission")
    _write_rows(path, "id,proba,label", stacked.ids[pos], stacked.values[pos],
                stacked.labels[pos])


def _write_rows(path, header, ids, values, labels=None):
    """Write the header and a row `id,proba[,label]` per sorted id, each
    score with nine decimals as `:.9f` writes it, in one write.  The scores
    are a set's, so in [0, 1] without a sign bit."""
    tail = 13 if labels is None else 15
    rows, keep = _id_rows(ids, tail)
    rows = rows.copy()
    # each row's bytes after its id: `,d.ddddddddd[,l]\n`, the score's digits
    # in three groups of a thousand
    tails = rows[:, -tail:]
    lead, rest = np.divmod(_numerators(values).astype(np.int64), 10**6)
    mid, low = np.divmod(rest, 1000)
    tails[:, 0], tails[:, -1] = ord(","), ord("\n")
    tails[:, 1:6] = _LEADS.take(lead, 0)
    tails[:, 6:9] = _TRIPLES.take(mid, 0)
    tails[:, 9:12] = _TRIPLES.take(low, 0)
    if labels is not None:
        tails[:, 12], tails[:, 13] = ord(","), labels + ord("0")
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n" + rows[keep].tobytes())


def _digits(values, width):
    """The last `width` decimal digits of each uint64 value, as rows of ASCII."""
    out = np.empty((width, len(values)), np.uint8)
    for place in reversed(range(width)):
        rest = values // 10
        out[place] = values - rest * 10 + ord("0")
        values = rest
    return out.T


# the last _id_rows call, (a copy of its ids, its tail, its result): a memo
# keyed on content, so a later call returns what a fresh one would
_last_id_rows = (np.empty(0, np.int64), -1, None)


def _id_rows(ids, tail):
    """(rows, keep) for sorted ids in [0, 2**63): rows holds each id's digits
    right-aligned in the widest id's field, zero-padded, then `tail` bytes
    for the caller to fill, and keep masks out the padding.  The sets of a
    run share one id column, so with the last call kept each run formats
    its ids once."""
    global _last_id_rows
    last_ids, last_tail, result = _last_id_rows
    if last_tail == tail and np.array_equal(last_ids, ids):
        return result
    width = len(str(ids[-1])) if len(ids) else 1
    rows = np.zeros((len(ids), width + tail), np.uint8)
    rows[:, :width] = _digits(ids.astype(np.uint64), width)
    pad = (ids[:, None] < 10 ** np.arange(1, width, dtype=np.int64)).sum(1)
    keep = np.arange(width + tail) >= pad[:, None]
    rows.flags.writeable = keep.flags.writeable = False
    _last_id_rows = (ids.copy(), tail, (rows, keep))
    return rows, keep


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
    columns = _bulk_read(path)
    if columns is None:
        return PredictionSet(path.stem, read_csv(path, ("id", "proba"), _proba,
                                                 ignored=("label",)))
    return PredictionSet(path.stem, ids=columns[0], values=columns[1])


def _bulk_read(path):
    """(ids, values) of a file in exactly the writer's form: ids of at most
    18 digits in strictly increasing order, and no value above 1; else None
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
    if num.max(initial=0.0) > 1e9 or not np.all(ids[1:] > ids[:-1]):   # the writer's order
        return None
    ids.flags.writeable = False
    return ids, num / 1e9


def read_submission(path):
    """Parse a submission into (scores, labels) keyed by id."""
    rows = read_csv(path, ("id", "proba", "label"), _submission_row)
    return ({i: proba for i, (proba, _) in rows.items()},
            {i: label for i, (_, label) in rows.items()})
