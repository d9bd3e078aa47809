"""Prediction sets and the probability adjustment rules driven by
confounder structure.

A PredictionSet holds one model's scores as two arrays: `ids`, the sorted
meme ids as int64, and `values`, each id's probability of hateful as
float64.  A meme id is an int in [0, 2**63), the range of the int64 column,
and a score is a probability in [0, 1]; a set is checked once, when it is
built, so every layer after that (the rules, stacking, the writers) can
rely on both.  -0.0 is held as 0.0, so a written score reads back as the
same float.  Every set of one run shares a single `ids` array, read-only:
the simulated sets, each rule's output and the stacked set, so the layers
pass arrays and never map id to score.  A set's `values` are its own
read-only copy, so the check holds for the set's life.
`PredictionSet(model_id, mapping)` builds a set from a dict id -> score,
and `scores` reads a set back as a fresh such dict.

Rule 1: inside a ThreeTuple the pivot is hateful and both partners are
benign, so their probabilities become (1, 0, 0) and the same labels can be
used as pseudo-labels for unlabeled data.

Rule 2: inside a TwoTuple the member with the larger probability goes to 1
and the other to 0.  An exact tie leaves both alone.  The sets of a run
share their ids and their groups, so the pairs' positions are looked up
once per run and kept (`_pair_positions`).

The rules write by position, group by group in the order given, so groups
that share a meme give the result of applying them one after another.  They
copy the scores; inputs are never mutated, and a rule applied to a stacked
set returns a stacked set.
"""

import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .dataset import MemeRecord, _is_meme_id, id_error, write_lines
from .errors import DataFormatError
from .tuples import ThreeTuple, TwoTuple, UnimodalHate


def sorted_ids(meme_ids):
    """(ids, order): the meme ids sorted, as a read-only int64 array, and
    the order that sorts them; an id that is not an int (a Python or numpy
    integer) in [0, 2**63) raises DataFormatError."""
    for meme_id in meme_ids:
        if not _is_meme_id(int(meme_id) if isinstance(meme_id, np.integer) else meme_id):
            raise DataFormatError(id_error(meme_id))
    column = np.array(meme_ids, np.int64)
    order = np.argsort(column, kind="stable")
    ids = column[order]
    ids.flags.writeable = False
    return ids, order


class PredictionSet:
    """Scores for one model: `ids`, sorted int64 meme ids, and `values`, the
    float64 probability of hateful of each.  PredictionSet(model_id, mapping)
    builds the arrays from a dict id -> score; PredictionSet(model_id,
    ids=..., values=...) takes the columns, copying the values.  Either form raises
    DataFormatError (a ValueError) unless the ids are strictly increasing
    int64 ids >= 0, one per value, and every value is in [0, 1], and a
    mapping's values are real numbers, so not str or bool; -0.0 is held as
    0.0.  `values` is the set's own read-only copy, so the check holds for
    the set's life."""

    def __init__(self, model_id, scores=None, *, ids=None, values=None):
        if scores is not None:
            for meme_id, score in scores.items():
                if type(score) is not float and (isinstance(score, bool)
                                                 or not isinstance(score, numbers.Real)):
                    raise DataFormatError(f"{model_id}: meme {meme_id} has score"
                                          f" {score!r}, not a real number")
            ids, order = sorted_ids(list(scores))
            values = np.array(list(scores.values()), np.float64)[order]
        else:
            ids, values = np.asarray(ids), np.array(values, np.float64)
            if not (ids.dtype == np.int64 and ids.ndim == 1 and values.shape == ids.shape
                    and (ids[1:] > ids[:-1]).all() and (ids[:1] >= 0).all()):
                raise DataFormatError("ids must be a 1-D int64 array of strictly"
                                      " increasing ids >= 0, one per value")
        bad = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))   # NaN included
        if len(bad):
            raise DataFormatError(f"{model_id}: meme {ids[bad[0]]} has score"
                                  f" {float(values[bad[0]])!r}, not a probability in [0, 1]")
        if np.signbit(values).any():
            values += 0.0      # -0.0 + 0.0 is 0.0
        if ids.flags.writeable:    # a caller's array stays the caller's
            ids = ids.copy()
            ids.flags.writeable = False
        values.flags.writeable = False
        self.model_id, self.ids, self.values = model_id, ids, values

    def __repr__(self):
        return f"{type(self).__name__}({self.model_id!r}, {len(self.ids)} scores)"

    def __eq__(self, other):
        return (type(other) is type(self) and other.model_id == self.model_id
                and np.array_equal(other.ids, self.ids)
                and np.array_equal(other.values, self.values))

    @property
    def scores(self):
        """A fresh dict id -> score, in id order."""
        return dict(zip(self.ids.tolist(), self.values.tolist()))

    def positions(self, meme_ids, what):
        """The index in `ids` of each id of the list meme_ids; the first id
        missing raises DataFormatError naming `what`."""
        if len(self.ids) and {*map(type, meme_ids)} <= {int}:
            try:
                want = np.array(meme_ids, np.int64)
            except OverflowError:      # beyond int64, so in no set
                want = None
            if want is not None:
                pos = np.searchsorted(self.ids, want)
                if np.array_equal(self.ids.take(pos, mode="clip"), want):
                    return pos
        # a missing id, or ids of other types, looked up as a dict would
        index = dict(zip(self.ids.tolist(), range(len(self.ids))))
        for meme_id in meme_ids:
            if meme_id not in index:
                raise DataFormatError(f"{what}: meme {meme_id} missing from predictions")
        return np.array([index[i] for i in meme_ids], np.intp)

    def replaced(self, values):
        """A set of the same type, model and ids with the given values."""
        return type(self)(self.model_id, ids=self.ids, values=values)


@dataclass
class PseudoLabelSet:
    labels: dict       # meme id -> 0/1, each implied by rule 1


def _rule1_labels(groups):
    """(id, label) for each member of each ThreeTuple: pivot 1, partners 0."""
    for g in groups:
        if isinstance(g, ThreeTuple):
            yield from ((g.pivot_id, 1), (g.image_partner_id, 0), (g.text_partner_id, 0))


def apply_rule1(groups, preds):
    """Force every ThreeTuple to (pivot=1, partners=0).  Other kinds are ignored."""
    labels = dict(_rule1_labels(groups))    # an id in several tuples keeps its last label
    values = preds.values.copy()
    values[preds.positions(list(labels), "rule 1")] = list(labels.values())
    return preds.replaced(values)


def rule1_pseudo_labels(groups):
    """Pseudo-labels implied by ThreeTuples: pivot 1, partners 0."""
    return PseudoLabelSet(dict(_rule1_labels(groups)))


# the last _pair_positions call, (its groups, a copy of its ids, its
# result): the groups are frozen, so the same group objects mean the same
# groups, and the ids are compared by content, as _id_rows does
_last_pairs = ([], np.empty(0, np.int64), None)


def _pair_positions(groups, preds):
    """The positions in preds.ids of each TwoTuple's two members, as a list
    of pairs.  The sets of a run share their ids and are adjusted by the
    same groups, so with the last call kept each run looks them up once."""
    global _last_pairs
    groups = list(groups)
    last_groups, last_ids, pairs = _last_pairs
    if (len(last_groups) == len(groups) and all(map(operator.is_, last_groups, groups))
            and np.array_equal(last_ids, preds.ids)):
        return pairs
    members = [i for g in groups if isinstance(g, TwoTuple) for i in (g.a_id, g.b_id)]
    pairs = preds.positions(members, "rule 2").reshape(-1, 2).tolist()
    _last_pairs = (groups, preds.ids.copy(), pairs)
    return pairs


def apply_rule2(groups, preds):
    """Polarize every TwoTuple to (1, 0) by the larger score; ties untouched."""
    pairs = _pair_positions(groups, preds)
    values = preds.values.copy()
    # in order: pairs that share a meme each read the scores the pairs before wrote
    for a, b in pairs:
        if values[a] != values[b]:
            values[a], values[b] = (1.0, 0.0) if values[a] > values[b] else (0.0, 1.0)
    return preds.replaced(values)


def apply_unimodal_signatures(signatures, assignment, preds):
    """Set score 1.0 for every meme whose cluster matches a hateful signature."""
    img_sig = {s.cluster_id for s in signatures
               if isinstance(s, UnimodalHate) and s.modality == "image"}
    txt_sig = {s.cluster_id for s in signatures
               if isinstance(s, UnimodalHate) and s.modality == "text"}
    hit = [assignment.image.get(i) in img_sig or assignment.text.get(i) in txt_sig
           for i in preds.ids.tolist()]
    return preds.replaced(np.where(hit, 1.0, preds.values))


def write_pseudo_labels(pseudo, path):
    """Write `id,label,rule` CSV, sorted by id; the rule is always rule1."""
    write_lines(path, ["id,label,rule", *(f"{meme_id},{pseudo.labels[meme_id]},rule1"
                                          for meme_id in sorted(pseudo.labels))])


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
