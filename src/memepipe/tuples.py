"""Confounder structure detection.

Memes are connected when they share an image cluster or a text cluster.
Within the caller-chosen subset, each connected component of size >= 2 is
classified:

- ThreeTuple: a 3-path whose middle node (the pivot) shares its image
  cluster with one partner and its text cluster with the other, while the
  partners share nothing.  Canonical confounder shape, labels (1, 0, 0).
- TwoTuple: a pair sharing exactly one modality.
- Other: anything else (pairs sharing both modalities, single-modality
  triples, larger tangles).

UnimodalHate groups come from a separate label-aware scan: a cluster with
at least two labeled members, all hateful.
"""

import json
from dataclasses import dataclass

import numpy as np

from .clustering import _components
from .dataset import _is_meme_id, _numbered_lines, write_lines
from .errors import DataFormatError


@dataclass(frozen=True)
class ThreeTuple:
    pivot_id: int
    image_partner_id: int
    text_partner_id: int

    def member_ids(self):
        return (self.pivot_id, self.image_partner_id, self.text_partner_id)


@dataclass(frozen=True)
class TwoTuple:
    a_id: int
    b_id: int
    shared: str  # "image" or "text"

    def member_ids(self):
        return (self.a_id, self.b_id)


@dataclass(frozen=True)
class UnimodalHate:
    modality: str  # "image" or "text"
    cluster_id: int
    members: tuple

    def member_ids(self):
        return self.members


@dataclass(frozen=True)
class Other:
    members: tuple

    def member_ids(self):
        return self.members


def _adjacent(a, b, assignment):
    return (assignment.image[a] == assignment.image[b]
            or assignment.text[a] == assignment.text[b])


def _classify(members, assignment):
    members = sorted(members)
    if len(members) == 2:
        a, b = members
        same_img = assignment.image[a] == assignment.image[b]
        same_txt = assignment.text[a] == assignment.text[b]
        if same_img and same_txt:
            return Other(tuple(members))
        return TwoTuple(a, b, "image" if same_img else "text")
    if len(members) == 3:
        # a 3-component is either a path (one degree-2 pivot) or a clique;
        # only the path shape is a ThreeTuple
        degree = {m: sum(_adjacent(m, o, assignment) for o in members if o != m)
                  for m in members}
        pivots = [m for m in members if degree[m] == 2]
        if len(pivots) == 1:
            pivot = pivots[0]
            u, v = (m for m in members if m != pivot)
            # the pivot shares its image with one partner, so its text with
            # the other: sharing one modality with both would link them
            if assignment.image[pivot] == assignment.image[u]:
                return ThreeTuple(pivot, u, v)
            return ThreeTuple(pivot, v, u)
    return Other(tuple(members))


def detect_tuples(memes, assignment):
    """Classify every multi-member component among `memes`.

    Components are computed within the given subset only; singletons are
    omitted.  Groups come back sorted by smallest member id.
    """
    ids = [rec.id for rec in memes]
    for meme_id in ids:
        if meme_id not in assignment.image or meme_id not in assignment.text:
            raise DataFormatError(f"meme {meme_id} has no cluster assignment")
    # link each meme to the first subset member of its image and text cluster
    firsts = []
    for clusters in (assignment.image, assignment.text):
        _, first, which = np.unique([clusters[i] for i in ids],
                                    return_index=True, return_inverse=True)
        firsts.append(first[which])
    node = np.arange(len(ids))
    lab = _components(node, np.concatenate([node, node]), np.concatenate(firsts))
    components = {}
    for meme_id, root in zip(ids, lab.tolist()):
        components.setdefault(root, []).append(meme_id)
    out = []
    for members in components.values():
        if len(members) < 2:
            continue
        out.append(_classify(members, assignment))
    out.sort(key=lambda g: min(g.member_ids()))
    return out


def detect_unimodal_hate(labeled, assignment):
    """UnimodalHate groups among labeled records: clusters of >= 2, all label 1.

    Cluster sizes are taken within the given records.  Every record must
    carry a label.
    """
    for rec in labeled:
        if rec.label is None:
            raise DataFormatError(f"record {rec.id} has no label")
    out = []
    for modality, clusters in (("image", assignment.image), ("text", assignment.text)):
        by_cluster = {}
        for rec in labeled:
            if rec.id not in clusters:
                raise DataFormatError(f"meme {rec.id} has no cluster assignment")
            by_cluster.setdefault(clusters[rec.id], []).append(rec)
        for cluster_id in sorted(by_cluster):
            recs = by_cluster[cluster_id]
            if len(recs) >= 2 and all(r.label == 1 for r in recs):
                members = tuple(sorted(r.id for r in recs))
                out.append(UnimodalHate(modality, cluster_id, members))
    return out


@dataclass(frozen=True)
class TupleStats:
    three_tuple_frac: float
    two_tuple_frac: float


def tuple_stats(groups, total):
    """Fractions of the corpus covered by ThreeTuple / TwoTuple members."""
    if total <= 0:
        raise DataFormatError(f"total must be positive, got {total}")
    n_three = sum(1 for g in groups if isinstance(g, ThreeTuple))
    n_two = sum(1 for g in groups if isinstance(g, TwoTuple))
    return TupleStats(3 * n_three / total, 2 * n_two / total)


def write_groups(groups, path):
    """Serialize groups as line-delimited JSON with kind and role tags."""
    write_lines(path, [json.dumps(_group_to_obj(g)) for g in groups])


def read_groups(path):
    groups = []
    for lineno, line in _numbered_lines(path):
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: line {lineno}: invalid JSON: {exc}") from None
        try:
            groups.append(_obj_to_group(obj))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: line {lineno}: bad group: {exc}") from None
    return groups


def _group_to_obj(g):
    if isinstance(g, ThreeTuple):
        return {"kind": "three_tuple", "pivot": g.pivot_id,
                "image_partner": g.image_partner_id,
                "text_partner": g.text_partner_id}
    if isinstance(g, TwoTuple):
        return {"kind": "two_tuple", "a": g.a_id, "b": g.b_id, "shared": g.shared}
    if isinstance(g, UnimodalHate):
        return {"kind": "unimodal_hate", "modality": g.modality,
                "cluster": g.cluster_id, "members": list(g.members)}
    if isinstance(g, Other):
        return {"kind": "other", "members": list(g.members)}
    raise ValueError(f"unknown group type {type(g).__name__}")


def _ids(*values):
    """The values, each checked to be a meme id."""
    for value in values:
        if not _is_meme_id(value):
            raise ValueError(f"id must be a non-negative integer, got {value!r}")
    return values


def _obj_to_group(obj):
    kind = obj["kind"]
    if kind == "three_tuple":
        return ThreeTuple(*_ids(obj["pivot"], obj["image_partner"], obj["text_partner"]))
    if kind == "two_tuple":
        if obj["shared"] not in ("image", "text"):
            raise ValueError(f"bad shared modality {obj['shared']!r}")
        return TwoTuple(*_ids(obj["a"], obj["b"]), obj["shared"])
    if kind == "unimodal_hate":
        if obj["modality"] not in ("image", "text"):
            raise ValueError(f"bad modality {obj['modality']!r}")
        return UnimodalHate(obj["modality"], *_ids(obj["cluster"]), _ids(*obj["members"]))
    if kind == "other":
        return Other(_ids(*obj["members"]))
    raise ValueError(f"unknown kind {kind!r}")
