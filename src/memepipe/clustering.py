"""Image and text clustering over a meme corpus.

Image clusters are the transitive closure of "perceptual hashes within a
Hamming threshold"; text clusters are exact matches after normalization.
A cluster is labeled by the smallest meme id it contains, so labels do not
depend on input order.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .dataset import read_csv
from .phash import near_pairs


def normalize_text(s):
    """Lowercase, trim, and collapse every whitespace run to one space."""
    return " ".join(s.lower().split())


def _components(lab, a, b):
    """Add the undirected edges a[k]-b[k] to a component labelling.

    lab labels every node with the smallest node index in its component
    (np.arange(n) before any edge); the result does the same with the edges
    added.  Each round hooks the root of every edge end onto the other end's
    label, then halves every path by pointer jumping, until a round changes
    nothing.
    """
    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    while True:
        new = lab.copy()
        np.minimum.at(new, lab[src], lab[dst])
        new = new[new]
        if np.array_equal(new, lab):
            return new
        lab = new


def cluster_images(hashes, threshold):
    """Map meme id -> image cluster id.

    hashes: iterable of (meme_id, 64-bit hash).  Two memes land in the same
    cluster when they are connected by a chain of pairs with Hamming
    distance <= threshold.
    """
    entries = sorted(hashes)
    ids = [meme_id for meme_id, _ in entries]
    # each row block's pairs are merged at once, so memory does not grow
    # with the number of pairs
    lab = np.arange(len(ids))
    for i, j in near_pairs([h for _, h in entries], threshold):
        lab = _components(lab, i, j)
    return {meme_id: ids[root] for meme_id, root in zip(ids, lab.tolist())}


def cluster_texts(memes):
    """Map meme id -> text cluster id (exact match after normalization)."""
    by_norm = {}
    for rec in memes:
        by_norm.setdefault(normalize_text(rec.text), []).append(rec.id)
    labels = {}
    for ids in by_norm.values():
        label = min(ids)
        for meme_id in ids:
            labels[meme_id] = label
    return labels


@dataclass
class ClusterAssignment:
    """Per-meme cluster labels for both modalities."""

    image: dict = field(default_factory=dict)
    text: dict = field(default_factory=dict)

    def ids(self):
        return sorted(self.image)

    def pair(self, meme_id):
        return self.image[meme_id], self.text[meme_id]


@dataclass(frozen=True)
class CorpusStats:
    image_repeat_frac: float
    text_repeat_frac: float
    independent_frac: float
    n: int


def corpus_stats(assignment):
    """Fractions of memes with a repeated image, a repeated text, and neither.

    A meme can repeat in both modalities, so the first two fractions need
    not sum with the third to 1.
    """
    ids = assignment.ids()
    n = len(ids)
    if n == 0:
        return CorpusStats(0.0, 0.0, 0.0, 0)
    img_sizes = Counter(assignment.image.values())
    txt_sizes = Counter(assignment.text.values())
    img_rep = sum(1 for i in ids if img_sizes[assignment.image[i]] >= 2)
    txt_rep = sum(1 for i in ids if txt_sizes[assignment.text[i]] >= 2)
    indep = sum(1 for i in ids
                if img_sizes[assignment.image[i]] == 1
                and txt_sizes[assignment.text[i]] == 1)
    return CorpusStats(img_rep / n, txt_rep / n, indep / n, n)


def write_clusters(assignment, path):
    """Write `id,image_cluster,text_cluster` lines, sorted by id."""
    with open(path, "w", encoding="utf-8") as fh:
        for meme_id in assignment.ids():
            img, txt = assignment.pair(meme_id)
            fh.write(f"{meme_id},{img},{txt}\n")


def _cluster_row(meme_id, img, txt):
    meme_id, img, txt = int(meme_id), int(img), int(txt)
    if min(meme_id, img, txt) < 0:
        raise ValueError("ids must be non-negative")
    return meme_id, (img, txt)


def read_clusters(path):
    rows = read_csv(path, ("id", "image_cluster", "text_cluster"), _cluster_row,
                    header=False)
    return ClusterAssignment(image={i: img for i, (img, _) in rows.items()},
                             text={i: txt for i, (_, txt) in rows.items()})
