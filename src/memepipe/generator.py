"""Synthetic meme corpus generator.

Produces 64x64 grayscale images plus short texts with a planted confounder
structure: hateful pivots accompanied by a near-duplicate-image partner and
a shared-text partner (labels 1, 0, 0), unimodal-hate pairs sharing one
modality (labels 1, 1), and independent benign filler.

Two guarantees make downstream detection exact rather than probabilistic:

- every fresh base image is re-drawn until its perceptual hash is at least
  _BASE_MIN_SEPARATION bits from all earlier bases, and every near-duplicate
  is re-perturbed until it stays within _DUP_MAX_RADIUS bits of its base, so
  at the default clustering threshold the image clusters are exactly the
  planted ones;
- every fresh text is re-drawn until unique after normalization, and shared
  texts are only mangled in case and whitespace.

All randomness flows through one seeded generator, so equal inputs give
byte-identical manifests and images.  Each image is copied, as it is
emitted, into the next row of one (n, 64, 64) uint8 array, the corpus's
`images`, so meme i is row i.  The candidates the generator tries are hashed
one at a time by `phash`, and the hash of each image it emits is kept as
`hashes`, the pairs `image_hashes` gives for that array, so a generated
corpus is hashed once: a near-duplicate at zero amplitude is its base's
pixels, so it takes its base's hash.
`generate_corpus` hands each row, once filled, to an ImageWriter, whose one
thread writes the image file while the generator goes on.

A base image's DCT is zero outside its 8x8 low-frequency block, so its
pixels are the rank-8 product B.T @ block @ B, where B is the first 8 rows
of the 64-point DCT-II matrix.  One render makes every image, base or
near-duplicate: that product plus the caption stripes and noise, rounded
to uint8.  The product defines the pixels.  Before rounding it is within
1e-11 of the full 64x64 inverse DCT of the coefficients, so the two round alike
except at a pixel within that distance of a half integer, where they need
not be bit-identical.
"""

import os
import queue
import threading
from contextlib import suppress
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .clustering import HAMMING_THRESHOLD, normalize_text
from .dataset import (DatasetComposition, GeneratorNoise, MemeRecord, write_manifest,
                      write_pgm)
from .errors import ConfigError
from .phash import HASH_BITS, dct_rows, hamming, phash, phash_stack
from .tuples import ThreeTuple, TwoTuple, UnimodalHate, write_groups

IMAGE_SIDE = 64
_BAND = slice(44, 56)        # caption band: high-frequency stripes live here
_LOW_BLOCK = 8
_COEF_SIGMA = 60.0
_DUP_MAX_RADIUS = 4
# near-duplicates of different bases can never close a chain between clusters
_BASE_MIN_SEPARATION = HAMMING_THRESHOLD + 2 * _DUP_MAX_RADIUS + 1

_SYLLABLES = [c + v for c in "bdfglmnprst" for v in "aeiou"]
_VOCAB = [a + b for a in _SYLLABLES for b in _SYLLABLES][:200]

_COLS = np.arange(IMAGE_SIDE, dtype=np.float64)
_LOW_ROWS = dct_rows(IMAGE_SIDE, _LOW_BLOCK)


@dataclass
class GeneratedDataset:
    """Generator output: records plus the planted ground truth.

    two_tuples holds only the (hateful, benign) confounder pairs; the
    unimodal pairs in unimodal_groups are also size-2 single-modality
    clusters, so structural detection reports them as TwoTuples as well.
    """

    records: list
    images: np.ndarray                # (n, 64, 64) uint8, read-only: meme i is row i
    hashes: list                      # (id, phash) pairs, sorted by id
    categories: dict                  # id -> composition category
    three_tuples: list = field(default_factory=list)
    two_tuples: list = field(default_factory=list)
    unimodal_groups: list = field(default_factory=list)
    # one uniform per meme, the generator's last draws, taken whatever the
    # noise: label i is flipped iff label_draws[i] < label_noise.  No earlier
    # draw reads label_noise, so at label_noise 0, label ^ (label_draws < p)
    # is the label the same seed and settings give at label_noise p
    label_draws: np.ndarray = None


def _quantize(img):
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


class _Base(NamedTuple):
    """A base image: its pixels and what they are made of."""

    u8: np.ndarray       # _render(block, stripes)
    block: np.ndarray    # the 8x8 low-frequency DCT coefficients
    stripes: np.ndarray  # the row added to every caption-band row


def _render(block, stripes, noise=0.0):
    """The quantized inverse orthonormal DCT-II of a 64x64 coefficient matrix
    that is zero outside its top-left `block`, plus the caption stripes, then
    the noise, in the caption band, as a rank-8 product."""
    img = _LOW_ROWS.T @ block @ _LOW_ROWS
    img[_BAND] += stripes
    img[_BAND] += noise
    return _quantize(img)


def _base_image(rng):
    # random energy across the whole low-frequency DCT block keeps the 64
    # hash bits close to independent coin flips across images
    block = rng.normal(0.0, _COEF_SIGMA, size=(_LOW_BLOCK, _LOW_BLOCK))
    block[0, 0] = 128.0 * IMAGE_SIDE
    freq = int(rng.integers(8, 13))
    phase = rng.uniform(0.0, 2.0 * np.pi)
    amp = rng.uniform(15.0, 30.0)
    # integer frequency: the stripes sum to zero along x, so they stay out
    # of the hash's low-frequency block
    stripes = amp * np.cos(2.0 * np.pi * freq * _COLS / IMAGE_SIDE + phase)
    return _Base(_render(block, stripes), block, stripes)


def _fresh_base(rng, base_hashes):
    # base_hashes: uint64 array of the bases placed so far
    for _ in range(500):
        base = _base_image(rng)
        h = phash(base.u8)
        nearest = np.bitwise_count(base_hashes ^ np.uint64(h)).min(initial=HASH_BITS)
        if nearest >= _BASE_MIN_SEPARATION:
            return base, h
    raise ConfigError("exhausted retries placing a distinct base image; "
                      "the corpus is too large for the hash space")


def _near_duplicate(rng, base, base_hash, amplitude):
    # (pixels, hash) of a near-duplicate of base
    if amplitude == 0.0:
        return base.u8, base_hash
    for _ in range(50):
        noise = rng.uniform(-amplitude, amplitude, size=(_BAND.stop - _BAND.start, IMAGE_SIDE))
        dup_q = _render(base.block, base.stripes, noise)
        h = phash(dup_q)
        if hamming(h, base_hash) <= _DUP_MAX_RADIUS:
            return dup_q, h
    raise ConfigError(f"image_amplitude {amplitude} keeps pushing near-duplicates "
                      f"more than {_DUP_MAX_RADIUS} hash bits from their base")


def _fresh_text(rng, used_norms):
    for _ in range(1000):
        length = int(rng.integers(4, 13))
        picks = rng.integers(0, len(_VOCAB), size=length)
        text = " ".join(_VOCAB[int(i)] for i in picks)
        norm = normalize_text(text)
        if norm not in used_norms:
            used_norms.add(norm)
            return text
    raise ConfigError("exhausted retries drawing a unique text")


def _text_variant(rng, text, perturb_prob):
    # same text modulo case and whitespace; normalization maps it back
    if rng.random() >= perturb_prob:
        return text
    words = [w.upper() if rng.random() < 0.3 else w for w in text.split(" ")]
    parts = [words[0]]
    for w in words[1:]:
        parts.append("  " if rng.random() < 0.3 else " ")
        parts.append(w)
    out = "".join(parts)
    if rng.random() < 0.5:
        out = " " + out
    if rng.random() < 0.5:
        out = out + " "
    return out


def _image_name(meme_id):
    """The path of a generated meme's image, relative to its corpus."""
    return f"images/{meme_id:06d}.pgm"


def generate_dataset(n, composition=None, noise=None, seed=0, on_image=None):
    """Build a synthetic corpus of n memes with planted confounder structure.

    Category counts follow the composition (floors, remainder to random
    benign).  Complete pivot/image-partner/text-partner triples form while
    both confounder budgets and pivots last; leftover confounders attach to
    spare pivots as two-member groups, then fall back to independent benign
    memes.  Splits are roughly 85/5/10 train/dev/test.

    `on_image(meme_id, pixels)`, if given, is called as each image is
    emitted, with its row of `images`, which is never written again.
    """
    if n < 10:
        raise ConfigError(f"need n >= 10, got {n}")
    comp = composition if composition is not None else DatasetComposition()
    noi = noise if noise is not None else GeneratorNoise()
    rng = np.random.default_rng(seed)
    c_mm, c_uni, c_btc, c_bic, c_rb = comp.counts(n)

    # every base is emitted at least once, so n slots hold them all
    base_hashes = np.empty(n, dtype=np.uint64)
    n_bases = 0
    used_norms = set()
    texts = []
    labels = []
    categories = []
    hashes = []
    pixels = np.empty((n, IMAGE_SIDE, IMAGE_SIDE), np.uint8)
    three_tuples = []
    two_tuples = []
    unimodal_groups = []

    def emit(image_u8, h, text, label, category):
        meme_id = len(texts)
        pixels[meme_id] = image_u8
        if on_image is not None:
            on_image(meme_id, pixels[meme_id])
        hashes.append((meme_id, h))
        texts.append(text)
        labels.append(label)
        categories.append(category)
        return meme_id

    def fresh_base():
        nonlocal n_bases
        base, h = _fresh_base(rng, base_hashes[:n_bases])
        base_hashes[n_bases] = h
        n_bases += 1
        return base, h

    # every shape below is built from these three draw sequences; each
    # image_partner is called right after the single that placed its base,
    # so a near-duplicate is emitted before the next base is placed
    def single(label, category, text=None):
        base, h = fresh_base()
        if text is None:
            text = _fresh_text(rng, used_norms)
        return emit(base.u8, h, text, label, category), base, h, text

    def image_partner(base, h, label, category):
        dup, dup_h = _near_duplicate(rng, base, h, noi.image_amplitude)
        return emit(dup, dup_h, _fresh_text(rng, used_norms), label, category)

    def text_partner(text, label, category):
        base, h = fresh_base()
        variant = _text_variant(rng, text, noi.text_perturb_prob)
        return emit(base.u8, h, variant, label, category)

    triples = min(c_mm, c_btc, c_bic)
    pivots_left = c_mm - triples
    img_pairs = min(c_bic - triples, pivots_left)
    pivots_left -= img_pairs
    txt_pairs = min(c_btc - triples, pivots_left)
    pivots_left -= txt_pairs

    for _ in range(triples):
        pivot, base, h, text = single(1, "multimodal_hate")
        img_partner = image_partner(base, h, 0, "benign_image_confounder")
        txt_partner = text_partner(text, 0, "benign_text_confounder")
        three_tuples.append(ThreeTuple(pivot, img_partner, txt_partner))
    for _ in range(img_pairs):
        pivot, base, h, _ = single(1, "multimodal_hate")
        partner = image_partner(base, h, 0, "benign_image_confounder")
        two_tuples.append(TwoTuple(pivot, partner, "image"))
    for _ in range(txt_pairs):
        pivot, _, _, text = single(1, "multimodal_hate")
        partner = text_partner(text, 0, "benign_text_confounder")
        two_tuples.append(TwoTuple(pivot, partner, "text"))
    # spare pivots, then confounders left without a pivot
    for count, label, category in (
            (pivots_left, 1, "multimodal_hate"),
            (c_bic - triples - img_pairs, 0, "benign_image_confounder"),
            (c_btc - triples - txt_pairs, 0, "benign_text_confounder")):
        for _ in range(count):
            single(label, category)

    for pair_idx in range(c_uni // 2):
        if pair_idx % 2 == 0:
            first, base, h, _ = single(1, "unimodal_hate")
            second = image_partner(base, h, 1, "unimodal_hate")
            unimodal_groups.append(UnimodalHate("image", first, (first, second)))
        else:
            # the one shape whose text is drawn before its base
            first, _, _, text = single(1, "unimodal_hate", _fresh_text(rng, used_norms))
            second = text_partner(text, 1, "unimodal_hate")
            unimodal_groups.append(UnimodalHate("text", first, (first, second)))
    if c_uni % 2:
        single(1, "unimodal_hate")
    for _ in range(c_rb):
        single(0, "random_benign")

    assert len(texts) == n

    n_dev = int(np.floor(0.05 * n))
    n_test = int(np.floor(0.10 * n))
    perm = rng.permutation(n)
    splits = ["train"] * n
    for meme_id in perm[:n_dev]:
        splits[meme_id] = "dev"
    for meme_id in perm[n_dev:n_dev + n_test]:
        splits[meme_id] = "test"

    label_draws = rng.random(n)
    flips = (label_draws < noi.label_noise).tolist()
    records = [MemeRecord(id=i, img=_image_name(i), text=texts[i],
                          label=labels[i] ^ flips[i], split=splits[i])
               for i in range(n)]
    pixels.flags.writeable = False
    return GeneratedDataset(records=records, images=pixels,
                            hashes=hashes, categories={i: categories[i] for i in range(n)},
                            three_tuples=three_tuples, two_tuples=two_tuples,
                            unimodal_groups=unimodal_groups, label_draws=label_draws)


class ImageWriter:
    """Writes images/<id>.pgm files under out_dir with `write_pgm`, on one
    background thread, in the order they are put.

    The pixels put must not change until the writer is finished.  After a
    write fails, no later image is written; `write_images` waits for the
    thread and raises that first error, which names its path.  `discard`
    stops the thread and removes every image it wrote, then the directories
    it made if they are empty.
    """

    def __init__(self, out_dir):
        self._out_dir = out_dir
        img_dir = os.path.join(out_dir, "images")
        self._made = [d for d in (img_dir, out_dir) if not os.path.isdir(d)]
        os.makedirs(img_dir, exist_ok=True)
        self._queue = queue.SimpleQueue()
        self._written = []
        self._error = None
        self._skip = False
        self._thread = threading.Thread(target=self._run, name="image-writer", daemon=True)
        self._thread.start()

    def put(self, meme_id, pixels):
        self._queue.put((meme_id, pixels))

    def _run(self):
        # only write_pgm and small helpers run here: a profiler that wraps
        # memepipe's stage functions and keeps one stack of open calls for
        # all threads must see no call from this thread.  An error is kept
        # for write_images, since one raised here would be lost
        for meme_id, pixels in iter(self._queue.get, None):
            if self._skip:
                continue
            path = os.path.join(self._out_dir, _image_name(meme_id))
            try:
                write_pgm(pixels, path)
            except Exception as exc:
                self._error, self._skip = exc, True
            else:
                self._written.append(path)

    def _join(self):
        self._queue.put(None)
        self._thread.join()

    def discard(self):
        """Stop writing; remove the images written and the directories made."""
        self._skip = True
        self._join()
        for path in self._written:
            with suppress(OSError):
                os.remove(path)
        for path in self._made:
            with suppress(OSError):
                os.rmdir(path)


def write_images(writer):
    """Wait for the ImageWriter that generate_corpus fed as the generator
    emitted the images; the first failed write's OSError is raised, with its
    path.  A function of its own, so a profiler that wraps memepipe's
    functions sees the generate stage's wait as one call."""
    writer._join()
    if writer._error is not None:
        raise writer._error


def generate_corpus(out_dir, n, composition=None, noise=None, seed=0, images=True):
    """Generate a corpus and write it under out_dir: manifest.jsonl, the
    images (if asked) and the planted groups as constructed_groups.jsonl.
    Return the dataset and the two file names.

    With images, one ImageWriter writes each image as the generator emits
    it, and `write_images` waits for the last of them before the planted
    groups are written.  If generating or writing fails, the writer is
    discarded, so no image it wrote is left.  The writer is a thread although
    it shares the interpreter lock with the generator, because file creation
    releases the lock: on readme-2k, writing while generating beat writing
    after it in 8 of 8 paired runs (e2e_s median 0.92 against 1.16 ref-s,
    2 vCPUs).
    """
    writer = ImageWriter(out_dir) if images else None
    try:
        ds = generate_dataset(n, composition, noise, seed,
                              None if writer is None else writer.put)
        os.makedirs(out_dir, exist_ok=True)
        write_manifest(ds.records, os.path.join(out_dir, "manifest.jsonl"))
        if writer is not None:
            write_images(writer)
    except BaseException:
        if writer is not None:
            writer.discard()
        raise
    truth = ds.three_tuples + ds.two_tuples + ds.unimodal_groups
    write_groups(truth, os.path.join(out_dir, "constructed_groups.jsonl"))
    return ds, ("manifest.jsonl", "constructed_groups.jsonl")


def image_hashes(stacks):
    """Perceptual hashes for [(ids, pixels)] stacks, each pixels an
    (n, h, w) uint8 array of ids' images, as (id, hash) pairs sorted by id.
    Each stack is hashed by `phash_stack`, each hash `phash` of its image."""
    ids, hashes = [], []
    for stack_ids, pixels in stacks:
        ids += stack_ids
        hashes += phash_stack(pixels).tolist()
    return sorted(zip(ids, hashes))
