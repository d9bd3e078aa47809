import hashlib
import os
import sys
import time
from collections import Counter

import numpy as np
import pytest
import scipy.fft

from memepipe.clustering import (ClusterAssignment, cluster_images,
                                 cluster_texts, normalize_text)
from memepipe.dataset import DatasetComposition, GeneratorNoise, read_pgm, write_pgm
from memepipe.generator import (ImageWriter, generate_dataset, image_hashes, write_images,
                                _BAND, _BASE_MIN_SEPARATION, _DUP_MAX_RADIUS,
                                _LOW_ROWS, _base_image, _fresh_base,
                                _near_duplicate, _quantize, _render)
from memepipe.phash import hamming, phash
from memepipe.tuples import ThreeTuple, TwoTuple, detect_tuples


def planted_image_pairs(ds):
    pairs = [(g.pivot_id, g.image_partner_id) for g in ds.three_tuples]
    pairs += [(g.a_id, g.b_id) for g in ds.two_tuples if g.shared == "image"]
    pairs += [tuple(sorted(g.members)) for g in ds.unimodal_groups
              if g.modality == "image"]
    return pairs


def test_category_counts_default():
    ds = generate_dataset(100, seed=0)
    counts = Counter(ds.categories.values())
    assert counts == {"multimodal_hate": 40, "unimodal_hate": 10,
                      "benign_text_confounder": 20,
                      "benign_image_confounder": 20, "random_benign": 10}


def test_all_hateful_composition():
    ds = generate_dataset(10, DatasetComposition(1, 0, 0, 0, 0), seed=0)
    assert all(r.label == 1 for r in ds.records)


def test_labels_follow_categories_without_noise():
    ds = generate_dataset(150, seed=1)
    hateful = {"multimodal_hate", "unimodal_hate"}
    for r in ds.records:
        assert r.label == (1 if ds.categories[r.id] in hateful else 0)


def test_structure_counts_default():
    # 80 pivots, 40+40 confounders: every confounder joins a triple and the
    # spare pivots stay solo
    ds = generate_dataset(200, seed=2)
    assert len(ds.three_tuples) == 40
    assert len(ds.two_tuples) == 0
    assert len(ds.unimodal_groups) == 10


def test_leftover_confounders_become_two_tuples():
    comp = DatasetComposition(0.10, 0.0, 0.30, 0.30, 0.30)
    ds = generate_dataset(100, comp, seed=3)
    # 10 pivots serve 10 triples; the remaining 20+20 confounders have no
    # pivots left and fall back to independent strays
    assert len(ds.three_tuples) == 10
    assert len(ds.two_tuples) == 0
    counts = Counter(ds.categories.values())
    assert counts["benign_text_confounder"] == 30
    assert counts["benign_image_confounder"] == 30


def test_pivot_surplus_pairs_with_confounders():
    comp = DatasetComposition(0.50, 0.0, 0.10, 0.20, 0.20)
    ds = generate_dataset(100, comp, seed=4)
    # 50 pivots vs (10 text, 20 image) confounders: 10 triples, then image
    # pairs, then text pairs are exhausted
    assert len(ds.three_tuples) == 10
    assert len(ds.two_tuples) == 10
    assert all(g.shared == "image" for g in ds.two_tuples)


def test_split_sizes():
    ds = generate_dataset(200, seed=5)
    counts = Counter(r.split for r in ds.records)
    assert counts["dev"] == 10
    assert counts["test"] == 20
    assert counts["train"] == 170


def test_determinism():
    a = generate_dataset(80, seed=9)
    b = generate_dataset(80, seed=9)
    assert a.records == b.records
    assert a.three_tuples == b.three_tuples
    assert np.array_equal(a.images, b.images)


def test_seed_changes_content():
    a = generate_dataset(80, seed=10)
    b = generate_dataset(80, seed=11)
    assert [r.text for r in a.records] != [r.text for r in b.records]


def test_near_duplicates_stay_close():
    ds = generate_dataset(160, seed=6)
    hashes = dict(enumerate(map(phash, ds.images)))
    for a, b in planted_image_pairs(ds):
        assert hamming(hashes[a], hashes[b]) <= _DUP_MAX_RADIUS


def test_bases_stay_separated():
    ds = generate_dataset(120, seed=7)
    hashes = dict(enumerate(map(phash, ds.images)))
    paired = set()
    for a, b in planted_image_pairs(ds):
        paired.add((a, b))
        paired.add((b, a))
    ids = sorted(hashes)
    for a in ids:
        for b in ids:
            if a < b and (a, b) not in paired:
                assert hamming(hashes[a], hashes[b]) >= \
                    _BASE_MIN_SEPARATION - 2 * _DUP_MAX_RADIUS


def test_fresh_base_accepts_at_exactly_the_minimum_separation():
    # the first candidate of a seed, against placed bases whose nearest one
    # sits exactly at the minimum separation, then one bit closer
    first_base, first = _fresh_base(np.random.default_rng(5), np.empty(0, np.uint64))
    far = first ^ (((1 << 40) - 1) << 1)
    for bits, accepted in ((_BASE_MIN_SEPARATION, True),
                           (_BASE_MIN_SEPARATION - 1, False)):
        near = first ^ (((1 << bits) - 1) << 1)
        placed = np.array([far, near, far], dtype=np.uint64)
        base, h = _fresh_base(np.random.default_rng(5), placed)
        assert (h == first) is accepted
        assert np.array_equal(base.u8, first_base.u8) is accepted
        assert min(hamming(h, int(other)) for other in placed) >= _BASE_MIN_SEPARATION


def rank8(block, stripes, noise=0.0):
    """The render's floats: the rank-8 product plus the caption stripes, then
    the noise, in the caption band."""
    img = _LOW_ROWS.T @ block @ _LOW_ROWS
    img[_BAND] += stripes
    img[_BAND] += noise
    return img


def reference(block, stripes):
    """The quantized render built on scipy's full idctn."""
    coef = np.zeros((64, 64))
    coef[:8, :8] = block
    img = scipy.fft.idctn(coef, type=2, norm="ortho")
    img[_BAND] += stripes
    return _quantize(img), img


def test_base_pixels_equal_the_reference_path():
    rng = np.random.default_rng(14)
    for _ in range(50):
        base = _base_image(rng)
        want, exact = reference(base.block, base.stripes)
        assert np.array_equal(base.u8, want)
        assert np.abs(rank8(base.block, base.stripes) - exact).max() < 1e-11


def test_base_on_a_half_integer_rounds_the_product():
    # DC 128.5 * 64 and no other energy: every pixel outside the caption
    # band is 128.5 in the product, which rounds half to even, where scipy's
    # rounding may land on either side of it
    block = np.zeros((8, 8))
    block[0, 0] = 128.5 * 64
    stripes = _base_image(np.random.default_rng(15)).stripes
    assert (rank8(block, stripes)[:_BAND.start] == 128.5).all()
    u8 = _render(block, stripes)
    assert np.array_equal(u8, _quantize(rank8(block, stripes)))
    assert (u8[:_BAND.start] == 128).all()


class FixedNoise:
    """Stands in for the generator's rng: every uniform draw is `noise`."""

    def __init__(self, noise):
        self.noise = noise
        self.draws = 0

    def uniform(self, low, high, size):
        assert size == self.noise.shape
        self.draws += 1
        return self.noise


def test_near_duplicate_on_a_half_integer_rounds_the_product():
    base = _base_image(np.random.default_rng(16))
    band = rank8(base.block, base.stripes)[_BAND]
    noise = np.zeros(band.shape)
    noise[2, 5] = np.floor(band[2, 5]) + 0.5 - band[2, 5]
    rng = FixedNoise(noise)
    dup, h = _near_duplicate(rng, base, phash(base.u8), 4.0)
    assert rng.draws == 1
    assert np.array_equal(dup, _quantize(rank8(base.block, base.stripes, noise)))
    # the hash it accepted the duplicate by, returned, not taken again
    assert h == phash(dup)


def test_shared_texts_normalize_equal():
    ds = generate_dataset(150, seed=8)
    texts = {r.id: r.text for r in ds.records}
    for g in ds.three_tuples:
        assert normalize_text(texts[g.pivot_id]) == \
            normalize_text(texts[g.text_partner_id])
    # all other texts are unique after normalization
    shared_partners = {g.text_partner_id for g in ds.three_tuples}
    shared_partners |= {max(g.members) for g in ds.unimodal_groups
                       if g.modality == "text"}
    norms = [normalize_text(texts[r.id]) for r in ds.records
             if r.id not in shared_partners]
    assert len(norms) == len(set(norms))


def test_detection_recovers_planted_structure():
    ds = generate_dataset(300, seed=12)
    # the images are one read-only array, meme i in row i, hashed in chunks
    # as phash hashes each image
    pixels = ds.images
    assert pixels.shape == (300, 64, 64) and not pixels.flags.writeable
    hashes = image_hashes([(range(300), pixels)])
    assert hashes == [(i, phash(img)) for i, img in enumerate(pixels)]
    # the generator's own hashes, taken as it placed each image, are those
    assert ds.hashes == hashes
    # at zero amplitude each near-duplicate carries its base's hash; label
    # noise draws after the images and leaves every hash as it was
    for noise in (GeneratorNoise(image_amplitude=0.0), GeneratorNoise(label_noise=0.3)):
        other = generate_dataset(300, None, noise, 12)
        assert other.hashes == image_hashes([(range(300), other.images)])
    asg = ClusterAssignment(image=cluster_images(hashes, 10),
                            text=cluster_texts(ds.records))
    groups = detect_tuples(ds.records, asg)
    found_three = {(g.pivot_id, g.image_partner_id, g.text_partner_id)
                   for g in groups if isinstance(g, ThreeTuple)}
    want_three = {(g.pivot_id, g.image_partner_id, g.text_partner_id)
                  for g in ds.three_tuples}
    assert found_three == want_three
    found_two = {(g.a_id, g.b_id, g.shared)
                 for g in groups if isinstance(g, TwoTuple)}
    want_two = {(g.a_id, g.b_id, g.shared) for g in ds.two_tuples}
    want_two |= {(min(g.members), max(g.members), g.modality)
                 for g in ds.unimodal_groups}
    assert found_two == want_two


def test_label_noise_flips_labels_only():
    clean = generate_dataset(300, seed=13)
    noisy = generate_dataset(300, None, GeneratorNoise(label_noise=0.3), 13)
    flips = sum(1 for a, b in zip(clean.records, noisy.records)
                if a.label != b.label)
    assert 40 <= flips <= 140
    # the clean corpus's draws give the noisy labels, as criterion 5 uses them
    assert np.array_equal(clean.label_draws, noisy.label_draws)
    assert [b.label for b in noisy.records] == [
        a.label ^ bool(d < 0.3) for a, d in zip(clean.records, clean.label_draws)]
    for a, b in zip(clean.records, noisy.records):
        assert a.text == b.text and a.split == b.split
    assert np.array_equal(clean.images, noisy.images)


def test_zero_amplitude_gives_identical_duplicates():
    ds = generate_dataset(60, None, GeneratorNoise(image_amplitude=0.0), 14)
    for a, b in planted_image_pairs(ds):
        assert np.array_equal(ds.images[a], ds.images[b])


def test_minimum_size_enforced():
    with pytest.raises(ValueError):
        generate_dataset(9)


def test_write_images_round_trip(tmp_path):
    ds = generate_dataset(12, DatasetComposition(0, 0, 0, 0, 1.0), seed=15)
    writer = ImageWriter(tmp_path)
    for r in ds.records:
        writer.put(r.id, ds.images[r.id])
    write_images(writer)
    for r in ds.records:
        assert np.array_equal(read_pgm(tmp_path / r.img), ds.images[r.id])


def test_image_writer_under_frequent_thread_switches(tmp_path):
    # a switch every microsecond interleaves the writer's thread with puts,
    # write_images and discard at many more points than a normal run does
    ds = generate_dataset(40, seed=16)
    expected = {}
    for rec in ds.records:
        write_pgm(ds.images[rec.id], tmp_path / "expected.pgm")
        expected[rec.img] = (tmp_path / "expected.pgm").read_bytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    start = time.perf_counter()
    try:
        for round_ in range(20):
            done, dropped = tmp_path / f"done{round_}", tmp_path / f"dropped{round_}"
            finished, discarded = ImageWriter(done), ImageWriter(dropped)
            for rec in ds.records:
                finished.put(rec.id, ds.images[rec.id])
                if rec.id < round_:
                    discarded.put(rec.id, ds.images[rec.id])
            discarded.discard()
            write_images(finished)
            assert not dropped.exists()
            assert {f"images/{name}" for name in os.listdir(done / "images")} == set(expected)
            for img, data in expected.items():
                assert (done / img).read_bytes() == data
    finally:
        sys.setswitchinterval(interval)
    assert time.perf_counter() - start < 30


def dataset_digest(ds):
    """sha256 over records, categories, planted groups and image bytes."""
    digest = hashlib.sha256()
    for part in (ds.records, sorted(ds.categories.items()), ds.three_tuples,
                 ds.two_tuples, ds.unimodal_groups):
        digest.update(repr(part).encode())
    digest.update(ds.images.tobytes())
    return digest.hexdigest()


# generate_dataset(97, composition, noise, seed), recorded before the
# generator's loops were folded into shared draw helpers.  Each composition
# takes other branches: triples with spare pivots and an odd unimodal count;
# text pairs; image pairs and 7 unimodal pairs; stray confounders of both kinds
PINNED_COMPOSITIONS = {
    "default": "0.4,0.1,0.2,0.2,0.1",
    "text_pairs": "0.5,0.05,0.2,0.1,0.15",
    "image_pairs": "0.3,0.15,0.1,0.3,0.15",
    "strays": "0.1,0,0.3,0.3,0.3",
}
PINNED_NOISE = {
    "default_noise": (GeneratorNoise(), 1),
    "flat_dups_label_noise": (GeneratorNoise(image_amplitude=0.0, label_noise=0.05), 2),
}
PINNED_DATASET_DIGESTS = {
    ("default", "default_noise"):
        "f8a7aa67feaa720b08dc03eae0bf5340b198311f07f80dffeed6fefb3fa89cc7",
    ("default", "flat_dups_label_noise"):
        "3c568ddf252c4c1a2e8612b6147ac75a9e8c86244838c5108a6c30e344631b6f",
    ("image_pairs", "default_noise"):
        "55028c930e7b776ea2520e111891d49261dfb0042d79c638c7740c6a157e69fa",
    ("image_pairs", "flat_dups_label_noise"):
        "0f85b947a4a23f869c2578b8f778bf2f118d268529b1379c6f4e67fc16a19a15",
    ("strays", "default_noise"):
        "8ae1f246bfd330333850c2c36a3dda883fa5f880c98a1c13d9e7354ca13d3d18",
    ("strays", "flat_dups_label_noise"):
        "f210c5d6db358b5908eecc079d290c530f85cdf142be717ebccbf85cb955488e",
    ("text_pairs", "default_noise"):
        "a47023e7f77187118e669ba2b87753060fb37435122594501b908c7262b6ddc3",
    ("text_pairs", "flat_dups_label_noise"):
        "fd21db3471cff55978129debc2fcfaa652960977026a1a15c836f3e92e12f875",
}


# generate_dataset(2000, seed=7), recorded before base images and hash blocks
# were computed as rank-8 products: 2000 memes reach rounding boundaries that
# 97 never do
PINNED_LARGE_DIGEST = "c16e766cc430a6b61b1443953041f999462e3f35d48a62e29c67d1035a0eae33"


def test_large_corpus_matches_pinned_digest():
    assert dataset_digest(generate_dataset(2000, seed=7)) == PINNED_LARGE_DIGEST


@pytest.mark.parametrize("noise_name", sorted(PINNED_NOISE))
@pytest.mark.parametrize("comp_name", sorted(PINNED_COMPOSITIONS))
def test_generated_bytes_match_pinned_digests(comp_name, noise_name):
    noise, seed = PINNED_NOISE[noise_name]
    comp = DatasetComposition.parse(PINNED_COMPOSITIONS[comp_name])
    ds = generate_dataset(97, comp, noise, seed)
    assert dataset_digest(ds) == PINNED_DATASET_DIGESTS[comp_name, noise_name]
