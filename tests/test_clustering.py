import importlib

import numpy as np
import pytest

import memepipe.clustering as clustering_module
from memepipe.clustering import (ClusterAssignment, cluster_images,
                                 cluster_texts, corpus_stats, normalize_text,
                                 read_clusters, write_clusters)
from memepipe.dataset import MemeRecord
from memepipe.errors import DataFormatError
from memepipe.phash import hamming

# the package re-exports the phash function under the submodule's name
phash_module = importlib.import_module("memepipe.phash")


def closure_oracle(entries, threshold):
    """O(n^2) transitive closure with min-id labels."""
    ids = [i for i, _ in entries]
    hashes = dict(entries)
    adj = {i: [] for i in ids}
    for a in ids:
        for b in ids:
            if a < b and hamming(hashes[a], hashes[b]) <= threshold:
                adj[a].append(b)
                adj[b].append(a)
    labels = {}
    for start in ids:
        if start in labels:
            continue
        comp = []
        stack = [start]
        seen = {start}
        while stack:
            cur = stack.pop()
            comp.append(cur)
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        root = min(comp)
        for member in comp:
            labels[member] = root
    return labels


def rec(meme_id, text):
    return MemeRecord(id=meme_id, img=f"{meme_id}.pgm", text=text,
                      label=0, split="test")


def test_normalize_basic():
    assert normalize_text("  Love The WAY  you smell today ") == \
        "love the way you smell today"
    assert normalize_text("") == ""
    assert normalize_text("abc") == "abc"


def test_normalize_collapses_any_whitespace():
    assert normalize_text("a\t b\n\nc") == "a b c"


def test_cluster_images_identical_hashes():
    labels = cluster_images([(5, 0xAA), (2, 0xAA), (9, 0xAA)], 0)
    assert labels == {5: 2, 2: 2, 9: 2}


def test_cluster_images_threshold_zero_distinct():
    labels = cluster_images([(1, 0x1), (2, 0x2), (3, 0x4)], 0)
    assert labels == {1: 1, 2: 2, 3: 3}


def test_cluster_images_chain_links_transitively():
    # 0-1 and 1-3 are within distance 1 but 0-3 is not; one cluster anyway
    labels = cluster_images([(1, 0b000), (2, 0b001), (3, 0b011)], 1)
    assert labels == {1: 1, 2: 1, 3: 1}


def test_cluster_images_matches_closure_oracle():
    rng = np.random.default_rng(30)
    for trial in range(8):
        n = int(rng.integers(2, 200))
        # small hash space makes nontrivial clusters likely
        entries = [(i, int(rng.integers(0, 2 ** 16))) for i in range(n)]
        for threshold in (0, 5, 10):
            assert cluster_images(entries, threshold) == \
                closure_oracle(entries, threshold)


def test_cluster_images_full_width_hashes_match_oracle(monkeypatch):
    # top bit set on every hash, planted near-duplicates, sparse ids given in
    # shuffled order; the small block size makes the pair search span many
    # row blocks
    rng = np.random.default_rng(31)
    top = 1 << 63
    hashes = []
    for _ in range(300):
        if hashes and rng.uniform() < 0.5:
            h = hashes[int(rng.integers(0, len(hashes)))]
            for bit in rng.integers(0, 63, size=int(rng.integers(0, 13))):
                h ^= 1 << int(bit)
        else:
            h = top | int(rng.integers(0, 2 ** 63))
        hashes.append(h)
    ids = [int(v) for v in rng.choice(10 ** 6, size=len(hashes), replace=False)]
    entries = list(zip(ids, hashes))
    rng.shuffle(entries)
    for threshold in (0, 1, 5, 10, 20, 64):
        expected = closure_oracle(entries, threshold)
        assert cluster_images(entries, threshold) == expected
        with monkeypatch.context() as m:
            m.setattr(phash_module, "_BLOCK_ELEMS", 1000)
            assert cluster_images(entries, threshold) == expected
    assert set(cluster_images(entries, 64).values()) == {min(ids)}


def test_cluster_images_empty_input():
    for threshold in (0, 10, 64):
        assert cluster_images([], threshold) == {}


def test_cluster_images_chain_of_one_bit_steps():
    # 300 distinct hashes, each one bit from the next (a Gray code walk);
    # the smallest id sits at the far end of the chain
    entries = [(1000 - 3 * k, (1 << 63) | (k ^ (k >> 1))) for k in range(300)]
    shuffled = list(entries)
    np.random.default_rng(32).shuffle(shuffled)
    labels = cluster_images(shuffled, 1)
    assert labels == {meme_id: 1000 - 3 * 299 for meme_id, _ in entries}
    assert labels == closure_oracle(entries, 1)
    assert cluster_images(shuffled, 0) == {meme_id: meme_id for meme_id, _ in entries}


def test_cluster_images_merges_only_row_blocks_with_pairs(monkeypatch):
    # 5 rows per block over 200 far-apart hashes, with one chain 10-95-180
    # whose links start in blocks 2 and 19: every other block has no pair
    rng = np.random.default_rng(33)
    hashes = [int(h) for h in rng.integers(0, 2 ** 63, size=200)]
    hashes[95] = hashes[10] ^ 1
    hashes[180] = hashes[10] ^ 3
    entries = [(1000 + 7 * k, h) for k, h in enumerate(hashes)]
    calls = []
    components = clustering_module._components

    def counted(lab, a, b):
        calls.append(len(a))
        return components(lab, a, b)

    monkeypatch.setattr(phash_module, "_BLOCK_ELEMS", 1000)
    monkeypatch.setattr(clustering_module, "_components", counted)
    blocks = list(phash_module.near_pairs(hashes, 3))
    labels = cluster_images(entries, 3)
    assert len(blocks) == 40 and [len(i) for i, _ in blocks if len(i)] == [2, 1]
    assert calls == [2, 1]
    assert labels == closure_oracle(entries, 3)
    assert labels[1000 + 7 * 180] == labels[1000 + 7 * 95] == 1000 + 7 * 10
    assert cluster_images(entries, 0) == {meme_id: meme_id for meme_id, _ in entries}
    assert calls == [2, 1]


def test_cluster_images_threshold_validation():
    with pytest.raises(ValueError):
        cluster_images([(1, 0)], -1)
    with pytest.raises(ValueError):
        cluster_images([(1, 0)], 65)


def test_cluster_texts_normalized_variants():
    memes = [rec(1, "A b"), rec(2, "a  B"), rec(3, "other")]
    assert cluster_texts(memes) == {1: 1, 2: 1, 3: 3}


def test_cluster_texts_distinct_singletons():
    memes = [rec(i, f"text {i}") for i in range(5)]
    assert cluster_texts(memes) == {i: i for i in range(5)}


def test_corpus_stats_all_singletons():
    asg = ClusterAssignment(image={1: 1, 2: 2}, text={1: 1, 2: 2})
    stats = corpus_stats(asg)
    assert (stats.image_repeat_frac, stats.text_repeat_frac,
            stats.independent_frac) == (0.0, 0.0, 1.0)
    assert stats.n == 2


def test_corpus_stats_one_image_pair_of_four():
    asg = ClusterAssignment(image={1: 1, 2: 1, 3: 3, 4: 4},
                            text={1: 1, 2: 2, 3: 3, 4: 4})
    stats = corpus_stats(asg)
    assert stats.image_repeat_frac == 0.5
    assert stats.text_repeat_frac == 0.0
    assert stats.independent_frac == 0.5


def test_corpus_stats_empty():
    stats = corpus_stats(ClusterAssignment())
    assert stats.n == 0
    assert stats.independent_frac == 0.0


def test_cluster_io_round_trip(tmp_path):
    asg = ClusterAssignment(image={3: 1, 1: 1, 7: 7}, text={3: 3, 1: 1, 7: 1})
    path = tmp_path / "clusters.csv"
    write_clusters(asg, path)
    back = read_clusters(path)
    assert back.image == asg.image
    assert back.text == asg.text
    # file is sorted by id
    first = path.read_text().splitlines()[0]
    assert first.startswith("1,")


def test_cluster_io_errors(tmp_path):
    path = tmp_path / "clusters.csv"
    path.write_text("1,2\n")
    with pytest.raises(DataFormatError, match="line 1"):
        read_clusters(path)
    path.write_text("1,2,3\n1,4,5\n")
    with pytest.raises(DataFormatError, match="duplicate"):
        read_clusters(path)
    path.write_text("a,b,c\n")
    with pytest.raises(DataFormatError):
        read_clusters(path)


def test_cluster_file_ids_are_non_negative(tmp_path):
    # a groups file rejects a negative cluster id, so a clusters file does too
    path = tmp_path / "clusters.csv"
    for row in ("-1,1,1", "1,-1,1", "1,1,-1"):
        path.write_text("0,0,0\n" + row + "\n")
        with pytest.raises(DataFormatError, match="line 2: malformed row"):
            read_clusters(path)
