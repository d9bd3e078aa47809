import importlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import memepipe
from memepipe.errors import DataFormatError
from memepipe.phash import (HASH_BITS, dct_rows, hamming, hash_to_hex,
                            hex_to_hash, near_pairs, phash, read_hashes,
                            to_grayscale, write_hashes)
from oracles import dct2, dct2_double_sum, resize_area

# the package re-exports the phash function under the submodule's name
phash_module = importlib.import_module("memepipe.phash")


def test_grayscale_2d_passthrough():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(to_grayscale(m), m)


def test_grayscale_single_channel():
    m = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(to_grayscale(m[:, :, None]), m)


def test_grayscale_pure_red():
    px = to_grayscale(np.array([[[255, 0, 0]]], dtype=np.uint8))
    assert px[0, 0] == pytest.approx(76.245)


def test_grayscale_equal_channels():
    rng = np.random.default_rng(0)
    ch = rng.uniform(0, 255, size=(6, 6))
    rgb = np.stack([ch, ch, ch], axis=2)
    # luma weights sum to 1, so equal channels collapse to the channel itself
    assert np.allclose(to_grayscale(rgb), ch, atol=1e-12)


def test_grayscale_rejects_two_channels():
    with pytest.raises(ValueError):
        to_grayscale(np.zeros((4, 4, 2)))


def test_resize_constant():
    out = resize_area(np.full((5, 9), 7.0), 3)
    assert np.allclose(out, 7.0, atol=1e-12)


def test_resize_to_single_cell():
    out = resize_area(np.array([[0.0, 0.0], [100.0, 100.0]]), 1)
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(50.0)


def test_resize_ramp_area_oracle():
    # 3x3 ramp against the hand-computed area-overlap result
    out = resize_area(np.arange(9.0).reshape(3, 3), 2)
    want = np.array([[4.0, 8.0], [16.0, 20.0]]) / 3.0
    assert np.allclose(out, want, atol=1e-12)


def test_resize_identity_when_sides_match():
    m = np.random.default_rng(1).uniform(size=(6, 6))
    assert np.allclose(resize_area(m, 6), m, atol=1e-12)


def test_resize_preserves_global_mean():
    rng = np.random.default_rng(2)
    for trial in range(10):
        h, w = rng.integers(9, 40, size=2)
        m = rng.uniform(0, 255, size=(int(h), int(w)))
        out = resize_area(m, int(rng.integers(1, 9)))
        assert out.mean() == pytest.approx(m.mean(), abs=1e-9)


def test_resize_weights_are_shared_and_read_only():
    m = np.random.default_rng(3).uniform(0, 255, size=(64, 48))
    phash_module._overlap_weights.cache_clear()
    first = resize_area(m, 32)
    w = phash_module._overlap_weights(64, 32)
    assert w is phash_module._overlap_weights(64, 32)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0, 0] = 1.0
    # a cached matrix gives the same bits as the first, freshly built one
    assert np.array_equal(resize_area(m, 32), first)


def overlap_weights_loop(n_in, n_out):
    """Reference resize weights, one output cell at a time: the overlap of
    [lo, hi) with each input cell [j, j + 1) it touches, over the step."""
    step = n_in / n_out
    w = np.zeros((n_out, n_in))
    for i in range(n_out):
        lo = i * step
        hi = lo + step
        for j in range(int(np.floor(lo)), min(int(np.ceil(hi)), n_in)):
            w[i, j] = min(hi, j + 1.0) - max(lo, float(j))
    w /= step
    return w


def test_overlap_weights_equal_the_loop_bit_for_bit():
    for n_in in range(8, 131):
        for n_out in (1, 8, 32):
            w = phash_module._overlap_weights(n_in, n_out)
            assert np.array_equal(w, overlap_weights_loop(n_in, n_out)), (n_in, n_out)
            assert not np.signbit(w).any(), (n_in, n_out)


def test_resize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        resize_area(np.zeros(4), 2)
    with pytest.raises(ValueError):
        resize_area(np.zeros((3, 3)), 0)


def test_dct2_constant():
    side = 32
    out = dct2(np.full((side, side), 3.0))
    assert out[0, 0] == pytest.approx(3.0 * side, abs=1e-9)
    out[0, 0] = 0.0
    assert np.max(np.abs(out)) < 1e-9


def test_dct2_impulse_closed_form():
    x = np.zeros((4, 4))
    x[0, 0] = 1.0
    out = dct2(x)
    for u in range(4):
        for v in range(4):
            au = math.sqrt(0.25) if u == 0 else math.sqrt(0.5)
            av = math.sqrt(0.25) if v == 0 else math.sqrt(0.5)
            want = (au * av * math.cos(math.pi * u / 8.0)
                    * math.cos(math.pi * v / 8.0))
            assert out[u, v] == pytest.approx(want, abs=1e-12)


def test_dct2_matches_double_sum_oracle():
    rng = np.random.default_rng(3)
    x = rng.uniform(-100, 100, size=(8, 8))
    assert np.allclose(dct2(x), dct2_double_sum(x), atol=1e-10)


def test_dct2_linear():
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(16, 16))
    y = rng.uniform(size=(16, 16))
    lhs = dct2(2.5 * x - 0.7 * y)
    rhs = 2.5 * dct2(x) - 0.7 * dct2(y)
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_dct2_preserves_energy():
    x = np.random.default_rng(5).uniform(-50, 50, size=(32, 32))
    assert np.sum(dct2(x) ** 2) == pytest.approx(np.sum(x ** 2), rel=1e-12)


def test_phash_constant_image_is_zero():
    assert phash(np.full((64, 64), 200.0)) == 0
    assert phash(np.zeros((10, 10))) == 0
    # subnormal pixels: 1e-9 * max|gray| would underflow to 0, while the
    # product's rounding there is absolute and would set bits
    for level in (5e-324, -1e-315, 1e-310):
        for shape in ((8, 9), (33, 17), (64, 64)):
            assert phash(np.full(shape, level)) == 0


def test_phash_dc_bit_clear():
    rng = np.random.default_rng(6)
    for trial in range(20):
        h = phash(rng.uniform(0, 255, size=(32, 32)))
        assert h & 1 == 0


def test_phash_bit_count_with_distinct_coefficients():
    # 63 AC values, lower median at sorted index 31, strict > leaves 31 set
    # bits whenever no coefficients tie
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(20):
        img = rng.uniform(0, 255, size=(48, 48))
        block = dct2(resize_area(img, 32))[:8, :8].ravel()
        if len(np.unique(block[1:])) == 63:
            assert phash(img).bit_count() == 31
            checked += 1
    assert checked > 0


def test_phash_bit_i_is_coefficient_i_above_the_median():
    rng = np.random.default_rng(9)
    for trial in range(30):
        img = rng.uniform(0, 255, size=(int(rng.integers(8, 80)), 40))
        if trial % 3 == 0:
            img = np.rint(img / 128) * 128   # few levels, so coefficients tie
        block = dct2(resize_area(img, 32))[:8, :8].ravel()
        med = np.sort(block[1:])[31]
        want = sum(1 << i for i in range(1, HASH_BITS) if block[i] > med)
        assert phash(img) == want


def reference_phash(img):
    """The hash by its definition: area resize of the pixels in C order,
    scipy's DCT, and bit i set when block coefficient i exceeds the lower
    median of the 63 AC ones by more than 1e-9 * max|gray|."""
    gray = np.ascontiguousarray(to_grayscale(img))
    block = dct2(resize_area(gray, 32))[:8, :8].ravel()
    med = np.sort(block[1:])[31] + 1e-9 * np.abs(gray).max()
    return sum(1 << i for i in range(1, HASH_BITS) if block[i] > med)


def test_dct_rows_are_the_leading_rows_of_the_dct_matrix():
    # the 2-D DCT of an n x n impulse at (j, 0) is column j of the matrix,
    # scaled by its own row-0 entry; the double-sum oracle checks dct2
    for n, k in ((8, 8), (9, 3)):
        full = dct_rows(n, n)
        assert np.allclose(full @ full.T, np.eye(n), atol=1e-12)
        assert np.array_equal(dct_rows(n, k), full[:k])
        for j in range(n):
            impulse = np.zeros((n, n))
            impulse[j, 0] = 1.0
            assert np.allclose(dct2_double_sum(impulse)[:, 0], full[:, j] * full[0, 0],
                               atol=1e-12)
    assert not dct_rows(32, 8).flags.writeable


def test_phash_fast_path_skips_the_reference():
    rng = np.random.default_rng(11)
    for shape in ((64, 64), (8, 200), (33, 47, 3)):
        img = rng.integers(0, 256, size=shape, dtype=np.uint8)
        assert phash(img) == reference_phash(img)


@settings(max_examples=150, deadline=None, database=None)
@given(h=st.integers(8, 200), w=st.integers(8, 200), rgb=st.booleans(),
       kind=st.sampled_from(["uint8", "levels", "float", "near_flat"]),
       seed=st.integers(0, 2**32 - 1), noise_exp=st.floats(-14, -10),
       level=st.floats(-1e3, 1e3))
def test_phash_equals_the_reference_path(h, w, rgb, kind, seed, noise_exp, level):
    rng = np.random.default_rng(seed)
    shape = (h, w, 3) if rgb else (h, w)
    if kind == "uint8":
        img = rng.integers(0, 256, size=shape, dtype=np.uint8)
    elif kind == "levels":       # few grey levels, so coefficients tie
        img = (rng.integers(0, 3, size=shape) * 127).astype(np.uint8)
    elif kind == "float":
        img = rng.uniform(-300.0, 300.0, size=shape)
    else:
        img = level + 10.0 ** noise_exp * rng.standard_normal(shape)
    assert phash(img) == reference_phash(img)


def test_phash_near_flat_images_hash_to_zero():
    # a constant plus noise far below the rounding error of the product: a tolerance scaled by the AC coefficients lets rounding pick
    # the bits here, and one scaled by the pixels does not.  The noise is
    # below that tolerance too, so every coefficient ties with the median
    rng = np.random.default_rng(12)
    for shape in ((64, 64), (10, 10), (33, 47), (100, 8)):
        for noise in (1e-14, 1e-13, 1e-12, 1e-11, 1e-10):
            for level in (0.7, 128.0, 255.0, 1e4):
                img = level + noise * rng.standard_normal(shape)
                assert phash(img) == reference_phash(img) == 0


def test_phash_tied_median_sets_the_reference_bits():
    # constant along each row: every coefficient off the block's first column
    # is zero, so the median is a 56-way tie that rounding would split
    rng = np.random.default_rng(13)
    img = np.repeat(rng.uniform(0.0, 255.0, size=(50, 1)), 70, axis=1)
    assert phash(img) == reference_phash(img)


def test_phash_tied_median_of_uint8_pixels_sets_the_reference_bits():
    # as above, in uint8 and with a row of zeros: the tolerance comes from the
    # largest pixel, not the smallest, or the product's rounding picks bits
    rng = np.random.default_rng(13)
    img = np.repeat(rng.integers(1, 256, size=(50, 1)), 70, axis=1).astype(np.uint8)
    img[7] = 0
    assert phash(img) == reference_phash(img) == phash(img.astype(float))


@settings(max_examples=150, deadline=None, database=None)
@example(shape=(8, 8), kind="random", seed=0, level=0, layout="C")
@example(shape=(64, 48), kind="random", seed=1, level=0, layout="C")
@example(shape=(64, 48), kind="constant", seed=0, level=255, layout="C")
@example(shape=(8, 8), kind="constant", seed=0, level=0, layout="C")
@example(shape=(64, 64), kind="near_flat", seed=2, level=128, layout="read-only")
@example(shape=(64, 48), kind="near_flat", seed=3, level=255, layout="C")
@given(shape=st.tuples(st.integers(8, 80), st.integers(8, 80)),
       kind=st.sampled_from(["random", "constant", "near_flat", "levels"]),
       seed=st.integers(0, 2**32 - 1), level=st.integers(0, 255),
       layout=st.sampled_from(["C", "transposed", "reversed", "read-only"]))
def test_phash_of_uint8_pixels_is_the_same_by_every_route(shape, kind, seed, level, layout):
    # a 2-D uint8 array takes its own path to the float pixels and max|gray|
    rng = np.random.default_rng(seed)
    if kind == "random":
        u8 = rng.integers(0, 256, size=shape, dtype=np.uint8)
    elif kind == "levels":       # few grey levels, so coefficients tie
        u8 = (rng.integers(0, 3, size=shape) * 127).astype(np.uint8)
    else:
        u8 = np.full(shape, level, dtype=np.uint8)
        if kind == "near_flat":  # three pixels one level off
            cells = rng.choice(u8.size, size=3, replace=False)
            u8.reshape(-1)[cells] = level + 1 if level < 255 else level - 1
    if layout == "transposed":
        u8 = u8.T
    elif layout == "reversed":
        u8 = u8[::-1]
    elif layout == "read-only":  # what read_pgm returns
        u8 = np.frombuffer(u8.tobytes(), np.uint8).reshape(u8.shape)
    want = reference_phash(u8)
    assert phash(u8) == want
    assert phash(u8.astype(float)) == want
    assert phash(u8[..., None]) == want
    assert phash(u8.tolist()) == want     # a list is read in C order


def ac_gaps(img):
    """Each coefficient of the image's hash block minus the lower median of
    its 63 AC ones, on the reference path."""
    block = dct2(resize_area(np.asarray(img, np.float64), 32))[:8, :8].ravel()
    return block - np.sort(block[1:])[31]


# a flat image of any shape, C or F order, hashes to 0: on the reference
# path a coefficient within rounding of a tied median sets no bit.  The last
# two examples are three pixels one level off under a small scale and a
# large shift, where the mapped tolerance carried back is just above a gap
@settings(max_examples=100, deadline=None, database=None)
@example(shape=(8, 54), kind="flat", seed=0, level=1, shift=0.0, scale=1.0)
@example(shape=(54, 8), kind="flat", seed=0, level=1, shift=0.0, scale=1.0)
@example(shape=(33, 17), kind="flat", seed=0, level=200, shift=0.0, scale=1.0)
@example(shape=(18, 40), kind="three_pixels", seed=0, level=0, shift=444.0, scale=2**-8)
@example(shape=(23, 68), kind="three_pixels", seed=0, level=0, shift=816.0, scale=2**-9)
@given(shape=st.tuples(st.integers(8, 80), st.integers(8, 80)),
       kind=st.sampled_from(["flat", "noise", "three_pixels"]),
       seed=st.integers(0, 2**32 - 1), level=st.integers(0, 255),
       shift=st.floats(0.0, 1e3), scale=st.floats(1e-3, 1e3))
def test_phash_of_near_flat_images_ignores_layout_shift_and_scale(
        shape, kind, seed, level, shift, scale):
    rng = np.random.default_rng(seed)
    img = np.full(shape, float(level))
    if kind == "noise":          # far below the tolerance 1e-9 * level
        img += 1e-12 * level * rng.standard_normal(shape)
    elif kind == "three_pixels":  # one level off
        cells = rng.choice(img.size, size=3, replace=False)
        img.reshape(-1)[cells] += 1 if level < 255 else -1
    want = phash(img)
    assert want == 0 or kind == "three_pixels"
    # the layout and the uint8 pixels change no bit
    same = [np.asfortranarray(img)]
    if kind != "noise":
        u8 = img.astype(np.uint8)
        same += [u8, np.asfortranarray(u8)]
    for variant in same:
        assert phash(variant) == want
    # a map a * p + b changes only a bit whose gap above the median lies
    # between the image's tolerance and the mapped image's carried back to
    # the image's units, give or take the products' rounding
    gap, tol = ac_gaps(img), 1e-9 * np.abs(img).max()
    for variant, a in ((img + shift, 1.0), (scale * img, scale),
                       (np.asfortranarray(scale * img + shift), scale)):
        got = phash(variant)
        if kind != "three_pixels":
            assert got == 0
        band = sorted([tol, 1e-9 * np.abs(variant).max() / a])
        slack = 1e-3 * band[1]
        for i in range(1, HASH_BITS):
            if (got ^ want) >> i & 1:
                assert band[0] - slack <= gap[i] <= band[1] + slack


def test_phash_of_uint8_pixels_skips_the_grayscale_dispatch(monkeypatch):
    u8 = np.random.default_rng(14).integers(0, 256, size=(64, 64), dtype=np.uint8)
    want = phash(u8)
    monkeypatch.setattr(phash_module, "to_grayscale", None)
    assert phash(u8) == want


# hashes a tied-median and a near-flat image, renders a pixel of exactly
# 128.5 and runs a small pipeline with `import scipy` made to fail
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import numpy as np
from memepipe.cli import main
from memepipe.generator import _render
from memepipe.phash import phash
tied = np.repeat(np.random.default_rng(13).uniform(0.0, 255.0, size=(50, 1)), 70, axis=1)
flat = 128.0 + 1e-12 * np.random.default_rng(12).standard_normal((64, 64))
block = np.zeros((8, 8))
block[0, 0] = 128.5 * 64
print(phash(tied), phash(flat), _render(block, 0.0)[0, 0])
sys.exit(main(["--quiet", "pipeline", "--n", "60", "--models", "1", "--k", "2",
               "--no-images", "--outdir", sys.argv[1]]))
"""


def test_import_loads_no_scipy(tmp_path):
    # scipy.fft is slow to import, and only the tests' oracles need it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(memepipe.__file__)))
    code = ("import sys, memepipe.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
    out = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path / "run")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    tied = np.repeat(np.random.default_rng(13).uniform(0.0, 255.0, size=(50, 1)), 70, axis=1)
    hashes, result = out.stdout.splitlines()
    assert hashes == f"{reference_phash(tied)} 0 128"
    assert result.startswith("RESULT ")


def test_phash_affine_invariance():
    rng = np.random.default_rng(8)
    img = rng.uniform(0, 255, size=(40, 56))
    h = phash(img)
    assert phash(2.5 * img + 17.0) == h
    assert phash(0.2 * img - 40.0) == h


def test_phash_golden_values():
    # frozen regression values; a change here means the hash definition moved
    rng = np.random.default_rng(42)
    gray = rng.uniform(0.0, 255.0, size=(48, 64))
    assert hash_to_hex(phash(gray)) == "87c0d86bf08a6dd8"
    rgb = rng.uniform(0.0, 255.0, size=(40, 40, 3))
    assert hash_to_hex(phash(rgb)) == "0c8abecb13715ae4"


def test_phash_rejects_tiny_images():
    with pytest.raises(ValueError):
        phash(np.zeros((7, 64)))
    with pytest.raises(ValueError):
        phash(np.zeros((64, 5)))


def test_hamming_examples():
    assert hamming(0x1234, 0x1234) == 0
    assert hamming(0, 0xFFFFFFFFFFFFFFFE) == 63
    assert hamming(0b1100, 0b1010) == 2


def test_hex_round_trip():
    for h in (0, 1, 0xFFFFFFFFFFFFFFFF, 0x87C0D86BF08A6DD8):
        assert hex_to_hash(hash_to_hex(h)) == h
    with pytest.raises(ValueError):
        hex_to_hash("123")
    with pytest.raises(ValueError):
        hex_to_hash("zz" * 8)


def test_hash_file_round_trip(tmp_path):
    entries = [(3, 0xDEADBEEF), (1, 0), (7, 2 ** 64 - 1)]
    path = tmp_path / "hashes.csv"
    write_hashes(entries, path)
    assert read_hashes(path) == entries


def test_hash_file_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,00000000000000aa\n1,00000000000000bb\n")
    with pytest.raises(DataFormatError, match="duplicate id"):
        read_hashes(path)
    path.write_text("1,xyz\n")
    with pytest.raises(DataFormatError):
        read_hashes(path)
    path.write_text("no commas here\n")
    with pytest.raises(DataFormatError):
        read_hashes(path)


def linear_scan(hashes, radius):
    return {(i, j) for i in range(len(hashes)) for j in range(i + 1, len(hashes))
            if hamming(hashes[i], hashes[j]) <= radius}


def pair_set(hashes, radius):
    out = set()
    for i, j in near_pairs(hashes, radius):
        out.update(zip(i.tolist(), j.tolist()))
    return out


def test_index_exact_match_radius_zero():
    assert pair_set([0xABC, 0xDEF, 0xABC], 0) == {(0, 2)}


def test_index_shared_hash_keeps_all_ids():
    assert pair_set([5, 5, 5], 0) == {(0, 1), (0, 2), (1, 2)}


def test_index_radius_validation():
    with pytest.raises(ValueError):
        list(near_pairs([0], -1))
    with pytest.raises(ValueError):
        list(near_pairs([0], HASH_BITS + 1))


def test_index_equals_linear_scan_1000(monkeypatch):
    rng = np.random.default_rng(9)
    hashes = [int(v) for v in rng.integers(0, 2 ** 63, size=1000)]
    # force duplicate and near-duplicate entries into the pool
    hashes[500] = hashes[0]
    hashes[501] = hashes[0] ^ 0b111
    expected = linear_scan(hashes, 10)
    assert {(0, 500), (0, 501), (500, 501)} <= expected
    assert pair_set(hashes, 10) == expected
    # a small block makes the search span many row blocks, the last one short
    monkeypatch.setattr(phash_module, "_BLOCK_ELEMS", 3000)
    assert pair_set(hashes, 10) == expected


def test_index_equals_linear_scan_various_radii():
    rng = np.random.default_rng(10)
    hashes = [int(v) for v in rng.integers(0, 2 ** 64, size=200, dtype=np.uint64)]
    for radius in (0, 1, 5, 20, 32, HASH_BITS):
        assert pair_set(hashes, radius) == linear_scan(hashes, radius)
    assert len(pair_set(hashes, HASH_BITS)) == 200 * 199 // 2
