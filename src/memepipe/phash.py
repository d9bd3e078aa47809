"""Perceptual hashing and hash file IO.

The hash pipeline: grayscale -> 32x32 area resize -> orthonormal 2-D DCT-II
-> top-left 8x8 block -> sign code of the 63 AC coefficients against their
median.  The result is a 64-bit integer, row-major over the block, bit 0
(the DC position) always zero.  Hashing works on real-valued pixels; nothing
is quantized mid-pipeline, so scaling or shifting intensities leaves the
hash unchanged, save for a coefficient within the bit tolerance of the
median (see `phash`).

The resize and the DCT are both linear and only the 8x8 block is read, so
`phash` computes the block as a product of rank 8 per side:
block = P(h) @ gray @ P(w).T, where P(n) = D8 @ A(n), A(n) is the 32 x n
area-resize matrix and D8 the first 8 rows of the 32-point DCT-II matrix.
That product defines the hash.  It is within about 1e-13 of max|gray| of
the full 2-D DCT of the resized image, the tests' reference, so the two
give the same bits except for a coefficient within that rounding of
median + tol, tol = 1e-9 * max|gray|: a bit is set when its coefficient
exceeds the median by more than tol.  So coefficients tied with the median
up to rounding set none, and a flat or near-flat image hashes to 0.  The
tolerance scales with the pixels because the rounding error does: on a
near-flat image the AC coefficients are far smaller than the error of a
product over the large DC level.  The pixels are read in C order, so the
hash does not depend on their layout in memory.
max|gray| is the largest absolute grayscale value, or the smallest normal
float if that is larger: below it rounding is absolute, not relative.  For
a 2-D uint8 array, what read_pgm and the generator give, it is the max of
the uint8 pixels, the same value without an absolute-value pass over the
floats, and the pixels go to float64 without `to_grayscale`'s dispatch.
"""

import functools

import numpy as np

from .dataset import read_csv, write_lines
from .errors import ConfigError, DataFormatError

RESIZE_SIDE = 32
BLOCK_SIDE = 8
HASH_BITS = BLOCK_SIDE * BLOCK_SIDE

# a bit is set when its coefficient exceeds the median by more than this
# times max|gray|
_BIT_TOL = 1e-9
# below the smallest normal float rounding is absolute, so max|gray| counts
# as at least this and a flat image of subnormal pixels still hashes to 0
_TINY = float(np.finfo(np.float64).tiny)

# elements of one row block's XOR matrix in near_pairs (1 MB of uint64)
_BLOCK_ELEMS = 1 << 17

# ITU-R 601 luma weights, summing to 1
_LUMA_R = 0.299
_LUMA_G = 0.587
_LUMA_B = 0.114


def to_grayscale(pixels):
    """Collapse an image to a 2-D float matrix.

    Accepts H x W, H x W x 1 (passthrough) or H x W x 3 (luma weighting).
    """
    arr = np.asarray(pixels, dtype=np.float64)
    if arr.ndim == 2:
        return arr
    if arr.ndim == 3 and arr.shape[2] == 1:
        return arr[:, :, 0]
    if arr.ndim == 3 and arr.shape[2] == 3:
        return (_LUMA_R * arr[:, :, 0]
                + _LUMA_G * arr[:, :, 1]
                + _LUMA_B * arr[:, :, 2])
    raise DataFormatError(f"expected 1 or 3 channels, got shape {arr.shape}")


# bounded: a real corpus can hold many image sizes, each an n_out x n_in matrix
@functools.lru_cache(maxsize=64)
def _overlap_weights(n_in, n_out):
    # w[i, j] = fraction of output cell i covered by input cell j, so each
    # row sums to 1 and the product with a pixel column is an exact
    # area-weighted mean.  Output cell i spans [lo, lo + step) in input
    # units, lo = i * step, and overlaps input cell [j, j + 1) by the
    # interval overlap below.  The result is shared by the cache, so read-only.
    step = n_in / n_out
    lo = np.arange(n_out)[:, None] * step
    j = np.arange(n_in, dtype=np.float64)
    w = np.maximum(0.0, np.minimum(lo + step, j + 1.0) - np.maximum(lo, j)) / step
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=None)
def dct_rows(n, k):
    """The first k rows of the orthonormal n-point DCT-II matrix, k x n.

    Row u is sqrt(2/n) cos(pi (2j + 1) u / 2n) over j, and row 0 is scaled by
    1/sqrt(2).  The result is shared by the cache, so read-only.
    """
    u = np.arange(k)[:, None]
    j = np.arange(n)
    d = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * j + 1) * u / (2 * n))
    d[0] /= np.sqrt(2.0)
    d.flags.writeable = False
    return d


@functools.lru_cache(maxsize=64)
def _projection(n_in):
    # the 8 x n_in map from a pixel column to its hash-block coefficients
    p = dct_rows(RESIZE_SIDE, BLOCK_SIDE) @ _overlap_weights(n_in, RESIZE_SIDE)
    p.flags.writeable = False
    return p


def phash(img):
    """64-bit perceptual hash of an image (any 2-D/3-channel pixel array).

    Bit i (row-major over the 8x8 low-frequency DCT block) is set when that
    coefficient exceeds the median of the 63 AC coefficients by more than
    1e-9 * max|gray|.  Bit 0 is the DC position and is always zero.
    Invariant under pixel maps a*p + b with a > 0, save for a bit whose
    coefficient exceeds the median by an amount between that tolerance and
    the mapped image's, 1e-9 * max|a*gray + b|, carried back to these
    pixels' units, divided by a; the band holds give or take rounding, and
    a shift widens it, as it moves max|gray| and not the AC coefficients.
    """
    # a 2-D uint8 array, as read_pgm and the generator give, skips
    # to_grayscale's dispatch, and its max is already max|gray|
    u8 = type(img) is np.ndarray and img.dtype == np.uint8 and img.ndim == 2
    gray = img.astype(np.float64, order="C") if u8 else np.ascontiguousarray(to_grayscale(img))
    h, w = gray.shape
    if h < BLOCK_SIDE or w < BLOCK_SIDE:
        raise DataFormatError(f"degenerate image {h}x{w}: need at least "
                              f"{BLOCK_SIDE}x{BLOCK_SIDE} pixels")
    block = (_projection(h) @ gray @ _projection(w).T).ravel()
    ac = np.sort(block[1:])
    med = ac[(ac.size - 1) // 2]      # lower median; exact middle for odd counts
    tol = _BIT_TOL * max(float(img.max()) if u8 else float(np.abs(gray).max()), _TINY)
    bits = block > med + tol
    bits[0] = False
    return int.from_bytes(np.packbits(bits, bitorder="little"), "little")


def hamming(a, b):
    """Number of differing bits between two 64-bit hashes."""
    return ((a ^ b) & (2 ** HASH_BITS - 1)).bit_count()


def near_pairs(hashes, radius):
    """Yield every pair of positions i < j whose hashes differ in <= radius bits.

    Pairs come in row blocks, as two index arrays per block, so a caller can
    consume them without holding all pairs at once.
    """
    if not 0 <= radius <= HASH_BITS:
        raise ConfigError(f"radius must be in [0, {HASH_BITS}], got {radius}")
    h = np.asarray(hashes, dtype=np.uint64)
    rows = max(1, _BLOCK_ELEMS // max(len(h), 1))
    for lo in range(0, len(h), rows):
        i, j = np.nonzero(np.bitwise_count(h[lo:lo + rows, None] ^ h[lo:]) <= radius)
        keep = i < j
        yield lo + i[keep], lo + j[keep]


def hash_to_hex(h):
    return format(h, "016x")


def hex_to_hash(s):
    """Read exactly 16 ASCII hex digits: no sign, prefix, underscore or
    space, all of which int(s, 16) would take."""
    if len(s) != 16 or not set(s) <= set("0123456789abcdefABCDEF"):
        raise ValueError(f"expected 16 hex digits, got {s!r}")
    return int(s, 16)


def write_hashes(entries, path):
    """Write `id,hash_hex` lines for (meme_id, hash) pairs."""
    write_lines(path, [f"{meme_id},{hash_to_hex(h)}" for meme_id, h in entries])


def read_hashes(path):
    """Parse `id,hash_hex` lines into (meme_id, hash) pairs, in file order."""
    rows = read_csv(path, ("id", "hash_hex"), hex_to_hash, header=False)
    return list(rows.items())
