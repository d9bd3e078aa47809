"""Perceptual hashing and hash file IO.

The hash pipeline: grayscale -> 32x32 area resize -> orthonormal 2-D DCT-II
-> top-left 8x8 block -> sign code of the 63 AC coefficients against their
median.  The result is a 64-bit integer, row-major over the block, bit 0
(the DC position) always zero.  Hashing works on real-valued pixels; nothing
is quantized mid-pipeline, so scaling or shifting intensities leaves the
hash unchanged.
"""

import functools

import numpy as np
from scipy.fft import dctn

from .dataset import read_csv
from .errors import ConfigError, DataFormatError

RESIZE_SIDE = 32
BLOCK_SIDE = 8
HASH_BITS = BLOCK_SIDE * BLOCK_SIDE

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
    # area-weighted mean.  The result is shared by the cache, so read-only.
    step = n_in / n_out
    w = np.zeros((n_out, n_in))
    for i in range(n_out):
        lo = i * step
        hi = lo + step
        j0 = int(np.floor(lo))
        j1 = min(int(np.ceil(hi)), n_in)
        for j in range(j0, j1):
            w[i, j] = min(hi, j + 1.0) - max(lo, float(j))
    w /= step
    w.flags.writeable = False
    return w


def resize_area(m, s):
    """Resize a 2-D matrix to s x s by exact area-weighted averaging."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"need a non-empty 2-D matrix, got shape {m.shape}")
    if s < 1:
        raise ValueError(f"target side must be >= 1, got {s}")
    wr = _overlap_weights(m.shape[0], s)
    wc = _overlap_weights(m.shape[1], s)
    return wr @ m @ wc.T


def dct2(m):
    """Orthonormal 2-D DCT-II.  Energy-preserving; a constant c maps to c*s at (0,0)."""
    return dctn(np.asarray(m, dtype=np.float64), type=2, norm="ortho")


def phash(img):
    """64-bit perceptual hash of an image (any 2-D/3-channel pixel array).

    Bit i (row-major over the 8x8 low-frequency DCT block) is set when that
    coefficient exceeds the median of the 63 AC coefficients.  Bit 0 is the
    DC position and is always zero.  Invariant under pixel maps a*p + b with
    a > 0.
    """
    gray = to_grayscale(img)
    h, w = gray.shape
    if h < BLOCK_SIDE or w < BLOCK_SIDE:
        raise DataFormatError(f"degenerate image {h}x{w}: need at least "
                              f"{BLOCK_SIDE}x{BLOCK_SIDE} pixels")
    small = resize_area(gray, RESIZE_SIDE)
    block = dct2(small)[:BLOCK_SIDE, :BLOCK_SIDE].ravel()
    ac = np.sort(block[1:])
    med = ac[(ac.size - 1) // 2]  # lower median; exact middle for odd counts
    bits = 0
    for i in range(1, HASH_BITS):
        if block[i] > med:
            bits |= 1 << i
    return bits


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
    s = s.strip()
    if len(s) != 16 or s.startswith("-"):
        raise ValueError(f"expected 16 hex digits, got {s!r}")
    return int(s, 16)


def write_hashes(entries, path):
    """Write `id,hash_hex` lines for (meme_id, hash) pairs."""
    with open(path, "w", encoding="utf-8") as fh:
        for meme_id, h in entries:
            fh.write(f"{meme_id},{hash_to_hex(h)}\n")


def read_hashes(path):
    """Parse `id,hash_hex` lines into (meme_id, hash) pairs, in file order."""
    rows = read_csv(path, ("id", "hash_hex"),
                    lambda meme_id, h: (int(meme_id), hex_to_hash(h)), header=False)
    return list(rows.items())
