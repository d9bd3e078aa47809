"""Synthetic base-model predictions with a controlled difficulty profile.

Each meme's score is logistic(separation * sign + noise), where the
separation shrinks by a discount per group kind (confounder members are
hard to tell apart), grows by a boost for pseudo-labeled ids (modeling the
gain from retraining on merged pseudo-labels), and the noise splits into a
component shared by every model and a per-model remainder.  Real base
models make correlated mistakes; without the shared part, averaging 20
models would wash the noise out entirely.

Every draw is seeded from (seed, stream, [model], id), so scores never
depend on iteration order and adding models or memes never perturbs
existing ones.  The shared draw depends on (seed, id) alone, so a run of
many models makes it once per meme (shared_noise) and hands it to each
simulate_predictions call.

Each draw equals np.random.default_rng(words).standard_normal() bit for bit,
computed in bulk: SeedSequence, PCG64 and the fast path of numpy's ziggurat
(Marsaglia & Tsang 2000) in numpy integer arithmetic, its tables read from
numpy on first use and checked on probes.  Other draws (about 1.5%), words
outside [0, 2**32) or a failed check build a Generator each (16 us).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError
from .rules import PredictionSet
from .tuples import ThreeTuple, TwoTuple, UnimodalHate

# separation multiplier per group kind, in precedence order: a meme in
# groups of several kinds takes the last kind's discount, others keep 1.0
DIFFICULTY_DISCOUNT = {UnimodalHate: 0.8, TwoTuple: 0.35, ThreeTuple: 0.25}


@dataclass
class SimulatorConfig:
    separation_mu: float = 1.0
    sigma: float = 1.2
    pseudo_label_boost: float = 3.0
    # fraction of noise variance shared across models; calibrated so that
    # stacking 20 sets improves AUROC without leaving the per-model band
    noise_correlation: float = 0.9
    seed: int = 0

    def validate(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # `not x > 0` rather than `x <= 0`, so that NaN is rejected too
        if not self.sigma > 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if not self.pseudo_label_boost > 0:
            raise ConfigError("pseudo_label_boost must be positive")
        if not 0.0 <= self.noise_correlation <= 1.0:
            raise ConfigError("noise_correlation must be in [0, 1]")


def member_discounts(ids, groups):
    """Difficulty discount per meme id: ThreeTuple membership wins over
    TwoTuple, which wins over UnimodalHate; everything else is 1.0."""
    discounts = dict.fromkeys(ids, 1.0)
    for kind, discount in DIFFICULTY_DISCOUNT.items():
        for g in groups:
            if isinstance(g, kind):
                for meme_id in g.member_ids():
                    if meme_id in discounts:
                        discounts[meme_id] = discount
    return discounts


def _logistic(z):
    # split on sign so exp never overflows
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


_WORD_END = 1 << 32  # seed words below it can take the bulk path
# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT, _M32 = (2549297995355413924 << 64) + 4865540595714422341, (1 << 32) - 1


def _mul_add(a, c, b):
    """a * c + b mod 2**128, with a and b as (hi, lo) uint64 limbs and c an int."""
    (hi, lo), (ch, cl) = a, map(np.uint64, divmod(c % (1 << 128), 1 << 64))
    a1, a0, b1, b0 = lo >> 32, lo & _M32, cl >> np.uint64(32), cl & np.uint64(_M32)
    p01, p10 = a0 * b1, a1 * b0  # lo * cl's high word from 32-bit products
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    top = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    low = lo * cl + b[1]
    return top + lo * ch + hi * cl + b[0] + (low < b[1]), low


def _hasher(hc, mult):
    def hashmix(v):
        nonlocal hc
        hc, v = hc * mult & _M32, v ^ hc
        v = v * np.uint32(hc)
        return v ^ (v >> 16)
    return hashmix


def _bulk_normals(words, wi, ki):
    """(draws, fast): default_rng(row).standard_normal() for each row of an
    (m, k <= 4) uint32 array, valid where fast is True."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[:, i] if i < words.shape[1] else np.zeros(len(words), np.uint32))
            for i in range(4)]
    for src, dst in ((s, d) for s in range(4) for d in range(4) if s != d):
        v = np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * hashmix(pool[src])
        pool[dst] = v ^ (v >> 16)
    hashmix = _hasher(_INIT_B, _MULT_B)  # generate_state(4, np.uint64)
    w = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    s = [w[j] | (w[j + 1] << 32) for j in range(0, 8, 2)]
    # PCG64 seeding (state 0, step, add initstate, step), a step to draw, XSL-RR
    inc = ((s[2] << 1) | (s[3] >> 63), (s[3] << 1) | 1)
    hi, lo = _mul_add(_mul_add(_mul_add((s[0], s[1]), 1, inc), _PCG_MULT, inc), _PCG_MULT, inc)
    x, rot = hi ^ lo, hi >> 58
    r = (x >> rot) | (x << ((64 - rot) & 63))
    # ziggurat fast path: strip, sign bit, then 52 bits of magnitude
    idx, rabs = (r & 0xFF).astype(np.intp), (r >> 9) & ((1 << 52) - 1)
    x = rabs.astype(np.float64) * wi[idx]
    return np.where(r & 0x100 != 0, -x, x), rabs < ki[idx]


def _read_tables():
    """numpy's ziggurat (wi, ki), read by steering a PCG64 to chosen raw
    outputs r: the pre-step state (r - 1) / MULT with inc 1 outputs r, and a
    draw took the fast path iff the state then advanced by one step only."""
    bg, inv = np.random.PCG64(), pow(_PCG_MULT, -1, 1 << 128)
    gen, wi, ki = np.random.Generator(bg), np.zeros(256), np.zeros(256, np.uint64)

    def probe(rabs, i):
        r = rabs << 9 | i
        bg.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                    "state": {"state": (r - 1) * inv % (1 << 128), "inc": 1}}
        x = gen.standard_normal()
        return bg.state["state"]["state"] == r, x

    for i in range(256):
        ok, x = probe(1, i)
        wi[i] = x if ok else 0.0
        k = round(wi[i - 1] / x * 2**52) if i and ok and wi[i - 1] else 0
        lo, hi = (k, k) if k and probe(k - 1, i)[0] and not probe(k, i)[0] else (0, 1 << 52)
        while lo < hi:  # binary search for the least rabs off the fast path
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if probe(mid, i)[0] else (lo, mid)
        ki[i] = lo
    return wi, ki


@functools.cache
def _ziggurat():
    """The tables if the bulk path matches numpy on a fixed probe set, else None."""
    wi, ki = _read_tables()
    for prefix in ((0, 0), (_WORD_END - 1, 1, _WORD_END - 1)):
        words = np.array([(*prefix, i) for i in range(512)], np.uint32)
        x, fast = _bulk_normals(words, wi, ki)
        want = np.array([np.random.default_rng(w).standard_normal()
                         for w in words[fast].tolist()])
        if not fast.any() or not np.array_equal(x[fast].view(np.uint64), want.view(np.uint64)):
            return None
    return wi, ki


def _normals(prefix, ids):
    """default_rng([*prefix, id]).standard_normal() for each id, as an array."""
    out, done = np.empty(len(ids)), np.zeros(len(ids), bool)
    if all(type(w) is int and 0 <= w < _WORD_END for w in prefix) and (tables := _ziggurat()):
        pos = np.array([j for j, i in enumerate(ids) if type(i) is int and 0 <= i < _WORD_END],
                       np.intp)
        words = np.empty((len(pos), len(prefix) + 1), np.uint32)
        words[:, :-1], words[:, -1] = prefix, [ids[j] for j in pos]
        out[pos], done[pos] = _bulk_normals(words, *tables)
    for j in np.flatnonzero(~done):
        out[j] = np.random.default_rng([*prefix, ids[j]]).standard_normal()
    return out


def shared_noise(cfg, ids):
    """The model-shared standard normal draw of each id, keyed by id.

    It depends on cfg.seed and the id alone, so one call serves every
    simulate_predictions call of a run that uses the same seed.
    """
    ids = list(ids)
    return dict(zip(ids, _normals((cfg.seed, 0), ids).tolist()))


def simulate_predictions(memes, groups, pseudo, cfg, model_index, shared=None):
    """One simulated model's scores for every meme.

    memes must carry labels (the generator's recorded truth); groups drive
    the difficulty discounts; pseudo (optional) marks ids whose separation
    gets the pseudo-label boost.  shared, if given, is shared_noise(cfg, ids)
    for the same seed and covers every meme; without it the draws are made
    here.
    """
    cfg.validate()
    for rec in memes:
        if rec.label is None:
            raise DataFormatError(f"meme {rec.id} has no label to condition on")
    ids = [rec.id for rec in memes]
    discounts = member_discounts(ids, groups)
    pseudo_ids = set() if pseudo is None else set(pseudo.labels)
    if shared is None:
        shared = shared_noise(cfg, ids)
    seps = np.array([cfg.separation_mu * discounts[i]
                     * (cfg.pseudo_label_boost if i in pseudo_ids else 1.0) for i in ids])
    signs = np.array([2 * rec.label - 1 for rec in memes], float)
    local = _normals((cfg.seed, 1, model_index), ids)
    # float64 arrays in the scalar formula's order give the same bits, but
    # numpy's exp can differ from math.exp in the last bit, so _logistic stays
    noise = cfg.sigma * (math.sqrt(cfg.noise_correlation) * np.array([shared[i] for i in ids])
                         + math.sqrt(1.0 - cfg.noise_correlation) * local)
    z = seps * signs + noise
    scores = {meme_id: _logistic(v) for meme_id, v in zip(ids, z.tolist())}
    return PredictionSet(f"sim-{model_index:02d}", scores)
