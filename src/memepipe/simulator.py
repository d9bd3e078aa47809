"""Synthetic base-model predictions with a controlled difficulty profile.

Each meme's score is logistic(separation * sign + noise), where the
separation shrinks by a discount per group kind (confounder members are
hard to tell apart) and the noise splits into a component shared by every
model and a per-model remainder.  Real base models make correlated
mistakes; without the shared part, averaging 20 models would wash the
noise out entirely.

Every draw is seeded from (seed, stream, [model], id), so scores never
depend on iteration order and adding models or memes never perturbs
existing ones.  Everything but the per-model draw depends on the run
alone: population(memes, groups, cfg) checks the labels, computes each
meme's mean (its discounted separation times the sign of its label), the
ids as seed words and the shared draw once, and each
simulate_predictions(pop, model_index) call adds one model's own draw.

Each draw equals np.random.default_rng(words).standard_normal() bit for bit,
computed in bulk: SeedSequence, PCG64 and the fast path of numpy's ziggurat
(Marsaglia & Tsang 2000) in numpy integer arithmetic, its tables read from
numpy on first use and checked on probes.  The draws off the fast path
(about 1.5%) come from one PCG64 per call, set to each draw's seeded state
and increment in turn, so numpy computes the wedge and the tail itself.
Words outside [0, 2**32) or a failed check build a Generator per draw.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataFormatError
from .rules import PredictionSet
from .tuples import ThreeTuple, TwoTuple, UnimodalHate

# separation multiplier per group kind, in precedence order: a meme in
# groups of several kinds takes the last kind's discount, others keep 1.0
DIFFICULTY_DISCOUNT = {UnimodalHate: 0.8, TwoTuple: 0.35, ThreeTuple: 0.25}


@dataclass(frozen=True)
class SimulatorConfig:
    separation_mu: float = 1.0
    sigma: float = 1.2
    # fraction of noise variance shared across models; calibrated so that
    # stacking 20 sets improves AUROC without leaving the per-model band
    noise_correlation: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not math.isfinite(self.separation_mu):
            raise ConfigError(f"separation_mu must be finite, got {self.separation_mu}")
        if not 0 < self.sigma < math.inf:
            raise ConfigError(f"sigma must be positive and finite, got {self.sigma}")
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
    """numpy's SeedSequence hashmix, on an int or a uint32 array; each call
    takes the next hash constant."""
    def hashmix(v):
        nonlocal hc
        hc, v = hc * mult & _M32, v ^ hc
        v = v * hc & _M32
        return v ^ (v >> 16)
    return hashmix


def _bulk_normals(words, wi, ki):
    """(draws, fast): default_rng(row).standard_normal() for each row of an
    (m, k <= 4) uint32 array, or of k columns, each a uint32 array of shape
    (m,) or an int that every row shares.  fast marks the draws that took the
    ziggurat's fast path."""
    cols = list(words.T) if isinstance(words, np.ndarray) else list(words)
    # a word every row shares is mixed as one Python int, not once per row;
    # the products are masked so that int and uint32 array mix alike
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(cols[i] if i < len(cols) else 0) for i in range(4)]
    for src, dst in ((s, d) for s in range(4) for d in range(4) if s != d):
        v = ((_MIX_L * pool[dst] & _M32) - (_MIX_R * hashmix(pool[src]) & _M32)) & _M32
        pool[dst] = v ^ (v >> 16)
    hashmix = _hasher(_INIT_B, _MULT_B)  # generate_state(4, np.uint64)
    w = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    s = [w[j] | (w[j + 1] << 32) for j in range(0, 8, 2)]
    # PCG64 seeding (state 0, step, add initstate, step), a step to draw, XSL-RR;
    # the first step multiplies by 1, so it and the add are one add with carry
    inc = ((s[2] << 1) | (s[3] >> 63), (s[3] << 1) | 1)
    lo = s[1] + inc[1]
    seeded = _mul_add((s[0] + inc[0] + (lo < s[1]), lo), _PCG_MULT, inc)
    hi, lo = _mul_add(seeded, _PCG_MULT, inc)
    x, rot = hi ^ lo, hi >> 58
    r = (x >> rot) | (x << ((64 - rot) & 63))
    # ziggurat fast path: strip, sign bit, then 52 bits of magnitude
    idx, rabs = (r & 0xFF).astype(np.intp), (r >> 9) & ((1 << 52) - 1)
    x = rabs.astype(np.float64) * wi[idx]
    draws, fast = np.where(r & 0x100 != 0, -x, x), rabs < ki[idx]
    if slow := np.flatnonzero(~fast).tolist():
        states, incs = ([h << 64 | l for h, l in zip(a[slow].tolist(), b[slow].tolist())]
                        for a, b in (seeded, inc))
        draws[slow] = _steered_draws(states, incs)
    return draws, fast


def _pcg64_state(state, inc):
    return {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
            "state": {"state": state, "inc": inc}}


def _steered_draws(states, incs):
    """standard_normal() of one PCG64 set to each (state, inc) in turn."""
    bg = np.random.PCG64(0)
    gen = np.random.Generator(bg)
    out = []
    for state, inc in zip(states, incs):
        bg.state = _pcg64_state(state, inc)
        out.append(gen.standard_normal())
    return out


def _read_tables():
    """numpy's ziggurat (wi, ki), read by steering a PCG64 to chosen raw
    outputs r: the pre-step state (r - 1) / MULT with inc 1 outputs r, and a
    draw took the fast path iff the state then advanced by one step only."""
    bg, inv = np.random.PCG64(), pow(_PCG_MULT, -1, 1 << 128)
    gen, wi, ki = np.random.Generator(bg), np.zeros(256), np.zeros(256, np.uint64)

    def probe(rabs, i):
        r = rabs << 9 | i
        bg.state = _pcg64_state((r - 1) * inv % (1 << 128), 1)
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
    """The tables if the bulk path matches numpy on every row of a fixed probe
    set, some of them off the fast path, else None."""
    wi, ki = _read_tables()
    for prefix in ((0, 0), (_WORD_END - 1, 1, _WORD_END - 1)):
        words = np.array([(*prefix, i) for i in range(512)], np.uint32)
        x, fast = _bulk_normals(words, wi, ki)
        want = np.array([np.random.default_rng(w).standard_normal() for w in words.tolist()])
        if fast.all() or not fast.any() or not np.array_equal(x.view(np.uint64),
                                                               want.view(np.uint64)):
            return None
    return wi, ki


def _id_words(ids):
    """The positions of the ids in [0, 2**32), and those ids as uint32."""
    pos = [j for j, i in enumerate(ids) if type(i) is int and 0 <= i < _WORD_END]
    return np.array(pos, np.intp), np.array([ids[j] for j in pos], np.uint32)


def _normals(prefix, ids, id_words=None):
    """default_rng([*prefix, id]).standard_normal() for each id, as an array;
    id_words is _id_words(ids), if the caller has it already."""
    out, done = np.empty(len(ids)), np.zeros(len(ids), bool)
    if all(type(w) is int and 0 <= w < _WORD_END for w in prefix) and (tables := _ziggurat()):
        pos, col = _id_words(ids) if id_words is None else id_words
        out[pos], done[pos] = _bulk_normals([*prefix, col], *tables)[0], True
    for j in np.flatnonzero(~done):
        out[j] = np.random.default_rng([*prefix, ids[j]]).standard_normal()
    return out


class Population(NamedTuple):
    """The model-independent part of a run's scores, one entry per meme."""

    cfg: SimulatorConfig
    ids: list
    mean: np.ndarray              # separation times the label's sign
    shared: np.ndarray            # sqrt(noise_correlation) times the shared draw
    id_words: tuple               # _id_words(ids), for every model's draw


def population(memes, groups, cfg):
    """The per-run work behind every simulate_predictions call of a run.

    memes must carry labels (the generator's recorded truth); groups drive
    the difficulty discounts.
    """
    for rec in memes:
        if rec.label is None:
            raise DataFormatError(f"meme {rec.id} has no label to condition on")
    ids = [rec.id for rec in memes]
    discounts = member_discounts(ids, groups)
    seps = np.array([cfg.separation_mu * discounts[i] for i in ids])
    signs = np.array([2 * rec.label - 1 for rec in memes], float)
    id_words = _id_words(ids)
    shared = math.sqrt(cfg.noise_correlation) * _normals((cfg.seed, 0), ids, id_words)
    return Population(cfg, ids, seps * signs, shared, id_words)


def simulate_predictions(pop, model_index):
    """One simulated model's scores for every meme of a population."""
    cfg = pop.cfg
    local = _normals((cfg.seed, 1, model_index), pop.ids, pop.id_words)
    # a sigma near the float maximum overflows z to +-inf, which the
    # logistic below maps to exactly 1 or 0
    with np.errstate(over="ignore"):
        z = pop.mean + cfg.sigma * (pop.shared + math.sqrt(1.0 - cfg.noise_correlation) * local)
    # the logistic split on sign so exp never overflows: 1 / (1 + exp(-z)) for
    # z >= 0, else e / (1 + e) with e = exp(z).  numpy's exp can differ from
    # math.exp in the last bit, so only exp is a Python call; the rest is the
    # same IEEE operations in numpy
    e = np.fromiter(map(math.exp, (-np.abs(z)).tolist()), np.float64, len(z))
    scores = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return PredictionSet(f"sim-{model_index:02d}", dict(zip(pop.ids, scores.tolist())))
