"""Synthetic base-model predictions with a controlled difficulty profile.

Each meme's score is logistic(separation * sign + noise), where the
separation shrinks by a per-category discount (confounder members are hard
to tell apart), grows by a boost for pseudo-labeled ids (modeling the gain
from retraining on merged pseudo-labels), and the noise splits into a
component shared by every model and a per-model remainder.  Real base
models make correlated mistakes; without the shared part, averaging 20
models would wash the noise out entirely.

Every draw is seeded from (seed, stream, [model], id), so scores never
depend on iteration order and adding models or memes never perturbs
existing ones.  The shared draw depends on (seed, id) alone, so a run of
many models makes it once per meme (shared_noise) and hands it to each
simulate_predictions call.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .rules import PredictionSet
from .tuples import ThreeTuple, TwoTuple, UnimodalHate

CATEGORY_THREE = "three_tuple"
CATEGORY_TWO = "two_tuple"
CATEGORY_UNIMODAL = "unimodal"
CATEGORY_INDEPENDENT = "independent"

DEFAULT_DISCOUNTS = {
    CATEGORY_THREE: 0.25,
    CATEGORY_TWO: 0.35,
    CATEGORY_UNIMODAL: 0.8,
    CATEGORY_INDEPENDENT: 1.0,
}


@dataclass
class SimulatorConfig:
    separation_mu: float = 1.0
    sigma: float = 1.2
    difficulty_discount: dict = field(
        default_factory=lambda: dict(DEFAULT_DISCOUNTS))
    pseudo_label_boost: float = 3.0
    # fraction of noise variance shared across models; calibrated so that
    # stacking 20 sets improves AUROC without leaving the per-model band
    noise_correlation: float = 0.9
    seed: int = 0

    def validate(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.pseudo_label_boost <= 0:
            raise ValueError("pseudo_label_boost must be positive")
        if not 0.0 <= self.noise_correlation <= 1.0:
            raise ValueError("noise_correlation must be in [0, 1]")
        for key in DEFAULT_DISCOUNTS:
            if key not in self.difficulty_discount:
                raise ValueError(f"difficulty_discount is missing {key!r}")
            if self.difficulty_discount[key] < 0:
                raise ValueError(f"discount for {key!r} must be >= 0")


def member_categories(ids, groups):
    """Difficulty category per meme id.

    ThreeTuple membership wins over TwoTuple, which wins over UnimodalHate;
    everything else is independent.
    """
    cats = {meme_id: CATEGORY_INDEPENDENT for meme_id in ids}
    by_kind = ((UnimodalHate, CATEGORY_UNIMODAL), (TwoTuple, CATEGORY_TWO),
               (ThreeTuple, CATEGORY_THREE))
    for kind, cat in by_kind:
        for g in groups:
            if isinstance(g, kind):
                for meme_id in g.member_ids():
                    if meme_id in cats:
                        cats[meme_id] = cat
    return cats


def _logistic(z):
    # split on sign so exp never overflows
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


_WORD_END = 1 << 32


def _rng(*words):
    """np.random.default_rng(list(words)), built faster where it can be.

    When every word is an int in [0, 2**32), a uint32 array is numpy's fast
    path to the same SeedSequence, so the stream is identical.  Any other
    word keeps the list form: numpy splits an int >= 2**32 into 32-bit words
    and rejects a negative one with ValueError, as it always has.
    """
    if all(type(w) is int and 0 <= w < _WORD_END for w in words):
        return np.random.default_rng(np.array(words, dtype=np.uint32))
    return np.random.default_rng(list(words))


def shared_noise(cfg, ids):
    """The model-shared standard normal draw of each id, keyed by id.

    It depends on cfg.seed and the id alone, so one call serves every
    simulate_predictions call of a run that uses the same seed.
    """
    return {meme_id: _rng(cfg.seed, 0, meme_id).standard_normal() for meme_id in ids}


def simulate_predictions(memes, groups, pseudo, cfg, model_index, shared=None):
    """One simulated model's scores for every meme.

    memes must carry labels (the generator's recorded truth); groups drive
    the difficulty category; pseudo (optional) marks ids whose separation
    gets the pseudo-label boost.  shared, if given, is shared_noise(cfg, ids)
    for the same seed and covers every meme; without it the draws are made
    here.
    """
    cfg.validate()
    for rec in memes:
        if rec.label is None:
            raise ValueError(f"meme {rec.id} has no label to condition on")
    cats = member_categories([rec.id for rec in memes], groups)
    pseudo_ids = set() if pseudo is None else set(pseudo.labels)
    if shared is None:
        shared = shared_noise(cfg, [rec.id for rec in memes])
    shared_weight = math.sqrt(cfg.noise_correlation)
    local_weight = math.sqrt(1.0 - cfg.noise_correlation)
    scores = {}
    for rec in memes:
        sep = cfg.separation_mu * cfg.difficulty_discount[cats[rec.id]]
        if rec.id in pseudo_ids:
            sep *= cfg.pseudo_label_boost
        local = _rng(cfg.seed, 1, model_index, rec.id).standard_normal()
        noise = cfg.sigma * (shared_weight * shared[rec.id] + local_weight * local)
        z = sep * (2 * rec.label - 1) + noise
        scores[rec.id] = _logistic(z)
    return PredictionSet(f"sim-{model_index:02d}", scores)
