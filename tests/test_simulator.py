import dataclasses
import math
import os
import subprocess
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import memepipe
from memepipe import cli, simulator
from memepipe.dataset import MemeRecord
from memepipe.ensemble import on_grid
from memepipe.errors import DataFormatError
from memepipe.metrics import auroc
from memepipe.simulator import (SimulatorConfig, member_discounts, population,
                                simulate_predictions)
from memepipe.tuples import ThreeTuple, TwoTuple, UnimodalHate


def recs(labels):
    return [MemeRecord(id=i, img=f"{i}.pgm", text=f"t{i}", label=v,
                       split="test") for i, v in labels.items()]


def test_member_discounts_default_independent():
    assert member_discounts([1, 2], []) == {1: 1.0, 2: 1.0}


def test_member_discounts_kinds():
    groups = [ThreeTuple(1, 2, 3), TwoTuple(4, 5, "image"),
              UnimodalHate("text", 6, (6, 7))]
    discounts = member_discounts(range(1, 9), groups)
    assert discounts[1] == discounts[2] == discounts[3] == 0.25
    assert discounts[4] == discounts[5] == 0.35
    assert discounts[6] == discounts[7] == 0.8
    assert discounts[8] == 1.0


def test_member_discounts_precedence():
    # an id inside overlapping groups takes the strongest structure
    groups = [UnimodalHate("image", 1, (1, 2)), TwoTuple(1, 3, "image"),
              ThreeTuple(1, 4, 5)]
    discounts = member_discounts([1, 2, 3], groups)
    assert discounts[1] == 0.25
    assert discounts[2] == 0.8
    assert discounts[3] == 0.35


def test_member_discounts_ignores_outside_ids():
    assert member_discounts([1], [ThreeTuple(1, 2, 3)]) == {1: 0.25}


def test_simulate_deterministic():
    memes = recs({i: i % 2 for i in range(30)})
    cfg = SimulatorConfig(seed=5)
    a = simulate_predictions(population(memes, [], cfg), 0)
    b = simulate_predictions(population(memes, [], cfg), 0)
    assert a.scores == b.scores
    assert a.model_id == "sim-00"


def test_simulate_insensitive_to_record_order():
    memes = recs({i: i % 2 for i in range(30)})
    cfg = SimulatorConfig(seed=5)
    fwd = simulate_predictions(population(memes, [], cfg), 0)
    rev = simulate_predictions(population(list(reversed(memes)), [], cfg), 0)
    assert fwd.scores == rev.scores


def test_simulate_models_differ():
    memes = recs({i: i % 2 for i in range(30)})
    cfg = SimulatorConfig(seed=5)
    a = simulate_predictions(population(memes, [], cfg), 0)
    b = simulate_predictions(population(memes, [], cfg), 1)
    assert a.scores != b.scores
    assert b.model_id == "sim-01"


def test_simulate_scores_in_unit_interval():
    memes = recs({i: i % 2 for i in range(100)})
    out = simulate_predictions(population(memes, [], SimulatorConfig(seed=1)), 0)
    assert all(0.0 < v < 1.0 for v in out.scores.values())


def test_simulate_separates_labels():
    memes = recs({i: i % 2 for i in range(400)})
    cfg = SimulatorConfig(separation_mu=3.0, sigma=0.5, seed=2)
    out = simulate_predictions(population(memes, [], cfg), 0)
    pos = np.mean([out.scores[r.id] for r in memes if r.label == 1])
    neg = np.mean([out.scores[r.id] for r in memes if r.label == 0])
    assert pos > 0.8 and neg < 0.2


def test_simulate_noise_dominates_at_large_sigma():
    memes = recs({i: i % 2 for i in range(2000)})
    cfg = SimulatorConfig(separation_mu=1.0, sigma=200.0, seed=3)
    out = simulate_predictions(population(memes, [], cfg), 0)
    labels = {r.id: r.label for r in memes}
    assert auroc(out.scores, labels) == pytest.approx(0.5, abs=0.03)


def test_simulate_confounders_are_harder():
    # structure members get a shrunken separation, so with mild noise their
    # scores sit closer to 0.5 than independent memes with the same label
    labels = {i: 1 for i in range(200)}
    memes = recs(labels)
    groups = [ThreeTuple(3 * i, 3 * i + 1, 3 * i + 2) for i in range(30)]
    cfg = SimulatorConfig(sigma=0.01, seed=4)
    out = simulate_predictions(population(memes, groups, cfg), 0)
    tuple_ids = {m for g in groups for m in g.member_ids()}
    hard = np.mean([out.scores[i] for i in tuple_ids])
    easy = np.mean([out.scores[i] for i in labels if i not in tuple_ids])
    assert hard < easy


def test_simulate_requires_labels():
    memes = recs({1: 1, 2: 0})
    memes[1] = dataclasses.replace(memes[1], label=None)
    with pytest.raises(ValueError, match="no label"):
        simulate_predictions(population(memes, [], SimulatorConfig()), 0)


def test_config_validation():
    with pytest.raises(ValueError):
        SimulatorConfig(sigma=0.0)
    with pytest.raises(ValueError):
        SimulatorConfig(noise_correlation=1.5)
    for field, value in (("sigma", math.inf), ("sigma", math.nan),
                         ("separation_mu", math.inf), ("separation_mu", -math.inf),
                         ("separation_mu", math.nan)):
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            SimulatorConfig(**{field: value})
    SimulatorConfig(separation_mu=-1.0)
    with pytest.raises(ValueError, match="seed"):
        SimulatorConfig(seed=-1)


def test_raising_separation_never_hurts_any_score():
    labels = {i: i % 2 for i in range(120)}
    memes = recs(labels)
    groups = [ThreeTuple(0, 2, 4), TwoTuple(6, 8, "text")]
    lo = simulate_predictions(population(memes, groups,
                                         SimulatorConfig(separation_mu=0.7, seed=9)), 0)
    hi = simulate_predictions(population(memes, groups,
                                         SimulatorConfig(separation_mu=1.9, seed=9)), 0)
    # same seed and model, so the noise draws are shared
    for i, y in labels.items():
        if y == 1:
            assert hi.scores[i] >= lo.scores[i]
        else:
            assert hi.scores[i] <= lo.scores[i]


def test_three_tuple_members_discriminate_worse_than_independent():
    labels = {}
    groups = []
    for t in range(40):
        base = 6 * t
        groups.append(ThreeTuple(base, base + 1, base + 2))
        labels[base], labels[base + 1], labels[base + 2] = 1, 0, 0
        labels[base + 3], labels[base + 4], labels[base + 5] = 1, 0, 0
    memes = recs(labels)
    tuple_ids = {m for g in groups for m in g.member_ids()}
    free_ids = set(labels) - tuple_ids
    hard, easy = [], []
    for seed in range(20):
        out = simulate_predictions(population(memes, groups, SimulatorConfig(seed=seed)), 0)
        hard.append(auroc({i: out.scores[i] for i in tuple_ids},
                          {i: labels[i] for i in tuple_ids}))
        easy.append(auroc({i: out.scores[i] for i in free_ids},
                          {i: labels[i] for i in free_ids}))
    assert np.mean(hard) < np.mean(easy)


def test_rule1_does_not_reach_the_simulator(tmp_path):
    # rule 1 overwrites its three-tuples' scores after stacking and feeds
    # retraining through the pseudo-label files; the simulated sets are the
    # same whether it is on or off
    args = ["--quiet", "pipeline", "--n", "300", "--seed", "3", "--models", "1",
            "--no-images"]
    assert cli.main(args + ["--outdir", str(tmp_path / "on")]) == 0
    assert cli.main(args + ["--no-rule1", "--outdir", str(tmp_path / "off")]) == 0
    for folder in ("preds", "preds_adjusted"):
        on = sorted((tmp_path / "on" / folder).iterdir())
        off = sorted((tmp_path / "off" / folder).iterdir())
        assert [p.name for p in on] == [p.name for p in off] and on
        assert [p.read_bytes() for p in on] == [p.read_bytes() for p in off]


def _reference_scores(memes, cfg, model_index):
    # the simulator's formula with list-seeded generators, one shared and one
    # per-model draw for every score
    rho = cfg.noise_correlation
    out = {}
    for rec in memes:
        shared = np.random.default_rng([cfg.seed, 0, rec.id]).standard_normal()
        local = np.random.default_rng(
            [cfg.seed, 1, model_index, rec.id]).standard_normal()
        noise = cfg.sigma * (math.sqrt(rho) * shared + math.sqrt(1.0 - rho) * local)
        z = cfg.separation_mu * (2 * rec.label - 1) + noise
        if z >= 0.0:
            out[rec.id] = 1.0 / (1.0 + math.exp(-z))
        else:
            out[rec.id] = math.exp(z) / (1.0 + math.exp(z))
    return out


def assert_matches_reference(memes, cfg, model_index):
    # the set is the reference on the prediction files' grid, and with the
    # grid pass taken out its raw scores equal the reference bit for bit
    want = _reference_scores(memes, cfg, model_index)
    pop = population(memes, [], cfg)
    assert simulate_predictions(pop, model_index).scores == \
        dict(zip(want, on_grid(list(want.values()))))
    with mock.patch.object(simulator, "on_grid", lambda x: x):
        assert simulate_predictions(pop, model_index).scores == want


# ids and seeds on both sides of 2**32, where the uint32 entropy stops fitting
@pytest.mark.parametrize("seed", [0, 7, 2**40])
@pytest.mark.parametrize("model_index", [0, 3])
def test_simulate_matches_list_seeded_reference(seed, model_index):
    memes = recs({0: 1, 1: 0, 2**32 - 1: 1, 2**32: 0, 2**33 + 7: 1})
    assert_matches_reference(memes, SimulatorConfig(seed=seed), model_index)


def test_simulate_rejects_negative_id_as_numpy_does():
    # population takes any record-like object, and a MemeRecord cannot hold id -1
    memes = [SimpleNamespace(id=-1, img="x.pgm", text="t", label=1, split="test")]
    with pytest.raises(ValueError, match="non-negative"):
        population(memes, [], SimulatorConfig())


# the three seed-word shapes: the shared draw, a per-model draw, and a seed
# and model at the top of the uint32 range
@pytest.mark.parametrize("prefix", [(7, 0), (7, 1, 3), (2**32 - 1, 1, 2**32 - 2)])
def test_bulk_draws_match_numpy_bit_for_bit(prefix):
    ids = list(range(50_000))
    tables = simulator._ziggurat()
    assert tables is not None
    words = np.array([(*prefix, i) for i in ids], np.uint32)
    fast_x, fast = simulator._bulk_normals(list(words.T), *tables)
    want = np.array([np.random.default_rng([*prefix, i]).standard_normal() for i in ids])
    got = simulator._normals(prefix, ids)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(fast_x[fast].view(np.uint64), want[fast].view(np.uint64))
    slow = np.flatnonzero(~fast)
    assert 0 < len(slow) < 0.03 * len(ids)
    # the ziggurat strip is the low byte of the first raw output; strip 1
    # has ki = 0, so none of its draws can take the fast path
    strips = {int(np.random.PCG64([*prefix, int(i)]).random_raw()) & 0xFF for i in slow}
    assert 1 in strips


@pytest.fixture
def fresh_tables():
    simulator._ziggurat.cache_clear()
    yield
    simulator._ziggurat.cache_clear()


def test_corrupted_table_falls_back_to_numpy(monkeypatch, fresh_tables):
    read = simulator._read_tables

    def off_by_one_ulp():
        wi, ki = read()
        wi[100] = np.nextafter(wi[100], 1.0)
        return wi, ki

    monkeypatch.setattr(simulator, "_read_tables", off_by_one_ulp)
    assert simulator._ziggurat() is None

    def never(*args):
        raise AssertionError("bulk path used after a failed self-check")

    monkeypatch.setattr(simulator, "_bulk_normals", never)
    assert_matches_reference(recs({i: i % 2 for i in range(300)}), SimulatorConfig(seed=11), 2)


def test_normals_build_no_generator_per_draw(monkeypatch):
    # the draws off the fast path come from one steered PCG64 per call; these
    # 50k ids have such draws in strip 0 (the tail) and in wedge strips
    prefix, ids = (7, 1, 3), list(range(50_000))
    tables = simulator._ziggurat()
    assert tables is not None
    words = np.array([(*prefix, i) for i in ids], np.uint32)
    _, fast = simulator._bulk_normals(list(words.T), *tables)
    strips = {int(np.random.PCG64([*prefix, int(i)]).random_raw()) & 0xFF
              for i in np.flatnonzero(~fast)}
    assert 0 in strips and strips - {0}
    want = np.array([np.random.default_rng([*prefix, i]).standard_normal() for i in ids])

    def no_generator(*args):
        raise AssertionError("a Generator was built for an in-range draw")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    assert np.array_equal(simulator._normals(prefix, ids).view(np.uint64),
                          want.view(np.uint64))


def test_corrupted_steer_falls_back_to_numpy(monkeypatch, fresh_tables):
    steer = simulator._steered_draws
    monkeypatch.setattr(simulator, "_steered_draws",
                        lambda states, incs: steer([s ^ 1 for s in states], incs))
    assert simulator._ziggurat() is None

    def never(*args):
        raise AssertionError("bulk path used after a failed self-check")

    monkeypatch.setattr(simulator, "_bulk_normals", never)
    assert_matches_reference(recs({i: i % 2 for i in range(300)}), SimulatorConfig(seed=11), 2)


# a zero separation with the least sigma gives signed zeros; a huge sigma, infinities
@pytest.mark.parametrize("separation_mu, sigma", [(0.0, 5e-324), (1.0, 1e308), (-1.0, 1e308)])
def test_logistic_matches_the_scalar_formula_at_the_edges(separation_mu, sigma):
    memes = recs({i: i % 2 for i in range(200)})
    cfg = SimulatorConfig(separation_mu=separation_mu, sigma=sigma, seed=5)
    with np.errstate(over="ignore"):   # sigma times a draw overflows to +-inf
        got = simulate_predictions(population(memes, [], cfg), 1).scores
    want = _reference_scores(memes, cfg, 1)
    assert {0.0, 1.0} <= set(want.values()) if sigma > 1 else 0.5 in want.values()
    assert list(got) == list(want)
    assert np.array_equal(np.array(list(got.values())).view(np.uint64),
                          np.array(list(want.values())).view(np.uint64))
    assert {type(v) for v in got.values()} == {float}
    values = np.array(list(got.values()))   # probabilities, none with a sign bit
    assert np.all((values >= 0.0) & (values <= 1.0)) and not np.signbit(values).any()


_WORDS = st.integers(0, 2**32 - 1) | st.sampled_from([0, 1, 2**31, 2**32 - 2, 2**32 - 1])


@settings(max_examples=60, deadline=None, database=None)
@given(seed=_WORDS, model_index=_WORDS,
       ids=st.lists(_WORDS, min_size=1, max_size=20, unique=True),
       big_ids=st.lists(st.integers(2**32, 2**63 - 1), max_size=3, unique=True),
       too_big=st.integers(2**63, 2**70))
def test_simulate_matches_reference_for_any_words(seed, model_index, ids, big_ids, too_big):
    assert_matches_reference(recs({i: i % 2 for i in ids + big_ids}),
                             SimulatorConfig(seed=seed), model_index)
    # an id past int64 is no meme id
    with pytest.raises(DataFormatError, match="below 2\\*\\*63"):
        population(recs({i: i % 2 for i in ids + [too_big]}), [], SimulatorConfig(seed=seed))


def test_import_reads_no_ziggurat_tables():
    # perfbench's setup_s times this import; the tables are built on first use
    code = ("import memepipe.cli, memepipe.simulator as s; "
            "print(s._ziggurat.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(memepipe.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "0"


def test_sigma_near_the_float_maximum_saturates_without_a_warning(tmp_path):
    # sigma times a draw overflows to +-inf, which the logistic maps to 0 or
    # 1: the files are those of a sigma large enough to saturate every score,
    # and no RuntimeWarning is raised (warnings are errors here)
    runs = {}
    for sigma in ("1e308", "1e6"):
        out = tmp_path / sigma
        assert cli.main(["--quiet", "pipeline", "--n", "200", "--models", "1", "--k", "2",
                         "--no-images", "--sigma", sigma, "--outdir", str(out)]) == 0
        runs[sigma] = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*")
                       if p.is_file() and p.name != "run_manifest.json"}
    assert runs["1e308"] == runs["1e6"]
    rows = runs["1e308"]["preds/sim-00.csv"].decode().split()[1:]
    values = [row.split(",")[1] for row in rows]
    assert (values.count("0.000000000"), values.count("1.000000000")) == (112, 88)
