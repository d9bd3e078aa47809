import math
import re
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memepipe import cli, ensemble, pipeline
from memepipe.dataset import read_csv
from memepipe.ensemble import (_proba, on_grid, read_predictions,
                               read_submission, stack_equal_weight,
                               write_predictions, write_submission)
from memepipe.errors import DataFormatError
from memepipe.rules import PredictionSet


def test_stack_single_set_identity():
    ps = PredictionSet("a", {1: 0.9, 2: 0.3})
    out = stack_equal_weight([ps])
    assert out.mean_score == {1: 0.9, 2: 0.3}
    assert out.labels.tolist() == [1, 0]


def test_stack_mean_at_threshold_is_positive():
    sets = [PredictionSet("a", {1: 0.2}), PredictionSet("b", {1: 0.4}),
            PredictionSet("c", {1: 0.9})]
    out = stack_equal_weight(sets)
    assert out.mean_score[1] == pytest.approx(0.5, abs=1e-15)
    assert out.labels.tolist() == [1]


def test_stack_constant_sets():
    sets = [PredictionSet(f"m{i}", {1: 0.3, 2: 0.3}) for i in range(20)]
    out = stack_equal_weight(sets)
    assert out.mean_score == {1: 0.3, 2: 0.3}
    assert out.labels.tolist() == [0, 0]


def test_stack_order_invariant_exactly():
    rng = np.random.default_rng(40)
    ids = list(range(50))
    sets = [PredictionSet(f"m{j}", {i: float(rng.uniform()) for i in ids})
            for j in range(11)]
    fwd = stack_equal_weight(sets)
    rev = stack_equal_weight(list(reversed(sets)))
    shuffled = list(sets)
    rng.shuffle(shuffled)
    mix = stack_equal_weight(shuffled)
    # exact summation: equality must hold bit for bit
    assert fwd.mean_score == rev.mean_score == mix.mean_score


def assert_sums_are_fsums(columns):
    """Stacking's column sums equal math.fsum of each row, bit for bit."""
    want = np.array([math.fsum(row) for row in zip(*columns)], np.float64)
    got = ensemble._sums([np.array(column, np.float64) for column in columns])
    assert got.tobytes() == want.tobytes()


# a score on the nine-decimal grid, with 0, 1e-9, 0.5 and 1 drawn often
GRID_SCORES = (st.sampled_from([0, 1, 500_000_000, 10**9]) | st.integers(0, 10**9)).map(
    lambda k: k / 1e9)


@settings(max_examples=200, deadline=None, database=None)
@given(columns=st.integers(1, 8).flatmap(lambda n: st.lists(
    st.lists(GRID_SCORES, min_size=n, max_size=n), min_size=1, max_size=200)))
def test_stacked_sums_of_grid_scores_are_fsums(columns):
    assert_sums_are_fsums(columns)


@pytest.mark.parametrize("columns", [
    # a plain float sum gives 0.6000000000000001
    [[0.1], [0.2], [0.3]],
    [[0.1, 0.7, 1.0], [0.2, 0.1, 1.0], [0.3, 0.2, 1.0]],
    # 1e-12 is off the grid, below 2**-30: summed by fsum, row by row
    [[0.1], [0.2], [0.3], [1e-12]],
    # so is 2**-54: a fixed point of 2**-41 units would round 2**-108 away,
    # and then 2**-54, a tie, down to even
    [[0.5], [2.0**-54], [2.0**-108]],
    # from 4096 sets on, stacking sums by fsum again
    [[0.1]] * 4096,
])
def test_stacked_sums_are_fsums(columns):
    assert_sums_are_fsums(columns)


def test_stack_writes_labels_that_agree_with_the_written_probability(tmp_path):
    # 0.4999999996 is written as 0.500000000, so the stacked mean is 0.5 and
    # its label 1, as "label 1 iff score >= 0.5" reads the submission
    stacked = stack_equal_weight([PredictionSet("a", {1: 0.4999999996})])
    write_submission(stacked, tmp_path / "submission.csv")
    assert (tmp_path / "submission.csv").read_text() == "id,proba,label\n1,0.500000000,1\n"


def test_stack_rejects_mismatched_ids():
    sets = [PredictionSet("a", {1: 0.5}), PredictionSet("b", {2: 0.5})]
    with pytest.raises(ValueError, match="disagree"):
        stack_equal_weight(sets)


def test_stack_rejects_empty():
    with pytest.raises(ValueError):
        stack_equal_weight([])


def test_predictions_round_trip(tmp_path):
    ps = PredictionSet("sim-03", {5: 0.123456789123, 1: 0.0, 9: 1.0})
    path = tmp_path / "sim-03.csv"
    write_predictions(ps, path)
    back = read_predictions(path)
    assert back.model_id == "sim-03"
    assert set(back.scores) == set(ps.scores)
    for meme_id in ps.scores:
        assert abs(back.scores[meme_id] - ps.scores[meme_id]) <= 1e-9


def test_predictions_file_errors(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("id;proba\n")
    with pytest.raises(DataFormatError, match="header"):
        read_predictions(path)
    path.write_text("id,proba\n1,1.2\n")
    with pytest.raises(DataFormatError, match="outside"):
        read_predictions(path)
    path.write_text("id,proba\n1,0.5\n1,0.6\n")
    with pytest.raises(DataFormatError, match="duplicate"):
        read_predictions(path)
    path.write_text("id,proba\nx,0.5\n")
    with pytest.raises(DataFormatError, match="line 2"):
        read_predictions(path)


def test_predictions_parse_three_rows(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("id,proba\n1,0.25\n2,0.5\n3,0.75\n")
    ps = read_predictions(path)
    assert ps.scores == {1: 0.25, 2: 0.5, 3: 0.75}


def test_predictions_read_a_submission_without_its_labels(tmp_path):
    path = tmp_path / "stacked.csv"
    write_submission(stack_equal_weight([PredictionSet("a", {1: 0.9, 2: 0.2})]), path)
    ps = read_predictions(path)
    assert ps.model_id == "stacked"
    assert ps.scores == {1: 0.9, 2: 0.2}
    path.write_text("id,proba,label\n1,0.9,1\n2,0.2\n")
    with pytest.raises(DataFormatError, match="line 3: expected id,proba,label"):
        read_predictions(path)
    path.write_text("id,label\n1,1\n")
    with pytest.raises(DataFormatError, match="expected header 'id,proba'"):
        read_predictions(path)


def test_submission_round_trip(tmp_path):
    sets = [PredictionSet("a", {1: 0.9, 2: 0.2, 3: 0.6})]
    stacked = stack_equal_weight(sets)
    path = tmp_path / "submission.csv"
    write_submission(stacked, path)
    scores, labels = read_submission(path)
    assert labels == {1: 1, 2: 0, 3: 1}
    assert scores[2] == pytest.approx(0.2, abs=1e-9)
    assert path.read_text().splitlines()[0] == "id,proba,label"


def test_submission_subset_of_ids(tmp_path):
    stacked = stack_equal_weight([PredictionSet("a", {1: 0.9, 2: 0.2, 3: 0.6})])
    path = tmp_path / "submission.csv"
    write_submission(stacked, path, ids=[3, 1])
    scores, _ = read_submission(path)
    assert sorted(scores) == [1, 3]


def test_submission_file_errors(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("id,proba\n")
    with pytest.raises(DataFormatError, match="header"):
        read_submission(path)
    path.write_text("id,proba,label\n1,0.5,2\n")
    with pytest.raises(DataFormatError):
        read_submission(path)


def test_predictions_read_every_ascii_decimal_form(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("id,proba\n1,0.25\n2,1\n3,.5\n4,1e-05\n5,2.5E-1\n6,0.\n")
    assert read_predictions(path).scores == {1: 0.25, 2: 1.0, 3: 0.5, 4: 1e-05,
                                             5: 0.25, 6: 0.0}


def reference_bytes(scores):
    """What the per-row writer writes: the reference for the bulk formatter."""
    return "".join(["id,proba\n", *(f"{meme_id},{scores[meme_id]:.9f}\n"
                                     for meme_id in sorted(scores))]).encode()


def reference_read(path):
    """read_csv's reading of a prediction file as (id, score) pairs sorted
    by id, the order of a set, or its error, as a comparable value."""
    try:
        return sorted(read_csv(path, ("id", "proba"), _proba, ignored=("label",)).items())
    except DataFormatError as exc:
        return DataFormatError, str(exc)


def bulk_read(path):
    try:
        return list(read_predictions(path).scores.items())
    except DataFormatError as exc:
        return DataFormatError, str(exc)


def assert_matches_reference(scores, path):
    """The writer's bytes are the per-row writer's, and reading them back
    gives read_csv's pairs, or its exact error."""
    write_predictions(PredictionSet(path.stem, scores), path)
    assert path.read_bytes() == reference_bytes(scores)
    assert bulk_read(path) == reference_read(path)


@settings(max_examples=200, deadline=None, database=None)
@given(scores=st.dictionaries(st.integers(0, 2**63 - 1) | st.integers(0, 1200),
                              st.floats(0.0, 1.0), max_size=40))
def test_writer_and_reader_match_the_per_row_reference(scores):
    with tempfile.TemporaryDirectory() as tmp:
        assert_matches_reference(scores, Path(tmp) / "model.csv")


# (k + 0.5) / 1e9 sits on or next to a rounding tie of the ninth place
TIES = [(k + 0.5) / 1e9 for k in (0, 1, 7, 12345, 123456789, 499999999, 500000000,
                                  999999998, 999999999)]
NEAR_TIES = [float(np.nextafter(t, side)) for t in TIES for side in (0.0, 1.0)]
# just outside the window where `:.9f` decides, so rint(x * 1e9) rounds them
WINDOW_EDGES = [(k + 0.5 + d) / 1e9 for k in (0, 12345, 499999999, 999999998)
                for d in (-2e-6, 2e-6)]
# the ends of [0, 1], the least subnormal and the float just below 1
RANGE_EDGES = [0.0, 1.0, 5e-324, 1 - 2**-53]
# no probabilities, so no set holds them
NOT_PROBABILITIES = [float("nan"), float("inf"), float("-inf"), -1e-12, -0.5,
                     1.0 + 2**-52, 1.5]


@pytest.mark.parametrize("score", TIES + NEAR_TIES + WINDOW_EDGES + RANGE_EDGES + [-0.0]
                         + NOT_PROBABILITIES)
def test_writer_matches_the_reference_at_every_edge(tmp_path, score):
    scores, path = {3: 0.25, 10: score, 11: 0.75}, tmp_path / "p.csv"
    # either form of a set, from the mapping or from the columns
    built = (lambda: PredictionSet("p", scores),
             lambda: PredictionSet("p", ids=np.array(list(scores)), values=list(scores.values())))
    if not 0.0 <= score <= 1.0:     # NaN too
        for build in built:
            with pytest.raises(DataFormatError, match=re.escape(
                    f"p: meme 10 has score {score!r}, not a probability in [0, 1]")):
                build()
    elif np.signbit(score):     # -0.0 is held as 0.0, so written as such
        for build in built:
            ps = build()
            assert not np.signbit(ps.values).any()
            write_predictions(ps, path)
            assert path.read_bytes() == \
                b"id,proba\n3,0.250000000\n10,0.000000000\n11,0.750000000\n"
    else:
        assert_matches_reference(scores, path)


# the ids on both sides of every digit-count boundary of an int64
DIGIT_EDGES = sorted({0, 2**63 - 1, *(10**k + d for k in range(1, 19) for d in (-1, 0))})


@settings(max_examples=150, deadline=None, database=None)
@given(ids=st.sets(st.sampled_from(DIGIT_EDGES) | st.integers(0, 2**63 - 1), max_size=40),
       data=st.data())
def test_set_columns_write_and_read_back_exactly(ids, data):
    ids = sorted(ids)
    draw = st.sampled_from(TIES + NEAR_TIES + WINDOW_EDGES + [-0.0]) | st.floats(0.0, 1.0)
    scores = dict(zip(ids, data.draw(st.lists(draw, min_size=len(ids), max_size=len(ids)))))
    ps = PredictionSet("model", scores)
    assert ps.ids.tolist() == ids and ps.ids.dtype == np.int64
    assert ps.scores == scores and not np.signbit(ps.values).any()   # -0.0 held as 0.0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.csv"
        write_predictions(ps, path)
        assert path.read_bytes() == reference_bytes(ps.scores)
        back = read_predictions(path)
    assert np.array_equal(back.ids, ps.ids)
    assert np.array_equal(back.values.view(np.uint64), on_grid(ps.values).view(np.uint64))


def text_grid(scores):
    """Each score as its `:.9f` text reads back, by repr so a sign bit shows."""
    return [repr(float(f"{x:.9f}")) for x in scores]


@settings(max_examples=300, deadline=None, database=None)
@given(scores=st.lists(st.floats(0.0, 1.0) | st.sampled_from(TIES + NEAR_TIES + RANGE_EDGES),
                       max_size=40))
def test_on_grid_is_what_the_written_text_reads_back(scores):
    assert list(map(repr, on_grid(scores).tolist())) == text_grid(scores)


def test_on_grid_settles_every_tie_as_the_text_does():
    rng = np.random.default_rng(26)
    scores = [*rng.random(20000).tolist(),
              *((rng.integers(0, 10**9, 20000) + 0.5) / 1e9).tolist(),
              *TIES, *NEAR_TIES, *WINDOW_EDGES, *RANGE_EDGES]
    assert list(map(repr, on_grid(scores).tolist())) == text_grid(scores)


@pytest.mark.parametrize("ids", [[0], [9], [10], [0, 9, 10, 99, 100, 12345],
                                 [2**63 - 1], [5, 2**63 - 1], [2**63], [7, 2**63], [2**64],
                                 [-1], [-1, 4], [True], [False, 2]])
def test_writer_matches_the_reference_for_every_id(tmp_path, ids):
    scores = {meme_id: 0.125 for meme_id in ids}
    if all(type(i) is int and 0 <= i < 2**63 for i in ids):
        assert_matches_reference(scores, tmp_path / "p.csv")
    else:   # no set holds an id off the int64 column
        with pytest.raises(DataFormatError, match="below 2\\*\\*63"):
            PredictionSet("p", scores)


def test_writer_writes_an_empty_set_as_its_header(tmp_path):
    assert_matches_reference({}, tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_bytes() == b"id,proba\n"


def test_writer_memo_is_keyed_on_the_ids_and_the_tail(tmp_path):
    # the writers keep the last id column's rows: each file below changes
    # the ids' content, the row tail or both, and must match the reference
    rng = np.random.default_rng(4)
    first = PredictionSet("first", ids=np.arange(1201), values=on_grid(rng.random(1201)))
    other = PredictionSet("other", ids=np.arange(1201) * 7 + 3, values=first.values)
    stacked = ensemble.StackedPrediction("s", ids=first.ids, values=first.values)
    subset = list(range(0, 1201, 7))
    write_predictions(first, tmp_path / "first.csv")
    write_submission(stacked, tmp_path / "subset.csv", subset)
    write_predictions(other, tmp_path / "other.csv")
    write_predictions(first, tmp_path / "again.csv")
    write_submission(stacked, tmp_path / "all.csv")   # the same ids, a longer tail
    scores = first.scores
    for name, ids in (("subset", subset), ("all", range(1201))):
        assert (tmp_path / f"{name}.csv").read_bytes() == "".join(
            ["id,proba,label\n", *(f"{i},{scores[i]:.9f},{int(scores[i] >= 0.5)}\n"
                                   for i in ids)]).encode()
    for name, ps in (("first", first), ("other", other), ("again", first)):
        assert (tmp_path / f"{name}.csv").read_bytes() == reference_bytes(ps.scores)


@pytest.mark.parametrize("body", [
    b"id,proba\n1,0.500000000\n1,0.600000000\n",
    b"id,proba\n1,1.500000000\n",
    b"id,proba\n007,0.500000000\n",
    b"id,proba\n7,0.500000000\n007,0.600000000\n",
    b"id,proba\r\n1,0.250000000\r\n2,0.750000000\r\n",
    b"id,proba,label\n1,0.900000000,1\n2,0.200000000,0\n",
    b"id,proba\n" + b"9" * 5000 + b",0.500000000\n",
    b"id,proba\n2,0.250000000\n1,0.750000000",
    b"id,proba\n2,0.250000000\n\n1,0.750000000\n",
    b"id,proba\n1,0.2500000000\n",
    b"id,proba\n1,\xff.250000000\n",
    b"",
])
def test_reader_matches_read_csv_on_files_off_the_written_form(tmp_path, body):
    path = tmp_path / "p.csv"
    path.write_bytes(body)
    assert bulk_read(path) == reference_read(path)


# files in the writer's form, which the bulk path reads: 18-digit ids (the
# longest it takes), a short id before a long one, leading zeros in
# increasing ids, the ends of [0, 1]
IN_FORM = [
    b"id,proba\n" + b"9" * 18 + b",0.500000000\n",
    b"id,proba\n5,0.250000000\n123456789012345678,0.750000000\n",
    b"id,proba\n0,0.300000000\n0007,0.500000000\n000000000000000012,0.100000000\n",
    b"id,proba\n1,1.000000000\n2,0.000000000\n",
    b"id,proba\n",
]
# and files it hands to read_csv: a 19-digit id, a value above 1, an empty id,
# ids out of increasing order, a repeated id written with leading zeros, no
# final newline (after a row or after digits alone), CRLF, and a row with its
# ',' or '.' swapped out
OFF_FORM = [
    b"id,proba\n" + b"9" * 19 + b",0.500000000\n",
    b"id,proba\n5,0.250000000\n" + b"1" * 19 + b",0.750000000\n",
    b"id,proba\n1,1.000000001\n",
    b"id,proba\n,0.500000000\n",
    b"id,proba\n0007,0.500000000\n000000000000000012,0.100000000\n0,0.300000000\n",
    b"id,proba\n12,0.500000000\n0012,0.500000000\n",
    b"id,proba\n1,0.250000000",
    b"id,proba\n1,0.250000000\r\n",
    b"id,proba\n1,0.250000000\n123",
    b"id,proba\n1;0.250000000\n",
    b"id,proba\n1,0,250000000\n",
]


@pytest.mark.parametrize("body", IN_FORM + OFF_FORM)
def test_reader_matches_read_csv_at_every_edge(tmp_path, body):
    path = tmp_path / "p.csv"
    path.write_bytes(body)
    assert bulk_read(path) == reference_read(path)
    assert (ensemble._bulk_read(path) is not None) == (body in IN_FORM)


_ROW = st.tuples(st.text("0123456789", max_size=20),
                 st.sampled_from("0019") | st.text("0123456789", min_size=1, max_size=1),
                 st.sampled_from(["000000000", "999999999"])
                 | st.text("0123456789", min_size=9, max_size=9))


@settings(max_examples=150, deadline=None, database=None)
@given(rows=st.lists(_ROW, max_size=12))
def test_reader_matches_read_csv_on_any_digits_in_the_written_form(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        path.write_text("id,proba\n" + "".join(f"{i},{d}.{f}\n" for i, d, f in rows))
        assert bulk_read(path) == reference_read(path)


@settings(max_examples=150, deadline=None, database=None)
@given(ids=st.lists(st.integers(0, 10**18 - 1), max_size=12, unique=True),
       zeros=st.lists(st.integers(0, 3), min_size=12, max_size=12),
       fractions=st.lists(st.integers(0, 10**9), min_size=12, max_size=12))
def test_bulk_reader_reads_increasing_ids_as_read_csv_does(ids, zeros, fractions):
    # rows in the writer's strictly increasing id order, some ids with
    # leading zeros up to 18 digits, scores anywhere in [0, 1]: the bulk path
    # reads them all
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        path.write_text("id,proba\n" + "".join(
            f"{i:0{min(len(str(i)) + z, 18)}d},{f // 10**9}.{f % 10**9:09d}\n"
            for i, z, f in zip(sorted(ids), zeros, fractions)))
        assert ensemble._bulk_read(path) is not None
        assert bulk_read(path) == reference_read(path)


def test_reader_rejects_near_miss_rows_in_linear_time(tmp_path):
    # each row matches a pattern built from _PROBA in 8 ways, so whole-file
    # backtracking over such a pattern takes 8**40 steps
    path = tmp_path / "p.csv"
    path.write_text("id,proba\n" + "".join(f"{i},11111111\n" for i in range(40)) + "x\n")
    start = time.perf_counter()
    with pytest.raises(DataFormatError, match="line 2: malformed row"):
        read_predictions(path)
    assert time.perf_counter() - start < 1.0


def test_pipeline_output_takes_both_bulk_paths(tmp_path, monkeypatch):
    """On the README config and the prediction-heavy shape of the ensemble
    workload, every prediction file a pipeline writes reads back in bulk,
    and every set of the run shares one ids array, so a change that
    silently loses the bulk read or copies the ids fails here."""
    def no_fallback(path, *args, **kwargs):
        raise AssertionError(f"{path} was read row by row")
    runs = []
    score = pipeline.score
    monkeypatch.setattr(pipeline, "score", lambda cfg, records, structure, sets: (
        runs.append((sets, score(cfg, records, structure, sets))) or runs[-1][1]))
    for argv, n_sets in (([], 20),
                         (["--n", "1000", "--models", "8", "--k", "10", "--no-images"], 80)):
        out = tmp_path / str(n_sets)
        assert cli.main(["--quiet", "pipeline", *argv, "--outdir", str(out)]) == 0
        sets, scores = runs.pop()
        assert len(sets) == len(scores.adjusted) == n_sets
        assert all(ps.ids is sets[0].ids for ps in [*sets, *scores.adjusted, scores.final])
        with monkeypatch.context() as patch:
            patch.setattr(ensemble, "read_csv", no_fallback)
            paths = [*(out / "preds").iterdir(), *(out / "preds_adjusted").iterdir(),
                     out / "stacked.csv"]
            assert len(paths) == 2 * n_sets + 1
            for path in paths:
                assert len(read_predictions(path).ids)
