import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memepipe import cli, ensemble
from memepipe.dataset import read_csv
from memepipe.ensemble import (_bulk_rows, _proba, on_grid, read_predictions,
                               read_submission, stack_equal_weight,
                               write_predictions, write_submission)
from memepipe.errors import DataFormatError
from memepipe.rules import PredictionSet


def test_stack_single_set_identity():
    ps = PredictionSet("a", {1: 0.9, 2: 0.3})
    out = stack_equal_weight([ps])
    assert out.mean_score == {1: 0.9, 2: 0.3}
    assert out.label == {1: 1, 2: 0}


def test_stack_mean_at_threshold_is_positive():
    sets = [PredictionSet("a", {1: 0.2}), PredictionSet("b", {1: 0.4}),
            PredictionSet("c", {1: 0.9})]
    out = stack_equal_weight(sets)
    assert out.mean_score[1] == pytest.approx(0.5, abs=1e-15)
    assert out.label[1] == 1


def test_stack_constant_sets():
    sets = [PredictionSet(f"m{i}", {1: 0.3, 2: 0.3}) for i in range(20)]
    out = stack_equal_weight(sets)
    assert out.mean_score == {1: 0.3, 2: 0.3}
    assert out.label == {1: 0, 2: 0}


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
    """read_csv's reading of a prediction file, or its error, as a comparable value."""
    try:
        return list(read_csv(path, ("id", "proba"), _proba, ignored=("label",)).items())
    except DataFormatError as exc:
        return DataFormatError, str(exc)


def bulk_read(path):
    try:
        return list(read_predictions(path).scores.items())
    except DataFormatError as exc:
        return DataFormatError, str(exc)


def assert_matches_reference(scores, path):
    """The writer's bytes are the per-row writer's, and reading them back
    gives read_csv's result, key order included, or its exact error."""
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
OFF_RANGE = [0.0, 1.0, -0.0, float("nan"), float("inf"), float("-inf"), -1e-12,
             -0.5, 1.0 + 2**-52, 1.5, 5e-324, 1 - 2**-53]


@pytest.mark.parametrize("score", TIES + NEAR_TIES + WINDOW_EDGES + OFF_RANGE)
def test_writer_matches_the_reference_at_every_edge(tmp_path, score):
    assert_matches_reference({3: 0.25, 10: score, 11: 0.75}, tmp_path / "p.csv")


def test_bulk_formatter_takes_scores_off_the_tie_window():
    scores = WINDOW_EDGES + TIES + NEAR_TIES
    assert _bulk_rows(list(range(len(scores))), scores) is not None
    for score in [-0.0, float("nan"), 1.5, 1]:
        assert _bulk_rows([1], [score]) is None


def text_grid(scores):
    """Each score as its `:.9f` text reads back, by repr so -0.0 and nan compare."""
    return [repr(float(f"{x:.9f}")) for x in scores]


@settings(max_examples=300, deadline=None, database=None)
@given(scores=st.lists(st.floats(0.0, 1.0) | st.sampled_from(TIES + NEAR_TIES)
                       | st.floats(allow_nan=True), max_size=40))
def test_on_grid_is_what_the_written_text_reads_back(scores):
    assert list(map(repr, on_grid(scores))) == text_grid(scores)


def test_on_grid_settles_every_tie_as_the_text_does():
    rng = np.random.default_rng(26)
    scores = [*rng.random(20000).tolist(),
              *((rng.integers(0, 10**9, 20000) + 0.5) / 1e9).tolist(),
              *TIES, *NEAR_TIES, *WINDOW_EDGES, *OFF_RANGE]
    assert list(map(repr, on_grid(scores))) == text_grid(scores)


@pytest.mark.parametrize("ids", [[0], [9], [10], [0, 9, 10, 99, 100, 12345],
                                 [2**63 - 1], [5, 2**63 - 1], [2**63], [7, 2**63], [2**64],
                                 [-1], [-1, 4], [True], [False, 2]])
def test_writer_matches_the_reference_for_every_id(tmp_path, ids):
    assert_matches_reference({meme_id: 0.125 for meme_id in ids}, tmp_path / "p.csv")


def test_writer_writes_an_empty_set_as_its_header(tmp_path):
    assert_matches_reference({}, tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_bytes() == b"id,proba\n"


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
# longest it takes), a short id before a long one, leading zeros, the ends of [0, 1]
IN_FORM = [
    b"id,proba\n" + b"9" * 18 + b",0.500000000\n",
    b"id,proba\n5,0.250000000\n123456789012345678,0.750000000\n",
    b"id,proba\n0007,0.500000000\n000000000000000012,0.100000000\n0,0.300000000\n",
    b"id,proba\n1,1.000000000\n2,0.000000000\n",
    b"id,proba\n",
]
# and files it hands to read_csv: a 19-digit id, a value above 1, an empty id,
# a repeated id written with leading zeros, no final newline (after a row or
# after digits alone), CRLF, and a row with its ',' or '.' swapped out
OFF_FORM = [
    b"id,proba\n" + b"9" * 19 + b",0.500000000\n",
    b"id,proba\n5,0.250000000\n" + b"1" * 19 + b",0.750000000\n",
    b"id,proba\n1,1.000000001\n",
    b"id,proba\n,0.500000000\n",
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
    """Every prediction file a pipeline writes is formatted and read back in
    bulk, so a change that silently loses either bulk path fails here."""
    fallback_writes = []
    write_lines = ensemble.write_lines
    monkeypatch.setattr(ensemble, "write_lines", lambda path, lines: (
        fallback_writes.append(Path(path).name), write_lines(path, lines)))
    assert cli.main(["--quiet", "pipeline", "--n", "60", "--models", "2", "--k", "2",
                     "--no-images", "--outdir", str(tmp_path)]) == 0
    assert fallback_writes == ["submission.csv"]

    def no_fallback(path, *args, **kwargs):
        raise AssertionError(f"{path} was read row by row")
    monkeypatch.setattr(ensemble, "read_csv", no_fallback)
    paths = [*(tmp_path / "preds").iterdir(), *(tmp_path / "preds_adjusted").iterdir(),
             tmp_path / "stacked.csv"]
    assert len(paths) == 9
    for path in paths:
        assert read_predictions(path).scores
