import numpy as np
import pytest

from memepipe.ensemble import (read_predictions, read_submission,
                               stack_equal_weight, write_predictions,
                               write_submission)
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
