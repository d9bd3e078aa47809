import pytest

from memepipe.clustering import ClusterAssignment
from memepipe.dataset import MemeRecord
from memepipe.errors import DataFormatError
from memepipe.rules import (PredictionSet, PseudoLabelSet, apply_rule1,
                            apply_rule2, apply_unimodal_signatures,
                            merge_pseudo_labels, rule1_pseudo_labels,
                            write_pseudo_labels)
from memepipe.tuples import Other, ThreeTuple, TwoTuple, UnimodalHate


def preds(scores):
    return PredictionSet("m0", dict(scores))


def test_rule1_overrides_members():
    out = apply_rule1([ThreeTuple(1, 2, 3)], preds({1: 0.4, 2: 0.8, 3: 0.6}))
    assert out.scores == {1: 1.0, 2: 0.0, 3: 0.0}


def test_rule1_leaves_input_untouched():
    p = preds({1: 0.4, 2: 0.8, 3: 0.6})
    apply_rule1([ThreeTuple(1, 2, 3)], p)
    assert p.scores == {1: 0.4, 2: 0.8, 3: 0.6}


def test_rule1_no_tuples_identity():
    p = preds({1: 0.4, 2: 0.8})
    out = apply_rule1([TwoTuple(1, 2, "image"), Other((1, 2))], p)
    assert out.scores == p.scores


def test_rule1_two_disjoint_tuples():
    groups = [ThreeTuple(1, 2, 3), ThreeTuple(4, 5, 6)]
    scores = {i: 0.5 for i in range(1, 7)}
    out = apply_rule1(groups, preds(scores))
    assert out.scores == {1: 1.0, 2: 0.0, 3: 0.0, 4: 1.0, 5: 0.0, 6: 0.0}
    # group order cannot matter on disjoint tuples
    out2 = apply_rule1(list(reversed(groups)), preds(scores))
    assert out2.scores == out.scores


def test_rule1_idempotent():
    groups = [ThreeTuple(1, 2, 3)]
    once = apply_rule1(groups, preds({1: 0.2, 2: 0.9, 3: 0.5}))
    twice = apply_rule1(groups, once)
    assert twice.scores == once.scores


def test_rule1_missing_member_raises():
    with pytest.raises(DataFormatError, match="meme 3"):
        apply_rule1([ThreeTuple(1, 2, 3)], preds({1: 0.4, 2: 0.8}))


def test_rule1_pseudo_labels_basic():
    out = rule1_pseudo_labels([ThreeTuple(7, 8, 9), TwoTuple(1, 2, "text")])
    assert out.labels == {7: 1, 8: 0, 9: 0}


def test_rule1_pseudo_labels_empty():
    out = rule1_pseudo_labels([])
    assert out.labels == {}


def test_rule2_polarizes_larger_up():
    out = apply_rule2([TwoTuple(1, 2, "image")], preds({1: 0.7, 2: 0.6}))
    assert out.scores == {1: 1.0, 2: 0.0}
    out = apply_rule2([TwoTuple(1, 2, "image")], preds({1: 0.2, 2: 0.9}))
    assert out.scores == {1: 0.0, 2: 1.0}


def test_rule2_tie_untouched():
    out = apply_rule2([TwoTuple(1, 2, "text")], preds({1: 0.5, 2: 0.5}))
    assert out.scores == {1: 0.5, 2: 0.5}


def test_rule2_idempotent():
    groups = [TwoTuple(1, 2, "image")]
    once = apply_rule2(groups, preds({1: 0.7, 2: 0.6}))
    twice = apply_rule2(groups, once)
    assert twice.scores == once.scores


def test_rule2_ignores_other_kinds():
    p = preds({1: 0.7, 2: 0.6, 3: 0.1})
    out = apply_rule2([ThreeTuple(1, 2, 3)], p)
    assert out.scores == p.scores


def test_rule2_missing_member_raises():
    with pytest.raises(DataFormatError, match="rule 2"):
        apply_rule2([TwoTuple(1, 2, "image")], preds({1: 0.7}))


def test_unimodal_signature_sets_matches_to_one():
    sigs = [UnimodalHate("image", 4, (4, 5))]
    a = ClusterAssignment(image={1: 4, 2: 7}, text={1: 1, 2: 2})
    out = apply_unimodal_signatures(sigs, a, preds({1: 0.3, 2: 0.3}))
    assert out.scores == {1: 1.0, 2: 0.3}


def test_unimodal_signature_no_match_identity():
    sigs = [UnimodalHate("text", 9, (9, 10))]
    a = ClusterAssignment(image={1: 1}, text={1: 1})
    out = apply_unimodal_signatures(sigs, a, preds({1: 0.3}))
    assert out.scores == {1: 0.3}


def test_unimodal_signature_after_rule1_wins():
    # a meme can be both a tuple partner (forced to 0) and carry a hateful
    # signature; applying signatures after rule 1 leaves it at 1
    groups = [ThreeTuple(1, 2, 3)]
    sigs = [UnimodalHate("image", 20, (20, 2))]
    a = ClusterAssignment(image={1: 1, 2: 20, 3: 3}, text={1: 1, 2: 2, 3: 1})
    step1 = apply_rule1(groups, preds({1: 0.5, 2: 0.5, 3: 0.5}))
    assert step1.scores[2] == 0.0
    step2 = apply_unimodal_signatures(sigs, a, step1)
    assert step2.scores[2] == 1.0


def test_pseudo_label_file_round_trip(tmp_path):
    pl = PseudoLabelSet({3: 1, 1: 0})
    path = tmp_path / "pseudo.csv"
    write_pseudo_labels(pl, path)
    assert path.read_bytes() == b"id,label,rule\n1,0,rule1\n3,1,rule1\n"


def _rec(meme_id, split, label=None):
    return MemeRecord(id=meme_id, img=f"{meme_id}.pgm", text=f"t{meme_id}",
                      label=label, split=split)


def test_merge_pseudo_labels_grows_train():
    train = [_rec(1, "train", 1)]
    test = [_rec(10, "test"), _rec(11, "test"), _rec(12, "test"),
            _rec(13, "test")]
    pl = PseudoLabelSet({10: 1, 11: 0, 12: 0})
    merged = merge_pseudo_labels(train, pl, test)
    assert len(merged) == 4
    added = {r.id: r for r in merged[1:]}
    assert set(added) == {10, 11, 12}
    assert all(r.split == "train" for r in added.values())
    assert added[10].label == 1 and added[11].label == 0
    # originals keep their split
    assert test[0].split == "test"


def test_merge_pseudo_labels_empty_is_identity():
    train = [_rec(1, "train", 1)]
    merged = merge_pseudo_labels(train, PseudoLabelSet({}), [_rec(2, "test")])
    assert merged == train


def test_merge_pseudo_labels_rejects_collision():
    with pytest.raises(ValueError, match="collides"):
        merge_pseudo_labels([_rec(1, "train", 1)], PseudoLabelSet({1: 1}),
                            [_rec(1, "test")])


def test_merge_pseudo_labels_rejects_unknown_id():
    with pytest.raises(ValueError, match="not found"):
        merge_pseudo_labels([_rec(1, "train", 1)], PseudoLabelSet({99: 1}),
                            [_rec(2, "test")])
