import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memepipe.clustering import ClusterAssignment
from memepipe.dataset import MemeRecord
from memepipe.ensemble import StackedPrediction, stack_equal_weight
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
    # a stacked set stays one, its labels following its new scores
    stacked = StackedPrediction("stacked", {1: 0.4, 2: 0.8, 3: 0.6, 4: 0.7})
    out = apply_rule1([ThreeTuple(1, 2, 3)], stacked)
    assert type(out) is StackedPrediction and out.ids is stacked.ids
    assert out.label == {1: 1, 2: 0, 3: 0, 4: 1}


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


def reference_rules(groups, scores):
    """Rules 1 and 2 on a dict, one group after another: the reference for
    the positional rules.  Returns (rule 1 scores, rule 2 scores), each a
    dict or the message of the DataFormatError raised."""
    out = []
    for rule, kind in (("rule 1", ThreeTuple), ("rule 2", TwoTuple)):
        new = dict(scores)
        try:
            for g in groups:
                if not isinstance(g, kind):
                    continue
                for meme_id in g.member_ids():
                    if meme_id not in new:
                        raise DataFormatError(f"{rule}: meme {meme_id} missing from predictions")
                if kind is ThreeTuple:
                    new.update({g.pivot_id: 1.0, g.image_partner_id: 0.0,
                                g.text_partner_id: 0.0})
                elif new[g.a_id] != new[g.b_id]:
                    high = new[g.a_id] > new[g.b_id]
                    new[g.a_id], new[g.b_id] = (1.0, 0.0) if high else (0.0, 1.0)
            out.append(new)
        except DataFormatError as exc:
            out.append(str(exc))
    return out


def positional_rules(groups, ps):
    out = []
    for rule in (apply_rule1, apply_rule2):
        try:
            out.append(rule(groups, ps).scores)
        except DataFormatError as exc:
            out.append(str(exc))
    return out


_IDS = st.integers(0, 9) | st.sampled_from([2**63 - 1, 2**63, -1])
_GROUPS = st.lists(st.builds(TwoTuple, _IDS, _IDS, st.just("image"))
                   | st.builds(ThreeTuple, _IDS, _IDS, _IDS), max_size=12)


@settings(max_examples=300, deadline=None, database=None)
@given(groups=_GROUPS, values=st.lists(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
    min_size=8, max_size=10))
def test_rules_match_the_group_by_group_reference(groups, values):
    # groups that share memes, ties and missing ids, some past int64
    scores = dict(enumerate(values))
    got, want = positional_rules(groups, preds(scores)), reference_rules(groups, scores)
    # by repr, so a sign bit shows; a set is ordered by id
    assert repr([sorted(x.items()) if isinstance(x, dict) else x for x in got]) == \
        repr([sorted(x.items()) if isinstance(x, dict) else x for x in want])


def test_rule2_pair_positions_follow_the_groups_and_the_ids():
    # the positions are kept from one call to the next, so each call here
    # changes the groups or the ids and must see its own
    a = PredictionSet("a", ids=np.array([1, 2, 3]), values=[0.2, 0.9, 0.4])
    b = PredictionSet("b", ids=np.array([1, 3, 4]), values=[0.2, 0.9, 0.4])
    pair = [TwoTuple(1, 3, "image")]
    assert apply_rule2(pair, a).scores == {1: 0.0, 2: 0.9, 3: 1.0}
    assert apply_rule2(pair, a.replaced([0.6, 0.9, 0.4])).scores == {1: 1.0, 2: 0.9, 3: 0.0}
    assert apply_rule2(pair, b).scores == {1: 0.0, 3: 1.0, 4: 0.4}
    assert apply_rule2([TwoTuple(3, 4, "text")], b).scores == {1: 0.2, 3: 1.0, 4: 0.0}
    with pytest.raises(DataFormatError, match="rule 2: meme 4 missing"):
        apply_rule2([TwoTuple(3, 4, "text")], a)


def test_rule2_pairs_sharing_a_meme_apply_in_order():
    # (1, 2) sends 1 up and 2 down; then (2, 3) compares 2's new 0.0 with 3
    groups = [TwoTuple(1, 2, "image"), TwoTuple(2, 3, "image")]
    out = apply_rule2(groups, preds({1: 0.7, 2: 0.6, 3: 0.1}))
    assert out.scores == {1: 1.0, 2: 0.0, 3: 1.0}


@pytest.mark.parametrize("ids, values", [
    (np.array([100, 5]), [0.1, 0.2]),      # unsorted
    (np.array([5, 5]), [0.1, 0.2]),        # repeated
    (np.array([-1, 5]), [0.1, 0.2]),       # negative
    (np.array([5, 100]), [0.1]),           # one value short
    (np.array([5, 100], np.uint64), [0.1, 0.2]),
    (np.array([[5, 100]]), [[0.1, 0.2]]),
    (["5", "100"], [0.1, 0.2]),
])
def test_prediction_set_columns_are_checked(ids, values):
    with pytest.raises(ValueError, match="strictly increasing"):
        PredictionSet("m0", ids=ids, values=values)


def test_prediction_set_columns_from_lists():
    ps = PredictionSet("m0", ids=[5, 100], values=[0.1, 0.2])
    assert ps.ids.dtype == np.int64 and ps.scores == {5: 0.1, 100: 0.2}


def test_prediction_set_takes_numpy_integer_keys():
    ps = preds({np.int64(7): 0.5, np.uint64(3): 0.25, 5: 0.0})
    assert ps.ids.tolist() == [3, 5, 7] and ps.values.tolist() == [0.25, 0.0, 0.5]
    for bad in (np.uint64(2**63), np.int64(-1), np.True_):
        with pytest.raises(DataFormatError, match="below 2"):
            preds({bad: 0.5})
    # a score is a real number, as a file's is a decimal: not a string or a
    # bool, though float() and np.array take both
    assert preds({1: 1, 2: np.float32(0.5), 3: np.float64(0.25)}).values.tolist() == \
        [1.0, 0.5, 0.25]
    for bad in ("0.5", True, np.True_, None, b"1"):
        with pytest.raises(DataFormatError, match=re.escape(
                f"m0: meme 2 has score {bad!r}, not a real number")):
            preds({1: 0.5, 2: bad})


def test_prediction_set_columns_are_its_own_and_read_only():
    ids, values = np.array([1, 2, 3]), np.array([0.25, 0.75, 0.5])
    columns = PredictionSet("m0", ids=ids, values=values)
    for ps in (columns, preds({1: 0.25, 2: 0.75, 3: 0.5})):
        for column in (ps.ids, ps.values):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 2
        # the rules, replaced and stacking copy what they change
        assert apply_rule2([TwoTuple(1, 2, "image")], ps).scores == {1: 0.0, 2: 1.0, 3: 0.5}
        assert apply_rule1([ThreeTuple(3, 1, 2)], ps).scores == {1: 0.0, 2: 0.0, 3: 1.0}
        assert ps.replaced(1.0 - ps.values).scores == {1: 0.75, 2: 0.25, 3: 0.5}
        assert stack_equal_weight([ps, ps]).label == {1: 0, 2: 1, 3: 1}
        assert ps.scores == {1: 0.25, 2: 0.75, 3: 0.5}
    # the caller's arrays stay the caller's, writable
    ids[0], values[0] = 0, 1.0
    assert columns.scores == {1: 0.25, 2: 0.75, 3: 0.5}


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
