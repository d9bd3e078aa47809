import itertools

import numpy as np
import pytest

from memepipe.clustering import ClusterAssignment
from memepipe.dataset import MemeRecord
from memepipe.errors import DataFormatError
from memepipe.tuples import (Other, ThreeTuple, TupleStats, TwoTuple,
                             UnimodalHate, _classify, detect_tuples,
                             read_groups, tuple_stats, write_groups)


def recs(ids):
    return [MemeRecord(id=i, img=f"{i}.pgm", text=f"t{i}", label=0, split="test")
            for i in ids]


def asg(image, text):
    return ClusterAssignment(image=dict(image), text=dict(text))


def test_three_tuple_path():
    # pivot 1 shares its image with 2 and its text with 3
    a = asg({1: 1, 2: 1, 3: 3}, {1: 1, 2: 2, 3: 1})
    groups = detect_tuples(recs([1, 2, 3]), a)
    assert groups == [ThreeTuple(pivot_id=1, image_partner_id=2,
                                 text_partner_id=3)]


def test_three_tuple_pivot_not_smallest_id():
    # 9 is the degree-2 node: image cluster with 5, text cluster with 7
    a = asg({5: 5, 9: 5, 7: 7}, {5: 5, 9: 9, 7: 9})
    groups = detect_tuples(recs([5, 7, 9]), a)
    assert groups == [ThreeTuple(pivot_id=9, image_partner_id=5,
                                 text_partner_id=7)]


def test_three_memes_classify_as_the_path_definition_says():
    # every image and text clustering of memes 0, 1 and 2: a ThreeTuple is
    # a pivot sharing its image with one partner and its text with the
    # other, while the partners share nothing
    def linked(a, b, image, text):
        return image[a] == image[b] or text[a] == text[b]

    paths = 0
    for image in itertools.product(range(3), repeat=3):
        for text in itertools.product(range(3), repeat=3):
            expected = [ThreeTuple(p, i, t) for p, i, t in itertools.permutations(range(3))
                        if image[p] == image[i] and text[p] == text[t]
                        and not linked(i, t, image, text)]
            assert len(expected) <= 1
            got = _classify([2, 0, 1], asg(enumerate(image), enumerate(text)))
            assert got == (expected[0] if expected else Other((0, 1, 2))), (image, text)
            paths += len(expected)
    assert paths == 216


def test_two_tuple_image():
    a = asg({1: 1, 2: 1}, {1: 1, 2: 2})
    assert detect_tuples(recs([1, 2]), a) == [TwoTuple(1, 2, "image")]


def test_two_tuple_text():
    a = asg({1: 1, 2: 2}, {1: 1, 2: 1})
    assert detect_tuples(recs([1, 2]), a) == [TwoTuple(1, 2, "text")]


def test_pair_sharing_both_modalities_is_other():
    a = asg({1: 1, 2: 1}, {1: 1, 2: 1})
    assert detect_tuples(recs([1, 2]), a) == [Other((1, 2))]


def test_single_modality_triple_is_other():
    a = asg({1: 1, 2: 1, 3: 1}, {1: 1, 2: 2, 3: 3})
    assert detect_tuples(recs([1, 2, 3]), a) == [Other((1, 2, 3))]


def test_four_chain_is_other():
    # 1-2 share image, 2-3 share text, 3-4 share image
    a = asg({1: 1, 2: 1, 3: 3, 4: 3}, {1: 1, 2: 2, 3: 2, 4: 4})
    groups = detect_tuples(recs([1, 2, 3, 4]), a)
    assert groups == [Other((1, 2, 3, 4))]


def test_singletons_omitted():
    a = asg({1: 1, 2: 2}, {1: 1, 2: 2})
    assert detect_tuples(recs([1, 2]), a) == []


def test_components_respect_subset():
    # 1 and 2 share an image, but only 1 is in the analyzed subset
    a = asg({1: 1, 2: 1}, {1: 1, 2: 2})
    assert detect_tuples(recs([1]), a) == []


def test_groups_sorted_by_min_member():
    a = asg({8: 8, 9: 8, 1: 1, 2: 1}, {8: 8, 9: 9, 1: 1, 2: 2})
    groups = detect_tuples(recs([8, 9, 1, 2]), a)
    assert [min(g.member_ids()) for g in groups] == [1, 8]


def component_oracle(ids, assignment):
    """Brute-force components of "same image or same text cluster" over ids."""
    comps = []
    unseen = set(ids)
    while unseen:
        comp = {unseen.pop()}
        grew = True
        while grew:
            near = {o for o in unseen
                    if any(assignment.image[o] == assignment.image[m]
                           or assignment.text[o] == assignment.text[m] for m in comp)}
            unseen -= near
            comp |= near
            grew = bool(near)
        comps.append(comp)
    return comps


def test_detect_tuples_matches_component_oracle():
    # labels are drawn from the full corpus, so many cluster ids name memes
    # that the analyzed subset leaves out
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(2, 80))
        corpus = [int(v) for v in rng.choice(1000, size=n, replace=False)]
        a = asg({i: corpus[int(rng.integers(0, n))] for i in corpus},
                {i: corpus[int(rng.integers(0, n))] for i in corpus})
        subset = [i for i in corpus if rng.uniform() < 0.6]
        groups = detect_tuples(recs(subset), a)
        expected = sorted((c for c in component_oracle(subset, a) if len(c) >= 2),
                          key=min)
        assert [set(g.member_ids()) for g in groups] == expected


def test_missing_assignment_raises():
    a = asg({1: 1}, {1: 1})
    with pytest.raises(ValueError, match="no cluster assignment"):
        detect_tuples(recs([1, 2]), a)


def test_tuple_stats_single_triple():
    stats = tuple_stats([ThreeTuple(1, 2, 3)], 3)
    assert stats == TupleStats(1.0, 0.0)


def test_tuple_stats_mixed():
    groups = [ThreeTuple(1, 2, 3), ThreeTuple(4, 5, 6), TwoTuple(7, 8, "image"),
              TwoTuple(9, 10, "text"), Other((11, 12))]
    stats = tuple_stats(groups, 10)
    assert stats.three_tuple_frac == pytest.approx(0.6)
    assert stats.two_tuple_frac == pytest.approx(0.4)


def test_tuple_stats_requires_positive_total():
    with pytest.raises(ValueError):
        tuple_stats([], 0)


def test_groups_file_round_trip(tmp_path):
    groups = [ThreeTuple(1, 2, 3), TwoTuple(4, 5, "text"),
              UnimodalHate("image", 6, (6, 7)), Other((8, 9, 10))]
    path = tmp_path / "groups.jsonl"
    write_groups(groups, path)
    assert read_groups(path) == groups


def test_groups_file_errors(tmp_path):
    path = tmp_path / "groups.jsonl"
    path.write_text("not json\n")
    with pytest.raises(DataFormatError, match="line 1"):
        read_groups(path)
    path.write_text('{"kind": "mystery"}\n')
    with pytest.raises(DataFormatError):
        read_groups(path)
    path.write_text('{"kind": "two_tuple", "a": 1, "b": 2, "shared": "smell"}\n')
    with pytest.raises(DataFormatError):
        read_groups(path)
    path.write_text('{"kind": "three_tuple", "pivot": 1}\n')
    with pytest.raises(DataFormatError):
        read_groups(path)
    # every id is a non-negative integer, as in a manifest
    good = '{"kind": "other", "members": [0, 1]}\n'
    for bad in ('"three_tuple", "pivot": "a", "image_partner": 1, "text_partner": 2',
                '"two_tuple", "a": -4, "b": 1.5, "shared": "image"',
                '"two_tuple", "a": 1, "b": 1.5, "shared": "image"',
                '"two_tuple", "a": true, "b": 2, "shared": "text"',
                '"unimodal_hate", "modality": "image", "cluster": -1, "members": [1, 2]',
                '"unimodal_hate", "modality": "text", "cluster": 1, "members": [1, null]',
                '"other", "members": "12"',
                '"other", "members": 12',
                # a group's members are two or more distinct ids
                '"three_tuple", "pivot": 0, "image_partner": 0, "text_partner": 1',
                '"two_tuple", "a": 3, "b": 3, "shared": "text"',
                '"unimodal_hate", "modality": "image", "cluster": 1, "members": [4]',
                '"other", "members": [5, 6, 5]',
                '"other", "members": []'):
        path.write_text(good + '{"kind": ' + bad + "}\n")
        with pytest.raises(DataFormatError, match=r"line 2: bad group"):
            read_groups(path)
