import dataclasses
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memepipe import dataset
from memepipe.clustering import read_clusters, write_clusters
from memepipe.dataset import (DatasetComposition, GeneratorNoise, MemeRecord,
                              read_images, read_manifest, read_pgm, write_manifest,
                              write_pgm)
from memepipe.ensemble import (StackedPrediction, read_predictions, read_submission,
                               write_predictions, write_submission)
from memepipe.errors import DataFormatError
from memepipe.generator import image_hashes
from memepipe.phash import phash, read_hashes, write_hashes
from memepipe.rules import PredictionSet


def rec(meme_id, split="train", label=0, text="some text"):
    return MemeRecord(id=meme_id, img=f"images/{meme_id}.pgm", text=text,
                      label=label, split=split)


def test_manifest_round_trip(tmp_path):
    records = [rec(0), rec(1, split="dev", label=None), rec(2, split="test",
                                                            label=1)]
    path = tmp_path / "manifest.jsonl"
    write_manifest(records, path)
    assert read_manifest(path) == records


def test_manifest_empty_round_trip(tmp_path):
    path = tmp_path / "manifest.jsonl"
    write_manifest([], path)
    assert read_manifest(path) == []


def test_manifest_label_key_omitted_when_missing(tmp_path):
    path = tmp_path / "manifest.jsonl"
    write_manifest([rec(0, split="test", label=None)], path)
    assert '"label"' not in path.read_text()


def test_manifest_three_lines_in_order(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(
        '{"id": 2, "img": "a.pgm", "text": "x", "label": 1, "split": "test"}\n'
        '{"id": 0, "img": "b.pgm", "text": "y", "split": "dev"}\n'
        '{"id": 1, "img": "c.pgm", "text": "z", "label": 0, "split": "train"}\n')
    records = read_manifest(path)
    assert [r.id for r in records] == [2, 0, 1]
    assert records[1].label is None


def test_manifest_duplicate_id_rejected(tmp_path):
    path = tmp_path / "m.jsonl"
    row = '{"id": 5, "img": "a.pgm", "text": "x", "label": 1, "split": "test"}\n'
    path.write_text(row + row)
    with pytest.raises(DataFormatError, match="duplicate id 5") as err:
        read_manifest(path)
    assert f"{path}: line 2:" in str(err.value)
    with pytest.raises(DataFormatError, match="duplicate"):
        write_manifest([rec(5), rec(5)], tmp_path / "out.jsonl")


def test_manifest_train_requires_label(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"id": 1, "img": "a.pgm", "text": "x", "split": "train"}\n')
    with pytest.raises(DataFormatError, match="missing a label") as err:
        read_manifest(path)
    assert f"{path}: line 1:" in str(err.value)


def test_manifest_field_errors(tmp_path):
    path = tmp_path / "m.jsonl"

    def error(text, match):
        path.write_text(text)
        with pytest.raises(DataFormatError, match=match) as err:
            read_manifest(path)
        return str(err.value)

    assert f"{path}: line 1:" in error("{broken\n", "line 1")
    assert f"{path}: line 1:" in error(
        '{"id": 1, "img": "a.pgm", "text": "x"}\n', "split")
    assert f"{path}: line 2:" in error(
        '\n{"id": 1, "img": "a.pgm", "text": "x", "label": 3, '
        '"split": "test"}\n', "label")
    assert f"{path}: line 1:" in error(
        '{"id": true, "img": "a.pgm", "text": "x", "label": 1, '
        '"split": "test"}\n', "id")
    for big in (2**63, 2**64):
        assert f"{path}: line 1:" in error(
            '{"id": %d, "img": "a.pgm", "text": "x", "label": 1, '
            '"split": "test"}\n' % big, "below 2\\*\\*63")
    # a label is the int 0 or 1, though true == 1 and 0.0 == 0
    for bad_label in ("true", "false", "0.0", "1.0"):
        assert f"{path}: line 1:" in error(
            '{"id": 1, "img": "a.pgm", "text": "x", "label": %s, '
            '"split": "test"}\n' % bad_label, "label")
    assert f"{path}: line 1:" in error(
        '{"id": 1, "img": "a.pgm", "text": "x", "label": 1, '
        '"split": "val"}\n', "split")
    assert f"{path}: line 1:" in error("[1, 2]\n", "object")


# reader, its writer, its error class, header line (None: headerless), rows
# with ids 1 and 2, a row with a malformed field, a row with an out-of-range
# value (None: no range), rows whose field a bare int() or int(s, 16) would
# take, and the ids of what the reader returns
CSV_READERS = {
    "hashes": (read_hashes, write_hashes, DataFormatError, None,
               ("1,00000000000000aa", "2,00000000000000bb"), "1,xyz", None,
               ("1,+00000000000000a", "1,0x0000000000000b", "1,0000_0000000000a"),
               lambda out: [meme_id for meme_id, _ in out]),
    "clusters": (read_clusters, write_clusters, DataFormatError, None,
                 ("1,1,1", "2,1,2"), "1,a,1", None,
                 ("1,+1,1", "1, 1,1", "1,0_1,1"),
                 lambda out: list(out.image)),
    "predictions": (read_predictions, write_predictions, DataFormatError, "id,proba",
                    ("1,0.25", "2,0.75"), "1,high", "1,1.5",
                    ("1,+0.5", "1, 0.25", "1,0_0.75", "1,\u0660.5"),
                    lambda out: list(out.scores)),
    "submission": (read_submission,
                   lambda out, path: write_submission(
                       StackedPrediction("stacked", out[0]), path),
                   DataFormatError, "id,proba,label",
                   ("1,0.25,0", "2,0.75,1"), "1,0.25,yes", "1,0.25,2",
                   ("1,0.25,+1", "1,0.25, 1", "1,0.25,0_1", "1,+0.5,0", "1, 0.25,0",
                    "1,0_0.75,0", "1,\u0660.5,0"),
                   lambda out: list(out[0])),
}


@pytest.mark.parametrize("name", sorted(CSV_READERS))
def test_csv_reader_contract(tmp_path, name):
    read, _, error, header, (row1, row2), malformed, out_of_range, bad_fields, ids = \
        CSV_READERS[name]
    path = tmp_path / f"{name}.csv"
    top = [header] if header else []
    first = len(top) + 1           # line number of the first row

    def rejects(lines, lineno):
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(error) as err:
            read(path)
        assert f"{path}: line {lineno}:" in str(err.value)

    if header:
        rejects(["id,wrong", row1], 1)
    rejects(top + [row1, row2 + ",9"], first + 1)
    rejects(top + [row1, row2.rsplit(",", 1)[0]], first + 1)
    rejects(top + [malformed], first)
    if out_of_range:
        rejects(top + [row1, row2, out_of_range.replace("1,", "3,", 1)], first + 2)
    rejects(top + [row1, "", row2, row1], first + 3)

    # an id is ASCII digits only, as int() alone would take all of these, and
    # below 2**63, the int64 column of a prediction set
    for bad_id in ("-1", "+1", "1_0", "1 ", "\u0661", str(2**63), "0" * 30 + str(2**64)):
        rejects(top + [row1, bad_id + row2[1:]], first + 1)
    # so is a label or cluster id, and a hash is 16 hex digits
    for bad_row in bad_fields:
        rejects(top + [row2, bad_row], first + 1)

    path.write_text("\n".join(top + ["", row1, "   ", "", row2, ""]) + "\n")
    assert ids(read(path)) == [1, 2]


@pytest.mark.parametrize("name", sorted(CSV_READERS))
def test_csv_writer_round_trip(tmp_path, name):
    read, write, _, header, rows, *_ = CSV_READERS[name]
    path = tmp_path / "in.csv"
    path.write_text("\n".join(([header] if header else []) + list(rows)) + "\n")
    write(read(path), tmp_path / "a.csv")
    write(read(tmp_path / "a.csv"), tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@settings(max_examples=60, deadline=None, database=None)
@given(scores=st.dictionaries(st.integers(0, 2**40), st.floats(0.0, 1.0), max_size=20))
def test_prediction_file_round_trip(scores):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.csv"
        write_predictions(PredictionSet("model", scores), path)
        back = read_predictions(path).scores
    assert list(back) == sorted(scores)
    assert all(abs(back[i] - scores[i]) <= 1e-9 for i in scores)


def test_composition_default_counts():
    assert DatasetComposition().counts(100) == (40, 10, 20, 20, 10)


def test_composition_remainder_to_random_benign():
    counts = DatasetComposition().counts(97)
    assert sum(counts) == 97
    # floors are (38, 9, 19, 19, 9); the 3 leftover memes land in the filler
    assert counts == (38, 9, 19, 19, 12)


def test_composition_parse():
    comp = DatasetComposition.parse("0.5, 0.1, 0.2, 0.1, 0.1")
    assert comp.multimodal_hate == 0.5
    with pytest.raises(ValueError):
        DatasetComposition.parse("0.5,0.5")
    with pytest.raises(ValueError):
        DatasetComposition.parse("a,b,c,d,e")


def test_composition_validation():
    with pytest.raises(ValueError, match="sum"):
        DatasetComposition(0.5, 0.5, 0.5, 0.0, 0.0)
    with pytest.raises(ValueError, match=">= 0"):
        DatasetComposition(-0.1, 0.5, 0.2, 0.2, 0.2)


def test_noise_validation():
    GeneratorNoise(image_amplitude=0.0, text_perturb_prob=1.0, label_noise=0.0)
    with pytest.raises(ValueError):
        GeneratorNoise(image_amplitude=-1.0)
    with pytest.raises(ValueError):
        GeneratorNoise(label_noise=1.5)


def test_pgm_round_trip(tmp_path):
    img = np.arange(48, dtype=np.uint8).reshape(6, 8)
    path = tmp_path / "img.pgm"
    write_pgm(img, path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n8 6\n255\n")
    assert np.array_equal(read_pgm(path), img)


def test_pgm_write_validation(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(np.zeros((3, 3), dtype=np.float64), tmp_path / "x.pgm")
    with pytest.raises(ValueError):
        write_pgm(np.zeros((3, 3, 3), dtype=np.uint8), tmp_path / "x.pgm")


def test_pgm_read_skips_comments(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n# a comment line\n2 2\n255\n\x01\x02\x03\x04")
    assert np.array_equal(read_pgm(path),
                          np.array([[1, 2], [3, 4]], dtype=np.uint8))


def test_pgm_read_comments_before_every_field(tmp_path):
    path = tmp_path / "img.pgm"
    pixels = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint8)
    for header in (b"# before P5\nP5 3 2 255\n",
                   b"\n #a\n\tP5\n#b\n3\r\n# c\n2\n# d\n\n255\n",
                   b"P5 #a\n3 #b\n 2 #c\n\x0c255\t"):
        path.write_bytes(header + pixels.tobytes())
        assert np.array_equal(read_pgm(path), pixels), header


def test_pgm_read_rejects_fields_that_are_not_digits(tmp_path):
    path = tmp_path / "img.pgm"
    for header in (b"P5 +2 2 255\n", b"P5 2 -2 255\n", b"P5 1_0 1 255\n",
                   b"P5 2 2 2_55\n", b"P5 2 2#c\n255\n", b"P5#c\n2 2 255\n"):
        path.write_bytes(header + bytes(40))
        with pytest.raises(DataFormatError, match="not a binary PGM"):
            read_pgm(path)


def test_pgm_read_errors(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(DataFormatError, match="P5"):
        read_pgm(path)
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(DataFormatError, match="maxval"):
        read_pgm(path)
    path.write_bytes(b"P5\n2 2\n255\n\x01")
    with pytest.raises(DataFormatError, match="truncated"):
        read_pgm(path)


def test_manifest_json_errors_are_json_loads_errors(tmp_path):
    # the reader decodes each line alone with a reused decoder; its message is
    # still json.loads's, which names a leading byte order mark as such
    path = tmp_path / "m.jsonl"
    good = '{"id": 1, "img": "a.pgm", "text": "x", "label": 1, "split": "test"}'
    messages = []
    # the three lines after the first parse as one array, but none alone does
    for lines in (["\ufeff" + good], [good, '{"x":[{}', "{}]}", "{},{}"], [good, "{broken"]):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        lineno = next(n for n, line in enumerate(lines, 1) if line != good)
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(lines[lineno - 1])
        with pytest.raises(DataFormatError) as err:
            read_manifest(path)
        messages.append(str(err.value))
        assert messages[-1] == f"{path}: line {lineno}: invalid JSON: {want.value}"
    assert "Unexpected UTF-8 BOM" in messages[0]


def test_manifest_writer_names_the_record_at_fault(tmp_path):
    # a record with an invalid split cannot be built, so never reaches the writer
    with pytest.raises(DataFormatError, match=r"^split must be one of"):
        rec(4, split="val")
    with pytest.raises(DataFormatError, match=r"^duplicate id 3$"):
        write_manifest([rec(3), rec(3)], tmp_path / "m.jsonl")


# field -> invalid value -> the bare message building a record with it raises
RECORD_FAULTS = [
    ("id", -1, "id must be a non-negative integer below 2**63, got -1"),
    ("id", 2**63, f"id must be a non-negative integer below 2**63, got {2**63}"),
    ("id", True, "id must be a non-negative integer below 2**63, got True"),
    ("img", "", "img must be a non-empty string"),
    ("img", None, "img must be a non-empty string"),
    ("text", None, "text must be a string"),
    ("split", "val", "split must be one of ('train', 'dev', 'test'), got 'val'"),
    ("label", 2, "label must be 0 or 1, got 2"),
    ("label", True, "label must be 0 or 1, got True"),
    ("label", 1.0, "label must be 0 or 1, got 1.0"),
    ("label", None, "train record 5 is missing a label"),
]


@pytest.mark.parametrize("field, value, message", RECORD_FAULTS)
def test_record_checks_itself_when_built(field, value, message):
    fields = {"id": 5, "img": "5.pgm", "text": "t", "label": 1, "split": "train"}
    with pytest.raises(DataFormatError) as err:
        MemeRecord(**{**fields, field: value})
    assert str(err.value) == message
    # a copy is checked as well
    with pytest.raises(DataFormatError) as err:
        dataclasses.replace(MemeRecord(**fields), **{field: value})
    assert str(err.value) == message


@pytest.mark.parametrize("field", ["id", "img", "text", "label", "split"])
def test_record_is_frozen(field):
    record = rec(5, label=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, getattr(record, field))


def read_pgm_buffered(path):
    """read_pgm as it sliced the pixels out of the file's bytes: the
    reference for the reader, result for result and error for error."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = dataset._PGM_HEADER.match(data)
    if header is None:
        raise DataFormatError(f"{path}: not a binary PGM (P5) file")
    width, height, maxval = map(int, header.groups())
    if maxval != 255:
        raise DataFormatError(f"{path}: only maxval 255 is supported, got {maxval}")
    raw = data[header.end():header.end() + width * height]
    if len(raw) != width * height:
        raise DataFormatError(f"{path}: truncated pixel data")
    return np.frombuffer(raw, dtype=np.uint8).reshape(height, width)


_PIXELS = bytes(range(256)) * 600    # more than the largest file below holds

# name: the file's bytes (None: no file; "dir": a directory in its place)
PGM_FILES = {
    "plain": b"P5\n3 2\n255\n" + _PIXELS[:6],
    "comment header": b"# c\nP5 #a\n3\n#b\n 2\n255\n" + _PIXELS[:6],
    "CRLF header": b"P5\r\n3 2\r\n255\r\n" + _PIXELS[:6],
    "header ends at the end of the file": b"P5 0 4 255",
    "no pixels for a 0x0 image": b"P5 0 0 255\n",
    "P6": b"P6\n2 2\n255\n" + _PIXELS[:12],
    "maxval 65535": b"P5\n2 2\n65535\n" + _PIXELS[:8],
    "truncated": b"P5\n3 2\n255\n" + _PIXELS[:5],
    "truncated at the header": b"P5\n3 2\n255",
    "huge size": b"P5 99999999999999999999 99999999999999999999 255\n" + _PIXELS[:9],
    "empty": b"",
    "trailing bytes": b"P5\n3 2\n255\n" + _PIXELS[:6] + b"trailing\n",
    "larger than one read chunk": b"P5\n400 300\n255\n" + _PIXELS[:120_000],
    "one chunk exactly": b"P5 65521 1 255\n" + _PIXELS[:65521],
    "one byte over one chunk": b"P5 65522 1 255\n" + _PIXELS[:65522],
    "missing": None,
    "directory": "dir",
}


def outcome(read, path):
    """The array's dtype, shape, bytes and writeable flag, or the error's
    class, message and file name."""
    try:
        arr = read(path)
    except (DataFormatError, OSError) as exc:
        return type(exc), str(exc), getattr(exc, "filename", None)
    return arr.dtype, arr.shape, arr.tobytes(), arr.flags.writeable


@pytest.mark.parametrize("name", sorted(PGM_FILES))
def test_pgm_reader_matches_the_buffered_reader(tmp_path, name):
    path = tmp_path / "000005.pgm"
    content = PGM_FILES[name]
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    for p in (path, str(path)):
        assert outcome(read_pgm, p) == outcome(read_pgm_buffered, p)


def test_pgm_writer_bytes_and_errors(tmp_path):
    img = np.frombuffer(_PIXELS[:120_000], np.uint8).reshape(300, 400)
    path = tmp_path / "img.pgm"
    path.write_bytes(b"an older, longer file" * 10_000)
    write_pgm(img[:, ::-1], path)
    assert path.read_bytes() == b"P5\n400 300\n255\n" + img[:, ::-1].tobytes()
    with open(tmp_path / "by_open", "wb"):
        pass
    assert os.stat(path).st_mode == os.stat(tmp_path / "by_open").st_mode
    (tmp_path / "dir.pgm").mkdir()
    with pytest.raises(IsADirectoryError) as err:
        write_pgm(img, tmp_path / "dir.pgm")
    assert str(tmp_path / "dir.pgm") in str(err.value)


def test_pgm_reader_reads_a_writer_file_into_a_row(tmp_path):
    img = np.random.default_rng(41).integers(0, 256, size=(6, 9), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(img, path)
    row = np.zeros((6, 9), np.uint8)
    assert read_pgm(path, row) is row and np.array_equal(row, img)
    # another shape's row, or another header, is read as without one
    for header in (b"P5\n9 6\n255\n", b"P5 9 6 255\n", b"P5\n#c\n9 6\n255\n"):
        path.write_bytes(header + img.tobytes())
        for other in (np.zeros((9, 6), np.uint8), np.zeros((6, 9), np.uint8)):
            got = read_pgm(path, other)
            assert np.array_equal(got, img)
            assert (got is other) == (header == b"P5\n9 6\n255\n" and other.shape == (6, 9))


def write_image_corpus(root, contents):
    """Write each file's bytes (None: no file; "dir": a directory) as an
    image of a manifest; return the manifest path, its records and the paths."""
    (root / "images").mkdir()
    records, paths = [], []
    for k, content in enumerate(contents):
        records.append(MemeRecord(id=7 * k + 3, img=f"images/{k}.pgm", text=f"t{k}",
                                  label=0, split="train"))
        paths.append(root / records[-1].img)
        if content == "dir":
            paths[-1].mkdir()
        elif content is not None:
            paths[-1].write_bytes(content)
    write_manifest(records, root / "manifest.jsonl")
    return root / "manifest.jsonl", records, paths


def pgm_bytes(img):
    return b"P5\n%d %d\n255\n" % (img.shape[1], img.shape[0]) + img.tobytes()


def test_read_images_stacks_each_shape_as_read_pgm_reads_it(tmp_path, monkeypatch):
    rng = np.random.default_rng(43)
    a = [rng.integers(0, 256, size=(64, 64), dtype=np.uint8) for _ in range(6)]
    b = [rng.integers(0, 256, size=(37, 53), dtype=np.uint8) for _ in range(3)]
    images = [a[0], a[1], b[0], a[2], b[1], b[2], a[3], a[4], a[5]]
    contents = [pgm_bytes(img) for img in images]
    # a header with a comment and one with other whitespace mid-corpus, and
    # bytes after the last pixel
    contents[1] = b"P5\n# a comment\n64 64\n255\n" + a[1].tobytes()
    contents[7] = b"P5 64 64 255\n" + a[4].tobytes()
    contents[8] = pgm_bytes(a[5]) + b"trailing bytes"
    manifest, records, paths = write_image_corpus(tmp_path, contents)
    calls = []
    real_read_pgm = dataset.read_pgm

    def counted(path, into=None):
        pixels = real_read_pgm(path, into)
        calls.append((path, pixels is into))
        return pixels

    monkeypatch.setattr(dataset, "read_pgm", counted)
    got = read_images(manifest, records)
    # one read_pgm call per file; the first shape's files in the writer's
    # form after the first are read straight into their rows
    assert calls == [(str(p), k in (3, 6, 8)) for k, p in enumerate(paths)]
    # the first shape's stack first, each in record order
    ids = [r.id for r in records]
    assert [(i, p.shape) for i, p in got] == [
        ([ids[k] for k in (0, 1, 3, 6, 7, 8)], (6, 64, 64)),
        ([ids[k] for k in (2, 4, 5)], (3, 37, 53))]
    for stack_ids, pixels in got:
        for meme_id, row in zip(stack_ids, pixels):
            k = ids.index(meme_id)
            assert np.array_equal(row, real_read_pgm(paths[k]))
            assert np.array_equal(row, images[k])


def test_read_images_rejects_an_id_given_twice(tmp_path):
    # before the repeat's file is read, so its missing file is not reported
    img = np.zeros((8, 8), np.uint8)
    manifest, records, _ = write_image_corpus(tmp_path, [pgm_bytes(img)] * 2 + [None])
    records[2] = dataclasses.replace(records[2], id=records[0].id)
    with pytest.raises(DataFormatError, match=f"^duplicate id {records[0].id}$"):
        read_images(manifest, records)


def test_ingest_hashes_of_mixed_shapes_are_each_images_phash(tmp_path):
    # the hash stage's path over a corpus of three shapes, whose ids do not
    # run in stack order
    rng = np.random.default_rng(45)
    shapes = [(64, 64), (37, 53), (64, 64), (20, 90), (37, 53), (64, 64), (20, 90)]
    contents = [pgm_bytes(rng.integers(0, 256, size=shape, dtype=np.uint8))
                for shape in shapes]
    manifest, records, paths = write_image_corpus(tmp_path, contents)
    stacks = read_images(manifest, records)
    assert [p.shape[1:] for _, p in stacks] == [(64, 64), (37, 53), (20, 90)]
    assert image_hashes(stacks) == sorted(
        (r.id, phash(read_pgm(path))) for r, path in zip(records, paths))


@pytest.mark.parametrize("name, content, message", [
    ("truncated", b"P5\n64 64\n255\n" + bytes(4095), "truncated pixel data"),
    ("truncated at the header", b"P5\n64 64\n255", "truncated pixel data"),
    ("degenerate", b"P5\n7 64\n255\n" + bytes(448),
     "degenerate image 64x7: need at least 8x8 pixels"),
    ("not a PGM", b"P6\n64 64\n255\n" + bytes(3 * 4096), "not a binary PGM (P5) file"),
    ("maxval", b"P5\n64 64\n65535\n" + bytes(8192), "only maxval 255 is supported, got 65535"),
    ("empty", b"", "not a binary PGM (P5) file"),
    ("missing", None, FileNotFoundError),
    ("directory", "dir", IsADirectoryError),
])
def test_read_images_names_a_bad_file_mid_corpus(tmp_path, name, content, message):
    rng = np.random.default_rng(44)
    good = [pgm_bytes(rng.integers(0, 256, size=(64, 64), dtype=np.uint8)) for _ in range(3)]
    manifest, records, paths = write_image_corpus(tmp_path, [*good[:2], content, good[2]])
    if isinstance(message, str):
        with pytest.raises(DataFormatError) as err:
            read_images(manifest, records)
        assert str(err.value) == f"{paths[2]}: {message}"
    else:
        with pytest.raises(message) as err:
            read_images(manifest, records)
        assert err.value.filename == str(paths[2])
