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
                              read_manifest, read_pgm, write_manifest,
                              write_pgm)
from memepipe.ensemble import (StackedPrediction, read_predictions,
                               read_submission, write_predictions,
                               write_submission)
from memepipe.errors import DataFormatError
from memepipe.phash import read_hashes, write_hashes
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
                   lambda out, path: write_submission(StackedPrediction(*out), path),
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

    # an id is ASCII digits only, as int() alone would take all of these
    for bad_id in ("-1", "+1", "1_0", "1 ", "\u0661"):
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
    with pytest.raises(DataFormatError, match=r"^record id 4: split must be one of"):
        write_manifest([rec(3), rec(4, split="val")], tmp_path / "m.jsonl")
    with pytest.raises(DataFormatError, match=r"^duplicate id 3$"):
        write_manifest([rec(3), rec(3)], tmp_path / "m.jsonl")


def read_pgm_buffered(path):
    """read_pgm as it read through a buffered file object and sliced the
    pixels out: the reference for the os-level reader, result for result
    and error for error."""
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


_PIXELS = bytes(range(256)) * 600    # more than two default read chunks

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


@pytest.mark.parametrize("chunk", [7, dataset._READ_CHUNK])
@pytest.mark.parametrize("name", sorted(PGM_FILES))
def test_pgm_reader_matches_the_buffered_reader(tmp_path, monkeypatch, chunk, name):
    monkeypatch.setattr(dataset, "_READ_CHUNK", chunk)
    path = tmp_path / "000005.pgm"
    content = PGM_FILES[name]
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    for p in (path, str(path)):
        assert outcome(read_pgm, p) == outcome(read_pgm_buffered, p)


def test_pgm_reader_reads_in_chunks(tmp_path, monkeypatch):
    reads = []
    real_read = os.read

    def counted(fd, n):
        chunk = real_read(fd, n)
        reads.append((n, len(chunk)))
        return chunk

    monkeypatch.setattr(dataset.os, "read", counted)
    path = tmp_path / "big.pgm"
    size = path.write_bytes(PGM_FILES["larger than one read chunk"])
    assert read_pgm(path).shape == (300, 400)
    # a full chunk, the rest of the file, then the end of the file
    chunk = dataset._READ_CHUNK
    assert reads == [(chunk, chunk), (chunk, size - chunk), (chunk, 0)]


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
