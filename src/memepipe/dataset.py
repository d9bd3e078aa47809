"""Corpus records, manifest serialization, and PGM image files.

A manifest is line-delimited JSON, one record per line with keys id, img,
text, label (optional outside the train split) and split.  Images are binary
PGM (P5) files with maxval 255.

PGM files are read and written with os-level calls (os.open, os.read,
os.write) and no buffered file object: a corpus holds thousands of small
images, and the fixed cost per file is most of the cost.  A file is read in
chunks of at most _READ_CHUNK bytes, and read_pgm returns a read-only view
of the pixels in the bytes read, without a copy.  An OSError names the file,
as open() would.
"""

import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError

SPLITS = ("train", "dev", "test")

# whitespace bytes and '#' comment lines, any number of them
_PGM_SKIP = rb"(?:\s|#[^\n]*\n)*"
# "P5", then width, height and maxval, each after whitespace; the header
# ends at one whitespace byte (or at the end of the file)
_PGM_HEADER = re.compile(_PGM_SKIP + rb"P5" + (rb"\s" + _PGM_SKIP + rb"(\d+)") * 3
                         + rb"(?:\s|\Z)")
# bytes per os.read: one call holds a 64x64 image, and a large file is read
# without a buffer much larger than itself
_READ_CHUNK = 1 << 16


@dataclass
class MemeRecord:
    id: int
    img: str
    text: str
    label: int | None
    split: str


@dataclass(frozen=True)
class DatasetComposition:
    """Category fractions for the synthetic generator.  Must sum to 1."""

    multimodal_hate: float = 0.40
    unimodal_hate: float = 0.10
    benign_text_confounder: float = 0.20
    benign_image_confounder: float = 0.20
    random_benign: float = 0.10

    def __post_init__(self):
        fracs = self.as_tuple()
        if not all(f >= 0 for f in fracs):   # `not >=` rejects NaN too
            raise ConfigError(f"composition fractions must be >= 0, got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError(f"composition fractions must sum to 1, got {sum(fracs)}")

    def as_tuple(self):
        return (self.multimodal_hate, self.unimodal_hate,
                self.benign_text_confounder, self.benign_image_confounder,
                self.random_benign)

    def counts(self, n):
        """Per-category counts: floor(n * frac), remainder to random benign."""
        base = [int(np.floor(n * f)) for f in self.as_tuple()]
        base[4] += n - sum(base)
        return tuple(base)

    @classmethod
    def parse(cls, text):
        try:
            fracs = [float(p) for p in text.split(",")]
        except ValueError:
            fracs = []
        if len(fracs) != 5:
            raise ConfigError(f"expected 5 comma-separated fractions, got {text!r}")
        return cls(*fracs)


@dataclass(frozen=True)
class GeneratorNoise:
    """Perturbation knobs for the synthetic generator."""

    image_amplitude: float = 4.0      # intensity units, applied in the text band only
    text_perturb_prob: float = 0.5    # chance a shared text is case/whitespace mangled
    label_noise: float = 0.0          # chance a recorded label is flipped

    def __post_init__(self):
        if not 0 <= self.image_amplitude < math.inf:   # rejects NaN too
            raise ConfigError(f"image_amplitude must be >= 0 and finite, "
                              f"got {self.image_amplitude}")
        for name in ("text_perturb_prob", "label_noise"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")


def _is_meme_id(value):
    """A meme id is a non-negative int, and a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_record(rec):
    """Raise DataFormatError, naming the fault alone, on an invalid record."""
    if not _is_meme_id(rec.id):
        raise DataFormatError(f"id must be a non-negative integer, got {rec.id!r}")
    if not isinstance(rec.img, str) or not rec.img:
        raise DataFormatError("img must be a non-empty string")
    if not isinstance(rec.text, str):
        raise DataFormatError("text must be a string")
    if rec.split not in SPLITS:
        raise DataFormatError(f"split must be one of {SPLITS}, got {rec.split!r}")
    # type(), not isinstance(): True == 1 and 1.0 == 1, but neither is a label
    if rec.label is not None and (type(rec.label) is not int or rec.label not in (0, 1)):
        raise DataFormatError(f"label must be 0 or 1, got {rec.label!r}")
    if rec.split == "train" and rec.label is None:
        raise DataFormatError(f"train record {rec.id} is missing a label")


def _numbered_lines(path):
    """(line number, stripped line) for each line of a UTF-8 text file; a
    file that is not UTF-8 raises DataFormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from None
    return enumerate((line.strip() for line in text.split("\n")), start=1)


# what json.loads and json.dumps call with their default arguments, minus
# their per-call argument checks
_decode_json = json.JSONDecoder().decode
_encode_json = json.JSONEncoder().encode


def _manifest_record(line):
    """One manifest line as a checked record; a fault raises DataFormatError."""
    try:
        obj = _decode_json(line)
    except json.JSONDecodeError:
        try:
            json.loads(line)    # fails too, and its message names a leading BOM
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"invalid JSON: {exc}") from None
        raise
    if not isinstance(obj, dict):
        raise DataFormatError("expected an object")
    for key in ("id", "img", "text", "split"):
        if key not in obj:
            raise DataFormatError(f"missing field {key!r}")
    rec = MemeRecord(id=obj["id"], img=obj["img"], text=obj["text"],
                     label=obj.get("label"), split=obj["split"])
    _check_record(rec)
    return rec


def read_manifest(path):
    """Parse a manifest file into records, in file order.

    Raises DataFormatError (with the path and offending line number) on
    malformed JSON, missing or invalid fields, and duplicate ids.
    """
    records = []
    seen = set()
    for lineno, line in _numbered_lines(path):
        if not line:
            continue
        try:
            rec = _manifest_record(line)
            if rec.id in seen:
                raise DataFormatError(f"duplicate id {rec.id}")
        except DataFormatError as exc:
            raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
        seen.add(rec.id)
        records.append(rec)
    return records


def _parse_id(field):
    """A meme id written in a CSV field: ASCII decimal digits only, so no
    sign, space or underscore, as the JSON files' ids are non-negative ints."""
    if not (field.isascii() and field.isdigit()):
        raise ValueError(f"id must be a non-negative integer, got {field!r}")
    return int(field)


def _parse_label(field):
    """A label written in a CSV field: exactly `0` or `1`."""
    if field not in ("0", "1"):
        raise ValueError(f"label must be 0 or 1, got {field!r}")
    return int(field)


def read_csv(path, columns, parse, header=True, ignored=()):
    """Read a comma-separated file into a dict id -> value, in file order.

    The first column is the id, read by `_parse_id`, and may not repeat.
    With header=True the first line must be the column names joined by
    commas, or those followed by the `ignored` names, whose fields are then
    dropped.  Blank lines are skipped; every other line has one field per
    column, and parse(*fields after the id) returns the value or raises
    ValueError.  Faults raise DataFormatError with path and line.
    """
    rows = {}
    names = columns
    lines = _numbered_lines(path)
    if header:
        _, first = next(lines)
        if first == ",".join(columns + ignored):
            names = columns + ignored
        elif first != ",".join(columns):
            raise DataFormatError(f"{path}: line 1: expected header "
                                  f"{','.join(columns)!r}, got {first!r}")
    expected = ",".join(names)
    for lineno, line in lines:
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(names):
            raise DataFormatError(f"{path}: line {lineno}: expected {expected}, "
                                  f"got {len(parts)} fields")
        try:
            key = _parse_id(parts[0])
            value = parse(*parts[1:len(columns)])
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {lineno}: malformed row {line!r}: "
                                  f"{exc}") from None
        if key in rows:
            raise DataFormatError(f"{path}: line {lineno}: duplicate id {key}")
        rows[key] = value
    return rows


def write_lines(path, lines):
    """Write each line, ended by a newline, to a UTF-8 text file in one call."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([*lines, ""]))


def write_manifest(records, path):
    """Write records as line-delimited JSON.  Round-trips through read_manifest."""
    seen, lines = set(), []
    for rec in records:
        try:
            _check_record(rec)
        except DataFormatError as exc:
            raise DataFormatError(f"record id {rec.id}: {exc}") from None
        if rec.id in seen:
            raise DataFormatError(f"duplicate id {rec.id}")
        seen.add(rec.id)
        obj = {"id": rec.id, "img": rec.img, "text": rec.text}
        if rec.label is not None:
            obj["label"] = rec.label
        obj["split"] = rec.split
        lines.append(_encode_json(obj))
    write_lines(path, lines)


def write_pgm(pixels, path):
    """Write a 2-D uint8 array as a binary PGM (P5, maxval 255) file."""
    arr = np.asarray(pixels)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        raise ValueError(f"expected uint8 pixels, got {arr.dtype}")
    data = memoryview(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
                      + arr.tobytes())
    # 0o666 less the umask: the mode open() gives a new file
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)


def _read_bytes(path):
    """A whole file's bytes, read in chunks of _READ_CHUNK.  An OSError names
    the path, as open() does: os.open opens a directory, and only the
    os.read after it fails, with no file name."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_CHUNK):
            chunks.append(chunk)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    return b"".join(chunks)


def read_pgm(path):
    """Read a binary PGM (P5, maxval 255) file into a 2-D uint8 array.

    The header is "P5", then width, height and maxval as ASCII decimal
    digits.  Each of the three numbers follows whitespace; whitespace and
    '#' comment lines may come before "P5" and before each number.  One
    whitespace byte ends the header, and the pixel bytes follow; bytes after
    the last pixel are ignored.  The array is a read-only view of the bytes
    read.
    """
    data = _read_bytes(path)
    header = _PGM_HEADER.match(data)
    if header is None:
        raise DataFormatError(f"{path}: not a binary PGM (P5) file")
    width, height, maxval = map(int, header.groups())
    if maxval != 255:
        raise DataFormatError(f"{path}: only maxval 255 is supported, got {maxval}")
    if len(data) - header.end() < width * height:
        raise DataFormatError(f"{path}: truncated pixel data")
    return np.frombuffer(data, np.uint8, width * height, header.end()).reshape(height, width)


def read_images(manifest_path, records):
    """Map meme id -> pixels, reading each record's image relative to the
    manifest.  An image too small to hash is rejected here, by its path."""
    from .phash import BLOCK_SIDE  # phash imports this module
    root = os.path.dirname(os.path.abspath(manifest_path))
    images = {}
    for rec in records:
        path = os.path.join(root, rec.img)
        images[rec.id] = pixels = read_pgm(path)
        if min(pixels.shape) < BLOCK_SIDE:
            h, w = pixels.shape
            raise DataFormatError(f"{path}: degenerate image {h}x{w}: need at least "
                                  f"{BLOCK_SIDE}x{BLOCK_SIDE} pixels")
    return images
