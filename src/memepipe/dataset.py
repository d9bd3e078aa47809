"""Corpus records, manifest serialization, and PGM image files.

A manifest is line-delimited JSON, one record per line with keys id, img,
text, label (optional outside the train split) and split.  Images are binary
PGM (P5) files with maxval 255.

PGM files are written with os-level calls (os.open, os.write) and no
buffered file object: a corpus holds thousands of small images, and the
fixed cost per file is most of the cost.  An OSError names the file, as
open() would.

A corpus's images are held as [(ids, pixels)] stacks, one per image shape,
each pixels one contiguous (n, h, w) uint8 array of ids' images, so the
hash stage takes a whole stack at once.  `read_images` builds them with one
read_pgm call per file.  The first file is read whole and parsed; its shape
gets an array with a row per record, and each later file is offered the
next free row, so a file that starts with the header write_pgm writes for
that shape is read with one os.readv straight into it.  Any other file is
parsed as the first was; its image is copied into the row if it has the
first shape, or else kept in a list of its shape's images, which is stacked
once after the last file.
"""

import functools
import json
import os
import re
import sys
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
        # the noise is drawn from [-a, a], whose width 2 * a must be finite
        if not 0 <= self.image_amplitude <= sys.float_info.max / 2:   # rejects NaN too
            raise ConfigError(f"image_amplitude must be >= 0 and finite, at most "
                              f"{sys.float_info.max / 2!r}, got {self.image_amplitude}")
        for name in ("text_perturb_prob", "label_noise"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")


# ids are held in int64 arrays, so a meme id lies below 2**63
_ID_END = 2**63


def _is_meme_id(value):
    """A meme id is an int in [0, 2**63), and a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < _ID_END


def id_error(value):
    """The message for a value that is not a meme id."""
    return f"id must be a non-negative integer below 2**63, got {value!r}"


@dataclass(frozen=True)
class MemeRecord:
    """One meme of a corpus, checked when built: a fault raises
    DataFormatError naming the fault alone.  A changed copy is made with
    dataclasses.replace, which checks it again."""

    id: int
    img: str
    text: str
    label: int | None
    split: str

    def __post_init__(self):
        if not _is_meme_id(self.id):
            raise DataFormatError(id_error(self.id))
        if not isinstance(self.img, str) or not self.img:
            raise DataFormatError("img must be a non-empty string")
        if not isinstance(self.text, str):
            raise DataFormatError("text must be a string")
        if self.split not in SPLITS:
            raise DataFormatError(f"split must be one of {SPLITS}, got {self.split!r}")
        # type(), not isinstance(): True == 1 and 1.0 == 1, but neither is a label
        if self.label is not None and (type(self.label) is not int or self.label not in (0, 1)):
            raise DataFormatError(f"label must be 0 or 1, got {self.label!r}")
        if self.split == "train" and self.label is None:
            raise DataFormatError(f"train record {self.id} is missing a label")


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
    return MemeRecord(id=obj["id"], img=obj["img"], text=obj["text"],
                      label=obj.get("label"), split=obj["split"])


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
    sign, space or underscore, as the JSON files' ids are non-negative ints,
    and below 2**63."""
    if not (field.isascii() and field.isdigit() and len(field.lstrip("0")) <= 19
            and int(field) < _ID_END):
        raise ValueError(id_error(field))
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
    """Write records, checked when they were built, as line-delimited JSON.
    Round-trips through read_manifest; a repeated id raises DataFormatError."""
    seen, lines = set(), []
    for rec in records:
        if rec.id in seen:
            raise DataFormatError(f"duplicate id {rec.id}")
        seen.add(rec.id)
        obj = {"id": rec.id, "img": rec.img, "text": rec.text}
        if rec.label is not None:
            obj["label"] = rec.label
        obj["split"] = rec.split
        lines.append(_encode_json(obj))
    write_lines(path, lines)


# bounded: a real corpus can hold many image sizes
@functools.lru_cache(maxsize=64)
def _pgm_header(height, width):
    """The header write_pgm writes before height x width pixels."""
    return f"P5\n{width} {height}\n255\n".encode("ascii")


def write_pgm(pixels, path):
    """Write a 2-D uint8 array as a binary PGM (P5, maxval 255) file."""
    arr = np.asarray(pixels)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        raise ValueError(f"expected uint8 pixels, got {arr.dtype}")
    data = memoryview(_pgm_header(*arr.shape) + arr.tobytes())
    # 0o666 less the umask: the mode open() gives a new file
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)


def _read_into(path, pixels):
    """Whether the file at path starts with write_pgm's header for the shape
    of `pixels`, a writable C-contiguous uint8 array, and holds at least one
    byte per pixel after it, read into `pixels`.  An OSError counts as no:
    read_pgm's own read raises it again, with the path."""
    header = _pgm_header(*pixels.shape)
    got = bytearray(len(header))
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return False
    try:
        size = os.readv(fd, (got, pixels))
    except OSError:
        return False
    finally:
        os.close(fd)
    return size == len(header) + pixels.size and got == header


def read_pgm(path, into=None):
    """Read a binary PGM (P5, maxval 255) file into a 2-D uint8 array.

    The header is "P5", then width, height and maxval as ASCII decimal
    digits.  Each of the three numbers follows whitespace; whitespace and
    '#' comment lines may come before "P5" and before each number.  One
    whitespace byte ends the header, and the pixel bytes follow; bytes after
    the last pixel are ignored.  The array is a read-only view of the bytes
    read.

    `into` is for reading a corpus: a writable C-contiguous uint8 array of
    some shape h x w.  A file that starts with the header write_pgm writes
    for that shape has its pixels read straight into `into`, which is
    returned: those bytes parse as h x w at maxval 255 with the pixels right
    after them, so they need no parse.  Any other file is read as without it.
    """
    if into is not None and _read_into(path, into):
        return into
    with open(path, "rb") as fh:
        data = fh.read()
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
    """[(ids, pixels)] stacks of each record's image, read relative to the
    manifest as the module docstring says, the first shape's stack first.
    An image too small to hash is rejected here, by its path, and an id
    given twice raises DataFormatError."""
    from .phash import BLOCK_SIDE  # phash imports this module
    root = os.path.dirname(os.path.abspath(manifest_path))
    rows, first_ids = None, []     # the first shape's array, and its ids
    others = {}                    # any other shape -> ([ids], [pixels])
    seen = set()
    for rec in records:
        if rec.id in seen:
            raise DataFormatError(f"duplicate id {rec.id}")
        seen.add(rec.id)
        path = os.path.join(root, rec.img)
        row = None if rows is None else rows[len(first_ids)]
        pixels = read_pgm(path, row)
        shape = pixels.shape
        if min(shape) < BLOCK_SIDE:
            raise DataFormatError(f"{path}: degenerate image {shape[0]}x{shape[1]}: "
                                  f"need at least {BLOCK_SIDE}x{BLOCK_SIDE} pixels")
        if rows is None:
            rows = np.empty((len(records), *shape), np.uint8)
            row = rows[0]
        if shape == row.shape:
            if pixels is not row:
                row[...] = pixels
            first_ids.append(rec.id)
        else:
            ids, images = others.setdefault(shape, ([], []))
            ids.append(rec.id)
            images.append(pixels)
    stacks = [] if rows is None else [(first_ids, rows[:len(first_ids)])]
    return stacks + [(ids, np.stack(images)) for ids, images in others.values()]
