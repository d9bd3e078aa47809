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

A corpus's images are held in an ImageStacks: a mapping meme id -> pixels
over one contiguous (n, h, w) uint8 array per image shape, filled as the
images are read or generated, so the hash stage takes a whole stack at
once and no second copy of the pixels is made.  `read_images` fills it:
a file that starts with the header write_pgm writes for the previous
image's shape is read with one os.readv straight into the next row of that
shape's stack, and any other file goes through read_pgm's parse and is
copied in.  Either way read_pgm is called once per file.
"""

import functools
import json
import math
import os
import re
from collections.abc import Mapping
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


# ids are held in int64 arrays, so a meme id lies below 2**63
_ID_END = 2**63


def _is_meme_id(value):
    """A meme id is an int in [0, 2**63), and a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < _ID_END


def id_error(value):
    """The message for a value that is not a meme id."""
    return f"id must be a non-negative integer below 2**63, got {value!r}"


def _check_record(rec):
    """Raise DataFormatError, naming the fault alone, on an invalid record."""
    if not _is_meme_id(rec.id):
        raise DataFormatError(id_error(rec.id))
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


class _Stack:
    """The images of one shape: `rows`, writable, with room for more;
    `frozen`, a read-only view of the same memory; and each row's meme id."""

    __slots__ = ("rows", "frozen", "ids")

    def __init__(self, shape, capacity):
        self.ids = []
        self.resize(shape, capacity)

    def resize(self, shape, capacity):
        rows = np.empty((capacity, *shape), np.uint8)
        if self.ids:
            rows[:len(self.ids)] = self.rows[:len(self.ids)]
        self.rows, self.frozen = rows, rows.view()
        self.frozen.flags.writeable = False


class ImageStacks(Mapping):
    """Meme id -> pixels, a 2-D uint8 array, held as one contiguous
    (n, h, w) uint8 array per image shape.

    ImageStacks(size_hint) is empty.  `add` keeps an image as a meme's,
    copied into the next row of its shape's stack, unless it is the row
    `next_row` handed out last, which a reader fills in place.  The first
    shape's stack is made with size_hint rows, as a corpus is mostly of one
    shape; another shape's starts with one row, and a full stack doubles.
    Each image is a read-only view of its row, and `stacks` lists each
    shape's (ids, pixels) in the order the shapes were first added.
    """

    def __init__(self, size_hint):
        self._first_rows = max(1, size_hint)
        self._stacks = {}      # shape -> _Stack
        self._where = {}       # meme id -> (_Stack, row)
        self._next = None      # the row next_row handed out last

    def next_row(self, shape):
        """The writable row that the next image of this shape goes to."""
        stack = self._stacks.get(shape)
        if stack is None:
            stack = self._stacks[shape] = _Stack(shape, 1 if self._stacks else self._first_rows)
        elif len(stack.ids) == len(stack.rows):
            stack.resize(shape, 2 * len(stack.rows))
        self._next = stack.rows[len(stack.ids)]
        return self._next

    def add(self, meme_id, pixels):
        """Keep a 2-D uint8 image as meme_id's."""
        if meme_id in self._where:
            raise DataFormatError(f"duplicate id {meme_id}")
        if pixels is not self._next:
            self.next_row(pixels.shape)[...] = pixels
        stack = self._stacks[pixels.shape]
        self._where[meme_id] = stack, len(stack.ids)
        stack.ids.append(meme_id)
        self._next = None

    @property
    def stacks(self):
        """[(ids, pixels)]: each shape's meme ids, a list, and their images,
        read-only, as one (n, h, w) uint8 array in the same order."""
        return [(list(s.ids), s.frozen[:len(s.ids)]) for s in self._stacks.values()]

    def __getitem__(self, meme_id):
        stack, row = self._where[meme_id]
        return stack.frozen[row]

    def __iter__(self):
        return iter(self._where)

    def __len__(self):
        return len(self._where)


def read_images(manifest_path, records):
    """An ImageStacks of each record's image, read relative to the manifest,
    in record order.  An image too small to hash is rejected here, by its
    path."""
    from .phash import BLOCK_SIDE  # phash imports this module
    root = os.path.dirname(os.path.abspath(manifest_path))
    images = ImageStacks(len(records))
    shape = None
    for rec in records:
        path = os.path.join(root, rec.img)
        # the next file most likely has the last one's shape and header
        pixels = read_pgm(path, None if shape is None else images.next_row(shape))
        shape = pixels.shape
        if min(shape) < BLOCK_SIDE:
            raise DataFormatError(f"{path}: degenerate image {shape[0]}x{shape[1]}: "
                                  f"need at least {BLOCK_SIDE}x{BLOCK_SIDE} pixels")
        images.add(rec.id, pixels)
    return images
