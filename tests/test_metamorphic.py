"""Metamorphic tests of the whole run: a small generated corpus is ingested
with `pipeline --manifest`, then ingested again after an edit that must
not change its answer, and the two run directories are compared file by
file."""

import dataclasses
import json
import random
import re

import numpy as np
import pytest

from memepipe import cli
from memepipe.clustering import normalize_text
from memepipe.dataset import read_manifest, read_pgm, write_manifest, write_pgm
from memepipe.generator import generate_corpus

# the two files that may differ: the merged training manifest, which keeps
# the ingested records' order and texts, and run_manifest.json, which
# records the manifest path and every artifact's digest
EDITABLE = {"merged_train_manifest.jsonl", "run_manifest.json"}


def run_dir(root):
    """Relative path -> bytes of every file under root."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def ingest(manifest, out):
    assert cli.main(["--quiet", "pipeline", "--outdir", str(out),
                     "--manifest", str(manifest)]) == 0
    return run_dir(out)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """(corpus directory, its records, the files of a run that ingests it)."""
    root = tmp_path_factory.mktemp("metamorphic")
    generate_corpus(str(root / "corpus"), 300, seed=3)
    records = read_manifest(root / "corpus" / "manifest.jsonl")
    return root / "corpus", records, ingest(root / "corpus" / "manifest.jsonl", root / "run")


def differing(a, b):
    assert a.keys() == b.keys()
    return {name for name in a if a[name] != b[name]}


def test_manifest_line_order_changes_no_answer(corpus, tmp_path):
    corpus_dir, records, base = corpus
    shuffled = list(records)
    random.Random(11).shuffle(shuffled)
    assert shuffled != records
    write_manifest(shuffled, corpus_dir / "shuffled.jsonl")
    run = ingest(corpus_dir / "shuffled.jsonl", tmp_path / "run")
    assert differing(base, run) == EDITABLE
    merged = "merged_train_manifest.jsonl"
    assert base[merged].splitlines() != run[merged].splitlines()
    assert sorted(base[merged].splitlines()) == sorted(run[merged].splitlines())


def _recased(text, rng):
    """text with letters' case flipped at random and each space run redrawn,
    plus whitespace at both ends: the same text after normalize_text."""
    text = "".join(c.swapcase() if c.isascii() and rng.random() < 0.5 else c for c in text)
    words = re.split(" +", text)
    return (rng.choice(["", " ", "\t"])
            + "".join(w + rng.choice([" ", "  ", "\t", " \n "]) for w in words[:-1])
            + words[-1] + rng.choice(["", " ", "\n"]))


def test_text_case_and_whitespace_change_no_answer(corpus, tmp_path):
    corpus_dir, records, base = corpus
    rng = random.Random(12)
    edited = [dataclasses.replace(rec, text=_recased(rec.text, rng)) for rec in records]
    assert all(normalize_text(e.text) == normalize_text(r.text)
               for e, r in zip(edited, records))
    assert sum(e.text != r.text for e, r in zip(edited, records)) > 250
    write_manifest(edited, corpus_dir / "recased.jsonl")
    run = ingest(corpus_dir / "recased.jsonl", tmp_path / "run")
    assert differing(base, run) == EDITABLE
    config = json.loads(run["run_manifest.json"])["config"]
    assert config["manifest"] == str(corpus_dir / "recased.jsonl")


# the corpus's pixels span 73..187, so each map stays inside 0..255
@pytest.mark.parametrize("scale, shift", [(2, -140), (1, 60)])
def test_affine_pixel_map_changes_no_answer(corpus, tmp_path, scale, shift):
    corpus_dir, records, base = corpus
    mapped = tmp_path / "corpus"
    (mapped / "images").mkdir(parents=True)
    for rec in records:
        pixels = read_pgm(corpus_dir / rec.img).astype(np.int64)
        assert 73 <= pixels.min() and pixels.max() <= 187
        write_pgm((scale * pixels + shift).astype(np.uint8), mapped / rec.img)
    write_manifest(records, mapped / "manifest.jsonl")
    run = ingest(mapped / "manifest.jsonl", tmp_path / "run")
    assert differing(base, run) == {"run_manifest.json"}


def _renumbered(text, new_id):
    """The rows of a clusters.csv or tuples.jsonl, each id as new_id(id)."""
    if text.startswith(b"{"):
        return [{k: new_id(v) if type(v) is int else v for k, v in json.loads(line).items()}
                for line in text.splitlines()]
    return [[new_id(int(field)) for field in line.split(b",")] for line in text.splitlines()]


def test_monotone_id_renumbering_maps_the_structure(corpus, tmp_path):
    corpus_dir, records, base = corpus

    def new_id(meme_id):
        return 3 * meme_id + 5
    renumbered = [dataclasses.replace(rec, id=new_id(rec.id)) for rec in records]
    write_manifest(renumbered, corpus_dir / "renumbered.jsonl")
    run = ingest(corpus_dir / "renumbered.jsonl", tmp_path / "run")
    for name in ("clusters.csv", "tuples.jsonl"):
        assert _renumbered(base[name], new_id) == _renumbered(run[name], int)
    # every draw is seeded by its id, so the scores move
    base_rows = [row.split(b",") for row in base["stacked.csv"].splitlines()[1:]]
    run_rows = [row.split(b",") for row in run["stacked.csv"].splitlines()[1:]]
    assert [new_id(int(row[0])) for row in base_rows] == [int(row[0]) for row in run_rows]
    assert [row[1] for row in base_rows] != [row[1] for row in run_rows]
