"""The benchmark's workloads: what set-up builds and what one operation runs.

Each workload is a closed loop with one caller: the next pipeline run starts
only when the previous one has finished.  Every operation goes through the
public entry point `memepipe.cli.main(["pipeline", ...])`.  Functions are
looked up on their modules at call time, so a tracer installed by
`spans.Tracer` sees every call.
"""

import glob
import io
import os
from contextlib import redirect_stdout
from dataclasses import dataclass

import memepipe.cli
import memepipe.ensemble
import memepipe.rules
import memepipe.tuples


@dataclass(frozen=True)
class Workload:
    name: str
    n: int                  # memes per operation, the base of memes_per_s
    pipeline_args: tuple    # `pipeline` flags besides --outdir and --seed
    corpus_n: int = 0       # > 0: set-up generates a corpus this size to ingest
    restage: bool = False   # also restack the saved adjusted predictions
    golden_seed: int = -1   # seed whose RESULT line must equal the README's


WORKLOADS = {w.name: w for w in (
    # The README default: every module does part of the work.
    Workload("readme-2k", 2000, (), golden_seed=7),
    # Generator bypassed, simulator nearly so: read, hash and cluster dominate.
    Workload("ingest-3k", 3000, ("--models", "1", "--k", "2"), corpus_n=3000),
    # 80 prediction sets over a small corpus: the prediction side dominates.
    Workload("ensemble-80x1k", 1000,
             ("--n", "1000", "--models", "8", "--k", "10", "--no-images"), restage=True),
)}

# Untimed first operation: imports the lazily loaded parts of numpy/scipy.
WARMUP_ARGS = ("--n", "60", "--models", "1", "--k", "2", "--no-images")


def cli(argv):
    """(exit code, captured stdout) of one `memepipe` command."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = memepipe.cli.main(["--quiet", *argv])
    return code, out.getvalue()


def make_corpus(workload, corpus_dir, seed):
    """Set-up: write the corpus the timed run ingests; return its manifest path."""
    code, _ = cli(["gen-data", "--n", str(workload.corpus_n), "--outdir", corpus_dir,
                   "--seed", str(seed)])
    if code != 0:
        raise RuntimeError(f"gen-data exited with {code}")
    return os.path.join(corpus_dir, "manifest.jsonl")


def pipeline_argv(workload, outdir, seed, manifest=None):
    argv = ["pipeline", "--outdir", outdir, "--seed", str(seed), *workload.pipeline_args]
    if manifest is not None:
        argv += ["--manifest", manifest]
    return argv


def restage(outdir):
    """Restack preds_adjusted/*.csv and apply rule 1, as a user would by hand."""
    paths = sorted(glob.glob(os.path.join(outdir, "preds_adjusted", "*.csv")))
    sets = [memepipe.ensemble.read_predictions(path) for path in paths]
    stacked = memepipe.ensemble.stack_equal_weight(sets)
    groups = memepipe.tuples.read_groups(os.path.join(outdir, "tuples.jsonl"))
    final = memepipe.rules.apply_rule1(
        groups, memepipe.rules.PredictionSet("restaged", dict(stacked.mean_score)))
    return final.scores


def operation(workload, outdir, seed, manifest):
    """One timed operation: (exit code, stdout, restaged scores or None)."""
    code, stdout = cli(pipeline_argv(workload, outdir, seed, manifest))
    restaged = restage(outdir) if workload.restage and code == 0 else None
    return code, stdout, restaged
