"""The benchmark still runs against the package.

perfbench/spans.py wraps memepipe functions by module and name to split a
run's time by layer; renaming or inlining one of them breaks the benchmark
only when it runs.  Three tests install the tracer around one small
pipeline run, with and without images and on an ingested corpus, so such a
break fails here first.  Another runs one small operation through
perfbench's own workload and checks, restage included, so a changed type or
artifact that would crash or fail them fails here too.  A fifth runs
perfbench's warm-up at a hundred seeds, since one that fails stops a
workload.
"""

import importlib.util
import shutil
import time
from pathlib import Path

from memepipe import cli
from memepipe.generator import generate_corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_pipeline(out_dir, *args):
    """perfbench's tracer installed around one small pipeline run: the
    spans module, the exit code, the spans and the run's wall time."""
    spans = load_perfbench("spans")
    tracer = spans.Tracer()
    tracer.install()          # raises spans.MissingTarget if a target is gone
    try:
        tracer.run = "run"
        start = time.perf_counter()
        code = cli.main(["--quiet", "pipeline", "--n", "60", "--models", "1",
                         "--k", "2", *args, "--outdir", str(out_dir)])
        wall_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return spans, code, tracer.spans, wall_s


def test_traced_pipeline_feeds_layer_metrics(tmp_path):
    spans, code, traced, wall_s = traced_pipeline(tmp_path, "--no-images")
    assert code == 0
    metrics = spans.layer_metrics(traced, "run", wall_s)
    assert metrics["simulator.sets"] == 2
    # two sets, their two rule 2 copies and stacked.csv; the rules' changed
    # scores are summed over every call, so a writer or rule refactor that
    # moves a traced count fails here
    assert metrics["ensemble.files_written"] == 5
    assert (metrics["rules.rule1_changed"], metrics["rules.rule2_changed"]) == (36, 12)
    # the held-out three-tuple members written to pseudo_labels.csv
    assert metrics["rules.pseudo_labels"] == 6
    # 60 memes placed from 61 candidates, the count perfbench's
    # generator.phash_calls rests on; the hash stage takes the hashes the
    # generator kept, so a generated corpus is not hashed again
    assert metrics["generator.phash_calls"] == 61
    # 60 images over those 61 candidates: perfbench reads the count as
    # len(r.images), so a changed type of GeneratedDataset.images fails here
    assert metrics["generator.accept_ratio"] == 60 / 61
    assert not [s for s in traced if s.name == "generator.image_hashes"]


def test_traced_ingest_hashes_the_corpus_once(tmp_path):
    generate_corpus(tmp_path / "corpus", 60, seed=7)
    spans, code, traced, _ = traced_pipeline(
        tmp_path / "run", "--manifest", str(tmp_path / "corpus" / "manifest.jsonl"))
    assert code == 0
    # the hash stage is one image_hashes call that hashes the corpus's
    # stack, with no per-image phash span
    stage = [i for i, s in enumerate(traced) if s.name == "generator.image_hashes"]
    assert len(stage) == 1
    assert not [s for s in traced if s.parent == stage[0]]


def test_traced_pipeline_with_images_nests_every_span(tmp_path):
    # the tracer keeps one stack of open spans for every thread, so a traced
    # function called by the image writer's thread would give the main
    # thread's spans the wrong parents and move these counts
    spans, code, traced, wall_s = traced_pipeline(tmp_path)
    assert code == 0
    assert spans.layer_metrics(traced, "run", wall_s)["generator.phash_calls"] == 61
    assert [s.name for s in traced].count("generator.write_images") == 1
    for s in traced:
        if s.parent >= 0:
            parent = traced[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end, (s, parent)


def test_restaged_operation_passes_every_check(tmp_path):
    workloads, check = load_perfbench("workloads"), load_perfbench("check")
    tiny = workloads.Workload("tiny", 60, ("--n", "60", "--models", "2", "--k", "2",
                                           "--no-images"), restage=True)
    code, stdout, restaged = workloads.operation(tiny, str(tmp_path), 7, None)
    assert code == 0
    records = check.read_manifest(tmp_path / "manifest.jsonl")
    problems = check.check_result_line(stdout, 7, tiny.golden_seed)
    problems += check.check_submission(tmp_path, records, check.parse_result(stdout))
    problems += check.check_three_tuples(tmp_path / "tuples.jsonl",
                                         tmp_path / "constructed_groups.jsonl")[0]
    problems += check.check_clusters(tmp_path, records)
    problems += check.check_restage(tmp_path, restaged)
    assert problems == []


def test_warmup_pipeline_exits_zero_at_every_seed(tmp_path):
    # run.py's untimed warm-up fails the whole workload unless it exits 0;
    # at n=60 some seeds (51, 53, ...) give a single-class test split, and
    # at n=10 most do, which must cost the report only
    workloads = load_perfbench("workloads")
    runs = [(seed, workloads.WARMUP_ARGS) for seed in range(100)]
    runs += [(seed, ("--n", "10", "--models", "1", "--k", "2", "--no-images"))
             for seed in range(5)]
    for seed, args in runs:
        outdir = tmp_path / "warmup"
        code, _ = workloads.cli(["pipeline", "--outdir", str(outdir),
                                 "--seed", str(seed), *args])
        assert code == 0, (seed, args)
        assert (outdir / "submission.csv").exists(), (seed, args)
        shutil.rmtree(outdir)
