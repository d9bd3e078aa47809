"""The benchmark still runs against the package.

perfbench/spans.py wraps memepipe functions by module and name to split a
run's time by layer; renaming or inlining one of them breaks the benchmark
only when it runs.  One test installs the tracer around one small pipeline
run, so such a break fails here first.  Another runs one small operation
through perfbench's own workload and checks, restage included, so a changed
type or artifact that would crash or fail them fails here too.
"""

import importlib.util
import time
from pathlib import Path

from memepipe import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pipeline_feeds_layer_metrics(tmp_path):
    spans = load_perfbench("spans")
    tracer = spans.Tracer()
    tracer.install()          # raises spans.MissingTarget if a target is gone
    try:
        tracer.run = "run"
        start = time.perf_counter()
        code = cli.main(["--quiet", "pipeline", "--n", "60", "--models", "1",
                         "--k", "2", "--no-images", "--outdir", str(tmp_path)])
        wall_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = spans.layer_metrics(tracer.spans, "run", wall_s)
    assert metrics["simulator.sets"] == 2
    # two sets, their two rule 2 copies and stacked.csv; the rules' changed
    # scores are summed over every call, so a writer or rule refactor that
    # moves a traced count fails here
    assert metrics["ensemble.files_written"] == 5
    assert (metrics["rules.rule1_changed"], metrics["rules.rule2_changed"]) == (36, 12)
    # the held-out three-tuple members written to pseudo_labels.csv
    assert metrics["rules.pseudo_labels"] == 6
    # 60 memes placed from 61 candidates, the count perfbench's
    # generator.phash_calls rests on; the hash stage is one image_hashes
    # call that hashes the corpus's stack, with no per-image phash span
    assert metrics["generator.phash_calls"] == 61
    stage = [i for i, s in enumerate(tracer.spans) if s.name == "generator.image_hashes"]
    assert len(stage) == 1
    assert not [s for s in tracer.spans if s.parent == stage[0]]


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
