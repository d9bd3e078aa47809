"""Benchmark of `memepipe pipeline`: end-to-end time and quality per workload,
and a traced run that splits the time by module.

One workload (the last stdout line is a JSON object with `correct`,
`attempted`, `failed` and `metrics`):

    python3 perfbench/run.py --workload readme-2k --seed 7 --seconds 20 --trace 0

Every workload in a fresh process, untraced then traced, as one table:

    python3 perfbench/run.py --all --seed 7

The benchmark imports memepipe from src/ of the checkout it sits in, pins
the numeric libraries to one thread, and keeps every run directory in a
temporary directory under .bench_tmp/ that it removes before it exits.
Metric names, units and directions come from BENCHMARK.json.
"""

import os

# One thread for BLAS/OpenMP, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibrate
import check
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
SPANS_DIR = ROOT / ".bench_out"

MIN_OPS = 3          # timed operations per run, however long they take
IMPORT_REPS = 3      # set-up: memepipe import timings, each in a fresh interpreter
IMPORT_PROBE = ("import time; t = time.perf_counter(); import memepipe.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name from BENCHMARK.json")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced, in fresh processes")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help=f"keep starting operations until this much time has "
                             f"passed (at least {MIN_OPS} run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.all and not args.workload:
        parser.error("give --workload NAME or --all")
    return args


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def probe_import():
    """Seconds a fresh interpreter takes to import memepipe.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def verify(workload, seed, outdir, manifest, outcome, reference):
    """(problems, RESULT tuple, planted recall, digests) of one operation."""
    code, stdout, restaged, error = outcome
    if error is not None:
        return [f"raised {error!r}"], None, 0.0, None
    if code != 0:
        return [f"exit code {code}"], None, 0.0, None
    problems = check.check_result_line(stdout, seed, workload.golden_seed)
    result = check.parse_result(stdout)
    if result is None:
        return problems + ["no parsable RESULT line"], None, 0.0, None
    try:
        records = check.read_manifest(manifest or outdir / "manifest.jsonl")
        problems += check.check_submission(outdir, records, result)
        planted = (Path(manifest).parent if manifest else outdir) / "constructed_groups.jsonl"
        tuple_problems, recall = check.check_three_tuples(outdir / "tuples.jsonl", planted)
        problems += tuple_problems
        problems += check.check_clusters(outdir, records)
        digests = check.run_digests(outdir)
        if workload.restage:
            problems += check.check_restage(outdir, restaged)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return problems + [f"unreadable artifact: {exc!r}"], result, 0.0, None
    if reference is not None and digests != reference:
        changed = sorted(k for k in digests.keys() | reference.keys()
                         if digests.get(k) != reference.get(k))
        problems.append(f"run_manifest.json digests changed between repetitions: {changed[:5]}")
    return problems, result, recall, digests


def to_reference(values, units, slowdown):
    """Times (units s and us) divided by the slowdown: reference seconds."""
    return {name: value / slowdown if units[name] in ("s", "us") else value
            for name, value in values.items()}


def run_workload(workload, args, tmp, units):
    """Set up, warm up, run the timed loop; (stamp, metric values, attempted, failed).

    Every time is in reference seconds: an operation is divided by the
    slowdown of the two probes around it, set-up by the run's median one.
    """
    import workloads  # imports memepipe, so only once src/ is on sys.path

    tracer = spans.Tracer() if args.trace else None
    seed = args.seed

    import_samples = [probe_import() for _ in range(IMPORT_REPS)]
    # One corpus generation: at n=3000 it takes 8-15 s of the run's budget.
    corpus_samples = []
    manifest = None
    if workload.corpus_n:
        if tracer is not None:
            tracer.run = "setup"
            tracer.install()
        start = time.perf_counter()
        try:
            manifest = workloads.make_corpus(workload, str(tmp / "corpus"), seed)
        finally:
            corpus_samples.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.uninstall()
    setup_s = statistics.median(import_samples) + sum(corpus_samples)

    code, _ = workloads.cli(["pipeline", "--outdir", str(tmp / "warmup"),
                             "--seed", str(seed), *workloads.WARMUP_ARGS])
    if code != 0:
        raise RuntimeError(f"warm-up pipeline exited with {code}")
    shutil.rmtree(tmp / "warmup")
    probes = [calibrate.probe()]

    untraced_s, traced_s, untraced_ref, traced_ref, layers = [], [], [], [], []
    attempted = failed = 0
    reference = first_result = None
    loop_start = time.perf_counter()
    while attempted < MIN_OPS or time.perf_counter() - loop_start < args.seconds:
        traced = tracer is not None and attempted % 2 == 0
        run_id = f"op{attempted}"
        outdir = tmp / run_id
        if traced:
            tracer.run = run_id
            tracer.install()
        start = time.perf_counter()
        try:
            outcome = (*workloads.operation(workload, str(outdir), seed, manifest), None)
        except Exception as exc:  # a crashed operation is a failed one; keep measuring
            traceback.print_exc()
            outcome = (None, "", None, exc)
        finally:
            wall_s = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        attempted += 1
        probes.append(calibrate.probe())
        slowdown = (probes[-2] + probes[-1]) / 2 / calibrate.REFERENCE_S
        (traced_s if traced else untraced_s).append(wall_s)
        (traced_ref if traced else untraced_ref).append(wall_s / slowdown)

        problems, result, recall, digests = verify(workload, seed, outdir, manifest,
                                                   outcome, reference)
        if problems:
            failed += 1
            for problem in problems:
                print(f"{workload.name} seed {seed} {run_id}: {problem}", file=sys.stderr)
        if reference is None:
            reference = digests
        if first_result is None:
            first_result = result
        if traced:
            op = spans.layer_metrics(tracer.spans, run_id, wall_s)
            op["tuples.planted_recall"] = recall
            op["pipeline.artifact_bytes"] = (check.artifact_bytes(outdir)
                                             if digests is not None else 0)
            layers.append(to_reference(op, units, slowdown))
        shutil.rmtree(outdir, ignore_errors=True)

    run_slowdown = statistics.median(probes) / calibrate.REFERENCE_S
    stamp = {"workload": workload.name, "seed": seed, "trace": args.trace,
             "seconds": args.seconds, "samples": len(untraced_s),
             "traced_samples": len(traced_s),
             "import_s": import_samples, "corpus_s": corpus_samples,
             "slowdown": run_slowdown,
             "wall_e2e_s": statistics.median(untraced_s), "wall_ops_s": untraced_s,
             "traced_ops_s": traced_s, "probes_s": probes, "nproc": os.cpu_count(),
             "python": platform.python_version(),
             "numpy": sys.modules["numpy"].__version__,
             "scipy": sys.modules["scipy"].__version__, "commit": git_commit()}

    if tracer is None:
        e2e = statistics.median(untraced_ref)
        auroc, accuracy = first_result[:2] if first_result else (0.0, 0.0)
        values = {
            "e2e_s": e2e,
            "e2e_s.max": max(untraced_ref),
            "memes_per_s": workload.n / e2e,
            "setup_s": setup_s / run_slowdown,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "auroc": auroc,
            "accuracy": accuracy,
        }
    else:
        setup_layers = None
        if corpus_samples:
            setup_layers = to_reference(
                spans.layer_metrics(tracer.spans, "setup", corpus_samples[0]),
                units, run_slowdown)
        values = spans.summarize(layers, setup_layers)
        values["machine.slowdown"] = run_slowdown
        values["trace.e2e_s"] = statistics.median(traced_ref)
        values["trace.overhead_frac"] = (values["trace.e2e_s"]
                                         / statistics.median(untraced_ref) - 1)
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans written to {spans_path}", file=sys.stderr)
    return stamp, values, attempted, failed


def report(units, stamp, values, attempted, failed):
    """Print every metric by name and unit, then the result object last."""
    if set(units) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(values))}")
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    for name in units:
        print(f"{name:42s} {values[name]:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))


def run_one(args):
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (SRC / "memepipe" / "__init__.py").is_file():
        print(f"error: memepipe sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import memepipe.cli
    if Path(memepipe.cli.__file__).resolve().parent != SRC / "memepipe":
        print(f"error: imported memepipe from {memepipe.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import workloads
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    TMP_ROOT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
            stamp, values, attempted, failed = run_workload(
                workloads.WORKLOADS[args.workload], args, Path(tmp), units)
    except spans.MissingTarget as exc:
        print(f"error: cannot trace: {exc}", file=sys.stderr)
        return 3
    finally:
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it
    report(units, stamp, values, attempted, failed)
    return 0


def run_all(args):
    """Each workload untraced then traced, each in a fresh process, as one table."""
    spec = load_spec()
    rows, ok, results = [], True, {}
    for workload in spec["workloads"]:
        for trace_flag in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace_flag)]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(out.stderr)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload['name']} trace={trace_flag}: exit {out.returncode}",
                      file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            results[f"{workload['name']}/trace{trace_flag}"] = result
            print(next(line for line in lines if line.startswith("# stamp ")))
            for name, metric in result["metrics"].items():
                rows.append((workload["name"], name, metric["value"], metric["unit"]))
            rows.append((workload["name"], "ops_failed",
                         f"{result['failed']}/{result['attempted']}", f"trace={trace_flag}"))
    for name, metric, value, unit in rows:
        shown = f"{value:>16.6f}" if isinstance(value, float) else f"{value!s:>16}"
        print(f"{name:16s} {metric:42s} {shown} {unit}")
    print(json.dumps(results))
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
