"""Per-module spans taken from outside the program.

The tracer replaces each traced memepipe function, in every memepipe module
that binds it, with a wrapper that records a span: name, start, end, parent
span and run id.  Nothing under src/ changes; `uninstall` puts the original
functions back.  Spans stay in memory until the run ends.

Per-pair helpers such as `phash.hamming` are deliberately not traced: the
generator calls it millions of times and a wrapper would swamp its cost.
"""

import importlib
import json
import statistics
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass


def _cluster_summary(args, result):
    sizes = Counter(result.values())
    return {"memes": len(result), "clusters": len(sizes),
            "multi": sum(1 for size in sizes.values() if size >= 2)}


def _group_kinds(args, result):
    return dict(Counter(type(g).__name__ for g in result))


def _changed(args, result):
    before = args[1].scores
    return {"changed": sum(1 for i, s in result.scores.items() if before[i] != s)}


# (module, function, summary of (args, result) kept on the span, metrics it feeds)
TARGETS = (
    ("cli", "main", None, ("cli.self_s",)),
    ("pipeline", "run_pipeline", None, ("pipeline.self_s",)),
    ("generator", "generate_dataset", lambda a, r: {"images": len(r.images)},
     ("generator.busy_s", "generator.accept_ratio")),
    ("generator", "write_images", None, ("generator.write_images_s",)),
    ("generator", "image_hashes", None, ("phash.busy_s",)),
    ("phash", "phash", None, ("phash.busy_s", "phash.us_per_image", "generator.phash_calls")),
    ("dataset", "read_manifest", None, ("dataset.read_manifest_s",)),
    ("dataset", "read_pgm", None, ("dataset.read_pgm_s",)),
    ("dataset", "write_manifest", None, ("dataset.write_manifest_s",)),
    ("clustering", "cluster_images", _cluster_summary,
     ("clustering.images_s", "clustering.us_per_meme", "clustering.image_clusters",
      "clustering.multi_member_image_clusters")),
    ("clustering", "cluster_texts", None, ("clustering.texts_s",)),
    ("clustering", "write_clusters", None, ("pipeline.self_s",)),
    ("tuples", "detect_tuples", _group_kinds,
     ("tuples.busy_s", "tuples.three", "tuples.two", "tuples.other")),
    ("tuples", "write_groups", None, ("pipeline.self_s",)),
    ("tuples", "read_groups", None, ("pipeline.self_s",)),
    ("rules", "rule1_pseudo_labels", None, ("pipeline.self_s",)),
    ("rules", "write_pseudo_labels", lambda a, r: {"labels": len(a[0].labels)},
     ("rules.pseudo_labels",)),
    ("rules", "merge_pseudo_labels", None, ("pipeline.self_s",)),
    ("rules", "apply_rule2", _changed, ("rules.rule2_s", "rules.rule2_changed")),
    ("rules", "apply_rule1", _changed, ("rules.rule1_s", "rules.rule1_changed")),
    ("simulator", "simulate_predictions", lambda a, r: {"scores": len(r.scores)},
     ("simulator.busy_s", "simulator.sets", "simulator.us_per_score")),
    ("ensemble", "write_predictions", None,
     ("ensemble.write_predictions_s", "ensemble.files_written")),
    ("ensemble", "read_predictions", None, ("ensemble.read_predictions_s",)),
    ("ensemble", "stack_equal_weight", None, ("ensemble.stack_s",)),
    ("ensemble", "write_submission", None, ("pipeline.self_s",)),
    ("metrics", "evaluate", None, ("metrics.evaluate_s",)),
)


class MissingTarget(RuntimeError):
    pass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index into Tracer.spans, -1 for a root span
    run: str
    info: dict | None = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans of traced memepipe calls while installed."""

    def __init__(self):
        self.spans = []
        self.run = None
        self._open = []
        self._patched = []

    def _wrap(self, name, fn, summarize):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, self.run)
            self.spans.append(span)
            self._open.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if summarize is not None:
                span.info = summarize(args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target wherever a loaded memepipe module binds it."""
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "memepipe" or key.startswith("memepipe.")]
        for module_name, attr, summarize, metrics in TARGETS:
            module = importlib.import_module(f"memepipe.{module_name}")
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.uninstall()
                raise MissingTarget(f"memepipe.{module_name}.{attr} is gone, so "
                                    f"{', '.join(metrics)} cannot be measured")
            wrapper = self._wrap(f"{module_name}.{attr}", fn, summarize)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, fn))

    def uninstall(self):
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_time(spans, index):
    """Span duration minus the part its children cover.

    The program is single-threaded, so children of one span never overlap
    and their coverage is the sum of their durations.
    """
    covered = sum(s.duration for s in spans if s.parent == index)
    return spans[index].duration - covered


def layer_metrics(spans, run, wall_s):
    """Per-module metrics of one traced run id whose wall time was wall_s."""
    mine = [i for i, s in enumerate(spans) if s.run == run]

    def named(name):
        return [spans[i] for i in mine if spans[i].name == name]

    def busy(name):
        return sum(s.duration for s in named(name))

    def info_sum(name, key):
        return sum((s.info or {}).get(key, 0) for s in named(name))

    def self_s(name):
        return sum(self_time(spans, i) for i in mine if spans[i].name == name)

    in_generator, stage = [], []
    for s in named("phash.phash"):
        called_by = spans[s.parent].name if s.parent >= 0 else None
        (in_generator if called_by == "generator.generate_dataset" else stage).append(s)
    clustered = info_sum("clustering.cluster_images", "memes")
    scored = info_sum("simulator.simulate_predictions", "scores")
    roots = sum(spans[i].duration for i in mine if spans[i].parent == -1)

    def per(total_s, count):
        return total_s / count * 1e6 if count else 0.0

    return {
        "generator.busy_s": busy("generator.generate_dataset"),
        "generator.phash_calls": len(in_generator),
        "generator.accept_ratio": (info_sum("generator.generate_dataset", "images")
                                   / len(in_generator) if in_generator else 0.0),
        "generator.write_images_s": busy("generator.write_images"),
        "phash.busy_s": sum(s.duration for s in stage),
        "phash.us_per_image": per(sum(s.duration for s in stage), len(stage)),
        "dataset.read_manifest_s": busy("dataset.read_manifest"),
        "dataset.read_pgm_s": busy("dataset.read_pgm"),
        "dataset.write_manifest_s": busy("dataset.write_manifest"),
        "clustering.images_s": busy("clustering.cluster_images"),
        "clustering.texts_s": busy("clustering.cluster_texts"),
        "clustering.us_per_meme": per(busy("clustering.cluster_images"), clustered),
        "clustering.image_clusters": info_sum("clustering.cluster_images", "clusters"),
        "clustering.multi_member_image_clusters":
            info_sum("clustering.cluster_images", "multi"),
        "tuples.busy_s": busy("tuples.detect_tuples"),
        "tuples.three": info_sum("tuples.detect_tuples", "ThreeTuple"),
        "tuples.two": info_sum("tuples.detect_tuples", "TwoTuple"),
        "tuples.other": info_sum("tuples.detect_tuples", "Other"),
        "rules.pseudo_labels": info_sum("rules.write_pseudo_labels", "labels"),
        "rules.rule2_s": busy("rules.apply_rule2"),
        "rules.rule2_changed": info_sum("rules.apply_rule2", "changed"),
        "rules.rule1_s": busy("rules.apply_rule1"),
        "rules.rule1_changed": info_sum("rules.apply_rule1", "changed"),
        "simulator.busy_s": busy("simulator.simulate_predictions"),
        "simulator.sets": len(named("simulator.simulate_predictions")),
        "simulator.us_per_score": per(busy("simulator.simulate_predictions"), scored),
        "ensemble.write_predictions_s": busy("ensemble.write_predictions"),
        "ensemble.files_written": len(named("ensemble.write_predictions")),
        "ensemble.read_predictions_s": busy("ensemble.read_predictions"),
        "ensemble.stack_s": busy("ensemble.stack_equal_weight"),
        "metrics.evaluate_s": busy("metrics.evaluate"),
        "pipeline.self_s": self_s("pipeline.run_pipeline"),
        "cli.self_s": self_s("cli.main"),
        "trace.coverage_frac": roots / wall_s,
    }


GENERATOR_METRICS = ("generator.busy_s", "generator.phash_calls",
                     "generator.accept_ratio", "generator.write_images_s")


def summarize(per_op, setup):
    """Median of each metric over the traced operations.

    Where the timed operation never generates a corpus (it ingests one made
    in set-up), the generator metrics come from the traced set-up instead.
    """
    out = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    if out["generator.phash_calls"] == 0 and setup is not None:
        for name in GENERATOR_METRICS:
            out[name] = setup[name]
    return out
