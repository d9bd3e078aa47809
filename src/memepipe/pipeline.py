"""End-to-end run: data -> hashes -> clusters -> tuples -> predictions ->
adjusted stacking -> submission -> evaluation.

Three pure phases, `detect`, `simulate` and `score`, compute the run; then
every artifact is written under the output directory, and a run manifest
records the effective config plus content digests, so two runs with the
same config produce byte-identical outputs.
"""

import dataclasses
import hashlib
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field

from .clustering import (HAMMING_THRESHOLD, ClusterAssignment, cluster_images,
                         cluster_texts, corpus_stats, write_clusters)
from .dataset import (SPLITS, DatasetComposition, GeneratorNoise, read_images,
                      read_manifest, write_lines, write_manifest)
from .ensemble import (StackedPrediction, on_grid, stack_equal_weight, thresholded,
                       write_predictions, write_submission)
from .errors import ConfigError, DataFormatError, StageError, _in_file
from .generator import generate_dataset, image_hashes, write_corpus
from .metrics import evaluate
from .phash import write_hashes
from .rules import (PredictionSet, PseudoLabelSet, apply_rule1, apply_rule2,
                    apply_unimodal_signatures, merge_pseudo_labels,
                    rule1_pseudo_labels, write_pseudo_labels)
from .simulator import SimulatorConfig, population, simulate_predictions
from .tuples import detect_tuples, detect_unimodal_hate, tuple_stats, write_groups

PLACEMENTS = ("before_stacking", "after_stacking")


@dataclass(frozen=True)
class PipelineConfig:
    out_dir: str
    n: int = 2000
    seed: int = 7
    composition: DatasetComposition = field(default_factory=DatasetComposition)
    image_amplitude: float = 4.0
    text_perturb_prob: float = 0.5
    label_noise: float = 0.0
    hamming_threshold: int = HAMMING_THRESHOLD
    k: int = 5
    models: int = 4
    rule1: bool = True
    rule2: bool = True
    adjust_placement: str = "before_stacking"
    unimodal: bool = False
    separation_mu: float = 1.0
    sigma: float = 1.2
    noise_correlation: float = 0.9
    eval_split: str = "test"
    manifest: str | None = None   # ingest an existing corpus instead of generating
    save_images: bool = True
    quiet: bool = False

    def __post_init__(self):
        # the simulator and generator settings this config implies are
        # checked here, before any stage runs
        from_number_fields(SimulatorConfig, self)
        from_number_fields(GeneratorNoise, self)
        if self.manifest is None and self.n < 10:
            raise ConfigError(f"n must be >= 10, got {self.n}")
        if self.models < 1:
            raise ConfigError(f"models must be >= 1, got {self.models}")
        if self.k < 2:
            raise ConfigError(f"k must be >= 2, got {self.k}")
        if not 0 <= self.hamming_threshold <= 64:
            raise ConfigError(f"hamming_threshold must be in [0, 64], "
                              f"got {self.hamming_threshold}")
        if self.adjust_placement not in PLACEMENTS:
            raise ConfigError(f"adjust_placement must be one of {PLACEMENTS}, "
                              f"got {self.adjust_placement!r}")
        if self.eval_split not in SPLITS[1:]:
            raise ConfigError(f"eval_split must be dev or test, got {self.eval_split!r}")


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "on": True,
               "false": False, "0": False, "no": False, "off": False}


def _parse_bool(text):
    word = text.strip().lower()
    if word not in _BOOL_WORDS:
        raise ValueError(f"expected a boolean, got {text!r}")
    return _BOOL_WORDS[word]


# config key -> parser of its text value; the keys are the PipelineConfig
# fields, except out_dir, which the run gets on its own
_FIELD_PARSERS = {
    f.name: {bool: _parse_bool, DatasetComposition: DatasetComposition.parse,
             str | None: str}.get(f.type, f.type)
    for f in dataclasses.fields(PipelineConfig) if f.name != "out_dir"
}


def from_number_fields(cls, source):
    """A cls whose int and float fields are read from same-named attributes
    of source, such as a PipelineConfig or parsed command-line flags."""
    return cls(**{f.name: getattr(source, f.name) for f in dataclasses.fields(cls)
                  if f.type in (int, float)})


def load_config_file(path):
    """Parse a flat key=value config file; '#' starts a comment."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        values[key] = value
    return values


def build_config(out_dir, file_values=None, overrides=None):
    """Assemble a PipelineConfig from defaults, a config file, and CLI flags."""
    merged = {}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if key not in _FIELD_PARSERS:
                raise ConfigError(f"unknown config key {key!r}")
            if isinstance(value, str):
                try:
                    value = _FIELD_PARSERS[key](value)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {key!r}: {exc}") from None
            merged[key] = value
    return PipelineConfig(out_dir=out_dir, **merged)


@dataclass
class PipelineResult:
    report: object                # EvaluationReport, or None without labels
    submission_path: str
    artifacts: dict               # name -> path
    stacked: object               # final StackedPrediction-shaped scores/labels


def _stage(name, fn, quiet):
    if not quiet:
        print(f"[{name}]", file=sys.stderr)
    try:
        return fn()
    except (ConfigError, DataFormatError, StageError):
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class Structure:
    hashes: list                  # (id, hash) pairs sorted by id
    assignment: ClusterAssignment
    groups: list                  # detected tuples
    pseudo: object                # held-out rule 1 PseudoLabelSet, None without rule 1


@dataclass
class Scores:
    adjusted: list                # per-set rule 2 output; empty unless before stacking
    final: StackedPrediction      # scores after every enabled rule
    report: object                # EvaluationReport, or None without eval labels


def detect(cfg, records, images):
    """Hash, cluster and group the corpus; pseudo-label held-out memes by rule 1."""
    quiet = cfg.quiet
    hashes = _stage("hash", lambda: image_hashes(images), quiet)
    assignment = _stage("cluster", lambda: ClusterAssignment(
        image=cluster_images(hashes, cfg.hamming_threshold),
        text=cluster_texts(records)), quiet)
    groups = _stage("tuples", lambda: detect_tuples(records, assignment), quiet)
    pseudo = None
    if cfg.rule1:
        def pseudo_stage():
            held_ids = {rec.id for rec in records if rec.split != "train"}
            full = rule1_pseudo_labels(groups).labels
            return PseudoLabelSet({i: v for i, v in full.items() if i in held_ids})
        pseudo = _stage("pseudo-label", pseudo_stage, quiet)
    return Structure(hashes, assignment, groups, pseudo)


def simulate(cfg, records, groups):
    """models x k simulated prediction sets over one population, each score
    on the grid of the file it is written to."""
    def simulate_stage():
        pop = population(records, groups, from_number_fields(SimulatorConfig, cfg))
        sets = (simulate_predictions(pop, idx) for idx in range(cfg.models * cfg.k))
        return [PredictionSet(ps.model_id, dict(zip(ps.scores, on_grid(ps.scores.values()))))
                for ps in sets]
    return _stage("simulate", simulate_stage, cfg.quiet)


def score(cfg, records, structure, sets):
    """Apply the enabled rules around stacking and evaluate the eval split."""
    eval_recs = [rec for rec in records if rec.split == cfg.eval_split]
    if not eval_recs:
        raise DataFormatError(f"eval split {cfg.eval_split!r} has no records")
    quiet, groups = cfg.quiet, structure.groups
    adjusted = []
    if cfg.rule2 and cfg.adjust_placement == "before_stacking":
        adjusted = _stage("adjust-before", lambda: [
            apply_rule2(groups, ps) for ps in sets], quiet)
    stacked = _stage("stack", lambda: stack_equal_weight(adjusted or sets), quiet)
    final = PredictionSet("stacked", dict(stacked.mean_score))

    if cfg.rule2 and cfg.adjust_placement == "after_stacking":
        final = _stage("adjust-after", lambda: apply_rule2(groups, final), quiet)
    if cfg.rule1:
        final = _stage("rule1-override", lambda: apply_rule1(groups, final), quiet)
    if cfg.unimodal:
        def unimodal_stage():
            labeled = [rec for rec in records
                       if rec.split == "train" and rec.label is not None]
            signatures = detect_unimodal_hate(labeled, structure.assignment)
            return apply_unimodal_signatures(signatures, structure.assignment, final)
        final = _stage("unimodal-signatures", unimodal_stage, quiet)

    final = thresholded(final.scores)

    report = None
    if all(rec.label is not None for rec in eval_recs):
        truth = {rec.id: rec.label for rec in eval_recs}
        report = _stage("evaluate", lambda: evaluate(
            {i: final.mean_score[i] for i in truth},
            {i: final.label[i] for i in truth}, truth), quiet)
    return Scores(adjusted, final, report)


def _write_artifacts(cfg, records, structure, sets, scores):
    """Write every artifact of detect, simulate and score; return their names."""
    names = []

    def out(name):
        names.append(name)
        return os.path.join(cfg.out_dir, name)

    write_hashes(structure.hashes, out("hashes.csv"))
    write_clusters(structure.assignment, out("clusters.csv"))
    write_groups(structure.groups, out("tuples.jsonl"))
    if structure.pseudo is not None:
        write_pseudo_labels(structure.pseudo, out("pseudo_labels.csv"))
        train = [rec for rec in records if rec.split == "train"]
        held_out = [rec for rec in records if rec.split != "train"]
        write_manifest(merge_pseudo_labels(train, structure.pseudo, held_out),
                       out("merged_train_manifest.jsonl"))
    for folder, folder_sets in (("preds", sets), ("preds_adjusted", scores.adjusted)):
        if folder_sets:
            os.makedirs(os.path.join(cfg.out_dir, folder), exist_ok=True)
        for ps in folder_sets:
            write_predictions(ps, out(os.path.join(folder, f"{ps.model_id}.csv")))
    write_predictions(PredictionSet("stacked", scores.final.mean_score),
                      out("stacked.csv"))
    eval_ids = [rec.id for rec in records if rec.split == cfg.eval_split]
    write_submission(scores.final, out("submission.csv"), eval_ids)
    if scores.report is not None:
        write_lines(out("report.txt"), [scores.report.to_text() + scores.report.machine_line()])
    return names


def run_pipeline(cfg):
    """Corpus, detect, simulate and score, then one write stage and the run
    manifest; a run that fails before the write leaves only the corpus."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    quiet = cfg.quiet
    noise = from_number_fields(GeneratorNoise, cfg)

    if cfg.manifest is None:
        def gen():
            ds = generate_dataset(cfg.n, cfg.composition, noise, cfg.seed)
            names = write_corpus(ds, cfg.out_dir, cfg.save_images)
            return ds.records, ds.images, list(names)
        records, images, names = _stage("generate", gen, quiet)
    else:
        def ingest():
            recs = read_manifest(cfg.manifest)
            if not recs:
                raise DataFormatError(f"{cfg.manifest}: no records")
            return recs, read_images(cfg.manifest, recs), []
        records, images, names = _stage("ingest", ingest, quiet)

    # a data fault found after ingest lies in the ingested corpus: name it
    in_corpus = nullcontext() if cfg.manifest is None else _in_file(cfg.manifest)
    with in_corpus:
        structure = detect(cfg, records, images)
        sets = simulate(cfg, records, structure.groups)
        scores = score(cfg, records, structure, sets)
    names += _stage("write", lambda: _write_artifacts(
        cfg, records, structure, sets, scores), quiet)

    artifacts = {name: os.path.join(cfg.out_dir, name) for name in names}
    stats = corpus_stats(structure.assignment)
    tstats = tuple_stats(structure.groups, len(records))
    run_manifest = {
        "config": _config_obj(cfg),
        "artifacts": {name: _digest(path) for name, path in sorted(artifacts.items())},
        "prediction_sets": len(sets),
        "corpus": {
            "n": len(records),
            "image_repeat_frac": stats.image_repeat_frac,
            "text_repeat_frac": stats.text_repeat_frac,
            "independent_frac": stats.independent_frac,
            "three_tuple_frac": tstats.three_tuple_frac,
            "two_tuple_frac": tstats.two_tuple_frac,
        },
    }
    write_lines(os.path.join(cfg.out_dir, "run_manifest.json"),
                [json.dumps(run_manifest, indent=2, sort_keys=True)])
    return PipelineResult(scores.report, artifacts["submission.csv"], artifacts,
                          scores.final)


def _config_obj(cfg):
    obj = dataclasses.asdict(cfg)
    obj["composition"] = list(cfg.composition.as_tuple())
    return obj
