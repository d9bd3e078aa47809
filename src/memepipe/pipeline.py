"""End-to-end run: data -> hashes -> clusters -> tuples -> predictions ->
adjusted stacking -> submission -> evaluation.

The corpus comes first, generated or ingested, with one (id, hash) pair
per image: the generator keeps the hash of each image it emits, and the
`hash` stage hashes an ingested corpus's image stacks, so no pixel array is
held past that stage.  Three pure phases, `detect`, `simulate` and `score`,
then compute the run from the records and hashes; then every artifact is
written under the output directory, and a run manifest records the
effective config plus content digests, so two runs with the same config
write byte-identical directories, the run manifest included.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field

from .clustering import (HAMMING_THRESHOLD, ClusterAssignment, cluster_images,
                         cluster_texts, corpus_stats, write_clusters)
from .dataset import (SPLITS, DatasetComposition, GeneratorNoise, _numbered_lines,
                      read_images, read_manifest, write_lines, write_manifest)
from .ensemble import (StackedPrediction, stack_equal_weight, write_predictions,
                       write_submission)
from .errors import ConfigError, DataFormatError, StageError, _in_file
from .generator import generate_corpus, image_hashes
from .metrics import evaluate
from .phash import write_hashes
from .rules import (PseudoLabelSet, apply_rule1, apply_rule2, merge_pseudo_labels,
                    rule1_pseudo_labels, write_pseudo_labels)
from .simulator import SimulatorConfig, population, simulate_predictions
from .tuples import detect_tuples, tuple_stats, write_groups

PLACEMENTS = ("before_stacking", "after_stacking")


@dataclass(frozen=True)
class PipelineConfig:
    n: int = 2000
    seed: int = 7
    composition: DatasetComposition = field(default_factory=DatasetComposition)
    image_amplitude: float = GeneratorNoise.image_amplitude
    text_perturb_prob: float = GeneratorNoise.text_perturb_prob
    label_noise: float = GeneratorNoise.label_noise
    hamming_threshold: int = HAMMING_THRESHOLD
    k: int = 5
    models: int = 4
    rule1: bool = True
    rule2: bool = True
    adjust_placement: str = "before_stacking"
    separation_mu: float = SimulatorConfig.separation_mu
    sigma: float = SimulatorConfig.sigma
    noise_correlation: float = SimulatorConfig.noise_correlation
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


def _parse_path(text):
    if not text:
        raise ValueError("expected a file path, got ''")
    return text


# config key -> parser of its text value; the keys are the PipelineConfig fields
_FIELD_PARSERS = {
    f.name: {bool: _parse_bool, DatasetComposition: DatasetComposition.parse,
             str | None: _parse_path}.get(f.type, f.type)
    for f in dataclasses.fields(PipelineConfig)
}


def from_number_fields(cls, source):
    """A cls whose int and float fields are read from same-named attributes
    of source, such as a PipelineConfig or parsed command-line flags."""
    return cls(**{f.name: getattr(source, f.name) for f in dataclasses.fields(cls)
                  if f.type in (int, float)})


def load_config_file(path):
    """Parse a flat key=value config file into key -> value; '#' starts a
    comment.  A fault, such as a repeated key, raises ConfigError with the line."""
    values = {}
    try:
        lines = _numbered_lines(path)
    except (OSError, DataFormatError) as exc:     # each names the path
        raise ConfigError(f"cannot read config file: {exc}") from None
    for lineno, line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}: line {lineno}: repeated key {key!r}")
        try:
            values[key] = _FIELD_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}: line {lineno}: bad value for {key!r}: "
                              f"{exc}") from None
    return values


def build_config(file_values=None, overrides=None):
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
    return PipelineConfig(**merged)


@dataclass
class PipelineResult:
    report: object                # EvaluationReport, or None unless the eval split is two-class
    artifacts: dict               # name -> path
    stacked: StackedPrediction    # the final scores and labels


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
    assignment: ClusterAssignment
    groups: list                  # detected tuples
    pseudo: object                # held-out rule 1 PseudoLabelSet, None without rule 1


@dataclass
class Scores:
    adjusted: list                # per-set rule 2 output; empty unless before stacking
    final: StackedPrediction      # scores after every enabled rule
    report: object                # EvaluationReport, or None unless the eval split is two-class


def detect(cfg, records, hashes):
    """Cluster and group the corpus, given its (id, hash) pairs sorted by id;
    pseudo-label held-out memes by rule 1."""
    quiet = cfg.quiet
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
    return Structure(assignment, groups, pseudo)


def simulate(cfg, records, groups):
    """models x k simulated prediction sets over one population."""
    def simulate_stage():
        pop = population(records, groups, from_number_fields(SimulatorConfig, cfg))
        return [simulate_predictions(pop, idx) for idx in range(cfg.models * cfg.k)]
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
    final = _stage("stack", lambda: stack_equal_weight(adjusted or sets), quiet)

    if cfg.rule2 and cfg.adjust_placement == "after_stacking":
        final = _stage("adjust-after", lambda: apply_rule2(groups, final), quiet)
    if cfg.rule1:
        final = _stage("rule1-override", lambda: apply_rule1(groups, final), quiet)

    report = None
    labels = [rec.label for rec in eval_recs]
    if set(labels) == {0, 1}:
        truth = {rec.id: rec.label for rec in eval_recs}
        pos = final.positions(list(truth), "evaluate")
        report = _stage("evaluate", lambda: evaluate(
            dict(zip(truth, final.values[pos].tolist())),
            dict(zip(truth, final.labels[pos].tolist())), truth), quiet)
    elif not quiet:
        # AUROC needs both classes; the submission is written all the same
        print(f"[evaluate] skipped: eval split {cfg.eval_split!r} has "
              f"{labels.count(0)} benign, {labels.count(1)} hateful and "
              f"{labels.count(None)} unlabelled memes", file=sys.stderr)
    return Scores(adjusted, final, report)


def _write_artifacts(cfg, out_dir, records, hashes, structure, sets, scores):
    """Write every artifact of detect, simulate and score; return their names."""
    names = []

    def out(name):
        names.append(name)
        return os.path.join(out_dir, name)

    write_hashes(hashes, out("hashes.csv"))
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
            os.makedirs(os.path.join(out_dir, folder), exist_ok=True)
        for ps in folder_sets:
            write_predictions(ps, out(os.path.join(folder, f"{ps.model_id}.csv")))
    write_predictions(scores.final, out("stacked.csv"))
    eval_ids = [rec.id for rec in records if rec.split == cfg.eval_split]
    write_submission(scores.final, out("submission.csv"), eval_ids)
    if scores.report is not None:
        write_lines(out("report.txt"), [scores.report.to_text() + scores.report.machine_line()])
    return names


def _remove_previous_run(cfg, out_dir):
    """Remove what the run that out_dir's run_manifest.json records wrote:
    its artifacts, `preds/`, `preds_adjusted/`, the images it generated and
    the manifest itself.  The corpus this run reads stays: its manifest, the
    constructed_groups.jsonl beside it and, when that is out_dir, `images/`."""
    path = os.path.join(out_dir, "run_manifest.json")
    try:
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
        names, config = list(previous["artifacts"].keys()), previous["config"]
        images = config["manifest"] is None and config["save_images"] is True
    except FileNotFoundError:
        return
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise DataFormatError(f"{path}: not a run manifest: {exc}") from None
    kept = set()
    if cfg.manifest is not None:
        corpus = os.path.dirname(os.path.realpath(cfg.manifest))
        kept = {os.path.realpath(cfg.manifest), os.path.join(corpus, "constructed_groups.jsonl")}
        images = images and corpus != os.path.realpath(out_dir)
    # a name with a folder lies in preds/ or preds_adjusted/, removed whole
    for name in names:
        target = os.path.join(out_dir, name)
        if (os.path.basename(name) == name and os.path.isfile(target)
                and os.path.realpath(target) not in kept):
            os.remove(target)
    for folder in ("preds", "preds_adjusted") + ("images",) * images:
        folder = os.path.join(out_dir, folder)
        if os.path.isdir(folder):
            shutil.rmtree(folder)
    os.remove(path)


def _corpus(cfg, out_dir):
    """The generate or ingest stage, then the hash stage: the records, their
    (id, hash) pairs sorted by id and the names of the corpus files written.
    No pixel array outlives the call."""
    quiet = cfg.quiet
    if cfg.manifest is None:
        def gen():
            ds, names = generate_corpus(out_dir, cfg.n, cfg.composition,
                                        from_number_fields(GeneratorNoise, cfg),
                                        cfg.seed, cfg.save_images)
            return ds.records, ds.hashes, list(names)
        records, hashes, names = _stage("generate", gen, quiet)
        # the generator hashed each image as it emitted it
        return records, _stage("hash", lambda: hashes, quiet), names

    def ingest():
        recs = read_manifest(cfg.manifest)
        if not recs:
            raise DataFormatError(f"{cfg.manifest}: no records")
        return recs, read_images(cfg.manifest, recs)
    records, images = _stage("ingest", ingest, quiet)
    with _in_file(cfg.manifest):
        return records, _stage("hash", lambda: image_hashes(images), quiet), []


def run_pipeline(cfg, out_dir):
    """Corpus, detect, simulate and score, then one write stage and the run
    manifest under out_dir.  out_dir holds one run: what a previous run there
    wrote is removed first, and a run that fails before the write leaves only
    the corpus."""
    os.makedirs(out_dir, exist_ok=True)
    _remove_previous_run(cfg, out_dir)
    quiet = cfg.quiet
    records, hashes, names = _corpus(cfg, out_dir)
    # a data fault found after ingest lies in the ingested corpus: name it
    in_corpus = nullcontext() if cfg.manifest is None else _in_file(cfg.manifest)
    with in_corpus:
        structure = detect(cfg, records, hashes)
        sets = simulate(cfg, records, structure.groups)
        scores = score(cfg, records, structure, sets)
    names += _stage("write", lambda: _write_artifacts(
        cfg, out_dir, records, hashes, structure, sets, scores), quiet)

    artifacts = {name: os.path.join(out_dir, name) for name in names}
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
    write_lines(os.path.join(out_dir, "run_manifest.json"),
                [json.dumps(run_manifest, indent=2, sort_keys=True)])
    return PipelineResult(scores.report, artifacts, scores.final)


def _config_obj(cfg):
    """The config as run_manifest.json records it: every field that decides
    an artifact, so `quiet` is left out."""
    obj = dataclasses.asdict(cfg)
    del obj["quiet"]
    obj["composition"] = list(cfg.composition.as_tuple())
    return obj
