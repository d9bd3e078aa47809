"""Command-line interface.

Subcommands mirror the pipeline stages so each artifact can be produced or
inspected on its own; `pipeline` chains them end to end.  Exit codes:
0 success, 2 config error, 3 data error, 4 stage or I/O failure; the class
of the error raised at the fault decides which (see errors.py).
"""

import argparse
import dataclasses
import sys

import numpy as np

from . import __version__
from .clustering import (HAMMING_THRESHOLD, ClusterAssignment, cluster_images,
                         cluster_texts, corpus_stats, read_clusters,
                         write_clusters)
from .dataset import (SPLITS, DatasetComposition, GeneratorNoise, read_images,
                      read_manifest)
from .ensemble import (read_predictions, read_submission, stack_equal_weight,
                       write_predictions, write_submission)
from .errors import ConfigError, DataFormatError, StageError, _in_file
from .generator import generate_corpus, image_hashes
from .metrics import evaluate
from .phash import read_hashes, write_hashes
from .pipeline import (PipelineConfig, build_config, from_number_fields,
                       load_config_file, run_pipeline)
from .rules import apply_rule1, apply_rule2, rule1_pseudo_labels, write_pseudo_labels
from .simulator import SimulatorConfig, population, simulate_predictions
from .tuples import detect_tuples, read_groups, tuple_stats, write_groups

# The boolean PipelineConfig fields, each on by default and turned off by a
# switch instead of a --dashed-name flag: field -> (flag, the config value
# it sets, help)
_SWITCHES = {
    "rule1": ("--no-rule1", "false", "skip rule 1 and its pseudo-labels"),
    "rule2": ("--no-rule2", "false", "skip rule 2"),
    "save_images": ("--no-images", "false", "write no PGM files for a generated corpus"),
}


def _flag(name):
    return "--" + name.replace("_", "-")


def _add_number_flags(parser, cls):
    """One --dashed-name flag per int or float field of cls, with its default;
    from_number_fields(cls, args) builds the cls back from the parsed flags."""
    for f in dataclasses.fields(cls):
        if f.type in (int, float):
            parser.add_argument(_flag(f.name), type=f.type, default=f.default)


def _non_negative(value, flag):
    if value < 0:
        raise ConfigError(f"{flag} must be >= 0, got {value}")


def _say(args, message):
    """Print a progress message on stderr unless args (parsed flags or a
    built config) is quiet."""
    if not args.quiet:
        print(message, file=sys.stderr)


def cmd_gen_data(args):
    _non_negative(args.seed, "--seed")
    comp = DatasetComposition.parse(args.composition)
    noise = from_number_fields(GeneratorNoise, args)
    try:
        ds, _ = generate_corpus(args.outdir, args.n, comp, noise, args.seed)
    except (ConfigError, OSError):      # exit 2, or 4 with the path
        raise
    except Exception as exc:   # such as MemoryError: exit 4, as the generate stage
        raise StageError("generate", exc) from exc
    _say(args, f"wrote {len(ds.records)} memes to {args.outdir}")


def cmd_hash(args):
    records = read_manifest(args.manifest)
    images = read_images(args.manifest, records)
    entries = image_hashes(images)
    write_hashes(entries, args.out)
    _say(args, f"hashed {len(entries)} images -> {args.out}")


def cmd_cluster(args):
    records = read_manifest(args.manifest)
    hashes = read_hashes(args.hashes)
    if {meme_id for meme_id, _ in hashes} != {rec.id for rec in records}:
        raise DataFormatError(f"{args.hashes}: ids differ from those of {args.manifest}")
    assignment = ClusterAssignment(image=cluster_images(hashes, args.threshold),
                                   text=cluster_texts(records))
    write_clusters(assignment, args.out)
    _say(args, f"clustered {len(records)} memes -> {args.out}")


def cmd_stats(args):
    assignment = read_clusters(args.clusters)
    stats = corpus_stats(assignment)
    if args.tuples:
        groups = read_groups(args.tuples)
        missing = {i for g in groups for i in g.member_ids()} - assignment.image.keys()
        with _in_file(args.clusters):
            if missing:
                raise DataFormatError(f"meme {min(missing)} of {args.tuples} has no cluster")
            ts = tuple_stats(groups, stats.n)
    print(f"memes               {stats.n}")
    print(f"image repeat frac   {stats.image_repeat_frac:.4f}")
    print(f"text repeat frac    {stats.text_repeat_frac:.4f}")
    print(f"independent frac    {stats.independent_frac:.4f}")
    machine = (f"STATS n={stats.n} image_repeat={stats.image_repeat_frac:.6f} "
               f"text_repeat={stats.text_repeat_frac:.6f} "
               f"independent={stats.independent_frac:.6f}")
    if args.tuples:
        print(f"three-tuple frac    {ts.three_tuple_frac:.4f}")
        print(f"two-tuple frac      {ts.two_tuple_frac:.4f}")
        machine += (f" three_tuple={ts.three_tuple_frac:.6f}"
                    f" two_tuple={ts.two_tuple_frac:.6f}")
    print(machine)


def cmd_tuples(args):
    records = read_manifest(args.manifest)
    assignment = read_clusters(args.clusters)
    with _in_file(args.clusters):
        groups = detect_tuples(records, assignment)
    write_groups(groups, args.out)
    _say(args, f"found {len(groups)} groups -> {args.out}")


def cmd_pseudo_label(args):
    groups = read_groups(args.tuples)
    pseudo = rule1_pseudo_labels(groups)
    write_pseudo_labels(pseudo, args.out)
    _say(args, f"wrote {len(pseudo.labels)} pseudo labels -> {args.out}")


def cmd_adjust(args):
    groups = read_groups(args.tuples)
    preds = read_predictions(args.preds)
    # looked up now, so a wrapper installed on this module is the one called
    rule = apply_rule1 if args.rule == "1" else apply_rule2
    with _in_file(args.preds):
        out = rule(groups, preds)
    write_predictions(out, args.out)
    _say(args, f"adjusted predictions -> {args.out}")


def cmd_simulate(args):
    _non_negative(args.model_index, "--model-index")
    records = read_manifest(args.manifest)
    groups = read_groups(args.tuples) if args.tuples else []
    cfg = from_number_fields(SimulatorConfig, args)
    with _in_file(args.manifest):
        preds = simulate_predictions(population(records, groups, cfg), args.model_index)
    write_predictions(preds, args.out)
    _say(args, f"simulated model {args.model_index} -> {args.out}")


def cmd_stack(args):
    sets = [read_predictions(path) for path in args.preds]
    for path, ps in zip(args.preds[1:], sets[1:]):
        if not np.array_equal(ps.ids, sets[0].ids):
            raise DataFormatError(f"{path}: ids differ from those of {args.preds[0]}")
    stacked = stack_equal_weight(sets)
    write_submission(stacked, args.out)
    _say(args, f"stacked {len(sets)} sets -> {args.out}")


def cmd_evaluate(args):
    scores, labels = read_submission(args.submission)
    split = [rec for rec in read_manifest(args.truth) if rec.split == args.split]
    if not split:
        raise DataFormatError(f"{args.truth}: split {args.split!r} has no records")
    truth = {rec.id: rec.label for rec in split if rec.label is not None}
    if not truth:
        raise DataFormatError(f"{args.truth}: split {args.split!r} has no labelled records")
    missing = [i for i in truth if i not in scores]
    if missing:
        raise DataFormatError(f"{args.submission}: missing ids, e.g. {missing[:5]}")
    with _in_file(args.truth):
        report = evaluate({i: scores[i] for i in truth},
                          {i: labels[i] for i in truth}, truth)
    print(report.to_text(), end="")
    print(report.machine_line())


def cmd_pipeline(args):
    file_values = load_config_file(args.config) if args.config else {}
    # every flag given, as its raw text, so it is parsed like a config value
    overrides = {f.name: getattr(args, f.name)
                 for f in dataclasses.fields(PipelineConfig)
                 if getattr(args, f.name) is not None}
    cfg = build_config(file_values, overrides)
    result = run_pipeline(cfg, args.outdir)
    if result.report is not None:
        print(result.report.machine_line())
    _say(cfg, f"submission: {result.artifacts['submission.csv']}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="memepipe",
        description="Confounder-aware meme classification pipeline")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--quiet", action="store_true", default=None,
                        help="suppress progress messages")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--composition",
                   default=",".join(map(str, DatasetComposition().as_tuple())),
                   help="fractions: multimodal hate, unimodal hate, "
                        "benign text conf, benign image conf, random benign")
    _add_number_flags(p, GeneratorNoise)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("hash", help="perceptual-hash every image in a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_hash)

    p = sub.add_parser("cluster", help="cluster images (Hamming) and texts (exact)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--hashes", required=True)
    p.add_argument("--threshold", type=int, default=HAMMING_THRESHOLD)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("stats", help="repeat/independence fractions of a clustering")
    p.add_argument("--clusters", required=True)
    p.add_argument("--tuples", help="also report tuple coverage from a groups file")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("tuples", help="detect confounder groups")
    p.add_argument("--manifest", required=True)
    p.add_argument("--clusters", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_tuples)

    p = sub.add_parser("pseudo-label", help="pseudo-labels implied by three-tuples")
    p.add_argument("--tuples", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_pseudo_label)

    p = sub.add_parser("adjust", help="apply an adjustment rule to predictions")
    p.add_argument("--preds", required=True)
    p.add_argument("--tuples", required=True)
    p.add_argument("--rule", choices=("1", "2"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_adjust)

    p = sub.add_parser("simulate", help="simulate one base model's predictions")
    p.add_argument("--manifest", required=True)
    p.add_argument("--tuples", help="groups file driving difficulty discounts")
    p.add_argument("--model-index", type=int, default=0)
    _add_number_flags(p, SimulatorConfig)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("stack", help="equal-weight average of prediction files")
    p.add_argument("--preds", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_stack)

    p = sub.add_parser("evaluate", help="score a submission against manifest labels")
    p.add_argument("--submission", required=True)
    p.add_argument("--truth", required=True, help="manifest with labels")
    p.add_argument("--split", choices=SPLITS[1:], default="test")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    p.add_argument("--outdir", required=True)
    p.add_argument("--config", help="flat key=value config file")
    # one flag per config key, its value left as text for build_config
    for f in dataclasses.fields(PipelineConfig):
        if f.name in _SWITCHES:
            flag, value, text = _SWITCHES[f.name]
            p.add_argument(flag, dest=f.name, action="store_const", const=value,
                           help=text)
        elif f.name != "quiet":     # the top-level --quiet sets it
            p.add_argument(_flag(f.name), dest=f.name)
    p.set_defaults(fn=cmd_pipeline)

    return parser


def _is_number(text):
    """Whether float() reads text, or each part of it split at commas."""
    try:
        for part in text.split(","):
            float(part)
    except ValueError:
        return False
    return True


def _negative_values_joined(argv):
    """argv with each `--flag -value` that float() reads, such as -inf, -nan
    or -1e-3, or a comma-separated list of such numbers, such as a
    composition, written `--flag=-value`: argparse takes a separate such value
    for an option and refuses the flag, so the config check would not see it."""
    out = []
    for token in argv:
        if (token.startswith("-") and _is_number(token) and out and out[-1].startswith("--")
                and out[-1] != "--" and "=" not in out[-1]):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_negative_values_joined(sys.argv[1:] if argv is None else argv))
    try:
        args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (StageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
