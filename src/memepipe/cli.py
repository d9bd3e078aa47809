"""Command-line interface.

Subcommands mirror the pipeline stages so each artifact can be produced or
inspected on its own; `pipeline` chains them end to end.  Exit codes:
0 success, 2 config error, 3 data-format error, 4 stage failure.
"""

import argparse
import os
import sys

from . import __version__
from .clustering import (ClusterAssignment, cluster_images, cluster_texts,
                         corpus_stats, read_clusters, write_clusters)
from .dataset import (DatasetComposition, GeneratorNoise, read_images,
                      read_manifest, write_manifest)
from .ensemble import (read_predictions, read_submission, stack_equal_weight,
                       write_predictions, write_submission)
from .errors import ConfigError, DataFormatError, StageError
from .generator import generate_dataset, image_hashes, write_images
from .metrics import evaluate
from .phash import read_hashes, write_hashes
from .pipeline import build_config, load_config_file, run_pipeline
from .rules import (apply_rule1, apply_rule2, apply_unimodal_signatures,
                    read_pseudo_labels, rule1_pseudo_labels,
                    write_pseudo_labels)
from .simulator import SimulatorConfig, simulate_predictions
from .tuples import (detect_tuples, detect_unimodal_hate, read_groups,
                     tuple_stats, write_groups)


def _say(args, message):
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def cmd_gen_data(args):
    comp = DatasetComposition.parse(args.composition)
    noise = GeneratorNoise(image_amplitude=args.image_amplitude,
                           text_perturb_prob=args.text_perturb_prob,
                           label_noise=args.label_noise)
    ds = generate_dataset(args.n, comp, noise, args.seed)
    os.makedirs(args.outdir, exist_ok=True)
    write_manifest(ds.records, os.path.join(args.outdir, "manifest.jsonl"))
    write_images(ds, args.outdir)
    truth = ds.three_tuples + ds.two_tuples + ds.unimodal_groups
    write_groups(truth, os.path.join(args.outdir, "constructed_groups.jsonl"))
    _say(args, f"wrote {len(ds.records)} memes to {args.outdir}")
    return 0


def cmd_hash(args):
    records = read_manifest(args.manifest)
    images = read_images(args.manifest, records)
    entries = image_hashes(images)
    write_hashes(entries, args.out)
    _say(args, f"hashed {len(entries)} images -> {args.out}")
    return 0


def cmd_cluster(args):
    records = read_manifest(args.manifest)
    hashes = read_hashes(args.hashes)
    assignment = ClusterAssignment(image=cluster_images(hashes, args.threshold),
                                   text=cluster_texts(records))
    write_clusters(assignment, args.out)
    _say(args, f"clustered {len(records)} memes -> {args.out}")
    return 0


def cmd_stats(args):
    assignment = read_clusters(args.clusters)
    stats = corpus_stats(assignment)
    print(f"memes               {stats.n}")
    print(f"image repeat frac   {stats.image_repeat_frac:.4f}")
    print(f"text repeat frac    {stats.text_repeat_frac:.4f}")
    print(f"independent frac    {stats.independent_frac:.4f}")
    machine = (f"STATS n={stats.n} image_repeat={stats.image_repeat_frac:.6f} "
               f"text_repeat={stats.text_repeat_frac:.6f} "
               f"independent={stats.independent_frac:.6f}")
    if args.tuples:
        groups = read_groups(args.tuples)
        ts = tuple_stats(groups, stats.n)
        print(f"three-tuple frac    {ts.three_tuple_frac:.4f}")
        print(f"two-tuple frac      {ts.two_tuple_frac:.4f}")
        machine += (f" three_tuple={ts.three_tuple_frac:.6f}"
                    f" two_tuple={ts.two_tuple_frac:.6f}")
    print(machine)
    return 0


def cmd_tuples(args):
    records = read_manifest(args.manifest)
    assignment = read_clusters(args.clusters)
    if args.scope != "all":
        wanted = {s.strip() for s in args.scope.split(",")}
        bad = wanted.difference(("train", "dev", "test"))
        if bad:
            raise ConfigError(f"unknown split(s) in --scope: {sorted(bad)}")
        records = [rec for rec in records if rec.split in wanted]
    groups = detect_tuples(records, assignment)
    if args.unimodal_scope:
        wanted = {s.strip() for s in args.unimodal_scope.split(",")}
        labeled = [rec for rec in read_manifest(args.manifest)
                   if rec.split in wanted]
        groups = groups + detect_unimodal_hate(labeled, assignment)
    write_groups(groups, args.out)
    _say(args, f"found {len(groups)} groups -> {args.out}")
    return 0


def cmd_pseudo_label(args):
    groups = read_groups(args.tuples)
    pseudo = rule1_pseudo_labels(groups)
    write_pseudo_labels(pseudo, args.out)
    _say(args, f"wrote {len(pseudo.labels)} pseudo labels -> {args.out}")
    return 0


def cmd_adjust(args):
    groups = read_groups(args.tuples)
    preds = read_predictions(args.preds)
    if args.rule == "1":
        out = apply_rule1(groups, preds)
    elif args.rule == "2":
        out = apply_rule2(groups, preds, args.hi, args.lo)
    else:
        if not args.clusters:
            raise ConfigError("--clusters is required for --rule unimodal")
        assignment = read_clusters(args.clusters)
        out = apply_unimodal_signatures(groups, assignment, preds)
    write_predictions(out, args.out)
    _say(args, f"adjusted predictions -> {args.out}")
    return 0


def cmd_simulate(args):
    records = read_manifest(args.manifest)
    groups = read_groups(args.tuples) if args.tuples else []
    pseudo = read_pseudo_labels(args.pseudo) if args.pseudo else None
    cfg = SimulatorConfig(separation_mu=args.separation_mu, sigma=args.sigma,
                          pseudo_label_boost=args.pseudo_label_boost,
                          noise_correlation=args.noise_correlation,
                          seed=args.seed)
    preds = simulate_predictions(records, groups, pseudo, cfg, args.model_index)
    write_predictions(preds, args.out)
    _say(args, f"simulated model {args.model_index} -> {args.out}")
    return 0


def cmd_stack(args):
    sets = [read_predictions(path) for path in args.preds]
    stacked = stack_equal_weight(sets)
    write_submission(stacked, args.out)
    _say(args, f"stacked {len(sets)} sets -> {args.out}")
    return 0


def cmd_evaluate(args):
    scores, labels = read_submission(args.submission)
    records = read_manifest(args.truth)
    truth = {rec.id: rec.label for rec in records
             if rec.split == args.split and rec.label is not None}
    if not truth:
        raise ConfigError(f"no labeled records in split {args.split!r}")
    missing = [i for i in truth if i not in scores]
    if missing:
        raise DataFormatError(f"submission is missing ids, e.g. {missing[:5]}")
    report = evaluate({i: scores[i] for i in truth},
                      {i: labels[i] for i in truth}, truth)
    print(report.to_text(), end="")
    print(report.machine_line())
    return 0


def cmd_pipeline(args):
    file_values = load_config_file(args.config) if args.config else {}
    overrides = {}
    for key in ("n", "seed", "models", "k", "hamming_threshold", "composition",
                "image_amplitude", "text_perturb_prob", "label_noise",
                "adjust_placement", "hi", "lo", "separation_mu", "sigma",
                "pseudo_label_boost", "noise_correlation", "eval_split",
                "manifest"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    if args.no_rule1:
        overrides["rule1"] = False
    if args.no_rule2:
        overrides["rule2"] = False
    if args.unimodal:
        overrides["unimodal"] = True
    if args.no_images:
        overrides["save_images"] = False
    if args.quiet:
        overrides["quiet"] = True
    cfg = build_config(args.outdir, file_values, overrides)
    result = run_pipeline(cfg)
    if result.report is not None:
        print(result.report.machine_line())
    _say(args, f"submission: {result.submission_path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="memepipe",
        description="Confounder-aware meme classification pipeline")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress messages")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--composition", default="0.40,0.10,0.20,0.20,0.10",
                   help="fractions: multimodal hate, unimodal hate, "
                        "benign text conf, benign image conf, random benign")
    p.add_argument("--image-amplitude", type=float, default=4.0)
    p.add_argument("--text-perturb-prob", type=float, default=0.5)
    p.add_argument("--label-noise", type=float, default=0.0)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("hash", help="perceptual-hash every image in a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_hash)

    p = sub.add_parser("cluster", help="cluster images (Hamming) and texts (exact)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--hashes", required=True)
    p.add_argument("--threshold", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("stats", help="repeat/independence fractions of a clustering")
    p.add_argument("--clusters", required=True)
    p.add_argument("--tuples", help="also report tuple coverage from a groups file")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("tuples", help="detect confounder groups")
    p.add_argument("--manifest", required=True)
    p.add_argument("--clusters", required=True)
    p.add_argument("--scope", default="all",
                   help="comma-separated splits to analyze, or 'all'")
    p.add_argument("--unimodal-scope",
                   help="also scan these splits for all-hateful clusters")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_tuples)

    p = sub.add_parser("pseudo-label", help="pseudo-labels implied by three-tuples")
    p.add_argument("--tuples", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_pseudo_label)

    p = sub.add_parser("adjust", help="apply an adjustment rule to predictions")
    p.add_argument("--preds", required=True)
    p.add_argument("--tuples", required=True)
    p.add_argument("--rule", choices=("1", "2", "unimodal"), required=True)
    p.add_argument("--hi", type=float, default=1.0)
    p.add_argument("--lo", type=float, default=0.0)
    p.add_argument("--clusters", help="cluster file (required for --rule unimodal)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_adjust)

    p = sub.add_parser("simulate", help="simulate one base model's predictions")
    p.add_argument("--manifest", required=True)
    p.add_argument("--tuples", help="groups file driving difficulty categories")
    p.add_argument("--pseudo", help="pseudo-label file enabling the boost")
    p.add_argument("--model-index", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--separation-mu", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.2)
    p.add_argument("--pseudo-label-boost", type=float, default=3.0)
    p.add_argument("--noise-correlation", type=float, default=0.9)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("stack", help="equal-weight average of prediction files")
    p.add_argument("--preds", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_stack)

    p = sub.add_parser("evaluate", help="score a submission against manifest labels")
    p.add_argument("--submission", required=True)
    p.add_argument("--truth", required=True, help="manifest with labels")
    p.add_argument("--split", choices=("dev", "test"), default="test")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    p.add_argument("--outdir", required=True)
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--models", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--hamming-threshold", type=int, dest="hamming_threshold")
    p.add_argument("--composition")
    p.add_argument("--image-amplitude", type=float, dest="image_amplitude")
    p.add_argument("--text-perturb-prob", type=float, dest="text_perturb_prob")
    p.add_argument("--label-noise", type=float, dest="label_noise")
    p.add_argument("--adjust-placement", dest="adjust_placement",
                   choices=("before_stacking", "after_stacking", "both_off"))
    p.add_argument("--hi", type=float)
    p.add_argument("--lo", type=float)
    p.add_argument("--separation-mu", type=float, dest="separation_mu")
    p.add_argument("--sigma", type=float)
    p.add_argument("--pseudo-label-boost", type=float, dest="pseudo_label_boost")
    p.add_argument("--noise-correlation", type=float, dest="noise_correlation")
    p.add_argument("--eval-split", dest="eval_split", choices=("dev", "test"))
    p.add_argument("--manifest", help="ingest this corpus instead of generating")
    p.add_argument("--no-rule1", action="store_true")
    p.add_argument("--no-rule2", action="store_true")
    p.add_argument("--unimodal", action="store_true")
    p.add_argument("--no-images", action="store_true",
                   help="skip writing PGM files for a generated corpus")
    p.set_defaults(fn=cmd_pipeline)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except KeyError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
