import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from memepipe import cli, pipeline
from memepipe.dataset import MemeRecord, read_manifest, write_manifest, write_pgm
from memepipe.ensemble import (read_predictions, stack_equal_weight,
                               write_predictions)
from memepipe.errors import ConfigError, StageError
from memepipe.generator import generate_dataset
from memepipe.rules import PredictionSet
from memepipe.simulator import SimulatorConfig
from memepipe.pipeline import (PipelineConfig, build_config, detect,
                               load_config_file, run_pipeline, score, simulate)
from memepipe.tuples import TwoTuple, write_groups


def run_quick(out_dir, **overrides):
    base = {"n": 120, "seed": 3, "save_images": False, "quiet": True}
    base.update(overrides)
    return run_pipeline(build_config(str(out_dir), {}, base))


def test_pipeline_writes_expected_artifacts(tmp_path):
    result = run_quick(tmp_path / "run")
    names = set(result.artifacts)
    for required in ("manifest.jsonl", "constructed_groups.jsonl",
                     "hashes.csv", "clusters.csv", "tuples.jsonl",
                     "pseudo_labels.csv", "merged_train_manifest.jsonl",
                     "stacked.csv", "submission.csv", "report.txt"):
        assert required in names
    assert sum(1 for n in names if n.startswith("preds/")) == 20
    assert sum(1 for n in names if n.startswith("preds_adjusted/")) == 20
    for path in result.artifacts.values():
        assert os.path.exists(path)
    assert os.path.exists(tmp_path / "run" / "run_manifest.json")
    assert not os.path.exists(tmp_path / "run" / "images")   # save_images=False


def test_pipeline_report_and_submission_cover_eval_split(tmp_path):
    result = run_quick(tmp_path / "run")
    records = read_manifest(tmp_path / "run" / "manifest.jsonl")
    test_ids = sorted(r.id for r in records if r.split == "test")
    lines = (tmp_path / "run" / "submission.csv").read_text().splitlines()
    assert lines[0] == "id,proba,label"
    assert [int(line.split(",")[0]) for line in lines[1:]] == test_ids
    assert result.report is not None
    assert result.report.n == len(test_ids)


def test_pipeline_deterministic_across_directories(tmp_path):
    a = run_quick(tmp_path / "a")
    b = run_quick(tmp_path / "b")
    for name in a.artifacts:
        with open(a.artifacts[name], "rb") as fh:
            left = fh.read()
        with open(b.artifacts[name], "rb") as fh:
            right = fh.read()
        assert left == right, f"artifact {name} differs between runs"


def test_pipeline_run_manifest_digests_match_files(tmp_path):
    run_quick(tmp_path / "run")
    manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
    assert manifest["prediction_sets"] == 20
    for name, digest in manifest["artifacts"].items():
        with open(tmp_path / "run" / name, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest


# sha256 of every artifact of run_pipeline(n=300, seed=3, models=2, k=2), and
# of all images concatenated in id order; a different draw, hash or accept
# decision anywhere in the run changes at least one of them
PINNED_DIGESTS = {
    "clusters.csv":
        "571e0b9651e802471bf7796c6db12aa03790137bb6b88b5c6e0f3333c4544ede",
    "constructed_groups.jsonl":
        "9b46a33a862122999d1d11624cc2d5175a3a110fc50fdc13635a756b2e11ee45",
    "hashes.csv":
        "029ad1005bfcc5d9dbb68fc130fe6518c7e10874353343c34d5988f1d3a5a116",
    "images/*.pgm":
        "3019f0ce0659ff9e6a918aaebad6b9f4b21e0c85dd21ed5f2b493a7d23cef3e9",
    "manifest.jsonl":
        "350cab8de12c74f457c3c5f22211ba2ddecc7e0487aa81136d7e1ac3a605210b",
    "merged_train_manifest.jsonl":
        "ef24de36a27c1c35a9bebac33b3f1f14611502143fd474065a273c8471f2dac7",
    "preds/sim-00.csv":
        "3d1fa8d1c1d71fabd93cff90556c2821dd54f446a97fbe4c09816aacc95956bc",
    "preds/sim-01.csv":
        "33edaa51497f56b90e4a9a5990ea301d9b48e077c7af2d492ea70d88562815ae",
    "preds/sim-02.csv":
        "f5ec2cac0916adb100c3b8e532e20cd9f48530dc232c26cfe87b02491135a5ac",
    "preds/sim-03.csv":
        "e1e892f265eea24e8328cb263f266610b0177f733a88a422802f3767528e039f",
    "preds_adjusted/sim-00.csv":
        "ed2649d59e7032145900ecee9a69457702d59fd3658bd0fcd0805b1bca1227b7",
    "preds_adjusted/sim-01.csv":
        "ed396e05c23b5a5c2cc9299916d174e81c83bfce6ec73fde5f783de38d65a412",
    "preds_adjusted/sim-02.csv":
        "c8ffbc78c864aa6126ae0248544aed2b07be0b04d297226be2130964f671fc68",
    "preds_adjusted/sim-03.csv":
        "1ca468150c1b688753fdd2dd7f1098b75610a2d625809deb9a062a03bc15e243",
    "pseudo_labels.csv":
        "410f9478da72eeeec5504a9bde86856e111445896e1d0dacd6cd04d75660111b",
    "report.txt":
        "27618e7621ff7fa5bfed9c259483959aee3e84f987fa00f1383747fbab383a0a",
    "stacked.csv":
        "62a267dbfd8781927e7fae1909a6fd4a6e760a5c8d06d672746eed6331d29c7a",
    "submission.csv":
        "c0eef4db4ffd3aa57250c61ccf6af3eb8790bedfabb20f644383eafce2840c05",
    "tuples.jsonl":
        "6597630a1a695511efd0a4758f7ca3bb014f40f92c17dbdc1fc8a2d91526ad50",
}


def test_pipeline_outputs_match_pinned_digests(tmp_path):
    out = tmp_path / "run"
    run_quick(out, n=300, models=2, k=2, save_images=True)
    digests = json.loads((out / "run_manifest.json").read_text())["artifacts"]
    images = hashlib.sha256()
    for name in sorted(os.listdir(out / "images")):
        images.update((out / "images" / name).read_bytes())
    digests["images/*.pgm"] = images.hexdigest()
    assert digests == PINNED_DIGESTS


# sha256 of the scored artifacts of run_pipeline(n=300, seed=3, models=2, k=2)
# for the score branches the default config does not take
BRANCH_DIGESTS = {
    "unimodal": ({"unimodal": True}, {
        "stacked.csv":
            "8e7e559115d8d9c6ca247dd3e8c1841650d0291162d44a06ed70bb3b61c5c927",
        "submission.csv":
            "c0eef4db4ffd3aa57250c61ccf6af3eb8790bedfabb20f644383eafce2840c05",
        "report.txt":
            "27618e7621ff7fa5bfed9c259483959aee3e84f987fa00f1383747fbab383a0a",
    }),
    "no_rule2": ({"rule2": False}, {
        "stacked.csv":
            "b4fbc67502fa8c2438a7830a1fa3fbbbb3a2ca79c2b294092110c13eee5faf0e",
        "submission.csv":
            "f128876214b6db3291ccb7ad2bd51bcabb8e504fb72e94219a5edcf07a0f462f",
        "report.txt":
            "73aa34c980ec373a03081332b5d05315bb35f395d8d8874c53fe191d395bbbd7",
    }),
    "eval_dev": ({"eval_split": "dev"}, {
        "stacked.csv":
            "62a267dbfd8781927e7fae1909a6fd4a6e760a5c8d06d672746eed6331d29c7a",
        "submission.csv":
            "af4fbf67224dda9b95aaabe10363b664582b147c08a54694f70aa1b21790d2f9",
        "report.txt":
            "931d0202fd4af1ffaff8d39c95597489b1350ad970bb08cf5ee2fc92ca3d03b1",
    }),
}


@pytest.mark.parametrize("branch", sorted(BRANCH_DIGESTS))
def test_score_branches_match_pinned_digests(tmp_path, branch):
    overrides, expected = BRANCH_DIGESTS[branch]
    out = tmp_path / "run"
    run_quick(out, n=300, models=2, k=2, **overrides)
    digests = json.loads((out / "run_manifest.json").read_text())["artifacts"]
    assert {name: digests.get(name) for name in expected} == expected


def test_rules_off_equals_plain_stacking(tmp_path):
    run_quick(tmp_path / "run", rule1=False, rule2=False)
    preds_dir = tmp_path / "run" / "preds"
    sets = [read_predictions(preds_dir / name)
            for name in sorted(os.listdir(preds_dir))]
    stacked = stack_equal_weight(sets)
    lines = (tmp_path / "run" / "stacked.csv").read_text().splitlines()
    assert lines[0] == "id,proba"
    assert {int(meme_id): float(proba) for meme_id, proba in
            (line.split(",") for line in lines[1:])} == stacked.mean_score
    assert not (tmp_path / "run" / "preds_adjusted").exists()
    assert not (tmp_path / "run" / "pseudo_labels.csv").exists()


def test_adjust_after_stacking_differs_from_before(tmp_path):
    before = run_quick(tmp_path / "before")
    after = run_quick(tmp_path / "after", adjust_placement="after_stacking")
    assert before.report is not None and after.report is not None
    assert before.stacked.mean_score != after.stacked.mean_score


def test_pseudo_labels_restricted_to_held_out(tmp_path):
    run_quick(tmp_path / "run")
    records = {r.id: r for r in read_manifest(tmp_path / "run" / "manifest.jsonl")}
    lines = (tmp_path / "run" / "pseudo_labels.csv").read_text().splitlines()
    assert lines[0] == "id,label,rule"
    assert len(lines) > 1
    for line in lines[1:]:
        meme_id = int(line.split(",")[0])
        assert records[meme_id].split != "train"
    merged = read_manifest(tmp_path / "run" / "merged_train_manifest.jsonl")
    n_train = sum(1 for r in records.values() if r.split == "train")
    assert len(merged) == n_train + len(lines) - 1


def test_ingest_mode_reuses_generated_corpus(tmp_path):
    first = run_quick(tmp_path / "gen", save_images=True)
    second = run_pipeline(build_config(
        str(tmp_path / "ingest"), {},
        {"manifest": str(tmp_path / "gen" / "manifest.jsonl"),
         "seed": 3, "quiet": True}))
    assert second.report is not None
    with open(first.submission_path, "rb") as fh:
        left = fh.read()
    with open(second.submission_path, "rb") as fh:
        right = fh.read()
    assert left == right


def test_score_without_eval_labels_has_no_report():
    # the simulator needs every label, so genuine prediction sets are the
    # way an unlabeled eval split reaches score
    ds = generate_dataset(120, seed=3)
    cfg = PipelineConfig(out_dir="", quiet=True)
    structure = detect(cfg, ds.records, ds.images)
    sets = simulate(cfg, ds.records, structure.groups)
    labeled = score(cfg, ds.records, structure, sets)
    unlabeled = score(cfg, [dataclasses.replace(r, label=None) if r.split == "test"
                            else r for r in ds.records], structure, sets)
    assert labeled.report is not None and unlabeled.report is None
    assert unlabeled.final == labeled.final


def test_simulate_builds_one_population_per_run(tmp_path, monkeypatch):
    calls = []

    def counted(name):
        fn = getattr(pipeline, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(pipeline, name, wrapper)

    counted("population")
    counted("simulate_predictions")
    run_quick(tmp_path / "run", models=2, k=2)
    assert calls == ["population"] + ["simulate_predictions"] * 4


def test_ingest_failure_names_stage(tmp_path):
    run_quick(tmp_path / "gen", save_images=True)
    img = tmp_path / "gen" / "images" / "000000.pgm"
    img.unlink()
    with pytest.raises(StageError, match="ingest"):
        run_pipeline(build_config(
            str(tmp_path / "ingest"), {},
            {"manifest": str(tmp_path / "gen" / "manifest.jsonl"),
             "quiet": True}))


def test_tuples_write_failure_names_stage(tmp_path):
    out = tmp_path / "run"
    (out / "tuples.jsonl").mkdir(parents=True)
    with pytest.raises(StageError, match="tuples"):
        run_quick(out)


def test_artifacts_are_written_only_after_scoring(tmp_path, monkeypatch):
    def broken(groups, preds):
        raise RuntimeError("rule 1 broke")
    monkeypatch.setattr(pipeline, "apply_rule1", broken)
    with pytest.raises(StageError, match="rule1-override"):
        run_quick(tmp_path / "run")
    assert sorted(os.listdir(tmp_path / "run")) == \
        ["constructed_groups.jsonl", "manifest.jsonl"]
    monkeypatch.undo()
    out = tmp_path / "blocked"
    (out / "stacked.csv").mkdir(parents=True)
    with pytest.raises(StageError, match=r"^stage 'write' failed: .*stacked\.csv"):
        run_quick(out)


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError, match="n must be"):
        build_config(str(tmp_path), {}, {"n": 5})
    with pytest.raises(ConfigError, match="adjust_placement"):
        build_config(str(tmp_path), {}, {"adjust_placement": "sometimes"})
    with pytest.raises(ConfigError, match="adjust_placement"):
        build_config(str(tmp_path), {}, {"adjust_placement": "both_off"})
    with pytest.raises(ConfigError, match="eval_split must be dev or test"):
        build_config(str(tmp_path), {}, {"eval_split": "train"})
    with pytest.raises(ConfigError, match="k must be"):
        build_config(str(tmp_path), {}, {"k": 1})
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config(str(tmp_path), {}, {"banana": 1})
    for threshold in (65, -1):
        with pytest.raises(ConfigError,
                           match=rf"hamming_threshold .*, got {threshold}$"):
            build_config(str(tmp_path), {}, {"hamming_threshold": threshold})


def test_configs_are_frozen_and_checked_when_built(tmp_path, capsys):
    cfg = PipelineConfig(out_dir="")
    with pytest.raises(ConfigError, match="k must be >= 2, got 1"):
        dataclasses.replace(cfg, k=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.k = 1
    with pytest.raises(ConfigError, match="sigma must be positive"):
        SimulatorConfig(sigma=0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        SimulatorConfig().sigma = 0.0
    # rule 2 sets 1 and 0, with no key or flag for other levels
    cfg_file = tmp_path / "levels.cfg"
    cfg_file.write_text("hi = 0.9\n")
    assert run_cli("pipeline", "--outdir", str(tmp_path / "run"),
                   "--config", str(cfg_file)) == 2
    assert "unknown key 'hi'" in capsys.readouterr().err
    for argv in (["pipeline", "--outdir", str(tmp_path / "run"), "--hi", "0.5"],
                 ["adjust", "--preds", "p.csv", "--tuples", "g.jsonl", "--rule", "2",
                  "--lo", "0.1", "--out", "a.csv"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# pipeline settings\n"
        "n = 500\n"
        "seed = 11\n"
        "rule2 = off\n"
        "composition = 0.5,0.1,0.2,0.1,0.1\n")
    values = load_config_file(cfg_file)
    cfg = build_config(str(tmp_path), values, {"seed": "12"})
    assert cfg.n == 500
    assert cfg.seed == 12          # CLI override wins
    assert cfg.rule2 is False
    assert cfg.composition.multimodal_hate == 0.5


def test_config_file_errors(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n : 4\n")
    with pytest.raises(ConfigError, match="key=value"):
        load_config_file(cfg_file)
    cfg_file.write_text("mystery = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config_file(cfg_file)
    cfg_file.write_text("n = many\n")
    with pytest.raises(ConfigError, match="bad value"):
        build_config(str(tmp_path), load_config_file(cfg_file), {})
    with pytest.raises(ConfigError, match="cannot read"):
        load_config_file(tmp_path / "missing.cfg")


def test_defaults_match_documented_run():
    cfg = PipelineConfig(out_dir="x")
    assert (cfg.n, cfg.seed, cfg.models, cfg.k) == (2000, 7, 4, 5)
    assert cfg.adjust_placement == "before_stacking"
    assert cfg.rule1 and cfg.rule2 and not cfg.unimodal


def run_cli(*argv):
    return cli.main(list(argv))


# a non-default value for every config key, as config-file text
NON_DEFAULT = {
    "n": "50", "seed": "3", "composition": "0.5,0.1,0.2,0.1,0.1",
    "image_amplitude": "2.5", "text_perturb_prob": "0.25", "label_noise": "0.1",
    "hamming_threshold": "8", "k": "3", "models": "2", "rule1": "false",
    "rule2": "false", "adjust_placement": "after_stacking", "unimodal": "true",
    "separation_mu": "1.5", "sigma": "0.8",
    "noise_correlation": "0.5",
    "eval_split": "dev", "manifest": "corpus/manifest.jsonl",
    "save_images": "false", "quiet": "true",
}
# keys set by a switch instead of a --dashed-name flag, and that switch
SWITCHES = {"rule1": "--no-rule1", "rule2": "--no-rule2",
            "unimodal": "--unimodal", "save_images": "--no-images"}


def pipeline_config(monkeypatch, *argv):
    """(exit code, the PipelineConfig `memepipe ...argv` would run)."""
    seen = []

    def fake_run(cfg):
        seen.append(cfg)
        return type("Result", (), {"report": None, "submission_path": ""})()
    monkeypatch.setattr(cli, "run_pipeline", fake_run)
    code = cli.main(list(argv))
    return code, (seen[0] if seen else None)


def test_every_config_key_has_a_matching_flag(tmp_path, monkeypatch, capsys):
    keys = {f.name for f in dataclasses.fields(PipelineConfig)} - {"out_dir"}
    assert set(NON_DEFAULT) == keys
    out = str(tmp_path / "run")
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in NON_DEFAULT.items()))
    code, from_file = pipeline_config(monkeypatch, "pipeline", "--outdir", out,
                                      "--config", str(cfg_file))
    assert code == 0

    argv = ["--quiet", "pipeline", "--outdir", out]
    for key, value in NON_DEFAULT.items():
        if key in SWITCHES:
            argv.append(SWITCHES[key])
        elif key != "quiet":
            argv += ["--" + key.replace("_", "-"), value]
    code, from_flags = pipeline_config(monkeypatch, *argv)
    assert code == 0
    assert from_flags == from_file
    default = PipelineConfig(out_dir=out)
    for key in keys:
        assert getattr(from_file, key) != getattr(default, key), key

    # the four switches, on their own
    code, cfg = pipeline_config(monkeypatch, "pipeline", "--outdir", out,
                                "--no-rule1", "--no-rule2", "--no-images",
                                "--unimodal")
    assert code == 0
    assert (cfg.rule1, cfg.rule2, cfg.save_images, cfg.unimodal) == \
        (False, False, False, True)
    assert cfg.quiet is False

    # a flag wins over the config file; an absent flag leaves it alone
    code, cfg = pipeline_config(monkeypatch, "pipeline", "--outdir", out,
                                "--config", str(cfg_file), "--n", "60")
    assert (cfg.n, cfg.seed, cfg.quiet) == (60, 3, True)

    # flag values go through the config parsers and checks
    assert pipeline_config(monkeypatch, "pipeline", "--outdir", out,
                           "--n", "abc") == (2, None)
    assert pipeline_config(monkeypatch, "pipeline", "--outdir", out,
                           "--adjust-placement", "sometimes") == (2, None)
    capsys.readouterr()


def test_cli_stage_chain_matches_pipeline(tmp_path):
    out = tmp_path / "run"
    run_quick(out, n=300, models=2, k=2, save_images=True)
    work = tmp_path / "stages"
    work.mkdir()

    assert run_cli("--quiet", "hash", "--manifest", str(out / "manifest.jsonl"),
                   "--out", str(work / "hashes.csv")) == 0
    assert (work / "hashes.csv").read_bytes() == (out / "hashes.csv").read_bytes()

    assert run_cli("--quiet", "cluster", "--manifest", str(out / "manifest.jsonl"),
                   "--hashes", str(work / "hashes.csv"),
                   "--out", str(work / "clusters.csv")) == 0
    assert (work / "clusters.csv").read_bytes() == \
        (out / "clusters.csv").read_bytes()

    assert run_cli("--quiet", "tuples", "--manifest", str(out / "manifest.jsonl"),
                   "--clusters", str(work / "clusters.csv"),
                   "--out", str(work / "tuples.jsonl")) == 0
    assert (work / "tuples.jsonl").read_bytes() == \
        (out / "tuples.jsonl").read_bytes()

    assert run_cli("--quiet", "simulate", "--manifest", str(out / "manifest.jsonl"),
                   "--tuples", str(work / "tuples.jsonl"),
                   "--model-index", "3", "--seed", "3",
                   "--out", str(work / "sim-03.csv")) == 0
    assert (work / "sim-03.csv").read_bytes() == \
        (out / "preds" / "sim-03.csv").read_bytes()

    # rule 2 on each simulated set gives the pipeline's adjusted set
    names = sorted(os.listdir(out / "preds"))
    assert len(names) == 4
    for name in names:
        assert run_cli("--quiet", "adjust", "--preds", str(out / "preds" / name),
                       "--tuples", str(work / "tuples.jsonl"), "--rule", "2",
                       "--out", str(work / f"adjusted-{name}")) == 0
        assert (work / f"adjusted-{name}").read_bytes() == \
            (out / "preds_adjusted" / name).read_bytes()

    # stacking those and then rule 1 gives stacked.csv
    assert run_cli("--quiet", "stack", "--preds",
                   *(str(work / f"adjusted-{name}") for name in names),
                   "--out", str(work / "stacked-submission.csv")) == 0
    # stack writes a submission; adjust reads it without the label column
    assert run_cli("--quiet", "adjust", "--preds", str(work / "stacked-submission.csv"),
                   "--tuples", str(work / "tuples.jsonl"), "--rule", "1",
                   "--out", str(work / "stacked.csv")) == 0
    assert (work / "stacked.csv").read_bytes() == (out / "stacked.csv").read_bytes()

    # the unimodal rule over the train split's all-hateful clusters gives the
    # stacked.csv of a run with unimodal=true
    assert run_cli("--quiet", "tuples", "--manifest", str(out / "manifest.jsonl"),
                   "--clusters", str(work / "clusters.csv"), "--unimodal-scope", "train",
                   "--out", str(work / "unimodal.jsonl")) == 0
    assert run_cli("--quiet", "adjust", "--preds", str(out / "stacked.csv"),
                   "--tuples", str(work / "unimodal.jsonl"), "--rule", "unimodal",
                   "--clusters", str(work / "clusters.csv"),
                   "--out", str(work / "unimodal.csv")) == 0
    assert hashlib.sha256((work / "unimodal.csv").read_bytes()).hexdigest() == \
        BRANCH_DIGESTS["unimodal"][1]["stacked.csv"]

    # pseudo-label labels every three-tuple member; the pipeline keeps the
    # held-out ones
    assert run_cli("--quiet", "pseudo-label", "--tuples", str(work / "tuples.jsonl"),
                   "--out", str(work / "pseudo.csv")) == 0
    every = (work / "pseudo.csv").read_text().splitlines()
    held_out = (out / "pseudo_labels.csv").read_text().splitlines()
    assert (len(every) - 1, len(held_out) - 1) == (180, 25)
    assert set(held_out) <= set(every)


def test_cli_gen_data_and_stats(tmp_path, capsys):
    out = tmp_path / "data"
    assert run_cli("--quiet", "gen-data", "--n", "60", "--outdir", str(out),
                   "--seed", "1") == 0
    assert (out / "manifest.jsonl").exists()
    assert (out / "images" / "000000.pgm").exists()
    assert run_cli("--quiet", "hash", "--manifest", str(out / "manifest.jsonl"),
                   "--out", str(out / "h.csv")) == 0
    assert run_cli("--quiet", "cluster", "--manifest", str(out / "manifest.jsonl"),
                   "--hashes", str(out / "h.csv"),
                   "--out", str(out / "c.csv")) == 0
    capsys.readouterr()
    assert run_cli("--quiet", "stats", "--clusters", str(out / "c.csv"),
                   "--tuples", str(out / "constructed_groups.jsonl")) == 0
    printed = capsys.readouterr().out
    assert "STATS n=60" in printed
    assert "three_tuple=" in printed


def test_cli_evaluate_matches_report(tmp_path, capsys):
    out = tmp_path / "run"
    run_quick(out, save_images=True)
    capsys.readouterr()
    assert run_cli("--quiet", "evaluate", "--submission", str(out / "submission.csv"),
                   "--truth", str(out / "manifest.jsonl"),
                   "--split", "test") == 0
    printed = capsys.readouterr().out
    report_text = (out / "report.txt").read_text()
    result_line = [l for l in printed.splitlines() if l.startswith("RESULT")][0]
    assert result_line in report_text


def test_cli_pipeline_command(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("--quiet", "pipeline", "--outdir", str(out), "--n", "120",
                   "--seed", "3", "--no-images") == 0
    printed = capsys.readouterr().out
    assert printed.startswith("RESULT auroc=")
    assert (out / "submission.csv").exists()


def test_cli_pipeline_prints_stages_on_stderr_and_one_result_on_stdout(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("pipeline", "--outdir", str(out), "--n", "100", "--models", "1",
                   "--k", "2", "--no-images") == 0
    printed = capsys.readouterr()
    assert printed.out.startswith("RESULT auroc=")
    assert printed.out.count("RESULT") == 1 and "RESULT" not in printed.err
    assert printed.err.splitlines() == [
        "[generate]", "[hash]", "[cluster]", "[tuples]", "[pseudo-label]",
        "[simulate]", "[adjust-before]", "[stack]", "[rule1-override]",
        "[evaluate]", "[write]", f"submission: {out / 'submission.csv'}"]


def test_cli_exit_codes(tmp_path, capsys):
    # config error
    assert run_cli("pipeline", "--outdir", str(tmp_path / "x"), "--n", "5") == 2
    assert run_cli("pipeline", "--outdir", str(tmp_path / "x"),
                   "--image-amplitude", "-1") == 2
    # simulator and generator settings are checked before the corpus is generated
    for flag, value, message in (("--sigma", "-1", "sigma must be positive"),
                                 ("--sigma", "inf", "sigma must be positive and finite"),
                                 ("--separation-mu", "nan", "separation_mu must be finite"),
                                 ("--separation-mu", "inf", "separation_mu must be finite"),
                                 ("--image-amplitude", "inf",
                                  "image_amplitude must be >= 0 and finite"),
                                 ("--noise-correlation", "2", "noise_correlation")):
        capsys.readouterr()
        assert run_cli("pipeline", "--outdir", str(tmp_path / "x"), flag, value) == 2
        assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    # malformed input data
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n")
    assert run_cli("hash", "--manifest", str(bad),
                   "--out", str(tmp_path / "h.csv")) == 3
    # missing file
    assert run_cli("hash", "--manifest", str(tmp_path / "missing.jsonl"),
                   "--out", str(tmp_path / "h.csv")) == 4
    capsys.readouterr()
    # one fault per subcommand: the class raised at the fault sets the code
    faults = tmp_path / "faults"
    write_faulty_inputs(faults)
    prefixes = {2: "config error: ", 3: "data error: "}
    for name, (argv, code, named) in EXIT_CODE_TABLE.items():
        assert run_cli(*argv.format(d=faults).split()) == code, name
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(prefixes[code]), (name, err)
        assert "Traceback" not in err, name
        if named:
            assert f"data error: {named.format(d=faults)}: " in err, (name, err)
    assert not (faults / "pseudo.csv").exists()


# name: (argv, with {d} the write_faulty_inputs directory; exit code; the
# file a data error names, or None)
EXIT_CODE_TABLE = {
    "tuples, short clusters file":
        ("tuples --manifest {d}/two.jsonl --clusters {d}/short.csv --out {d}/g.jsonl",
         3, "{d}/short.csv"),
    "hash, 5x5 image":
        ("hash --manifest {d}/tiny/manifest.jsonl --out {d}/h.csv", 3, "{d}/tiny/0.pgm"),
    "evaluate, single-class truth":
        ("evaluate --submission {d}/sub.csv --truth {d}/two.jsonl", 3, "{d}/two.jsonl"),
    "stats --tuples, empty clusters file":
        ("stats --clusters {d}/empty.csv --tuples {d}/pair.jsonl", 3, "{d}/empty.csv"),
    "adjust, missing member":
        ("adjust --preds {d}/one.csv --tuples {d}/pair.jsonl --rule 2 --out {d}/a.csv",
         3, "{d}/one.csv"),
    "gen-data --n 5": ("gen-data --n 5 --outdir {d}/gen", 2, None),
    "cluster --threshold 99":
        ("cluster --manifest {d}/two.jsonl --hashes {d}/hashes.csv --threshold 99 "
         "--out {d}/c.csv", 2, None),
    "pipeline --manifest, 5x5 image":
        ("--quiet pipeline --outdir {d}/run --manifest {d}/tiny/manifest.jsonl",
         3, "{d}/tiny/0.pgm"),
    "pipeline --manifest, unlabelled eval split":
        ("--quiet pipeline --outdir {d}/run --manifest {d}/corpus/unlabelled.jsonl",
         3, "{d}/corpus/unlabelled.jsonl"),
    "pipeline --manifest, single-class eval split":
        ("--quiet pipeline --outdir {d}/run --manifest {d}/corpus/one_class.jsonl",
         3, "{d}/corpus/one_class.jsonl"),
    "pipeline, rule1=maybe": ("pipeline --outdir {d}/run --config {d}/maybe.cfg", 2, None),
    "pipeline --models 0": ("pipeline --outdir {d}/run --models 0", 2, None),
    "pipeline --eval-split train":
        ("pipeline --outdir {d}/run --eval-split train", 2, None),
    "pseudo-label, string pivot":
        ("pseudo-label --tuples {d}/string_pivot.jsonl --out {d}/pseudo.csv",
         3, "{d}/string_pivot.jsonl"),
    "adjust --rule unimodal without --clusters":
        ("adjust --preds {d}/both.csv --tuples {d}/pair.jsonl --rule unimodal "
         "--out {d}/a.csv", 2, None),
    "evaluate, split without labels":
        ("evaluate --submission {d}/sub.csv --truth {d}/unlabelled.jsonl", 2, None),
    "evaluate, split without records":
        ("evaluate --submission {d}/sub.csv --truth {d}/two.jsonl --split dev",
         3, "{d}/two.jsonl"),
    "evaluate, submission short of the truth":
        ("evaluate --submission {d}/sub.csv --truth {d}/three.jsonl", 3, "{d}/sub.csv"),
}


def write_faulty_inputs(d):
    """The input files EXIT_CODE_TABLE and ODD_INPUTS refer to."""
    (d / "tiny").mkdir(parents=True)
    write_pgm(np.zeros((5, 5), dtype=np.uint8), d / "tiny" / "0.pgm")
    write_manifest([MemeRecord(0, "0.pgm", "t", 1, "train")], d / "tiny" / "manifest.jsonl")
    # two hateful test memes: one class only, and meme 0 lacks a cluster
    write_manifest([MemeRecord(0, "0.pgm", "t", 1, "test"),
                    MemeRecord(1, "1.pgm", "u", 1, "test")], d / "two.jsonl")
    (d / "short.csv").write_text("1,1,1\n")
    (d / "empty.csv").write_text("")
    (d / "hashes.csv").write_text("0,0000000000000000\n1,00000000000000ff\n")
    (d / "sub.csv").write_text("id,proba,label\n0,0.9,1\n1,0.2,0\n")
    write_groups([TwoTuple(0, 1, "image")], d / "pair.jsonl")
    write_predictions(PredictionSet("one", {0: 0.4}), d / "one.csv")
    write_predictions(PredictionSet("both", {0: 0.4, 1: 0.6}), d / "both.csv")
    (d / "binary").write_bytes(b"\xff\xfe\x00")
    (d / "one_hash.csv").write_text("1,0000000000000000\n")
    (d / "negative.csv").write_text("0,0000000000000000\n1,-000000000000001\n")
    (d / "negative_id.csv").write_text("id,proba\n-1,0.5\n")
    (d / "underscore_id.csv").write_text("id,proba\n0,0.5\n1_0,0.25\n")
    (d / "signed_hash_id.csv").write_text("0,0000000000000000\n+1,00000000000000ff\n")
    write_manifest([MemeRecord(0, "0.pgm", "t", None, "test")], d / "unlabelled.jsonl")
    (d / "one_cluster.csv").write_text("0,0,0\n")
    write_manifest([MemeRecord(i, f"{i}.pgm", "t", i % 2, "test") for i in range(3)],
                   d / "three.jsonl")
    (d / "maybe.cfg").write_text("rule1 = maybe\n")
    (d / "string_pivot.jsonl").write_text(
        '{"kind": "two_tuple", "a": 0, "b": 1, "shared": "image"}\n'
        '{"kind": "three_tuple", "pivot": "a", "image_partner": 1, "text_partner": 2}\n')
    # a four-meme corpus whose eval split lacks labels, or has one class
    (d / "corpus").mkdir()
    rng = np.random.default_rng(0)
    for i in range(4):
        write_pgm(rng.integers(0, 256, size=(16, 16), dtype=np.uint8),
                  d / "corpus" / f"{i}.pgm")
    for name, eval_labels in (("unlabelled", (None, None)), ("one_class", (1, 1))):
        write_manifest([MemeRecord(0, "0.pgm", "a", 0, "train"),
                        MemeRecord(1, "1.pgm", "b", 1, "train"),
                        MemeRecord(2, "2.pgm", "c", eval_labels[0], "test"),
                        MemeRecord(3, "3.pgm", "d", eval_labels[1], "test")],
                       d / "corpus" / f"{name}.jsonl")
    # no test records at all
    write_manifest([MemeRecord(i, f"{i}.pgm", "abcd"[i], i % 2, "train") for i in range(4)],
                   d / "corpus" / "no_test.jsonl")
    # an image missing, and a directory in place of one
    (d / "corpus" / "dir.pgm").mkdir()
    for name, img in (("missing_image", "9.pgm"), ("dir_image", "dir.pgm")):
        write_manifest([MemeRecord(0, "0.pgm", "a", 0, "train"),
                        MemeRecord(1, img, "b", 1, "train"),
                        MemeRecord(2, "2.pgm", "c", 0, "test"),
                        MemeRecord(3, "3.pgm", "d", 1, "test")],
                       d / "corpus" / f"{name}.jsonl")
    # a directory where gen-data writes an image
    (d / "gen_dir" / "images" / "000005.pgm").mkdir(parents=True)


# inputs a builtin error would report, with no path or the wrong exit code,
# unless checked: name: (argv, with {d} the write_faulty_inputs directory;
# exit code; a part of the message)
ODD_INPUTS = {
    "manifest not UTF-8":
        ("hash --manifest {d}/binary --out {d}/h.csv", 3, "{d}/binary: not UTF-8"),
    "config file not UTF-8":
        ("pipeline --outdir {d}/run --config {d}/binary", 2, "cannot read config file"),
    "hashes short of the manifest":
        ("cluster --manifest {d}/two.jsonl --hashes {d}/one_hash.csv --out {d}/c.csv",
         3, "{d}/one_hash.csv: ids differ from those of {d}/two.jsonl"),
    "negative hash":
        ("cluster --manifest {d}/two.jsonl --hashes {d}/negative.csv --out {d}/c.csv",
         3, "{d}/negative.csv: line 2: malformed row"),
    "composition not numbers":
        ("gen-data --n 20 --outdir {d}/gen --composition a,b,c,d,e", 2, "5 comma-separated"),
    "sigma nan": ("pipeline --outdir {d}/run --sigma nan", 2, "sigma must be positive"),
    "image amplitude nan":
        ("pipeline --outdir {d}/run --image-amplitude nan", 2, "image_amplitude must be >= 0"),
    "unlabelled meme in the unimodal scope":
        ("tuples --manifest {d}/unlabelled.jsonl --clusters {d}/one_cluster.csv "
         "--unimodal-scope test --out {d}/g.jsonl",
         3, "{d}/unlabelled.jsonl: meme 0 has no label"),
    "empty manifest":
        ("pipeline --outdir {d}/run --manifest {d}/empty.csv", 3, "{d}/empty.csv: no records"),
    "generated corpus with no dev records":
        ("pipeline --outdir {d}/run --n 19 --eval-split dev --no-images",
         3, "data error: eval split 'dev' has no records"),
    "ingested corpus with no test records":
        ("pipeline --outdir {d}/run --manifest {d}/corpus/no_test.jsonl",
         3, "data error: {d}/corpus/no_test.jsonl: eval split 'test' has no records"),
    "negative prediction id":
        ("adjust --preds {d}/negative_id.csv --tuples {d}/pair.jsonl --rule 2 "
         "--out {d}/a.csv", 3, "{d}/negative_id.csv: line 2: malformed row '-1,0.5'"),
    "underscored prediction id":
        ("adjust --preds {d}/underscore_id.csv --tuples {d}/pair.jsonl --rule 2 "
         "--out {d}/a.csv", 3, "{d}/underscore_id.csv: line 3: malformed row '1_0,0.25'"),
    "missing image":
        ("pipeline --outdir {d}/run --manifest {d}/corpus/missing_image.jsonl",
         4, "No such file or directory: '{d}/corpus/9.pgm'"),
    "directory in place of an image":
        ("pipeline --outdir {d}/run --manifest {d}/corpus/dir_image.jsonl",
         4, "[Errno 21] Is a directory: '{d}/corpus/dir.pgm'"),
    "gen-data onto a directory in place of an image":
        ("gen-data --n 20 --outdir {d}/gen_dir",
         4, "[Errno 21] Is a directory: '{d}/gen_dir/images/000005.pgm'"),
    "signed hash id":
        ("cluster --manifest {d}/two.jsonl --hashes {d}/signed_hash_id.csv --out {d}/c.csv",
         3, "{d}/signed_hash_id.csv: line 2: malformed row '+1,00000000000000ff'"),
}


@pytest.mark.parametrize("name", sorted(ODD_INPUTS))
def test_cli_odd_inputs_get_typed_errors(tmp_path, capsys, name):
    argv, code, message = ODD_INPUTS[name]
    write_faulty_inputs(tmp_path)
    assert run_cli("--quiet", *argv.format(d=tmp_path).split()) == code
    err = capsys.readouterr().err
    assert message.format(d=tmp_path) in err
    assert "Traceback" not in err



# a float flag's negative value given as its own argument, which argparse
# would take for an option: name: (argv, with {d} the write_faulty_inputs
# directory; the config error; the file the run must not write)
NEGATIVE_FLOAT_VALUES = {
    "pipeline separation_mu -inf":
        ("pipeline --outdir {d}/run --separation-mu -inf",
         "separation_mu must be finite, got -inf", "run"),
    "pipeline sigma -nan":
        ("pipeline --outdir {d}/run --sigma -nan", "sigma must be positive and finite", "run"),
    "pipeline noise_correlation -1e-3":
        ("pipeline --outdir {d}/run --noise-correlation -1e-3",
         "noise_correlation must be in [0, 1]", "run"),
    "simulate separation_mu -inf":
        ("simulate --manifest {d}/two.jsonl --separation-mu -inf --out {d}/s.csv",
         "separation_mu must be finite, got -inf", "s.csv"),
    "simulate sigma -nan":
        ("simulate --manifest {d}/two.jsonl --sigma -nan --out {d}/s.csv",
         "sigma must be positive and finite", "s.csv"),
    "gen-data label_noise -1e-3":
        ("gen-data --n 20 --outdir {d}/gen --label-noise -1e-3",
         "label_noise must be in [0, 1], got -0.001", "gen"),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_FLOAT_VALUES))
def test_cli_negative_float_values_reach_the_config_check(tmp_path, capsys, name):
    argv, message, unwritten = NEGATIVE_FLOAT_VALUES[name]
    write_faulty_inputs(tmp_path)
    assert run_cli("--quiet", *argv.format(d=tmp_path).split()) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err and "expected one argument" not in err
    assert not (tmp_path / unwritten).exists()


def test_cli_joins_only_number_values_to_long_flags():
    assert cli._negative_values_joined(
        ["--quiet", "pipeline", "--label-noise", "-1e-3", "--seed=-1", "--sigma", "-inf",
         "-h", "--", "-5", "x", "-nan"]) == [
        "--quiet", "pipeline", "--label-noise=-1e-3", "--seed=-1", "--sigma=-inf",
        "-h", "--", "-5", "x", "-nan"]


def test_cli_negative_seed_is_a_config_error(tmp_path, capsys):
    assert run_cli("pipeline", "--outdir", str(tmp_path / "x"), "--seed", "-1") == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    manifest = tmp_path / "manifest.jsonl"
    write_manifest([MemeRecord(0, "0.pgm", "t", 1, "test")], manifest)
    assert run_cli("simulate", "--manifest", str(manifest), "--seed", "-1",
                   "--out", str(tmp_path / "sim.csv")) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert run_cli("gen-data", "--n", "20", "--seed", "-1",
                   "--outdir", str(tmp_path / "data")) == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()
    assert run_cli("simulate", "--manifest", str(manifest), "--model-index", "-1",
                   "--out", str(tmp_path / "sim.csv")) == 2
    assert "--model-index must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "sim.csv").exists()


def test_cli_simulate_unlabelled_manifest_is_a_data_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.jsonl"
    write_manifest([MemeRecord(0, "0.pgm", "t", 1, "test"),
                    MemeRecord(1, "1.pgm", "u", None, "test"),
                    MemeRecord(2, "2.pgm", "v", None, "test")], manifest)
    assert run_cli("simulate", "--manifest", str(manifest),
                   "--out", str(tmp_path / "sim.csv")) == 3
    err = capsys.readouterr().err
    assert f"data error: {manifest}: meme 1 has no label" in err
    assert not (tmp_path / "sim.csv").exists()


def test_cli_tuples_rejects_unknown_split_names(tmp_path, capsys):
    out = tmp_path / "run"
    run_quick(out)
    base = ["tuples", "--manifest", str(out / "manifest.jsonl"),
            "--clusters", str(out / "clusters.csv"),
            "--out", str(tmp_path / "groups.jsonl")]
    for flag in ("--scope", "--unimodal-scope"):
        assert run_cli(*base, flag, "train,tain") == 2
        assert f"unknown split(s) in {flag}: ['tain']" in capsys.readouterr().err
    assert not (tmp_path / "groups.jsonl").exists()
    assert run_cli("--quiet", *base, "--unimodal-scope", "train") == 0


def test_cli_stack_writes_submission_rows(tmp_path):
    out = tmp_path / "run"
    run_quick(out)
    paths = sorted(str(p) for p in (out / "preds_adjusted").iterdir())
    assert run_cli("--quiet", "stack", "--preds", *paths,
                   "--out", str(tmp_path / "stacked.csv")) == 0
    stacked = stack_equal_weight([read_predictions(p) for p in paths])
    expected = "id,proba,label\n" + "".join(
        f"{i},{stacked.mean_score[i]:.9f},{stacked.label[i]}\n"
        for i in sorted(stacked.mean_score))
    assert (tmp_path / "stacked.csv").read_text() == expected


def test_cli_stack_names_the_file_whose_ids_differ(tmp_path, capsys):
    paths = []
    for name, ids in (("a", [0, 1, 2]), ("b", [0, 1, 2]), ("c", [0, 1, 3]),
                      ("d", [0, 1])):
        paths.append(str(tmp_path / f"{name}.csv"))
        write_predictions(PredictionSet(name, {i: 0.5 for i in ids}), paths[-1])
    assert run_cli("stack", "--preds", *paths, "--out", str(tmp_path / "out.csv")) == 3
    assert f"{paths[2]}: ids differ from those of {paths[0]}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_cli_adjust_round_trip(tmp_path, capsys):
    out = tmp_path / "run"
    run_quick(out, save_images=True)
    first_pred = sorted(os.listdir(out / "preds"))[0]
    assert run_cli("--quiet", "adjust", "--preds", str(out / "preds" / first_pred),
                   "--tuples", str(out / "tuples.jsonl"), "--rule", "2",
                   "--out", str(tmp_path / "adj.csv")) == 0
    assert (tmp_path / "adj.csv").read_bytes() == \
        (out / "preds_adjusted" / first_pred).read_bytes()
    capsys.readouterr()
