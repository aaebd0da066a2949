"""The kgembed command: subcommands, exit codes, flags, printed tables."""

import csv
import json
import logging
import struct
import subprocess
import sys

import numpy as np
import pytest

from kgembed.cli import main

EVAL_HEADER = ["split", "filtered", "side", "rank_definition", "mr", "mrr",
               "amr", "hits_at_1", "hits_at_3", "hits_at_5", "hits_at_10",
               "count"]
HPO_HEADER = ["model", "approach", "loss", "inverse", "embedding_dim",
              "optimizer", "learning_rate", "batch_size", "num_negatives",
              "margin", "adversarial_temperature", "label_smoothing",
              "sampler", "metric", "best_epoch", "trial_id"]
REPORT_HEADER = ["model", "loss", "approach", "inverse", "dataset", "seed",
                 "hits_at_10", "mrr", "mr", "amr", "best_epoch", "epochs_run",
                 "train_seconds"]

TRAIN = [
    "a\tr0\tb", "a\tr0\tc", "b\tr0\tc", "c\tr1\ta", "d\tr1\ta",
    "b\tr1\td", "d\tr0\te", "e\tr1\tb", "a\tr1\te",
]
VALID = ["b\tr0\td", "c\tr1\te"]
TEST = ["e\tr0\ta", "d\tr0\ta"]


def write_dataset(d, train=TRAIN, valid=VALID, test=TEST):
    d.mkdir(parents=True, exist_ok=True)
    for name, rows in (("train", train), ("valid", valid), ("test", test)):
        (d / f"{name}.txt").write_text("\n".join(rows) + "\n")
    return d


def run_config(data_dir, out_dir, **overrides):
    doc = {
        "dataset": {"train": str(data_dir / "train.txt"),
                    "valid": str(data_dir / "valid.txt"),
                    "test": str(data_dir / "test.txt")},
        "model": {"kind": "distmult", "d_e": 4},
        "training": {"approach": "slcwa", "loss": {"kind": "mrl"},
                     "batch_size": 4, "num_epochs": 3, "num_negatives": 2,
                     "optimizer": {"kind": "adam", "learning_rate": 0.05}},
        "early_stopping": {"frequency": 1, "patience": 2},
        "seed": 7,
        "output_dir": str(out_dir),
    }
    doc.update(overrides)
    return doc


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A dataset plus one finished training run, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    data = write_dataset(root / "data")
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(run_config(data, root / "run_out")) + "\n")
    assert main(["train", str(cfg_path)]) == 0
    return {"root": root, "data": data, "config": cfg_path,
            "out": root / "run_out",
            "checkpoint": root / "run_out" / "checkpoint.kge"}


def table_rows(stdout):
    """Parse the printed markdown table into dict rows."""
    lines = [l for l in stdout.splitlines() if l.startswith("|")]
    header = [c.strip() for c in lines[0].strip("|").split("|")]
    rows = []
    for line in lines[2:]:
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows.append(dict(zip(header, cells)))
    return header, rows


# ---------------------------------------------------------------------------
# parser basics
# ---------------------------------------------------------------------------

def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    for sub in ("train", "evaluate", "hpo", "report"):
        assert sub in out


def test_module_and_script_entry_points():
    proc = subprocess.run([sys.executable, "-m", "kgembed", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    proc = subprocess.run(["kgembed", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_reports_and_writes_artifacts(workspace, capsys):
    # rerun into a fresh directory to capture the printed summary
    out = workspace["root"] / "train_again"
    code = main(["train", str(workspace["config"]),
                 "--output-dir", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "model distmult  loss mrl  approach slcwa  inverse no" in stdout
    assert "test filtered realistic: hits@10" in stdout
    assert f"artifacts in {out}" in stdout
    for name in ("config.json", "trace.jsonl", "checkpoint.kge", "result.json"):
        assert (out / name).exists()
    # the config echo is byte-for-byte the input file
    assert (out / "config.json").read_bytes() == workspace["config"].read_bytes()


def test_train_rerun_is_bit_identical(workspace):
    out = workspace["root"] / "rerun"
    assert main(["train", str(workspace["config"]),
                 "--output-dir", str(out)]) == 0
    first = json.loads((workspace["out"] / "result.json").read_text())
    second = json.loads((out / "result.json").read_text())
    assert first["metrics"] == second["metrics"]
    assert first["training"]["final_loss"] == second["training"]["final_loss"]
    assert first["training"]["best_epoch"] == second["training"]["best_epoch"]


def test_train_missing_config_exits_2(tmp_path, capsys):
    assert main(["train", str(tmp_path / "none.json")]) == 2
    assert "config error: config: cannot read" in capsys.readouterr().err


def test_train_unparseable_config_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{\n")
    assert main(["train", str(p)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_train_reports_every_config_problem(tmp_path, capsys):
    data = write_dataset(tmp_path / "data")
    doc = run_config(data, tmp_path / "out")
    doc["model"]["kind"] = "mystery"
    doc["training"]["num_epochs"] = 0
    p = tmp_path / "run.json"
    p.write_text(json.dumps(doc))
    assert main(["train", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.count("config error:") == 2
    assert "model.kind" in err and "training.num_epochs" in err


def test_train_malformed_dataset_exits_3(tmp_path, capsys):
    data = write_dataset(tmp_path / "data")
    (data / "train.txt").write_text("head relation\n")  # two fields only
    p = tmp_path / "run.json"
    p.write_text(json.dumps(run_config(data, tmp_path / "out")))
    assert main(["train", str(p)]) == 3
    assert "data error:" in capsys.readouterr().err


@pytest.mark.parametrize("train, message", [
    ([], "the training split has no triples"),
    (["a\tr0\ta"], "slcwa needs at least 2 entities to draw negatives, the dataset has 1"),
], ids=["empty-train", "one-entity"])
def test_train_degenerate_dataset_exits_3(tmp_path, capsys, train, message):
    # an empty training split, and a graph with no entity to corrupt with
    valid = test = ["a\tr0\ta"]
    data = write_dataset(tmp_path / "data", train=train, valid=valid, test=test)
    p = tmp_path / "run.json"
    p.write_text(json.dumps(run_config(data, tmp_path / "out")))
    assert main(["train", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and message in err, err


@pytest.mark.parametrize("command", ["train", "hpo"])
@pytest.mark.parametrize("split, name", [("valid", "validation"), ("test", "test")])
def test_empty_ranked_split_exits_3_before_training(tmp_path, capsys, command, split, name):
    # early stopping ranks the validation split and every run ranks the test
    # split: an empty one used to train on and report NaN metrics (train) or
    # end in a traceback (hpo)
    data = write_dataset(tmp_path / "data", **{split: []})
    out = tmp_path / "out"
    doc = (run_config if command == "train" else study_doc)(data, out)
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    assert main([command, str(p)]) == 3
    err = capsys.readouterr().err
    assert err == f"data error: {data / split}.txt: the {name} split has no triples\n", err
    assert not (out / "trace.jsonl").exists() and not (out / "trials.jsonl").exists()


def test_train_without_early_stopping_ignores_an_empty_validation_split(tmp_path):
    data = write_dataset(tmp_path / "data", valid=[])
    doc = run_config(data, tmp_path / "out")
    doc["early_stopping"]["enabled"] = False
    p = tmp_path / "run.json"
    p.write_text(json.dumps(doc))
    assert main(["train", str(p)]) == 0
    result = json.loads((tmp_path / "out" / "result.json").read_text())
    assert result["training"]["epochs_run"] == 3


def test_train_divergence_exits_4(tmp_path, capsys):
    data = write_dataset(tmp_path / "data")
    doc = run_config(data, tmp_path / "out")
    doc["training"]["optimizer"]["learning_rate"] = 1e200
    doc["training"]["batch_size"] = 512
    p = tmp_path / "run.json"
    p.write_text(json.dumps(doc))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["train", str(p)]) == 4
    assert "runtime error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["conve", "distmult"])
def test_train_oversized_model_exits_2(tmp_path, capsys, kind):
    # ConvE's reshape search and numpy's allocation both failed with a traceback
    data = write_dataset(tmp_path / "data")
    doc = run_config(data, tmp_path / "out")
    doc["model"] = {"kind": kind, "d_e": 10**30}
    p = tmp_path / "run.json"
    p.write_text(json.dumps(doc))
    assert main(["train", str(p)]) == 2
    assert "config error: model: d_e must lie in [1, 2147483647]" in capsys.readouterr().err


def test_train_model_too_large_for_memory_exits_2(tmp_path, capsys, monkeypatch):
    # d_e = 2**30 passes validation, and numpy's request for the entity
    # table in init_parameters ended in an _ArrayMemoryError traceback; the
    # request is faked here, so nothing large is allocated
    from kgembed import pipeline

    def refuse(model, seed):
        raise MemoryError("Unable to allocate 40.0 GiB for an array with shape "
                          "(5, 1073741824) and data type float64")

    monkeypatch.setattr(pipeline, "init_parameters", refuse)
    data = write_dataset(tmp_path / "data")
    doc = run_config(data, tmp_path / "out")
    doc["model"] = {"kind": "distmult", "d_e": 2**30}
    p = tmp_path / "run.json"
    p.write_text(json.dumps(doc))
    assert main(["train", str(p)]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: the configured sizes do not fit in memory: Unable to "
                   "allocate 40.0 GiB for an array with shape (5, 1073741824) and data "
                   "type float64\n")


def test_train_too_many_negatives_exits_2(tmp_path, capsys):
    # the sampler's first draw ended in an OverflowError traceback
    data = write_dataset(tmp_path / "data")
    doc = run_config(data, tmp_path / "out")
    doc["training"]["num_negatives"] = 10**30
    p = tmp_path / "run.json"
    p.write_text(json.dumps(doc))
    assert main(["train", str(p)]) == 2
    assert ("config error: training.num_negatives: must lie in [1, 2147483647]"
            in capsys.readouterr().err)


def test_train_env_output_dir_override(tmp_path, capsys, monkeypatch):
    data = write_dataset(tmp_path / "data")
    p = tmp_path / "run.json"
    p.write_text(json.dumps(run_config(data, tmp_path / "from_config")))
    monkeypatch.setenv("KGEMBED_OUTPUT_DIR", str(tmp_path / "from_env"))
    assert main(["train", str(p)]) == 0
    capsys.readouterr()
    assert (tmp_path / "from_env" / "result.json").exists()
    assert not (tmp_path / "from_config").exists()


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_prints_one_realistic_row(workspace, capsys):
    code = main(["evaluate", str(workspace["checkpoint"]),
                 "--data", str(workspace["data"])])
    assert code == 0
    header, rows = table_rows(capsys.readouterr().out)
    assert header == EVAL_HEADER
    assert len(rows) == 1
    row = rows[0]
    assert (row["split"], row["filtered"], row["side"]) == ("test", "yes", "both")
    assert row["rank_definition"] == "realistic"
    assert int(row["count"]) == 4  # two test triples, both sides


def test_evaluate_rank_all_keeps_definitions_ordered(workspace, capsys):
    assert main(["evaluate", str(workspace["checkpoint"]),
                 "--data", str(workspace["data"]), "--rank", "all"]) == 0
    _, rows = table_rows(capsys.readouterr().out)
    by_def = {r["rank_definition"]: r for r in rows}
    assert list(by_def) == ["optimistic", "pessimistic", "realistic"]
    mr = {d: float(r["mr"]) for d, r in by_def.items()}
    assert mr["optimistic"] <= mr["realistic"] <= mr["pessimistic"]
    hits = {d: float(r["hits_at_10"]) for d, r in by_def.items()}
    assert hits["optimistic"] >= hits["realistic"] >= hits["pessimistic"]


def test_evaluate_unfiltered_never_beats_filtered(workspace, capsys):
    args = ["evaluate", str(workspace["checkpoint"]),
            "--data", str(workspace["data"])]
    assert main(args) == 0
    filtered = float(table_rows(capsys.readouterr().out)[1][0]["mr"])
    assert main(args + ["--unfiltered"]) == 0
    row = table_rows(capsys.readouterr().out)[1][0]
    assert row["filtered"] == "no"
    assert filtered <= float(row["mr"])


def test_evaluate_sides_split_the_both_count(workspace, capsys):
    counts = {}
    for side in ("head", "tail", "both"):
        assert main(["evaluate", str(workspace["checkpoint"]),
                     "--data", str(workspace["data"]), "--side", side]) == 0
        row = table_rows(capsys.readouterr().out)[1][0]
        assert row["side"] == side
        counts[side] = int(row["count"])
    assert counts["head"] + counts["tail"] == counts["both"]


def test_evaluate_split_and_file_flags(workspace, capsys):
    d = workspace["data"]
    assert main(["evaluate", str(workspace["checkpoint"]),
                 "--train", str(d / "train.txt"),
                 "--valid", str(d / "valid.txt"),
                 "--test", str(d / "test.txt"),
                 "--split", "valid"]) == 0
    row = table_rows(capsys.readouterr().out)[1][0]
    assert row["split"] == "valid"
    assert int(row["count"]) == 4  # two validation triples, both sides


def test_evaluate_needs_a_data_source(workspace, capsys):
    d = workspace["data"]
    assert main(["evaluate", str(workspace["checkpoint"]),
                 "--train", str(d / "train.txt")]) == 2
    assert "pass --data DIR" in capsys.readouterr().err


def test_evaluate_writes_csv_and_json(workspace, tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "full.json"
    assert main(["evaluate", str(workspace["checkpoint"]),
                 "--data", str(workspace["data"]), "--rank", "all",
                 "--csv", str(csv_path), "--output", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert f"full report written to {json_path}" in out
    assert f"rows written to {csv_path}" in out
    with open(csv_path, newline="") as f:
        got = list(csv.reader(f))
    assert got[0] == EVAL_HEADER
    assert len(got) == 4  # header + three definitions
    doc = json.loads(json_path.read_text())
    assert doc["split"] == "test" and doc["filtered"] is True
    assert doc["metrics"]["both"]["realistic"]["count"] == 4


@pytest.mark.parametrize("split, name", [("valid", "validation"), ("test", "test")])
def test_evaluate_empty_split_exits_3(workspace, tmp_path, capsys, split, name):
    # ranking no triples used to exit 0 and write NaN metrics into --output
    data = write_dataset(tmp_path / "data", **{split: []})
    out = tmp_path / "full.json"
    assert main(["evaluate", str(workspace["checkpoint"]), "--data", str(data),
                 "--split", split, "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"data error: {data / split}.txt: the {name} split has no triples\n", err
    assert not out.exists()


def test_evaluate_batch_size_does_not_change_results(workspace, capsys):
    args = ["evaluate", str(workspace["checkpoint"]),
            "--data", str(workspace["data"]), "--rank", "all"]
    assert main(args + ["--batch-size", "1"]) == 0
    one = capsys.readouterr().out
    assert main(args + ["--batch-size", "64"]) == 0
    assert one == capsys.readouterr().out


def test_evaluate_non_positive_batch_size_exits_2(workspace, capsys):
    for size in ("0", "-3"):
        assert main(["evaluate", str(workspace["checkpoint"]), "--data",
                     str(workspace["data"]), "--batch-size", size]) == 2
        assert f"--batch-size must be >= 1, got {size}" in capsys.readouterr().err


def test_evaluate_missing_checkpoint_exits_3(workspace, tmp_path, capsys):
    assert main(["evaluate", str(tmp_path / "no.kge"),
                 "--data", str(workspace["data"])]) == 3
    assert "cannot load checkpoint" in capsys.readouterr().err


def test_evaluate_foreign_file_exits_3(workspace, tmp_path, capsys):
    fake = tmp_path / "fake.kge"
    fake.write_bytes(b"PK\x03\x04 definitely not a checkpoint")
    assert main(["evaluate", str(fake), "--data", str(workspace["data"])]) == 3
    assert "cannot load checkpoint" in capsys.readouterr().err


def test_evaluate_malformed_checkpoint_exits_3(workspace, tmp_path, capsys):
    whole = workspace["checkpoint"].read_bytes()
    bad = tmp_path / "bad.kge"
    (hlen,) = struct.unpack_from("<I", whole, 4)
    header = json.loads(whole[8 : 8 + hlen])
    header["spec"]["colour"] = "blue"
    blob = json.dumps(header).encode("utf-8")
    cases = [whole[:size] for size in range(len(whole))]
    cases += [whole + b"\0", whole[:4] + struct.pack("<I", len(blob)) + blob + whole[8 + hlen :]]
    for data in cases:
        bad.write_bytes(data)
        assert main(["evaluate", str(bad), "--data", str(workspace["data"])]) == 3
        assert "cannot load checkpoint" in capsys.readouterr().err


def test_evaluate_entity_mismatch_exits_3(workspace, tmp_path, capsys):
    other = write_dataset(tmp_path / "other",
                          train=TRAIN + ["f\tr0\ta"], valid=VALID, test=TEST)
    assert main(["evaluate", str(workspace["checkpoint"]),
                 "--data", str(other)]) == 3
    err = capsys.readouterr().err
    assert "vocabulary mismatch" in err and "entities" in err


def test_evaluate_relation_mismatch_exits_3(workspace, tmp_path, capsys):
    other = write_dataset(tmp_path / "other",
                          train=TRAIN + ["a\tr2\tb"], valid=VALID, test=TEST)
    assert main(["evaluate", str(workspace["checkpoint"]),
                 "--data", str(other)]) == 3
    err = capsys.readouterr().err
    assert "vocabulary mismatch" in err and "relations" in err


def test_evaluate_inverse_checkpoint_augments_plain_data(tmp_path, capsys):
    data = write_dataset(tmp_path / "data")
    doc = run_config(data, tmp_path / "out", inverse_relations=True)
    p = tmp_path / "run.json"
    p.write_text(json.dumps(doc))
    assert main(["train", str(p)]) == 0
    capsys.readouterr()
    assert main(["evaluate", str(tmp_path / "out" / "checkpoint.kge"),
                 "--data", str(data)]) == 0
    _, rows = table_rows(capsys.readouterr().out)
    assert len(rows) == 1 and int(rows[0]["count"]) == 4


def test_evaluate_warns_on_relabeled_vocabulary(workspace, tmp_path, caplog):
    rename = lambda line: line.replace("a\t", "z\t").replace("\ta", "\tz")
    other = write_dataset(tmp_path / "renamed",
                          train=[rename(l) for l in TRAIN],
                          valid=[rename(l) for l in VALID],
                          test=[rename(l) for l in TEST])
    with caplog.at_level(logging.WARNING, logger="kgembed.cli"):
        assert main(["evaluate", str(workspace["checkpoint"]),
                     "--data", str(other)]) == 0
    assert "vocabulary digest differs" in caplog.text


# ---------------------------------------------------------------------------
# hpo
# ---------------------------------------------------------------------------

def study_doc(data_dir, out_dir, **overrides):
    doc = {
        "dataset": {"train": str(data_dir / "train.txt"),
                    "valid": str(data_dir / "valid.txt"),
                    "test": str(data_dir / "test.txt")},
        "output_dir": str(out_dir),
        "space": {"models": ["distmult"], "embedding_dims": [4],
                  "batch_sizes": [4], "optimizers": ["adam"],
                  "negatives_range": [1, 4], "num_epochs": 2},
        "budget": {"max_trials": 3},
        "seed": 5,
        "eval_frequency": 1,
        "patience": 2,
    }
    doc.update(overrides)
    return doc


def test_hpo_end_to_end(workspace, tmp_path, capsys):
    out = tmp_path / "study"
    doc = study_doc(workspace["data"], out)
    doc["space"]["inverse_choices"] = [True]
    p = tmp_path / "study.json"
    p.write_text(json.dumps(doc))
    assert main(["hpo", str(p)]) == 0
    stdout = capsys.readouterr().out
    assert "3 trials" in stdout
    assert "best trial" in stdout
    assert "artifacts in" in stdout

    assert len((out / "trials.jsonl").read_text().splitlines()) == 3
    assert json.loads((out / "manifest.json").read_text())["master_seed"] == 5
    best = json.loads((out / "best.json").read_text())
    assert best["best_trial"]["status"] == "completed"
    assert "filtered" in best["test_metrics"]
    with open(out / "summary.csv", newline="") as f:
        got = list(csv.reader(f))
    assert got[0] == HPO_HEADER
    assert len(got) == 2  # single-model space: one summary row

    # the exported checkpoint, trained with inverse relations, ranks to the
    # study's own filtered test metrics through the same CLI
    report = tmp_path / "evaluated.json"
    assert main(["evaluate", best["checkpoint"], "--data", str(workspace["data"]),
                 "--output", str(report)]) == 0
    assert json.loads(report.read_text())["metrics"] == best["test_metrics"]["filtered"]


def test_hpo_study_validation_exits_2(workspace, tmp_path, capsys):
    doc = study_doc(workspace["data"], tmp_path / "o", metric="auc",
                    surprise=1)
    p = tmp_path / "study.json"
    p.write_text(json.dumps(doc))
    assert main(["hpo", str(p)]) == 2
    err = capsys.readouterr().err
    assert "study.metric" in err and "study.surprise: unknown field" in err


def test_hpo_bad_space_value_exits_2(workspace, tmp_path, capsys):
    doc = study_doc(workspace["data"], tmp_path / "o")
    doc["space"]["models"] = ["distmult", "wishful"]
    p = tmp_path / "study.json"
    p.write_text(json.dumps(doc))
    assert main(["hpo", str(p)]) == 2
    assert "study.space" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["two", "0", "-1", "1.5", ""])
def test_hpo_bad_threads_env_exits_2(workspace, tmp_path, capsys, monkeypatch, value):
    out = tmp_path / "o"
    p = tmp_path / "study.json"
    p.write_text(json.dumps(study_doc(workspace["data"], out)))
    monkeypatch.setenv("KGEMBED_THREADS", value)
    assert main(["hpo", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"config error: KGEMBED_THREADS: expected a positive integer, got {value!r}" in err
    assert not out.exists()  # rejected before any output is written


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(space=5), "study.space: expected an object"),
    (lambda d: d.update(space=None), "study.space: expected an object"),
    (lambda d: d["space"].update(models="distmult"),
     "study.space.models: expected a list of str"),
    (lambda d: d["space"].update(inverse_choices=[0, 1]),
     "study.space.inverse_choices: expected a list of bool"),
    (lambda d: d["budget"].update(max_trials="3"),
     "study.budget.max_trials: expected int"),
    (lambda d: d["budget"].update(max_seconds=float("nan")),
     "study.budget: max_seconds must be positive when set"),
    (lambda d: d["space"].update(wishful=[1]), "study.space.wishful: unknown field"),
    (lambda d: d["budget"].update(max_hours=1), "study.budget.max_hours: unknown field"),
    (lambda d: d["space"].update(embedding_dims=[0]),
     "study.space: models value 'distmult' with embedding_dims value 0: "
     "d_e must lie in [1, 2147483647]"),
    (lambda d: d["space"].update(embedding_dims=[4294967296]),
     "study.space: models value 'distmult' with embedding_dims value 4294967296: "
     "d_e must lie in [1, 2147483647]"),
    (lambda d: d["space"].update(models=["conve"]),
     "study.space: models value 'conve' with embedding_dims value 4: "
     "no even reshape rows for d_e=4 with kernel (3, 3)"),
    (lambda d: d["space"].update(batch_sizes=[4, -1]),
     "study.space: batch_sizes value -1: must be >= 1"),
    (lambda d: d["space"].update(num_epochs=2.5), "study.space.num_epochs: expected int"),
    (lambda d: d["space"].update(learning_rate_range=[0.1]),
     "study.space: learning_rate_range needs two values"),
    (lambda d: d.update(retrain="full"), "study.retrain: unknown field"),
    (lambda d: d.pop("dataset"), "study.dataset: missing section"),
    (lambda d: d.update(seed=-1), "study.seed: must be >= 0"),
], ids=["space-int", "space-null", "space-str-list", "space-bool-list",
        "budget-str", "budget-nan", "space-unknown", "budget-unknown",
        "dims-zero", "dims-too-wide", "conve-too-narrow", "batch-negative", "epochs-float", "range-one-value",
        "retrain", "no-dataset", "seed-negative"])
def test_hpo_malformed_study_exits_2(workspace, tmp_path, capsys, edit, message):
    out = tmp_path / "o"
    doc = study_doc(workspace["data"], out)
    edit(doc)
    p = tmp_path / "study.json"
    p.write_text(json.dumps(doc))
    assert main(["hpo", str(p)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()  # rejected before any output is written


def test_hpo_all_trials_failing_exits_4(workspace, tmp_path, capsys):
    doc = study_doc(workspace["data"], tmp_path / "o")
    doc["budget"]["max_seconds"] = 1e-9  # spent before the first trial starts
    p = tmp_path / "study.json"
    p.write_text(json.dumps(doc))
    assert main(["hpo", str(p)]) == 4
    assert "runtime error: no trial completed" in capsys.readouterr().err


RECORD = {"trial_id": 0, "config": {}, "seed": 1, "status": "failed", "metric": None,
          "best_epoch": None, "epochs_run": 0, "wall_seconds": 0.1, "error": "boom"}


@pytest.mark.parametrize("name, text, message", [
    ("manifest.json", '{"space": {', "manifest.json: not a study manifest"),
    ("trials.jsonl", json.dumps(RECORD) + '\n{"trial_id": 1, "conf',
     "trials.jsonl, line 2: not a trial record"),
    ("trials.jsonl", json.dumps(dict(RECORD, surprise=1)) + "\n",
     "trials.jsonl, line 1: not a trial record"),
    ("trials.jsonl", json.dumps(dict(RECORD, status="completed", metric="high")) + "\n",
     "trials.jsonl, line 1: not a trial record: metric: expected int or float or null"),
    ("trials.jsonl", json.dumps(RECORD) + "\n" + json.dumps(dict(RECORD, trial_id="zero")),
     "trials.jsonl, line 2: not a trial record: trial_id: expected int"),
    ("trials.jsonl", json.dumps(dict(RECORD, status="completed", metric=0.99)) + "\n",
     "trials.jsonl: trial 0: the config or seed is not the one this study draws for it"),
], ids=["manifest-malformed", "trials-cut-line", "trials-unknown-key", "trials-metric-str",
        "trials-id-str", "trials-config-empty"])
def test_hpo_damaged_state_file_exits_3(workspace, tmp_path, capsys, name, text, message):
    # resuming from a damaged study directory is a data error, not a traceback
    out = tmp_path / "o"
    out.mkdir()
    (out / name).write_text(text)
    p = tmp_path / "study.json"
    p.write_text(json.dumps(study_doc(workspace["data"], out)))
    assert main(["hpo", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and message in err, err


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def two_results(workspace, tmp_path_factory):
    root = tmp_path_factory.mktemp("results")
    doc = run_config(workspace["data"], root / "transe_out", seed=3)
    doc["model"] = {"kind": "transe", "d_e": 4}
    p = root / "transe.json"
    p.write_text(json.dumps(doc))
    assert main(["train", str(p)]) == 0
    return [str(workspace["out"] / "result.json"),
            str(root / "transe_out" / "result.json")]


def test_report_end_to_end(two_results, tmp_path, capsys):
    out = tmp_path / "report"
    assert main(["report", *two_results, "--output-dir", str(out),
                 "--svg"]) == 0
    stdout = capsys.readouterr().out
    header, rows = table_rows(stdout)
    assert header == REPORT_HEADER
    assert [r["model"] for r in rows] == ["distmult", "transe"]
    assert "csv written to" in stdout and "markdown written to" in stdout
    with open(out / "report.csv", newline="") as f:
        assert next(csv.reader(f)) == REPORT_HEADER
    assert (out / "report.md").exists()
    assert (out / "report.svg").read_text().startswith("<svg ")


def test_report_single_format(two_results, tmp_path, capsys):
    out = tmp_path / "only_csv"
    assert main(["report", two_results[0], "--output-dir", str(out),
                 "--format", "csv"]) == 0
    stdout = capsys.readouterr().out
    assert "csv written to" in stdout
    assert "markdown written to" not in stdout
    assert not (out / "report.md").exists()


def test_report_missing_file_exits_3(tmp_path, capsys):
    assert main(["report", str(tmp_path / "absent.json")]) == 3
    assert "no such result file" in capsys.readouterr().err


def test_report_non_result_json_exits_3(tmp_path, capsys):
    p = tmp_path / "other.json"
    p.write_text("{}")
    assert main(["report", str(p)]) == 3
    assert "not a result document" in capsys.readouterr().err


ROW_SECTIONS = {
    "config": {"model": {"kind": 5}, "training": {"approach": "slcwa", "loss": {"kind": "mrl"}},
               "inverse_relations": False, "seed": 7, "dataset": {"train": "d/train.txt"}},
    "metrics": {"filtered": {"both": {"realistic": {"hits_at_10": 0.5, "mrr": 0.3, "mr": 4.0,
                                                    "amr": 0.8}}}},
    "training": {"best_epoch": 1, "epochs_run": 2},
    "timing": {"train_seconds": 0.1},
}


@pytest.mark.parametrize("sections, message", [
    ({"config": {}, "metrics": {}, "training": {}, "timing": {}}, "KeyError: 'filtered'"),
    ({"config": [], "metrics": [], "training": [], "timing": []}, "TypeError: "),
    (ROW_SECTIONS, "model: expected str"),
], ids=["empty-objects", "lists", "model-kind-int"])
def test_report_malformed_sections_exit_3(tmp_path, capsys, sections, message):
    # the four sections are there, but their contents build no report row,
    # or a row field has the wrong JSON type
    p = tmp_path / "result.json"
    p.write_text(json.dumps(sections))
    assert main(["report", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {p}: not a result document: malformed sections: ")
    assert message in err, err
