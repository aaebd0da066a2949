"""Config documents, run orchestration, and the artifacts a run leaves behind."""

import copy
import hashlib
import json
import os
from datetime import datetime, timedelta

import numpy as np
import pytest

from kgembed import training
from kgembed.autodiff import keep_heap
from kgembed.datasets import SPLITS, FilterIndex, TripleStore, add_inverse_relations
from kgembed.hpo import sample_config, trial_document
from kgembed.losses import LossSpec
from kgembed.models import load_checkpoint
from kgembed.training import OptimizerSpec, TrainingConfig
from kgembed.pipeline import (
    ConfigError,
    DataError,
    build_model,
    build_training_config,
    execute_run,
    load_config,
    load_store,
    load_study,
    normalize_config,
    normalize_study,
    vocab_sha256,
)

TRAIN = [
    "a\tr0\tb", "a\tr0\tc", "b\tr0\tc", "c\tr1\ta", "d\tr1\ta",
    "b\tr1\td", "d\tr0\te", "e\tr1\tb", "a\tr1\te",
]
VALID = ["b\tr0\td", "c\tr1\te"]
TEST = ["e\tr0\ta", "d\tr0\ta"]


@pytest.fixture
def data_dir(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    for name, rows in (("train", TRAIN), ("valid", VALID), ("test", TEST)):
        (d / f"{name}.txt").write_text("\n".join(rows) + "\n")
    return d


def minimal_doc(data_dir, out_dir):
    return {
        "dataset": {
            "train": str(data_dir / "train.txt"),
            "valid": str(data_dir / "valid.txt"),
            "test": str(data_dir / "test.txt"),
        },
        "model": {"kind": "distmult", "d_e": 4},
        "training": {
            "approach": "slcwa",
            "loss": {"kind": "mrl"},
        },
        "output_dir": str(out_dir),
    }


def small_run_doc(data_dir, out_dir):
    doc = minimal_doc(data_dir, out_dir)
    doc["training"].update(batch_size=4, num_epochs=3, num_negatives=2,
                           optimizer={"kind": "adam", "learning_rate": 0.05})
    doc["early_stopping"] = {"frequency": 1, "patience": 2}
    doc["seed"] = 7
    return doc


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_fills_documented_defaults(data_dir, tmp_path):
    cfg = normalize_config(minimal_doc(data_dir, tmp_path / "out"))
    t = cfg["training"]
    assert t["batch_size"] == 256
    assert t["num_epochs"] == 1000
    assert t["num_negatives"] == 32
    assert t["sampler"] == "uniform"
    assert t["filtered_sampling"] is False
    assert t["label_smoothing"] == 0.0
    assert t["optimizer"] == {"kind": "adam", "learning_rate": 0.01}
    assert t["loss"] == {"kind": "mrl", "margin": 1.0,
                         "adversarial_temperature": 1.0}
    assert cfg["early_stopping"] == {"enabled": True, "frequency": 50,
                                     "patience": 100, "metric": "hits_at_10"}
    assert cfg["inverse_relations"] is False
    assert cfg["seed"] == 0


def test_normalize_is_idempotent(data_dir, tmp_path):
    cfg = normalize_config(minimal_doc(data_dir, tmp_path / "out"))
    assert normalize_config(json.loads(json.dumps(cfg))) == cfg


def test_normalize_collects_every_problem(data_dir, tmp_path):
    doc = minimal_doc(data_dir, tmp_path / "out")
    doc["dataset"]["train"] = str(data_dir / "absent.txt")
    doc["model"]["kind"] = "holography"
    doc["training"]["loss"]["kind"] = "quantile"
    doc["training"]["batch_size"] = 0
    doc["training"]["num_negatives"] = 10**30
    with pytest.raises(ConfigError) as e:
        normalize_config(doc)
    text = "\n".join(e.value.problems)
    assert len(e.value.problems) == 5
    assert "dataset.train: no such file" in text
    assert "model.kind: unknown interaction kind 'holography'" in text
    assert "training.loss.kind: unknown loss kind 'quantile'" in text
    assert "training.batch_size" in text
    assert "training.num_negatives: must lie in [1, 2147483647]" in text


def test_normalize_rejects_unknown_fields(data_dir, tmp_path):
    doc = minimal_doc(data_dir, tmp_path / "out")
    doc["regularizer"] = "l2"
    doc["training"]["momentum"] = 0.9
    with pytest.raises(ConfigError) as e:
        normalize_config(doc)
    assert "regularizer: unknown field" in str(e.value)
    assert "training.momentum: unknown field" in str(e.value)


def test_normalize_missing_sections(tmp_path):
    with pytest.raises(ConfigError) as e:
        normalize_config({"output_dir": str(tmp_path)})
    text = str(e.value)
    assert "dataset: missing section" in text
    assert "model: missing section" in text
    assert "training: missing section" in text
    with pytest.raises(ConfigError, match="expected a JSON object"):
        normalize_config([1, 2])


def test_normalize_approach_loss_compatibility(data_dir, tmp_path):
    doc = minimal_doc(data_dir, tmp_path / "out")
    doc["training"]["approach"] = "lcwa"
    with pytest.raises(ConfigError, match="cannot be trained with the lcwa"):
        normalize_config(doc)
    doc = minimal_doc(data_dir, tmp_path / "out")
    doc["training"]["loss"]["kind"] = "cel"
    with pytest.raises(ConfigError, match="requires the lcwa approach"):
        normalize_config(doc)


def test_normalize_patience_frequency_rule(data_dir, tmp_path):
    doc = minimal_doc(data_dir, tmp_path / "out")
    doc["early_stopping"] = {"frequency": 10, "patience": 5}
    with pytest.raises(ConfigError, match="patience: must be >= frequency"):
        normalize_config(doc)


def test_normalize_type_checks_reject_bools(data_dir, tmp_path):
    # True is an int subclass; config fields must not accept it silently
    doc = minimal_doc(data_dir, tmp_path / "out")
    doc["seed"] = True
    with pytest.raises(ConfigError, match="seed: expected int"):
        normalize_config(doc)


# one out-of-range value per checked setting: (document path, value, the
# dataclass call that takes it); every document sets early_stopping.frequency
# to 20, which the patience rule's case needs
SETTING_CASES = [
    ("training.approach", "online", lambda: TrainingConfig(approach="online")),
    ("training.batch_size", 0, lambda: TrainingConfig(batch_size=0)),
    ("training.num_epochs", 0, lambda: TrainingConfig(num_epochs=0)),
    ("training.num_negatives", 0, lambda: TrainingConfig(num_negatives=0)),
    ("training.sampler", "zipf", lambda: TrainingConfig(sampler="zipf")),
    ("training.label_smoothing", 1.0, lambda: TrainingConfig(label_smoothing=1.0)),
    ("training.loss.kind", "quantile", lambda: LossSpec("quantile")),
    ("training.loss.adversarial_temperature", 0.0,
     lambda: LossSpec("nssal", adversarial_temperature=0.0)),
    ("training.optimizer.kind", "sgd", lambda: OptimizerSpec(kind="sgd")),
    ("training.optimizer.learning_rate", -0.1, lambda: OptimizerSpec(lr=-0.1)),
    ("early_stopping.frequency", 0, lambda: TrainingConfig(eval_frequency=0)),
    ("early_stopping.patience", 0, lambda: TrainingConfig(patience=0)),
    ("seed", -1, lambda: TrainingConfig(seed=-1)),
    # the two rules across fields
    ("training.loss.kind", "cel",
     lambda: TrainingConfig(approach="slcwa", loss=LossSpec("cel"))),
    ("early_stopping.patience", 10,
     lambda: TrainingConfig(eval_frequency=20, patience=10)),
]


@pytest.mark.parametrize("path, value, build", SETTING_CASES,
                         ids=[f"{c[0]}={c[1]}" for c in SETTING_CASES])
def test_dataclass_and_document_report_the_same_check(data_dir, tmp_path, path,
                                                      value, build):
    with pytest.raises(ValueError) as raised:
        build()
    message = str(raised.value).split(": ", 1)[1]
    doc = minimal_doc(data_dir, tmp_path / "out")
    doc["early_stopping"] = {"frequency": 20}
    *parents, key = path.split(".")
    holder = doc
    for p in parents:
        holder = holder.setdefault(p, {})
    holder[key] = value
    with pytest.raises(ConfigError) as e:
        normalize_config(doc)
    reported = path if parents else f"config.{path}"  # top-level fields
    assert f"{reported}: {message}" in e.value.problems


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "none.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))


def test_load_config_returns_raw_bytes(data_dir, tmp_path):
    doc = minimal_doc(data_dir, tmp_path / "out")
    path = tmp_path / "run.json"
    raw = ("  " + json.dumps(doc) + "\n\n").encode()  # odd spacing on purpose
    path.write_bytes(raw)
    cfg, got = load_config(str(path))
    assert got == raw
    assert cfg["model"]["kind"] == "distmult"


def test_load_store_wraps_parse_failures(data_dir):
    (data_dir / "train.txt").write_text("only_two\tfields\n")
    paths = {s: str(data_dir / f"{s}.txt") for s in ("train", "valid", "test")}
    with pytest.raises(DataError, match="expected 3 tab-separated fields"):
        load_store(paths)


def test_build_model_wraps_spec_errors(data_dir, tmp_path):
    doc = minimal_doc(data_dir, tmp_path / "out")
    doc["model"] = {"kind": "conve", "d_e": 64, "conv_height": 5}
    cfg = normalize_config(doc)
    store = load_store(cfg["dataset"])
    with pytest.raises(ConfigError, match="model: "):
        build_model(cfg, store)


def test_load_study_errors(tmp_path):
    with pytest.raises(ConfigError, match="study: cannot read"):
        load_study(str(tmp_path / "none.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="study: expected a JSON object"):
        load_study(str(bad))


def full_run_doc(data_dir, out_dir):
    """A run document that sets every field a config may set."""
    return {
        "dataset": minimal_doc(data_dir, out_dir)["dataset"],
        "model": {"kind": "conve", "d_e": 8, "d_r": 8, "k": 8, "tau": 4,
                  "kernel": [3, 3], "p": 2, "similarity": "kl", "c_min": 0.05,
                  "c_max": 5.0, "conv_height": 4},
        "training": {
            "approach": "lcwa",
            "loss": {"kind": "bcel", "margin": 2.0, "adversarial_temperature": 0.5},
            "optimizer": {"kind": "adadelta", "learning_rate": 0.5},
            "batch_size": 4, "num_epochs": 3, "num_negatives": 2,
            "sampler": "bernoulli", "filtered_sampling": True,
            "label_smoothing": 0.1,
        },
        "early_stopping": {"enabled": True, "frequency": 1, "patience": 2,
                           "metric": "mrr"},
        "inverse_relations": True,
        "seed": 3,
        "output_dir": str(out_dir),
    }


def full_study_doc(data_dir, out_dir):
    """A study document that sets every field a study may set."""
    return {
        "dataset": minimal_doc(data_dir, out_dir)["dataset"],
        "output_dir": str(out_dir),
        "space": {"models": ["distmult", "conve"], "approaches": ["slcwa", "lcwa"],
                  "embedding_dims": [8, 16], "optimizers": ["adam", "adadelta"],
                  "learning_rate_range": [0.01, 0.1], "batch_sizes": [4],
                  "inverse_choices": [False, True], "num_epochs": 2,
                  "slcwa_losses": ["mrl", "nssal"], "lcwa_losses": ["cel"],
                  "mrl_margins": [1, 2.5], "nssal_margins": [3.0],
                  "adversarial_temperatures": [0.5], "negatives_range": [1, 4],
                  "label_smoothing_range": [0.01, 0.1],
                  "samplers": ["uniform", "bernoulli"]},
        "budget": {"max_trials": 3, "max_seconds": 60, "trial_seconds": None},
        "seed": 5, "metric": "mrr", "eval_frequency": 1, "patience": 2,
        "workers": 1,
    }


FUZZ_VALUES = (None, True, "x", [1], {"a": 1}, float("nan"), 10**30)


def _fuzz_paths(value, prefix=()):
    """Every key and list position in a JSON document."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _fuzz_paths(child, prefix + (key,))


def fuzzed(doc, rng):
    """doc with one to three fields deleted or given a value of another type."""
    doc = copy.deepcopy(doc)
    for _ in range(int(rng.integers(1, 4))):
        paths = list(_fuzz_paths(doc))
        if not paths:
            break
        *parents, key = paths[int(rng.integers(len(paths)))]
        holder = doc
        for p in parents:
            holder = holder[p]
        pick = int(rng.integers(len(FUZZ_VALUES) + 1))
        if pick == len(FUZZ_VALUES):
            del holder[key]
        else:
            holder[key] = copy.deepcopy(FUZZ_VALUES[pick])
    return doc


def test_fuzzed_run_documents_normalize_or_raise_config_error(data_dir, tmp_path):
    base = full_run_doc(data_dir, tmp_path / "out")
    store = load_store(normalize_config(base)["dataset"])
    rng = np.random.default_rng(20)
    outcomes = {"normalized": 0, "rejected": 0, "built": 0}
    for _ in range(1000):
        try:
            cfg = normalize_config(fuzzed(base, rng))
        except ConfigError as e:
            assert e.problems
            outcomes["rejected"] += 1
            continue
        outcomes["normalized"] += 1
        try:
            build_model(cfg, add_inverse_relations(store) if cfg["inverse_relations"]
                        else store)
            build_training_config(cfg)
        except ConfigError as e:
            assert e.problems
            continue
        outcomes["built"] += 1
    assert min(outcomes.values()) > 50, outcomes


def test_fuzzed_study_documents_normalize_or_raise_config_error(data_dir, tmp_path):
    base = full_study_doc(data_dir, tmp_path / "out")
    store = load_store(normalize_study(base)["dataset"])
    rng = np.random.default_rng(21)
    outcomes = {"normalized": 0, "rejected": 0}
    for _ in range(1200):
        try:
            study = normalize_study(fuzzed(base, rng))
        except ConfigError as e:
            assert e.problems
            outcomes["rejected"] += 1
            continue
        outcomes["normalized"] += 1
        # every trial of an accepted study builds its model and training
        cfg = sample_config(study["space"], rng)
        stopping = {"enabled": True, "frequency": study["eval_frequency"],
                    "patience": study["patience"], "metric": study["metric"]}
        doc = trial_document(cfg, stopping, seed=0)
        build_model(doc, add_inverse_relations(store) if doc["inverse_relations"] else store)
        build_training_config(doc)
        if study["patience"] >= study["eval_frequency"]:
            # the run path clamps a trial's early stopping; unclamped, the
            # document is a run document when the patience rule holds
            normalize_config(dict(doc, dataset=base["dataset"], output_dir="out"))
    assert min(outcomes.values()) > 50, outcomes


# ---------------------------------------------------------------------------
# vocabulary digest
# ---------------------------------------------------------------------------

def test_vocab_sha256_matches_direct_hash():
    store = TripleStore.from_labeled_triples(
        [("a", "r", "b"), ("b", "r", "c")], [], [])
    blob = json.dumps([["a", "b", "c"], ["r"]]).encode()
    assert vocab_sha256(store) == hashlib.sha256(blob).hexdigest()


def test_vocab_sha256_sees_renames_and_augmentation():
    triples = [("a", "r", "b"), ("b", "s", "c")]
    one = TripleStore.from_labeled_triples(triples, [], [])
    renamed = TripleStore.from_labeled_triples(
        [("z", "r", "b"), ("b", "s", "c")], [], [])
    assert vocab_sha256(one) == vocab_sha256(one)
    assert vocab_sha256(one) != vocab_sha256(renamed)
    assert vocab_sha256(one) != vocab_sha256(add_inverse_relations(one))


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------

def test_execute_run_writes_all_artifacts(data_dir, tmp_path):
    out = tmp_path / "run"
    cfg = normalize_config(small_run_doc(data_dir, out))
    raw = b'{"echo": "exactly these bytes"}\n'
    result = execute_run(cfg, config_bytes=raw)

    assert (out / "config.json").read_bytes() == raw
    assert len((out / "trace.jsonl").read_text().splitlines()) == 3
    spec, params, extra = load_checkpoint(str(out / "checkpoint.kge"))
    assert spec.kind == "distmult"
    assert spec.num_entities == 5 and spec.num_relations == 2
    assert extra["vocab_sha256"] == vocab_sha256(load_store(cfg["dataset"]))
    assert extra["seed"] == 7

    on_disk = json.loads((out / "result.json").read_text())
    assert on_disk["metrics"] == result["metrics"]
    assert set(result["metrics"]) == {"filtered", "unfiltered"}
    for flavor in result["metrics"].values():
        assert set(flavor) == {"head", "tail", "both"}
        for side in flavor.values():
            assert set(side) == {"optimistic", "realistic", "pessimistic"}
    assert result["training"]["epochs_run"] <= 3
    assert result["dataset"] == {
        "entities": 5, "relations": 2, "inverse_augmented": False,
        "triples": {"train": 9, "valid": 2, "test": 2},
    }
    assert result["versions"]["numpy"] == np.__version__
    env = result["environment"]
    assert env["cpu_count"] == os.cpu_count()
    assert env["blas_threads"] == {
        v: os.environ.get(v)
        for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    assert env["allocator"] == keep_heap() and "libc" in env["allocator"]
    assert on_disk["environment"] == env
    for p in result["paths"].values():
        assert os.path.isabs(p) and os.path.exists(p)


def test_run_timestamps_are_utc_iso(data_dir, tmp_path):
    out = tmp_path / "run"
    result = execute_run(normalize_config(small_run_doc(data_dir, out)))
    on_disk = json.loads((out / "result.json").read_text())
    trace = (out / "trace.jsonl").read_text().splitlines()
    stamps = ([on_disk["timing"]["started"]]
              + [json.loads(line)["timestamp"] for line in trace]
              + [on_disk["timing"]["finished"]])
    assert on_disk["timing"] == result["timing"]
    parsed = [datetime.fromisoformat(s) for s in stamps]
    for when in parsed:
        assert when.utcoffset() == timedelta(0)
    assert parsed == sorted(parsed)


def test_execute_run_is_deterministic(data_dir, tmp_path):
    doc = small_run_doc(data_dir, tmp_path / "a")
    first = execute_run(normalize_config(doc))
    doc["output_dir"] = str(tmp_path / "b")
    second = execute_run(normalize_config(doc))
    assert first["metrics"] == second["metrics"]
    assert first["training"]["final_loss"] == second["training"]["final_loss"]


def test_execute_run_inverse_relations(data_dir, tmp_path):
    doc = small_run_doc(data_dir, tmp_path / "inv")
    doc["inverse_relations"] = True
    result = execute_run(normalize_config(doc))
    assert result["dataset"]["inverse_augmented"] is True
    assert result["dataset"]["relations"] == 2  # base relations, not doubled
    spec, _, _ = load_checkpoint(result["paths"]["checkpoint"])
    assert spec.num_relations == 4


@pytest.mark.parametrize("approach, stopping", [
    ("slcwa", True), ("slcwa", False), ("lcwa", True)])
def test_execute_run_builds_one_all_splits_index(data_dir, tmp_path, monkeypatch,
                                                 approach, stopping):
    # validation and the filtered test ranking share one index over all
    # splits, built after the first epoch; LCWA adds its training-split one
    events = []
    init, epoch = FilterIndex.__init__, training.train_epoch

    def counting_init(self, store, splits=SPLITS):
        events.append(tuple(splits))
        init(self, store, splits)

    def logged_epoch(*args, **kwargs):
        events.append("epoch")
        return epoch(*args, **kwargs)

    monkeypatch.setattr(FilterIndex, "__init__", counting_init)
    monkeypatch.setattr(training, "train_epoch", logged_epoch)
    doc = small_run_doc(data_dir, tmp_path / "run")
    doc["early_stopping"]["enabled"] = stopping
    if approach == "lcwa":
        doc["training"].update(approach="lcwa", loss={"kind": "cel"})
    execute_run(normalize_config(doc))
    builds = [e for e in events if e != "epoch"]
    assert builds == ([("train",)] if approach == "lcwa" else []) + [SPLITS]
    assert events.index(SPLITS) > events.index("epoch")


def test_execute_run_env_output_override(data_dir, tmp_path, monkeypatch):
    target = tmp_path / "env_dir"
    monkeypatch.setenv("KGEMBED_OUTPUT_DIR", str(target))
    doc = small_run_doc(data_dir, tmp_path / "ignored")
    result = execute_run(normalize_config(doc))
    assert (target / "result.json").exists()
    assert not (tmp_path / "ignored").exists()
    assert result["paths"]["checkpoint"].startswith(str(target))


def test_execute_run_explicit_dir_beats_env(data_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("KGEMBED_OUTPUT_DIR", str(tmp_path / "env_dir"))
    explicit = tmp_path / "explicit"
    execute_run(normalize_config(small_run_doc(data_dir, tmp_path / "cfg")),
                output_dir=str(explicit))
    assert (explicit / "result.json").exists()
    assert not (tmp_path / "env_dir").exists()
