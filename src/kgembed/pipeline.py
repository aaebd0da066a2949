"""Run orchestration: config documents in, artifacts on disk out.

A run is described by one JSON document. normalize_config fills defaults and
collects every problem it can find (field paths included) before raising, so
a bad config is diagnosed in one pass. execute_run then loads the data,
trains with early stopping, evaluates the test split filtered and unfiltered
under all three rank definitions, and writes four artifacts into the output
directory:

    config.json       byte-for-byte copy of the validated input document
    trace.jsonl       one record per training epoch
    checkpoint.kge    model spec + parameters
    result.json       config echo, dataset stats, metrics, paths, timing

Environment overrides are deliberately limited to KGEMBED_OUTPUT_DIR and
KGEMBED_THREADS; everything else lives in the document.
"""

import hashlib
import json
import logging
import os
import platform
import time

import numpy as np

from .datasets import TripleStore, add_inverse_relations
from .evaluation import compute_ranks, make_validation_callback
from .losses import LossSpec, SLCWA_KINDS, LCWA_KINDS, KINDS as LOSS_KINDS
from .models import (KINDS as MODEL_KINDS, InteractionSpec, build_interaction,
                     init_parameters, save_checkpoint)
from .sampling import derive_seed
from .training import OptimizerSpec, TrainingConfig, train, utc_timestamp

log = logging.getLogger(__name__)

try:
    from importlib.metadata import version as _dist_version
    VERSION = _dist_version("kgembed")
except Exception:  # not installed, e.g. running from a checkout
    VERSION = "0.1.0"


class ConfigError(ValueError):
    """One or more problems in a run configuration, with field paths."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class DataError(ValueError):
    """Dataset files missing or malformed."""


# model fields a config may set; vocabulary sizes always come from the data
_MODEL_FIELDS = ("d_e", "d_r", "k", "tau", "kernel", "p", "similarity",
                 "c_min", "c_max", "conv_height")

_TRAINING_DEFAULTS = {
    "batch_size": 256,
    "num_epochs": 1000,
    "num_negatives": 32,
    "sampler": "uniform",
    "filtered_sampling": False,
    "label_smoothing": 0.0,
}

_STOPPING_DEFAULTS = {
    "enabled": True,
    "frequency": 50,
    "patience": 100,
    "metric": "hits_at_10",
}


def _section(doc, name, problems, required=True):
    sec = doc.get(name)
    if sec is None:
        if required:
            problems.append(f"{name}: missing section")
        return {}
    if not isinstance(sec, dict):
        problems.append(f"{name}: expected an object")
        return {}
    return dict(sec)


def _take(sec, path, key, types, default, problems, check=None):
    """Pop sec[key], type-check it, and report problems under path.key."""
    if key not in sec:
        if default is ...:
            problems.append(f"{path}.{key}: required")
            return None
        return default
    value = sec.pop(key)
    if types is bool:
        ok = isinstance(value, bool)
    else:
        ok = isinstance(value, types) and not isinstance(value, bool)
    if not ok:
        problems.append(f"{path}.{key}: expected {getattr(types, '__name__', types)}")
        return default if default is not ... else None
    if check:
        message = check(value)
        if message:
            problems.append(f"{path}.{key}: {message}")
    return value


def _leftovers(sec, path, problems):
    for key in sec:
        problems.append(f"{path}.{key}: unknown field")


def normalize_config(doc):
    """Validate a run document and return it with all defaults filled.

    Raises ConfigError carrying every problem found. The result round-trips:
    normalize_config(json.loads(json.dumps(cfg))) == cfg.
    """
    if not isinstance(doc, dict):
        raise ConfigError(["config: expected a JSON object"])
    doc = dict(doc)
    problems = []
    out = {}

    dataset = _section(doc, "dataset", problems)
    ds = {}
    for split in ("train", "valid", "test"):
        path = _take(dataset, "dataset", split, str, ..., problems)
        if path is not None and not os.path.isfile(path):
            problems.append(f"dataset.{split}: no such file: {path}")
        ds[split] = path
    _leftovers(dataset, "dataset", problems)
    out["dataset"] = ds

    model = _section(doc, "model", problems)
    kind = _take(model, "model", "kind", str, ..., problems,
                 check=lambda v: None if v in MODEL_KINDS
                 else f"unknown interaction kind {v!r}")
    m = {"kind": kind}
    for key in _MODEL_FIELDS:
        if key in model:
            if key == "kernel":
                v = model.pop("kernel")
                if (not isinstance(v, (list, tuple)) or len(v) != 2
                        or not all(isinstance(x, int) for x in v)):
                    problems.append("model.kernel: expected a pair of integers")
                else:
                    m["kernel"] = list(v)
            elif key == "similarity":
                m[key] = _take(model, "model", key, str, ..., problems)
            elif key in ("c_min", "c_max"):
                m[key] = _take(model, "model", key, (int, float), ..., problems)
            else:
                m[key] = _take(model, "model", key, int, ..., problems)
    _leftovers(model, "model", problems)
    out["model"] = m

    training = _section(doc, "training", problems)
    t = {}
    t["approach"] = _take(training, "training", "approach", str, ..., problems,
                          check=lambda v: None if v in ("slcwa", "lcwa")
                          else "must be 'slcwa' or 'lcwa'")
    loss_sec = _section(training, "loss", problems) if isinstance(
        training.get("loss"), dict) else None
    if loss_sec is None:
        problems.append("training.loss: expected an object with a 'kind'")
        t["loss"] = {"kind": None, "margin": 1.0, "adversarial_temperature": 1.0}
    else:
        training.pop("loss")
        t["loss"] = {
            "kind": _take(loss_sec, "training.loss", "kind", str, ..., problems,
                          check=lambda v: None if v in LOSS_KINDS
                          else f"unknown loss kind {v!r}"),
            "margin": _take(loss_sec, "training.loss", "margin", (int, float),
                            1.0, problems),
            "adversarial_temperature": _take(
                loss_sec, "training.loss", "adversarial_temperature",
                (int, float), 1.0, problems,
                check=lambda v: None if v > 0 else "must be positive"),
        }
        _leftovers(loss_sec, "training.loss", problems)
    opt_sec = training.pop("optimizer", None)
    if not isinstance(opt_sec, dict):
        if opt_sec is not None:
            problems.append("training.optimizer: expected an object")
        opt_sec = {}
    else:
        opt_sec = dict(opt_sec)
    t["optimizer"] = {
        "kind": _take(opt_sec, "training.optimizer", "kind", str, "adam", problems,
                      check=lambda v: None if v in ("adam", "adadelta")
                      else "must be 'adam' or 'adadelta'"),
        "learning_rate": _take(opt_sec, "training.optimizer", "learning_rate",
                               (int, float), 0.01, problems,
                               check=lambda v: None if v > 0 else "must be positive"),
    }
    _leftovers(opt_sec, "training.optimizer", problems)
    t["batch_size"] = _take(training, "training", "batch_size", int,
                            _TRAINING_DEFAULTS["batch_size"], problems,
                            check=lambda v: None if v >= 1 else "must be >= 1")
    t["num_epochs"] = _take(training, "training", "num_epochs", int,
                            _TRAINING_DEFAULTS["num_epochs"], problems,
                            check=lambda v: None if v >= 1 else "must be >= 1")
    t["num_negatives"] = _take(training, "training", "num_negatives", int,
                               _TRAINING_DEFAULTS["num_negatives"], problems,
                               check=lambda v: None if v >= 1 else "must be >= 1")
    t["sampler"] = _take(training, "training", "sampler", str,
                         _TRAINING_DEFAULTS["sampler"], problems,
                         check=lambda v: None if v in ("uniform", "bernoulli")
                         else "must be 'uniform' or 'bernoulli'")
    t["filtered_sampling"] = _take(training, "training", "filtered_sampling",
                                   bool, _TRAINING_DEFAULTS["filtered_sampling"],
                                   problems)
    t["label_smoothing"] = _take(training, "training", "label_smoothing",
                                 (int, float),
                                 _TRAINING_DEFAULTS["label_smoothing"], problems,
                                 check=lambda v: None if 0 <= v < 1
                                 else "must lie in [0, 1)")
    _leftovers(training, "training", problems)
    if t["approach"] == "lcwa" and t["loss"]["kind"] in SLCWA_KINDS and \
            t["loss"]["kind"] not in LCWA_KINDS:
        problems.append(
            f"training.loss.kind: {t['loss']['kind']!r} needs sampled negative "
            "pairs and cannot be trained with the lcwa approach")
    elif t["approach"] == "slcwa" and t["loss"]["kind"] == "cel":
        problems.append(
            "training.loss.kind: 'cel' normalizes over all entities and "
            "requires the lcwa approach")
    out["training"] = t

    stopping = _section(doc, "early_stopping", problems, required=False)
    s = {
        "enabled": _take(stopping, "early_stopping", "enabled", bool,
                         _STOPPING_DEFAULTS["enabled"], problems),
        "frequency": _take(stopping, "early_stopping", "frequency", int,
                           _STOPPING_DEFAULTS["frequency"], problems,
                           check=lambda v: None if v >= 1 else "must be >= 1"),
        "patience": _take(stopping, "early_stopping", "patience", int,
                          _STOPPING_DEFAULTS["patience"], problems,
                          check=lambda v: None if v >= 1 else "must be >= 1"),
        "metric": _take(stopping, "early_stopping", "metric", str,
                        _STOPPING_DEFAULTS["metric"], problems,
                        check=lambda v: None if v in ("hits_at_10", "mrr")
                        else "must be 'hits_at_10' or 'mrr'"),
    }
    _leftovers(stopping, "early_stopping", problems)
    if s["patience"] < s["frequency"]:
        problems.append("early_stopping.patience: must be >= frequency")
    out["early_stopping"] = s

    out["inverse_relations"] = _take(doc, "config", "inverse_relations", bool,
                                     False, problems)
    out["seed"] = _take(doc, "config", "seed", int, 0, problems,
                        check=lambda v: None if v >= 0 else "must be >= 0")
    out["output_dir"] = _take(doc, "config", "output_dir", str, ..., problems,
                              check=lambda v: None if v else "must be non-empty")
    for key in ("dataset", "model", "training", "early_stopping"):
        doc.pop(key, None)
    _leftovers(doc, "config", problems)

    if problems:
        raise ConfigError(problems)
    return out


def load_config(path):
    """Read and normalize a config file; returns (normalized, raw bytes)."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise ConfigError([f"config: cannot read {path}: {e.strerror}"])
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError([f"config: {path} is not valid JSON: {e}"])
    return normalize_config(doc), raw


def load_store(dataset):
    """TripleStore from a config's dataset section; DataError on failure."""
    try:
        return TripleStore.from_files(dataset["train"], dataset["valid"],
                                      dataset["test"])
    except (OSError, ValueError) as e:
        raise DataError(str(e))


def vocab_sha256(store):
    """Stable digest of the entity and relation vocabularies, in id order."""
    entities = sorted(store.entity_to_id, key=store.entity_to_id.get)
    relations = sorted(store.relation_to_id, key=store.relation_to_id.get)
    blob = json.dumps([entities, relations]).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def build_model(cfg, store):
    """InteractionSpec + Interaction for a normalized config and its data."""
    fields = {k: v for k, v in cfg["model"].items() if k != "kind"}
    if "kernel" in fields:
        fields["kernel"] = tuple(fields["kernel"])
    try:
        spec = InteractionSpec(kind=cfg["model"]["kind"],
                               num_entities=store.num_entities,
                               num_relations=store.num_relations, **fields)
    except ValueError as e:
        raise ConfigError([f"model: {e}"])
    return spec, build_interaction(spec)


def build_training_config(cfg):
    t = cfg["training"]
    s = cfg["early_stopping"]
    frequency = min(s["frequency"], t["num_epochs"])
    try:
        return TrainingConfig(
            approach=t["approach"],
            loss=LossSpec(t["loss"]["kind"], margin=t["loss"]["margin"],
                          adversarial_temperature=t["loss"]["adversarial_temperature"]),
            optimizer=OptimizerSpec(kind=t["optimizer"]["kind"],
                                    lr=t["optimizer"]["learning_rate"]),
            batch_size=t["batch_size"],
            num_epochs=t["num_epochs"],
            num_negatives=t["num_negatives"],
            sampler=t["sampler"],
            filtered_sampling=t["filtered_sampling"],
            label_smoothing=t["label_smoothing"],
            seed=cfg["seed"],
            eval_frequency=frequency,
            patience=max(s["patience"], frequency),
            stopper_metric=s["metric"],
        )
    except ValueError as e:
        raise ConfigError([f"training: {e}"])


def _dataset_stats(store):
    return {
        "entities": store.num_entities,
        "relations": store.num_base_relations,
        "inverse_augmented": store.inverse_augmented,
        "triples": {split: int(store.num_triples(split))
                    for split in ("train", "valid", "test")},
    }


def execute_run(cfg, *, config_bytes=None, output_dir=None):
    """Train, evaluate and persist one run; returns the result document.

    cfg must already be normalized. Artifacts land in output_dir (default:
    cfg["output_dir"]). Raises DataError for dataset problems and lets
    DivergenceError from training propagate.
    """
    out_dir = output_dir or os.environ.get("KGEMBED_OUTPUT_DIR") or cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    started = utc_timestamp()
    t0 = time.monotonic()

    store = load_store(cfg["dataset"])
    if cfg["inverse_relations"]:
        store = add_inverse_relations(store)
    spec, model = build_model(cfg, store)
    params = init_parameters(model, derive_seed(cfg["seed"], "init"))
    tconf = build_training_config(cfg)
    callback = None
    if cfg["early_stopping"]["enabled"]:
        callback = make_validation_callback(
            model, store, split="valid", metric=cfg["early_stopping"]["metric"])

    trace_path = os.path.join(out_dir, "trace.jsonl")
    result = train(model, params, store, tconf,
                   evaluate_fn=callback, trace_path=trace_path)
    train_seconds = time.monotonic() - t0

    t1 = time.monotonic()
    metrics = {
        name: compute_ranks(model, result.params, store, split="test",
                            filtered=flag).metrics()
        for name, flag in (("filtered", True), ("unfiltered", False))
    }
    eval_seconds = time.monotonic() - t1

    checkpoint_path = os.path.join(out_dir, "checkpoint.kge")
    save_checkpoint(checkpoint_path, spec, result.params,
                    extra={"vocab_sha256": vocab_sha256(store),
                           "seed": cfg["seed"]})
    config_path = os.path.join(out_dir, "config.json")
    if config_bytes is None:
        config_bytes = (json.dumps(cfg, indent=2, sort_keys=True) + "\n").encode("utf-8")
    with open(config_path, "wb") as f:
        f.write(config_bytes)

    result_doc = {
        "config": cfg,
        "dataset": _dataset_stats(store),
        "metrics": metrics,
        "training": {
            "epochs_run": result.epochs_run,
            "best_epoch": result.best_epoch,
            "best_validation_metric": (None if not np.isfinite(result.best_metric)
                                       else result.best_metric),
            "final_loss": result.losses[-1] if result.losses else None,
            "skipped_steps": result.skipped_steps,
            "stopped": result.stopped,
        },
        "paths": {
            "config": os.path.abspath(config_path),
            "trace": os.path.abspath(trace_path),
            "checkpoint": os.path.abspath(checkpoint_path),
        },
        "versions": {
            "kgembed": VERSION,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "timing": {
            "started": started,
            "finished": utc_timestamp(),
            "train_seconds": round(train_seconds, 3),
            "evaluate_seconds": round(eval_seconds, 3),
        },
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as f:
        json.dump(result_doc, f, indent=2)
        f.write("\n")
    return result_doc
