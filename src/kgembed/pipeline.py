"""Run orchestration: config documents in, artifacts on disk out.

A run is described by one JSON document. normalize_config fills defaults and
collects every problem it can find (field paths included) before raising, so
a bad config is diagnosed in one pass; normalize_study does the same for a
study document. A training, loss, optimizer or early-stopping setting takes
its default from the dataclass that uses it (TrainingConfig, LossSpec,
OptimizerSpec) and its value check from the table next to that dataclass,
so the document and the dataclass accept exactly the same values.
execute_run then loads the data, trains with early stopping through
train_run (the in-memory run function that also trains every HPO trial),
evaluates the test split filtered and unfiltered under all three rank
definitions, and writes four artifacts into the output directory:

    config.json       byte-for-byte copy of the validated input document
    trace.jsonl       one record per training epoch
    checkpoint.kge    model spec + parameters
    result.json       config echo, dataset stats, metrics, paths, environment
                      (CPU count, BLAS thread variables, allocator setting),
                      versions, timing

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

from .autodiff import keep_heap
from .datasets import SPLITS, TripleStore, add_inverse_relations
from .evaluation import STOPPER_METRICS, make_validation_callback, rank_test_split
from .losses import LOSS_CHECKS, LossSpec, loss_problem
from .models import (KINDS as MODEL_KINDS, InteractionSpec, build_interaction,
                     init_parameters, save_checkpoint)
from .sampling import derive_seed
from .settings import at_least, one_of
from .training import (OPTIMIZER_CHECKS, TRAINING_CHECKS, OptimizerSpec,
                       TrainingConfig, patience_problem, train, utc_timestamp)

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


# model fields a config may set, with their JSON types; vocabulary sizes
# always come from the data
_MODEL_FIELDS = {"d_e": int, "d_r": int, "k": int, "tau": int, "kernel": [int],
                 "p": int, "similarity": str, "c_min": (int, float),
                 "c_max": (int, float), "conv_height": int}


def _fields(cls, checks, *names, **renamed):
    """{document key: (default, check)} of dataclass fields: each of names
    under its own name, each renamed key for the field it names."""
    keys = dict(zip(names, names), **renamed)
    return {key: (getattr(cls, name), checks.get(name)) for key, name in keys.items()}


# optional fields of each section: default and value check; a field takes
# the JSON type of its default
_LOSS_FIELDS = _fields(LossSpec, LOSS_CHECKS, "margin", "adversarial_temperature")
_OPTIMIZER_FIELDS = _fields(OptimizerSpec, OPTIMIZER_CHECKS, "kind", learning_rate="lr")
_TRAINING_FIELDS = _fields(TrainingConfig, TRAINING_CHECKS, "batch_size", "num_epochs",
                           "num_negatives", "sampler", "filtered_sampling",
                           "label_smoothing")
_STOPPING_FIELDS = {
    "enabled": (True, None),
    **_fields(TrainingConfig, TRAINING_CHECKS, frequency="eval_frequency",
              patience="patience"),
    "metric": (STOPPER_METRICS[0], one_of(*STOPPER_METRICS)),
}
_RUN_FIELDS = {"inverse_relations": (False, None),
               **_fields(TrainingConfig, TRAINING_CHECKS, "seed")}
_STUDY_FIELDS = {
    "seed": _RUN_FIELDS["seed"],
    "metric": _STOPPING_FIELDS["metric"],
    "eval_frequency": _STOPPING_FIELDS["frequency"],
    "patience": _STOPPING_FIELDS["patience"],
    "workers": (1, at_least(1)),
}
# JSON types of the study's budget fields; null keeps a limit unset
_BUDGET_FIELDS = {"max_trials": int, "max_seconds": (int, float, type(None)),
                  "trial_seconds": (int, float, type(None))}


def _json_type(default):
    """The JSON type a field with this default takes: a number for a float,
    [T] for a list of T."""
    if isinstance(default, list):
        return [_json_type(default[0])]
    return (int, float) if isinstance(default, float) else type(default)


def _section(doc, path, problems, required=True):
    """Pop the object at path's last key from doc; {} (and a problem) when it
    is missing or not an object."""
    key = path.rsplit(".", 1)[-1]
    if key not in doc:
        if required:
            problems.append(f"{path}: missing section")
        return {}
    sec = doc.pop(key)
    if not isinstance(sec, dict):
        problems.append(f"{path}: expected an object")
        return {}
    return dict(sec)


def _is(value, types):
    """Whether a JSON value has the given type: a class, a tuple of classes,
    or [T] for a list of T. A bool is never taken for a number."""
    if isinstance(types, list):
        return isinstance(value, list) and all(_is(v, types[0]) for v in value)
    if types is bool:
        return isinstance(value, bool)
    return isinstance(value, types) and not isinstance(value, bool)


def _type_name(types):
    if isinstance(types, list):
        return f"a list of {_type_name(types[0])}"
    if isinstance(types, tuple):
        return " or ".join(_type_name(t) for t in types)
    return "null" if types is type(None) else types.__name__


def _take(sec, path, key, types, default, problems, check=None):
    """Pop sec[key], type-check it, and report problems under path.key."""
    if key not in sec:
        if default is ...:
            problems.append(f"{path}.{key}: required")
            return None
        return default
    value = sec.pop(key)
    if not _is(value, types):
        problems.append(f"{path}.{key}: expected {_type_name(types)}")
        return default if default is not ... else None
    if check:
        message = check(value)
        if message:
            problems.append(f"{path}.{key}: {message}")
    return value


def _optional(sec, path, fields, problems):
    """Each of fields ({key: (default, check)}) from sec, or its default."""
    return {key: _take(sec, path, key, _json_type(default), default, problems, check)
            for key, (default, check) in fields.items()}


def _leftovers(sec, path, problems):
    for key in sec:
        problems.append(f"{path}.{key}: unknown field")


def _dataset(doc, path, problems):
    """The train/valid/test file paths of the dataset section at path."""
    dataset = _section(doc, path, problems)
    ds = {}
    for split in SPLITS:
        file = _take(dataset, path, split, str, ..., problems)
        if file is not None and not os.path.isfile(file):
            problems.append(f"{path}.{split}: no such file: {file}")
        ds[split] = file
    _leftovers(dataset, path, problems)
    return ds


def normalize_config(doc):
    """Validate a run document and return it with all defaults filled.

    Raises ConfigError carrying every problem found. The result round-trips:
    normalize_config(json.loads(json.dumps(cfg))) == cfg.
    """
    if not isinstance(doc, dict):
        raise ConfigError(["config: expected a JSON object"])
    doc = dict(doc)
    problems = []
    out = {"dataset": _dataset(doc, "dataset", problems)}

    model = _section(doc, "model", problems)
    m = {"kind": _take(model, "model", "kind", str, ..., problems,
                       check=lambda v: None if v in MODEL_KINDS
                       else f"unknown interaction kind {v!r}")}
    for key, types in _MODEL_FIELDS.items():
        if key in model:
            m[key] = _take(model, "model", key, types, ..., problems)
    if m.get("kernel") is not None and len(m["kernel"]) != 2:
        problems.append("model.kernel: expected a pair of integers")
    _leftovers(model, "model", problems)
    out["model"] = m

    training = _section(doc, "training", problems)
    t = {"approach": _take(training, "training", "approach", str, ..., problems,
                           check=TRAINING_CHECKS["approach"])}
    loss = _section(training, "training.loss", problems)
    t["loss"] = {"kind": _take(loss, "training.loss", "kind", str, ..., problems,
                               check=LOSS_CHECKS["kind"]),
                 **_optional(loss, "training.loss", _LOSS_FIELDS, problems)}
    _leftovers(loss, "training.loss", problems)
    optimizer = _section(training, "training.optimizer", problems, required=False)
    t["optimizer"] = _optional(optimizer, "training.optimizer", _OPTIMIZER_FIELDS,
                               problems)
    _leftovers(optimizer, "training.optimizer", problems)
    t.update(_optional(training, "training", _TRAINING_FIELDS, problems))
    _leftovers(training, "training", problems)
    incompatible = loss_problem(t["approach"], t["loss"]["kind"])
    if incompatible:
        problems.append(f"training.loss.kind: {incompatible}")
    out["training"] = t

    stopping = _section(doc, "early_stopping", problems, required=False)
    s = out["early_stopping"] = _optional(stopping, "early_stopping",
                                          _STOPPING_FIELDS, problems)
    _leftovers(stopping, "early_stopping", problems)
    never_fires = patience_problem(s["frequency"], s["patience"])
    if never_fires:
        problems.append(f"early_stopping.patience: {never_fires}")

    out.update(_optional(doc, "config", _RUN_FIELDS, problems))
    out["output_dir"] = _take(doc, "config", "output_dir", str, ..., problems,
                              check=lambda v: None if v else "must be non-empty")
    _leftovers(doc, "config", problems)

    if problems:
        raise ConfigError(problems)
    return out


def normalize_study(doc):
    """Validate a study document; returns it with defaults filled and its
    space and budget as a SearchSpace and a Budget.

    Raises ConfigError carrying every problem found. Fields are checked for
    presence and type here; SearchSpace and Budget check the values.
    """
    from .hpo import Budget, SearchSpace  # hpo trains its trials through this module

    if not isinstance(doc, dict):
        raise ConfigError(["study: expected a JSON object"])
    doc = dict(doc)
    problems = []
    out = {"dataset": _dataset(doc, "study.dataset", problems)}
    space_fields = {k: _json_type(v) for k, v in SearchSpace().to_dict().items()}
    for name, cls, types in (("space", SearchSpace, space_fields),
                             ("budget", Budget, _BUDGET_FIELDS)):
        path, before = f"study.{name}", len(problems)
        sec = _section(doc, path, problems, required=False)
        fields = {key: _take(sec, path, key, t, None, problems)
                  for key, t in types.items() if key in sec}
        _leftovers(sec, path, problems)
        if len(problems) == before:
            try:
                out[name] = cls(**fields)
            except (ValueError, OverflowError) as e:  # an int past float range overflows
                problems.append(f"{path}: {e}")
    out.update(_optional(doc, "study", _STUDY_FIELDS, problems))
    out["output_dir"] = _take(doc, "study", "output_dir", str, ..., problems,
                              check=lambda v: None if v else "must be non-empty")
    _leftovers(doc, "study", problems)

    if problems:
        raise ConfigError(problems)
    return out


def _read_json(path, what):
    """(document, raw bytes) of a JSON file; ConfigError when unreadable."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise ConfigError([f"{what}: cannot read {path}: {e.strerror}"])
    try:
        return json.loads(raw.decode("utf-8")), raw
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError([f"{what}: {path} is not valid JSON: {e}"])


def load_config(path):
    """Read and normalize a config file; returns (normalized, raw bytes)."""
    doc, raw = _read_json(path, "config")
    return normalize_config(doc), raw


def load_study(path):
    """Read and normalize a study file (see normalize_study)."""
    return normalize_study(_read_json(path, "study")[0])


_SPLIT_NAMES = {"train": "training", "valid": "validation", "test": "test"}


def load_store(dataset, splits=("train",)):
    """TripleStore from a config's dataset section; DataError on failure or
    when one of `splits`, the splits the caller reads, has no triples."""
    try:
        store = TripleStore.from_files(dataset["train"], dataset["valid"],
                                       dataset["test"])
    except (OSError, ValueError) as e:
        raise DataError(str(e))
    for split in splits:
        if not store.num_triples(split):
            raise DataError(f"{dataset[split]}: the {_SPLIT_NAMES[split]} split has no triples")
    return store


def vocab_sha256(store):
    """Stable digest of the entity and relation vocabularies, in id order."""
    entities = sorted(store.entity_to_id, key=store.entity_to_id.get)
    relations = sorted(store.relation_to_id, key=store.relation_to_id.get)
    blob = json.dumps([entities, relations]).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def build_model(cfg, store):
    """InteractionSpec + Interaction for a normalized config and its data."""
    fields = {k: v for k, v in cfg["model"].items() if k != "kind"}
    try:
        spec = InteractionSpec(kind=cfg["model"]["kind"],
                               num_entities=store.num_entities,
                               num_relations=store.num_relations, **fields)
    except ValueError as e:
        raise ConfigError([f"model: {e}"])
    return spec, build_interaction(spec)


def build_training_config(cfg):
    """The TrainingConfig of a run document, whose training keys are
    TrainingConfig's field names.

    A training, loss or optimizer setting the document leaves out, as a
    trial's document does, takes its dataclass default. The evaluation
    frequency is clamped to the epoch cap, so that a short run still
    validates, and the patience is lifted to at least that frequency.
    """
    t = dict(cfg["training"])
    loss, optimizer = t.pop("loss"), t.pop("optimizer")
    s = cfg["early_stopping"]
    frequency = min(s["frequency"], t["num_epochs"])
    return TrainingConfig(
        loss=LossSpec(**loss),
        optimizer=OptimizerSpec(kind=optimizer["kind"], lr=optimizer["learning_rate"]),
        seed=cfg["seed"], eval_frequency=frequency,
        patience=max(s["patience"], frequency), **t)


# variables that set how many threads numpy's BLAS uses
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _dataset_stats(store):
    return {
        "entities": store.num_entities,
        "relations": store.num_base_relations,
        "inverse_augmented": store.inverse_augmented,
        "triples": {split: int(store.num_triples(split))
                    for split in ("train", "valid", "test")},
    }


def train_run(cfg, store, *, trace_path=None, deadline=None):
    """Train one run document on its data, in memory: a normalized one, or
    a trial's, which leaves out the training settings it did not draw.

    store is the dataset's store; a document with inverse_relations trains on
    the inverse-augmented store it keeps (datasets.add_inverse_relations).
    Builds the model, initializes its parameters, trains with the document's
    early stopping and returns (run store, model, TrainResult), the run store
    being the one trained on. DataError when sLCWA has no entity to corrupt
    a triple with.
    """
    if cfg["inverse_relations"]:
        store = add_inverse_relations(store)
    if cfg["training"]["approach"] == "slcwa" and store.num_entities < 2:
        raise DataError(f"slcwa needs at least 2 entities to draw negatives, "
                        f"the dataset has {store.num_entities}")
    _, model = build_model(cfg, store)
    params = init_parameters(model, derive_seed(cfg["seed"], "init"))
    tconf = build_training_config(cfg)
    callback = None
    if cfg["early_stopping"]["enabled"]:
        callback = make_validation_callback(model, store,
                                            metric=cfg["early_stopping"]["metric"])
    result = train(model, params, store, tconf, evaluate_fn=callback,
                   trace_path=trace_path, deadline=deadline)
    return store, model, result


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

    trace_path = os.path.join(out_dir, "trace.jsonl")
    # the test split is always ranked, the validation split only to stop early
    splits = SPLITS if cfg["early_stopping"]["enabled"] else ("train", "test")
    store, model, result = train_run(cfg, load_store(cfg["dataset"], splits),
                                     trace_path=trace_path)
    train_seconds = time.monotonic() - t0

    t1 = time.monotonic()
    metrics = rank_test_split(model, result.params, store)
    eval_seconds = time.monotonic() - t1

    checkpoint_path = os.path.join(out_dir, "checkpoint.kge")
    save_checkpoint(checkpoint_path, model.spec, result.params,
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
            "best_validation_metric": result.best_metric,
            "final_loss": result.losses[-1] if result.losses else None,
            "skipped_steps": result.skipped_steps,
            "stopped": result.stopped,
        },
        "paths": {
            "config": os.path.abspath(config_path),
            "trace": os.path.abspath(trace_path),
            "checkpoint": os.path.abspath(checkpoint_path),
        },
        "environment": {
            "cpu_count": os.cpu_count(),
            "blas_threads": {v: os.environ.get(v) for v in _BLAS_THREAD_VARIABLES},
            "allocator": keep_heap(),
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
