"""Random-search hyper-parameter optimization.

A study draws full training configurations from a SearchSpace, which runs
every value a trial can draw through the check of the run setting it
becomes, so every trial of an accepted space builds. A trial is a run:
trial_document turns its configuration into a run document (what the trial
drew, the study's one early-stopping section, inverse relations and seed),
and pipeline.train_run trains it on the dataset's store exactly as `kgembed
train` trains a run, on the augmented store that store keeps when the trial
draws inverse relations. The study keeps the configuration with the best
validation metric. The final step obtains its store, model and parameters
(those the winning trial left in memory, or a retraining otherwise, which is
the same deterministic computation) and reports its test-split metrics with
evaluation.rank_test_split, as a run does.

Trial i is a pure function of (space, dataset, master seed, i): its
configuration comes from a per-trial child generator and its training seed
from the same derivation, so reruns and resumed studies see the identical
sequence. Records stream to a JSON-lines file and are flushed after every
trial; a rerun over the same file skips trials that already finished and
re-runs those that were cut by the wall-time budget.
"""

import json
import logging
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, asdict

import numpy as np

from .evaluation import STOPPER_METRICS, rank_test_split
from .losses import LOSS_CHECKS, loss_problem
from .models import InteractionSpec
from .datasets import SPLITS
from .pipeline import _SPLIT_NAMES, DataError, _is, _type_name, train_run
from .sampling import derive_seed, rng_for
from .settings import require
from .training import (APPROACHES, OPTIMIZER_CHECKS, OPTIMIZERS, TRAINING_CHECKS,
                       TrainingConfig)

log = logging.getLogger(__name__)

MRL_MARGINS = tuple(0.5 * i for i in range(1, 20))            # 0.5, 1.0, ..., 9.5
NSSAL_MARGINS = tuple(float(m) for m in range(1, 30, 2))      # 1, 3, ..., 29
ADVERSARIAL_TEMPERATURES = tuple(i / 10 for i in range(1, 11))  # 0.1, ..., 1.0


class StudyError(RuntimeError):
    """The study as a whole cannot produce a result."""


# the check of the run setting each space field's values become
_DRAWN_SETTINGS = {
    "approaches": TRAINING_CHECKS["approach"],
    "optimizers": OPTIMIZER_CHECKS["kind"],
    "learning_rate_range": OPTIMIZER_CHECKS["lr"],
    "batch_sizes": TRAINING_CHECKS["batch_size"],
    "num_epochs": TRAINING_CHECKS["num_epochs"],
    "slcwa_losses": lambda v: LOSS_CHECKS["kind"](v) or loss_problem("slcwa", v),
    "lcwa_losses": lambda v: LOSS_CHECKS["kind"](v) or loss_problem("lcwa", v),
    "adversarial_temperatures": LOSS_CHECKS["adversarial_temperature"],
    "negatives_range": TRAINING_CHECKS["num_negatives"],
    "label_smoothing_range": TRAINING_CHECKS["label_smoothing"],
    "samplers": TRAINING_CHECKS["sampler"],
}


@dataclass
class SearchSpace:
    """What random search may draw from.

    Categorical fields are drawn uniformly; learning rate and label
    smoothing are drawn uniformly in log space over [lo, hi). The loss pool
    depends on the drawn training approach. num_epochs is a cap, not a draw;
    early stopping usually ends a trial well before it.

    Every value a trial can draw passes the check of the run setting it
    becomes, and every (model, embedding dim) pair builds an
    InteractionSpec, so every trial of a valid space can be built.
    """

    models: tuple = ("distmult",)
    approaches: tuple = APPROACHES
    embedding_dims: tuple = (64, 128, 256)
    optimizers: tuple = OPTIMIZERS
    learning_rate_range: tuple = (0.001, 0.1)
    batch_sizes: tuple = (128, 256, 512)
    inverse_choices: tuple = (False, True)
    num_epochs: int = TrainingConfig.num_epochs
    slcwa_losses: tuple = ("bcel", "mrl", "nssal", "spl")
    lcwa_losses: tuple = ("bcel", "cel", "spl")
    mrl_margins: tuple = MRL_MARGINS
    nssal_margins: tuple = NSSAL_MARGINS
    adversarial_temperatures: tuple = ADVERSARIAL_TEMPERATURES
    negatives_range: tuple = (1, 100)            # inclusive on both ends
    label_smoothing_range: tuple = (0.001, 1.0)
    samplers: tuple = (TrainingConfig.sampler,)

    def __post_init__(self):
        for name in ("models", "approaches", "embedding_dims", "optimizers",
                     "batch_sizes", "inverse_choices", "slcwa_losses",
                     "lcwa_losses", "mrl_margins", "nssal_margins",
                     "adversarial_temperatures", "samplers"):
            value = tuple(getattr(self, name))
            if not value:
                raise ValueError(f"search space field {name} is empty")
            setattr(self, name, value)
        for name in ("learning_rate_range", "label_smoothing_range", "negatives_range"):
            value = tuple(getattr(self, name))
            if len(value) != 2:
                raise ValueError(f"{name} needs two values, [lo, hi]")
            cast = int if name == "negatives_range" else float
            setattr(self, name, tuple(cast(v) for v in value))
        for name in ("learning_rate_range", "label_smoothing_range"):
            lo, hi = getattr(self, name)  # drawn in log space
            if not (0 < lo < hi < np.inf):
                raise ValueError(f"{name} needs 0 < lo < hi, finite")
        if self.negatives_range[0] > self.negatives_range[1]:
            raise ValueError("negatives_range needs lo <= hi")
        if not isinstance(self.num_epochs, int):
            raise ValueError("num_epochs must be a positive integer")
        for kind in self.models:
            for dim in self.embedding_dims:
                try:
                    InteractionSpec(kind, 1, 1, d_e=dim)
                except ValueError as e:
                    raise ValueError(f"models value {kind!r} with embedding_dims "
                                     f"value {dim!r}: {e}") from None
        for name, check in _DRAWN_SETTINGS.items():
            values = getattr(self, name)
            if name in ("learning_rate_range", "label_smoothing_range"):
                # drawn in [lo, hi): its lowest and its highest float
                values = (values[0], float(np.nextafter(values[1], values[0])))
            for value in values if isinstance(values, tuple) else (values,):
                require(f"{name} value {value!r}", check(value))

    def to_dict(self):
        return {k: (list(v) if isinstance(v, tuple) else v)
                for k, v in asdict(self).items()}


def _choice(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def sample_config(space, rng):
    """Draw one full trial configuration.

    The draw order is fixed (model, dim, approach, loss, optimizer, lr,
    batch, inverse, sampler, then approach-specific fields) so a given
    generator state always yields the same configuration.
    """
    cfg = {
        "model": _choice(rng, space.models),
        "embedding_dim": int(_choice(rng, space.embedding_dims)),
        "approach": _choice(rng, space.approaches),
    }
    pool = space.slcwa_losses if cfg["approach"] == "slcwa" else space.lcwa_losses
    cfg["loss"] = _choice(rng, pool)
    cfg["optimizer"] = _choice(rng, space.optimizers)
    cfg["learning_rate"] = _log_uniform(rng, *space.learning_rate_range)
    cfg["batch_size"] = int(_choice(rng, space.batch_sizes))
    cfg["inverse"] = bool(_choice(rng, space.inverse_choices))
    cfg["sampler"] = _choice(rng, space.samplers)
    cfg["num_epochs"] = int(space.num_epochs)
    cfg["margin"] = None
    cfg["adversarial_temperature"] = None
    cfg["num_negatives"] = None
    cfg["label_smoothing"] = 0.0
    if cfg["approach"] == "slcwa":
        if cfg["loss"] == "mrl":
            cfg["margin"] = float(_choice(rng, space.mrl_margins))
        elif cfg["loss"] == "nssal":
            cfg["margin"] = float(_choice(rng, space.nssal_margins))
            cfg["adversarial_temperature"] = float(
                _choice(rng, space.adversarial_temperatures))
        lo, hi = space.negatives_range
        cfg["num_negatives"] = int(rng.integers(lo, hi + 1))
    else:
        cfg["label_smoothing"] = _log_uniform(rng, *space.label_smoothing_range)
    return cfg


@dataclass
class Budget:
    """Trial-count and wall-time limits for a study.

    max_seconds bounds the whole study: no new trial starts past it and a
    running trial stops at its next epoch boundary. trial_seconds optionally
    caps each single trial the same way.
    """

    max_trials: int = 20
    max_seconds: float = None
    trial_seconds: float = None

    def __post_init__(self):
        if self.max_trials < 1:
            raise ValueError("max_trials must be positive")
        for name in ("max_seconds", "trial_seconds"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise ValueError(f"{name} must be positive when set")

    def to_dict(self):
        return asdict(self)


@dataclass
class TrialRecord:
    trial_id: int
    config: dict
    seed: int
    status: str          # completed | budget-exhausted | failed
    metric: float        # best validation metric, None if never evaluated
    best_epoch: int
    epochs_run: int
    wall_seconds: float
    error: str = None

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, doc):
        """The record of a JSON object; TypeError names a missing, unknown or
        mistyped field."""
        record = cls(**doc)
        for name, types in _RECORD_TYPES.items():
            if not _is(getattr(record, name), types):
                raise TypeError(f"{name}: expected {_type_name(types)}")
        return record


# the JSON type of each TrialRecord field
_RECORD_TYPES = {"trial_id": int, "config": dict, "seed": int, "status": str,
                 "metric": (int, float, type(None)), "best_epoch": (int, type(None)),
                 "epochs_run": int, "wall_seconds": (int, float),
                 "error": (str, type(None))}


def trial_document(cfg, early_stopping, *, seed):
    """The run document, less dataset and output_dir, that trains a sampled
    configuration: what the trial drew, the study's early_stopping section
    and the trial's seed.

    Settings the trial did not draw are left out: the run path
    (pipeline.build_training_config) gives them their defaults and clamps
    the evaluation frequency to the epoch cap, so even very short trials get
    a validation measurement.
    """
    def drawn(*keys):  # the approach-specific fields the trial drew
        return {k: cfg[k] for k in keys if cfg[k] is not None}

    return {
        "model": {"kind": cfg["model"], "d_e": cfg["embedding_dim"]},
        "training": {
            "approach": cfg["approach"],
            "loss": {"kind": cfg["loss"], **drawn("margin", "adversarial_temperature")},
            "optimizer": {"kind": cfg["optimizer"],
                          "learning_rate": cfg["learning_rate"]},
            "batch_size": cfg["batch_size"],
            "num_epochs": cfg["num_epochs"],
            "sampler": cfg["sampler"],
            "label_smoothing": cfg["label_smoothing"],
            **drawn("num_negatives"),
        },
        "early_stopping": early_stopping,
        "inverse_relations": cfg["inverse"],
        "seed": seed,
    }


def run_trial(trial_id, cfg, store, early_stopping, *, seed, deadline=None):
    """Train one configuration as a run on the dataset's store; returns
    (TrialRecord, None) for a failed trial, else (TrialRecord, (run store,
    model, trained params)), the run store being the one train_run trained on.

    Exceptions become a failed record so the surrounding search continues.
    """
    t0 = time.monotonic()
    try:
        store, model, result = train_run(trial_document(cfg, early_stopping, seed=seed),
                                         store, deadline=deadline)
    except Exception as e:  # a failed trial must not kill the study
        log.warning("trial %d failed: %s", trial_id, e)
        record = TrialRecord(trial_id, cfg, seed, "failed", None, None, 0,
                             time.monotonic() - t0,
                             error=f"{type(e).__name__}: {e}")
        return record, None
    status = "budget-exhausted" if result.stopped == "deadline" else "completed"
    record = TrialRecord(
        trial_id, cfg, seed, status, result.best_metric,
        result.best_epoch if result.best_metric is not None else None,
        result.epochs_run, time.monotonic() - t0,
    )
    return record, (store, model, result.params)


@dataclass
class StudyResult:
    records: list            # all TrialRecords in trial-id order
    best: TrialRecord
    best_params: dict
    best_spec: dict           # InteractionSpec fields of the winning model
    best_store: object        # the TripleStore the winner trained and was ranked on
    test_metrics: dict        # {"filtered"/"unfiltered": RankingResult.metrics()}
    retrained: bool           # False when the winning trial's params were reused
    wall_seconds: float


def _load_records(path):
    records = {}
    if path and os.path.exists(path):
        with open(path, "r", encoding="utf-8") as f:
            for number, line in enumerate(f, 1):
                line = line.strip()
                if line:
                    try:
                        rec = TrialRecord.from_json(json.loads(line))
                    except (json.JSONDecodeError, TypeError) as e:
                        raise DataError(f"{path}, line {number}: not a trial record: {e}")
                    records[rec.trial_id] = rec  # last write per id wins
    return records


def _check_manifest(path, manifest):
    if not path:
        return
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as f:
            try:
                existing = json.load(f)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}: not a study manifest: {e}")
        if existing != manifest:
            raise StudyError(
                f"{path} belongs to a different study; "
                "refusing to resume with a changed space, budget or seed")
    else:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")


def random_search(space, store, *, budget=None, master_seed=0,
                  metric=STOPPER_METRICS[0], eval_frequency=TrainingConfig.eval_frequency,
                  patience=TrainingConfig.patience, records_path=None,
                  manifest_path=None, workers=1):
    """Run a study and return its StudyResult.

    store must be the un-augmented TripleStore. Every trial trains on it, or
    on the augmented store it keeps, built by the first trial that draws
    inverse relations; all trials share one early-stopping section. The best
    record is the one with the highest validation metric (earlier trial wins
    ties); trials that were cut by the wall budget still compete when they
    managed at least one evaluation. Zero completed trials is a StudyError.
    A split with no triples, which every trial (train, valid) or the winner
    (test) reads, is a DataError before the first trial, and so is a loaded
    record whose config or seed is not the one its trial draws.

    Trial ids are drawn lazily, in order, skipping trials that already
    finished; no trial starts once the study's wall-time budget is spent.
    With workers > 1 trials run in threads, at most `workers` at a time, and
    a running trial stops at its own deadline. Results per trial are
    unchanged; only the cut point moves.
    """
    if store.inverse_augmented:
        raise ValueError("random_search wants the un-augmented store")
    for split in SPLITS:
        if not store.num_triples(split):
            raise DataError(f"the {_SPLIT_NAMES[split]} split has no triples")
    budget = budget or Budget()
    t_start = time.monotonic()
    study_deadline = t_start + budget.max_seconds if budget.max_seconds else None

    early_stopping = {"enabled": True, "frequency": eval_frequency,
                      "patience": patience, "metric": metric}
    records = _load_records(records_path)
    finished = {i for i, r in records.items() if r.status in ("completed", "failed")}
    manifest = {
        "space": space.to_dict(),
        "budget": budget.to_dict(),
        "master_seed": master_seed,
        "metric": metric,
        "eval_frequency": eval_frequency,
        "patience": patience,
    }
    _check_manifest(manifest_path, manifest)
    for i, record in records.items():
        if (record.config != sample_config(space, rng_for(master_seed, f"trial-{i}/config"))
                or record.seed != derive_seed(master_seed, f"trial-{i}/train")):
            raise DataError(f"{records_path}: trial {i}: the config or seed is not the one "
                            "this study draws for it")

    lock = threading.Lock()
    # the best trial run here so far, ranked like the final choice below, so
    # that threads finishing in any order keep the same one
    memo = {"key": (-np.inf, 0), "record": None, "trained": None}
    records_file = open(records_path, "a", encoding="utf-8") if records_path else None

    def launch(i):
        cfg = sample_config(space, rng_for(master_seed, f"trial-{i}/config"))
        seed = derive_seed(master_seed, f"trial-{i}/train")
        deadline = study_deadline
        if budget.trial_seconds:
            cap = time.monotonic() + budget.trial_seconds
            deadline = cap if deadline is None else min(deadline, cap)
        record, trained = run_trial(i, cfg, store, early_stopping, seed=seed,
                                    deadline=deadline)
        with lock:
            records[i] = record
            if records_file:
                records_file.write(json.dumps(record.to_json()) + "\n")
                records_file.flush()
            if record.metric is not None and (record.metric, -i) > memo["key"]:
                memo.update(key=(record.metric, -i), record=record, trained=trained)
        log.info("trial %d (%s/%s/%s) %s: metric=%s in %.1fs",
                 i, cfg["model"], cfg["loss"], cfg["approach"],
                 record.status, record.metric, record.wall_seconds)

    def trial_ids():
        for i in range(budget.max_trials):
            if i in finished:
                continue
            if study_deadline and time.monotonic() >= study_deadline:
                log.info("wall-time budget exhausted before trial %d", i)
                return
            yield i

    try:
        if workers <= 1:
            for i in trial_ids():
                launch(i)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                running = set()
                for i in trial_ids():
                    running.add(pool.submit(launch, i))
                    # wait for a free worker before drawing the next id, so
                    # the deadline is checked when that trial would start
                    if len(running) == workers:
                        done, running = wait(running, return_when=FIRST_COMPLETED)
                        for future in done:
                            future.result()
                for future in running:
                    future.result()
    finally:
        if records_file:
            records_file.close()

    ordered = [records[i] for i in sorted(records)]
    if not any(r.status == "completed" for r in ordered):
        raise StudyError("no trial completed; the study has no result")
    scored = [r for r in ordered if r.metric is not None]
    best = max(scored, key=lambda r: (r.metric, -r.trial_id))

    reused = (memo["record"] is not None and memo["record"].trial_id == best.trial_id
              and best.status == "completed")
    if reused:
        trained = memo["trained"]
    else:
        # deterministic re-run of the winning configuration, this time
        # without a deadline so a budget-cut winner trains fully
        record, trained = run_trial(best.trial_id, best.config, store, early_stopping,
                                    seed=best.seed)
        if trained is None:
            raise StudyError(f"retraining the best configuration failed: {record.error}")
    best_store, model, best_params = trained
    test_metrics = rank_test_split(model, best_params, best_store)
    return StudyResult(
        records=ordered,
        best=best,
        best_params=best_params,
        best_spec=model.spec.to_dict(),
        best_store=best_store,
        test_metrics=test_metrics,
        retrained=not reused,
        wall_seconds=time.monotonic() - t_start,
    )
