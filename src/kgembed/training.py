"""Training loops: Adam and Adadelta, the two training approaches, and
checkpoint-based early stopping.

A training step builds one graph: gather embeddings, score, loss, backward,
then a dense optimizer update per parameter tensor. Steps whose gradients
contain non-finite values are skipped and counted rather than letting one
overflow poison the parameters; a run whose epoch loss itself goes non-finite
raises DivergenceError.
"""

import json
import logging
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .autodiff import Graph, keep_heap
from .losses import LossSpec, batch_loss, loss_problem
from .models import MAX_WIDTH
from .sampling import (SAMPLING_CHECKS, NegativeSampler, LCWATask, slcwa_batches,
                       lcwa_batches, rng_for)
from .settings import at_least, check_fields, one_of, positive, require

log = logging.getLogger(__name__)

APPROACHES = ("slcwa", "lcwa")
OPTIMIZERS = ("adam", "adadelta")


def utc_timestamp():
    """The current time as ISO 8601 in UTC, to the second: 2024-01-31T12:00:00+00:00."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class DivergenceError(RuntimeError):
    """Training produced non-finite losses or lost every step of an epoch."""


# the value check of each OptimizerSpec field that has one (see settings)
OPTIMIZER_CHECKS = {"kind": one_of(*OPTIMIZERS), "lr": positive}


@dataclass
class OptimizerSpec:
    kind: str = "adam"
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    rho: float = 0.95
    eps: float = None  # resolved per kind below

    def __post_init__(self):
        check_fields(self, OPTIMIZER_CHECKS)
        if self.eps is None:
            self.eps = 1e-8 if self.kind == "adam" else 1e-6


def _scratch(params):
    """Two flat buffers big enough for any parameter tensor's update."""
    return np.empty((2, max((v.size for v in params.values()), default=0)))


class Adam:
    """Adam with bias correction; state is dense per parameter tensor.

    The update is computed in place through two scratch buffers, with the
    same operations in the same order as the textbook expression
    lr * (m / c1) / (sqrt(v / c2) + eps), so results are bit-identical to it.
    """

    def __init__(self, spec, params):
        self.spec = spec
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0
        self._buf = _scratch(params)

    def step(self, params, grads):
        s = self.spec
        self.t += 1
        c1 = 1.0 - s.beta1 ** self.t
        c2 = 1.0 - s.beta2 ** self.t
        for k, g in grads.items():
            m = self.m[k]
            v = self.v[k]
            a = self._buf[0, : g.size].reshape(g.shape)
            b = self._buf[1, : g.size].reshape(g.shape)
            np.multiply(g, 1.0 - s.beta1, out=a)
            m *= s.beta1
            m += a
            np.multiply(g, g, out=a)
            a *= 1.0 - s.beta2
            v *= s.beta2
            v += a
            np.divide(v, c2, out=a)
            np.sqrt(a, out=a)
            a += s.eps
            np.divide(m, c1, out=b)
            b *= s.lr
            b /= a
            params[k] -= b


class Adadelta:
    """Adadelta: running averages of squared gradients and squared updates.

    Computed in place through two scratch buffers, bit-identical to the
    expressions delta = sqrt((acc + eps) / (sq + eps)) * g and lr * delta.
    """

    def __init__(self, spec, params):
        self.spec = spec
        self.sq_grad = {k: np.zeros_like(v) for k, v in params.items()}
        self.sq_delta = {k: np.zeros_like(v) for k, v in params.items()}
        self._buf = _scratch(params)

    def step(self, params, grads):
        s = self.spec
        for k, g in grads.items():
            sq = self.sq_grad[k]
            acc = self.sq_delta[k]
            delta = self._buf[0, : g.size].reshape(g.shape)
            b = self._buf[1, : g.size].reshape(g.shape)
            np.multiply(g, g, out=b)
            b *= 1.0 - s.rho
            sq *= s.rho
            sq += b
            np.add(acc, s.eps, out=delta)
            np.add(sq, s.eps, out=b)
            delta /= b
            np.sqrt(delta, out=delta)
            delta *= g
            np.multiply(delta, delta, out=b)
            b *= 1.0 - s.rho
            acc *= s.rho
            acc += b
            delta *= s.lr
            params[k] -= delta


def make_optimizer(spec, params):
    cls = Adam if spec.kind == "adam" else Adadelta
    return cls(spec, params)


# the value check of each TrainingConfig field that has one (see settings)
TRAINING_CHECKS = {
    "approach": one_of(*APPROACHES),
    "batch_size": at_least(1),
    "num_epochs": at_least(1),
    "num_negatives": lambda v: None if 1 <= v <= MAX_WIDTH
                     else f"must lie in [1, {MAX_WIDTH}]",
    **SAMPLING_CHECKS,
    "seed": at_least(0),
    "eval_frequency": at_least(1),
    "patience": at_least(1),
}


def patience_problem(frequency, patience):
    """Why a patience never fires at an evaluation frequency; None when it can."""
    return None if patience >= frequency else "must be >= frequency"


@dataclass
class TrainingConfig:
    """Everything train() needs beyond model and store."""

    approach: str = "slcwa"
    loss: LossSpec = field(default_factory=lambda: LossSpec("mrl"))
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    batch_size: int = 256
    num_epochs: int = 1000
    num_negatives: int = 32          # negatives per positive (slcwa)
    sampler: str = "uniform"
    filtered_sampling: bool = False
    label_smoothing: float = 0.0     # lcwa only
    seed: int = 0
    eval_frequency: int = 50         # epochs between validation evaluations
    patience: int = 100              # epochs without improvement before stopping

    def __post_init__(self):
        check_fields(self, TRAINING_CHECKS)
        require("loss", loss_problem(self.approach, self.loss.kind))
        require("patience", patience_problem(self.eval_frequency, self.patience))


def _clamped(g, model, scores):
    lo_hi = model.score_clamp
    if lo_hi is None:
        return scores
    return g.clip(scores, lo_hi[0], lo_hi[1])


def _finite(grads):
    return all(np.all(np.isfinite(v)) for v in grads.values())


def _slcwa_blocks(store, config, rng, sampler):
    """An epoch's (h, r, t, labels) sLCWA batches: (B, 1 + K) h and t ids,
    column 0 the positives and the rest their negatives, and the (B,)
    relation ids each row shares, as the sampler replaces only h or t."""
    for pos in slcwa_batches(store, config.batch_size, rng):
        neg = sampler.corrupt(rng, pos, config.num_negatives)
        h, t = (np.concatenate([pos[:, None, i], neg[:, :, i]], axis=1) for i in (0, 2))
        yield h, pos[:, 1], t, None


def _step(model, params, spec, optimizer, h, r, t, labels):
    """One optimizer step on one batch: its loss, or None when skipped. A
    function of its own, so that its graph is freed before the next batch."""
    g = Graph()
    P = model.leaves(g, params, trainable=True)
    loss = batch_loss(g, spec, _clamped(g, model, model.score_triples(g, P, h, r, t)), labels)
    g.backward(loss)
    grads = {k: node.grad for k, node in P.items() if node.grad is not None}
    if not _finite(grads) or not np.isfinite(loss.value):
        log.warning("skipping optimizer step: non-finite gradient or loss")
        return None
    optimizer.step(params, grads)
    model.project_parameters(params)
    return float(loss.value)


def train_epoch(model, params, store, config, optimizer, rng, sampler=None, task=None):
    """One pass over the training split, one score_triples and one
    batch_loss call per batch. Returns (mean loss, skipped steps)."""
    if config.approach == "slcwa":
        batches = _slcwa_blocks(store, config, rng, sampler)
    else:
        batches = ((h, r, None, labels) for h, r, labels in lcwa_batches(
            task, config.batch_size, rng, epsilon=config.label_smoothing,
            by_position=config.loss.kind == "cel"))
    steps = [_step(model, params, config.loss, optimizer, *batch) for batch in batches]
    losses = [loss for loss in steps if loss is not None]
    if not losses:
        raise DivergenceError("every step of the epoch was skipped")
    mean_loss = float(np.mean(losses))
    if not np.isfinite(mean_loss):
        raise DivergenceError(f"epoch loss is not finite: {mean_loss}")
    return mean_loss, len(steps) - len(losses)


class EarlyStopper:
    """Patience-based stopping on a higher-is-better validation metric.

    Evaluations happen every `frequency` epochs; the run stops once
    (current epoch - best epoch) >= patience, and the caller takes the
    parameters checkpointed at the best evaluation.
    """

    def __init__(self, frequency, patience):
        require("patience", patience_problem(frequency, patience))
        self.frequency = frequency
        self.patience = patience
        self.best_metric = -np.inf
        self.best_epoch = 0
        self.best_params = None

    def should_evaluate(self, epoch):
        return epoch % self.frequency == 0

    def update(self, epoch, metric, params):
        """Record an evaluation; returns True when training should stop."""
        if metric > self.best_metric:
            self.best_metric = metric
            self.best_epoch = epoch
            self.best_params = {k: v.copy() for k, v in params.items()}
        return epoch - self.best_epoch >= self.patience


@dataclass
class TrainResult:
    params: dict
    epochs_run: int
    best_epoch: int
    best_metric: float  # None when no validation ran
    losses: list
    skipped_steps: int
    trace: list
    stopped: str = "epoch_cap"  # epoch_cap | early_stop | deadline


def train(model, params, store, config, evaluate_fn=None, trace_path=None,
          deadline=None):
    """Full training run with optional early stopping.

    evaluate_fn(params) -> float is called on the schedule in `config`; when
    provided, the result carries the best-checkpoint parameters, otherwise
    the final ones. The trace is one JSON-able record per epoch:
    {"epoch", "loss", "metric", "timestamp"}, the timestamp ISO 8601 in UTC.

    deadline is a time.monotonic() timestamp; once an epoch finishes past
    it, training stops at that boundary (an epoch is never cut short).
    """
    keep_heap()
    rng = rng_for(config.seed, "training")
    optimizer = make_optimizer(config.optimizer, params)
    sampler = task = None
    if config.approach == "slcwa":
        sampler = NegativeSampler(store, kind=config.sampler,
                                  filtered=config.filtered_sampling)
    else:
        task = LCWATask(store)

    stopper = EarlyStopper(config.eval_frequency, config.patience) if evaluate_fn else None
    losses, trace = [], []
    skipped_total = 0
    trace_file = open(trace_path, "w", encoding="utf-8") if trace_path else None
    epochs_run = 0
    stopped = "epoch_cap"
    try:
        for epoch in range(1, config.num_epochs + 1):
            epochs_run = epoch
            loss, skipped = train_epoch(
                model, params, store, config, optimizer, rng, sampler=sampler, task=task
            )
            losses.append(loss)
            skipped_total += skipped

            metric = None
            stop = False
            if stopper and stopper.should_evaluate(epoch):
                metric = float(evaluate_fn(params))
                stop = stopper.update(epoch, metric, params)

            record = {
                "epoch": epoch,
                "loss": loss,
                "metric": metric,
                "timestamp": utc_timestamp(),
            }
            trace.append(record)
            if trace_file:
                trace_file.write(json.dumps(record) + "\n")
                trace_file.flush()
            if stop:
                stopped = "early_stop"
                log.info("early stop at epoch %d (best %.4f at epoch %d)",
                         epoch, stopper.best_metric, stopper.best_epoch)
                break
            if deadline is not None and time.monotonic() >= deadline:
                stopped = "deadline"
                log.info("stopping at epoch %d: wall-time budget reached", epoch)
                break
    finally:
        if trace_file:
            trace_file.close()

    if stopper and stopper.best_params is not None:
        final_params = stopper.best_params
        best_epoch, best_metric = stopper.best_epoch, stopper.best_metric
    else:
        # no validation ever ran, so there is no metric to report
        final_params = params
        best_epoch, best_metric = epochs_run, None
    return TrainResult(
        params=final_params,
        epochs_run=epochs_run,
        best_epoch=best_epoch,
        best_metric=best_metric,
        losses=losses,
        skipped_steps=skipped_total,
        trace=trace,
        stopped=stopped,
    )
