"""Optimizers, training loops, early stopping, divergence handling."""

import time
from dataclasses import asdict

import numpy as np
import pytest

from kgembed.datasets import SPLITS, FilterIndex, TripleStore
from kgembed.losses import LossSpec
from kgembed.models import MAX_WIDTH, InteractionSpec, build_interaction, init_parameters
from kgembed.training import (
    Adadelta,
    Adam,
    DivergenceError,
    EarlyStopper,
    OptimizerSpec,
    TrainingConfig,
    TrainResult,
    make_optimizer,
    train,
    train_epoch,
)
from kgembed.sampling import rng_for, NegativeSampler


def toy_store():
    train = [
        ("a", "r0", "b"), ("a", "r0", "c"), ("b", "r0", "c"),
        ("c", "r1", "a"), ("d", "r1", "a"), ("b", "r1", "d"),
        ("d", "r0", "e"), ("e", "r1", "b"), ("a", "r1", "e"),
    ]
    valid = [("b", "r0", "d"), ("c", "r1", "e")]
    test = [("e", "r0", "a")]
    return TripleStore.from_labeled_triples(train, valid, test)


def toy_model(kind="distmult", d=8, seed=0, store=None, **kw):
    store = store or toy_store()
    spec = InteractionSpec(
        kind=kind, num_entities=store.num_entities,
        num_relations=store.num_relations, d_e=d, **kw
    )
    model = build_interaction(spec)
    return store, model, init_parameters(model, seed)


# ---------------------------------------------------------------------------
# optimizer specs and update rules
# ---------------------------------------------------------------------------

def test_optimizer_spec_validation_and_eps_defaults():
    with pytest.raises(ValueError, match="kind: must be 'adam' or 'adadelta'"):
        OptimizerSpec(kind="sgd")
    with pytest.raises(ValueError, match="lr: must be positive"):
        OptimizerSpec(lr=0.0)
    assert OptimizerSpec(kind="adam").eps == 1e-8
    assert OptimizerSpec(kind="adadelta").eps == 1e-6
    spec = OptimizerSpec(kind="adadelta", lr=0.5, rho=0.9)
    assert OptimizerSpec(**asdict(spec)) == spec


def test_adam_first_step_closed_form():
    # with zero state the bias corrections cancel: update = -lr * g / (|g| + eps)
    spec = OptimizerSpec(kind="adam", lr=0.1)
    params = {"w": np.array([1.0, -2.0, 0.5])}
    grads = {"w": np.array([3.0, -4.0, 0.0])}
    opt = Adam(spec, params)
    opt.step(params, grads)
    g = grads["w"]
    want = np.array([1.0, -2.0, 0.5]) - 0.1 * g / (np.abs(g) + 1e-8)
    assert np.allclose(params["w"], want, atol=1e-12)


def test_adam_constant_gradient_keeps_unit_scaled_steps():
    spec = OptimizerSpec(kind="adam", lr=0.1)
    params = {"w": np.zeros(3)}
    g = np.array([2.0, -5.0, 0.25])
    opt = Adam(spec, params)
    for _ in range(4):
        opt.step(params, {"w": g.copy()})
    want = -4 * 0.1 * g / (np.abs(g) + 1e-8)
    assert np.allclose(params["w"], want, atol=1e-10)


def test_adadelta_first_step_closed_form():
    spec = OptimizerSpec(kind="adadelta", lr=1.0, rho=0.95)
    params = {"w": np.array([0.0, 1.0])}
    g = np.array([2.0, -0.5])
    opt = Adadelta(spec, params)
    opt.step(params, {"w": g.copy()})
    sq = 0.05 * g * g
    delta = np.sqrt(1e-6 / (sq + 1e-6)) * g
    assert np.allclose(params["w"], np.array([0.0, 1.0]) - delta, atol=1e-12)
    assert np.allclose(opt.sq_delta["w"], 0.05 * delta * delta, atol=1e-15)


def _textbook_adam(spec, params, grads_per_step):
    # the update rule written as plain expressions, one temporary per operation
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(x) for k, x in params.items()}
    for t, grads in enumerate(grads_per_step, start=1):
        c1 = 1.0 - spec.beta1 ** t
        c2 = 1.0 - spec.beta2 ** t
        for k, g in grads.items():
            m[k] = spec.beta1 * m[k] + (1.0 - spec.beta1) * g
            v[k] = spec.beta2 * v[k] + (1.0 - spec.beta2) * (g * g)
            params[k] = params[k] - spec.lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + spec.eps)
    return params


def _textbook_adadelta(spec, params, grads_per_step):
    sq = {k: np.zeros_like(v) for k, v in params.items()}
    acc = {k: np.zeros_like(v) for k, v in params.items()}
    for grads in grads_per_step:
        for k, g in grads.items():
            sq[k] = spec.rho * sq[k] + (1.0 - spec.rho) * (g * g)
            delta = np.sqrt((acc[k] + spec.eps) / (sq[k] + spec.eps)) * g
            acc[k] = spec.rho * acc[k] + (1.0 - spec.rho) * (delta * delta)
            params[k] = params[k] - spec.lr * delta
    return params


@pytest.mark.parametrize("kind", ["adam", "adadelta"])
def test_in_place_optimizers_are_bit_identical_to_the_formulas(kind):
    rng = np.random.default_rng(3)
    spec = OptimizerSpec(kind=kind, lr=0.05)
    start = {"big": rng.normal(size=(7, 5)), "small": rng.normal(size=(3,)),
             "frozen": rng.normal(size=(2, 2))}
    # tensors of different sizes share the scratch buffers; "frozen" never
    # has a gradient and the sparse-looking rows of "big" stay exactly zero
    grads_per_step = []
    for _ in range(5):
        big = rng.normal(size=(7, 5))
        big[rng.random(7) < 0.4] = 0.0
        grads_per_step.append({"big": big, "small": rng.normal(size=(3,)) * 1e-3})
    want = (_textbook_adam if kind == "adam" else _textbook_adadelta)(
        spec, {k: v.copy() for k, v in start.items()}, grads_per_step)
    params = {k: v.copy() for k, v in start.items()}
    opt = make_optimizer(spec, params)
    for grads in grads_per_step:
        kept = {k: g.copy() for k, g in grads.items()}
        opt.step(params, grads)
        for k in grads:
            assert np.array_equal(grads[k], kept[k])  # gradients are read only
    for k in start:
        assert np.array_equal(params[k], want[k]), k


def test_make_optimizer_dispatch():
    params = {"w": np.zeros(2)}
    assert isinstance(make_optimizer(OptimizerSpec(kind="adam"), params), Adam)
    assert isinstance(make_optimizer(OptimizerSpec(kind="adadelta"), params), Adadelta)


def test_optimizers_only_touch_tensors_with_gradients():
    spec = OptimizerSpec(kind="adam", lr=0.1)
    params = {"a": np.ones(2), "b": np.ones(2)}
    opt = Adam(spec, params)
    opt.step(params, {"a": np.ones(2)})
    assert not np.array_equal(params["a"], np.ones(2))
    assert np.array_equal(params["b"], np.ones(2))


# ---------------------------------------------------------------------------
# training config
# ---------------------------------------------------------------------------

def test_training_config_rejects_incompatible_loss():
    with pytest.raises(ValueError, match="cannot be trained with the lcwa approach"):
        TrainingConfig(approach="lcwa", loss=LossSpec("mrl"))
    with pytest.raises(ValueError, match="requires the lcwa approach"):
        TrainingConfig(approach="slcwa", loss=LossSpec("cel"))
    with pytest.raises(ValueError, match="approach: must be 'slcwa' or 'lcwa'"):
        TrainingConfig(approach="full-batch")
    with pytest.raises(ValueError, match="negative"):
        TrainingConfig(approach="slcwa", num_negatives=0)
    with pytest.raises(ValueError, match="num_negatives: must lie in"):
        TrainingConfig(approach="slcwa", num_negatives=MAX_WIDTH + 1)
    with pytest.raises(ValueError, match="batch_size: must be >= 1"):
        TrainingConfig(batch_size=0)
    with pytest.raises(ValueError, match="patience: must be >= frequency"):
        TrainingConfig(eval_frequency=10, patience=5)


def test_training_config_accepts_compatible_pairs():
    TrainingConfig(approach="slcwa", loss=LossSpec("nssal"))
    TrainingConfig(approach="lcwa", loss=LossSpec("cel"))
    TrainingConfig(approach="lcwa", loss=LossSpec("bcel"))


# ---------------------------------------------------------------------------
# epochs
# ---------------------------------------------------------------------------

def test_slcwa_epoch_decreases_loss():
    store, model, params = toy_model()
    config = TrainingConfig(
        approach="slcwa", loss=LossSpec("mrl", margin=1.0),
        optimizer=OptimizerSpec(kind="adam", lr=0.05),
        batch_size=4, num_negatives=4,
    )
    opt = make_optimizer(config.optimizer, params)
    rng = rng_for(0, "training")
    sampler = NegativeSampler(store, kind=config.sampler)
    losses = []
    for _ in range(15):
        loss, skipped = train_epoch(
            model, params, store, config, opt, rng, sampler=sampler
        )
        assert skipped == 0
        losses.append(loss)
    assert losses[-1] < losses[0]


def test_lcwa_epoch_decreases_loss():
    from kgembed.sampling import LCWATask

    store, model, params = toy_model()
    config = TrainingConfig(
        approach="lcwa", loss=LossSpec("cel"),
        optimizer=OptimizerSpec(kind="adam", lr=0.05),
        batch_size=8, label_smoothing=0.1,
    )
    opt = make_optimizer(config.optimizer, params)
    rng = rng_for(1, "training")
    task = LCWATask(store)
    losses = [
        train_epoch(model, params, store, config, opt, rng, task=task)[0]
        for _ in range(15)
    ]
    assert losses[-1] < losses[0]


def test_lcwa_cel_step_allocation_budget():
    # one distmult/cel 1-N step with label smoothing, B=256 and E=600, must
    # allocate at most four (B, E) float64 arrays' worth above its baseline:
    # the scores, the softmax buffer that becomes the score gradient, and
    # the (E, d) tables' gradients and temporaries (3.4 measured); the labels
    # are read by position, never as a (B, E) array
    import tracemalloc

    from kgembed.sampling import LCWATask

    E, B = 600, 256
    train = [(f"e{h}", "r", f"e{(h * 7 + k) % E}") for h in range(B) for k in (1, 2, 3)]
    train += [(f"e{e % B}", "r", f"e{e}") for e in range(B, E)]
    store = TripleStore.from_labeled_triples(train)
    task = LCWATask(store)
    assert (store.num_entities, len(task)) == (E, B)  # one epoch is one step
    _, model, params = toy_model(d=64, store=store)
    config = TrainingConfig(approach="lcwa", loss=LossSpec("cel"), label_smoothing=0.1,
                            batch_size=B)
    opt = make_optimizer(config.optimizer, params)
    rng = rng_for(0, "training")
    train_epoch(model, params, store, config, opt, rng, task=task)  # warm up
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        train_epoch(model, params, store, config, opt, rng, task=task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - baseline <= 4 * B * E * 8, (peak - baseline) / (B * E * 8)


def test_lcwa_cel_epoch_builds_no_label_matrix(monkeypatch):
    # the cross entropy reads each batch's known tails by position: no dense
    # label rows, and no graph node past the scores as large as them
    from kgembed.autodiff import Graph
    from kgembed.sampling import LCWATask

    def refuse(self, indices, epsilon=0.0):
        raise AssertionError("the cel path built a dense label matrix")

    store, model, params = toy_model()
    task = LCWATask(store)
    monkeypatch.setattr(LCWATask, "label_matrix", refuse)
    swept, backward = [], Graph.backward
    monkeypatch.setattr(Graph, "backward",
                        lambda g, loss: swept.append((g, loss)) or backward(g, loss))
    config = TrainingConfig(approach="lcwa", loss=LossSpec("cel"), label_smoothing=0.1,
                            batch_size=4)
    train_epoch(model, params, store, config, make_optimizer(config.optimizer, params),
                rng_for(0, "training"), task=task)
    assert len(swept) == -(-len(task) // 4)
    for g, loss in swept:
        (xent,) = [node for node in g.nodes if node.op == "softmax_xent"]
        scores = xent.parents[0]
        assert [node.op for node in g.nodes[scores.id + 1 :]] == ["softmax_xent", "mean"]
        assert not any(node.op == "leaf" and node.shape == scores.shape for node in g.nodes)


def test_pointwise_slcwa_loss_reads_the_score_block(monkeypatch):
    # one bcel sLCWA step: the loss reads the (B, 1 + K) score node against
    # the label row [1, 0, ..., 0], so no node slices it or concatenates it
    # back together on the way to the loss
    from kgembed.autodiff import Graph

    store, model, params = toy_model()
    config = TrainingConfig(approach="slcwa", loss=LossSpec("bcel"), batch_size=16,
                            num_negatives=3)
    scored, swept = [], []
    score_triples, backward = model.score_triples, Graph.backward
    monkeypatch.setattr(model, "score_triples",
                        lambda *a: scored.append(score_triples(*a)) or scored[-1])
    monkeypatch.setattr(Graph, "backward",
                        lambda g, loss: swept.append((g, loss)) or backward(g, loss))
    train_epoch(model, params, store, config, make_optimizer(config.optimizer, params),
                rng_for(0, "training"), sampler=NegativeSampler(store))
    (scores,), ((g, loss),) = scored, swept
    assert scores.shape == (9, 4)
    ops = {node.op for node in g.nodes[scores.id + 1 : loss.id + 1]}
    assert not ops & {"concat", "slice"}, ops


def test_tucker_slcwa_step_contracts_the_core_once_per_positive(monkeypatch):
    # the core meets each positive's relation row once, so no einsum2 node
    # of the step holds a (d, d) matrix per scored triple: B·(1+K)·d·d values
    from kgembed.autodiff import Graph

    d, K = 8, 3
    store, model, params = toy_model("tucker", d=d)
    config = TrainingConfig(approach="slcwa", loss=LossSpec("bcel"), batch_size=16,
                            num_negatives=K)
    swept, backward = [], Graph.backward
    monkeypatch.setattr(Graph, "backward",
                        lambda g, loss: swept.append(g) or backward(g, loss))
    train_epoch(model, params, store, config, make_optimizer(config.optimizer, params),
                rng_for(0, "training"), sampler=NegativeSampler(store))
    (g,) = swept
    B = store.num_triples("train")
    sizes = [node.value.size for node in g.nodes if node.op == "einsum2"]
    assert max(sizes) == B * d * d
    assert B * (1 + K) * d * d not in sizes


def test_epoch_raises_when_everything_diverged():
    store, model, params = toy_model()
    for name in params:
        params[name] = np.full_like(params[name], 1e200)
    config = TrainingConfig(
        approach="slcwa", loss=LossSpec("square_error"), batch_size=4
    )
    opt = make_optimizer(config.optimizer, params)
    sampler = NegativeSampler(store)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="skipped"):
            train_epoch(
                model, params, store, config, opt, rng_for(2, "training"), sampler=sampler
            )


# ---------------------------------------------------------------------------
# early stopper
# ---------------------------------------------------------------------------

def test_early_stopper_schedule_and_patience():
    stopper = EarlyStopper(frequency=2, patience=4)
    assert not stopper.should_evaluate(1)
    assert stopper.should_evaluate(2)
    assert stopper.should_evaluate(4)
    params = {"w": np.array([1.0])}
    assert not stopper.update(2, 0.5, params)   # best so far
    assert not stopper.update(4, 0.4, params)   # 4 - 2 < 4
    assert stopper.update(6, 0.3, params)       # 6 - 2 >= 4
    assert stopper.best_epoch == 2
    assert stopper.best_metric == 0.5


def test_early_stopper_improvement_resets_patience():
    stopper = EarlyStopper(frequency=1, patience=2)
    p = {"w": np.zeros(1)}
    assert not stopper.update(1, 0.1, p)
    assert not stopper.update(2, 0.2, p)
    assert not stopper.update(3, 0.3, p)  # keeps improving, never stops
    assert stopper.update(5, 0.1, p)
    assert stopper.best_epoch == 3


def test_early_stopper_checkpoints_are_copies():
    stopper = EarlyStopper(frequency=1, patience=2)
    params = {"w": np.array([1.0, 2.0])}
    stopper.update(1, 0.9, params)
    params["w"][0] = 99.0  # later training must not leak into the checkpoint
    assert np.array_equal(stopper.best_params["w"], [1.0, 2.0])


def test_early_stopper_validates_patience():
    with pytest.raises(ValueError, match="patience: must be >= frequency"):
        EarlyStopper(frequency=10, patience=5)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def run_config(**kw):
    base = dict(
        approach="slcwa", loss=LossSpec("mrl"),
        optimizer=OptimizerSpec(kind="adam", lr=0.05),
        batch_size=6, num_epochs=8, num_negatives=4, seed=11,
    )
    base.update(kw)
    return TrainingConfig(**base)


def test_train_without_validation_runs_to_epoch_cap():
    store, model, params = toy_model()
    result = train(model, params, store, run_config())
    assert isinstance(result, TrainResult)
    assert result.epochs_run == 8
    assert result.stopped == "epoch_cap"
    assert result.best_epoch == 8
    assert result.best_metric is None
    assert len(result.losses) == 8
    assert len(result.trace) == 8
    assert result.params is params  # no checkpoint, the live params come back


def test_train_is_deterministic_in_seed():
    def one(seed):
        store, model, params = toy_model(seed=7)
        result = train(model, params, store, run_config(seed=seed))
        return result

    a, b, c = one(3), one(3), one(4)
    assert a.losses == b.losses
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k])
    assert a.losses != c.losses


def test_train_early_stops_on_scripted_metric():
    store, model, params = toy_model()
    script = {2: 0.9, 4: 0.5, 6: 0.4, 8: 0.3, 10: 0.2}
    snapshots = {}

    def fake_eval(p):
        epoch = max(snapshots, default=0) + 2
        snapshots[epoch] = {k: v.copy() for k, v in p.items()}
        return script[epoch]

    config = run_config(num_epochs=50, eval_frequency=2, patience=4)
    result = train(model, params, store, config, evaluate_fn=fake_eval)
    assert result.stopped == "early_stop"
    assert result.epochs_run == 6  # best at 2, patience 4
    assert result.best_epoch == 2
    assert result.best_metric == 0.9
    for k in result.params:  # returned params are the epoch-2 checkpoint
        assert np.array_equal(result.params[k], snapshots[2][k])
    # the live parameters kept training after the checkpoint
    assert any(not np.array_equal(params[k], result.params[k]) for k in params)


def test_train_records_metrics_in_trace(tmp_path):
    import json

    store, model, params = toy_model()
    trace_path = tmp_path / "trace.jsonl"
    config = run_config(num_epochs=4, eval_frequency=2, patience=2)
    result = train(
        model, params, store, config,
        evaluate_fn=lambda p: 0.5, trace_path=str(trace_path),
    )
    lines = [json.loads(s) for s in trace_path.read_text().splitlines()]
    assert len(lines) == result.epochs_run
    for rec in lines:
        assert set(rec) == {"epoch", "loss", "metric", "timestamp"}
    assert lines[0]["metric"] is None
    assert lines[1]["metric"] == 0.5


def test_train_respects_deadline_at_epoch_boundary():
    store, model, params = toy_model()
    config = run_config(num_epochs=1000)
    result = train(
        model, params, store, config, deadline=time.monotonic() - 1.0
    )
    assert result.epochs_run == 1  # the running epoch finishes, then we stop
    assert result.stopped == "deadline"


def test_train_applies_parameter_projection():
    store, model, params = toy_model(kind="kg2e", d=4)
    config = run_config(
        loss=LossSpec("mrl", margin=2.0), num_epochs=3,
        optimizer=OptimizerSpec(kind="adam", lr=0.5),
    )
    result = train(model, params, store, config)
    spec = model.spec
    assert np.all(result.params["entity_cov"] >= spec.c_min)
    assert np.all(result.params["entity_cov"] <= spec.c_max)
    assert np.all(result.params["relation_cov"] >= spec.c_min)


def test_train_with_bernoulli_and_filtered_sampling():
    store, model, params = toy_model()
    config = run_config(sampler="bernoulli", filtered_sampling=True, num_epochs=2)
    result = train(model, params, store, config)
    assert result.epochs_run == 2
    assert np.isfinite(result.losses[-1])


def test_bernoulli_filtered_training_builds_one_index(monkeypatch):
    # the filtered sampler and its Bernoulli relation stats share one
    # training-split index; an unfiltered Bernoulli run builds one for the stats
    built = []
    init = FilterIndex.__init__

    def counting_init(self, store, splits=SPLITS):
        built.append(tuple(splits))
        init(self, store, splits)

    monkeypatch.setattr(FilterIndex, "__init__", counting_init)
    for filtered in (True, False):
        built.clear()
        store, model, params = toy_model()
        config = run_config(sampler="bernoulli", filtered_sampling=filtered, num_epochs=1)
        train(model, params, store, config)
        assert built == [("train",)]


def test_train_lcwa_end_to_end_with_early_stopping():
    from kgembed.evaluation import make_validation_callback

    store, model, params = toy_model()
    config = TrainingConfig(
        approach="lcwa", loss=LossSpec("cel"),
        optimizer=OptimizerSpec(kind="adam", lr=0.05),
        batch_size=8, num_epochs=12, label_smoothing=0.05,
        seed=5, eval_frequency=3, patience=6,
    )
    cb = make_validation_callback(model, store)
    result = train(model, params, store, config, evaluate_fn=cb)
    assert result.epochs_run <= 12
    assert 0.0 <= result.best_metric <= 1.0
    assert result.best_epoch % 3 == 0


def test_simple_clamps_scores_in_loss_path_only():
    # huge simple embeddings make raw scores exceed the clamp; the training
    # loss stays finite because the loss path clips to [-20, 20]
    store, model, params = toy_model(kind="simple", d=4)
    for name in params:
        params[name] = np.full_like(params[name], 4.0)
    raw = model.score(params, 0, 0, 1)
    assert abs(raw) > 20.0  # evaluation sees the unclamped value
    config = run_config(loss=LossSpec("bcel"), num_epochs=1,
                        optimizer=OptimizerSpec(kind="adam", lr=1e-4))
    result = train(model, params, store, config)
    assert np.isfinite(result.losses[0])
    assert result.losses[0] <= 25.0  # bounded by the clamp, not by the raw scores
