"""End-to-end acceptance gate.

Each test here checks one headline property of the whole stack at its stated
tolerance and wall-time budget: benchmark results on the bundled datasets,
gradient correctness across every score and loss, exact rank agreement with a
brute-force oracle, calibration of the adjusted mean rank, parameter
accounting, loss identities, sampler statistics, and bit-level reproducibility
of the training pipeline. Run with -s to see the measured values; each test
prints a single [PASS]/[FAIL] line with the numbers behind its verdict.

The benchmark studies (Kinships, UMLS-style cells) pin their search spaces to
the configuration families the library documents as strong for each model, so
a small random-search budget suffices; seeds are fixed, so the results are
reproducible to the digit.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import softmax

from kgembed.autodiff import Graph, finite_difference_check
from kgembed.cli import main
from kgembed.datasets import TripleStore, add_inverse_relations, relation_stats
from kgembed.evaluation import compute_ranks, rank_from_scores
from kgembed.hpo import Budget, SearchSpace, random_search
from kgembed.losses import (
    LossSpec,
    batch_loss,
    cel_loss,
    pointwise_loss,
)
from kgembed.models import (
    KINDS,
    InteractionSpec,
    build_interaction,
    init_parameters,
    parameter_count,
)
from kgembed.sampling import NegativeSampler
from kgembed.training import OptimizerSpec, TrainingConfig, train
from test_models import small_spec

DATA = Path(__file__).resolve().parents[1] / "data"


def verdict(ok, line):
    print(("[PASS] " if ok else "[FAIL] ") + line)
    assert ok, line


@pytest.fixture(scope="module")
def kinships():
    return TripleStore.from_directory(DATA / "kinships")


@pytest.fixture(scope="module")
def nations():
    return TripleStore.from_directory(DATA / "nations")


# ---------------------------------------------------------------------------
# 1-2: strong configurations reach their published-quality range on Kinships
# ---------------------------------------------------------------------------

def test_kinships_distmult_cel_one_to_all_with_inverse(kinships):
    space = SearchSpace(
        models=("distmult",), approaches=("lcwa",), lcwa_losses=("cel",),
        inverse_choices=(True,), embedding_dims=(128,), batch_sizes=(512,),
        optimizers=("adam",), learning_rate_range=(0.002, 0.02),
        label_smoothing_range=(0.005, 0.1), num_epochs=60,
    )
    t0 = time.monotonic()
    result = random_search(space, kinships, budget=Budget(max_trials=4),
                           master_seed=7, eval_frequency=10, patience=30)
    elapsed = time.monotonic() - t0
    hits = result.test_metrics["filtered"]["both"]["realistic"]["hits_at_10"]
    trials = len(result.records)
    verdict(
        hits >= 0.80 and trials <= 20 and elapsed <= 1800,
        f"distmult/cel/lcwa/inverse on kinships: test filtered realistic "
        f"hits@10 {hits:.4f} >= 0.80 ({trials} trials, {elapsed:.1f}s)",
    )


def test_kinships_complex_bcel_negative_sampling_with_inverse(kinships):
    space = SearchSpace(
        models=("complex",), approaches=("slcwa",), slcwa_losses=("bcel",),
        inverse_choices=(True,), embedding_dims=(64,), batch_sizes=(1024,),
        optimizers=("adam",), learning_rate_range=(0.015, 0.05),
        negatives_range=(4, 8), num_epochs=20,
    )
    t0 = time.monotonic()
    result = random_search(space, kinships, budget=Budget(max_trials=3),
                           master_seed=11, eval_frequency=5, patience=10)
    elapsed = time.monotonic() - t0
    hits = result.test_metrics["filtered"]["both"]["realistic"]["hits_at_10"]
    trials = len(result.records)
    verdict(
        hits >= 0.85 and trials <= 20 and elapsed <= 1800,
        f"complex/bcel/slcwa/inverse on kinships: test filtered realistic "
        f"hits@10 {hits:.4f} >= 0.85 ({trials} trials, {elapsed:.1f}s)",
    )


def _kinships_hits_at_10(kinships, kind, approach, epochs, seed):
    """Filtered test hits@10 of one fixed run on Kinships with inverse
    relations: d=64, bcel, Adam lr 0.02, B=256, uniform K=4 under sLCWA."""
    store = add_inverse_relations(kinships)
    model = build_interaction(InteractionSpec(
        kind=kind, num_entities=store.num_entities,
        num_relations=store.num_relations, d_e=64))
    config = TrainingConfig(
        approach=approach, loss=LossSpec("bcel"),
        optimizer=OptimizerSpec(kind="adam", lr=0.02), batch_size=256,
        num_epochs=epochs, num_negatives=4, sampler="uniform", seed=seed,
        eval_frequency=epochs, patience=epochs)
    result = train(model, init_parameters(model, seed), store, config)
    return compute_ranks(model, result.params, store, split="test").get("hits_at_10")


@pytest.mark.parametrize("kind, approach, epochs, floor", [
    ("hole", "slcwa", 8, 0.80),
    ("proje", "lcwa", 30, 0.75),
])
def test_kinships_logit_models_learn_under_bcel(kinships, kind, approach, epochs, floor):
    # HolE and ProjE return their logit; a sigmoid inside the score would
    # confine bcel's logits to (0, 1) and leave both near chance (about 0.1)
    t0 = time.monotonic()
    hits = [_kinships_hits_at_10(kinships, kind, approach, epochs, seed) for seed in (0, 1)]
    elapsed = time.monotonic() - t0
    verdict(
        min(hits) >= floor and elapsed <= 600,
        f"{kind}/bcel/{approach}/inverse on kinships, {epochs} epochs: test filtered "
        f"hits@10 {hits[0]:.4f}, {hits[1]:.4f} at seeds 0, 1 >= {floor} ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 3: a relation-blind score cannot fit a dataset made of relation types
# ---------------------------------------------------------------------------

def test_unstructured_baseline_stays_near_chance_on_kinships(kinships):
    # um scores ignore the relation entirely, so no draw should escape
    # chance-level ranking no matter what the study samples
    space = SearchSpace(
        models=("um",), embedding_dims=(32, 64), batch_sizes=(512,),
        negatives_range=(1, 16), num_epochs=20,
    )
    result = random_search(space, kinships, budget=Budget(max_trials=10),
                           master_seed=3, eval_frequency=5, patience=10)
    completed = [r for r in result.records if r.status == "completed"]
    worst_valid = max(r.metric for r in completed)
    hits = result.test_metrics["filtered"]["both"]["realistic"]["hits_at_10"]
    verdict(
        len(completed) == 10 and worst_valid <= 0.30 and hits <= 0.30,
        f"um on kinships: best validation hits@10 {worst_valid:.4f} and best "
        f"test hits@10 {hits:.4f} across 10 trials, both <= 0.30",
    )


# ---------------------------------------------------------------------------
# 4: gradients of every score and every loss vs finite differences
# ---------------------------------------------------------------------------

def _fd_score_kind(kind, points, step=1e-4):
    spec = small_spec(kind)
    model = build_interaction(spec)
    names = [name for name, _, _ in model.tensor_specs()]
    rng = np.random.default_rng(1000 + KINDS.index(kind))
    worst = 0.0
    seed = 0
    for _ in range(points):
        triples = np.stack(
            [
                rng.integers(0, spec.num_entities, 4),
                rng.integers(0, spec.num_relations, 4),
                rng.integers(0, spec.num_entities, 4),
            ],
            axis=1,
        )

        def build(g, *leaves):
            P = dict(zip(names, leaves))
            return model.score_triples(
                g, P, triples[:, 0], triples[:, 1], triples[:, 2]
            ).sum()

        for attempt in range(30):
            seed += 1
            params = init_parameters(model, seed)
            g = Graph()
            P = {n: g.leaf(params[n]) for n in names}
            model.score_triples(g, P, triples[:, 0], triples[:, 1], triples[:, 2])
            if g.min_kink_distance() <= 10 * step:
                continue  # too close to a relu/abs corner, redraw
            worst = max(worst, finite_difference_check(
                build, [params[n] for n in names], step=step))
            break
        else:
            pytest.fail(f"{kind}: no kink-free parameter draw in 30 attempts")
    return worst


LOSS_KINDS = ("square_error", "bcel", "spl", "pointwise_hinge",
              "mrl", "pairwise_logistic", "nssal", "cel")


def _fd_loss_kind(kind, points, step=1e-4):
    # pointwise and cel losses see a (rows, entities) score block; pairwise
    # ones see the (B, 1 + K) block of positives and their negatives. nssal
    # detaches its softmax weights, so the finite-difference oracle is the
    # same expression with the weights frozen at the base point, over a
    # positive vector plus its negatives.
    spec = LossSpec(kind, margin=0.75, adversarial_temperature=0.8)
    rng = np.random.default_rng(2000 + LOSS_KINDS.index(kind))
    labels = rng.integers(0, 2, size=(5, 7)).astype(float)
    labels[:, 0] = 1.0
    if kind == "cel":
        labels = labels / labels.sum(axis=1, keepdims=True)
    pairwise = kind in ("mrl", "pairwise_logistic")

    def builder(leaves):
        if kind == "nssal":
            w = softmax(spec.adversarial_temperature * leaves[1], axis=1)

            def build(g, p, n):
                pos = g.softplus(-(spec.margin + p))
                neg = (g.constant(w) * g.softplus(spec.margin + n)).sum(axis=1)
                return (pos + neg).mean()
        elif pairwise:
            def build(g, block):
                return batch_loss(g, spec, block)
        else:
            def build(g, s):
                return batch_loss(g, spec, s, labels)
        return build

    worst = 0.0
    for _ in range(points):
        if kind == "nssal":
            leaves = [rng.normal(0, 2, 6), rng.normal(0, 2, (6, 4))]
        elif pairwise:
            leaves = [rng.normal(0, 2, (6, 5))]
        else:
            leaves = [rng.normal(0, 2, (5, 7))]
        for _ in range(30):
            build = builder(leaves)
            g = Graph()
            build(g, *[g.leaf(v) for v in leaves])
            if g.min_kink_distance() <= 10 * step:
                leaves = [rng.normal(0, 2, v.shape) for v in leaves]
                continue  # a score sits on a hinge corner, redraw
            worst = max(worst, finite_difference_check(build, leaves, step=step))
            break
        else:
            pytest.fail(f"{kind}: no kink-free score draw in 30 attempts")
    return worst


def test_gradient_suite_every_score_and_loss():
    points = 50
    t0 = time.monotonic()
    worst_score = max(_fd_score_kind(kind, points) for kind in KINDS)
    worst_loss = max(_fd_loss_kind(kind, points) for kind in LOSS_KINDS)
    elapsed = time.monotonic() - t0
    worst = max(worst_score, worst_loss)
    verdict(
        worst <= 1e-4 and elapsed <= 300,
        f"finite differences, {len(KINDS)} scores + {len(LOSS_KINDS)} losses "
        f"x {points} points: worst relative error {worst:.2e} <= 1e-4 "
        f"({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 5: computed ranks equal a brute-force oracle exactly, ties included
# ---------------------------------------------------------------------------

def test_ranks_equal_brute_force_on_a_thousand_instances():
    from test_evaluation import brute_force_side, int_model, make_store

    rng = np.random.default_rng(42)
    t0 = time.monotonic()
    instances = ties = 0
    for _ in range(500):
        E = int(rng.integers(3, 21))
        R = int(rng.integers(1, 4))
        store = make_store(rng, E, R)
        model, params = int_model(rng, E, R)
        for filtered in (False, True):
            result = compute_ranks(model, params, store, split="test",
                                   filtered=filtered)
            for side in ("head", "tail"):
                o, p, c = brute_force_side(model, params, store, "test",
                                           side, filtered)
                sr = result.sides[side]
                assert np.array_equal(sr.by_definition("optimistic"), o)
                assert np.array_equal(sr.by_definition("pessimistic"), p)
                assert np.array_equal(sr.by_definition("realistic"), (o + p) / 2)
                assert np.array_equal(sr.candidates, c)
                ties += int(np.sum(o != p))
            instances += 1
    elapsed = time.monotonic() - t0
    verdict(
        instances == 1000 and ties > 0 and elapsed <= 60,
        f"ranks vs brute force: {instances} instances exact for all three "
        f"definitions, {ties} tied ranks exercised ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 6: a random scorer has adjusted mean rank 1 by construction
# ---------------------------------------------------------------------------

def test_untrained_model_scores_at_chance_on_nations(nations):
    t0 = time.monotonic()
    spec = InteractionSpec(kind="distmult", num_entities=nations.num_entities,
                           num_relations=nations.num_relations, d_e=32)
    model = build_interaction(spec)
    amrs = []
    for seed in range(10):
        params = init_parameters(model, seed)
        result = compute_ranks(model, params, nations, split="test",
                               filtered=False)
        amrs.append(result.get("amr"))
    mean_amr = float(np.mean(amrs))
    elapsed = time.monotonic() - t0
    verdict(
        0.9 <= mean_amr <= 1.1 and elapsed <= 120,
        f"untrained distmult on nations, unfiltered: mean amr over 10 seeds "
        f"{mean_amr:.4f} in [0.9, 1.1] ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 7: declared parameter counts match the materialized arrays
# ---------------------------------------------------------------------------

def test_parameter_counts_match_materialized_arrays():
    rng = np.random.default_rng(16)
    checked = 0
    for kind in KINDS:
        for _ in range(5):
            kw = dict(
                kind=kind,
                num_entities=int(rng.integers(2, 40)),
                num_relations=int(rng.integers(1, 12)),
                d_e=int(rng.choice([2, 4, 6])),
            )
            if kind == "conve":
                kw["d_e"] = int(rng.choice([8, 18, 32]))
                kw["tau"] = int(rng.integers(1, 5))
            if kind == "convkb":
                kw["tau"] = int(rng.integers(1, 7))
            if kind in ("transr", "tucker"):
                kw["d_r"] = int(rng.integers(2, 7))
            if kind in ("transd", "ntn", "ermlp"):
                kw["k"] = int(rng.integers(2, 7))
            spec = InteractionSpec(**kw)
            params = init_parameters(build_interaction(spec), 0)
            assert parameter_count(spec) == sum(v.size for v in params.values())
            checked += 1
    verdict(
        checked == len(KINDS) * 5,
        f"parameter counts: {len(KINDS)} kinds x 5 shapes match the "
        f"materialized arrays exactly",
    )


# ---------------------------------------------------------------------------
# 8: loss identities that must hold to machine precision
# ---------------------------------------------------------------------------

def test_loss_identities_hold_to_machine_precision():
    rng = np.random.default_rng(8)
    scores = rng.normal(0, 5, 1000)
    labels = rng.integers(0, 2, 1000).astype(float)
    worst = 0.0
    for i in range(1000):
        g = Graph()
        a = pointwise_loss(g, LossSpec("spl"), g.leaf([scores[i]]), [labels[i]])
        b = pointwise_loss(g, LossSpec("bcel"), g.leaf([scores[i]]), [labels[i]])
        worst = max(worst, abs(a.value - b.value))

    # a uniform label row against constant scores is exactly ln n
    worst_cel = 0.0
    for n in (2, 3, 7, 50, 104):
        for c in (-3.0, 0.0, 17.5):
            g = Graph()
            loss = cel_loss(g, LossSpec("cel"), g.leaf(np.full((1, n), c)),
                            np.full((1, n), 1.0 / n))
            worst_cel = max(worst_cel, abs(loss.value - np.log(n)))
    verdict(
        worst <= 1e-12 and worst_cel <= 1e-12,
        f"loss identities: |spl - bcel| <= {worst:.2e} over 1000 inputs, "
        f"|cel(uniform) - ln n| <= {worst_cel:.2e}, both <= 1e-12",
    )


# ---------------------------------------------------------------------------
# 9: cardinality-aware corruption picks sides at the documented frequency
# ---------------------------------------------------------------------------

def test_bernoulli_corruption_frequencies_match_cardinality_stats():
    # r0: one head fans out to three tails, so heads are the risky side to
    # corrupt and should be picked with probability 3/4; r1 mirrors it; r2
    # is one-to-one and splits evenly
    rows = [
        ("e0", "r0", "e1"), ("e0", "r0", "e2"), ("e0", "r0", "e3"),
        ("e4", "r1", "e7"), ("e5", "r1", "e7"), ("e6", "r1", "e7"),
        ("e8", "r2", "e9"), ("e1", "r2", "e4"),
    ]
    store = TripleStore.from_labeled_triples(rows)
    tph, hpt = relation_stats(store)
    expected = tph / (tph + hpt)
    assert np.allclose(expected, [0.75, 0.25, 0.5])

    sampler = NegativeSampler(store, kind="bernoulli")
    rng = np.random.default_rng(9)
    draws = 100_000
    worst = 0.0
    freqs = []
    for r, (h, t) in enumerate([(0, 1), (4, 7), (8, 9)]):
        assert sampler.head_prob[r] == expected[r]
        neg = sampler.corrupt(rng, np.array([[h, r, t]]), draws)
        freq = float(np.mean(neg[0, :, 0] != h))
        freqs.append(freq)
        worst = max(worst, abs(freq - expected[r]))
    verdict(
        worst <= 0.01,
        f"bernoulli corruption: head frequencies {[f'{f:.4f}' for f in freqs]} "
        f"vs expected [0.75, 0.25, 0.5], max gap {worst:.4f} <= 0.01 "
        f"over {draws} draws each",
    )


# ---------------------------------------------------------------------------
# 10: the training pipeline is reproducible end to end
# ---------------------------------------------------------------------------

def _max_metric_gap(a, b):
    assert sorted(a) == sorted(b)
    gap = 0.0
    for key, val in a.items():
        if isinstance(val, dict):
            gap = max(gap, _max_metric_gap(val, b[key]))
        else:
            gap = max(gap, abs(float(val) - float(b[key])))
    return gap


def test_training_runs_are_metric_identical(tmp_path):
    doc = {
        "dataset": {split: str(DATA / "nations" / f"{split}.txt")
                    for split in ("train", "valid", "test")},
        "model": {"kind": "distmult", "d_e": 16},
        "training": {
            "approach": "lcwa",
            "loss": {"kind": "cel"},
            "batch_size": 256,
            "num_epochs": 20,
            "optimizer": {"kind": "adam", "learning_rate": 0.05},
        },
        "early_stopping": {"frequency": 5, "patience": 10},
        "seed": 11,
        "output_dir": str(tmp_path / "default"),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(doc))
    results = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["train", str(cfg_path), "--output-dir", str(out)]) == 0
        results.append(json.loads((out / "result.json").read_text())["metrics"])
    gap = _max_metric_gap(results[0], results[1])
    verdict(
        gap <= 1e-9,
        f"repeated training with one seed: largest metric gap {gap:.2e} <= 1e-9",
    )
