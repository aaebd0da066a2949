"""Each check passes on the program's honest output and fails on a broken one."""

import json
import os

import numpy as np
import pytest

import checks
from kgembed import evaluation
from kgembed.datasets import FilterIndex, TripleStore
from kgembed.losses import LossSpec
from kgembed.models import InteractionSpec, build_interaction, init_parameters
from kgembed.sampling import LCWATask, NegativeSampler
from kgembed.training import OptimizerSpec, TrainingConfig, train

from conftest import ROOT

NATIONS = os.path.join(ROOT, "data", "nations")


@pytest.fixture(scope="module")
def nations():
    store = TripleStore.from_directory(NATIONS)
    own = checks.OwnGraph(NATIONS)
    model = build_interaction(InteractionSpec(kind="distmult", num_entities=store.num_entities,
                                              num_relations=store.num_relations, d_e=16))
    config = TrainingConfig(approach="lcwa", loss=LossSpec("cel"),
                            optimizer=OptimizerSpec(lr=0.05), batch_size=128,
                            num_epochs=3, eval_frequency=3, patience=3)
    params = train(model, init_parameters(model, 0), store, config).params
    return store, own, model, params


def run_check(check, *args, **kwargs):
    checker = checks.Checker()
    check(checker, "case", *args, **kwargs)
    return checker


def test_ranks_match_brute_force_and_a_shuffled_score_matrix_does_not(nations,
                                                                      monkeypatch):
    store, own, model, params = nations
    sample = np.arange(0, store.num_triples("test"), 7)
    for filtered in (True, False):
        honest = evaluation.compute_ranks(model, params, store, filtered=filtered)
        checker = run_check(checks.check_ranks, model, params, own, honest, sample,
                            use_inverse=False)
        checks.check_rank_bounds(checker, "case", honest)
        assert checker.correct, checker.problems

    original = evaluation._score_matrix
    perm = np.random.default_rng(0).permutation(store.num_entities)
    monkeypatch.setattr(evaluation, "_score_matrix",
                        lambda *args: original(*args)[:, perm])
    shuffled = evaluation.compute_ranks(model, params, store, filtered=True)
    checker = run_check(checks.check_ranks, model, params, own, shuffled, sample,
                        use_inverse=False)
    assert not checker.correct


def test_rank_bounds_catch_an_optimistic_rank_above_the_pessimistic(nations):
    store, own, model, params = nations
    ranking = evaluation.compute_ranks(model, params, store, filtered=True)
    ranking.sides["tail"].optimistic[3] = ranking.sides["tail"].pessimistic[3] + 1
    assert not run_check(checks.check_rank_bounds, ranking).correct


def test_one_to_all_rows_agree_with_triple_scores_and_a_nudge_is_caught(nations,
                                                                       monkeypatch):
    store, own, model, params = nations
    triples = own.rows["test"][:3]
    assert run_check(checks.check_scores_agree, model, params, triples).correct
    original = model.score_all_heads
    monkeypatch.setattr(model, "score_all_heads",
                        lambda p, r, t: original(p, r, t) + 1e-8)
    assert not run_check(checks.check_scores_agree, model, params, triples).correct


def test_label_rows_match_own_multi_hot_rows_and_a_wrong_row_does_not(nations,
                                                                    monkeypatch):
    store, own, _, _ = nations
    task = LCWATask(store)
    sample = np.arange(0, len(task), 5)
    assert run_check(checks.check_label_rows, task, own, sample).correct

    original = task.label_matrix

    def wrong(indices):
        rows = original(indices)
        rows[0, 0] = 1.0 - rows[0, 0]
        return rows

    monkeypatch.setattr(task, "label_matrix", wrong)
    assert not run_check(checks.check_label_rows, task, own, sample).correct


def sampled(store, filtered):
    positives = store.triples["train"][:200]
    fi = FilterIndex(store, splits=("train",)) if filtered else None
    sampler = NegativeSampler(store, kind="bernoulli", filtered=filtered, filter_index=fi)
    return positives, sampler.corrupt(np.random.default_rng(1), positives, 4)


def test_sampler_invariants_hold_and_each_breach_is_caught(nations):
    store, own, _, _ = nations
    cap = NegativeSampler.MAX_REDRAWS
    positives, negatives = sampled(store, filtered=True)
    checker = checks.Checker()
    excused = checks.check_negatives(checker, "case", own, positives, negatives,
                                     max_redraws=cap)
    assert checker.correct, checker.problems
    known = own.is_known(negatives.reshape(-1, 3), train_only=True)
    assert excused == int(np.sum(known))

    # positives where twenty redraws cannot plausibly all land on true triples
    p = positives.astype(np.int64)
    share = lambda n: (n / own.num_entities) ** cap
    free = np.flatnonzero(
        (share(own.train_tail_counts(p[:, 0], p[:, 1])) < checks.CAP_REACHABLE)
        & (share(own.train_head_counts(p[:, 1], p[:, 2])) < checks.CAP_REACHABLE))
    assert free.size >= 2
    i = free[0]
    itself = negatives.copy()
    itself[i, 0] = positives[i]
    # the positive returned as its own negative, filtered or not
    assert not run_check(checks.check_negatives, own, positives, itself,
                         max_redraws=cap).correct
    assert not run_check(checks.check_negatives, own, positives, itself).correct

    other = np.flatnonzero((own.rows["train"][:, 0] == p[i, 0])
                           & (own.rows["train"][:, 1] == p[i, 1])
                           & (own.rows["train"][:, 2] != p[i, 2]))
    assert other.size
    true_negative = negatives.copy()
    true_negative[i, 0] = own.rows["train"][other[0]]
    # a different known training triple, with the tail side far from the cap
    assert not run_check(checks.check_negatives, own, positives, true_negative,
                         max_redraws=cap).correct

    relation = negatives.copy()
    relation[0, 0, 1] = (relation[0, 0, 1] + 1) % store.num_relations
    assert not run_check(checks.check_negatives, own, positives, relation).correct

    j = free[1]
    both_sides = negatives.copy()
    both_sides[j, 0, 0] = (positives[j, 0] + 1) % store.num_entities
    both_sides[j, 0, 2] = (positives[j, 2] + 1) % store.num_entities
    assert not run_check(checks.check_negatives, own, positives, both_sides,
                         max_redraws=cap).correct
    assert not run_check(checks.check_negatives, own, positives, both_sides).correct

    out_of_range = negatives.copy()
    out_of_range[1, 1, 0] = store.num_entities
    assert not run_check(checks.check_negatives, own, positives, out_of_range).correct


def test_amr_round_trip_and_repeat_checks():
    assert run_check(checks.check_amr, [0.4, 0.9]).correct
    assert not run_check(checks.check_amr, [0.9, 1.2]).correct
    doc = {"both": {"realistic": {"hits_at_10": 0.5}}}
    assert run_check(checks.check_same_metrics, doc, json.loads(json.dumps(doc))).correct
    assert not run_check(checks.check_same_metrics, doc,
                         {"both": {"realistic": {"hits_at_10": 0.25}}}).correct
    assert run_check(checks.check_rounds_repeat, [[0.5, 0.7], [0.5, 0.7]]).correct
    assert not run_check(checks.check_rounds_repeat, [[0.5, 0.7], [0.5, 0.75]]).correct
