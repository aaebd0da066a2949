"""Rank computation against brute-force oracles, tie handling, metrics."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kgembed import evaluation
from kgembed.datasets import SPLITS, FilterIndex, TripleStore, add_inverse_relations
from kgembed.evaluation import (
    FIRST_CHUNK_ROWS,
    RANK_DEFINITIONS,
    SIDES,
    SideRanks,
    compute_ranks,
    make_validation_callback,
    rank_from_scores,
    rank_test_split,
)
from kgembed.models import KINDS, InteractionSpec, build_interaction, init_parameters

DATA = Path(__file__).resolve().parents[1] / "data"


def make_store(rng, E, R, n_train=15, n_eval=6):
    mk = lambda n: rng.integers(0, [E, R, E], size=(n, 3))
    return TripleStore(
        {f"e{i}": i for i in range(E)},
        {f"r{i}": i for i in range(R)},
        {"train": mk(n_train), "valid": mk(n_eval), "test": mk(n_eval)},
    )


def int_model(rng, E, R, kind="distmult", d=2):
    # integer-valued embeddings keep float64 arithmetic exact, so the batched
    # and scalar scoring paths agree bitwise and ties are plentiful
    spec = InteractionSpec(kind=kind, num_entities=E, num_relations=R, d_e=d)
    model = build_interaction(spec)
    params = init_parameters(model, 0)
    for name in params:
        params[name] = rng.integers(-2, 3, params[name].shape).astype(np.float64)
    return model, params


def brute_force_side(model, params, store, split, side, filtered, use_inverse=False,
                     splits=SPLITS):
    fi = FilterIndex(store, splits=splits) if filtered else None
    E = store.num_entities
    R = store.num_base_relations
    opt, pess, cand = [], [], []
    for h, r, t in store.triples[split]:
        if side == "tail":
            scores = np.array([model.score(params, h, r, e) for e in range(E)])
            target, known = t, (fi.completions("tail", [h], [r])[1] if filtered else [])
        elif use_inverse:
            scores = np.array([model.score(params, t, r + R, e) for e in range(E)])
            target, known = h, (fi.completions("head", [r], [t])[1] if filtered else [])
        else:
            scores = np.array([model.score(params, e, r, t) for e in range(E)])
            target, known = h, (fi.completions("head", [r], [t])[1] if filtered else [])
        candidates = [e for e in range(E) if e != target and e not in set(map(int, known))]
        o, p, _ = rank_from_scores(scores[target], scores[candidates])
        opt.append(o)
        pess.append(p)
        cand.append(len(candidates))
    return np.array(opt), np.array(pess), np.array(cand)


# ---------------------------------------------------------------------------
# rank definitions
# ---------------------------------------------------------------------------

def test_rank_from_scores_tie_block():
    # true score tied with all 13 candidates: best case rank 1, worst 14
    o, p, r = rank_from_scores(5.0, np.full(13, 5.0))
    assert (o, p, r) == (1, 14, 7.5)


def test_rank_from_scores_basic_cases():
    assert rank_from_scores(10.0, np.array([1.0, 2.0, 3.0])) == (1, 1, 1.0)
    assert rank_from_scores(0.0, np.array([1.0, 2.0, 3.0])) == (4, 4, 4.0)
    o, p, r = rank_from_scores(2.0, np.array([1.0, 2.0, 3.0]))
    assert (o, p, r) == (2, 3, 2.5)
    # empty candidate set: always rank 1
    assert rank_from_scores(0.0, np.empty(0)) == (1, 1, 1.0)


def test_side_ranks_realistic_and_concatenate():
    a = SideRanks(np.array([1, 2]), np.array([3, 2]), np.array([5, 5]))
    assert np.allclose(a.realistic, [2.0, 2.0])
    b = SideRanks(np.array([4]), np.array([4]), np.array([7]))
    c = SideRanks.concatenate([a, b])
    assert c.optimistic.tolist() == [1, 2, 4]
    assert c.candidates.tolist() == [5, 5, 7]
    with pytest.raises(ValueError, match="unknown rank definition"):
        a.by_definition("hopeful")


# ---------------------------------------------------------------------------
# compute_ranks vs brute force
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("filtered", [False, True])
def test_ranks_match_brute_force_with_ties(filtered):
    rng = np.random.default_rng(0)
    for trial in range(20):
        E = int(rng.integers(4, 16))
        R = int(rng.integers(1, 4))
        store = make_store(rng, E, R)
        model, params = int_model(rng, E, R)
        result = compute_ranks(model, params, store, split="test", filtered=filtered)
        for side in ("head", "tail"):
            o, p, c = brute_force_side(model, params, store, "test", side, filtered)
            sr = result.sides[side]
            assert np.array_equal(sr.optimistic, o), (trial, side)
            assert np.array_equal(sr.pessimistic, p), (trial, side)
            assert np.array_equal(sr.candidates, c), (trial, side)


def test_ranks_match_brute_force_through_inverse_relations():
    rng = np.random.default_rng(1)
    for _ in range(8):
        E = int(rng.integers(4, 12))
        R = int(rng.integers(1, 3))
        store = add_inverse_relations(make_store(rng, E, R))
        model, params = int_model(rng, E, 2 * R)
        assert store.num_base_relations == R
        result = compute_ranks(model, params, store, split="test", filtered=True)
        o, p, c = brute_force_side(
            model, params, store, "test", "head", True, use_inverse=True
        )
        sr = result.sides["head"]
        assert np.array_equal(sr.optimistic, o)
        assert np.array_equal(sr.pessimistic, p)
        assert np.array_equal(sr.candidates, c)


def test_filtering_never_worsens_ranks_and_shrinks_candidates():
    rng = np.random.default_rng(3)
    store = make_store(rng, 10, 3, n_train=40, n_eval=12)
    model, params = int_model(rng, 10, 3)
    unf = compute_ranks(model, params, store, split="test", filtered=False)
    fil = compute_ranks(model, params, store, split="test", filtered=True)
    for side in ("head", "tail"):
        assert np.all(fil.sides[side].optimistic <= unf.sides[side].optimistic)
        assert np.all(fil.sides[side].pessimistic <= unf.sides[side].pessimistic)
        assert np.all(fil.sides[side].candidates <= unf.sides[side].candidates)
        assert np.all(unf.sides[side].candidates == store.num_entities - 1)


def test_ranks_stay_in_candidate_bounds():
    rng = np.random.default_rng(4)
    store = make_store(rng, 7, 2)
    model, params = int_model(rng, 7, 2)
    res = compute_ranks(model, params, store, split="valid", filtered=True)
    for side in ("head", "tail"):
        sr = res.sides[side]
        assert np.all(sr.optimistic >= 1)
        assert np.all(sr.optimistic <= sr.pessimistic)
        assert np.all(sr.pessimistic <= sr.candidates + 1)


def test_batch_size_does_not_change_ranks():
    rng = np.random.default_rng(5)
    store = make_store(rng, 9, 2, n_eval=11)
    model, params = int_model(rng, 9, 2)
    a = compute_ranks(model, params, store, split="test", batch_size=3)
    b = compute_ranks(model, params, store, split="test", batch_size=64)
    for side in ("head", "tail"):
        assert np.array_equal(a.sides[side].optimistic, b.sides[side].optimistic)
        assert np.array_equal(a.sides[side].pessimistic, b.sides[side].pessimistic)


# ---------------------------------------------------------------------------
# one pass for both filter settings, chunks sized by bytes
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def nations():
    return TripleStore.from_directory(DATA / "nations")


def nations_model(store, kind):
    model = build_interaction(InteractionSpec(kind=kind, num_entities=store.num_entities,
                                              num_relations=store.num_relations, d_e=16))
    return model, init_parameters(model, 0)


def assert_same_ranks(a, b):
    assert a.filtered == b.filtered
    for side in SIDES:
        for name in ("optimistic", "pessimistic", "candidates"):
            assert np.array_equal(getattr(a.sides[side], name),
                                  getattr(b.sides[side], name)), (side, name)


def count_scoring_calls(model, monkeypatch):
    """Rows of every score_triples call of `model`, in call order."""
    rows = []
    method = model.score_triples
    monkeypatch.setattr(model, "score_triples", lambda g, P, h, r, t:
                        rows.append(len(r)) or method(g, P, h, r, t))
    return rows


@pytest.mark.parametrize("kind", KINDS)
def test_one_pass_equals_separate_filtered_and_unfiltered_rankings(nations, kind):
    model, params = nations_model(nations, kind)
    both = compute_ranks(model, params, nations, filtered=(True, False))
    assert len(both) == 2
    for result, flag in zip(both, (True, False)):
        assert_same_ranks(result, compute_ranks(model, params, nations, filtered=flag))


def test_rank_test_split_scores_each_chunk_once(nations, monkeypatch):
    # a one-byte budget keeps every chunk at its first size: 4 chunks per side
    monkeypatch.setattr(evaluation, "CHUNK_BYTES", 1)
    model, params = nations_model(nations, "distmult")
    rows = count_scoring_calls(model, monkeypatch)
    metrics = rank_test_split(model, params, nations)
    assert len(rows) == 2 * 4
    rows.clear()
    separate = {name: compute_ranks(model, params, nations, filtered=flag).metrics()
                for name, flag in (("filtered", True), ("unfiltered", False))}
    assert len(rows) == 2 * 2 * 4
    assert metrics == separate


def test_chunks_are_sized_from_the_bytes_the_chunk_before_held(nations, monkeypatch):
    model, params = nations_model(nations, "distmult")
    rows = count_scoring_calls(model, monkeypatch)
    compute_ranks(model, params, nations)
    # 64 DistMult rows of 14 entities hold far less than CHUNK_BYTES, so
    # the second chunk takes the other 137 test triples
    assert rows == [FIRST_CHUNK_ROWS, 137] * 2
    rows.clear()
    monkeypatch.setattr(evaluation, "CHUNK_BYTES", 1)
    compute_ranks(model, params, nations)
    assert rows == [64, 64, 64, 9] * 2  # never below the first chunk
    rows.clear()
    compute_ranks(model, params, nations, batch_size=100)
    assert rows == [100, 100, 1] * 2


@pytest.mark.parametrize("kind", ["distmult", "conve", "convkb"])
def test_sized_chunks_rank_like_single_rows(nations, kind):
    model, params = nations_model(nations, kind)
    sized = compute_ranks(model, params, nations, filtered=(True, False))
    single = compute_ranks(model, params, nations, filtered=(True, False), batch_size=1)
    for a, b in zip(sized, single):
        assert_same_ranks(a, b)


@pytest.mark.parametrize("kind", ["conve", "convkb"])
def test_sized_chunks_hold_no_more_than_64_rows(nations, kind):
    # their rows·E·channels intermediates pass CHUNK_BYTES at 64 rows, so
    # the sized default stays at the first chunk's size; Python's own small
    # allocations move the peak of two identical calls by up to a few KiB
    model, params = nations_model(nations, kind)
    compute_ranks(model, params, nations)  # warm-up, which also builds the index
    peaks = []
    for batch_size in (None, 64):
        tracemalloc.start()
        try:
            compute_ranks(model, params, nations, batch_size=batch_size)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1] + 16 * 1024


def test_batch_size_must_be_positive(nations):
    model, params = nations_model(nations, "distmult")
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        compute_ranks(model, params, nations, batch_size=0)


# ---------------------------------------------------------------------------
# metric aggregation
# ---------------------------------------------------------------------------

def test_metrics_recompute_from_rank_arrays():
    rng = np.random.default_rng(6)
    store = make_store(rng, 12, 3, n_eval=20)
    model, params = int_model(rng, 12, 3)
    res = compute_ranks(model, params, store, split="test", filtered=True)
    metrics = res.metrics()
    assert set(metrics) == {"head", "tail", "both"}
    for side in ("head", "tail", "both"):
        sr = res._side_ranks(side)
        for d in RANK_DEFINITIONS:
            ranks = sr.by_definition(d)
            m = metrics[side][d]
            assert m["mr"] == pytest.approx(ranks.mean())
            assert m["mrr"] == pytest.approx((1.0 / ranks).mean())
            expected = 0.5 * (sr.candidates + 1.0).mean()
            assert m["amr"] == pytest.approx(ranks.mean() / expected)
            assert m["count"] == ranks.shape[0]
            for k in (1, 3, 5, 10):
                assert m[f"hits_at_{k}"] == pytest.approx(np.mean(ranks <= k))
            assert m["hits_at_1"] <= m["hits_at_3"] <= m["hits_at_5"] <= m["hits_at_10"]
            assert m["hits_at_1"] <= m["mrr"] <= 1.0


def test_realistic_metrics_bracketed_by_optimistic_and_pessimistic():
    rng = np.random.default_rng(7)
    store = make_store(rng, 8, 2, n_eval=15)
    model, params = int_model(rng, 8, 2)
    m = compute_ranks(model, params, store, split="test").metrics()["both"]
    assert m["optimistic"]["mr"] <= m["realistic"]["mr"] <= m["pessimistic"]["mr"]
    assert m["optimistic"]["hits_at_10"] >= m["realistic"]["hits_at_10"] >= m["pessimistic"]["hits_at_10"]


def test_get_accessor_and_single_side_selection():
    rng = np.random.default_rng(8)
    store = make_store(rng, 6, 2)
    model, params = int_model(rng, 6, 2)
    full = compute_ranks(model, params, store, split="valid")
    assert full.get("mr", side="head") == full.metrics()["head"]["realistic"]["mr"]
    assert full.get("mr", side="tail", definition="optimistic") == full.metrics()["tail"]["optimistic"]["mr"]
    assert full.get() == full.metrics()["both"]["realistic"]["hits_at_10"]
    with pytest.raises(KeyError):
        full.get("mr", side="neither")


def test_json_and_csv_output(tmp_path):
    rng = np.random.default_rng(9)
    store = make_store(rng, 6, 2)
    model, params = int_model(rng, 6, 2)
    res = compute_ranks(model, params, store, split="test", filtered=True)
    jpath = tmp_path / "m.json"
    res.save_json(jpath)
    doc = json.loads(jpath.read_text())
    assert doc["split"] == "test"
    assert doc["filtered"] is True
    assert doc["metrics"]["both"]["realistic"]["mr"] == res.get("mr")
    rows = res.csv_rows()
    assert len(rows) == 9  # 3 sides x 3 definitions
    assert {r["side"] for r in rows} == {"head", "tail", "both"}


def test_validation_callback_returns_selected_metric():
    # the metric over both sides of the filtered validation split, realistic
    rng = np.random.default_rng(10)
    store = make_store(rng, 6, 2)
    model, params = int_model(rng, 6, 2)
    cb = make_validation_callback(model, store, metric="mrr")
    want = compute_ranks(model, params, store, split="valid").get(
        "mrr", side="both", definition="realistic"
    )
    assert cb(params) == want


def test_validation_callback_builds_its_filter_index_once(monkeypatch):
    # the callback, a direct filtered ranking and rank_test_split all filter
    # with the store's one index over all splits
    builds = []
    init = FilterIndex.__init__

    def counting_init(self, store, splits=SPLITS):
        builds.append(tuple(splits))
        init(self, store, splits)

    monkeypatch.setattr(FilterIndex, "__init__", counting_init)
    rng = np.random.default_rng(12)
    store = make_store(rng, 6, 2)
    model, params = int_model(rng, 6, 2)
    cb = make_validation_callback(model, store)
    assert builds == []  # built by the first call, not up front
    values = [cb(params) for _ in range(3)]
    assert values == [compute_ranks(model, params, store, split="valid").get()] * 3
    rank_test_split(model, params, store)
    assert builds == [SPLITS]


def test_untrained_unfiltered_amr_sits_near_one():
    # with random embeddings the mean rank should be near its chance level;
    # lots of triples keep the Monte Carlo noise small
    rng = np.random.default_rng(11)
    store = make_store(rng, 20, 3, n_train=30, n_eval=400)
    spec = InteractionSpec(kind="distmult", num_entities=20, num_relations=3, d_e=16)
    model = build_interaction(spec)
    params = init_parameters(model, 123)
    res = compute_ranks(model, params, store, split="test", filtered=False)
    amr = res.get("amr", side="both", definition="realistic")
    assert 0.85 <= amr <= 1.15
