"""Seed derivation, negative corruption, epoch batching, label smoothing."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from kgembed.datasets import FilterIndex, TripleStore, add_inverse_relations
from kgembed.sampling import (
    LCWATask,
    NegativeSampler,
    derive_seed,
    lcwa_batches,
    rng_for,
    slcwa_batches,
    smooth_labels,
)

DATA = Path(__file__).resolve().parents[1] / "data"


def known(fi, triples):
    """Whether each (h, r, t) row of an (..., 3) array is a known triple."""
    triples = np.asarray(triples).reshape(-1, 3)
    rows, tails = fi.completions("tail", triples[:, 0], triples[:, 1])
    out = np.zeros(triples.shape[0], dtype=bool)
    out[rows[tails == triples[rows, 2]]] = True
    return out


def toy_store():
    train = [
        ("a", "r0", "b"), ("a", "r0", "c"), ("a", "r0", "d"),
        ("b", "r1", "e"), ("c", "r1", "e"), ("d", "r1", "e"),
    ]
    return TripleStore.from_labeled_triples(train, valid=[("a", "r2", "e")])


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

def test_derive_seed_is_deterministic_and_stage_dependent():
    assert derive_seed(42, "init") == derive_seed(42, "init")
    assert derive_seed(42, "init") != derive_seed(42, "shuffle")
    assert derive_seed(42, "init") != derive_seed(43, "init")
    assert 0 <= derive_seed(2**63, "x") < 2**64


def test_rng_for_streams_are_reproducible():
    a = rng_for(7, "trial-0/config").random(5)
    b = rng_for(7, "trial-0/config").random(5)
    c = rng_for(7, "trial-1/config").random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# negative sampling
# ---------------------------------------------------------------------------

def test_sampler_rejects_unknown_kind():
    s = toy_store()
    with pytest.raises(ValueError, match="sampler: must be 'uniform' or 'bernoulli'"):
        NegativeSampler(s, kind="importance")


@pytest.mark.parametrize("kind", ["uniform", "bernoulli"])
def test_filtered_sampler_defaults_to_the_training_split_index(kind):
    # without an index, a filtered sampler draws exactly what one given a
    # training-split FilterIndex draws
    s = TripleStore.from_directory(DATA / "nations")
    samplers = [NegativeSampler(s, kind=kind, filtered=True),
                NegativeSampler(s, kind=kind, filtered=True,
                                filter_index=FilterIndex(s, splits=("train",)))]
    draws = []
    for sampler in samplers:
        rng = np.random.default_rng(21)
        draws.append([sampler.corrupt(rng, s.triples["train"][start:start + 256], 3)
                      for start in range(0, s.num_triples("train"), 256)])
    for default, given in zip(*draws):
        assert np.array_equal(default, given)
    assert samplers[0].residual_false_negatives == samplers[1].residual_false_negatives


def test_corrupt_changes_exactly_one_side():
    s = toy_store()
    sampler = NegativeSampler(s, kind="uniform")
    rng = np.random.default_rng(0)
    pos = s.triples["train"]
    neg = sampler.corrupt(rng, pos, 7)
    assert neg.shape == (pos.shape[0], 7, 3)
    for b in range(pos.shape[0]):
        for k in range(7):
            h, r, t = neg[b, k]
            assert r == pos[b, 1]  # relation is never corrupted
            head_changed = h != pos[b, 0]
            tail_changed = t != pos[b, 2]
            assert head_changed != tail_changed  # exactly one side


def test_replacement_never_reproduces_the_original():
    s = toy_store()
    sampler = NegativeSampler(s, kind="uniform")
    rng = np.random.default_rng(1)
    pos = np.tile(s.triples["train"][:1], (200, 1))
    neg = sampler.corrupt(rng, pos, 5)
    changed_heads = neg[neg[:, :, 0] != pos[0, 0]][:, 0]
    changed_tails = neg[neg[:, :, 2] != pos[0, 2]][:, 2]
    assert pos[0, 0] not in changed_heads
    assert pos[0, 2] not in changed_tails


def test_replacement_is_uniform_over_other_entities():
    s = toy_store()
    sampler = NegativeSampler(s, kind="uniform")
    rng = np.random.default_rng(2)
    pos = np.array([[0, 0, 1]])
    neg = sampler.corrupt(rng, np.tile(pos, (4000, 1)), 4)
    tails = neg[:, :, 2][neg[:, :, 2] != 1]
    counts = np.bincount(tails, minlength=s.num_entities)
    assert counts[1] == 0
    others = counts[np.arange(s.num_entities) != 1]
    # the four remaining entities should split the draws about evenly
    expect = tails.size / others.size
    assert np.all(np.abs(others - expect) < 4 * np.sqrt(expect))


def test_uniform_sampler_halves_sides():
    s = toy_store()
    sampler = NegativeSampler(s, kind="uniform")
    assert np.all(sampler.head_prob == 0.5)
    rng = np.random.default_rng(3)
    pos = np.tile(s.triples["train"][:1], (20000, 1))
    neg = sampler.corrupt(rng, pos, 1)
    frac_head = np.mean(neg[:, 0, 0] != pos[0, 0])
    assert abs(frac_head - 0.5) < 0.01


def test_bernoulli_probabilities_follow_relation_stats():
    s = toy_store()
    sampler = NegativeSampler(s, kind="bernoulli")
    r0 = s.relation_to_id["r0"]  # tph 3, hpt 1 -> corrupt head 3/4
    r1 = s.relation_to_id["r1"]  # tph 1, hpt 3 -> corrupt head 1/4
    r2 = s.relation_to_id["r2"]  # untrained -> 1/2
    assert sampler.head_prob[r0] == pytest.approx(0.75)
    assert sampler.head_prob[r1] == pytest.approx(0.25)
    assert sampler.head_prob[r2] == pytest.approx(0.5)


def test_bernoulli_empirical_frequency_matches_probability():
    s = toy_store()
    sampler = NegativeSampler(s, kind="bernoulli")
    rng = np.random.default_rng(4)
    r0 = s.relation_to_id["r0"]
    pos = np.array([[s.entity_to_id["a"], r0, s.entity_to_id["b"]]])
    neg = sampler.corrupt(rng, np.tile(pos, (30000, 1)), 1)
    frac_head = np.mean(neg[:, 0, 0] != pos[0, 0])
    assert abs(frac_head - 0.75) < 0.01


def test_corruption_side_redrawn_per_negative():
    # with K negatives from one positive, both sides must show up within a row
    s = toy_store()
    sampler = NegativeSampler(s, kind="uniform")
    rng = np.random.default_rng(5)
    pos = s.triples["train"][:1]
    neg = sampler.corrupt(rng, np.tile(pos, (50, 1)), 16)
    head_changed = neg[:, :, 0] != pos[0, 0]
    rows_with_both = np.mean(np.any(head_changed, axis=1) & np.any(~head_changed, axis=1))
    assert rows_with_both > 0.9


def test_filtered_sampling_avoids_known_true_triples():
    # "a" r0 connects to b, c, d out of six entities, so unfiltered tail
    # corruption collides often; filtering must avoid all of b, c, d
    s = toy_store()
    fi = FilterIndex(s, splits=("train",))
    sampler = NegativeSampler(s, kind="uniform", filtered=True, filter_index=fi)
    rng = np.random.default_rng(6)
    a, r0 = s.entity_to_id["a"], s.relation_to_id["r0"]
    b = s.entity_to_id["b"]
    pos = np.array([[a, r0, b]])
    neg = sampler.corrupt(rng, np.tile(pos, (300, 1)), 4)
    assert not np.any(known(fi, neg))


def complete_store(n):
    """One relation linking every entity to every other entity."""
    return TripleStore.from_labeled_triples(
        [(f"e{i}", "r", f"e{j}") for i in range(n) for j in range(n) if i != j])


def test_filtered_redraw_never_returns_the_positive():
    # each (h, r) and (r, t) misses only the self-loop, so the one entity
    # left to draw is h on the tail side and t on the head side; a draw
    # that could restore the positive's entity would return the positive
    s = complete_store(8)
    fi = FilterIndex(s, splits=("train",))
    pos = s.triples["train"]
    for seed in range(50):
        sampler = NegativeSampler(s, kind="bernoulli", filtered=True, filter_index=fi)
        neg = sampler.corrupt(np.random.default_rng(seed), pos, 4)
        assert not np.any(np.all(neg == pos[:, None, :], axis=2))
        assert not np.any(known(fi, neg))
        assert sampler.residual_false_negatives == 0


def test_residual_false_negatives_count_saturated_queries():
    # with self-loops every entity completes every (h, r) and (r, t), so no
    # query has an unknown entity left: each negative keeps the unfiltered
    # draw, is a known triple and is counted, and none is the positive
    s = TripleStore.from_labeled_triples(
        [(f"e{i}", "r", f"e{j}") for i in range(6) for j in range(6)])
    fi = FilterIndex(s, splits=("train",))
    sampler = NegativeSampler(s, kind="uniform", filtered=True, filter_index=fi)
    rng = np.random.default_rng(13)
    pos = s.triples["train"]
    for calls in range(1, 4):
        neg = sampler.corrupt(rng, pos, 4)
        assert np.all(known(fi, neg))
        assert not np.any(np.all(neg == pos[:, None, :], axis=2))
        assert sampler.residual_false_negatives == calls * neg.shape[0] * 4


def test_filtered_sampling_never_returns_a_positive_missing_from_the_index():
    s = toy_store()
    fi = FilterIndex(s, splits=("train",))
    ids = s.entity_to_id
    a, r0, e = ids["a"], s.relation_to_id["r0"], ids["e"]
    # (a, r0, e) is not known: its tails b, c, d are, so the only tail left
    # is a itself; no head of (r0, e) is known, so any head but a will do
    sampler = NegativeSampler(s, kind="uniform", filtered=True, filter_index=fi)
    neg = sampler.corrupt(np.random.default_rng(14), np.tile([a, r0, e], (500, 1)), 4)
    tail_side = neg[..., 2] != e
    assert np.all(neg[tail_side][:, [0, 2]] == a)
    assert set(neg[..., 0][~tail_side].tolist()) == set(range(s.num_entities)) - {a}
    assert sampler.residual_false_negatives == 0
    # without self-loops, (h, r) knows every tail but h: a positive (h, r, h)
    # outside the index is saturated on both sides and never returned
    s = complete_store(5)
    fi = FilterIndex(s, splits=("train",))
    sampler = NegativeSampler(s, kind="bernoulli", filtered=True, filter_index=fi)
    pos = np.array([[h, 0, h] for h in range(5)])
    neg = sampler.corrupt(np.random.default_rng(15), pos, 8)
    assert not np.any(np.all(neg == pos[:, None, :], axis=2))
    assert sampler.residual_false_negatives == neg.size // 3


@pytest.mark.parametrize("name", ["nations", "kinships", "umls"])
def test_filtered_bernoulli_sampling_returns_no_known_triple(name):
    s = TripleStore.from_directory(DATA / name)
    fi = FilterIndex(s, splits=("train",))
    sampler = NegativeSampler(s, kind="bernoulli", filtered=True, filter_index=fi)
    rng = np.random.default_rng(0)
    train = s.triples["train"]
    for _ in range(50):
        pos = train[rng.integers(0, train.shape[0], 256)]
        neg = sampler.corrupt(rng, pos, 2)
        assert not np.any(known(fi, neg))
        assert np.all((neg[..., 0] != pos[:, None, 0]) != (neg[..., 2] != pos[:, None, 2]))
    assert sampler.residual_false_negatives == 0


def test_unfiltered_negatives_are_pinned():
    # uniform and Bernoulli draws at a fixed seed, hashed: filtered sampling
    # shares corrupt(), and a change to it must not move unfiltered draws
    s = TripleStore.from_directory(DATA / "nations")
    digest = hashlib.sha256()
    for kind in ("uniform", "bernoulli"):
        sampler = NegativeSampler(s, kind=kind)
        rng = np.random.default_rng(20)
        for _ in range(3):
            neg = sampler.corrupt(rng, s.triples["train"][:256], 2)
            digest.update(np.ascontiguousarray(neg, dtype=np.int64).tobytes())
    assert digest.hexdigest() == (
        "c2466857d56a6ba8526b1123d33dd3776435c864afe5e261ba8d617a8fa33f9a")


def test_filtered_negatives_are_pinned():
    # uniform and Bernoulli filtered draws over one epoch of Nations at a
    # fixed seed, hashed: a change to FilterIndex.draw_unknown's arithmetic
    # must not move them
    s = TripleStore.from_directory(DATA / "nations")
    fi = FilterIndex(s, splits=("train",))
    digest = hashlib.sha256()
    for kind in ("uniform", "bernoulli"):
        sampler = NegativeSampler(s, kind=kind, filtered=True, filter_index=fi)
        rng = np.random.default_rng(20)
        for start in range(0, s.num_triples("train"), 256):
            neg = sampler.corrupt(rng, s.triples["train"][start:start + 256], 2)
            digest.update(np.ascontiguousarray(neg, dtype=np.int64).tobytes())
    assert digest.hexdigest() == (
        "c849d63ac591a391dbf637860855567b797d27809cbd2c71568181336e42e985")


def test_unfiltered_sampling_does_produce_false_negatives():
    s = toy_store()
    fi = FilterIndex(s, splits=("train",))
    sampler = NegativeSampler(s, kind="uniform")
    rng = np.random.default_rng(7)
    a, r0 = s.entity_to_id["a"], s.relation_to_id["r0"]
    pos = np.array([[a, r0, s.entity_to_id["b"]]])
    neg = sampler.corrupt(rng, np.tile(pos, (300, 1)), 4)
    hits = np.count_nonzero(known(fi, neg))
    assert hits > 0


# ---------------------------------------------------------------------------
# epoch batching
# ---------------------------------------------------------------------------

def test_slcwa_batches_partition_the_training_split():
    s = toy_store()
    rng = np.random.default_rng(8)
    batches = list(slcwa_batches(s, batch_size=4, rng=rng))
    assert [b.shape[0] for b in batches] == [4, 2]
    seen = np.concatenate(batches)
    train = s.triples["train"]
    assert sorted(map(tuple, seen)) == sorted(map(tuple, train))


def test_slcwa_batches_shuffle_differs_by_rng_state():
    s = toy_store()
    a = np.concatenate(list(slcwa_batches(s, 6, np.random.default_rng(1))))
    b = np.concatenate(list(slcwa_batches(s, 6, np.random.default_rng(1))))
    c = np.concatenate(list(slcwa_batches(s, 6, np.random.default_rng(2))))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_lcwa_task_groups_pairs_and_tails():
    s = toy_store()
    task = LCWATask(s)
    a, r0 = s.entity_to_id["a"], s.relation_to_id["r0"]
    assert len(task) == 4  # (a,r0), (b,r1), (c,r1), (d,r1)
    i = [tuple(p) for p in task.pairs].index((a, r0))
    want = sorted(s.entity_to_id[x] for x in ("b", "c", "d"))
    labels = task.label_matrix([i])
    assert labels.shape == (1, s.num_entities)
    assert np.flatnonzero(labels[0]).tolist() == want
    assert np.all(labels[0, want] == 1.0)

    # random stores, plain and inverse-augmented, against a per-row loop
    rng = np.random.default_rng(12)
    for _ in range(20):
        n_e, n_r = int(rng.integers(3, 12)), int(rng.integers(1, 4))
        rows = rng.integers(0, [n_e, n_r, n_e], size=(int(rng.integers(1, 60)), 3))
        s = TripleStore.from_labeled_triples([(f"e{h}", f"r{r}", f"e{t}") for h, r, t in rows])
        for store in (s, add_inverse_relations(s)):
            task = LCWATask(store)
            train = store.triples["train"]
            groups = sorted({(int(h), int(r)) for h, r, _ in train})
            assert task.pairs.tolist() == [list(g) for g in groups]
            indices = rng.permutation(len(task))[: int(rng.integers(1, len(task) + 1))]
            want = np.zeros((len(indices), store.num_entities))
            for row, i in enumerate(indices):
                h, r = groups[i]
                tails = sorted({int(t) for hh, rr, t in train if (hh, rr) == (h, r)})
                want[row, tails] = 1.0
            assert np.array_equal(task.label_matrix(indices), want)


def test_lcwa_batches_cover_every_pair_once():
    s = toy_store()
    task = LCWATask(s)
    rng = np.random.default_rng(9)
    seen = []
    for h_ids, r_ids, labels in lcwa_batches(task, batch_size=3, rng=rng):
        assert labels.shape == (len(h_ids), s.num_entities)
        seen.extend(zip(h_ids.tolist(), r_ids.tolist()))
    assert sorted(seen) == sorted(map(tuple, task.pairs.tolist()))


def test_lcwa_batches_apply_smoothing_and_normalization():
    # by position, a batch carries its known tails and epsilon; the rows they
    # stand for, smoothed and normalized, are distributions with no zero
    s = toy_store()
    task = LCWATask(s)
    rng = np.random.default_rng(10)
    for h, _, labels in lcwa_batches(task, 10, rng, epsilon=0.1, by_position=True):
        assert labels.epsilon == 0.1
        assert set(labels.rows.tolist()) == set(range(len(h)))  # a tail in every row
        rows = np.zeros((len(h), s.num_entities))
        rows[labels.rows, labels.cols] = 1.0
        rows = smooth_labels(rows, labels.epsilon, s.num_entities, normalize=True)
        assert np.allclose(rows.sum(axis=1), 1.0)
        assert np.all(rows > 0)


# ---------------------------------------------------------------------------
# label smoothing
# ---------------------------------------------------------------------------

def test_smooth_labels_values():
    labels = np.array([[1.0, 0.0, 0.0, 0.0]])
    out = smooth_labels(labels, 0.3, 4)
    assert out[0, 0] == pytest.approx(0.7)
    assert np.all(out[0, 1:] == pytest.approx(0.3 / 3))


def test_smooth_labels_epsilon_zero_is_identity():
    labels = np.array([[1.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(smooth_labels(labels, 0.0, 2), labels)


def test_smooth_labels_normalize_for_cross_entropy():
    labels = np.array([[1.0, 1.0, 0.0]])
    out = smooth_labels(labels, 0.0, 3, normalize=True)
    assert np.allclose(out, [[0.5, 0.5, 0.0]])
    out2 = smooth_labels(labels, 0.1, 3, normalize=True)
    assert out2.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError, match="all-zero"):
        smooth_labels(np.zeros((1, 3)), 0.0, 3, normalize=True)


@pytest.mark.parametrize("epsilon", [0.0, 0.2])
@pytest.mark.parametrize("normalize", [False, True])
def test_smooth_labels_leaves_its_argument_unchanged(epsilon, normalize):
    labels = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    kept = labels.copy()
    smooth_labels(labels, epsilon, 3, normalize=normalize)
    assert np.array_equal(labels, kept)


def test_lcwa_batches_equal_smoothing_the_label_matrix():
    # dense batches hold exactly label_matrix's rows, which are smooth_labels
    # of the multi-hot rows; batches by position hold those rows' known
    # tails, distinct and in row order, and the epsilon to smooth them with
    task = LCWATask(toy_store())
    E = task.num_entities
    for epsilon, by_position in ((0.0, False), (0.1, False), (0.1, True), (0.0, True)):
        rng = np.random.default_rng(4)
        order = np.random.default_rng(4).permutation(len(task))
        for start, (h, r, labels) in zip(range(0, len(task), 2),
                                          lcwa_batches(task, 2, rng, epsilon, by_position)):
            idx = order[start : start + 2]
            assert np.array_equal(np.stack([h, r], axis=1), task.pairs[idx])
            hot = task.label_matrix(idx)
            if not by_position:
                assert np.array_equal(labels, smooth_labels(hot, epsilon, E))
                continue
            assert labels.epsilon == epsilon
            assert [labels.rows.tolist(), labels.cols.tolist()] == [
                a.tolist() for a in np.nonzero(hot)]


def test_smooth_labels_range_check():
    with pytest.raises(ValueError, match=r"label_smoothing: must lie in \[0, 1\)"):
        smooth_labels(np.ones((1, 2)), 1.0, 2)
    with pytest.raises(ValueError, match=r"label_smoothing: must lie in \[0, 1\)"):
        smooth_labels(np.ones((1, 2)), -0.1, 2)
