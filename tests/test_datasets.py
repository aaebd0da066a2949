"""Triple stores: TSV parsing, vocabularies, inverse augmentation, filters."""

import collections
import logging
import os
import re
from pathlib import Path

import numpy as np
import pytest

from kgembed.datasets import (
    SPLITS,
    FilterIndex,
    TripleStore,
    add_inverse_relations,
    load_tsv,
    relation_stats,
)

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


# ---------------------------------------------------------------------------
# TSV parsing
# ---------------------------------------------------------------------------

def test_load_tsv_reads_triples_and_skips_blank_lines(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("a\tr\tb\n\nb\tr\tc\n\n", encoding="utf-8")
    assert load_tsv(p) == [("a", "r", "b"), ("b", "r", "c")]


def test_load_tsv_handles_crlf(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_bytes(b"a\tr\tb\r\nb\tr\tc\r\n")
    assert load_tsv(p) == [("a", "r", "b"), ("b", "r", "c")]


def test_load_tsv_error_names_line_number(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("a\tr\tb\na\tb\nc\tr\td\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_tsv(p)
    p.write_text("a\tr\tb\nx\ty\tz\tw\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 3 tab-separated fields, got 4"):
        load_tsv(p)


# ---------------------------------------------------------------------------
# vocabulary construction
# ---------------------------------------------------------------------------

def test_ids_assigned_in_first_appearance_order():
    train = [("b", "r2", "a"), ("a", "r1", "c")]
    valid = [("d", "r1", "a")]
    test = [("e", "r3", "b")]
    s = TripleStore.from_labeled_triples(train, valid, test)
    assert s.entity_to_id == {"b": 0, "a": 1, "c": 2, "d": 3, "e": 4}
    assert s.relation_to_id == {"r2": 0, "r1": 1, "r3": 2}
    assert s.entity_labels == ["b", "a", "c", "d", "e"]
    assert np.array_equal(s.triples["train"], [[0, 0, 1], [1, 1, 2]])
    assert np.array_equal(s.triples["valid"], [[3, 1, 1]])
    assert np.array_equal(s.triples["test"], [[4, 2, 0]])


def test_duplicate_triples_dropped_with_warning(caplog):
    train = [("a", "r", "b"), ("a", "r", "b"), ("b", "r", "a"), ("a", "r", "b")]
    with caplog.at_level(logging.WARNING, logger="kgembed.datasets"):
        s = TripleStore.from_labeled_triples(train)
    assert s.num_triples("train") == 2
    assert "dropped 2 duplicate" in caplog.text


def test_entities_missing_from_train_are_kept_but_flagged(caplog):
    with caplog.at_level(logging.WARNING, logger="kgembed.datasets"):
        s = TripleStore.from_labeled_triples(
            [("a", "r", "b")], valid=[("a", "r", "ghost")]
        )
    assert "ghost" in s.entity_to_id
    assert "never trained" in caplog.text
    assert "ghost" in caplog.text


def test_missing_splits_default_to_empty():
    s = TripleStore.from_labeled_triples([("a", "r", "b")])
    assert s.num_triples("valid") == 0
    assert s.num_triples("test") == 0
    assert s.triples["test"].shape == (0, 3)


def test_all_triples_concatenates_in_split_order():
    s = TripleStore.from_labeled_triples(
        [("a", "r", "b")], valid=[("b", "r", "c")], test=[("c", "r", "a")]
    )
    got = s.all_triples()
    assert got.shape == (3, 3)
    assert np.array_equal(got[0], s.triples["train"][0])
    assert np.array_equal(got[1], s.triples["valid"][0])
    assert np.array_equal(got[2], s.triples["test"][0])
    assert np.array_equal(s.all_triples(("train",)), s.triples["train"])


# ---------------------------------------------------------------------------
# the bundled benchmark files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name, entities, relations, counts",
    [
        ("kinships", 104, 25, (8544, 1068, 1074)),
        ("nations", 14, 55, (1592, 199, 201)),
        ("umls", 135, 46, (5216, 652, 661)),
    ],
)
def test_bundled_dataset_counts(name, entities, relations, counts):
    s = TripleStore.from_directory(os.path.join(DATA, name))
    assert s.num_entities == entities
    assert s.num_relations == relations
    assert tuple(s.num_triples(sp) for sp in ("train", "valid", "test")) == counts
    assert not s.inverse_augmented
    assert s.num_base_relations == relations
    for sp in ("train", "valid", "test"):
        arr = s.triples[sp]
        assert arr[:, (0, 2)].max() < entities
        assert arr[:, 1].max() < relations
        assert arr.min() >= 0


# ---------------------------------------------------------------------------
# inverse-relation augmentation
# ---------------------------------------------------------------------------

def test_add_inverse_relations_doubles_relations_and_train():
    s = TripleStore.from_labeled_triples(
        [("a", "r1", "b"), ("b", "r2", "c")], valid=[("a", "r2", "c")]
    )
    aug = add_inverse_relations(s)
    assert aug.num_relations == 2 * s.num_relations
    assert aug.num_base_relations == s.num_relations
    assert aug.inverse_augmented
    assert aug.num_triples("train") == 2 * s.num_triples("train")
    # forward triples first, then the flipped copies with shifted relation ids
    n = s.num_triples("train")
    R = s.num_relations
    fwd = aug.triples["train"][:n]
    inv = aug.triples["train"][n:]
    assert np.array_equal(fwd, s.triples["train"])
    assert np.array_equal(inv[:, 0], fwd[:, 2])
    assert np.array_equal(inv[:, 1], fwd[:, 1] + R)
    assert np.array_equal(inv[:, 2], fwd[:, 0])
    # valid/test untouched
    assert np.array_equal(aug.triples["valid"], s.triples["valid"])
    assert aug.num_triples("test") == 0
    # label bookkeeping
    assert aug.relation_labels[:R] == s.relation_labels
    assert aug.relation_labels[R:] == [lab + "_inverse" for lab in s.relation_labels]


def test_add_inverse_relations_twice_raises():
    s = TripleStore.from_labeled_triples([("a", "r", "b")])
    aug = add_inverse_relations(s)
    with pytest.raises(ValueError, match="already contains inverse"):
        add_inverse_relations(aug)


def test_add_inverse_relations_keeps_one_augmented_store_per_store():
    s = TripleStore.from_labeled_triples([("a", "r", "b")])
    aug = add_inverse_relations(s)
    assert add_inverse_relations(s) is aug
    assert add_inverse_relations(TripleStore.from_labeled_triples([("a", "r", "b")])) is not aug


def test_inverse_suffix_collision_raises():
    s = TripleStore.from_labeled_triples(
        [("a", "r", "b"), ("b", "r_inverse", "a")]
    )
    with pytest.raises(ValueError, match="reserved"):
        add_inverse_relations(s)


def test_original_store_untouched_by_augmentation():
    s = TripleStore.from_labeled_triples([("a", "r", "b")])
    before = s.triples["train"].copy()
    add_inverse_relations(s)
    assert np.array_equal(s.triples["train"], before)
    assert s.num_relations == 1
    assert not s.inverse_augmented


# ---------------------------------------------------------------------------
# relation statistics
# ---------------------------------------------------------------------------

def test_relation_stats_on_constructed_store():
    # r0: one head with three tails, so tph=3; each tail unique, hpt=1
    # r1: three heads share one tail, tph=1, hpt=3
    # r2: never trained, falls back to 1/1
    train = [
        ("h", "r0", "t1"), ("h", "r0", "t2"), ("h", "r0", "t3"),
        ("a", "r1", "z"), ("b", "r1", "z"), ("c", "r1", "z"),
    ]
    s = TripleStore.from_labeled_triples(train, valid=[("a", "r2", "b")])
    tph, hpt = relation_stats(s)
    r0 = s.relation_to_id["r0"]
    r1 = s.relation_to_id["r1"]
    r2 = s.relation_to_id["r2"]
    assert tph[r0] == 3.0 and hpt[r0] == 1.0
    assert tph[r1] == 1.0 and hpt[r1] == 3.0
    assert tph[r2] == 1.0 and hpt[r2] == 1.0


def test_relation_stats_matches_direct_count_on_random_stores():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n_e, n_r = rng.integers(3, 9), rng.integers(2, 5)
        rows = rng.integers(0, [n_e, n_r, n_e], size=(rng.integers(5, 40), 3))
        rows = np.unique(rows, axis=0)
        labeled = [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in rows]
        s = TripleStore.from_labeled_triples(labeled)
        tph, hpt = relation_stats(s)
        train = s.triples["train"]
        for r in range(s.num_relations):
            sub = train[train[:, 1] == r]
            if sub.shape[0] == 0:
                assert tph[r] == 1.0 and hpt[r] == 1.0
                continue
            assert tph[r] == pytest.approx(sub.shape[0] / len(set(sub[:, 0])))
            assert hpt[r] == pytest.approx(sub.shape[0] / len(set(sub[:, 2])))
        # a given training-split index gives the same counts
        given = relation_stats(s, index=FilterIndex(s, splits=("train",)))
        assert np.array_equal(given[0], tph) and np.array_equal(given[1], hpt)


# ---------------------------------------------------------------------------
# filter index
# ---------------------------------------------------------------------------

def test_filter_index_matches_linear_scan():
    rng = np.random.default_rng(5)
    for trial in range(25):
        n_e, n_r = int(rng.integers(3, 10)), int(rng.integers(1, 4))
        mk = lambda n: rng.integers(0, [n_e, n_r, n_e], size=(n, 3))
        s = TripleStore(
            {f"e{i}": i for i in range(n_e)},
            {f"r{i}": i for i in range(n_r)},
            # every fifth store has an empty validation split
            {"train": mk(20), "valid": mk(0 if trial % 5 == 0 else 5), "test": mk(5)},
        )
        stores = [(s, SPLITS), (s, ("valid",)), (add_inverse_relations(s), SPLITS)]
        for store, splits in stores:
            idx = FilterIndex(store, splits=splits)
            allt = store.all_triples(splits)
            R = store.num_relations
            queries = rng.integers(0, [n_e, R, n_e], size=(10, 3))
            want_t = [sorted({int(row[2]) for row in allt if row[0] == h and row[1] == r})
                      for h, r, _ in queries]
            want_h = [sorted({int(row[0]) for row in allt if row[1] == r and row[2] == t})
                      for _, r, t in queries]
            want_c = [any(np.array_equal(row, q) for row in allt) for q in queries]
            for i, (h, r, t) in enumerate(queries):
                tails = idx.completions("tail", [h], [r])[1]
                assert tails.tolist() == want_t[i]
                assert idx.completions("head", [r], [t])[1].tolist() == want_h[i]
                assert (t in tails) == want_c[i]
            # batched queries: one (row, entity) pair per known completion
            rows, tails = idx.completions("tail", queries[:, 0], queries[:, 1])
            assert list(zip(rows.tolist(), tails.tolist())) == [
                (i, e) for i, want in enumerate(want_t) for e in want]
            rows, heads = idx.completions("head", queries[:, 1], queries[:, 2])
            assert list(zip(rows.tolist(), heads.tolist())) == [
                (i, e) for i, want in enumerate(want_h) for e in want]
            rows, tails = idx.completions("tail", queries[:, 0], queries[:, 1])
            got = np.zeros(len(queries), dtype=bool)
            got[rows[tails == queries[rows, 2]]] = True
            assert got.tolist() == want_c
            # the distinct queries with a completion, and how many each has
            for side, query in (("tail", lambda row: (row[0], row[1])),
                                ("head", lambda row: (row[1], row[2]))):
                counts = collections.Counter(query(tuple(map(int, row)))
                                             for row in np.unique(allt, axis=0))
                (a, b), got = idx.groups(side)
                assert list(zip(a.tolist(), b.tolist(), got.tolist())) == [
                    (*q, n) for q, n in sorted(counts.items())]
            known = np.zeros((len(queries), n_e), dtype=bool)
            known[idx.completions("tail", queries[:, 0], queries[:, 1])] = True
            assert known.tolist() == [[e in want for e in range(n_e)] for want in want_t]


def test_filter_index_respects_split_selection():
    s = TripleStore.from_labeled_triples(
        [("a", "r", "b")], valid=[("a", "r", "c")], test=[("a", "r", "d")]
    )
    train_only = FilterIndex(s, splits=("train",))
    full = FilterIndex(s)
    a, r = s.entity_to_id["a"], s.relation_to_id["r"]
    assert train_only.completions("tail", [a], [r])[1].tolist() == [s.entity_to_id["b"]]
    assert full.completions("tail", [a], [r])[1].tolist() == sorted(
        s.entity_to_id[x] for x in ("b", "c", "d")
    )


def test_store_builds_each_filter_index_once():
    s = TripleStore.from_labeled_triples(
        [("a", "r", "b")], valid=[("a", "r", "c")], test=[("a", "r", "d")]
    )
    full, train_only = s.filter_index(), s.filter_index(["train"])
    assert s.filter_index(SPLITS) is full and s.filter_index(("train",)) is train_only
    assert full is not train_only
    for splits, index in ((SPLITS, full), (("train",), train_only)):
        fresh = FilterIndex(s, splits=splits)
        assert np.array_equal(index.tail_keys, fresh.tail_keys)
        assert np.array_equal(index.head_keys, fresh.head_keys)
    # an augmented store is a new store with its own indexes
    assert add_inverse_relations(s).filter_index() is not full


def test_only_the_store_builds_filter_indexes():
    # TripleStore.filter_index is the one place in the library that builds a
    # FilterIndex, so every caller shares the store's index
    src = Path(__file__).resolve().parents[1] / "src" / "kgembed"
    builders = sorted(p.name for p in src.glob("*.py")
                      if re.search(r"\bFilterIndex\(", p.read_text(encoding="utf-8")))
    assert builders == ["datasets.py"]


def test_filter_index_misses_return_empty_arrays():
    s = TripleStore.from_labeled_triples([("a", "r", "b")])
    idx = FilterIndex(s)
    assert idx.completions("tail", [1], [0])[1].shape == (0,)
    assert idx.completions("head", [0], [0])[1].shape == (0,)
    assert 0 not in idx.completions("tail", [1], [0])[1]


class FeedEvery:
    """Stands in for a numpy Generator: integers(0, high) returns 0, 1, ...
    one per query, after checking that every query has the expected high."""

    def __init__(self, high):
        self.high = high

    def integers(self, low, high):
        assert low == 0 and np.all(np.asarray(high) == self.high)
        return np.arange(np.size(high))


def test_draw_unknown_maps_each_draw_to_one_entity_of_the_complement():
    # tail queries (h, r0) with 0, 2, E - 1 and E known tails; the head side
    # adds 1 and 3; every entity is tried as exclude, known or not
    E = 5
    tails = {(1, 0): {0, 2}, (2, 0): {0, 1, 2, 3}, (3, 0): set(range(E)), (4, 1): {4}}
    rows = [(h, r, t) for (h, r), ts in tails.items() for t in sorted(ts)]
    store = TripleStore({f"e{i}": i for i in range(E)}, {"r0": 0, "r1": 1},
                        {"train": rows})
    idx = FilterIndex(store)
    seen = set()
    for side in ("tail", "head"):
        for a in range(E if side == "tail" else 2):
            for b in range(2 if side == "tail" else E):
                known = {t for h, r, t in rows if (h, r) == (a, b)} if side == "tail" \
                    else {h for h, r, t in rows if (r, t) == (a, b)}
                seen.add(len(known))
                for exclude in range(E):
                    want = sorted(set(range(E)) - known - {exclude})
                    saturated = not want
                    if saturated:  # the unfiltered rule: any entity but exclude
                        want = sorted(set(range(E)) - {exclude})
                    n = len(want)
                    got, flags = idx.draw_unknown(side, [a] * n, [b] * n, [exclude] * n,
                                                  FeedEvery(n))
                    assert got.tolist() == want, (side, a, b, exclude)
                    assert flags.tolist() == [saturated] * n
    assert {0, 1, 2, 3, E - 1, E} <= seen
