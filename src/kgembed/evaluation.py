"""Rank-based link prediction evaluation.

For every evaluation triple both prediction directions are scored against
every entity. Ranks come in three definitions that differ only in how score
ties with the true entity are counted:

    optimistic   1 + #(candidates scoring strictly higher)
    pessimistic  1 + #(candidates scoring at least as high)
    realistic    the mean of the two

The true triple is never part of its own candidate set, so ranks live in
[1, xi + 1] where xi is the number of candidates. Filtered evaluation
additionally removes candidates that form known true triples (by default
over train, valid and test), never the test triple itself.

The head direction is scored either directly or, for models trained with
explicitly modeled inverse relations, by asking the tail machinery about
(t, r_inverse). The adjusted mean rank divides the mean rank by its
expectation under random scoring, 0.5 * mean(xi + 1), so 1.0 means chance
level regardless of entity count.
"""

import json
from dataclasses import dataclass

import numpy as np

from .autodiff import Graph, keep_heap

HITS_LEVELS = (1, 3, 5, 10)
RANK_DEFINITIONS = ("optimistic", "pessimistic", "realistic")
SIDES = ("head", "tail")
# the metrics early stopping can maximize; the first is the default metric
STOPPER_METRICS = ("hits_at_10", "mrr")
# compute_ranks' first chunk of rows, and the bytes it sizes later chunks to
FIRST_CHUNK_ROWS = 64
CHUNK_BYTES = 4 * 2**20


def rank_from_scores(true_score, candidate_scores):
    """(optimistic, pessimistic, realistic) rank of a score among candidates.

    Ties with the true score count against the pessimistic rank only; the
    true triple itself must not be in `candidate_scores`.
    """
    candidate_scores = np.asarray(candidate_scores, dtype=np.float64)
    optimistic = 1 + int(np.sum(candidate_scores > true_score))
    pessimistic = 1 + int(np.sum(candidate_scores >= true_score))
    return optimistic, pessimistic, 0.5 * (optimistic + pessimistic)


@dataclass
class SideRanks:
    """Per-triple rank arrays for one prediction direction."""

    optimistic: np.ndarray
    pessimistic: np.ndarray
    candidates: np.ndarray  # xi per triple

    @property
    def realistic(self):
        return 0.5 * (self.optimistic + self.pessimistic)

    def by_definition(self, definition):
        if definition not in RANK_DEFINITIONS:
            raise ValueError(f"unknown rank definition {definition!r}")
        return getattr(self, definition).astype(np.float64)

    @staticmethod
    def concatenate(parts):
        return SideRanks(
            np.concatenate([p.optimistic for p in parts]),
            np.concatenate([p.pessimistic for p in parts]),
            np.concatenate([p.candidates for p in parts]),
        )


def _metrics_from_ranks(ranks, candidates):
    mr = float(np.mean(ranks))
    expected = 0.5 * float(np.mean(candidates + 1.0))
    out = {
        "mr": mr,
        "mrr": float(np.mean(1.0 / ranks)),
        "amr": mr / expected,
        "count": int(ranks.shape[0]),
    }
    for k in HITS_LEVELS:
        out[f"hits_at_{k}"] = float(np.mean(ranks <= k))
    return out


class RankingResult:
    """Ranks for every evaluated triple, by side, plus aggregation."""

    def __init__(self, sides, split, filtered):
        self.sides = sides  # dict side -> SideRanks, for both SIDES
        self.split = split
        self.filtered = filtered

    def _side_ranks(self, side):
        if side == "both":
            return SideRanks.concatenate([self.sides[s] for s in SIDES])
        return self.sides[side]

    def metrics(self):
        """{side: {definition: {metric: value}}} for each side and "both"."""
        out = {}
        for side in SIDES + ("both",):
            sr = self._side_ranks(side)
            out[side] = {
                d: _metrics_from_ranks(sr.by_definition(d), sr.candidates)
                for d in RANK_DEFINITIONS
            }
        return out

    def get(self, metric=STOPPER_METRICS[0], side="both", definition="realistic"):
        sr = self._side_ranks(side)
        return _metrics_from_ranks(sr.by_definition(definition), sr.candidates)[metric]

    # ----- output -----------------------------------------------------------

    def to_json(self):
        return {
            "split": self.split,
            "filtered": self.filtered,
            "metrics": self.metrics(),
        }

    def save_json(self, path):
        # a NaN metric raises here rather than being written as invalid JSON
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_json(), f, indent=2, allow_nan=False)

    def csv_rows(self, definitions=RANK_DEFINITIONS, sides=None):
        """One flat row per rank definition and side."""
        metrics = self.metrics()
        return [{"split": self.split, "filtered": self.filtered, "side": side,
                 "rank_definition": d, **metrics[side][d]}
                for side in sides or SIDES + ("both",) for d in definitions]


def _score_matrix(g, model, params, side, triples, store):
    """(B, E) scores of one chunk, computed in the graph g."""
    P = model.leaves(g, params, trainable=False)
    h, r, t = triples.T
    if side == "tail":
        return model.score_triples(g, P, h, r, None).value
    if store.inverse_augmented:
        return model.score_triples(g, P, t, r + store.num_base_relations, None).value
    return model.score_triples(g, P, None, r, t).value


def compute_ranks(model, params, store, split="test", *, filtered=True,
                  batch_size=None):
    """Rank every triple of a split in both directions.

    Head queries of an inverse-augmented store are answered by scoring all
    tails of (t, r_inverse). filtered is True, False or a tuple of them; a
    tuple gives one RankingResult per entry, all from the same score
    matrices. Filtering removes the known triples of the store's index over
    all splits (TripleStore.filter_index).

    batch_size fixes the rows scored at once. By default (None) the first
    chunk has FIRST_CHUNK_ROWS rows and each later one as many as fit in
    CHUNK_BYTES at the bytes per row the chunk before it held (its score
    graph's values and its masks), but never fewer than FIRST_CHUNK_ROWS.
    """
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    keep_heap()
    flags = tuple(filtered) if isinstance(filtered, tuple) else (bool(filtered),)
    triples = store.triples[split]
    # optimistic ranks, pessimistic ranks and candidate counts
    counts = {(flag, side): np.empty((3, triples.shape[0]), dtype=np.int64)
              for flag in flags for side in SIDES}
    for side in SIDES:
        start, rows = 0, batch_size or FIRST_CHUNK_ROWS
        while start < triples.shape[0]:
            chunk = triples[start : start + rows]
            g = Graph()
            S = _score_matrix(g, model, params, side, chunk, store)
            held = sum(node.value.nbytes for node in g.nodes if node.op != "leaf")
            del g  # ranking needs only S
            idx, targets = np.arange(chunk.shape[0]), chunk[:, 2 if side == "tail" else 0]
            gt = S > S[idx, targets][:, None]
            ge = S >= S[idx, targets][:, None]
            del S  # the masks are all the counts need
            # the true entity is what gets ranked, so it is never a candidate;
            # filtering only removes the OTHER known-true entities, so the
            # unfiltered counts come first
            keep = np.ones(gt.shape, dtype=bool)
            keep[idx, targets] = False
            for flag in sorted(set(flags)):
                if flag:
                    query = chunk[:, :2] if side == "tail" else chunk[:, 1:]  # (h, r) or (r, t)
                    keep[store.filter_index().completions(side, *query.T)] = False
                c = counts[flag, side][:, start : start + chunk.shape[0]]
                c[0] = 1 + np.count_nonzero(gt & keep, axis=1)
                c[1] = 1 + np.count_nonzero(ge & keep, axis=1)
                c[2] = np.count_nonzero(keep, axis=1)
            start += chunk.shape[0]
            held += 3 * keep.nbytes
            del gt, ge, keep  # freed before the next chunk is scored
            if batch_size is None:
                rows = max(FIRST_CHUNK_ROWS, CHUNK_BYTES * chunk.shape[0] // held)
    results = tuple(RankingResult({side: SideRanks(*counts[flag, side]) for side in SIDES},
                                  split, flag) for flag in flags)
    return results if isinstance(filtered, tuple) else results[0]


def rank_test_split(model, params, store):
    """Test-split metrics, {"filtered"/"unfiltered": RankingResult.metrics()},
    as a run's result.json and a study's best.json report them; one ranking
    pass gives both."""
    filtered, unfiltered = compute_ranks(model, params, store, "test", filtered=(True, False))
    return {"filtered": filtered.metrics(), "unfiltered": unfiltered.metrics()}


def make_validation_callback(model, store, *, metric=STOPPER_METRICS[0]):
    """A params -> float scorer for early stopping: the metric over both
    sides of the filtered validation split, under realistic ranks. The
    store's index over all splits is built by the first evaluation, so
    after training has started.
    """
    return lambda params: compute_ranks(model, params, store, split="valid").get(metric)
