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

import functools
import json
from dataclasses import dataclass

import numpy as np

from .autodiff import Graph, keep_heap
from .datasets import FilterIndex, SPLITS

HITS_LEVELS = (1, 3, 5, 10)
RANK_DEFINITIONS = ("optimistic", "pessimistic", "realistic")
SIDES = ("head", "tail")
# the metrics early stopping can maximize; the first is the default metric
STOPPER_METRICS = ("hits_at_10", "mrr")


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
        if definition == "optimistic":
            return self.optimistic.astype(np.float64)
        if definition == "pessimistic":
            return self.pessimistic.astype(np.float64)
        if definition == "realistic":
            return self.realistic
        raise ValueError(f"unknown rank definition {definition!r}")

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
        self.sides = sides  # dict side -> SideRanks
        self.split = split
        self.filtered = filtered

    def side_names(self):
        names = [s for s in SIDES if s in self.sides]
        if len(names) > 1:
            names.append("both")
        return names

    def _side_ranks(self, side):
        if side == "both":
            return SideRanks.concatenate([self.sides[s] for s in SIDES if s in self.sides])
        return self.sides[side]

    def metrics(self):
        """{side: {definition: {metric: value}}} over all computed sides."""
        out = {}
        for side in self.side_names():
            sr = self._side_ranks(side)
            out[side] = {
                d: _metrics_from_ranks(sr.by_definition(d), sr.candidates)
                for d in RANK_DEFINITIONS
            }
        return out

    def get(self, metric=STOPPER_METRICS[0], side="both", definition="realistic"):
        return self.metrics()[side][definition][metric]

    # ----- output -----------------------------------------------------------

    def to_json(self):
        return {
            "split": self.split,
            "filtered": self.filtered,
            "metrics": self.metrics(),
        }

    def save_json(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_json(), f, indent=2)

    def csv_rows(self, definitions=RANK_DEFINITIONS, sides=None):
        """One flat row per rank definition and side."""
        rows = []
        metrics = self.metrics()
        for side in sides or self.side_names():
            for d in definitions:
                m = metrics[side][d]
                row = {
                    "split": self.split,
                    "filtered": self.filtered,
                    "side": side,
                    "rank_definition": d,
                }
                row.update(m)
                rows.append(row)
        return rows


def _score_matrix(model, params, side, triples, use_inverse, base_relations):
    g = Graph()
    P = model.leaves(g, params, trainable=False)
    h, r, t = triples[:, 0], triples[:, 1], triples[:, 2]
    if side == "tail":
        return model.score_tails(g, P, h, r).value
    if use_inverse:
        return model.score_tails(g, P, t, r + base_relations).value
    return model.score_heads(g, P, r, t).value


def compute_ranks(model, params, store, split="test", *, filtered=True,
                  filter_splits=SPLITS, use_inverse=None, sides=SIDES,
                  batch_size=64, filter_index=None):
    """Rank every triple of a split in the requested directions.

    use_inverse defaults to whether the store was augmented with inverse
    relations; when true, head queries are answered by scoring all tails of
    (t, r_inverse). filter_index, when given, is used for filtering instead
    of building a FilterIndex over filter_splits; a caller that ranks the
    same store repeatedly builds it once and passes it every time.
    """
    keep_heap()
    if use_inverse is None:
        use_inverse = store.inverse_augmented
    if use_inverse and not store.inverse_augmented:
        raise ValueError("use_inverse needs an inverse-augmented store")
    triples = store.triples[split]
    if filtered and filter_index is None:
        filter_index = FilterIndex(store, splits=filter_splits)
    fi = filter_index if filtered else None

    side_ranks = {}
    for side in sides:
        opt = np.empty(triples.shape[0], dtype=np.int64)
        pess = np.empty(triples.shape[0], dtype=np.int64)
        cand = np.empty(triples.shape[0], dtype=np.int64)
        for start in range(0, triples.shape[0], batch_size):
            chunk = triples[start : start + batch_size]
            S = _score_matrix(model, params, side, chunk, use_inverse,
                              store.num_base_relations)
            targets = chunk[:, 2] if side == "tail" else chunk[:, 0]
            # the true entity is what gets ranked, so it is never a candidate;
            # filtering only removes the OTHER known-true entities
            mask = np.ones(S.shape, dtype=bool)
            if filtered:
                query = chunk[:, :2] if side == "tail" else chunk[:, 1:]  # (h, r) or (r, t)
                mask[fi.completions(side, *query.T)] = False
            mask[np.arange(chunk.shape[0]), targets] = False
            true_scores = S[np.arange(chunk.shape[0]), targets]
            gt = (S > true_scores[:, None]) & mask
            ge = (S >= true_scores[:, None]) & mask
            sl = slice(start, start + chunk.shape[0])
            opt[sl] = 1 + gt.sum(axis=1)
            pess[sl] = 1 + ge.sum(axis=1)
            cand[sl] = mask.sum(axis=1)
        side_ranks[side] = SideRanks(opt, pess, cand)
    return RankingResult(side_ranks, split, filtered)


def rank_test_split(model, params, store, filter_index=None):
    """Test-split metrics, {"filtered"/"unfiltered": RankingResult.metrics()},
    as a run's result.json and a study's best.json report them."""
    return {name: compute_ranks(model, params, store, split="test", filtered=flag,
                                filter_index=filter_index).metrics()
            for name, flag in (("filtered", True), ("unfiltered", False))}


def make_validation_callback(model, store, *, metric=STOPPER_METRICS[0],
                             filter_index_fn=None):
    """A params -> float scorer for early stopping: the metric over both
    sides of the filtered validation split, under realistic ranks.

    filter_index_fn() returns the FilterIndex to filter with; it is first
    called by the first evaluation, so a run that shares one index between
    validation and its test ranking builds it after training has started.
    By default the first call builds an index over all splits and every
    later call reuses it.
    """
    if filter_index_fn is None:
        filter_index_fn = functools.cache(lambda: FilterIndex(store))

    def callback(params):
        return compute_ranks(model, params, store, split="valid",
                             filter_index=filter_index_fn()).get(metric)

    return callback
