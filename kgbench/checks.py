"""Checks of the program's outputs against computations made apart from it.

Nothing here calls the code under test to produce an expected value: the
triple files are read with this module's own reader, ids are assigned by
the documented first-appearance rule, known-triple sets are int64 keys in
numpy, and ranks are counted by brute force from single-triple scores.
Every check appends a readable problem to a Checker instead of raising, so
one run reports every broken output, and `correct` is false if any was
found.
"""

import os

import numpy as np

SPLITS = ("train", "valid", "test")
SCORE_TOL = 1e-10      # relative agreement of the 1-N and single-triple scores
# a filtered sampler's redraw cap counts as reachable for a negative when all
# its redraws landing on true triples has at least this probability
CAP_REACHABLE = 1e-12


class Checker:
    """Collects problems; a run is correct when it found none."""

    def __init__(self):
        self.problems = []
        self.counts = {}      # per-layer counts the checks report, by metric name

    def fail(self, message):
        self.problems.append(message)

    @property
    def correct(self):
        return not self.problems


def read_triples(path):
    """Label triples of one TSV file, read without the library's loader."""
    rows = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\r\n")
            if line:
                h, r, t = line.split("\t")
                rows.append((h, r, t))
    return rows


class OwnGraph:
    """The benchmark's own view of a dataset directory.

    Ids follow the documented rule (first appearance over train, valid,
    test; head before tail) and each split keeps file order with repeated
    triples dropped, so row i here is row i of the program's split. Known
    triples are sorted int64 keys (h * R2 + r) * E + t, where R2 counts
    inverse relations when `inverse` is set.
    """

    def __init__(self, directory, inverse=False):
        labels = {s: read_triples(os.path.join(directory, f"{s}.txt")) for s in SPLITS}
        self.entity_to_id, self.relation_to_id = {}, {}
        for split in SPLITS:
            for h, r, t in labels[split]:
                self.entity_to_id.setdefault(h, len(self.entity_to_id))
                self.relation_to_id.setdefault(r, len(self.relation_to_id))
                self.entity_to_id.setdefault(t, len(self.entity_to_id))
        self.num_entities = len(self.entity_to_id)
        self.num_base_relations = len(self.relation_to_id)
        self.num_relations = self.num_base_relations * (2 if inverse else 1)
        self.rows = {}
        for split in SPLITS:
            ids = dict.fromkeys((self.entity_to_id[h], self.relation_to_id[r],
                                 self.entity_to_id[t]) for h, r, t in labels[split])
            self.rows[split] = np.asarray(list(ids), dtype=np.int64).reshape(-1, 3)
        train = self.rows["train"]
        if inverse:
            flipped = np.stack([train[:, 2], train[:, 1] + self.num_base_relations,
                                train[:, 0]], axis=1)
            train = np.concatenate([train, flipped])
        self.train_keys = np.unique(self.keys(train))
        self.known_keys = np.unique(np.concatenate(
            [self.train_keys] + [self.keys(self.rows[s]) for s in ("valid", "test")]))
        E = self.num_entities
        self._train_rt_keys = np.sort((train[:, 1] * E + train[:, 2]) * E + train[:, 0])

    def keys(self, triples):
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        return (triples[:, 0] * self.num_relations + triples[:, 1]) * self.num_entities \
            + triples[:, 2]

    def is_known(self, triples, train_only=False):
        keys = self.train_keys if train_only else self.known_keys
        return np.isin(self.keys(triples), keys)

    def train_tail_counts(self, h, r):
        """Number of training tails of each (h, r)."""
        E = self.num_entities
        base = (np.asarray(h, dtype=np.int64) * self.num_relations + r) * E
        return np.searchsorted(self.train_keys, base + E) - \
            np.searchsorted(self.train_keys, base)

    def train_head_counts(self, r, t):
        """Number of training heads of each (r, t)."""
        E = self.num_entities
        base = (np.asarray(r, dtype=np.int64) * E + t) * E
        return np.searchsorted(self._train_rt_keys, base + E) - \
            np.searchsorted(self._train_rt_keys, base)

    def label_rows(self, pairs):
        """Multi-hot training tails for (h, r) pairs, from the own key set."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        E = self.num_entities
        rows = np.zeros((pairs.shape[0], E))
        base = (pairs[:, 0] * self.num_relations + pairs[:, 1]) * E
        lo = np.searchsorted(self.train_keys, base)
        hi = np.searchsorted(self.train_keys, base + E)
        for i in range(pairs.shape[0]):
            rows[i, self.train_keys[lo[i]:hi[i]] - base[i]] = 1.0
        return rows

    def group_pairs(self):
        """Sorted distinct training (h, r) pairs, from the own key set."""
        hr = np.unique(self.train_keys // self.num_entities)
        return np.stack([hr // self.num_relations, hr % self.num_relations], axis=1)


def check_vocabulary(checker, name, own, store):
    if store.entity_to_id != own.entity_to_id or \
            {k: v for k, v in store.relation_to_id.items()
             if v < own.num_base_relations} != own.relation_to_id:
        checker.fail(f"{name}: vocabulary differs from first-appearance ids")
    if store.num_entities != own.num_entities or store.num_relations != own.num_relations:
        checker.fail(f"{name}: store has {store.num_entities} entities and "
                     f"{store.num_relations} relations, files give "
                     f"{own.num_entities} and {own.num_relations}")


def check_rank_bounds(checker, name, ranking):
    """1 <= optimistic <= realistic <= pessimistic <= candidates + 1."""
    for side, sr in ranking.sides.items():
        o, p, c = sr.optimistic, sr.pessimistic, sr.candidates
        ok = (o >= 1) & (o <= sr.realistic) & (sr.realistic <= p) & (p <= c + 1)
        if not np.all(ok):
            checker.fail(f"{name}: {side} ranks out of order for "
                         f"{int(np.sum(~ok))} of {ok.size} triples")


def _triple_scores(model, params, triples):
    return model.score_batch(params, np.asarray(triples, dtype=np.intp))


def brute_force_ranks(model, params, own, triple, side, filtered, use_inverse):
    """((optimistic, pessimistic), (lo, hi), candidates) of one triple.

    Candidates are scored one triple each and counted tie for tie. A
    candidate within SCORE_TOL of the true score without being equal to it
    may legitimately fall on either side of it in the 1-N path; only then is
    (lo, hi) wider than the exact ranks, and the program's ranks need only
    lie inside it.
    """
    E = own.num_entities
    h, r, t = (int(x) for x in triple)
    ents = np.arange(E, dtype=np.int64)
    if side == "tail":
        true_id = t
        as_triples = np.stack([np.full(E, h), np.full(E, r), ents], axis=1)
        scored = as_triples
    else:
        true_id = h
        as_triples = np.stack([ents, np.full(E, r), np.full(E, t)], axis=1)
        scored = (np.stack([np.full(E, t), np.full(E, r + own.num_base_relations), ents],
                           axis=1) if use_inverse else as_triples)
    scores = _triple_scores(model, params, scored)
    keep = ents != true_id
    if filtered:
        keep &= ~own.is_known(as_triples)
    s = scores[true_id]
    cand = scores[keep]
    tol = SCORE_TOL * max(1.0, abs(s))
    exact = (1 + int(np.sum(cand > s)), 1 + int(np.sum(cand >= s)))
    band = (1 + int(np.sum(cand > s + tol)), 1 + int(np.sum(cand >= s - tol)))
    return exact, band, int(keep.sum())


def check_ranks(checker, name, model, params, own, ranking, sample, use_inverse):
    """Program ranks of sampled split triples against brute force, tie for tie."""
    rows = own.rows[ranking.split]
    for side, sr in ranking.sides.items():
        if sr.optimistic.shape[0] != rows.shape[0]:
            checker.fail(f"{name}: {side} ranks {sr.optimistic.shape[0]} triples, "
                         f"the split has {rows.shape[0]}")
            return
        for i in sample:
            exact, (lo, hi), n = brute_force_ranks(model, params, own, rows[i], side,
                                                   ranking.filtered, use_inverse)
            o, p, c = int(sr.optimistic[i]), int(sr.pessimistic[i]), int(sr.candidates[i])
            near_tie = (lo, hi) != exact
            if c != n or (o, p) != exact and not (near_tie and lo <= o <= p <= hi):
                checker.fail(f"{name}: {side} rank of test triple {i} is "
                             f"({o}, {p}) of {c}, brute force gives {exact} "
                             f"(near-tie band [{lo}, {hi}]) of {n}")
                return


def check_scores_agree(checker, name, model, params, triples):
    """score_tails / score_heads rows equal single-triple scores to SCORE_TOL."""
    E = model.spec.num_entities
    ents = np.arange(E, dtype=np.int64)
    for h, r, t in np.asarray(triples, dtype=np.int64):
        tails = model.score_all_tails(params, h, r)
        heads = model.score_all_heads(params, r, t)
        want_t = _triple_scores(model, params, np.stack(
            [np.full(E, h), np.full(E, r), ents], axis=1))
        want_h = _triple_scores(model, params, np.stack(
            [ents, np.full(E, r), np.full(E, t)], axis=1))
        for side, got, want in (("tail", tails, want_t), ("head", heads, want_h)):
            err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            if not np.all(err <= SCORE_TOL):
                checker.fail(f"{name}: score_{side}s differs from score_triples "
                             f"by {float(err.max()):.3g} (relative)")
                return


def check_label_rows(checker, name, task, own, sample):
    """LCWA groups and label rows against the own multi-hot rows."""
    if not np.array_equal(np.asarray(task.pairs, dtype=np.int64), own.group_pairs()):
        checker.fail(f"{name}: LCWA groups differ from the distinct training (h, r) pairs")
        return
    got = task.label_matrix(sample)
    want = own.label_rows(task.pairs[sample])
    if got.shape != want.shape or not np.array_equal(got, want):
        bad = int(np.sum(np.any(got != want, axis=1))) if got.shape == want.shape else len(sample)
        checker.fail(f"{name}: {bad} of {len(sample)} LCWA label rows differ from "
                     "the training tails")


def check_negatives(checker, name, own, positives, negatives, max_redraws=None):
    """Sampler invariants on a (B, 3) batch and its (B, K, 3) negatives.

    Every negative keeps the relation, has ids in range and replaces exactly
    one side. A filtered sampler (`max_redraws` given) redraws a negative
    that is a known training triple up to `max_redraws` times and then keeps
    it, and a redraw can restore the positive's own entity (see CHANGES.md).
    So under filtered sampling a known training triple, the positive itself
    included, is excused where the cap is reachable: where a share p of the
    entities on the corrupted side are true and p ** max_redraws is at least
    CAP_REACHABLE. Every other known triple fails the check. Returns the
    number of excused negatives, which the caller reports.
    """
    pos = np.asarray(positives, dtype=np.int64)[:, None, :]
    neg = np.asarray(negatives, dtype=np.int64)
    E = own.num_entities
    if neg.shape[:1] != pos.shape[:1] or neg.ndim != 3 or neg.shape[2] != 3:
        checker.fail(f"{name}: negatives have shape {neg.shape} for {pos.shape[0]} positives")
        return 0
    if np.any(neg[:, :, 1] != pos[:, :, 1]):
        checker.fail(f"{name}: a negative changed the relation")
    if np.any((neg[:, :, [0, 2]] < 0) | (neg[:, :, [0, 2]] >= E)):
        checker.fail(f"{name}: negative entity id out of range")
    head_changed = neg[:, :, 0] != pos[:, :, 0]
    tail_changed = neg[:, :, 2] != pos[:, :, 2]
    excused = np.zeros(neg.shape[:2], dtype=bool)
    if max_redraws is not None:
        known = own.is_known(neg.reshape(-1, 3), train_only=True).reshape(neg.shape[:2])
        p = pos[:, 0, :]
        reachable = lambda n: (n / E) ** max_redraws >= CAP_REACHABLE
        tail_cap = reachable(own.train_tail_counts(p[:, 0], p[:, 1]))[:, None]
        head_cap = reachable(own.train_head_counts(p[:, 1], p[:, 2]))[:, None]
        side_cap = np.where(head_changed & ~tail_changed, head_cap,
                            np.where(tail_changed & ~head_changed, tail_cap,
                                     head_cap | tail_cap))
        excused = known & side_cap & ~(head_changed & tail_changed)
        unexcused = int(np.sum(known & ~excused))
        if unexcused:
            checker.fail(f"{name}: filtered sampler returned {unexcused} known training "
                         "triples as negatives where its redraw cap is out of reach")
    one_side = head_changed != tail_changed
    bad = int(np.sum(~one_side & ~excused))
    if bad:
        checker.fail(f"{name}: {bad} negatives do not replace exactly one side")
    return int(np.sum(excused))


def check_amr(checker, name, amrs):
    """Mean realistic test AMR of trained models below chance (1.0)."""
    amr = float(np.mean(amrs))
    if not amr < 1.0:
        checker.fail(f"{name}: realistic test AMR {amr:.4f} is not below chance (1.0)")


def check_same_metrics(checker, name, stored, recomputed):
    if stored != recomputed:
        checker.fail(f"{name}: ranks from the reloaded checkpoint differ from result.json")


def check_rounds_repeat(checker, name, hits_by_round):
    if any(h != hits_by_round[0] for h in hits_by_round[1:]):
        checker.fail(f"{name}: hits@10 differs between rounds of one run: {hits_by_round}")
