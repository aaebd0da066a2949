"""Seed derivation, negative sampling and batch iteration.

One master seed drives everything; child seeds are the master XORed with a
stage constant derived from a stage name, so independent stages (parameter
init, corruption, shuffling, each HPO trial) get decorrelated but fully
reproducible streams from numpy's seeded PCG64 generator.

Negative sampling corrupts exactly one side of a positive triple. The side
is an even coin under uniform sampling; under Bernoulli sampling the head is
corrupted with probability tph / (tph + hpt), which corrupts the dense side
of skewed relations less often and so produces fewer false negatives. The
replacement entity is uniform over all entities except the positive's own.
The corrupted side is redrawn per negative, never once per positive.
Filtered sampling draws the replacement uniformly from the entities that
complete no known training triple, in one draw per side; a query with no
such entity keeps the unfiltered draw and is counted in
residual_false_negatives.
"""

import zlib
from typing import NamedTuple

import numpy as np

from .datasets import relation_stats
from .settings import one_of, require

SAMPLERS = ("uniform", "bernoulli")

# the value check of each sampling setting (see settings); training's
# TRAINING_CHECKS holds this table too
SAMPLING_CHECKS = {
    "sampler": one_of(*SAMPLERS),
    "label_smoothing": lambda v: None if 0 <= v < 1 else "must lie in [0, 1)",
}


def derive_seed(master, stage):
    """Child seed for a named stage: master XOR crc32(stage name)."""
    return (int(master) ^ zlib.crc32(stage.encode("utf-8"))) & 0xFFFFFFFFFFFFFFFF


def rng_for(master, stage):
    return np.random.default_rng(derive_seed(master, stage))


class NegativeSampler:
    """Vectorized one-side corruption of positive triple batches.

    kind: "uniform" corrupts head or tail with equal probability;
    "bernoulli" uses per-relation tph/hpt statistics from the training split.
    filtered=True (default off: the occasional false negative is part of the
    training signal) draws each replacement with FilterIndex.draw_unknown;
    residual_false_negatives counts, over all calls, the saturated queries
    that return a known triple anyway. filter_index defaults to the store's
    training-split index, which also serves the Bernoulli statistics.
    """

    # no longer used by the sampler, which draws filtered negatives exactly;
    # kept for callers that still read the old redraw cap
    MAX_REDRAWS = 20

    def __init__(self, store, kind="uniform", filtered=False, filter_index=None):
        require("sampler", SAMPLING_CHECKS["sampler"](kind))
        self.kind = kind
        self.num_entities = store.num_entities
        self.filtered = filtered
        self._filter = filter_index or (store.filter_index(("train",)) if filtered else None)
        self.residual_false_negatives = 0
        if kind == "bernoulli":
            tph, hpt = relation_stats(store, index=filter_index)
            self.head_prob = tph / (tph + hpt)
        else:
            self.head_prob = np.full(store.num_relations, 0.5)

    def corrupt(self, rng, positives, num_negatives):
        """(B, 3) positives -> (B, K, 3) negatives."""
        positives = np.asarray(positives, dtype=np.intp).reshape(-1, 3)
        B, K = positives.shape[0], int(num_negatives)
        neg = np.repeat(positives[:, None, :], K, axis=1)
        corrupt_head = rng.random((B, K)) < self.head_prob[positives[:, 1]][:, None]
        if self.filtered:
            for side, mask, column, (a, b) in (("head", corrupt_head, 0, (1, 2)),
                                              ("tail", ~corrupt_head, 2, (0, 1))):
                rows = neg[mask]
                drawn, saturated = self._filter.draw_unknown(
                    side, rows[:, a], rows[:, b], rows[:, column], rng)
                neg[mask, column] = drawn
                self.residual_false_negatives += int(saturated.sum())
            return neg
        # uniform over all entities except the original: draw from E-1 slots
        # and shift draws at or above the original up by one
        originals = np.where(corrupt_head, neg[:, :, 0], neg[:, :, 2])
        draw = rng.integers(0, self.num_entities - 1, size=originals.shape)
        replacement = draw + (draw >= originals)
        neg[:, :, 0] = np.where(corrupt_head, replacement, neg[:, :, 0])
        neg[:, :, 2] = np.where(corrupt_head, neg[:, :, 2], replacement)
        return neg


def slcwa_batches(store, batch_size, rng):
    """Shuffled contiguous batches of training triples, one epoch's worth.

    The epoch is a permutation partition: every positive appears exactly
    once; the final batch may be short.
    """
    train = store.triples["train"]
    order = rng.permutation(train.shape[0])
    for start in range(0, train.shape[0], batch_size):
        yield train[order[start : start + batch_size]]


class TailLabels(NamedTuple):
    """An LCWA batch's known tails, as LCWATask.tails gives them, and its
    label smoothing: the cross entropy's labels by position."""

    rows: np.ndarray
    cols: np.ndarray
    epsilon: float


class LCWATask:
    """Training-split (h, r) groups and the label rows of their true tails.

    Under 1-N scoring every distinct (head, relation) pair is one example
    whose label vector marks all tails observed in the training split.
    """

    def __init__(self, store):
        self._index = store.filter_index(("train",))
        self.pairs = np.stack(self._index.groups("tail")[0], axis=1).astype(np.intp)
        self.num_entities = store.num_entities

    def __len__(self):
        return self.pairs.shape[0]

    def tails(self, indices):
        """(rows, cols) of every known tail of the given groups, row i
        standing for group indices[i]; distinct, in row order."""
        pairs = self.pairs[np.asarray(indices, dtype=np.intp)]
        return self._index.completions("tail", pairs[:, 0], pairs[:, 1])

    def label_matrix(self, indices, epsilon=0.0):
        """Label rows for the given group indices, in one fresh array.

        1 - epsilon at every observed tail and epsilon / (E - 1) elsewhere:
        multi-hot {0, 1} rows at epsilon 0, and exactly smooth_labels of
        those rows otherwise.
        """
        require("label_smoothing", SAMPLING_CHECKS["label_smoothing"](epsilon))
        labels = np.full((len(indices), self.num_entities),
                         epsilon / (self.num_entities - 1) if epsilon > 0.0 else 0.0)
        labels[self.tails(indices)] = 1.0 - epsilon
        return labels


def smooth_labels(labels, epsilon, num_entities, normalize=False):
    """Label smoothing for 1-N training.

    Maps 1 -> 1 - epsilon and 0 -> epsilon / (E - 1). With normalize=True
    (cross entropy) each row is then rescaled to sum to exactly 1; the
    cross entropy requires a distribution, so rows are normalized even when
    epsilon is 0.
    """
    require("label_smoothing", SAMPLING_CHECKS["label_smoothing"](epsilon))
    out = np.asarray(labels, dtype=np.float64)
    if epsilon > 0.0:
        out = out * (1.0 - epsilon) + (1.0 - out) * (epsilon / (num_entities - 1))
    if normalize:
        sums = out.sum(axis=1, keepdims=True)
        if np.any(sums == 0):
            raise ValueError("cannot normalize an all-zero label row")
        out = out / sums
    return out


def lcwa_batches(task, batch_size, rng, epsilon=0.0, by_position=False):
    """Shuffled (head_ids, relation_ids, labels) batches for one epoch; the
    labels are label_matrix rows, or TailLabels with by_position (for cel)."""
    order = rng.permutation(len(task))
    for start in range(0, len(task), batch_size):
        idx = order[start : start + batch_size]
        pairs = task.pairs[idx]
        labels = (TailLabels(*task.tails(idx), epsilon) if by_position
                  else task.label_matrix(idx, epsilon))
        yield pairs[:, 0], pairs[:, 1], labels
