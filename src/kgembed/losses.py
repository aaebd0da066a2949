"""The eight training losses, all mean-reduced.

Pointwise losses consume (score, label) pairs; labels are {0, 1} for the
square error and binary cross entropy, and are mapped to {-1, +1} signs for
the softplus and hinge variants (smoothed labels map to soft signs).
Pairwise losses consume a positive score and its block of negative scores,
one pair per negative. The self-adversarial loss weights each negative by a
softmax over the current negative scores, with the weights detached from the
gradient. The cross entropy treats every (h, r) group as a single softmax
over all entities against a normalized label distribution.

Everything is written in terms of softplus / logsumexp so large scores do
not overflow: log sigmoid(x) = -softplus(-x).
"""

from dataclasses import dataclass

import numpy as np

from .settings import check_fields, positive, require

POINTWISE_KINDS = ("square_error", "bcel", "spl", "pointwise_hinge")
PAIRWISE_KINDS = ("mrl", "pairwise_logistic")
KINDS = POINTWISE_KINDS + PAIRWISE_KINDS + ("nssal", "cel")

# which losses make sense under which training approach
SLCWA_KINDS = POINTWISE_KINDS + PAIRWISE_KINDS + ("nssal",)
LCWA_KINDS = POINTWISE_KINDS + ("cel",)

# the value check of each LossSpec field that has one (see settings)
LOSS_CHECKS = {
    "kind": lambda v: None if v in KINDS else f"unknown loss kind {v!r}",
    "adversarial_temperature": positive,
}


@dataclass
class LossSpec:
    """Loss kind plus its hyperparameters.

    margin is the hinge / self-adversarial margin (lambda or gamma);
    adversarial_temperature is the softmax temperature of the
    self-adversarial weights. Both are ignored by kinds that do not use them.
    """

    kind: str
    margin: float = 1.0
    adversarial_temperature: float = 1.0

    def __post_init__(self):
        check_fields(self, LOSS_CHECKS)


def _sign_labels(labels):
    # {0,1} -> {-1,+1}; smoothed labels become soft signs in (-1, 1)
    return 2.0 * np.asarray(labels, dtype=np.float64) - 1.0


def pointwise_loss(g, spec, scores, labels):
    """Mean pointwise loss of a score node against fixed labels.

    scores: node of any shape; labels: array broadcastable to it.
    """
    labels = np.broadcast_to(np.asarray(labels, dtype=np.float64), scores.shape)
    if spec.kind == "square_error":
        lab = g.constant(labels)
        return (0.5 * g.square(scores - lab)).mean()
    if spec.kind == "bcel":
        lab = g.constant(labels)
        one_minus = g.constant(1.0 - labels)
        return (lab * g.softplus(-scores) + one_minus * g.softplus(scores)).mean()
    if spec.kind == "spl":
        sign = g.constant(_sign_labels(labels))
        return g.softplus(-(sign * scores)).mean()
    if spec.kind == "pointwise_hinge":
        sign = g.constant(_sign_labels(labels))
        return g.relu(spec.margin - sign * scores).mean()
    raise ValueError(f"{spec.kind!r} is not a pointwise loss")


def pairwise_loss(g, spec, pos_scores, neg_scores):
    """Mean pairwise loss; each positive is paired with each of its negatives.

    pos_scores: (B,) node; neg_scores: (B, K) node. The margin ranking loss
    is relu(margin + f(neg) - f(pos)); the logistic variant is
    softplus(f(neg) - f(pos)).
    """
    B = pos_scores.shape[0]
    delta = neg_scores - pos_scores.reshape((B, 1))
    if spec.kind == "mrl":
        return g.relu(spec.margin + delta).mean()
    if spec.kind == "pairwise_logistic":
        return g.softplus(delta).mean()
    raise ValueError(f"{spec.kind!r} is not a pairwise loss")


def nssal_loss(g, spec, pos_scores, neg_scores):
    """Self-adversarial negative sampling loss.

    L = softplus(-(margin + f(pos))) + sum_k w_k softplus(margin + f(neg_k)),
    averaged over the batch, where w = softmax(temperature * f(neg)) is
    computed from the current negative scores and detached from the gradient.
    Requires at least one negative per positive.
    """
    if neg_scores.value.ndim != 2 or neg_scores.shape[1] < 1:
        raise ValueError("self-adversarial loss needs at least one negative per positive")
    B = pos_scores.shape[0]
    logits = spec.adversarial_temperature * neg_scores.value
    logits = logits - logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    weights = g.constant(w)  # detached
    pos_term = g.softplus(-(spec.margin + pos_scores))
    neg_term = (weights * g.softplus(spec.margin + neg_scores)).sum(axis=1)
    return (pos_term + neg_term).mean()


def cel_loss(g, spec, scores, labels):
    """Softmax cross entropy over each row of an all-entities score matrix.

    scores: (B, E) node; labels: (B, E) array of nonnegative rows summing
    to 1 (rows of all zeros are rejected). Equals
    mean_b [ logsumexp(scores_b) - sum_e labels_be * scores_be ], computed by
    the fused softmax_xent op: its gradient (softmax(scores) - labels) / B is
    built in one (B, E) buffer. The labels array is read, never written, and
    stays referenced by the graph until the graph is dropped.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != scores.shape:
        raise ValueError(f"labels shape {labels.shape} != scores shape {scores.shape}")
    if np.any(labels < 0):
        raise ValueError("cross-entropy labels must be nonnegative")
    sums = labels.sum(axis=1)
    if np.any(sums == 0):
        raise ValueError("cross-entropy labels must not be all-zero rows")
    if not np.allclose(sums, 1.0, atol=1e-9):
        raise ValueError("cross-entropy labels must sum to 1 per row")
    return g.softmax_xent(scores, labels).mean()


def loss_problem(approach, kind):
    """Why a loss kind cannot be trained under an approach; None when it can."""
    if approach == "lcwa" and kind in SLCWA_KINDS and kind not in LCWA_KINDS:
        return (f"{kind!r} needs sampled negative pairs and cannot be trained "
                "with the lcwa approach")
    if approach == "slcwa" and kind == "cel":
        return "'cel' normalizes over all entities and requires the lcwa approach"
    return None


def batch_loss(g, spec, scores, labels=None):
    """The loss of one training batch under either approach.

    Without labels, scores is the (B, 1 + K) node of the negative-sampling
    step: column 0 holds each positive and the other columns its negatives.
    Pointwise kinds read it against the label row [1, 0, ..., 0], averaged
    over all B * (1 + K) scored triples; pairwise kinds and nssal pair column
    0 with the rest. With labels, scores is the (B, E) node of 1-N scoring
    and labels its (B, E) array (multi-hot, possibly smoothed; already
    normalized for the cross entropy).
    """
    require("loss", loss_problem("slcwa" if labels is None else "lcwa", spec.kind))
    if spec.kind in POINTWISE_KINDS:
        labels = np.eye(1, scores.shape[1]) if labels is None else labels
        return pointwise_loss(g, spec, scores, labels)
    if spec.kind == "cel":
        return cel_loss(g, spec, scores, labels)
    pos, neg = scores[:, 0], scores[:, 1:]
    if spec.kind == "nssal":
        return nssal_loss(g, spec, pos, neg)
    return pairwise_loss(g, spec, pos, neg)
