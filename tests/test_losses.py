"""Training losses: hand values, closed-form identities, gradients, dispatch."""

from dataclasses import asdict

import numpy as np
import pytest
from scipy.special import log_softmax, softmax

from kgembed.autodiff import Graph, finite_difference_check
from kgembed.losses import (
    KINDS,
    LCWA_KINDS,
    PAIRWISE_KINDS,
    POINTWISE_KINDS,
    SLCWA_KINDS,
    LossSpec,
    batch_loss,
    cel_loss,
    nssal_loss,
    pairwise_loss,
    pointwise_loss,
)


def softplus(x):
    return np.logaddexp(0.0, x)


def node(g, x):
    return g.leaf(np.asarray(x, dtype=np.float64))


# ---------------------------------------------------------------------------
# spec
# ---------------------------------------------------------------------------

def test_loss_spec_validation_and_round_trip():
    with pytest.raises(ValueError, match="unknown loss kind"):
        LossSpec(kind="nll")
    with pytest.raises(ValueError, match="temperature"):
        LossSpec(kind="nssal", adversarial_temperature=0.0)
    spec = LossSpec(kind="mrl", margin=2.5)
    assert LossSpec(**asdict(spec)) == spec


def test_kind_partitions():
    assert set(SLCWA_KINDS) | set(LCWA_KINDS) == set(KINDS)
    assert set(SLCWA_KINDS) & set(LCWA_KINDS) == set(POINTWISE_KINDS)
    assert "cel" not in SLCWA_KINDS
    assert not set(PAIRWISE_KINDS) & set(LCWA_KINDS)
    assert "nssal" not in LCWA_KINDS


# ---------------------------------------------------------------------------
# pointwise values
# ---------------------------------------------------------------------------

def test_square_error_hand_value():
    g = Graph()
    loss = pointwise_loss(g, LossSpec("square_error"), node(g, [2.0, 0.0]), [1.0, 0.0])
    assert loss.value == pytest.approx(0.25)


def test_bcel_matches_log_sigmoid_oracle():
    rng = np.random.default_rng(0)
    s = rng.normal(0, 3, 64)
    y = rng.integers(0, 2, 64).astype(float)
    g = Graph()
    loss = pointwise_loss(g, LossSpec("bcel"), node(g, s), y)
    sig = 1 / (1 + np.exp(-s))
    want = -np.mean(y * np.log(sig) + (1 - y) * np.log(1 - sig))
    assert loss.value == pytest.approx(want, rel=1e-10)


def test_bcel_stable_at_extreme_scores():
    g = Graph()
    loss = pointwise_loss(
        g, LossSpec("bcel"), node(g, [700.0, -700.0]), [0.0, 1.0]
    )
    assert np.isfinite(loss.value)
    assert loss.value == pytest.approx(700.0)


def test_spl_equals_bcel_on_hard_labels():
    # the softplus form and the cross-entropy form are the same function on
    # {0,1} labels: softplus(-(2y-1)s) = y*softplus(-s) + (1-y)*softplus(s)
    rng = np.random.default_rng(1)
    scores = rng.normal(0, 5, 1000)
    labels = rng.integers(0, 2, 1000).astype(float)
    g = Graph()
    a = pointwise_loss(g, LossSpec("spl"), node(g, scores), labels)
    b = pointwise_loss(g, LossSpec("bcel"), node(g, scores), labels)
    assert abs(a.value - b.value) <= 1e-12
    # per-element too, not just the means
    for i in range(0, 1000, 97):
        gi = Graph()
        ai = pointwise_loss(gi, LossSpec("spl"), node(gi, [scores[i]]), [labels[i]])
        bi = pointwise_loss(gi, LossSpec("bcel"), node(gi, [scores[i]]), [labels[i]])
        assert abs(ai.value - bi.value) <= 1e-12


def test_spl_soft_labels_use_soft_signs():
    g = Graph()
    loss = pointwise_loss(g, LossSpec("spl"), node(g, [1.5]), [0.8])
    assert loss.value == pytest.approx(softplus(-(2 * 0.8 - 1) * 1.5))


def test_pointwise_hinge_hand_values():
    g = Graph()
    spec = LossSpec("pointwise_hinge", margin=1.0)
    # positive labeled score above margin contributes 0, below contributes gap
    loss = pointwise_loss(g, spec, node(g, [2.0, 0.25, -3.0]), [1.0, 1.0, 0.0])
    assert loss.value == pytest.approx((0.0 + 0.75 + 0.0) / 3)
    loss2 = pointwise_loss(g, spec, node(g, [2.0]), [0.0])
    assert loss2.value == pytest.approx(3.0)


def test_pointwise_rejects_pairwise_kind():
    g = Graph()
    with pytest.raises(ValueError, match="not a pointwise loss"):
        pointwise_loss(g, LossSpec("mrl"), node(g, [1.0]), [1.0])


# ---------------------------------------------------------------------------
# pairwise values
# ---------------------------------------------------------------------------

def test_mrl_hand_value():
    g = Graph()
    pos = node(g, [1.0, 0.0])
    neg = node(g, [[0.5, -2.0], [1.0, -1.0]])
    # deltas: [-0.5, -3.0], [1.0, -1.0]; margin 1 -> [0.5, 0, 2.0, 0]
    loss = pairwise_loss(g, LossSpec("mrl", margin=1.0), pos, neg)
    assert loss.value == pytest.approx((0.5 + 0.0 + 2.0 + 0.0) / 4)


def test_mrl_zero_when_positives_clear_margin():
    g = Graph()
    pos = node(g, [10.0])
    neg = node(g, [[1.0, 2.0, 3.0]])
    loss = pairwise_loss(g, LossSpec("mrl", margin=1.0), pos, neg)
    assert loss.value == 0.0


def test_pairwise_logistic_matches_softplus_oracle():
    rng = np.random.default_rng(2)
    pos = rng.normal(size=5)
    neg = rng.normal(size=(5, 7))
    g = Graph()
    loss = pairwise_loss(g, LossSpec("pairwise_logistic"), node(g, pos), node(g, neg))
    assert loss.value == pytest.approx(softplus(neg - pos[:, None]).mean())


def test_pairwise_rejects_pointwise_kind():
    g = Graph()
    with pytest.raises(ValueError, match="not a pairwise loss"):
        pairwise_loss(g, LossSpec("bcel"), node(g, [1.0]), node(g, [[0.0]]))


# ---------------------------------------------------------------------------
# self-adversarial loss
# ---------------------------------------------------------------------------

def test_nssal_single_negative_hand_value():
    g = Graph()
    spec = LossSpec("nssal", margin=3.0, adversarial_temperature=1.0)
    loss = nssal_loss(g, spec, node(g, [0.5]), node(g, [[-1.0]]))
    want = softplus(-(3.0 + 0.5)) + softplus(3.0 - 1.0)
    assert loss.value == pytest.approx(want)


def test_nssal_matches_weighted_oracle():
    rng = np.random.default_rng(3)
    pos = rng.normal(size=6)
    neg = rng.normal(size=(6, 9))
    spec = LossSpec("nssal", margin=2.0, adversarial_temperature=0.7)
    g = Graph()
    loss = nssal_loss(g, spec, node(g, pos), node(g, neg))
    w = softmax(0.7 * neg, axis=1)
    want = np.mean(softplus(-(2.0 + pos)) + (w * softplus(2.0 + neg)).sum(axis=1))
    assert loss.value == pytest.approx(want, rel=1e-12)


def test_nssal_weights_are_detached_from_gradient():
    # with the softmax weights treated as constants, the negative-score
    # gradient is exactly w * sigmoid(margin + neg) / B; any dependence of w
    # on the scores would add extra terms
    rng = np.random.default_rng(4)
    pos = rng.normal(size=4)
    neg = rng.normal(size=(4, 5))
    spec = LossSpec("nssal", margin=1.0, adversarial_temperature=2.0)
    g = Graph()
    p, n = node(g, pos), node(g, neg)
    g.backward(nssal_loss(g, spec, p, n))
    w = softmax(2.0 * neg, axis=1)
    want_neg = w / (1 + np.exp(-(1.0 + neg))) / 4
    want_pos = -1 / (1 + np.exp(1.0 + pos)) / 4
    assert np.allclose(n.grad, want_neg, atol=1e-12)
    assert np.allclose(p.grad, want_pos, atol=1e-12)


def test_nssal_temperature_sharpens_weights():
    neg = np.array([[0.0, 1.0, 2.0]])
    pos = np.array([0.0])
    losses = {}
    for temp in (0.1, 10.0):
        g = Graph()
        spec = LossSpec("nssal", margin=1.0, adversarial_temperature=temp)
        losses[temp] = nssal_loss(g, spec, node(g, pos), node(g, neg)).value
    # sharp weights place nearly all mass on the hardest negative (score 2)
    sharp = softplus(-1.0) + softplus(3.0)
    assert abs(losses[10.0] - sharp) < 1e-3
    assert losses[10.0] > losses[0.1]


def test_nssal_requires_negatives():
    g = Graph()
    with pytest.raises(ValueError, match="at least one negative"):
        nssal_loss(
            g, LossSpec("nssal"), node(g, [1.0]), node(g, np.empty((1, 0)))
        )


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------

def test_cel_uniform_scores_give_log_n():
    for n in (2, 5, 17, 101):
        g = Graph()
        scores = node(g, np.full((1, n), 3.7))
        labels = np.zeros((1, n))
        labels[0, 0] = 1.0
        loss = cel_loss(g, LossSpec("cel"), scores, labels)
        assert abs(loss.value - np.log(n)) <= 1e-12


def test_cel_matches_log_softmax_oracle():
    rng = np.random.default_rng(5)
    scores = rng.normal(0, 4, size=(6, 11))
    labels = rng.uniform(0, 1, size=(6, 11))
    labels /= labels.sum(axis=1, keepdims=True)
    g = Graph()
    loss = cel_loss(g, LossSpec("cel"), node(g, scores), labels)
    want = -np.mean((labels * log_softmax(scores, axis=1)).sum(axis=1))
    assert loss.value == pytest.approx(want, rel=1e-12)


def test_cel_label_validation():
    g = Graph()
    scores = node(g, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="shape"):
        cel_loss(g, LossSpec("cel"), scores, np.ones((2, 4)) / 4)
    with pytest.raises(ValueError, match="nonnegative"):
        cel_loss(g, LossSpec("cel"), scores, [[1.5, -0.5, 0.0], [0.5, 0.5, 0.0]])
    with pytest.raises(ValueError, match="all-zero"):
        cel_loss(g, LossSpec("cel"), scores, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="sum to 1"):
        cel_loss(g, LossSpec("cel"), scores, [[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


def test_cel_invariant_to_score_shift():
    rng = np.random.default_rng(6)
    scores = rng.normal(size=(3, 8))
    labels = np.eye(8)[:3]
    vals = []
    for shift in (0.0, 123.0):
        g = Graph()
        vals.append(cel_loss(g, LossSpec("cel"), node(g, scores + shift), labels).value)
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def test_slcwa_pointwise_flattens_positives_and_negatives():
    # the (B, 1 + K) block against the label row [1, 0, ..., 0]: the mean
    # over every positive and every negative
    rng = np.random.default_rng(7)
    pos = rng.normal(size=3)
    neg = rng.normal(size=(3, 4))
    spec = LossSpec("bcel")
    g = Graph()
    got = batch_loss(g, spec, node(g, np.column_stack([pos, neg])))
    want = np.mean(
        np.concatenate([softplus(-pos), softplus(neg).ravel()])
    )
    assert got.value == pytest.approx(want, rel=1e-12)


def test_slcwa_dispatch_covers_all_its_kinds():
    rng = np.random.default_rng(8)
    block = rng.normal(size=(4, 4))
    for kind in SLCWA_KINDS:
        g = Graph()
        loss = batch_loss(g, LossSpec(kind), node(g, block))
        assert loss.value.shape == ()
        assert np.isfinite(loss.value)


def test_lcwa_dispatch_covers_all_its_kinds():
    rng = np.random.default_rng(9)
    scores = rng.normal(size=(4, 6))
    labels = np.zeros((4, 6))
    labels[np.arange(4), [0, 2, 3, 5]] = 1.0
    for kind in LCWA_KINDS:
        g = Graph()
        loss = batch_loss(g, LossSpec(kind), node(g, scores), labels)
        assert loss.value.shape == ()
        assert np.isfinite(loss.value)


def test_dispatch_rejects_mismatched_kinds():
    g = Graph()
    with pytest.raises(ValueError, match="loss: 'cel' normalizes over all entities"):
        batch_loss(g, LossSpec("cel"), node(g, [[1.0, 0.0]]))
    for kind in ("mrl", "nssal"):
        with pytest.raises(ValueError, match=f"loss: '{kind}' needs sampled negative pairs"):
            batch_loss(g, LossSpec(kind), node(g, [[1.0]]), [[1.0]])


def test_losses_are_mean_reduced():
    # doubling the batch by duplication must not change any loss value
    rng = np.random.default_rng(10)
    block = rng.normal(size=(5, 4))
    for kind in SLCWA_KINDS:
        spec = LossSpec(kind, margin=1.5)
        g1, g2 = Graph(), Graph()
        once = batch_loss(g1, spec, node(g1, block)).value
        twice = batch_loss(g2, spec, node(g2, np.tile(block, (2, 1)))).value
        assert once == pytest.approx(twice, rel=1e-12), kind


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def _fd_loss(build, shapes, step=1e-4, tol=1e-4, tries=30, seed=11):
    rng = np.random.default_rng(seed)
    for _ in range(tries):
        point = [rng.normal(0, 2, s) for s in shapes]
        g = Graph()
        build(g, *[g.leaf(p) for p in point])
        if g.min_kink_distance() <= 10 * step:
            continue  # resample away from relu corners
        err = finite_difference_check(build, point, step=step)
        assert err <= tol
        return
    pytest.fail("no kink-free draw found")


@pytest.mark.parametrize("kind", [k for k in SLCWA_KINDS if k != "nssal"])
def test_slcwa_loss_gradients(kind):
    spec = LossSpec(kind, margin=1.25, adversarial_temperature=0.8)

    def build(g, block):
        return batch_loss(g, spec, block)

    _fd_loss(build, [(6, 5)])


def test_nssal_gradients_match_frozen_weight_finite_differences():
    # the adversarial weights are detached, so the reported gradient is the
    # partial derivative with the weights held fixed; the finite-difference
    # oracle must freeze them the same way
    spec = LossSpec("nssal", margin=1.25, adversarial_temperature=0.8)
    rng = np.random.default_rng(13)
    pos = rng.normal(0, 2, 6)
    neg = rng.normal(0, 2, (6, 4))
    w = softmax(spec.adversarial_temperature * neg, axis=1)

    def frozen(g, p, n):
        pos_term = g.softplus(-(spec.margin + p))
        neg_term = (g.constant(w) * g.softplus(spec.margin + n)).sum(axis=1)
        return (pos_term + neg_term).mean()

    # the surrogate is the same function at the base point, value and gradient
    g1, g2 = Graph(), Graph()
    block = g1.leaf(np.column_stack([pos, neg]))
    p2, n2 = g2.leaf(pos), g2.leaf(neg)
    real = batch_loss(g1, spec, block)
    surr = frozen(g2, p2, n2)
    assert surr.value == pytest.approx(real.value, rel=1e-12)
    g1.backward(real)
    g2.backward(surr)
    assert np.allclose(block.grad[:, 0], p2.grad, atol=1e-12)
    assert np.allclose(block.grad[:, 1:], n2.grad, atol=1e-12)

    err = finite_difference_check(frozen, [pos, neg])
    assert err <= 1e-4


@pytest.mark.parametrize("kind", LCWA_KINDS)
def test_lcwa_loss_gradients(kind):
    spec = LossSpec(kind, margin=0.75)
    rng = np.random.default_rng(12)
    labels = rng.integers(0, 2, size=(5, 7)).astype(float)
    labels[:, 0] = 1.0  # no all-zero rows
    if kind == "cel":
        labels /= labels.sum(axis=1, keepdims=True)

    def build(g, scores):
        return batch_loss(g, spec, scores, labels)

    _fd_loss(build, [(5, 7)])
