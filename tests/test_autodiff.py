"""The autodiff engine against numpy forward oracles and finite differences."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from kgembed.autodiff import HEAP_PAD, Graph, finite_difference_check


def rng_seq(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_arithmetic_forward_values():
    g = Graph()
    a = g.leaf([[1.0, 2.0], [3.0, 4.0]])
    b = g.leaf([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal((a + b).value, [[6, 8], [10, 12]])
    assert np.array_equal((a - b).value, [[-4, -4], [-4, -4]])
    assert np.array_equal((a * b).value, [[5, 12], [21, 32]])
    assert np.allclose((a / b).value, np.array([[1 / 5, 2 / 6], [3 / 7, 4 / 8]]))
    assert np.array_equal((-a).value, [[-1, -2], [-3, -4]])
    assert np.array_equal((a @ b).value, np.array([[19, 22], [43, 50]]))
    assert np.array_equal(a.T.value, [[1, 3], [2, 4]])


def test_scalar_lifting_and_python_numbers():
    g = Graph()
    a = g.leaf([1.0, 2.0])
    assert np.array_equal((a + 1).value, [2, 3])
    assert np.array_equal((1 + a).value, [2, 3])
    assert np.array_equal((2 - a).value, [1, 0])
    assert np.array_equal((a * 3).value, [3, 6])
    assert np.array_equal((6 / a).value, [6, 3])


def test_unary_forward_matches_numpy():
    rng = rng_seq(1)
    x = rng.normal(size=(3, 5))
    g = Graph()
    n = g.leaf(x)
    assert np.allclose(g.log(g.square(n) + 1.0).value, np.log(x * x + 1.0))
    assert np.allclose(g.tanh(n).value, np.tanh(x))
    assert np.allclose(g.relu(n).value, np.maximum(x, 0))
    assert np.allclose(g.softplus(n).value, np.log1p(np.exp(x)))
    assert np.allclose(g.square(n).value, x * x)
    assert np.allclose(g.clip(n, -0.5, 0.5).value, np.clip(x, -0.5, 0.5))


def test_stable_extremes():
    g = Graph()
    big = g.leaf([800.0, -800.0])
    sp = g.softplus(big)
    assert sp.value[0] == pytest.approx(800.0)
    assert sp.value[1] == pytest.approx(0.0, abs=1e-300)
    g.backward(sp.sum())
    sig = big.grad  # softplus' = sigmoid
    assert sig[0] == pytest.approx(1.0)
    assert sig[1] == pytest.approx(0.0, abs=1e-300)
    # logsumexp - the labeled score; the logsumexp alone would be 1000 + ln 2
    xent = g.softmax_xent(g.leaf([[1000.0, 1000.0]]), [0], [1]).value
    assert xent[0] == pytest.approx(np.log(2.0))


def test_einsum_forward_matches_numpy():
    rng = rng_seq(4)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 5))
    g = Graph()
    got = g.einsum("ij,jk->ik", g.leaf(a), g.leaf(b)).value
    assert np.allclose(got, np.einsum("ij,jk->ik", a, b))
    x = rng.normal(size=(2, 3))
    y = rng.normal(size=(5, 3))
    got = g.einsum("bd,ed->be", g.leaf(x), g.leaf(y)).value
    assert np.allclose(got, x @ y.T)


def test_einsum_validation_rejects_bad_specs():
    g = Graph()
    a = g.leaf(np.ones((2, 2)))
    b = g.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        g.einsum("ii,ij->j", a, b)  # repeated index within one operand
    with pytest.raises(ValueError):
        g.einsum("ij,kl->il", a, b)  # j summed out of a single operand
    with pytest.raises(ValueError):
        g.einsum("...j,jk->...k", a, b)  # ellipsis
    with pytest.raises(ValueError):
        g.einsum("ij,jk", a, b)  # no arrow


def test_einsum_operands_need_one_axis_per_label():
    g = Graph()
    a, b = g.leaf(np.ones((3, 4))), g.leaf(np.ones((4, 5)))
    with pytest.raises(ValueError, match="'bij,jk->bik' needs one axis per label"):
        g.einsum("bij,jk->bik", a, b)  # numpy would broadcast a (3, 4, 5) out of it
    with pytest.raises(ValueError, match="'ij,jk->ik' needs one axis per label"):
        g.einsum("ij,jk->ik", g.leaf(np.ones((2, 3, 4))), b)


def test_matmul_requires_2d():
    g = Graph()
    a = g.leaf(np.ones((2, 3, 4)))
    b = g.leaf(np.ones((4, 2)))
    with pytest.raises(ValueError):
        _ = a @ b


def test_matmul_is_einsum2():
    g = Graph()
    a, b = g.leaf(np.arange(6.0).reshape(2, 3)), g.leaf(np.ones((3, 2)))
    c = a @ b
    assert (c.op, c.attrs["spec"]) == ("einsum2", "ij,jk->ik")
    assert np.array_equal(c.value, a.value @ b.value)


def _sum_to(x, shape):
    """Sum a broadcast result back down to `shape`."""
    lead = x.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and x.shape[lead + i] != 1)
    return np.sum(x, axis=axes, keepdims=True).reshape(shape)


def test_circcorr_matches_quadratic_oracle():
    # value and both gradients; out_i = sum_k a_k b_{(i+k) mod d}, summed term
    # by term through an index table
    rng = rng_seq(5)
    for d in (1, 2, 3, 4, 5, 6, 7, 8, 9, 64):
        shift = (np.arange(d)[:, None] + np.arange(d)) % d          # [i, k] -> (i+k) mod d
        onehot = (shift[..., None] == np.arange(d)).astype(float)   # [i, k, j]
        for a_shape, b_shape in [((3, d), (3, d)), ((d,), (5, d)),
                                 ((3, 1, d), (1, 4, d)), ((2, 3, d), (3, d))]:
            a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
            want = np.einsum("...k,...ik->...i", a, b[..., shift])
            c = rng.normal(size=want.shape)
            g = Graph()
            la, lb = g.leaf(a), g.leaf(b)
            out = g.circcorr(la, lb)
            g.backward((out * c).sum())
            assert out.shape == want.shape
            assert np.max(np.abs(out.value - want)) <= 1e-12
            b_full, a_full = np.broadcast_to(b, want.shape), np.broadcast_to(a, want.shape)
            ga = _sum_to(np.einsum("...i,...ik->...k", c, b_full[..., shift]), a_shape)
            gb = _sum_to(np.einsum("...i,...k,ikj->...j", c, a_full, onehot), b_shape)
            assert np.max(np.abs(la.grad - ga)) <= 1e-12
            assert np.max(np.abs(lb.grad - gb)) <= 1e-12


def test_reverse_roll_turns_correlation_into_convolution():
    rng = rng_seq(6)
    d = 7
    h = rng.normal(size=(2, d))
    r = rng.normal(size=(2, d))
    conv = np.empty((2, d))
    for i in range(2):
        for k in range(d):
            conv[i, k] = sum(h[i, j] * r[i, (k - j) % d] for j in range(d))
    g = Graph()
    got = g.circcorr(g.reverse_roll(g.leaf(h)), g.leaf(r)).value
    assert np.allclose(got, conv)


def _conv2d_oracle(x, f):
    # valid cross-correlation, one output channel per filter
    if x.ndim == 2:
        x = x[None]
    B, m, n = x.shape
    F, kr, kc = f.shape
    out = np.zeros((B, F, m - kr + 1, n - kc + 1))
    for bi in range(B):
        for fi in range(F):
            for i in range(m - kr + 1):
                for j in range(n - kc + 1):
                    out[bi, fi, i, j] = np.sum(x[bi, i:i + kr, j:j + kc] * f[fi])
    return out


def test_conv2d_matches_loop_oracle():
    rng = rng_seq(7)
    x = rng.normal(size=(2, 5, 6))
    f = rng.normal(size=(3, 2, 3))
    g = Graph()
    got = g.conv2d(g.leaf(x), g.leaf(f)).value
    assert np.allclose(got, _conv2d_oracle(x, f))
    single = rng.normal(size=(4, 4))
    g2 = Graph()
    got2 = g2.conv2d(g2.leaf(single), g2.leaf(f[:, :2, :2])).value
    assert np.allclose(got2, _conv2d_oracle(single, f[:, :2, :2])[0])


# ---------------------------------------------------------------------------
# gradients against finite differences
# ---------------------------------------------------------------------------

def test_gradients_of_every_smooth_op():
    rng = rng_seq(8)
    cases = {
        "add": lambda g, a, b: (a + b).sum(),
        "sub": lambda g, a, b: (a - b).sum(),
        "mul": lambda g, a, b: (a * b).sum(),
        "div": lambda g, a, b: (a / (b * b + 1.0)).sum(),
        "matmul": lambda g, a, b: (a @ b.T).sum(),
        "einsum": lambda g, a, b: g.einsum("bd,ed->be", a, b).sum(),
        "log": lambda g, a, b: g.log(a * a + 1.0).sum() + b.sum(),
        "tanh": lambda g, a, b: g.tanh(a).sum() + b.sum(),
        "softplus": lambda g, a, b: g.softplus(a).sum() + b.sum(),
        "square": lambda g, a, b: g.square(a).sum() + b.sum(),
        "pnorm2": lambda g, a, b: g.pnorm(a, p=2, axis=-1).sum() + b.sum(),
        "mean": lambda g, a, b: a.mean() + b.mean(axis=0).sum(),
        "reshape": lambda g, a, b: (a.reshape((8,)) * a.reshape((8,))).sum() + b.sum(),
        "transpose": lambda g, a, b: (a.T @ b).sum(),
        "circcorr": lambda g, a, b: g.circcorr(a, b).sum(),
        "reverse_roll": lambda g, a, b: g.circcorr(g.reverse_roll(a), b).sum(),
        "slice": lambda g, a, b: (a[1:, :2] * b[1:, :2]).sum(),
        "concat": lambda g, a, b: g.concat([a, b], axis=0).mean(),
        "gather": lambda g, a, b: g.gather(a, [1, 0, 1]).sum() + b.sum(),
    }
    for name, build in cases.items():
        a = rng.normal(size=(2, 4))
        b = rng.normal(size=(2, 4))
        err = finite_difference_check(build, [a, b])
        assert err < 1e-6, f"{name}: rel err {err}"


def test_gradients_of_kinked_ops_away_from_kinks():
    rng = rng_seq(9)
    cases = {
        "relu": lambda g, a: g.relu(a).sum(),
        "clip": lambda g, a: g.clip(a, -0.9, 0.9).sum(),
        "pnorm1": lambda g, a: g.pnorm(a, p=1, axis=-1).sum(),
    }
    for name, build in cases.items():
        for _ in range(5):
            a = rng.normal(size=(3, 4))
            a[np.abs(a) < 0.05] += 0.2          # keep clear of zero
            a[np.abs(np.abs(a) - 0.9) < 0.05] += 0.2  # and of the clip edges
            err = finite_difference_check(build, [a])
            assert err < 1e-6, f"{name}: rel err {err}"


def test_conv2d_gradients():
    rng = rng_seq(10)
    x = rng.normal(size=(2, 4, 5))
    f = rng.normal(size=(2, 2, 2))
    err = finite_difference_check(lambda g, xx, ff: g.conv2d(xx, ff).sum(), [x, f])
    assert err < 1e-6
    x1 = rng.normal(size=(4, 4))
    err = finite_difference_check(
        lambda g, xx, ff: (g.conv2d(xx, ff) * g.conv2d(xx, ff)).sum(), [x1, f])
    assert err < 1e-6


def test_einsum_gradients_over_model_contractions():
    rng = rng_seq(11)
    specs = [
        ("ij,jk->ik", (3, 4), (4, 2)),
        ("bd,ed->be", (3, 4), (5, 4)),
        ("bij,bj->bi", (2, 3, 4), (2, 4)),
        ("bpq,bq->bp", (2, 3, 4), (2, 4)),
        ("pqe,be->bpq", (2, 3, 4), (5, 4)),
        ("bq,qp->bp", (3, 4), (4, 5)),
        ("be,e->b", (3, 4), (4,)),
        ("bfij,dfij->bd", (2, 3, 2, 2), (5, 3, 2, 2)),
    ]
    for spec, sa, sb in specs:
        a = rng.normal(size=sa)
        b = rng.normal(size=sb)
        err = finite_difference_check(
            lambda g, x, y, spec=spec: g.einsum(spec, x, y).sum(), [a, b])
        assert err < 1e-6, f"{spec}: rel err {err}"


def test_einsum_broadcasts_size_one_axes():
    # a (B, 1, d, d) operand against a (1, E, d) one, and a label of size 1
    # in both operands: values match numpy on explicitly broadcast operands,
    # and each gradient has its operand's shape, the broadcast axes summed
    rng = rng_seq(13)
    cases = [
        ("bnij,bnj->bni", (3, 1, 4, 4), (1, 5, 4)),
        ("bni,bnijk->bnjk", (3, 1, 4), (3, 1, 4, 2, 2)),
        ("bnd,bnd->bn", (1, 5, 4), (3, 1, 4)),
        ("bnd,bnd->b", (3, 5, 4), (3, 1, 4)),  # n summed, broadcast by one operand
    ]
    for spec, sa, sb in cases:
        a, b = rng.normal(size=sa), rng.normal(size=sb)
        lhs, out = spec.split("->")
        full = np.broadcast_shapes(sa[:2], sb[:2])
        want = np.einsum(spec, np.broadcast_to(a, full + sa[2:]), np.broadcast_to(b, full + sb[2:]))
        c = rng.normal(size=want.shape)
        g = Graph()
        x, y = g.leaf(a), g.leaf(b)
        z = g.einsum(spec, x, y)
        assert np.allclose(z.value, want, rtol=0, atol=1e-12)
        g.backward((z * c).sum())
        assert x.grad.shape == sa and y.grad.shape == sb
        err = finite_difference_check(
            lambda g, x, y, spec=spec, c=c: (g.einsum(spec, x, y) * c).sum(), [a, b])
        assert err < 1e-6, f"{spec}: rel err {err}"


def test_broadcasting_gradients():
    rng = rng_seq(12)
    a = rng.normal(size=(3, 1))
    b = rng.normal(size=(4,))
    err = finite_difference_check(lambda g, x, y: (x * y).sum(), [a, b])
    assert err < 1e-6
    err = finite_difference_check(lambda g, x, y: ((x + y) * (x + y)).mean(), [a, b])
    assert err < 1e-6
    s = rng.normal(size=())
    err = finite_difference_check(lambda g, x, y: (x * y).sum(), [s, b])
    assert err < 1e-6


def test_sum_over_paths_accumulation():
    g = Graph()
    x = g.leaf([2.0, 3.0])
    z = x + x
    loss = (z * x).sum()  # 2x^2, d/dx = 4x
    g.backward(loss)
    assert np.allclose(x.grad, [8.0, 12.0])


@pytest.mark.parametrize("add_last", [False, True])
def test_in_place_accumulation_leaves_shared_gradients_alone(add_last):
    # add hands one g to both parents; x gets four contributions, the last
    # two accumulated in place into a buffer the sweep allocated. The sweep
    # runs in reverse construction order, so with add_last the shared g
    # arrives first
    g = Graph()
    x = g.leaf([2.0, 3.0])
    if add_last:
        w = x * x
        z = x + x
    else:
        z = x + x
        w = x * x
    loss = z.sum() + w.sum()
    g.backward(loss)
    assert np.array_equal(x.grad, 2.0 + 2.0 * np.array([2.0, 3.0]))
    assert np.array_equal(z.grad, [1.0, 1.0])
    assert np.array_equal(w.grad, [1.0, 1.0])


@pytest.mark.parametrize("add_last", [False, True])
def test_in_place_accumulation_with_a_parent_on_two_paths(add_last):
    # a feeds a + b and two other paths; b's gradient is the very array a
    # receives from the add, so accumulating into a must not write into it
    rng = rng_seq(14)
    av, bv = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    g = Graph()
    a, b = g.leaf(av), g.leaf(bv)
    if not add_last:
        c = a + b
    d = g.tanh(a) * 3.0
    e = g.square(a)
    if add_last:
        c = a + b
    loss = (c * c).sum() + d.sum() + e.sum()
    g.backward(loss)
    grad_c = 2.0 * (av + bv)
    assert np.allclose(b.grad, grad_c, rtol=0, atol=1e-14)
    assert np.allclose(c.grad, grad_c, rtol=0, atol=1e-14)
    want_a = grad_c + 3.0 * (1.0 - np.tanh(av) ** 2) + 2.0 * av
    assert np.allclose(a.grad, want_a, rtol=0, atol=1e-12)


def test_in_place_accumulation_after_a_view_gradient():
    # reshape's VJP returns a view of y.grad; the copy x keeps is its own
    g = Graph()
    x = g.leaf(np.arange(4.0).reshape(2, 2))
    c = np.array([1.0, -2.0, 0.5, 4.0])
    y = x.reshape((4,))
    loss = (y * c).sum() + (x * x).sum() + (x * 5.0).sum()
    g.backward(loss)
    assert np.array_equal(y.grad, c)
    assert np.array_equal(x.grad, c.reshape(2, 2) + 2.0 * x.value + 5.0)


def test_gather_accumulates_duplicate_rows():
    g = Graph()
    a = g.leaf(np.arange(6.0).reshape(3, 2))
    loss = g.gather(a, [0, 0, 2]).sum()
    g.backward(loss)
    assert np.allclose(a.grad, [[2, 2], [0, 0], [1, 1]])
    # equal bit for bit to np.add.at into zeros, on repeated, unsorted,
    # empty and 2-D index arrays
    rng = rng_seq(21)
    for shape in [(9,), (9, 5), (6, 4, 4), (1, 3)]:
        n = shape[0]
        for idx in [rng.integers(0, n, size=40), np.sort(rng.integers(0, n, size=7))[::-1],
                    np.zeros(0, dtype=int), rng.integers(0, n, size=(5, 3)),
                    np.full(11, n - 1)]:
            g = Graph()
            a = g.leaf(rng.normal(size=shape))
            rows = g.gather(a, idx)
            c = rng.normal(size=rows.shape)
            g.backward((rows * c).sum())
            want = np.zeros(shape)
            np.add.at(want, idx, c)
            assert np.array_equal(a.grad, want)


# ---------------------------------------------------------------------------
# backward contract
# ---------------------------------------------------------------------------

def test_backward_requires_scalar():
    g = Graph()
    a = g.leaf([1.0, 2.0])
    with pytest.raises(ValueError):
        g.backward(a + a)


def test_second_backward_rejected():
    g = Graph()
    a = g.leaf([1.0, 2.0])
    loss = (a * a).sum()
    g.backward(loss)
    first = a.grad.copy()
    with pytest.raises(RuntimeError, match="backward already ran"):
        g.backward(loss)
    assert np.array_equal(a.grad, first)


def test_constants_receive_no_gradient():
    g = Graph()
    a = g.leaf([1.0, 2.0])
    c = g.constant([3.0, 4.0])
    g.backward((a * c).sum())
    assert c.grad is None
    assert np.allclose(a.grad, [3.0, 4.0])


def test_nodes_cannot_mix_graphs():
    g1, g2 = Graph(), Graph()
    a = g1.leaf([1.0])
    b = g2.leaf([2.0])
    with pytest.raises(ValueError):
        _ = a + b


def test_min_kink_distance():
    g = Graph()
    x = g.leaf([0.3, -0.7, 2.0])
    g.relu(x)
    assert g.min_kink_distance() == pytest.approx(0.3)
    g2 = Graph()
    y = g2.leaf([1.0, 2.0])
    g2.clip(y, 0.5, 1.8)
    assert g2.min_kink_distance() == pytest.approx(0.2)  # |2.0 - 1.8|
    g3 = Graph()
    g3.tanh(g3.leaf([5.0]))
    assert g3.min_kink_distance() == np.inf
    g4 = Graph()
    g4.pnorm(g4.leaf([[0.4, -3.0]]), p=2, axis=-1)  # p=2 is smooth
    assert g4.min_kink_distance() == np.inf


def test_randomized_composite_expressions():
    rng = rng_seq(13)
    rows, cols = np.nonzero(np.ones((2, 3)))  # uniform label rows
    for trial in range(15):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 3))

        def build(g, x, y):
            z = x @ y
            h = g.tanh(z)
            w = g.softplus(h)
            s = w / w.sum(axis=-1, keepdims=True)
            return (s * g.softplus(-z)).sum() + g.softmax_xent(h, rows, cols).mean()

        err = finite_difference_check(build, [a, b])
        assert err < 1e-5, f"trial {trial}: rel err {err}"


def test_dropped_graphs_free_without_the_cycle_collector():
    # step graphs can hold hundreds of MB; they must die by refcount alone
    import weakref

    class Canary:
        pass

    g = Graph()
    x = g.leaf([1.0, 2.0])
    y = (x * 3.0).sum()
    g.backward(y)
    canary = Canary()
    y.attrs["canary"] = canary  # dies exactly when the node dies
    witness = weakref.ref(canary)
    del g, x, y, canary
    assert witness() is None  # no gc.collect() needed


def test_node_outliving_its_graph():
    g = Graph()
    x = g.leaf([2.0])
    y = x * 4.0
    g.backward(y.sum())
    del g
    # stored results stay readable, building new ops does not
    assert y.value[0] == 8.0
    assert x.grad[0] == 4.0
    with pytest.raises(ReferenceError):
        _ = y * 2.0


# ---------------------------------------------------------------------------
# fused softmax cross entropy
# ---------------------------------------------------------------------------

def _xent_rows(rng, kind, shape):
    """Dense label rows and the softmax_xent arguments that give them:
    (labels, rows, cols, keywords)."""
    B, E = shape
    if kind == "hard":
        labels = np.eye(E)[rng.integers(0, E, size=B)]
        return (labels, *np.nonzero(labels), {})
    hot = (rng.random(shape) < 0.3).astype(float)
    hot[:, 0] = 1.0
    rows, cols = np.nonzero(hot)
    if kind == "normalized":
        return hot / hot.sum(axis=1, keepdims=True), rows, cols, {}
    if kind == "weighted":  # any positive weights, normalized per row
        w = rng.uniform(0.5, 2.0, size=shape) * hot
        return w / w.sum(axis=1, keepdims=True), rows, cols, {"weights": w[rows, cols]}
    eps = 0.1  # smoothed as in 1-N training, then normalized
    smooth = hot * (1.0 - eps) + (1.0 - hot) * (eps / (E - 1))
    return smooth / smooth.sum(axis=1, keepdims=True), rows, cols, {"epsilon": eps}


@pytest.mark.parametrize("kind", ["hard", "smoothed", "normalized", "weighted"])
def test_softmax_xent_equals_logsumexp_minus_dot(kind):
    rng = rng_seq(15)
    scores = rng.normal(0, 3, size=(6, 9))
    labels, rows, cols, kw = _xent_rows(rng, kind, scores.shape)

    g = Graph()
    x = g.leaf(scores)
    fused = g.softmax_xent(x, rows, cols, **kw).mean()
    g.backward(fused)

    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    lse = scores.max(axis=1) + np.log(e.sum(axis=1))
    want = np.mean(lse - (labels * scores).sum(axis=1))
    want_grad = (e / e.sum(axis=1, keepdims=True) - labels) / len(scores)

    assert abs(fused.value - want) <= 1e-12
    assert np.max(np.abs(x.grad - want_grad)) <= 1e-12


def test_softmax_xent_finite_differences():
    rng = rng_seq(16)
    _, rows, cols, kw = _xent_rows(rng, "smoothed", (4, 7))
    err = finite_difference_check(
        lambda g, x: (g.softmax_xent(x, rows, cols, **kw) * np.arange(1.0, 5.0)).sum(),
        [rng.normal(0, 2, size=(4, 7))])
    assert err <= 1e-4


def test_softmax_xent_stays_finite_at_extreme_scores():
    rng = rng_seq(17)
    labels, rows, cols, _ = _xent_rows(rng, "normalized", (3, 5))
    scores = np.array([[1e3, -1e3, 0.0, 1e3, -1e3]] * 3)
    g = Graph()
    x = g.leaf(scores)
    loss = g.softmax_xent(x, rows, cols).mean()
    g.backward(loss)
    m = scores.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(scores - m).sum(axis=1))
    want = np.mean(lse - (labels * scores).sum(axis=1))
    assert np.isfinite(loss.value) and np.all(np.isfinite(x.grad))
    assert loss.value == pytest.approx(want, rel=1e-12)
    # exp(scores - m) / its row sum: exp(scores - lse) is off by 1e-14 here,
    # since 1000 + ln 2 keeps only 13 decimals of ln 2
    softmax = np.exp(scores - m) / np.exp(scores - m).sum(axis=1, keepdims=True)
    assert np.allclose(x.grad, (softmax - labels) / 3, rtol=0, atol=1e-15)


def test_softmax_xent_rejects_mismatched_operands():
    g = Graph()
    x = g.leaf(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="needs .B, E. scores"):
        g.softmax_xent(g.leaf(np.zeros(3)), [0], [0])
    # a row with no position has no label distribution to normalize
    with pytest.raises(ValueError, match="a label position in every row"):
        g.softmax_xent(x, [0, 0], [0, 2])
    with pytest.raises(ValueError, match="rows in"):
        g.softmax_xent(x, [0, 1, 2], [0, 0, 0])
    for epsilon in (-0.1, 1.0):
        with pytest.raises(ValueError, match=r"label smoothing must lie in \[0, 1\)"):
            g.softmax_xent(x, [0, 1], [0, 0], epsilon=epsilon)


# ---------------------------------------------------------------------------
# the allocator setting (process-wide, so each case runs in a fresh process)
# ---------------------------------------------------------------------------

def _glibc():
    try:
        return os.confstr("CS_GNU_LIBC_VERSION") is not None
    except (AttributeError, ValueError, OSError):
        return False


needs_glibc = pytest.mark.skipif(not _glibc(), reason="the setting is glibc's")


def run_child(script, **env):
    """The JSON printed last by `script`, run in a fresh interpreter whose
    environment sets no malloc tunable besides `env`."""
    child = {k: v for k, v in os.environ.items()
             if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    child.update(env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1",
                 PYTHONPATH=os.pathsep.join(filter(None, [src, child.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=child,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LCWA_FAULTS = """
import json, resource
import numpy as np
from kgembed import training
from kgembed.datasets import TripleStore
from kgembed.losses import LossSpec
from kgembed.models import InteractionSpec, build_interaction, init_parameters

ids = np.random.default_rng(0).integers(0, (600, 8, 600), size=(9000, 3))
store = TripleStore.from_labeled_triples([(f"e{h}", f"r{r}", f"e{t}") for h, r, t in ids])
model = build_interaction(InteractionSpec(
    kind="distmult", num_entities=store.num_entities,
    num_relations=store.num_relations, d_e=64))
config = training.TrainingConfig(approach="lcwa", loss=LossSpec("cel"), batch_size=256,
                                 num_epochs=3, label_smoothing=0.1)
faults, epoch = [], training.train_epoch

def counted(*args, **kwargs):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out = epoch(*args, **kwargs)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return out

training.train_epoch = counted
training.train(model, init_parameters(model, 0), store, config)
print(json.dumps(faults))
"""

# keep_heap twice, against a C library that records its mallopt calls
MALLOPT_CALLS = """
import ctypes, json
from kgembed.autodiff import keep_heap

calls = []

class Mallopt:
    def __call__(self, param, value):
        calls.append([param, value])
        return 1

class Libc:
    mallopt = Mallopt()

ctypes.CDLL = lambda name: Libc()
first = keep_heap()
after_first = list(calls)
print(json.dumps({"first": first, "second": keep_heap(), "calls": after_first,
                  "later_calls": calls[len(after_first):]}))
"""


@needs_glibc
def test_lcwa_epochs_after_the_first_do_not_fault():
    # without the setting, each step's (B, E) temporaries were trimmed off the
    # heap top and faulted in again: tens of thousands of faults per epoch
    faults = run_child(LCWA_FAULTS)
    assert len(faults) == 3
    assert sum(faults[1:]) < 1000, faults


@needs_glibc
def test_keep_heap_sets_both_parameters_once():
    out = run_child(MALLOPT_CALLS)
    assert out["first"] == {"libc": os.confstr("CS_GNU_LIBC_VERSION"),
                            "mmap_threshold": HEAP_PAD, "top_pad": HEAP_PAD}
    assert out["calls"] == [[-3, HEAP_PAD], [-2, HEAP_PAD]]
    assert out["second"] == out["first"]
    assert out["later_calls"] == []


@needs_glibc
@pytest.mark.parametrize("name, value", [
    ("MALLOC_TOP_PAD_", "131072"),
    ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072"),
])
def test_a_users_malloc_setting_wins(name, value):
    out = run_child(MALLOPT_CALLS, **{name: value})
    assert out["first"] == {"libc": os.confstr("CS_GNU_LIBC_VERSION"), "skipped": name}
    assert out["second"] == out["first"]
    assert out["calls"] == out["later_calls"] == []


# ---------------------------------------------------------------------------
# the op table holds only ops the library reaches
# ---------------------------------------------------------------------------

def test_op_table_holds_exactly_the_ops_models_and_losses_reach():
    # every scoring path of every model with backward, SimplE's training
    # clamp and every loss: an op outside what these build is dead code
    from kgembed import losses, models, training
    from kgembed.autodiff import _FORWARD, _VJP

    reached = set()

    def run(build):
        g = Graph()
        g.backward(build(g))
        reached.update(node.op for node in g.nodes if node.op != "leaf")

    variants = [(kind, {}) for kind in models.KINDS] + [
        ("kg2e", {"similarity": "el"}), ("transe", {"p": 1}),
        ("transd", {"k": 3}), ("transd", {"k": 5})]
    h, r, t = [0, 4], [1, 0], [2, 4]
    for kind, kw in variants:
        spec = models.InteractionSpec(kind, num_entities=5, num_relations=2,
                                      d_e=8 if kind == "conve" else 4, tau=2, **kw)
        model = models.build_interaction(spec)
        params = models.init_parameters(model, 0)
        paths = (lambda g, P: model.score_triples(g, P, h, r, t),
                 lambda g, P: model.score_triples(g, P, h, r, None),
                 lambda g, P: model.score_triples(g, P, None, r, t))
        for path in paths:
            run(lambda g: path(g, model.leaves(g, params)).sum())
        if model.score_clamp is not None:
            run(lambda g: training._clamped(
                g, model, model.score_triples(g, model.leaves(g, params), h, r, t)).sum())

    rng = rng_seq(18)
    block, scores = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
    labels = np.eye(5)[[0, 2, 4]]
    for kind in losses.SLCWA_KINDS:
        run(lambda g: losses.batch_loss(g, losses.LossSpec(kind), g.leaf(block)))
    for kind in losses.LCWA_KINDS:
        run(lambda g: losses.batch_loss(g, losses.LossSpec(kind), g.leaf(scores), labels))

    assert reached == set(_FORWARD) == set(_VJP)


# ---------------------------------------------------------------------------
# einsum2 and conv2d lowered to planned matmuls
# ---------------------------------------------------------------------------

def _model_graphs():
    """The backward-swept graphs of every model's scoring paths: (B,) and
    (B, N) triples, every tail and every head."""
    from kgembed import models

    h, r, t = np.array([0, 4]), np.array([1, 0]), np.array([2, 4])
    grid_h, grid_t = np.array([[0, 1, 3], [4, 2, 2]]), np.array([[2, 2, 0], [4, 1, 3]])
    for kind in models.KINDS:
        spec = models.InteractionSpec(kind, num_entities=5, num_relations=2,
                                      d_e=8 if kind == "conve" else 4, tau=2)
        model = models.build_interaction(spec)
        params = models.init_parameters(model, 0)
        for path in (lambda g, P: model.score_triples(g, P, h, r, t),
                     lambda g, P: model.score_triples(g, P, grid_h, r, grid_t),
                     lambda g, P: model.score_triples(g, P, h, r, None),
                     lambda g, P: model.score_triples(g, P, None, r, t)):
            g = Graph()
            g.backward(path(g, model.leaves(g, params)).sum())
            yield g


def _close(got, want):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * max(1.0, np.abs(want).max()))


def test_einsum_lowering_matches_unoptimized_einsum(monkeypatch):
    # every spec and operand shape the models reach: the forward value and
    # both VJPs equal np.einsum(optimize=False) on the broadcast operands,
    # and no einsum2 or conv2d node calls np.einsum
    from kgembed.autodiff import _FORWARD, _VJP

    calls = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *a, **k: calls.append(a[0]) or einsum(*a, **k))
    reached = {(node.attrs["spec"], node.parents[0].shape, node.parents[1].shape)
               for g in _model_graphs() for node in g.nodes if node.op == "einsum2"}
    assert calls == []
    monkeypatch.setattr(np, "einsum", einsum)
    assert len(reached) > 20
    rng = rng_seq(19)
    for spec, sa, sb in sorted(reached):
        a, b = rng.normal(size=sa), rng.normal(size=sb)
        lhs, so = spec.split("->")
        la, lb = lhs.split(",")
        size = {}
        for label, n in list(zip(la, sa)) + list(zip(lb, sb)):
            size[label] = max(n, size.get(label, 1))
        full_a = np.broadcast_to(a, tuple(size[label] for label in la))
        full_b = np.broadcast_to(b, tuple(size[label] for label in lb))
        want = np.einsum(spec, full_a, full_b, optimize=False)
        g = Graph()
        x, y = g.leaf(a), g.leaf(b)
        node = g.apply("einsum2", x, y, spec=spec)
        _close(_FORWARD["einsum2"](node.attrs, a, b), want)
        gz = rng.normal(size=want.shape)
        ga, gb = _VJP["einsum2"](gz, node, a, b)
        _close(ga, _sum_to(np.einsum(f"{so},{lb}->{la}", gz, full_b, optimize=False), sa))
        _close(gb, _sum_to(np.einsum(f"{la},{so}->{lb}", full_a, gz, optimize=False), sb))


def _conv2d_window_einsum(x, f, g):
    """The window-einsum conv2d of earlier versions: forward value, dx, df."""
    from kgembed.autodiff import _windows

    kr, kc = f.shape[-2:]
    y = np.einsum("...ijkl,fkl->...fij", _windows(x, kr, kc), f, optimize=True)
    pad = [(0, 0)] * (g.ndim - 2) + [(kr - 1, kr - 1), (kc - 1, kc - 1)]
    wg = _windows(np.pad(g, pad), kr, kc)
    dx = np.einsum("...fijkl,fkl->...ij", wg, f[:, ::-1, ::-1], optimize=True)
    mo, no = g.shape[-2:]
    df = np.einsum("...klij,...fij->fkl", _windows(x, mo, no), g, optimize=True)
    return y, dx, df


def test_conv2d_lowering_matches_window_einsum():
    # the im2col forward and VJP against the window einsums they replaced,
    # at the shapes ConvE reaches and on a single 2-D image
    from kgembed.autodiff import _FORWARD, _VJP

    reached = {(node.parents[0].shape, node.parents[1].shape)
               for g in _model_graphs() for node in g.nodes if node.op == "conv2d"}
    assert reached
    rng = rng_seq(20)
    for sx, sf in sorted(reached) + [((5, 7), (3, 2, 3))]:
        x, f = rng.normal(size=sx), rng.normal(size=sf)
        g = Graph()
        node = g.apply("conv2d", g.leaf(x), g.leaf(f))
        gz = rng.normal(size=node.shape)
        y, dx, df = _conv2d_window_einsum(x, f, gz)
        _close(_FORWARD["conv2d"](node.attrs, x, f), y)
        got_dx, got_df = _VJP["conv2d"](gz, node, x, f)
        _close(got_dx, dx)
        _close(got_df, df)


def test_all_entity_step_copies_no_entity_table():
    # one distmult LCWA step: the (B, d) @ (d, E) product reads the entity
    # table in place, with no transpose node, and hands back a C-contiguous
    # gradient that backward keeps as it is
    from kgembed import losses, models

    model = models.build_interaction(models.InteractionSpec("distmult", num_entities=9,
                                                            num_relations=2, d_e=4))
    params = models.init_parameters(model, 0)
    g = Graph()
    P = model.leaves(g, params)
    scores = model.score_triples(g, P, [0, 3, 5], [1, 0, 1], None)
    g.backward(losses.batch_loss(g, losses.LossSpec("cel"), scores, np.eye(9)[[1, 2, 3]]))
    assert "transpose" not in {node.op for node in g.nodes}
    grad = P["entity"].grad
    assert grad.flags.c_contiguous and grad.base is None
