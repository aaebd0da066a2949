"""Interaction models: hand values, numpy oracles, 1-N vs scalar agreement,
finite-difference gradients, parameter counts, initialization, checkpoints."""

import json
import struct

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from kgembed.autodiff import Graph, finite_difference_check
from kgembed.models import (
    KINDS,
    InteractionSpec,
    build_interaction,
    init_parameters,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
    xavier_bound,
)


def small_spec(kind, **overrides):
    kw = dict(kind=kind, num_entities=7, num_relations=3, d_e=4)
    if kind == "conve":
        kw.update(d_e=8, tau=2)  # 4x4 reshape fits the default 3x3 kernel
    elif kind == "convkb":
        kw.update(tau=3)
    elif kind in ("transr", "tucker"):
        kw.update(d_r=3)
    elif kind == "transd":
        kw.update(k=3)
    elif kind == "ermlp":
        kw.update(k=5)
    elif kind == "ntn":
        kw.update(k=2)
    kw.update(overrides)
    return InteractionSpec(**kw)


def make(kind, seed=3, **overrides):
    spec = small_spec(kind, **overrides)
    model = build_interaction(spec)
    return spec, model, init_parameters(model, seed)


# ---------------------------------------------------------------------------
# spec validation and defaults
# ---------------------------------------------------------------------------

def test_spec_rejects_bad_fields():
    with pytest.raises(ValueError, match="unknown interaction kind"):
        InteractionSpec(kind="nope", num_entities=3, num_relations=1)
    with pytest.raises(ValueError):
        InteractionSpec(kind="um", num_entities=0, num_relations=1)
    with pytest.raises(ValueError, match="p must be"):
        InteractionSpec(kind="transe", num_entities=3, num_relations=1, p=3)
    with pytest.raises(ValueError, match="similarity"):
        InteractionSpec(kind="kg2e", num_entities=3, num_relations=1, similarity="cosine")
    with pytest.raises(ValueError, match="c_min"):
        InteractionSpec(kind="kg2e", num_entities=3, num_relations=1, c_min=2.0, c_max=1.0)


def test_spec_defaults():
    s = InteractionSpec(kind="transr", num_entities=5, num_relations=2, d_e=8)
    assert s.d_r == 8
    assert InteractionSpec(kind="ntn", num_entities=5, num_relations=2).k == 4
    assert InteractionSpec(kind="ermlp", num_entities=5, num_relations=2, d_e=16).k == 16


def test_conve_reshape_defaults_and_validation():
    s = InteractionSpec(kind="conve", num_entities=5, num_relations=2, d_e=64)
    assert (s.conv_height, s.conv_width) == (8, 16)
    assert s.conv_out == (6, 14)
    s8 = InteractionSpec(kind="conve", num_entities=5, num_relations=2, d_e=8)
    assert (s8.conv_height, s8.conv_width) == (4, 4)
    with pytest.raises(ValueError, match="even"):
        InteractionSpec(kind="conve", num_entities=5, num_relations=2, d_e=8, conv_height=3)
    with pytest.raises(ValueError, match="does not fit"):
        InteractionSpec(kind="conve", num_entities=5, num_relations=2, d_e=8,
                        conv_height=2, kernel=(3, 3))


def test_spec_dict_round_trip():
    s = small_spec("conve")
    back = InteractionSpec.from_dict(s.to_dict())
    assert back == s
    assert isinstance(back.kernel, tuple)


def test_build_interaction_checks_kind_match():
    from kgembed.models import DistMult

    spec = small_spec("transe")
    with pytest.raises(ValueError, match="does not match"):
        DistMult(spec)


# ---------------------------------------------------------------------------
# hand-checked score values
# ---------------------------------------------------------------------------

def test_um_is_negative_squared_distance_and_ignores_relation():
    spec, model, params = make("um")
    params["entity"][0] = 0.0
    params["entity"][1] = [3.0, 4.0, 0.0, 0.0]
    assert model.score(params, 0, 0, 1) == pytest.approx(-25.0)
    assert model.score(params, 0, 2, 1) == model.score(params, 0, 0, 1)


def test_transe_translation_gives_zero_distance():
    spec, model, params = make("transe")
    params["entity"][0] = [1.0, 0.0, 2.0, 0.0]
    params["relation"][1] = [0.5, 0.5, -1.0, 0.0]
    params["entity"][2] = params["entity"][0] + params["relation"][1]
    assert model.score(params, 0, 1, 2) == pytest.approx(0.0, abs=1e-12)
    # p=1 norm on a known offset
    spec1, model1, params1 = make("transe", p=1)
    params1["entity"][0] = 0.0
    params1["relation"][0] = 0.0
    params1["entity"][1] = [1.0, -2.0, 0.5, 0.0]
    assert model1.score(params1, 0, 0, 1) == pytest.approx(-3.5)


def test_distmult_hand_value_and_symmetry():
    spec, model, params = make("distmult", d_e=2)
    params["entity"][0, :] = [1.0, 2.0]
    params["relation"][0, :] = [3.0, 4.0]
    params["entity"][1, :] = [5.0, 6.0]
    assert model.score(params, 0, 0, 1) == pytest.approx(63.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        h, t = rng.integers(0, spec.num_entities, 2)
        r = rng.integers(0, spec.num_relations)
        assert model.score(params, h, r, t) == pytest.approx(model.score(params, t, r, h))


def test_rescal_matches_bilinear_oracle():
    spec, model, params = make("rescal")
    rng = np.random.default_rng(1)
    for _ in range(10):
        h, t = rng.integers(0, spec.num_entities, 2)
        r = rng.integers(0, spec.num_relations)
        want = params["entity"][h] @ params["relation"][r] @ params["entity"][t]
        assert model.score(params, h, r, t) == pytest.approx(want)


def test_complex_reduces_to_distmult_on_real_embeddings():
    spec, model, params = make("complex")
    params["entity"][:, spec.d_e:] = 0.0
    params["relation"][:, spec.d_e:] = 0.0
    d_spec, d_model, _ = make("distmult")
    d_params = {
        "entity": params["entity"][:, : spec.d_e].copy(),
        "relation": params["relation"][:, : spec.d_e].copy(),
    }
    for h, r, t in [(0, 0, 1), (3, 2, 5), (6, 1, 6)]:
        assert model.score(params, h, r, t) == pytest.approx(
            d_model.score(d_params, h, r, t)
        )


def test_complex_antisymmetric_under_imaginary_relation():
    spec, model, params = make("complex")
    params["relation"][:, : spec.d_e] = 0.0  # purely imaginary relations
    for h, r, t in [(0, 0, 1), (2, 1, 4)]:
        assert model.score(params, h, r, t) == pytest.approx(
            -model.score(params, t, r, h)
        )


def test_complex_matches_complex_arithmetic_oracle():
    spec, model, params = make("complex")
    d = spec.d_e
    rng = np.random.default_rng(2)
    for _ in range(10):
        h, t = rng.integers(0, spec.num_entities, 2)
        r = rng.integers(0, spec.num_relations)
        hc = params["entity"][h, :d] + 1j * params["entity"][h, d:]
        rc = params["relation"][r, :d] + 1j * params["relation"][r, d:]
        tc = params["entity"][t, :d] + 1j * params["entity"][t, d:]
        want = np.sum(hc * rc * np.conj(tc)).real
        assert model.score(params, h, r, t) == pytest.approx(want)


def test_rotate_identity_relation_is_negated_distance():
    spec, model, params = make("rotate")
    d = spec.d_e
    params["relation"][0, :d] = 1.0
    params["relation"][0, d:] = 0.0
    for h, t in [(0, 1), (2, 2), (4, 6)]:
        want = -np.linalg.norm(params["entity"][h] - params["entity"][t])
        assert model.score(params, h, 0, t) == pytest.approx(want)


def test_rotate_scores_ignore_relation_modulus():
    spec, model, params = make("rotate")
    base = model.score(params, 0, 1, 2)
    params["relation"][1] *= 7.5  # same phase, different modulus
    assert model.score(params, 0, 1, 2) == pytest.approx(base)


def test_hole_hand_value():
    spec, model, params = make("hole", d_e=2)
    params["entity"][0, :] = [1.0, 2.0]
    params["entity"][1, :] = [3.0, 4.0]
    params["relation"][0, :] = [0.5, -1.0]
    # circular correlation of h and t: [h0 t0 + h1 t1, h0 t1 + h1 t0]; the
    # score is the logit r . corr, with no sigmoid on top
    corr = np.array([1 * 3 + 2 * 4, 1 * 4 + 2 * 3])
    assert model.score(params, 0, 0, 1) == pytest.approx(0.5 * corr[0] - 1.0 * corr[1])


def test_proje_matches_formula():
    spec, model, params = make("proje")
    rng = np.random.default_rng(3)
    for _ in range(5):
        h, t = rng.integers(0, spec.num_entities, 2)
        r = rng.integers(0, spec.num_relations)
        z = np.tanh(
            params["entity"][h] * params["d_entity"]
            + params["relation"][r] * params["d_relation"]
            + params["b_combine"]
        )
        logit = params["entity"][t] @ z + params["b_project"][0]
        assert model.score(params, h, r, t) == pytest.approx(logit)


def test_simple_averages_forward_and_backward_terms():
    spec, model, params = make("simple", d_e=1)
    params["entity_h"][0, 0] = 2.0
    params["entity_h"][1, 0] = 7.0
    params["entity_t"][0, 0] = 4.0
    params["entity_t"][1, 0] = 5.0
    params["relation"][0, 0] = 3.0
    params["relation_inv"][0, 0] = 1.0
    # forward 2*3*5 = 30, backward 7*1*4 = 28
    assert model.score(params, 0, 0, 1) == pytest.approx(29.0)


def test_tucker_matches_core_contraction_on_init():
    # initialized scales are 1 and shifts 0, so the score is the raw
    # three-way contraction with the core
    spec, model, params = make("tucker")
    rng = np.random.default_rng(4)
    for _ in range(8):
        h, t = rng.integers(0, spec.num_entities, 2)
        r = rng.integers(0, spec.num_relations)
        want = np.einsum(
            "pqe,p,q,e->",
            params["core"], params["entity"][h], params["relation"][r],
            params["entity"][t],
        )
        assert model.score(params, h, r, t) == pytest.approx(want)


def test_se_matches_projection_oracle():
    spec, model, params = make("se")
    rng = np.random.default_rng(5)
    for _ in range(8):
        h, t = rng.integers(0, spec.num_entities, 2)
        r = rng.integers(0, spec.num_relations)
        u = params["m_head"][r] @ params["entity"][h]
        v = params["m_tail"][r] @ params["entity"][t]
        assert model.score(params, h, r, t) == pytest.approx(-np.abs(u - v).sum())


def test_transh_matches_hyperplane_oracle():
    spec, model, params = make("transh")
    rng = np.random.default_rng(6)
    for _ in range(8):
        h, t = rng.integers(0, spec.num_entities, 2)
        r = rng.integers(0, spec.num_relations)
        w = params["normal"][r]
        w = w / np.linalg.norm(w)
        hp = params["entity"][h] - (w @ params["entity"][h]) * w
        tp = params["entity"][t] - (w @ params["entity"][t]) * w
        diff = hp + params["translation"][r] - tp
        assert model.score(params, h, r, t) == pytest.approx(-diff @ diff)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_transd_matches_materialized_projection(k):
    # oracle builds the full projection matrix M = r_p e_p^T + I~ that the
    # model deliberately avoids materializing; covers k < d_e, k == d_e, k > d_e
    spec, model, params = make("transd", k=k)
    d = spec.d_e
    eye = np.zeros((k, d))
    np.fill_diagonal(eye, 1.0)
    rng = np.random.default_rng(7)
    for _ in range(8):
        h, t = rng.integers(0, spec.num_entities, 2)
        r = rng.integers(0, spec.num_relations)
        rp = params["relation_p"][r]
        hp = (np.outer(rp, params["entity_p"][h]) + eye) @ params["entity"][h]
        tp = (np.outer(rp, params["entity_p"][t]) + eye) @ params["entity"][t]
        diff = hp + params["relation"][r] - tp
        assert model.score(params, h, r, t) == pytest.approx(-diff @ diff)


def test_ermlp_matches_formula():
    spec, model, params = make("ermlp")
    rng = np.random.default_rng(8)
    for _ in range(5):
        h, t = rng.integers(0, spec.num_entities, 2)
        r = rng.integers(0, spec.num_relations)
        cat = np.concatenate(
            [params["entity"][h], params["relation"][r], params["entity"][t]]
        )
        hidden = np.tanh(params["w_hidden"] @ cat + params["b_hidden"])
        want = params["w_out"] @ hidden + params["b_out"][0]
        assert model.score(params, h, r, t) == pytest.approx(want)


def test_ntn_matches_formula():
    spec, model, params = make("ntn")
    rng = np.random.default_rng(9)
    for _ in range(5):
        h, t = rng.integers(0, spec.num_entities, 2)
        r = rng.integers(0, spec.num_relations)
        hv, tv = params["entity"][h], params["entity"][t]
        bilinear = np.einsum("i,ijk,j->k", hv, params["w"][r], tv)
        linear = params["v"][r] @ np.concatenate([hv, tv])
        act = np.tanh(bilinear + linear + params["b"][r])
        assert model.score(params, h, r, t) == pytest.approx(params["u"][r] @ act)


def test_convkb_matches_formula():
    # the feature maps as the sum of three filter-column outer products, on
    # random parameters (nonzero biases) and a batch of triples
    spec, model, _ = make("convkb", d_e=16, tau=32, num_entities=30, num_relations=5)
    rng = np.random.default_rng(10)
    params = {name: rng.normal(size=shape) for name, shape, _ in model.tensor_specs()}
    h, t = rng.integers(0, spec.num_entities, size=(2, 64))
    r = rng.integers(0, spec.num_relations, size=64)
    F = params["filters"]
    want = np.empty(64)
    for i in range(64):
        x = (
            np.outer(F[:, 0], params["entity"][h[i]])
            + np.outer(F[:, 1], params["relation"][r[i]])
            + np.outer(F[:, 2], params["entity"][t[i]])
            + params["filter_bias"][:, None]
        )
        want[i] = np.sum(np.maximum(x, 0.0) * params["w_out"]) + params["b_out"][0]
    got = model.score_batch(params, np.stack([h, r, t], axis=1))
    assert np.max(np.abs(got - want)) <= 1e-12
    assert model.score(params, h[0], r[0], t[0]) == pytest.approx(want[0], abs=1e-12)


def test_conve_matches_numpy_pipeline():
    spec, model, params = make("conve")
    m, n = spec.conv_height, spec.conv_width
    mo, no = spec.conv_out
    kh, kw = spec.kernel

    def oracle(h, r, t):
        stacked = np.concatenate(
            [
                params["entity"][h].reshape(m // 2, n),
                params["relation"][r].reshape(m // 2, n),
            ],
            axis=0,
        )
        x = stacked * params["scale_in"][0] + params["shift_in"][0]
        c = np.zeros((spec.tau, mo, no))
        for f in range(spec.tau):
            for i in range(mo):
                for j in range(no):
                    c[f, i, j] = np.sum(x[i:i + kh, j:j + kw] * params["filters"][f])
        c = c * params["scale_conv"][:, None, None] + params["shift_conv"][:, None, None]
        v = np.maximum(c, 0.0).reshape(-1)
        e = v @ params["w_fc"] + params["b_fc"]
        e = np.maximum(e * params["scale_out"] + params["shift_out"], 0.0)
        return e @ params["entity"][t] + params["entity_bias"][t]

    rng = np.random.default_rng(11)
    for _ in range(4):
        h, t = rng.integers(0, spec.num_entities, 2)
        r = rng.integers(0, spec.num_relations)
        assert model.score(params, h, r, t) == pytest.approx(oracle(h, r, t))


def test_kg2e_kl_matches_per_dimension_oracle():
    spec, model, params = make("kg2e")
    rng = np.random.default_rng(12)
    params["entity_cov"] = rng.uniform(0.1, 4.0, params["entity_cov"].shape)
    params["relation_cov"] = rng.uniform(0.1, 4.0, params["relation_cov"].shape)
    for _ in range(8):
        h, t = rng.integers(0, spec.num_entities, 2)
        r = rng.integers(0, spec.num_relations)
        mu_e = params["entity_mu"][h] - params["entity_mu"][t]
        cov_e = params["entity_cov"][h] + params["entity_cov"][t]
        mu_r, cov_r = params["relation_mu"][r], params["relation_cov"][r]
        kl = sum(
            0.5 * np.log(v2 / v1) + (v1 + (m1 - m2) ** 2) / (2 * v2) - 0.5
            for m1, v1, m2, v2 in zip(mu_e, cov_e, mu_r, cov_r)
        )
        assert model.score(params, h, r, t) == pytest.approx(-kl)


def test_kg2e_kl_is_zero_for_identical_distributions():
    spec, model, params = make("kg2e")
    params["entity_mu"][1] = 0.0
    params["relation_mu"][0] = params["entity_mu"][0]
    params["relation_cov"][0] = params["entity_cov"][0] + params["entity_cov"][1]
    assert model.score(params, 0, 0, 1) == pytest.approx(0.0, abs=1e-12)


def test_kg2e_el_matches_gaussian_logpdf():
    spec, model, params = make("kg2e", similarity="el")
    rng = np.random.default_rng(13)
    params["entity_cov"] = rng.uniform(0.1, 4.0, params["entity_cov"].shape)
    params["relation_cov"] = rng.uniform(0.1, 4.0, params["relation_cov"].shape)
    for _ in range(8):
        h, t = rng.integers(0, spec.num_entities, 2)
        r = rng.integers(0, spec.num_relations)
        delta = (
            params["entity_mu"][h] - params["entity_mu"][t] - params["relation_mu"][r]
        )
        cov = (
            params["entity_cov"][h] + params["entity_cov"][t]
            + params["relation_cov"][r]
        )
        want = multivariate_normal(mean=np.zeros(spec.d_e), cov=np.diag(cov)).logpdf(delta)
        assert model.score(params, h, r, t) == pytest.approx(want)


# ---------------------------------------------------------------------------
# 1-N scoring vs the scalar path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_all_entity_scoring_matches_scalar_path(kind):
    spec, model, params = make(kind)
    rng = np.random.default_rng(14)
    for _ in range(3):
        h = int(rng.integers(0, spec.num_entities))
        r = int(rng.integers(0, spec.num_relations))
        t = int(rng.integers(0, spec.num_entities))
        tails = model.score_all_tails(params, h, r)
        heads = model.score_all_heads(params, r, t)
        assert tails.shape == (spec.num_entities,)
        assert heads.shape == (spec.num_entities,)
        for e in range(spec.num_entities):
            s_t = model.score(params, h, r, e)
            s_h = model.score(params, e, r, t)
            assert abs(tails[e] - s_t) <= 1e-10 * max(1.0, abs(s_t))
            assert abs(heads[e] - s_h) <= 1e-10 * max(1.0, abs(s_h))


@pytest.mark.parametrize("side", ("tails", "heads"))
@pytest.mark.parametrize("kind", KINDS)
def test_batched_all_entity_scoring_matches_row_wise(kind, side):
    # B > 1 is where (B, 1) rows and (1, E) tables could broadcast wrongly:
    # each row equals its own B = 1 call, and the scalar path to 1e-10
    spec, model, params = make(kind)
    E = spec.num_entities
    g = Graph()
    P = model.leaves(g, params, trainable=False)
    es, rs = np.array([0, 3, 5, 3]), np.array([0, 1, 2, 2])
    cand = np.arange(E)
    if side == "tails":
        batch = model.score_triples(g, P, es, rs, None).value
        rows = [model.score_all_tails(params, e, r) for e, r in zip(es, rs)]
        triples = [np.stack([np.full(E, e), np.full(E, r), cand], axis=1) for e, r in zip(es, rs)]
    else:
        batch = model.score_triples(g, P, None, rs, es).value
        rows = [model.score_all_heads(params, r, e) for e, r in zip(es, rs)]
        triples = [np.stack([cand, np.full(E, r), np.full(E, e)], axis=1) for e, r in zip(es, rs)]
    assert batch.shape == (len(es), E)
    assert np.allclose(batch, rows, rtol=0, atol=1e-12)
    want = model.score_batch(params, np.concatenate(triples)).reshape(batch.shape)
    assert np.all(np.abs(batch - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


def test_score_batch_matches_scalar_scores():
    spec, model, params = make("rescal")
    triples = np.array([[0, 0, 1], [2, 1, 3], [6, 2, 6]])
    got = model.score_batch(params, triples)
    want = [model.score(params, *t) for t in triples]
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_grid_scores_match_flat_triples(kind):
    # (B, N) h and t ids sharing each row's relation, as the sLCWA step
    # scores a positive and its negatives: scores and the gradient of their
    # weighted sum equal the flattened (B·N,) triples' to 1e-10
    spec, model, params = make(kind)
    rng = np.random.default_rng(17)
    B, N = 4, 3
    h = rng.integers(0, spec.num_entities, (B, N))
    t = rng.integers(0, spec.num_entities, (B, N))
    r = rng.integers(0, spec.num_relations, B)
    w = rng.normal(size=(B, N))
    runs = []
    for grid in (True, False):
        g = Graph()
        P = model.leaves(g, params)
        if grid:
            s = model.score_triples(g, P, h, r, t)
        else:
            s = model.score_triples(g, P, h.reshape(-1), np.repeat(r, N), t.reshape(-1))
            s = s.reshape((B, N))
        g.backward((s * w).sum())
        runs.append((s.value, {k: P[k].grad for k in params}, g, P))
    (got, grads, g, P), (want, flat_grads, _, _) = runs
    assert got.shape == (B, N)
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))
    for k, grad in flat_grads.items():
        assert np.all(np.abs(grads[k] - grad) <= 1e-10 * np.maximum(1.0, np.abs(grad))), k
    relation_rows = {node.shape[1] for node in g.nodes if node.op == "gather"
                     and node.parents[0] in [P[n] for n in model.relation_tables]}
    # each row's relation is gathered once, however many triples share it
    assert relation_rows == ({1} if model.relation_tables else set())


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def _fd_error(kind, score, step=1e-4):
    """Finite-difference error of score(model, g, P).sum() over every
    parameter, at the first initialization away from relu/abs corners."""
    model = build_interaction(small_spec(kind))
    names = [name for name, _, _ in model.tensor_specs()]

    def build(g, *leaves):
        return score(model, g, dict(zip(names, leaves))).sum()

    for attempt in range(30):
        params = init_parameters(model, 100 + attempt)
        g = Graph()
        build(g, *[g.leaf(params[n]) for n in names])
        if g.min_kink_distance() <= 10 * step:
            continue  # too close to a relu/abs corner, redraw
        return finite_difference_check(build, [params[n] for n in names], step=step)
    pytest.fail(f"{kind}: no kink-free parameter draw in 30 attempts")


@pytest.mark.parametrize("kind", KINDS)
def test_score_gradients_match_finite_differences(kind):
    spec = small_spec(kind)
    rng = np.random.default_rng(15)
    h, r, t = (rng.integers(0, n, 4) for n in
               (spec.num_entities, spec.num_relations, spec.num_entities))
    err = _fd_error(kind, lambda model, g, P: model.score_triples(g, P, h, r, t))
    assert err <= 1e-4, f"{kind}: fd relative error {err}"


@pytest.mark.parametrize("side", ("tails", "heads"))
@pytest.mark.parametrize("kind", KINDS)
def test_all_entity_gradients_match_finite_differences(kind, side):
    # LCWA trains through the all-tail call; weights make every entry count apart
    es, rs = np.array([0, 3, 6]), np.array([2, 0, 1])
    w = np.random.default_rng(16).normal(size=(len(es), small_spec(kind).num_entities))

    def score(model, g, P):
        if side == "tails":
            return model.score_triples(g, P, es, rs, None) * w
        return model.score_triples(g, P, None, rs, es) * w

    err = _fd_error(kind, score)
    assert err <= 1e-4, f"{kind} {side}: fd relative error {err}"


def test_models_state_their_score_once():
    # score_triples, the one scoring method, lives in the two base classes
    # only, so no model can fork it; each model states its score once. The
    # head query meets every key without a tail's entity bias, so no model
    # has both
    from kgembed.models import _REGISTRY, ContextInteraction, Interaction

    for cls in _REGISTRY.values():
        for klass in cls.__mro__[:-1]:
            if klass not in (Interaction, ContextInteraction):
                assert "score_triples" not in vars(klass), f"{klass.__name__} defines score_triples"
        assert "interaction" in vars(cls) or "tail_query" in vars(cls), cls.__name__
        assert getattr(cls, "entity_bias", None) is None or cls.head_query is None, cls.__name__


# ---------------------------------------------------------------------------
# parameter counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_parameter_count_equals_materialized_sizes(kind):
    rng = np.random.default_rng(16)
    for _ in range(5):
        kw = dict(
            kind=kind,
            num_entities=int(rng.integers(2, 40)),
            num_relations=int(rng.integers(1, 12)),
            d_e=int(rng.choice([2, 4, 6])),
        )
        if kind == "conve":
            kw["d_e"] = int(rng.choice([8, 18, 32]))
            kw["tau"] = int(rng.integers(1, 5))
        if kind == "convkb":
            kw["tau"] = int(rng.integers(1, 7))
        if kind in ("transr", "tucker"):
            kw["d_r"] = int(rng.integers(2, 7))
        if kind in ("transd", "ntn", "ermlp"):
            kw["k"] = int(rng.integers(2, 7))
        spec = InteractionSpec(**kw)
        model = build_interaction(spec)
        params = init_parameters(model, 0)
        total = sum(v.size for v in params.values())
        assert model.parameter_count() == total
        assert parameter_count(spec) == total


def test_parameter_count_is_exact_beyond_int64_without_allocating():
    # the count is read off tensor_specs, which no model restates
    import tracemalloc
    from kgembed.models import _REGISTRY, MAX_WIDTH

    assert not any("parameter_count" in vars(cls) for cls in _REGISTRY.values())
    tucker = InteractionSpec("tucker", num_entities=1, num_relations=1, d_e=2**22, d_r=2**20)
    w = MAX_WIDTH
    ntn = InteractionSpec("ntn", num_entities=1, num_relations=1, d_e=w, k=w)
    tracemalloc.start()
    try:
        counts = parameter_count(tucker), parameter_count(ntn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the core alone holds 2**64 scalars, one more than int64 can count
    assert counts[0] == 18446744073731571712
    assert counts[1] == w**3 + 2 * w**2 + 3 * w  # entity, w, v, b, u
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_xavier_bound_values():
    assert xavier_bound((10, 5)) == pytest.approx(np.sqrt(6 / 15))
    assert xavier_bound((7,)) == pytest.approx(np.sqrt(6 / 8))
    assert xavier_bound((3, 4, 5)) == pytest.approx(np.sqrt(6 / 23))


def test_init_respects_per_tensor_rules():
    spec, model, params = make("kg2e", seed=21)
    mid = 0.5 * (spec.c_min + spec.c_max)
    assert np.all(params["entity_cov"] == mid)
    assert np.all(params["relation_cov"] == mid)
    b = xavier_bound(params["entity_mu"].shape)
    assert np.all(np.abs(params["entity_mu"]) <= b)

    _, _, tucker = make("tucker", seed=21)
    assert np.all(tucker["scale0"] == 1.0)
    assert np.all(tucker["shift1"] == 0.0)

    spec_r, _, rot = make("rotate", seed=21)
    d = spec_r.d_e
    mods = np.hypot(rot["relation"][:, :d], rot["relation"][:, d:])
    assert np.allclose(mods, 1.0)


def test_init_deterministic_in_seed():
    _, model, a = make("transh", seed=5)
    _, _, b = make("transh", seed=5)
    _, _, c = make("transh", seed=6)
    for k in a:
        assert np.array_equal(a[k], b[k])
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_project_parameters_clamps_kg2e_covariances():
    spec, model, params = make("kg2e")
    params["entity_cov"][0, 0] = 100.0
    params["relation_cov"][0, 0] = 1e-9
    model.project_parameters(params)
    assert params["entity_cov"][0, 0] == spec.c_max
    assert params["relation_cov"][0, 0] == spec.c_min
    assert np.all(params["entity_cov"] >= spec.c_min)


def test_simple_declares_score_clamp():
    _, simple_model, _ = make("simple")
    _, transe_model, _ = make("transe")
    assert simple_model.score_clamp == (-20.0, 20.0)
    assert transe_model.score_clamp is None


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    spec, model, params = make("complex", seed=42)
    path = tmp_path / "model.kge"
    save_checkpoint(path, spec, params, extra={"seed": 42, "note": "x"})
    spec2, params2, extra = load_checkpoint(path)
    assert spec2 == spec
    assert extra == {"seed": 42, "note": "x"}
    assert list(params2) == list(params)
    for k in params:
        assert np.array_equal(params2[k], params[k])


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"PNG\x89 definitely not a checkpoint")
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(path)


def test_checkpoint_handles_scalar_shaped_tensors(tmp_path):
    spec, model, params = make("proje", seed=1)
    path = tmp_path / "p.kge"
    save_checkpoint(path, spec, params)
    _, params2, extra = load_checkpoint(path)
    assert extra == {}
    assert params2["b_project"].shape == (1,)
    assert np.array_equal(params2["b_project"], params["b_project"])


def test_checkpoint_size_check_is_exact_beyond_int64(tmp_path):
    # the core has 2**64 elements: an int64 size wraps to 176160768 bytes,
    # and a file that long would pass the length check
    spec = InteractionSpec("tucker", num_entities=1, num_relations=1, d_e=2**22, d_r=2**20)
    tensors = [{"name": name, "shape": list(shape)}
               for name, shape, _ in build_interaction(spec).tensor_specs()]
    blob = json.dumps({"spec": spec.to_dict(), "tensors": tensors, "extra": {}}).encode()
    path = tmp_path / "huge.kge"
    path.write_bytes(b"KGE1" + struct.pack("<I", len(blob)) + blob)
    with pytest.raises(ValueError, match="the header needs 147573952589852573696$"):
        load_checkpoint(path)


def _rewrite_header(path, edit):
    """Rewrite a checkpoint's JSON header through `edit`, keeping the tensors."""
    data = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", data, 4)
    header = json.loads(data[8 : 8 + hlen])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(data[:4] + struct.pack("<I", len(blob)) + blob + data[8 + hlen :])


def test_checkpoint_rejects_truncation_trailing_bytes_and_bad_headers(tmp_path):
    spec, model, params = make("transe", seed=2)
    path = tmp_path / "m.kge"
    save_checkpoint(path, spec, params)
    whole = path.read_bytes()
    cut = tmp_path / "cut.kge"
    for size in range(len(whole)):
        cut.write_bytes(whole[:size])
        with pytest.raises(ValueError):
            load_checkpoint(cut)
    cut.write_bytes(whole + b"\0")
    with pytest.raises(ValueError, match="tensor bytes"):
        load_checkpoint(cut)
    edits = [
        lambda h: h["spec"].update(margin=1.0),          # unknown spec key
        lambda h: h["spec"].pop("num_entities"),          # missing spec key
        lambda h: h["spec"].update(d_e=spec.d_e + 1),     # tensors of another spec
        lambda h: h["tensors"][0].update(shape=[3]),
        lambda h: h["tensors"].pop(),
        lambda h: h.pop("spec"),
        lambda h: h.update(extra=[1]),
    ]
    for edit in edits:
        path.write_bytes(whole)
        _rewrite_header(path, edit)
        with pytest.raises(ValueError):
            load_checkpoint(path)
