"""Interaction models: scoring functions over (head, relation, tail) id triples.

Every model follows the same conventions:
  * parameters live in an ordered dict of named float64 arrays
  * scores are higher-is-better for every kind; distance-based models return
    negated distances
  * score_triples builds graph nodes for a batch of id triples, so the same
    code path serves training (with gradients) and evaluation (without)
  * score_tails / score_heads return a (batch, num_entities) score matrix and
    must agree with the scalar path to 1e-10; models override the generic
    implementation where the algebra factorizes into something cheaper

Dimensions follow the usual conventions: d_e entity dim, d_r relation dim,
k an extra per-kind width (TransD projection size, NTN slice count, ERMLP
hidden width).
"""

import json
import struct
from dataclasses import dataclass, field, asdict

import numpy as np

from .autodiff import Graph

TWO_PI = 2.0 * np.pi

# the largest d_e, d_r, k or tau a spec accepts: one table row of this many
# float64 values is 16 GiB, and ConvE's reshape search stays short below it
MAX_WIDTH = 2**31 - 1

KINDS = (
    "um", "se", "transe", "transh", "transr", "transd",
    "rescal", "distmult", "complex", "rotate", "simple",
    "tucker", "proje", "hole", "kg2e", "ermlp", "ntn",
    "convkb", "conve",
)


def _conv_rows(d_e, kernel):
    """Pick an even row count m with m*n = 2*d_e, as square as possible."""
    area = 2 * d_e
    for m in range(int(np.sqrt(area)), 1, -1):
        if area % m == 0 and m % 2 == 0 and m >= kernel[0] and area // m >= kernel[1]:
            return m
    raise ValueError(f"no even reshape rows for d_e={d_e} with kernel {kernel}")


@dataclass
class InteractionSpec:
    """Everything needed to build one interaction model.

    Optional fields resolve to per-kind defaults: d_r falls back to d_e,
    k falls back to d_e (TransD projection dim, ERMLP hidden width) or 4
    (NTN slices), conv_height to the squarest even factorization of 2*d_e.
    """

    kind: str
    num_entities: int
    num_relations: int
    d_e: int = 64
    d_r: int = None
    k: int = None
    tau: int = 32                      # ConvKB / ConvE filter count
    kernel: tuple = (3, 3)             # ConvE kernel size
    p: int = 2                         # norm order for TransE
    similarity: str = "kl"             # KG2E: "kl" or "el"
    c_min: float = 0.05                # KG2E covariance clamp range
    c_max: float = 5.0
    conv_height: int = None            # ConvE reshape rows m

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown interaction kind {self.kind!r}")
        if self.num_entities < 1 or self.num_relations < 1:
            raise ValueError("need at least one entity and one relation")
        if self.d_r is None:
            self.d_r = self.d_e
        if self.k is None:
            self.k = 4 if self.kind == "ntn" else self.d_e
        for name in ("d_e", "d_r", "k", "tau"):
            if not 1 <= getattr(self, name) <= MAX_WIDTH:
                raise ValueError(f"{name} must lie in [1, {MAX_WIDTH}]")
        if self.p not in (1, 2):
            raise ValueError("p must be 1 or 2")
        if self.similarity not in ("kl", "el"):
            raise ValueError("similarity must be 'kl' or 'el'")
        if not (0.0 < self.c_min < self.c_max):
            raise ValueError("need 0 < c_min < c_max")
        self.kernel = tuple(self.kernel)
        if self.kind == "conve":
            if self.conv_height is None:
                self.conv_height = _conv_rows(self.d_e, self.kernel)
            m = self.conv_height
            if m % 2 != 0 or (2 * self.d_e) % m != 0:
                raise ValueError("conv_height must be even and divide 2*d_e")
            n = 2 * self.d_e // m
            if self.kernel[0] > m or self.kernel[1] > n:
                raise ValueError(f"kernel {self.kernel} does not fit the {m}x{n} reshape")

    @property
    def conv_width(self):
        return 2 * self.d_e // self.conv_height

    @property
    def conv_out(self):
        """ConvE feature map size after the valid convolution."""
        return (
            self.conv_height - self.kernel[0] + 1,
            self.conv_width - self.kernel[1] + 1,
        )

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, doc):
        doc = dict(doc)
        doc["kernel"] = tuple(doc.get("kernel", (3, 3)))
        return cls(**doc)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def xavier_bound(shape):
    """Uniform bound sqrt(6 / (fan_in + fan_out)).

    fan_out is the leading axis, fan_in the product of the remaining axes
    (1 for vectors), so embedding matrices and weight tensors share one rule.
    """
    fan_out = shape[0]
    fan_in = 1
    for s in shape[1:]:
        fan_in *= s
    return np.sqrt(6.0 / (fan_in + fan_out))


def init_parameters(model, seed):
    """Fresh parameter dict for `model`, deterministic in `seed`.

    Weight tensors are Xavier-uniform; biases start at zero, affine scales at
    one, KG2E covariances at the midpoint of their clamp range, RotatE
    relations at unit modulus with phases uniform in [0, 2*pi).
    """
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape, init in model.tensor_specs():
        if init == "xavier":
            b = xavier_bound(shape)
            params[name] = rng.uniform(-b, b, size=shape)
        elif init == "zeros":
            params[name] = np.zeros(shape)
        elif init == "ones":
            params[name] = np.ones(shape)
        elif init == "cov_mid":
            mid = 0.5 * (model.spec.c_min + model.spec.c_max)
            params[name] = np.full(shape, mid)
        elif init == "phase":
            # shape is (R, 2d): unit-modulus complex numbers stored [re | im]
            d = shape[1] // 2
            theta = rng.uniform(0.0, TWO_PI, size=(shape[0], d))
            params[name] = np.concatenate([np.cos(theta), np.sin(theta)], axis=1)
        else:
            raise ValueError(f"unknown init kind {init!r}")
        params[name] = np.ascontiguousarray(params[name], dtype=np.float64)
    return params


# ---------------------------------------------------------------------------
# shared graph helpers
# ---------------------------------------------------------------------------

def _rowdot(g, a, b):
    return g.einsum("bd,bd->b", a, b)


def _neg_sq_norm(g, diff, axis=-1):
    return -g.square(diff).sum(axis=axis)


def _ids(x):
    return np.asarray(x, dtype=np.intp).reshape(-1)


class Interaction:
    """Base class: generic all-entity scoring and numpy conveniences."""

    kind = None
    score_clamp = None  # (lo, hi) applied in the loss path only

    def __init__(self, spec):
        if spec.kind != self.kind:
            raise ValueError(f"spec kind {spec.kind!r} does not match model {self.kind!r}")
        self.spec = spec

    # subclasses provide: tensor_specs, parameter_count, score_triples

    def leaves(self, g, params, trainable=True):
        """Register every parameter tensor as a leaf of `g`."""
        return {name: g.leaf(value, requires_grad=trainable) for name, value in params.items()}

    def project_parameters(self, params):
        """In-place constraint hook applied after every optimizer step."""

    def score_tails(self, g, P, h_ids, r_ids):
        """(B, E) scores for every candidate tail. Generic fallback scores
        all B*E triples through the scalar path."""
        E = self.spec.num_entities
        h_ids, r_ids = _ids(h_ids), _ids(r_ids)
        B = h_ids.shape[0]
        s = self.score_triples(
            g, P,
            np.repeat(h_ids, E),
            np.repeat(r_ids, E),
            np.tile(np.arange(E, dtype=np.intp), B),
        )
        return s.reshape((B, E))

    def score_heads(self, g, P, r_ids, t_ids):
        """(B, E) scores for every candidate head; generic fallback."""
        E = self.spec.num_entities
        r_ids, t_ids = _ids(r_ids), _ids(t_ids)
        B = r_ids.shape[0]
        s = self.score_triples(
            g, P,
            np.tile(np.arange(E, dtype=np.intp), B),
            np.repeat(r_ids, E),
            np.repeat(t_ids, E),
        )
        return s.reshape((B, E))

    # ----- numpy conveniences (no gradients) --------------------------------

    def score(self, params, h, r, t):
        """Plausibility of one id triple as a float; higher is better."""
        g = Graph()
        P = self.leaves(g, params, trainable=False)
        return float(self.score_triples(g, P, [h], [r], [t]).value[0])

    def score_batch(self, params, triples):
        g = Graph()
        P = self.leaves(g, params, trainable=False)
        triples = np.asarray(triples, dtype=np.intp).reshape(-1, 3)
        return self.score_triples(g, P, triples[:, 0], triples[:, 1], triples[:, 2]).value

    def score_all_tails(self, params, h, r):
        """Scores of (h, r, e) for every entity e, as an (E,) array."""
        g = Graph()
        P = self.leaves(g, params, trainable=False)
        return self.score_tails(g, P, [h], [r]).value[0]

    def score_all_heads(self, params, r, t):
        g = Graph()
        P = self.leaves(g, params, trainable=False)
        return self.score_heads(g, P, [r], [t]).value[0]


# ---------------------------------------------------------------------------
# the nineteen interaction models
# ---------------------------------------------------------------------------

class UM(Interaction):
    """Unstructured model: -||h - t||^2. Ignores the relation entirely."""

    kind = "um"

    def tensor_specs(self):
        s = self.spec
        return [("entity", (s.num_entities, s.d_e), "xavier")]

    def parameter_count(self):
        s = self.spec
        return s.num_entities * s.d_e

    def score_triples(self, g, P, h_ids, r_ids, t_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        t = g.gather(P["entity"], _ids(t_ids))
        return _neg_sq_norm(g, h - t, axis=1)

    def score_tails(self, g, P, h_ids, r_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        diff = h.reshape((h.shape[0], 1, self.spec.d_e)) - P["entity"]
        return _neg_sq_norm(g, diff)

    def score_heads(self, g, P, r_ids, t_ids):
        t = g.gather(P["entity"], _ids(t_ids))
        diff = P["entity"] - t.reshape((t.shape[0], 1, self.spec.d_e))
        return _neg_sq_norm(g, diff)


class SE(Interaction):
    """Structured embedding: -||M_r^h h - M_r^t t||_1 with two projection
    matrices per relation."""

    kind = "se"

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("m_head", (s.num_relations, s.d_e, s.d_e), "xavier"),
            ("m_tail", (s.num_relations, s.d_e, s.d_e), "xavier"),
        ]

    def parameter_count(self):
        s = self.spec
        return s.num_entities * s.d_e + 2 * s.num_relations * s.d_e * s.d_e

    def _project(self, g, P, h_ids, r_ids, t_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        t = g.gather(P["entity"], _ids(t_ids))
        mh = g.gather(P["m_head"], _ids(r_ids))
        mt = g.gather(P["m_tail"], _ids(r_ids))
        return g.einsum("bij,bj->bi", mh, h), g.einsum("bij,bj->bi", mt, t)

    def score_triples(self, g, P, h_ids, r_ids, t_ids):
        u, v = self._project(g, P, h_ids, r_ids, t_ids)
        return -g.pnorm(u - v, p=1, axis=1)

    def score_tails(self, g, P, h_ids, r_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        mh = g.gather(P["m_head"], _ids(r_ids))
        mt = g.gather(P["m_tail"], _ids(r_ids))
        u = g.einsum("bij,bj->bi", mh, h)
        v = g.einsum("bij,ej->bei", mt, P["entity"])
        diff = u.reshape((u.shape[0], 1, self.spec.d_e)) - v
        return -g.pnorm(diff, p=1, axis=-1)

    def score_heads(self, g, P, r_ids, t_ids):
        t = g.gather(P["entity"], _ids(t_ids))
        mh = g.gather(P["m_head"], _ids(r_ids))
        mt = g.gather(P["m_tail"], _ids(r_ids))
        v = g.einsum("bij,bj->bi", mt, t)
        u = g.einsum("bij,ej->bei", mh, P["entity"])
        diff = u - v.reshape((v.shape[0], 1, self.spec.d_e))
        return -g.pnorm(diff, p=1, axis=-1)


class TransE(Interaction):
    """Translation in one space: -||h + r - t||_p, p in {1, 2}."""

    kind = "transe"

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("relation", (s.num_relations, s.d_e), "xavier"),
        ]

    def parameter_count(self):
        s = self.spec
        return s.num_entities * s.d_e + s.num_relations * s.d_e

    def score_triples(self, g, P, h_ids, r_ids, t_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        r = g.gather(P["relation"], _ids(r_ids))
        t = g.gather(P["entity"], _ids(t_ids))
        return -g.pnorm(h + r - t, p=self.spec.p, axis=1)

    def score_tails(self, g, P, h_ids, r_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        r = g.gather(P["relation"], _ids(r_ids))
        hr = h + r
        diff = hr.reshape((hr.shape[0], 1, self.spec.d_e)) - P["entity"]
        return -g.pnorm(diff, p=self.spec.p, axis=-1)

    def score_heads(self, g, P, r_ids, t_ids):
        r = g.gather(P["relation"], _ids(r_ids))
        t = g.gather(P["entity"], _ids(t_ids))
        rt = r - t
        diff = P["entity"] + rt.reshape((rt.shape[0], 1, self.spec.d_e))
        return -g.pnorm(diff, p=self.spec.p, axis=-1)


class TransH(Interaction):
    """Translation on a relation-specific hyperplane.

    The stored normal vector is normalized inside the score so the
    projection x - (w.x) w is a true hyperplane projection.
    """

    kind = "transh"

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("normal", (s.num_relations, s.d_e), "xavier"),
            ("translation", (s.num_relations, s.d_e), "xavier"),
        ]

    def parameter_count(self):
        s = self.spec
        return s.num_entities * s.d_e + 2 * s.num_relations * s.d_e

    def _unit_normal(self, g, P, r_ids):
        w = g.gather(P["normal"], _ids(r_ids))
        return w / g.pnorm(w, p=2, axis=1, keepdims=True)

    def score_triples(self, g, P, h_ids, r_ids, t_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        t = g.gather(P["entity"], _ids(t_ids))
        d = g.gather(P["translation"], _ids(r_ids))
        w = self._unit_normal(g, P, r_ids)
        h_p = h - g.einsum("bd,bd->b", w, h).reshape((-1, 1)) * w
        t_p = t - g.einsum("bd,bd->b", w, t).reshape((-1, 1)) * w
        return _neg_sq_norm(g, h_p + d - t_p, axis=1)

    def score_tails(self, g, P, h_ids, r_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        d = g.gather(P["translation"], _ids(r_ids))
        w = self._unit_normal(g, P, r_ids)
        B, de = h.shape[0], self.spec.d_e
        h_p = h - g.einsum("bd,bd->b", w, h).reshape((-1, 1)) * w
        dots = g.einsum("ed,bd->be", P["entity"], w)  # (B, E) of w_b . e
        t_p = P["entity"] - dots.reshape((B, -1, 1)) * w.reshape((B, 1, de))
        diff = (h_p + d).reshape((B, 1, de)) - t_p
        return _neg_sq_norm(g, diff)

    def score_heads(self, g, P, r_ids, t_ids):
        t = g.gather(P["entity"], _ids(t_ids))
        d = g.gather(P["translation"], _ids(r_ids))
        w = self._unit_normal(g, P, r_ids)
        B, de = t.shape[0], self.spec.d_e
        t_p = t - g.einsum("bd,bd->b", w, t).reshape((-1, 1)) * w
        dots = g.einsum("ed,bd->be", P["entity"], w)
        h_p = P["entity"] - dots.reshape((B, -1, 1)) * w.reshape((B, 1, de))
        diff = h_p + (d - t_p).reshape((B, 1, de))
        return _neg_sq_norm(g, diff)


class TransR(Interaction):
    """Translation after a relation-specific linear map into R^{d_r}."""

    kind = "transr"

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("relation", (s.num_relations, s.d_r), "xavier"),
            ("projection", (s.num_relations, s.d_r, s.d_e), "xavier"),
        ]

    def parameter_count(self):
        s = self.spec
        return (
            s.num_entities * s.d_e
            + s.num_relations * s.d_r
            + s.num_relations * s.d_r * s.d_e
        )

    def score_triples(self, g, P, h_ids, r_ids, t_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        t = g.gather(P["entity"], _ids(t_ids))
        r = g.gather(P["relation"], _ids(r_ids))
        M = g.gather(P["projection"], _ids(r_ids))
        h_p = g.einsum("bij,bj->bi", M, h)
        t_p = g.einsum("bij,bj->bi", M, t)
        return _neg_sq_norm(g, h_p + r - t_p, axis=1)

    def score_tails(self, g, P, h_ids, r_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        r = g.gather(P["relation"], _ids(r_ids))
        M = g.gather(P["projection"], _ids(r_ids))
        h_p = g.einsum("bij,bj->bi", M, h)
        t_p = g.einsum("bij,ej->bei", M, P["entity"])
        diff = (h_p + r).reshape((h_p.shape[0], 1, self.spec.d_r)) - t_p
        return _neg_sq_norm(g, diff)

    def score_heads(self, g, P, r_ids, t_ids):
        t = g.gather(P["entity"], _ids(t_ids))
        r = g.gather(P["relation"], _ids(r_ids))
        M = g.gather(P["projection"], _ids(r_ids))
        t_p = g.einsum("bij,bj->bi", M, t)
        h_p = g.einsum("bij,ej->bei", M, P["entity"])
        diff = h_p + (r - t_p).reshape((t_p.shape[0], 1, self.spec.d_r))
        return _neg_sq_norm(g, diff)


class TransD(Interaction):
    """Translation with entity-and-relation specific dynamic projections.

    M_{r,e} = r_p e_p^T + I~ applied to e collapses to
    r_p * (e_p . e) + resize(e), where resize pads or truncates e to k dims,
    so the projection matrix is never materialized.
    """

    kind = "transd"

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("entity_p", (s.num_entities, s.d_e), "xavier"),
            ("relation", (s.num_relations, s.k), "xavier"),
            ("relation_p", (s.num_relations, s.k), "xavier"),
        ]

    def parameter_count(self):
        s = self.spec
        return 2 * s.num_entities * s.d_e + 2 * s.num_relations * s.k

    def _resize(self, g, x):
        """First k components of x along the last axis, zero-padded if k > d_e."""
        d, k = self.spec.d_e, self.spec.k
        if k == d:
            return x
        if k < d:
            key = (Ellipsis, slice(0, k))
            return g.apply("slice", x, key=key)
        zeros = g.constant(np.zeros(x.shape[:-1] + (k - d,)))
        return g.concat([x, zeros], axis=x.value.ndim - 1)

    def _project(self, g, e, e_p, r_p):
        dots = g.einsum("bd,bd->b", e_p, e).reshape((-1, 1))
        return r_p * dots + self._resize(g, e)

    def score_triples(self, g, P, h_ids, r_ids, t_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        hp = g.gather(P["entity_p"], _ids(h_ids))
        t = g.gather(P["entity"], _ids(t_ids))
        tp = g.gather(P["entity_p"], _ids(t_ids))
        r = g.gather(P["relation"], _ids(r_ids))
        rp = g.gather(P["relation_p"], _ids(r_ids))
        h_proj = self._project(g, h, hp, rp)
        t_proj = self._project(g, t, tp, rp)
        return _neg_sq_norm(g, h_proj + r - t_proj, axis=1)

    def _project_all(self, g, P, rp):
        # projection of every entity for every batch row: (B, E, k)
        dots = g.einsum("ed,ed->e", P["entity_p"], P["entity"])
        B, k = rp.shape[0], self.spec.k
        outer = g.einsum("bk,e->bek", rp, dots)
        return outer + self._resize(g, P["entity"])

    def score_tails(self, g, P, h_ids, r_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        hp = g.gather(P["entity_p"], _ids(h_ids))
        r = g.gather(P["relation"], _ids(r_ids))
        rp = g.gather(P["relation_p"], _ids(r_ids))
        h_proj = self._project(g, h, hp, rp)
        t_all = self._project_all(g, P, rp)
        diff = (h_proj + r).reshape((h_proj.shape[0], 1, self.spec.k)) - t_all
        return _neg_sq_norm(g, diff)

    def score_heads(self, g, P, r_ids, t_ids):
        t = g.gather(P["entity"], _ids(t_ids))
        tp = g.gather(P["entity_p"], _ids(t_ids))
        r = g.gather(P["relation"], _ids(r_ids))
        rp = g.gather(P["relation_p"], _ids(r_ids))
        t_proj = self._project(g, t, tp, rp)
        h_all = self._project_all(g, P, rp)
        diff = h_all + (r - t_proj).reshape((t_proj.shape[0], 1, self.spec.k))
        return _neg_sq_norm(g, diff)


class RESCAL(Interaction):
    """Bilinear model with a full matrix per relation: h^T W_r t."""

    kind = "rescal"

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("relation", (s.num_relations, s.d_e, s.d_e), "xavier"),
        ]

    def parameter_count(self):
        s = self.spec
        return s.num_entities * s.d_e + s.num_relations * s.d_e * s.d_e

    def score_triples(self, g, P, h_ids, r_ids, t_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        t = g.gather(P["entity"], _ids(t_ids))
        W = g.gather(P["relation"], _ids(r_ids))
        hw = g.einsum("bi,bij->bj", h, W)
        return _rowdot(g, hw, t)

    def score_tails(self, g, P, h_ids, r_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        W = g.gather(P["relation"], _ids(r_ids))
        hw = g.einsum("bi,bij->bj", h, W)
        return hw @ P["entity"].T

    def score_heads(self, g, P, r_ids, t_ids):
        t = g.gather(P["entity"], _ids(t_ids))
        W = g.gather(P["relation"], _ids(r_ids))
        wt = g.einsum("bij,bj->bi", W, t)
        return wt @ P["entity"].T


class DistMult(Interaction):
    """RESCAL restricted to diagonal relation matrices; symmetric in h and t."""

    kind = "distmult"

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("relation", (s.num_relations, s.d_e), "xavier"),
        ]

    def parameter_count(self):
        s = self.spec
        return s.num_entities * s.d_e + s.num_relations * s.d_e

    def score_triples(self, g, P, h_ids, r_ids, t_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        r = g.gather(P["relation"], _ids(r_ids))
        t = g.gather(P["entity"], _ids(t_ids))
        return (h * r * t).sum(axis=1)

    def score_tails(self, g, P, h_ids, r_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        r = g.gather(P["relation"], _ids(r_ids))
        return (h * r) @ P["entity"].T

    def score_heads(self, g, P, r_ids, t_ids):
        r = g.gather(P["relation"], _ids(r_ids))
        t = g.gather(P["entity"], _ids(t_ids))
        return (t * r) @ P["entity"].T


class ComplEx(Interaction):
    """Bilinear model over C^d: Re(<h, r, conj(t)>).

    Embeddings are stored as (n, 2d) arrays, real parts in the first d
    columns. The conjugation on the tail is what lets the model represent
    anti-symmetric relations.
    """

    kind = "complex"

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, 2 * s.d_e), "xavier"),
            ("relation", (s.num_relations, 2 * s.d_e), "xavier"),
        ]

    def parameter_count(self):
        s = self.spec
        return 2 * s.num_entities * s.d_e + 2 * s.num_relations * s.d_e

    def _split(self, g, x):
        d = self.spec.d_e
        return x[..., :d], x[..., d:]

    def score_triples(self, g, P, h_ids, r_ids, t_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        r = g.gather(P["relation"], _ids(r_ids))
        t = g.gather(P["entity"], _ids(t_ids))
        hr, hi = self._split(g, h)
        rr, ri = self._split(g, r)
        tr, ti = self._split(g, t)
        re = hr * rr - hi * ri
        im = hi * rr + hr * ri
        return (re * tr + im * ti).sum(axis=1)

    def score_tails(self, g, P, h_ids, r_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        r = g.gather(P["relation"], _ids(r_ids))
        hr, hi = self._split(g, h)
        rr, ri = self._split(g, r)
        re = hr * rr - hi * ri
        im = hi * rr + hr * ri
        return g.concat([re, im], axis=1) @ P["entity"].T

    def score_heads(self, g, P, r_ids, t_ids):
        r = g.gather(P["relation"], _ids(r_ids))
        t = g.gather(P["entity"], _ids(t_ids))
        rr, ri = self._split(g, r)
        tr, ti = self._split(g, t)
        # regroup by the head components: f = h_re.(r_re t_re + r_im t_im)
        #                                    + h_im.(r_re t_im - r_im t_re)
        u = rr * tr + ri * ti
        v = rr * ti - ri * tr
        return g.concat([u, v], axis=1) @ P["entity"].T


class RotatE(Interaction):
    """Rotation in the complex plane: -||h . r - t||_2 with |r_i| = 1.

    Relations are stored as raw complex numbers (initialized on the unit
    circle) and renormalized to unit modulus inside the score, so the
    rotation property holds throughout training.
    """

    kind = "rotate"

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, 2 * s.d_e), "xavier"),
            ("relation", (s.num_relations, 2 * s.d_e), "phase"),
        ]

    def parameter_count(self):
        s = self.spec
        return 2 * s.num_entities * s.d_e + 2 * s.num_relations * s.d_e

    def _unit_relation(self, g, P, r_ids):
        d = self.spec.d_e
        r = g.gather(P["relation"], _ids(r_ids))
        rr, ri = r[..., :d], r[..., d:]
        mod = g.pnorm(
            g.concat([rr.reshape((-1, d, 1)), ri.reshape((-1, d, 1))], axis=2),
            p=2, axis=2,
        )
        return rr / mod, ri / mod

    def _rotated_head(self, g, P, h_ids, r_ids):
        d = self.spec.d_e
        h = g.gather(P["entity"], _ids(h_ids))
        hr, hi = h[..., :d], h[..., d:]
        rr, ri = self._unit_relation(g, P, r_ids)
        return hr * rr - hi * ri, hr * ri + hi * rr

    def score_triples(self, g, P, h_ids, r_ids, t_ids):
        d = self.spec.d_e
        xr, xi = self._rotated_head(g, P, h_ids, r_ids)
        t = g.gather(P["entity"], _ids(t_ids))
        diff = g.concat([xr - t[..., :d], xi - t[..., d:]], axis=1)
        return -g.pnorm(diff, p=2, axis=1)

    def score_tails(self, g, P, h_ids, r_ids):
        d = self.spec.d_e
        xr, xi = self._rotated_head(g, P, h_ids, r_ids)
        x = g.concat([xr, xi], axis=1)
        diff = x.reshape((x.shape[0], 1, 2 * d)) - P["entity"]
        return -g.pnorm(diff, p=2, axis=-1)

    def score_heads(self, g, P, r_ids, t_ids):
        # rotate the tail backwards: ||h.r - t|| = ||h - t.conj(r)||
        d = self.spec.d_e
        t = g.gather(P["entity"], _ids(t_ids))
        tr, ti = t[..., :d], t[..., d:]
        rr, ri = self._unit_relation(g, P, r_ids)
        yr = tr * rr + ti * ri
        yi = ti * rr - tr * ri
        y = g.concat([yr, yi], axis=1)
        diff = P["entity"] - y.reshape((y.shape[0], 1, 2 * d))
        return -g.pnorm(diff, p=2, axis=-1)


class SimplE(Interaction):
    """Canonical-polyadic scoring with tied head/tail roles and an inverse
    relation vector per relation; the two directions are averaged. Training
    scores are clamped to [-20, 20] (in the loss path only)."""

    kind = "simple"
    score_clamp = (-20.0, 20.0)

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity_h", (s.num_entities, s.d_e), "xavier"),
            ("entity_t", (s.num_entities, s.d_e), "xavier"),
            ("relation", (s.num_relations, s.d_e), "xavier"),
            ("relation_inv", (s.num_relations, s.d_e), "xavier"),
        ]

    def parameter_count(self):
        s = self.spec
        return 2 * s.num_entities * s.d_e + 2 * s.num_relations * s.d_e

    def score_triples(self, g, P, h_ids, r_ids, t_ids):
        h_ids, r_ids, t_ids = _ids(h_ids), _ids(r_ids), _ids(t_ids)
        hh = g.gather(P["entity_h"], h_ids)
        th = g.gather(P["entity_h"], t_ids)
        ht = g.gather(P["entity_t"], h_ids)
        tt = g.gather(P["entity_t"], t_ids)
        r = g.gather(P["relation"], r_ids)
        ri = g.gather(P["relation_inv"], r_ids)
        fwd = (hh * r * tt).sum(axis=1)
        bwd = (th * ri * ht).sum(axis=1)
        return 0.5 * (fwd + bwd)

    def score_tails(self, g, P, h_ids, r_ids):
        h_ids, r_ids = _ids(h_ids), _ids(r_ids)
        hh = g.gather(P["entity_h"], h_ids)
        ht = g.gather(P["entity_t"], h_ids)
        r = g.gather(P["relation"], r_ids)
        ri = g.gather(P["relation_inv"], r_ids)
        fwd = (hh * r) @ P["entity_t"].T
        bwd = (ht * ri) @ P["entity_h"].T
        return 0.5 * (fwd + bwd)

    def score_heads(self, g, P, r_ids, t_ids):
        r_ids, t_ids = _ids(r_ids), _ids(t_ids)
        th = g.gather(P["entity_h"], t_ids)
        tt = g.gather(P["entity_t"], t_ids)
        r = g.gather(P["relation"], r_ids)
        ri = g.gather(P["relation_inv"], r_ids)
        fwd = (tt * r) @ P["entity_h"].T
        bwd = (th * ri) @ P["entity_t"].T
        return 0.5 * (fwd + bwd)


class TuckER(Interaction):
    """Tucker decomposition scoring: W x1 h x2 r x3 t with a shared core.

    The two per-feature affine pairs are the learnable remnants of the
    original architecture's normalization layers; batch statistics are
    deliberately omitted so scoring stays a pure function of the triple.
    """

    kind = "tucker"

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("relation", (s.num_relations, s.d_r), "xavier"),
            ("core", (s.d_e, s.d_r, s.d_e), "xavier"),
            ("scale0", (s.d_e,), "ones"),
            ("shift0", (s.d_e,), "zeros"),
            ("scale1", (s.d_e,), "ones"),
            ("shift1", (s.d_e,), "zeros"),
        ]

    def parameter_count(self):
        s = self.spec
        return (
            s.num_entities * s.d_e
            + s.num_relations * s.d_r
            + s.d_e * s.d_r * s.d_e
            + 4 * s.d_e
        )

    def _context(self, g, P, h_ids, r_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        r = g.gather(P["relation"], _ids(r_ids))
        x = h * P["scale0"] + P["shift0"]
        xw = g.einsum("bp,pqe->bqe", x, P["core"])
        y = g.einsum("bqe,bq->be", xw, r)
        return y * P["scale1"] + P["shift1"]

    def score_triples(self, g, P, h_ids, r_ids, t_ids):
        y = self._context(g, P, h_ids, r_ids)
        t = g.gather(P["entity"], _ids(t_ids))
        return _rowdot(g, y, t)

    def score_tails(self, g, P, h_ids, r_ids):
        y = self._context(g, P, h_ids, r_ids)
        return y @ P["entity"].T

    def score_heads(self, g, P, r_ids, t_ids):
        # score(h', r, t) = (scale0*h' + shift0) . m + shift1 . t
        # with m_p = sum_{q,e} core[p,q,e] r_q (scale1*t)_e
        r = g.gather(P["relation"], _ids(r_ids))
        t = g.gather(P["entity"], _ids(t_ids))
        m = g.einsum("pqe,be->bpq", P["core"], t * P["scale1"])
        m = g.einsum("bpq,bq->bp", m, r)
        scores = m @ (P["entity"] * P["scale0"]).T
        const = g.einsum("p,bp->b", P["shift0"], m) + g.einsum("bd,d->b", t, P["shift1"])
        return scores + const.reshape((-1, 1))


class ProjE(Interaction):
    """Shared diagonal combination of h and r, then a tail match:
    sigmoid(t . tanh(D_e h + D_r r + b_c) + b_p)."""

    kind = "proje"

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("relation", (s.num_relations, s.d_e), "xavier"),
            ("d_entity", (s.d_e,), "xavier"),
            ("d_relation", (s.d_e,), "xavier"),
            ("b_combine", (s.d_e,), "zeros"),
            ("b_project", (1,), "zeros"),
        ]

    def parameter_count(self):
        s = self.spec
        return s.num_entities * s.d_e + s.num_relations * s.d_e + 3 * s.d_e + 1

    def _combined(self, g, P, h_ids, r_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        r = g.gather(P["relation"], _ids(r_ids))
        return g.tanh(h * P["d_entity"] + r * P["d_relation"] + P["b_combine"])

    def score_triples(self, g, P, h_ids, r_ids, t_ids):
        z = self._combined(g, P, h_ids, r_ids)
        t = g.gather(P["entity"], _ids(t_ids))
        return g.sigmoid(_rowdot(g, t, z) + P["b_project"][0])

    def score_tails(self, g, P, h_ids, r_ids):
        z = self._combined(g, P, h_ids, r_ids)
        return g.sigmoid(z @ P["entity"].T + P["b_project"][0])


class HolE(Interaction):
    """Holographic embeddings: sigmoid(r . circcorr(h, t)).

    The correlation is an FFT product, O(d log d). The all-tails and all-heads
    paths use the identities r.(h*t) = t.conv(h, r) = h.corr(r, t), keeping
    1-N scoring a matmul.
    """

    kind = "hole"

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("relation", (s.num_relations, s.d_e), "xavier"),
        ]

    def parameter_count(self):
        s = self.spec
        return s.num_entities * s.d_e + s.num_relations * s.d_e

    def score_triples(self, g, P, h_ids, r_ids, t_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        r = g.gather(P["relation"], _ids(r_ids))
        t = g.gather(P["entity"], _ids(t_ids))
        corr = g.circcorr(h, t)
        return g.sigmoid(_rowdot(g, r, corr))

    def score_tails(self, g, P, h_ids, r_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        r = g.gather(P["relation"], _ids(r_ids))
        conv = g.circcorr(g.reverse_roll(h), r)  # circular convolution of h and r
        return g.sigmoid(conv @ P["entity"].T)

    def score_heads(self, g, P, r_ids, t_ids):
        r = g.gather(P["relation"], _ids(r_ids))
        t = g.gather(P["entity"], _ids(t_ids))
        corr = g.circcorr(r, t)
        return g.sigmoid(corr @ P["entity"].T)


class KG2E(Interaction):
    """Gaussian embeddings with diagonal covariances.

    The difference distribution P_e = N(mu_h - mu_t, cov_h + cov_t) is
    compared with the relation distribution either by KL divergence or by
    log expected likelihood; both are returned negated so that higher means
    more plausible. Covariances are clamped to [c_min, c_max] after every
    optimizer step.
    """

    kind = "kg2e"

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity_mu", (s.num_entities, s.d_e), "xavier"),
            ("entity_cov", (s.num_entities, s.d_e), "cov_mid"),
            ("relation_mu", (s.num_relations, s.d_e), "xavier"),
            ("relation_cov", (s.num_relations, s.d_e), "cov_mid"),
        ]

    def parameter_count(self):
        s = self.spec
        return 2 * s.num_entities * s.d_e + 2 * s.num_relations * s.d_e

    def project_parameters(self, params):
        np.clip(params["entity_cov"], self.spec.c_min, self.spec.c_max,
                out=params["entity_cov"])
        np.clip(params["relation_cov"], self.spec.c_min, self.spec.c_max,
                out=params["relation_cov"])

    def _score_from_parts(self, g, mu_e, cov_e, mu_r, cov_r, d):
        if self.spec.similarity == "kl":
            trace = (cov_e / cov_r).sum(axis=-1)
            delta = mu_r - mu_e
            quad = (delta * delta / cov_r).sum(axis=-1)
            logdet = g.log(cov_r).sum(axis=-1) - g.log(cov_e).sum(axis=-1)
            return -0.5 * (trace + quad + logdet - float(d))
        delta = mu_e - mu_r
        cov = cov_e + cov_r
        quad = (delta * delta / cov).sum(axis=-1)
        logdet = g.log(cov).sum(axis=-1)
        return -0.5 * (quad + logdet + float(d) * np.log(TWO_PI))

    def score_triples(self, g, P, h_ids, r_ids, t_ids):
        mu_e = g.gather(P["entity_mu"], _ids(h_ids)) - g.gather(P["entity_mu"], _ids(t_ids))
        cov_e = g.gather(P["entity_cov"], _ids(h_ids)) + g.gather(P["entity_cov"], _ids(t_ids))
        mu_r = g.gather(P["relation_mu"], _ids(r_ids))
        cov_r = g.gather(P["relation_cov"], _ids(r_ids))
        return self._score_from_parts(g, mu_e, cov_e, mu_r, cov_r, self.spec.d_e)

    def _score_vs_all(self, g, P, mu_fixed, cov_fixed, r_ids, sign):
        B, d = mu_fixed.shape[0], self.spec.d_e
        mu_e = sign * (mu_fixed.reshape((B, 1, d)) - P["entity_mu"])
        cov_e = cov_fixed.reshape((B, 1, d)) + P["entity_cov"]
        mu_r = g.gather(P["relation_mu"], _ids(r_ids)).reshape((B, 1, d))
        cov_r = g.gather(P["relation_cov"], _ids(r_ids)).reshape((B, 1, d))
        return self._score_from_parts(g, mu_e, cov_e, mu_r, cov_r, d)

    def score_tails(self, g, P, h_ids, r_ids):
        mu_h = g.gather(P["entity_mu"], _ids(h_ids))
        cov_h = g.gather(P["entity_cov"], _ids(h_ids))
        return self._score_vs_all(g, P, mu_h, cov_h, r_ids, 1.0)

    def score_heads(self, g, P, r_ids, t_ids):
        mu_t = g.gather(P["entity_mu"], _ids(t_ids))
        cov_t = g.gather(P["entity_cov"], _ids(t_ids))
        return self._score_vs_all(g, P, mu_t, cov_t, r_ids, -1.0)


class ERMLP(Interaction):
    """A one-hidden-layer MLP over the concatenated triple embedding:
    w . tanh(W [h; r; t] + b1) + b0."""

    kind = "ermlp"

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("relation", (s.num_relations, s.d_e), "xavier"),
            ("w_hidden", (s.k, 3 * s.d_e), "xavier"),
            ("b_hidden", (s.k,), "zeros"),
            ("w_out", (s.k,), "xavier"),
            ("b_out", (1,), "zeros"),
        ]

    def parameter_count(self):
        s = self.spec
        return (
            s.num_entities * s.d_e
            + s.num_relations * s.d_e
            + s.k * (3 * s.d_e + 2)
            + 1
        )

    def score_triples(self, g, P, h_ids, r_ids, t_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        r = g.gather(P["relation"], _ids(r_ids))
        t = g.gather(P["entity"], _ids(t_ids))
        cat = g.concat([h, r, t], axis=1)
        hidden = g.tanh(g.einsum("bj,kj->bk", cat, P["w_hidden"]) + P["b_hidden"])
        return g.einsum("bk,k->b", hidden, P["w_out"]) + P["b_out"][0]

    def _partial(self, g, P, first, second, cols):
        d = self.spec.d_e
        W = P["w_hidden"]
        w1 = g.apply("slice", W, key=(slice(None), slice(cols[0] * d, cols[0] * d + 2 * d)))
        w2 = g.apply("slice", W, key=(slice(None), slice(cols[1] * d, cols[1] * d + d)))
        base = g.einsum("bj,kj->bk", g.concat([first, second], axis=1), w1)
        alle = g.einsum("ej,kj->ek", P["entity"], w2)
        B, k = base.shape[0], self.spec.k
        hidden = g.tanh(base.reshape((B, 1, k)) + alle + P["b_hidden"])
        return g.einsum("bek,k->be", hidden, P["w_out"]) + P["b_out"][0]

    def score_tails(self, g, P, h_ids, r_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        r = g.gather(P["relation"], _ids(r_ids))
        return self._partial(g, P, h, r, (0, 2))

    def score_heads(self, g, P, r_ids, t_ids):
        # hidden = W_h e + (W_r r + W_t t); W_h is the leading column block
        d = self.spec.d_e
        r = g.gather(P["relation"], _ids(r_ids))
        t = g.gather(P["entity"], _ids(t_ids))
        W = P["w_hidden"]
        w_rt = g.apply("slice", W, key=(slice(None), slice(d, 3 * d)))
        w_h = g.apply("slice", W, key=(slice(None), slice(0, d)))
        base = g.einsum("bj,kj->bk", g.concat([r, t], axis=1), w_rt)
        alle = g.einsum("ej,kj->ek", P["entity"], w_h)
        B, k = base.shape[0], self.spec.k
        hidden = g.tanh(base.reshape((B, 1, k)) + alle + P["b_hidden"])
        return g.einsum("bek,k->be", hidden, P["w_out"]) + P["b_out"][0]


class NTN(Interaction):
    """Neural tensor network: u_r . tanh(h W_r t + V_r [h; t] + b_r) with k
    bilinear slices per relation."""

    kind = "ntn"

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("w", (s.num_relations, s.d_e, s.d_e, s.k), "xavier"),
            ("v", (s.num_relations, s.k, 2 * s.d_e), "xavier"),
            ("b", (s.num_relations, s.k), "zeros"),
            ("u", (s.num_relations, s.k), "xavier"),
        ]

    def parameter_count(self):
        s = self.spec
        return s.num_entities * s.d_e + s.num_relations * s.k * (
            s.d_e * s.d_e + 2 * s.d_e + 2
        )

    def score_triples(self, g, P, h_ids, r_ids, t_ids):
        d = self.spec.d_e
        h = g.gather(P["entity"], _ids(h_ids))
        t = g.gather(P["entity"], _ids(t_ids))
        W = g.gather(P["w"], _ids(r_ids))
        V = g.gather(P["v"], _ids(r_ids))
        b = g.gather(P["b"], _ids(r_ids))
        u = g.gather(P["u"], _ids(r_ids))
        hw = g.einsum("bi,bijk->bjk", h, W)
        bilinear = g.einsum("bjk,bj->bk", hw, t)
        linear = g.einsum("bkj,bj->bk", V, g.concat([h, t], axis=1))
        act = g.tanh(bilinear + linear + b)
        return g.einsum("bk,bk->b", u, act)

    def _v_blocks(self, g, V):
        d = self.spec.d_e
        vh = g.apply("slice", V, key=(slice(None), slice(None), slice(0, d)))
        vt = g.apply("slice", V, key=(slice(None), slice(None), slice(d, 2 * d)))
        return vh, vt

    def score_tails(self, g, P, h_ids, r_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        W = g.gather(P["w"], _ids(r_ids))
        V = g.gather(P["v"], _ids(r_ids))
        b = g.gather(P["b"], _ids(r_ids))
        u = g.gather(P["u"], _ids(r_ids))
        vh, vt = self._v_blocks(g, V)
        hw = g.einsum("bi,bijk->bjk", h, W)
        bilinear = g.einsum("bjk,ej->bek", hw, P["entity"])
        lin_h = g.einsum("bkj,bj->bk", vh, h)
        lin_t = g.einsum("bkj,ej->bek", vt, P["entity"])
        B, k = lin_h.shape[0], self.spec.k
        act = g.tanh(bilinear + lin_t + (lin_h + b).reshape((B, 1, k)))
        return g.einsum("bek,bk->be", act, u)

    def score_heads(self, g, P, r_ids, t_ids):
        t = g.gather(P["entity"], _ids(t_ids))
        W = g.gather(P["w"], _ids(r_ids))
        V = g.gather(P["v"], _ids(r_ids))
        b = g.gather(P["b"], _ids(r_ids))
        u = g.gather(P["u"], _ids(r_ids))
        vh, vt = self._v_blocks(g, V)
        wt = g.einsum("bijk,bj->bik", W, t)
        bilinear = g.einsum("bik,ei->bek", wt, P["entity"])
        lin_t = g.einsum("bkj,bj->bk", vt, t)
        lin_h = g.einsum("bkj,ej->bek", vh, P["entity"])
        B, k = lin_t.shape[0], self.spec.k
        act = g.tanh(bilinear + lin_h + (lin_t + b).reshape((B, 1, k)))
        return g.einsum("bek,bk->be", act, u)


class ConvKB(Interaction):
    """Row-wise 1x3 convolutions over the stacked triple matrix [h; r; t],
    relu feature maps, then a shared linear readout. The filters map each
    column [h_i; r_i; t_i] to tau features: a batch's maps are one
    (B·d, 3) @ (3, tau) matmul, and the readout a second one."""

    kind = "convkb"

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("relation", (s.num_relations, s.d_e), "xavier"),
            ("filters", (s.tau, 3), "xavier"),
            ("filter_bias", (s.tau,), "zeros"),
            ("w_out", (s.tau, s.d_e), "xavier"),
            ("b_out", (1,), "zeros"),
        ]

    def parameter_count(self):
        s = self.spec
        return (
            s.num_entities * s.d_e
            + s.num_relations * s.d_e
            + s.tau * (s.d_e + 4)
            + 1
        )

    def _maps(self, g, rows, filters):
        """(n, d, tau) filter responses of the columns stacked from the (n, d)
        `rows`, against the matching (tau, len(rows)) filter columns."""
        n, d = rows[0].shape
        cols = g.concat([x.reshape((n * d, 1)) for x in rows], axis=1)
        return (cols @ filters.T).reshape((n, d, self.spec.tau))

    def _readout(self, g, P, x):
        """Bias, relu and the linear readout of (..., d, tau) pre-activations."""
        width = self.spec.d_e * self.spec.tau
        act = g.relu(x + P["filter_bias"])
        flat = act.reshape((-1, width)) @ P["w_out"].T.reshape((width, 1))
        return flat.reshape(act.shape[:-2]) + P["b_out"][0]

    def score_triples(self, g, P, h_ids, r_ids, t_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        r = g.gather(P["relation"], _ids(r_ids))
        t = g.gather(P["entity"], _ids(t_ids))
        return self._readout(g, P, self._maps(g, [h, r, t], P["filters"]))

    def score_tails(self, g, P, h_ids, r_ids):
        h = g.gather(P["entity"], _ids(h_ids))
        r = g.gather(P["relation"], _ids(r_ids))
        F = P["filters"]
        base = self._maps(g, [h, r], F[:, :2])
        tails = self._maps(g, [P["entity"]], F[:, 2:])
        return self._readout(g, P, base.reshape((-1, 1) + tails.shape[1:]) + tails)

    def score_heads(self, g, P, r_ids, t_ids):
        r = g.gather(P["relation"], _ids(r_ids))
        t = g.gather(P["entity"], _ids(t_ids))
        F = P["filters"]
        base = self._maps(g, [r, t], F[:, 1:])
        heads = self._maps(g, [P["entity"]], F[:, :1])
        return self._readout(g, P, base.reshape((-1, 1) + heads.shape[1:]) + heads)


class ConvE(Interaction):
    """2-D convolution over the stacked reshapes of h and r, projected back
    to entity space and matched against the tail, plus a per-entity bias.

    The head reshape fills the first conv_height/2 rows. The per-channel
    affine pairs stand in for the original normalization layers (no batch
    statistics), keeping scoring a pure function of the triple.
    """

    kind = "conve"

    def tensor_specs(self):
        s = self.spec
        mo, no = s.conv_out
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("relation", (s.num_relations, s.d_e), "xavier"),
            ("scale_in", (1,), "ones"),
            ("shift_in", (1,), "zeros"),
            ("filters", (s.tau,) + s.kernel, "xavier"),
            ("scale_conv", (s.tau,), "ones"),
            ("shift_conv", (s.tau,), "zeros"),
            ("w_fc", (s.tau * mo * no, s.d_e), "xavier"),
            ("b_fc", (s.d_e,), "zeros"),
            ("scale_out", (s.d_e,), "ones"),
            ("shift_out", (s.d_e,), "zeros"),
            ("entity_bias", (s.num_entities,), "zeros"),
        ]

    def parameter_count(self):
        s = self.spec
        mo, no = s.conv_out
        return (
            s.num_entities * s.d_e
            + s.num_relations * s.d_e
            + s.d_e
            + s.tau * s.kernel[0] * s.kernel[1]
            + 2
            + 2 * s.tau
            + 2 * s.d_e
            + mo * no * s.tau * s.d_e
            + s.num_entities
        )

    def _context(self, g, P, h_ids, r_ids):
        """Entity-space representation of (h, r): everything before the tail."""
        s = self.spec
        m, n = s.conv_height, s.conv_width
        mo, no = s.conv_out
        h = g.gather(P["entity"], _ids(h_ids))
        r = g.gather(P["relation"], _ids(r_ids))
        B = h.shape[0]
        stacked = g.concat(
            [h.reshape((B, m // 2, n)), r.reshape((B, m // 2, n))], axis=1
        )
        x = stacked * P["scale_in"][0] + P["shift_in"][0]
        c = g.conv2d(x, P["filters"])  # (B, tau, mo, no)
        c = c * P["scale_conv"].reshape((1, s.tau, 1, 1)) + P["shift_conv"].reshape(
            (1, s.tau, 1, 1)
        )
        c = g.relu(c)
        v = c.reshape((B, s.tau * mo * no))
        e = v @ P["w_fc"] + P["b_fc"]
        e = e * P["scale_out"] + P["shift_out"]
        return g.relu(e)

    def score_triples(self, g, P, h_ids, r_ids, t_ids):
        t_ids = _ids(t_ids)
        e = self._context(g, P, h_ids, r_ids)
        t = g.gather(P["entity"], t_ids)
        bias = g.gather(P["entity_bias"], t_ids)
        return _rowdot(g, e, t) + bias

    def score_tails(self, g, P, h_ids, r_ids):
        e = self._context(g, P, h_ids, r_ids)
        return e @ P["entity"].T + P["entity_bias"]


_REGISTRY = {cls.kind: cls for cls in (
    UM, SE, TransE, TransH, TransR, TransD, RESCAL, DistMult, ComplEx,
    RotatE, SimplE, TuckER, ProjE, HolE, KG2E, ERMLP, NTN, ConvKB, ConvE,
)}

assert set(_REGISTRY) == set(KINDS)


def build_interaction(spec):
    """Instantiate the model class for spec.kind."""
    if isinstance(spec, dict):
        spec = InteractionSpec.from_dict(spec)
    return _REGISTRY[spec.kind](spec)


def parameter_count(spec):
    """Closed-form trainable parameter count for a spec."""
    return build_interaction(spec).parameter_count()


# ---------------------------------------------------------------------------
# checkpoints: JSON header + raw little-endian float64 blobs
# ---------------------------------------------------------------------------

_MAGIC = b"KGE1"


def save_checkpoint(path, spec, params, extra=None):
    """Write spec + parameters to `path`.

    Layout: 4-byte magic, little-endian uint32 header length, UTF-8 JSON
    header, then each tensor's raw little-endian float64 bytes in header
    order.
    """
    header = {
        "spec": spec.to_dict(),
        "tensors": [{"name": k, "shape": list(v.shape)} for k, v in params.items()],
        "extra": extra or {},
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for v in params.values():
            f.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (spec, params, extra).

    Raises ValueError on a foreign or truncated file, trailing bytes, a
    malformed header or spec, or tensors other than the spec's model has.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    try:
        (hlen,) = struct.unpack_from("<I", data, 4)
        offset = 8 + hlen
        if len(data) < offset:
            raise ValueError(f"{path}: header has {len(data) - 8} of its {hlen} bytes")
        header = json.loads(data[8:offset].decode("utf-8"))
        spec = InteractionSpec.from_dict(header["spec"])
        extra = header.get("extra", {})
        tensors = [(t["name"], tuple(t["shape"])) for t in header["tensors"]]
        wanted = [(name, shape) for name, shape, _ in build_interaction(spec).tensor_specs()]
        if sorted(tensors) != sorted(wanted) or not isinstance(extra, dict):
            raise ValueError(f"{path}: header does not describe a {spec.kind} checkpoint")
        sizes = [int(np.prod(shape)) for _, shape in tensors]
        if len(data) != offset + 8 * sum(sizes):
            raise ValueError(f"{path}: {len(data) - offset} tensor bytes, the header needs "
                             f"{8 * sum(sizes)}")
        params = {}
        for (name, shape), n in zip(tensors, sizes):
            values = np.frombuffer(data, dtype="<f8", count=n, offset=offset)
            params[name] = values.astype(np.float64).reshape(shape)
            offset += 8 * n
    except (KeyError, TypeError, AttributeError, struct.error) as e:
        raise ValueError(f"{path}: malformed header: {e}") from e
    return spec, params, extra
