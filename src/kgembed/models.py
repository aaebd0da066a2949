"""Interaction models: scoring functions over (head, relation, tail) id triples.

Every model follows the same conventions:
  * parameters live in an ordered dict of named float64 arrays
  * scores are higher-is-better for every kind; distance-based models return
    negated distances, and models with a probabilistic reading return the
    logit, never a sigmoid
  * score_triples is the one scoring method: it builds graph nodes for a
    batch of id triples, so the same code serves training (with gradients)
    and evaluation (without). It takes (B,) ids, or (B, N) h and t ids whose
    row b shares the relation r_ids[b] and returns (B, N) scores, as the
    sLCWA step scores a positive with its negatives. With h_ids or t_ids
    None it scores every entity on that side and returns (B, E) scores,
    which must agree with the single-triple scores to 1e-10

Each model states its parameter shapes once, in `tensor_specs`, from which
initialization, checkpoints and `parameter_count` follow, and its score
once, from which the base classes derive score_triples. A model names the
tables it reads (`entity_tables`, `relation_tables`) and either defines
`interaction(g, P, h, r, t)` over representations shaped (B, N, ...) that
broadcast against each other (N = 1 for single triples, E for the candidate
side), or, when its score is an inner product <q(h, r), k(t)>, derives from
ContextInteraction and defines `tail_query`, optionally `head_query` and
`keys`, so that both all-entity sides are one matmul. Relation rows are
always (B, 1, ...): the triples of a (B, N) call's row share its relation,
so per-relation work is done once per row.

Dimensions follow the usual conventions: d_e entity dim, d_r relation dim,
k an extra per-kind width (TransD projection size, NTN slice count, ERMLP
hidden width).
"""

import json
import math
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


def _size(shape):
    """Element count of `shape` as an exact Python int; np.prod wraps in int64."""
    return math.prod(int(n) for n in shape)


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

def _translation(h, r, t):
    """h + r - t, with r added to the side of fewer rows (B, 1 against 1, E):
    one operation then builds the (B, E, ...) difference."""
    return h + (r - t) if h.shape[1] > t.shape[1] else h + r - t


def _column(x):
    """A (..., n) node as (..., n, 1)."""
    return x.reshape(x.shape + (1,))


def _linear(g, xs, weight, contract, bias):
    """bias + sum of contract(x, w) over the operands x of `xs` and their
    blocks w of `weight`'s last axis. Operands of one shape meet their joint
    block in one contraction, and the terms are added smallest first, so one
    addition builds the (B, E, ...) sum."""
    groups, start = {}, 0
    for x in xs:
        groups.setdefault(x.shape, []).append((x, slice(start, start + x.shape[-1])))
        start += x.shape[-1]
    parts = [bias]
    for run in groups.values():
        x = run[0][0] if len(run) == 1 else g.concat([x for x, _ in run], axis=-1)
        cols = np.r_[tuple(span for _, span in run)]
        parts.append(contract(x, weight if len(run) == len(xs) else weight[..., cols]))
    parts.sort(key=lambda p: p.value.size)
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


def _spread(x, lead):
    """Node x broadcast to the leading shape `lead` (x itself if it has it)."""
    return x if x.shape[:-1] == lead else x + np.zeros(lead + (1,))


def _one(nodes):
    """A representation: the node of a model's one table, or their tuple."""
    nodes = tuple(nodes)
    return nodes[0] if len(nodes) == 1 else nodes


def _grid(ids):
    """Ids as a (B, N) array; (B,) ids become (B, 1)."""
    ids = np.asarray(ids, dtype=np.intp)
    return ids if ids.ndim == 2 else ids.reshape((-1, 1))


def _rows(g, P, names, ids):
    """(B, N, ...) rows of the named tables at (B, N) ids."""
    return _one(g.gather(P[n], ids) for n in names)


class Interaction:
    """Base class: score_triples of one broadcasting score.

    `interaction(g, P, h, r, t)` returns the (B, N) scores of (B, N, ...)
    representations: (B, 1, ...) rows of the id triples, or (1, E, ...)
    views of whole tables on the candidate side.
    """

    kind = None
    score_clamp = None  # (lo, hi) applied in the loss path only
    entity_tables = ("entity",)
    relation_tables = ("relation",)

    def __init__(self, spec):
        if spec.kind != self.kind:
            raise ValueError(f"spec kind {spec.kind!r} does not match model {self.kind!r}")
        self.spec = spec

    # subclasses provide: tensor_specs, and interaction or tail_query

    def parameter_count(self):
        """Trainable scalars: the exact sum of the tensor_specs sizes."""
        return sum(_size(shape) for _, shape, _ in self.tensor_specs())

    def leaves(self, g, params, trainable=True):
        """Register every parameter tensor as a leaf of `g`."""
        return {name: g.leaf(value, requires_grad=trainable) for name, value in params.items()}

    def project_parameters(self, params):
        """In-place constraint hook applied after every optimizer step."""

    def _entities(self, g, P, ids=None):
        """(B, N, ...) rows at (B,) or (B, N) ids, or with ids None (1, E, ...) views."""
        if ids is None:
            return _one(P[n].reshape((1,) + P[n].shape) for n in self.entity_tables)
        return _rows(g, P, self.entity_tables, _grid(ids))

    def _relations(self, g, P, ids):
        """(B, 1, ...) rows at (B,) ids: the triples of a (B, N) call's row b
        share the relation ids[b], so its rows are gathered once per row."""
        return _rows(g, P, self.relation_tables, _grid(ids))

    def _triples(self, g, P, h_ids, r_ids, t_ids):
        """The (h, r, t) representations of id triples: rows at (B,) ids, or
        at (B, N) h and t ids whose row b shares the relation r_ids[b]; a
        side whose ids are None is every entity, as (1, E, ...) views."""
        h, r = self._entities(g, P, h_ids), self._relations(g, P, r_ids)
        return h, r, self._entities(g, P, t_ids)

    def score_triples(self, g, P, h_ids, r_ids, t_ids):
        """Scores of id triples as a graph node: (B,) for (B,) ids, (B, N)
        for (B, N) h and t ids with (B,) r ids, and (B, E) when h_ids or
        t_ids is None, which scores every entity on that side."""
        s = self.interaction(g, P, *self._triples(g, P, h_ids, r_ids, t_ids))
        return s if h_ids is None or t_ids is None else s.reshape(np.shape(h_ids))

    # ----- numpy conveniences (no gradients) --------------------------------

    def _values(self, params, h_ids, r_ids, t_ids):
        """score_triples as an array, in a graph that records no gradients."""
        g = Graph()
        P = self.leaves(g, params, trainable=False)
        return self.score_triples(g, P, h_ids, r_ids, t_ids).value

    def score(self, params, h, r, t):
        """Plausibility of one id triple as a float; higher is better."""
        return float(self._values(params, [h], [r], [t])[0])

    def score_batch(self, params, triples):
        return self._values(params, *np.asarray(triples, dtype=np.intp).reshape(-1, 3).T)

    def score_all_tails(self, params, h, r):
        """Scores of (h, r, e) for every entity e, as an (E,) array."""
        return self._values(params, [h], [r], None)[0]

    def score_all_heads(self, params, r, t):
        return self._values(params, None, [r], [t])[0]


class ContextInteraction(Interaction):
    """Models whose score is <q(h, r), k(t)> + c: both all-entity sides are
    one matmul against the (E, d') key table.

    A model defines `tail_query(g, P, h, r)`, optionally `head_query(g, P, r,
    t)` with score(e, r, t) = <head_query, k(e)> + c, and optionally
    `keys(g, P, e)`, the entity representation itself by default. A query is
    a (B, N, d') node, or a pair (query, c) whose c broadcasts to (B, N).
    `entity_bias` names an (E,) table added to each candidate tail's score;
    a model with one defines no head query. Without a head query, the head
    side scores the tail query of every candidate head.
    """

    entity_bias = None
    head_query = None

    def keys(self, g, P, e):
        return e

    def _scores(self, g, P, query, t=None, t_ids=None):
        """(B, N) scores of a query against the keys of the tails t at (B, N)
        t_ids, or with t_ids None, against every entity's keys in one matmul."""
        q, c = query if isinstance(query, tuple) else (query, None)
        if t_ids is None:
            # the (E, ...) tables themselves, not (1, E, ...) views, and no
            # transpose node: the planned matmul reads the table in place
            # and its gradient comes back C-contiguous
            K = self.keys(g, P, _one(P[n] for n in self.entity_tables))
            s = g.einsum("bd,ed->be", q.reshape((q.shape[0], K.shape[1])), K)
        else:
            s = (q * self.keys(g, P, t)).sum(axis=-1)
        if c is not None:
            s = s + c
        if self.entity_bias is not None:
            names = (self.entity_bias,)
            s = s + (P[self.entity_bias] if t_ids is None else _rows(g, P, names, _grid(t_ids)))
        return s

    def score_triples(self, g, P, h_ids, r_ids, t_ids):
        # an all-entity side read by the one matmul needs no (1, E, ...) view
        if t_ids is None:
            h, r = self._entities(g, P, h_ids), self._relations(g, P, r_ids)
            return self._scores(g, P, self.tail_query(g, P, h, r))
        if h_ids is None and self.head_query is not None:
            r, t = self._relations(g, P, r_ids), self._entities(g, P, t_ids)
            return self._scores(g, P, self.head_query(g, P, r, t))
        h, r, t = self._triples(g, P, h_ids, r_ids, t_ids)
        s = self._scores(g, P, self.tail_query(g, P, h, r), t, t_ids)
        return s if h_ids is None else s.reshape(np.shape(h_ids))


# ---------------------------------------------------------------------------
# the nineteen interaction models
# ---------------------------------------------------------------------------

class UM(Interaction):
    """Unstructured model: -||h - t||^2. Ignores the relation entirely."""

    kind = "um"
    relation_tables = ()

    def tensor_specs(self):
        s = self.spec
        return [("entity", (s.num_entities, s.d_e), "xavier")]

    def interaction(self, g, P, h, r, t):
        return -g.square(h - t).sum(axis=-1)


class SE(Interaction):
    """Structured embedding: -||M_r^h h - M_r^t t||_1 with two projection
    matrices per relation."""

    kind = "se"
    relation_tables = ("m_head", "m_tail")

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("m_head", (s.num_relations, s.d_e, s.d_e), "xavier"),
            ("m_tail", (s.num_relations, s.d_e, s.d_e), "xavier"),
        ]

    def interaction(self, g, P, h, r, t):
        mh, mt = r
        u = g.einsum("bnij,bnj->bni", mh, h)
        v = g.einsum("bnij,bnj->bni", mt, t)
        return -g.pnorm(u - v, p=1, axis=-1)


class TransE(Interaction):
    """Translation in one space: -||h + r - t||_p, p in {1, 2}."""

    kind = "transe"

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("relation", (s.num_relations, s.d_e), "xavier"),
        ]

    def interaction(self, g, P, h, r, t):
        return -g.pnorm(_translation(h, r, t), p=self.spec.p, axis=-1)


class TransH(Interaction):
    """Translation on a relation-specific hyperplane.

    The stored normal vector is normalized inside the score so the
    projection x - (w.x) w is a true hyperplane projection.
    """

    kind = "transh"
    relation_tables = ("normal", "translation")

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("normal", (s.num_relations, s.d_e), "xavier"),
            ("translation", (s.num_relations, s.d_e), "xavier"),
        ]

    def interaction(self, g, P, h, r, t):
        w, d = r
        w = w / g.pnorm(w, p=2, axis=-1, keepdims=True)
        def project(x):
            return x - _column(g.einsum("bnd,bnd->bn", x, w)) * w
        return -g.square(_translation(project(h), d, project(t))).sum(axis=-1)


class TransR(Interaction):
    """Translation after a relation-specific linear map into R^{d_r}."""

    kind = "transr"
    relation_tables = ("relation", "projection")

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("relation", (s.num_relations, s.d_r), "xavier"),
            ("projection", (s.num_relations, s.d_r, s.d_e), "xavier"),
        ]

    def interaction(self, g, P, h, r, t):
        r, M = r
        h_p = g.einsum("bnij,bnj->bni", M, h)
        t_p = g.einsum("bnij,bnj->bni", M, t)
        return -g.square(_translation(h_p, r, t_p)).sum(axis=-1)


class TransD(Interaction):
    """Translation with entity-and-relation specific dynamic projections.

    M_{r,e} = r_p e_p^T + I~ applied to e collapses to
    r_p * (e_p . e) + resize(e), where resize pads or truncates e to k dims,
    so the projection matrix is never materialized.
    """

    kind = "transd"
    entity_tables = ("entity", "entity_p")
    relation_tables = ("relation", "relation_p")

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("entity_p", (s.num_entities, s.d_e), "xavier"),
            ("relation", (s.num_relations, s.k), "xavier"),
            ("relation_p", (s.num_relations, s.k), "xavier"),
        ]

    def _resize(self, g, x):
        """First k components of x along the last axis, zero-padded if k > d_e."""
        d, k = self.spec.d_e, self.spec.k
        if k == d:
            return x
        if k < d:
            return x[..., :k]
        zeros = g.constant(np.zeros(x.shape[:-1] + (k - d,)))
        return g.concat([x, zeros], axis=-1)

    def _project(self, g, e, r_p):
        e, e_p = e
        return r_p * _column(g.einsum("bnd,bnd->bn", e_p, e)) + self._resize(g, e)

    def interaction(self, g, P, h, r, t):
        r, r_p = r
        h, t = self._project(g, h, r_p), self._project(g, t, r_p)
        return -g.square(_translation(h, r, t)).sum(axis=-1)


class RESCAL(ContextInteraction):
    """Bilinear model with a full matrix per relation: h^T W_r t."""

    kind = "rescal"

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("relation", (s.num_relations, s.d_e, s.d_e), "xavier"),
        ]

    def tail_query(self, g, P, h, r):
        return g.einsum("bni,bnij->bnj", h, r)

    def head_query(self, g, P, r, t):
        return g.einsum("bnij,bnj->bni", r, t)


class DistMult(ContextInteraction):
    """RESCAL restricted to diagonal relation matrices; symmetric in h and t."""

    kind = "distmult"

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("relation", (s.num_relations, s.d_e), "xavier"),
        ]

    def tail_query(self, g, P, h, r):
        return h * r

    def head_query(self, g, P, r, t):
        return t * r


class ComplEx(ContextInteraction):
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

    def _split(self, x):
        d = self.spec.d_e
        return x[..., :d], x[..., d:]

    def tail_query(self, g, P, h, r):
        (hr, hi), (rr, ri) = self._split(h), self._split(r)
        return g.concat([hr * rr - hi * ri, hi * rr + hr * ri], axis=-1)

    def head_query(self, g, P, r, t):
        # regroup by the head components: f = h_re.(r_re t_re + r_im t_im)
        #                                    + h_im.(r_re t_im - r_im t_re)
        (rr, ri), (tr, ti) = self._split(r), self._split(t)
        return g.concat([rr * tr + ri * ti, rr * ti - ri * tr], axis=-1)


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

    def interaction(self, g, P, h, r, t):
        d = self.spec.d_e
        rr, ri = r[..., :d], r[..., d:]
        mod = g.pnorm(g.concat([_column(rr), _column(ri)], axis=-1), p=2, axis=-1)
        rr, ri = rr / mod, ri / mod
        if h.shape[1] > t.shape[1]:
            # every head against one tail: rotate the tail backwards instead,
            # ||h.r - t|| = ||h - t.conj(r)||, so no candidate is rotated
            tr, ti = t[..., :d], t[..., d:]
            return -g.pnorm(h - g.concat([tr * rr + ti * ri, ti * rr - tr * ri], axis=-1),
                            p=2, axis=-1)
        hr, hi = h[..., :d], h[..., d:]
        return -g.pnorm(g.concat([hr * rr - hi * ri, hr * ri + hi * rr], axis=-1) - t,
                        p=2, axis=-1)


class SimplE(ContextInteraction):
    """Canonical-polyadic scoring with tied head/tail roles and an inverse
    relation vector per relation; the two directions are averaged. Training
    scores are clamped to [-20, 20] (in the loss path only).

    Keys are [e_t | e_h]; the tail query is [h_h r | h_t r_inv] / 2, the
    head query [t_h r_inv | t_t r] / 2.
    """

    kind = "simple"
    score_clamp = (-20.0, 20.0)
    entity_tables = ("entity_h", "entity_t")
    relation_tables = ("relation", "relation_inv")

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity_h", (s.num_entities, s.d_e), "xavier"),
            ("entity_t", (s.num_entities, s.d_e), "xavier"),
            ("relation", (s.num_relations, s.d_e), "xavier"),
            ("relation_inv", (s.num_relations, s.d_e), "xavier"),
        ]

    def keys(self, g, P, e):
        return g.concat([e[1], e[0]], axis=-1)

    def tail_query(self, g, P, h, r):
        return g.concat([h[0] * r[0], h[1] * r[1]], axis=-1) * 0.5

    def head_query(self, g, P, r, t):
        return g.concat([t[0] * r[1], t[1] * r[0]], axis=-1) * 0.5


class TuckER(ContextInteraction):
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

    def tail_query(self, g, P, h, r):
        # the core meets r first: one (d_e, d_e) matrix per relation row,
        # which a positive's negatives share
        x = h * P["scale0"] + P["shift0"]
        wr = g.einsum("pqe,bnq->bnpe", P["core"], r)
        y = g.einsum("bnp,bnpe->bne", x, wr)
        return y * P["scale1"] + P["shift1"]

    def head_query(self, g, P, r, t):
        # score(h', r, t) = (scale0*h' + shift0) . m + shift1 . t
        # with m_p = sum_{q,e} core[p,q,e] r_q (scale1*t)_e
        m = g.einsum("pqe,bne->bnpq", P["core"], t * P["scale1"])
        m = g.einsum("bnpq,bnq->bnp", m, r)
        c = g.einsum("bnp,p->bn", m, P["shift0"]) + g.einsum("bnd,d->bn", t, P["shift1"])
        return m * P["scale0"], c


class ProjE(ContextInteraction):
    """Shared diagonal combination of h and r, then a tail match:
    t . tanh(D_e h + D_r r + b_c) + b_p.

    The score is the logit; the original model's sigmoid is the one the
    pointwise losses apply.
    """

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

    def tail_query(self, g, P, h, r):
        z = g.tanh(h * P["d_entity"] + r * P["d_relation"] + P["b_combine"])
        return z, P["b_project"][0]


class HolE(ContextInteraction):
    """Holographic embeddings: r . circcorr(h, t).

    The score is the logit; the original model's sigmoid is the one the
    pointwise losses apply. The correlation is an FFT product, O(d log d).
    By the identities r.(h*t) = t.conv(h, r) = h.corr(r, t) the tail query
    is the circular convolution of h and r and the head query the
    correlation of r and t.
    """

    kind = "hole"

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("relation", (s.num_relations, s.d_e), "xavier"),
        ]

    def tail_query(self, g, P, h, r):
        return g.circcorr(g.reverse_roll(h), r)

    def head_query(self, g, P, r, t):
        return g.circcorr(r, t)


class KG2E(Interaction):
    """Gaussian embeddings with diagonal covariances.

    The difference distribution P_e = N(mu_h - mu_t, cov_h + cov_t) is
    compared with the relation distribution either by KL divergence or by
    log expected likelihood; both are returned negated so that higher means
    more plausible. Covariances are clamped to [c_min, c_max] after every
    optimizer step.
    """

    kind = "kg2e"
    entity_tables = ("entity_mu", "entity_cov")
    relation_tables = ("relation_mu", "relation_cov")

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity_mu", (s.num_entities, s.d_e), "xavier"),
            ("entity_cov", (s.num_entities, s.d_e), "cov_mid"),
            ("relation_mu", (s.num_relations, s.d_e), "xavier"),
            ("relation_cov", (s.num_relations, s.d_e), "cov_mid"),
        ]

    def project_parameters(self, params):
        np.clip(params["entity_cov"], self.spec.c_min, self.spec.c_max,
                out=params["entity_cov"])
        np.clip(params["relation_cov"], self.spec.c_min, self.spec.c_max,
                out=params["relation_cov"])

    def interaction(self, g, P, h, r, t):
        d = float(self.spec.d_e)
        (mu_h, cov_h), (mu_r, cov_r), (mu_t, cov_t) = h, r, t
        mu_e, cov_e = mu_h - mu_t, cov_h + cov_t
        if self.spec.similarity == "kl":
            trace = (cov_e / cov_r).sum(axis=-1)
            delta = mu_r - mu_e
            quad = (delta * delta / cov_r).sum(axis=-1)
            logdet = g.log(cov_r).sum(axis=-1) - g.log(cov_e).sum(axis=-1)
            return -0.5 * (trace + quad + logdet - d)
        delta = mu_e - mu_r
        cov = cov_e + cov_r
        quad = (delta * delta / cov).sum(axis=-1)
        logdet = g.log(cov).sum(axis=-1)
        return -0.5 * (quad + logdet + d * np.log(TWO_PI))


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

    def interaction(self, g, P, h, r, t):
        hidden = g.tanh(_linear(g, [h, r, t], P["w_hidden"],
                                lambda x, w: g.einsum("bnj,kj->bnk", x, w), P["b_hidden"]))
        return g.einsum("bnk,k->bn", hidden, P["w_out"]) + P["b_out"][0]


class NTN(Interaction):
    """Neural tensor network: u_r . tanh(h W_r t + V_r [h; t] + b_r) with k
    bilinear slices per relation."""

    kind = "ntn"
    relation_tables = ("w", "v", "b", "u")

    def tensor_specs(self):
        s = self.spec
        return [
            ("entity", (s.num_entities, s.d_e), "xavier"),
            ("w", (s.num_relations, s.d_e, s.d_e, s.k), "xavier"),
            ("v", (s.num_relations, s.k, 2 * s.d_e), "xavier"),
            ("b", (s.num_relations, s.k), "zeros"),
            ("u", (s.num_relations, s.k), "xavier"),
        ]

    def interaction(self, g, P, h, r, t):
        W, V, b, u = r
        # contract W with the single side first: every candidate then meets
        # a (B, d, k) tensor, never a (B, E, d, k) one
        if h.shape[1] > t.shape[1]:
            wt = g.einsum("bnijk,bnj->bnik", W, t)
            bilinear = g.einsum("bnik,bni->bnk", wt, h)
        else:
            hw = g.einsum("bni,bnijk->bnjk", h, W)
            bilinear = g.einsum("bnjk,bnj->bnk", hw, t)
        linear = _linear(g, [h, t], V, lambda x, v: g.einsum("bnkj,bnj->bnk", v, x), b)
        act = g.tanh(bilinear + linear)
        return g.einsum("bnk,bnk->bn", act, u)


class ConvKB(Interaction):
    """Row-wise 1x3 convolutions over the stacked triple matrix [h; r; t],
    relu feature maps, then a shared linear readout. The filters map each
    column [h_i; r_i; t_i] to tau features: a batch's maps are one
    (B·d, 3) @ (3, tau) matmul per shape of operand, and the readout one
    more."""

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

    def interaction(self, g, P, h, r, t):
        tau, width = self.spec.tau, self.spec.d_e * self.spec.tau
        if h.shape == t.shape:
            # a positive and its negatives: r joins their (B, N) grid, so
            # the maps are one matmul
            r = _spread(r, h.shape[:-1])
        maps = _linear(  # (..., d, n) columns against their (tau, n) filter columns
            g, [_column(h), _column(r), _column(t)], P["filters"],
            lambda x, w: (x.reshape((-1, w.shape[1])) @ w.T).reshape(x.shape[:-1] + (tau,)),
            P["filter_bias"])
        act = g.relu(maps)
        flat = act.reshape((-1, width)) @ P["w_out"].T.reshape((width, 1))
        return flat.reshape(act.shape[:-2]) + P["b_out"][0]


class ConvE(ContextInteraction):
    """2-D convolution over the stacked reshapes of h and r, projected back
    to entity space and matched against the tail, plus a per-entity bias.

    The head reshape fills the first conv_height/2 rows. The per-channel
    affine pairs stand in for the original normalization layers (no batch
    statistics), keeping scoring a pure function of the triple. There is no
    head query: the head side convolves every candidate head.
    """

    kind = "conve"
    entity_bias = "entity_bias"

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

    def tail_query(self, g, P, h, r):
        """Entity-space representation of (h, r): everything before the tail."""
        s = self.spec
        m, n = s.conv_height, s.conv_width
        mo, no = s.conv_out
        lead = np.broadcast_shapes(h.shape[:-1], r.shape[:-1])
        halves = [_spread(x, lead).reshape((-1, m // 2, n)) for x in (h, r)]
        x = g.concat(halves, axis=1) * P["scale_in"][0] + P["shift_in"][0]
        c = g.conv2d(x, P["filters"])  # (B·N, tau, mo, no)
        c = c * P["scale_conv"].reshape((1, s.tau, 1, 1)) + P["shift_conv"].reshape(
            (1, s.tau, 1, 1)
        )
        c = g.relu(c)
        e = c.reshape((-1, s.tau * mo * no)) @ P["w_fc"] + P["b_fc"]
        e = e * P["scale_out"] + P["shift_out"]
        return g.relu(e).reshape(lead + (s.d_e,))


_REGISTRY = {cls.kind: cls for cls in (
    UM, SE, TransE, TransH, TransR, TransD, RESCAL, DistMult, ComplEx,
    RotatE, SimplE, TuckER, ProjE, HolE, KG2E, ERMLP, NTN, ConvKB, ConvE,
)}

assert set(_REGISTRY) == set(KINDS)


def build_interaction(spec):
    """Instantiate the model class for an InteractionSpec's kind."""
    return _REGISTRY[spec.kind](spec)


def parameter_count(spec):
    """Trainable parameter count for a spec, exact at any width; allocates nothing."""
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
        sizes = [_size(shape) for _, shape in tensors]
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
