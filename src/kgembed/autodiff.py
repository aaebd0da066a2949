"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

Eager evaluation: every op computes its value when the node is created, so a
Graph is simultaneously the trace and the result. Gradients are accumulated
by a single reverse sweep in construction order (construction order is a
topological order because the graph is append-only).

Graphs are cheap, throwaway objects: build one per batch, call backward once,
read the leaf gradients, drop it. A Graph is not thread-safe; confine each
graph to the thread that built it.

Gradient ownership: a VJP may return views of its inputs or the very array it
was handed (`add` gives the same `g` to both parents), and returns None for a
parent that does not require a gradient. backward therefore never writes into
a VJP's return value; it accumulates in place only into a buffer the sweep
allocated itself (a copy of a view, or the sum made at a node's second
contribution). An inner node keeps a C-contiguous view as it is: reshapes
hand such views down every (B, N, ...) score, and a copy there would be one
more array per step; a strided view is copied, since the VJPs that read it
run slower on it. Leaf gradients may alias each other or internal arrays and
must be treated as read-only by their readers.

Contractions: einsum2 is the one contraction op; `a @ b` on nodes is
sugar for einsum2 "ij,jk->ik". Every einsum2 node, in its forward and in its
VJP, is one np.matmul over operands reshaped to (batch, free, contracted)
stacks, or a broadcast multiply when nothing is contracted; the plan is made
once per (spec, shapes) and cached (_einsum_plan), a spec is checked once,
and each operand must have one axis per label of its spec.
conv2d is im2col: the (kr, kc) windows become the rows of a (windows,
kr·kc) matrix, so the forward and both gradients are matmuls, the input
gradient followed by kr·kc shifted adds.

Memory: a step's large temporaries are freed when its graph is dropped, and
glibc would hand them back to the kernel, so the next step faults them in
again. keep_heap() tells glibc to keep them; training.train and
evaluation.compute_ranks call it.
"""

import ctypes
import functools
import math
import os
import weakref

import numpy as np

_TINY = 1e-30  # guards x/||x|| at the origin; picks the zero subgradient


def _as_f64(x):
    """Coerce to a C-contiguous float64 array (scalars become 0-d arrays)."""
    # not ascontiguousarray: that would pad 0-d values out to shape (1,)
    return np.asarray(x, dtype=np.float64, order="C")


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == tuple(shape):
        return grad
    # extra leading axes were created by broadcasting
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _stable_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus(x):
    # log(1 + e^x) without overflow for large |x|
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _circcorr(a, b):
    """Circular correlation along the last axis: out_i = sum_k a_k * b_{(i+k) mod d}.

    Computed in O(d log d) by the correlation theorem, as
    irfft(conj(rfft(a)) * rfft(b)); operands broadcast over leading axes.
    """
    return np.fft.irfft(np.conj(np.fft.rfft(a)) * np.fft.rfft(b), n=a.shape[-1])


def _windows(x, kr, kc):
    """Sliding (kr, kc) windows over the last two axes, as a strided view."""
    return np.lib.stride_tricks.sliding_window_view(x, (kr, kc), axis=(-2, -1))


@functools.lru_cache(maxsize=None)
def _einsum_parts(spec):
    """The labels (a, b, out) of a two-operand einsum spec, checked once per
    spec: the spec must admit the transpose gradient rule."""
    try:
        lhs, out = spec.split("->")
        a, b = lhs.split(",")
    except ValueError as e:
        raise ValueError(f"einsum spec must look like 'ab,bc->ac', got {spec!r}") from e
    for part in (a, b, out):
        if "." in part:
            raise ValueError("ellipsis not supported in einsum specs")
        if len(set(part)) != len(part):
            raise ValueError(f"repeated index within one operand in {spec!r}")
    if not set(out) <= set(a) | set(b):
        raise ValueError(f"output index not present in inputs in {spec!r}")
    # every input index must survive into the output or the other operand,
    # otherwise the gradient einsum cannot reconstruct that axis
    if not set(a) <= set(out) | set(b) or not set(b) <= set(out) | set(a):
        raise ValueError(f"an input-only index is summed out of a single operand in {spec!r}")
    return a, b, out


def _stack_plan(labels, batch, rows, cols, size):
    """How an operand with `labels` becomes a (batch, rows, cols) stack of
    matrices (see _stack). The operand is copied only when its labels are
    not already grouped as batch, rows, cols or batch, cols, rows."""
    def count(group):
        return math.prod(size[label] for label in group)

    shape = (count(batch), count(rows), count(cols))
    if labels == batch + rows + cols:
        return None, shape, False
    if labels == batch + cols + rows:
        return None, (shape[0], shape[2], shape[1]), True
    return tuple(labels.index(label) for label in batch + rows + cols), shape, False


def _stack(x, plan):
    order, shape, transposed = plan
    x = (x if order is None else x.transpose(order)).reshape(shape)
    return x.swapaxes(1, 2) if transposed else x


@functools.lru_cache(maxsize=4096)
def _einsum_plan(sa, sb, so, shape_a, shape_b):
    """A function computing np.einsum(f"{sa},{sb}->{so}", a, b), where size-1
    axes broadcast, for operands of these shapes: one np.matmul.

    Size-1 axes are dropped, and a summed label that the other operand
    broadcasts is summed out of the operand that has it. Each remaining label
    is batch (both operands and the output), free (one operand and the
    output) or contracted (both operands only). The operand whose free label
    the output names first becomes a (batch, free, contracted) stack, the
    other a (batch, contracted, free) one, and their matmul is written into
    a fresh array of the output's shape, through a transpose when the output
    interleaves the free labels. With nothing contracted the matmul is a
    broadcast multiply.
    """
    size = {}
    for labels, shape in ((sa, shape_a), (sb, shape_b)):
        for label, n in zip(labels, shape):
            if n != 1 or label not in size:
                size[label] = n
    out_shape = tuple(size[label] for label in so)
    ko = [label for label in so if size[label] != 1]
    la = [label for label, n in zip(sa, shape_a) if n != 1]
    lb = [label for label, n in zip(sb, shape_b) if n != 1]
    sum_a = tuple(i for i, label in enumerate(la) if label not in lb + ko)
    sum_b = tuple(i for i, label in enumerate(lb) if label not in la + ko)
    la = [label for label in la if label in lb + ko]
    lb = [label for label in lb if label in la + ko]
    batch = [label for label in ko if label in la and label in lb]
    free_a = [label for label in ko if label in la and label not in lb]
    free_b = [label for label in ko if label in lb and label not in la]
    con = [label for label in la if label not in ko]
    swap = bool(free_b) and (not free_a or ko.index(free_b[0]) < ko.index(free_a[0]))
    if swap:
        la, lb, free_a, free_b = lb, la, free_b, free_a
    left = _stack_plan(la, batch, free_a, con, size)
    right = _stack_plan(lb, batch, con, free_b, size)
    op = np.matmul if con else np.multiply
    grouped = batch + free_a + free_b
    result = tuple(math.prod(size[label] for label in group) for group in (batch, free_a, free_b))
    perm = None if grouped == ko else tuple(grouped.index(label) for label in ko)
    squeezed_a = tuple(n for n in shape_a if n != 1)
    squeezed_b = tuple(n for n in shape_b if n != 1)

    def run(a, b):
        a, b = a.reshape(squeezed_a), b.reshape(squeezed_b)
        if sum_a:
            a = a.sum(axis=sum_a)
        if sum_b:
            b = b.sum(axis=sum_b)
        x, y = (b, a) if swap else (a, b)
        out = np.empty(out_shape)
        if perm is None:
            op(_stack(x, left), _stack(y, right), out=out.reshape(result))
        else:
            z = op(_stack(x, left), _stack(y, right))
            np.copyto(out.reshape([size[label] for label in ko]),
                      z.reshape([size[label] for label in grouped]).transpose(perm))
        return out

    return run


def _einsum(sa, sb, so, a, b):
    """np.einsum(f"{sa},{sb}->{so}", a, b) where size-1 axes broadcast, as
    the planned matmul of _einsum_plan; the result is a fresh C-contiguous
    array that owns its memory."""
    return _einsum_plan(sa, sb, so, a.shape, b.shape)(a, b)


# ---------------------------------------------------------------------------
# forward implementations, keyed by op kind
# ---------------------------------------------------------------------------

def _patches(x, kr, kc):
    """im2col: every (kr, kc) window of x as one row of a (windows, kr·kc)
    matrix, windows in (..., mo, no) order."""
    return _windows(x, kr, kc).reshape((-1, kr * kc))


def _fw_conv2d(x, f):
    # x: (m, n) or (B, m, n); f: (F, kr, kc); valid padding, stride 1
    F, kr, kc = f.shape
    mo, no = x.shape[-2] - kr + 1, x.shape[-1] - kc + 1
    y = _patches(x, kr, kc) @ f.reshape((F, kr * kc)).T  # (B·mo·no, F)
    return np.moveaxis(y.reshape(x.shape[:-2] + (mo, no, F)), -1, -3)


_FORWARD = {
    "add": lambda at, a, b: a + b,
    "sub": lambda at, a, b: a - b,
    "mul": lambda at, a, b: a * b,
    "div": lambda at, a, b: a / b,
    "neg": lambda at, a: -a,
    "einsum2": lambda at, a, b: _einsum(*at["_parts"], a, b),
    "transpose": lambda at, a: np.transpose(a, at["axes"]),
    "reshape": lambda at, a: a.reshape(at["shape"]),
    "concat": lambda at, *xs: np.concatenate(xs, axis=at["axis"]),
    "slice": lambda at, a: a[at["key"]],
    "gather": lambda at, a: np.take(a, at["indices"], axis=0),
    "sum": lambda at, a: np.sum(a, axis=at["axis"], keepdims=at["keepdims"]),
    "mean": lambda at, a: np.mean(a, axis=at["axis"], keepdims=at["keepdims"]),
    "pnorm": lambda at, a: (
        np.sum(np.abs(a), axis=at["axis"], keepdims=at["keepdims"])
        if at["p"] == 1
        else np.sqrt(np.sum(a * a, axis=at["axis"], keepdims=at["keepdims"]))
    ),
    "square": lambda at, a: a * a,
    "log": lambda at, a: np.log(a),
    "clip": lambda at, a: np.clip(a, at["lo"], at["hi"]),
    "tanh": lambda at, a: np.tanh(a),
    "relu": lambda at, a: np.maximum(a, 0.0),
    "softplus": lambda at, a: _softplus(a),
    "softmax_xent": lambda at, x, labels: _fw_softmax_xent(at, x, labels),
    "circcorr": lambda at, a, b: _circcorr(a, b),
    "reverse_roll": lambda at, a: _rev_mod(a),
    "conv2d": lambda at, x, f: _fw_conv2d(x, f),
}


def _fw_softmax_xent(at, x, labels):
    # per-row logsumexp(x) - labels . x; the (B, 1) logsumexp is kept for the VJP
    m = np.max(x, axis=1, keepdims=True)
    e = np.subtract(x, m)
    np.exp(e, out=e)
    lse = m + np.log(np.sum(e, axis=1, keepdims=True))
    at["lse"] = lse
    return lse[:, 0] - np.einsum("be,be->b", labels, x)


def _rev_mod(a):
    d = a.shape[-1]
    idx = (-np.arange(d)) % d
    return a[..., idx]


# ---------------------------------------------------------------------------
# vector-Jacobian products; each returns one gradient per parent (or None)
# ---------------------------------------------------------------------------

def _vjp_add(g, node, a, b):
    return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)


def _vjp_sub(g, node, a, b):
    return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)


def _vjp_mul(g, node, a, b):
    pa, pb = node.parents
    return (_unbroadcast(g * b, a.shape) if pa.requires_grad else None,
            _unbroadcast(g * a, b.shape) if pb.requires_grad else None)


def _vjp_div(g, node, a, b):
    pa, pb = node.parents
    return (_unbroadcast(g / b, a.shape) if pa.requires_grad else None,
            _unbroadcast(-g * a / (b * b), b.shape) if pb.requires_grad else None)


def _einsum_into(s1, s2, target, x, y, shape):
    """The einsum of x and y into an operand's labels `target` and `shape`:
    the axes the operand broadcast (size 1 in `shape`) are summed inside the
    contraction, so the broadcast gradient is never materialised."""
    kept = "".join(label for label, n in zip(target, shape) if n != 1)
    z = _einsum(s1, s2, kept, x, y)
    # a reshape to the same shape would still be a view, which backward
    # copies before it accumulates into a leaf
    if z.shape == shape:
        return z
    if z.size == math.prod(shape):
        return z.reshape(shape)
    # the other operand broadcast a label summed out of the output: the
    # gradient is constant along it
    sizes = iter(z.shape)
    return np.broadcast_to(z.reshape([1 if n == 1 else next(sizes) for n in shape]), shape)


def _vjp_einsum2(g, node, a, b):
    sa, sb, so = node.attrs["_parts"]
    pa, pb = node.parents
    ga = _einsum_into(so, sb, sa, g, b, a.shape) if pa.requires_grad else None
    gb = _einsum_into(sa, so, sb, a, g, b.shape) if pb.requires_grad else None
    return ga, gb


def _vjp_concat(g, node, *xs):
    # basic slices, not np.split: the split's Python overhead is a concat's
    # whole cost at the (B, N, d) sizes of a scoring step
    lead = (slice(None),) * (node.attrs["axis"] % g.ndim)
    grads, start = [], 0
    for x in xs:
        stop = start + x.shape[len(lead)]
        grads.append(g[lead + (slice(start, stop),)])
        start = stop
    return tuple(grads)


def _vjp_slice(g, node, a):
    out = np.zeros_like(a)
    out[node.attrs["key"]] = g
    return (out,)


def _vjp_gather(g, node, a):
    w = int(np.prod(a.shape[1:]))  # elements per table row, one bin each
    bins = (node.attrs["indices"].reshape(-1, 1) * w + np.arange(w)).reshape(-1)
    # bincount sums each bin in input order, as np.add.at does: bit-identical
    return (np.bincount(bins, weights=g.reshape(-1), minlength=a.size).reshape(a.shape),)


def _expand_reduced(g, axis, keepdims):
    """g with the axes a reduction removed put back at size 1, so that it
    broadcasts against the reduction's input."""
    return g if axis is None or keepdims else np.expand_dims(g, axis=axis)


def _vjp_sum(g, node, a):
    # copyto broadcasts into a fresh buffer, twice as fast as copying a
    # broadcast_to view at the (B, N, d) sizes of a scoring step
    out = np.empty(a.shape)
    np.copyto(out, _expand_reduced(g, node.attrs["axis"], node.attrs["keepdims"]))
    return (out,)


def _vjp_mean(g, node, a):
    at = node.attrs
    count = a.size if at["axis"] is None else a.shape[at["axis"]]
    return (np.divide(_expand_reduced(g, at["axis"], at["keepdims"]), count,
                      out=np.empty(a.shape)),)


def _vjp_pnorm(g, node, a):
    at = node.attrs
    gg = _expand_reduced(g, at["axis"], at["keepdims"])
    if at["p"] == 1:
        return (gg * np.sign(a),)  # sign(0) = 0: the chosen L1 subgradient
    y = _expand_reduced(node.value, at["axis"], at["keepdims"])
    return (gg * a / np.maximum(y, _TINY),)


def _vjp_softmax_xent(g, node, x, labels):
    # (softmax(x) - labels) * g, built in one buffer
    out = np.subtract(x, node.attrs["lse"])
    np.exp(out, out=out)
    out -= labels
    out *= g[:, None]
    return out, None


def _vjp_conv2d(g, node, x, f):
    # g: (..., F, mo, no), as the (B·mo·no, F) matrix of the forward matmul
    F, kr, kc = f.shape
    mo, no = g.shape[-2:]
    gm = np.moveaxis(g, -3, -1).reshape((-1, F))
    pa, pb = node.parents
    dx = df = None
    if pa.requires_grad:
        # each window's gradient, added back where the window sits
        cols = (gm @ f.reshape((F, kr * kc))).reshape(g.shape[:-3] + (mo, no, kr, kc))
        dx = np.zeros(x.shape)
        for i in range(kr):
            for j in range(kc):
                dx[..., i:i + mo, j:j + no] += cols[..., i, j]
    if pb.requires_grad:
        df = (gm.T @ _patches(x, kr, kc)).reshape(f.shape)
    return dx, df


_VJP = {
    "add": _vjp_add,
    "sub": _vjp_sub,
    "mul": _vjp_mul,
    "div": _vjp_div,
    "neg": lambda g, node, a: (-g,),
    "einsum2": _vjp_einsum2,
    "transpose": lambda g, node, a: (np.transpose(g, np.argsort(node.attrs["axes"])),),
    "reshape": lambda g, node, a: (g.reshape(a.shape),),
    "concat": _vjp_concat,
    "slice": _vjp_slice,
    "gather": _vjp_gather,
    "sum": _vjp_sum,
    "mean": _vjp_mean,
    "pnorm": _vjp_pnorm,
    "square": lambda g, node, a: (2.0 * a * g,),
    "log": lambda g, node, a: (g / a,),
    "clip": lambda g, node, a: (g * ((a >= node.attrs["lo"]) & (a <= node.attrs["hi"])),),
    "tanh": lambda g, node, a: (g * (1.0 - node.value * node.value),),
    "relu": lambda g, node, a: (g * (a > 0.0),),
    "softplus": lambda g, node, a: (g * _stable_sigmoid(a),),
    "softmax_xent": _vjp_softmax_xent,
    "circcorr": lambda g, node, a, b: (
        _unbroadcast(_circcorr(g, b), a.shape),
        _unbroadcast(_circcorr(_rev_mod(g), a), b.shape),  # the convolution of g and a
    ),
    "reverse_roll": lambda g, node, a: (_rev_mod(g),),  # the index map is an involution
    "conv2d": _vjp_conv2d,
}

# ops where the derivative jumps; gradient checks must stay away from these inputs
KINKED_OPS = {"relu", "clip", "pnorm"}


class Node:
    """One value in a computation graph.

    Attributes:
        id: position in the owning graph (also its topological index)
        op: op kind string; "leaf" for inputs and constants
        parents: tuple of parent nodes
        attrs: op attributes (shapes, axes, indices, ...)
        value: the eagerly computed float64 array
        grad: dLoss/dValue after Graph.backward, else None
    """

    __slots__ = ("id", "op", "parents", "attrs", "value", "grad", "requires_grad", "_graph")

    def __init__(self, graph, id, op, parents, attrs, value, requires_grad):
        # weak back reference: a dropped Graph must free by refcount alone,
        # cycles would defer ~100MB step graphs to the generational collector
        self._graph = weakref.ref(graph)
        self.id = id
        self.op = op
        self.parents = parents
        self.attrs = attrs
        self.value = value
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def graph(self):
        g = self._graph()
        if g is None:
            raise ReferenceError("the Graph that owns this node no longer exists")
        return g

    @property
    def shape(self):
        return self.value.shape

    # arithmetic sugar; non-Node operands become constants of the same graph
    def _lift(self, other):
        if isinstance(other, Node):
            return other
        return self.graph.constant(other)

    def __add__(self, other):
        return self.graph.apply("add", self, self._lift(other))

    def __radd__(self, other):
        return self.graph.apply("add", self._lift(other), self)

    def __sub__(self, other):
        return self.graph.apply("sub", self, self._lift(other))

    def __rsub__(self, other):
        return self.graph.apply("sub", self._lift(other), self)

    def __mul__(self, other):
        return self.graph.apply("mul", self, self._lift(other))

    def __rmul__(self, other):
        return self.graph.apply("mul", self._lift(other), self)

    def __truediv__(self, other):
        return self.graph.apply("div", self, self._lift(other))

    def __rtruediv__(self, other):
        return self.graph.apply("div", self._lift(other), self)

    def __neg__(self):
        return self.graph.apply("neg", self)

    def __matmul__(self, other):
        return self.graph.einsum("ij,jk->ik", self, other)

    def __getitem__(self, key):
        if not isinstance(key, tuple):
            key = (key,)
        return self.graph.apply("slice", self, key=key)

    def sum(self, axis=None, keepdims=False):
        return self.graph.apply("sum", self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return self.graph.apply("mean", self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return self.graph.apply("reshape", self, shape=tuple(shape))

    @property
    def T(self):
        axes = tuple(reversed(range(self.value.ndim)))
        return self.graph.apply("transpose", self, axes=axes)

    def __repr__(self):
        return f"Node(id={self.id}, op={self.op!r}, shape={self.value.shape})"


class Graph:
    """Append-only eager computation graph.

    Nodes are created through leaf/constant/apply and evaluated immediately.
    backward() runs one reverse sweep from a scalar loss, summing gradient
    contributions over all paths. A second backward on the same graph is
    rejected.
    """

    def __init__(self):
        self.nodes = []
        self._backward_ran = False

    def _register(self, op, parents, attrs, value, requires_grad):
        node = Node(self, len(self.nodes), op, tuple(parents), attrs, value, requires_grad)
        self.nodes.append(node)
        return node

    def leaf(self, value, requires_grad=True):
        """A graph input; gradients are accumulated here by backward()."""
        return self._register("leaf", (), {}, _as_f64(value), requires_grad)

    def constant(self, value):
        """A leaf that never receives a gradient."""
        return self.leaf(value, requires_grad=False)

    def apply(self, op, *parents, **attrs):
        """Create an op node, computing its value now.

        Parents must be Nodes of this graph; attrs are op-specific and must
        be plain data (never Nodes).
        """
        if op not in _FORWARD:
            raise ValueError(f"unknown op kind {op!r}")
        for p in parents:
            if p.graph is not self:
                raise ValueError("cannot mix nodes from different graphs")
        if op == "einsum2":
            attrs["_parts"] = _einsum_parts(attrs["spec"])
            if [p.value.ndim for p in parents] != [len(labels) for labels in attrs["_parts"][:2]]:
                raise ValueError(f"einsum {attrs['spec']!r} needs one axis per label, got "
                                 f"operands of shapes {[p.shape for p in parents]}")
        if op == "gather":
            attrs["indices"] = np.asarray(attrs["indices"], dtype=np.intp)
        value = _FORWARD[op](attrs, *[p.value for p in parents])
        requires_grad = any(p.requires_grad for p in parents)
        return self._register(op, parents, attrs, _as_f64(value), requires_grad)

    # ----- named op helpers ------------------------------------------------

    def einsum(self, spec, a, b):
        return self.apply("einsum2", a, b, spec=spec)

    def concat(self, nodes, axis=0):
        return self.apply("concat", *nodes, axis=axis)

    def gather(self, a, indices):
        """Rows `indices` of `a` along axis 0; ids are non-negative and may repeat."""
        return self.apply("gather", a, indices=indices)

    def pnorm(self, a, p=2, axis=None, keepdims=False):
        if p not in (1, 2):
            raise ValueError("only p in {1, 2} is supported")
        return self.apply("pnorm", a, p=p, axis=axis, keepdims=keepdims)

    def square(self, a):
        return self.apply("square", a)

    def log(self, a):
        return self.apply("log", a)

    def clip(self, a, lo, hi):
        return self.apply("clip", a, lo=float(lo), hi=float(hi))

    def tanh(self, a):
        return self.apply("tanh", a)

    def relu(self, a):
        return self.apply("relu", a)

    def softplus(self, a):
        return self.apply("softplus", a)

    def softmax_xent(self, scores, labels):
        """Per-row softmax cross entropy of (B, E) scores against a label array.

        Returns the (B,) node logsumexp(scores_b) - labels_b . scores_b; the
        labels are a constant and receive no gradient.
        """
        labels = self.constant(labels)
        if scores.value.ndim != 2 or labels.shape != scores.shape:
            raise ValueError(
                f"softmax_xent needs (B, E) scores and labels of the same shape, "
                f"got {scores.shape} and {labels.shape}"
            )
        return self.apply("softmax_xent", scores, labels)

    def circcorr(self, a, b):
        return self.apply("circcorr", a, b)

    def reverse_roll(self, a):
        return self.apply("reverse_roll", a)

    def conv2d(self, x, filters):
        return self.apply("conv2d", x, filters)

    # ----- backward --------------------------------------------------------

    def backward(self, loss):
        """Accumulate dLoss/dNode into every reachable node's grad slot.

        loss must be a scalar (size-1) node of this graph.
        """
        if loss.graph is not self:
            raise ValueError("loss node belongs to a different graph")
        if loss.value.size != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.value.shape}")
        if self._backward_ran:
            raise RuntimeError("backward already ran on this graph")
        self._backward_ran = True
        loss.grad = np.ones_like(loss.value)
        owned = set()  # ids of nodes whose grad buffer this sweep allocated
        for node in reversed(self.nodes[: loss.id + 1]):
            if node.grad is None or node.op == "leaf":
                continue
            if not any(p.requires_grad for p in node.parents):
                continue
            grads = _VJP[node.op](node.grad, node, *[p.value for p in node.parents])
            for parent, pg in zip(node.parents, grads):
                if pg is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    if pg.base is not None and (parent.op == "leaf"
                                                or not pg.flags.c_contiguous):
                        pg = pg.copy()
                        owned.add(parent.id)
                    parent.grad = pg
                elif parent.id in owned:
                    parent.grad += pg
                else:
                    parent.grad = parent.grad + pg
                    owned.add(parent.id)

    def min_kink_distance(self):
        """Smallest |input - kink| over all kink-sensitive ops in the graph.

        Gradient checks near a relu/clip/L1-norm corner are meaningless; callers
        redraw their sample point when this falls under the step size.
        Returns +inf when the graph holds no kinked op.
        """
        dist = np.inf
        for node in self.nodes:
            if node.op not in KINKED_OPS:
                continue
            if node.op == "pnorm" and node.attrs["p"] != 1:
                continue
            x = node.parents[0].value
            if x.size == 0:
                continue
            if node.op == "clip":
                d = min(
                    np.min(np.abs(x - node.attrs["lo"])),
                    np.min(np.abs(x - node.attrs["hi"])),
                )
            else:
                d = np.min(np.abs(x))
            dist = min(dist, float(d))
        return dist


def finite_difference_check(build, point, step=1e-4):
    """Compare analytic gradients against central finite differences.

    Args:
        build: callable(graph, *leaves) returning a scalar loss node; must be
            a pure function of the leaf values
        point: sequence of numpy arrays, one per leaf
        step: central-difference step

    Returns:
        max over all coordinates of |g_analytic - g_numeric| / max(1, |g_numeric|)
    """
    point = [_as_f64(p).copy() for p in point]

    g = Graph()
    leaves = [g.leaf(p) for p in point]
    loss = build(g, *leaves)
    g.backward(loss)
    analytic = [
        leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value) for leaf in leaves
    ]

    def value_at(arrays):
        gg = Graph()
        ls = [gg.leaf(a) for a in arrays]
        return float(build(gg, *ls).value)

    worst = 0.0
    for i, arr in enumerate(point):
        flat = arr.reshape(-1)
        ga = analytic[i].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up = value_at(point)
            flat[j] = orig - step
            down = value_at(point)
            flat[j] = orig
            numeric = (up - down) / (2.0 * step)
            err = abs(ga[j] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst


# Temporaries up to this size stay in the heap, and the heap keeps this much
# free memory above its top instead of trimming it. A 16 MiB pad was too small
# for a Kinships sLCWA step; 64 MiB and 256 MiB were equally fast.
HEAP_PAD = 64 << 20
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3  # mallopt parameters of glibc's <malloc.h>


def _malloc_setting():
    """The first environment variable that already tunes glibc's malloc."""
    for name in sorted(os.environ):
        if name.startswith("MALLOC_") or (
                name == "GLIBC_TUNABLES" and "glibc.malloc." in os.environ[name]):
            return name
    return None


@functools.cache
def _keep_heap():
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        libc = None
    record = {"libc": libc}
    if libc is None:
        return record
    user = _malloc_setting()
    if user:
        record["skipped"] = user
        return record
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # Both are needed. Any mallopt call freezes glibc's dynamic mmap threshold
    # where it stands, so the pad alone still leaves 2 MiB arrays on mmaps of
    # their own when the threshold has not grown yet.
    for key, param in (("mmap_threshold", _M_MMAP_THRESHOLD), ("top_pad", _M_TOP_PAD)):
        record[key] = HEAP_PAD if mallopt(param, HEAP_PAD) == 1 else None
    return record


def keep_heap():
    """Keep freed step temporaries in the process's heap; once per process.

    On glibc, sets M_MMAP_THRESHOLD and M_TOP_PAD to HEAP_PAD, so that the
    arrays one training or ranking step frees are reused by the next step
    instead of being returned to the kernel and faulted in again. Returns a
    JSON-able record of what was done, e.g. {"libc": "glibc 2.36",
    "mmap_threshold": 67108864, "top_pad": 67108864}; {"libc": None} on
    other C libraries, and {"libc": ..., "skipped": name} when the
    environment variable `name` (a MALLOC_* variable, or GLIBC_TUNABLES with
    a glibc.malloc tunable) already tunes malloc, whose setting then stands.
    Later calls return the same record and change nothing.
    """
    return dict(_keep_heap())
