"""A tour of the reverse-mode autodiff engine.

Graphs are throwaway objects: build one, run backward once, read the leaf
gradients, drop it. Every training step in this library does exactly that.
"""

import numpy as np

from kgembed.autodiff import Graph, finite_difference_check

# --- 1. scalars in, gradient out -------------------------------------------

g = Graph()
x = g.leaf([1.0, 2.0, 3.0])
w = g.leaf([0.5, -1.0, 2.0])
diff = x * w - 1.0
loss = (diff * diff).mean()
g.backward(loss)
print("loss            ", loss.value)
print("d loss / d x    ", x.grad)
print("d loss / d w    ", w.grad)

# --- 2. broadcasting works like numpy, gradients un-broadcast --------------

g = Graph()
m = g.leaf(np.arange(6.0).reshape(2, 3))
b = g.leaf(np.array([10.0, 20.0, 30.0]))
out = (m + b).sum()
g.backward(out)
print("\nbias grad sums over the broadcast axis:", b.grad)

# --- 3. the ops are the ones embedding scores need -------------------------

g = Graph()
a = g.leaf(np.array([[1.0, -2.0], [0.5, 3.0]]))
# softmax cross entropy takes its labels by position: row 0 is labeled at
# column 1 and row 1 at column 0, so each row gives logsumexp - that score
xent = g.softmax_xent(a, rows=[0, 1], cols=[1, 0])
print("\ncross entropy per row:", xent.value)
g.backward(g.softplus(a).sum())
sig = a.grad  # the derivative of softplus is the sigmoid
print("sigmoid stays in (0, 1):", sig.min() > 0, sig.max() < 1)

# --- 4. gradients are checked against finite differences -------------------

def build(g, u, v):
    return (g.softplus(u @ v)).sum() + (u * u).sum()

rng = np.random.default_rng(0)
err = finite_difference_check(build, [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))])
print(f"\nworst relative gradient error vs finite differences: {err:.2e}")

# --- 5. kinked ops (relu, clip, L1 norm) can sit on a corner --------------

g = Graph()
z = g.leaf([0.00004, 5.0])
g.relu(z)
print(f"distance of the nearest input to a relu corner: {g.min_kink_distance():.1e}")
print("(tests redraw the point when this is within the finite-difference step)")
