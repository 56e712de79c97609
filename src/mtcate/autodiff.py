"""Tape-based reverse-mode automatic differentiation on float64 arrays.

Implements exactly the operations the training step needs: one affine
node per dense layer, ELU activations, inverted dropout, row normalization,
gradient reversal, a weighted squared-error loss (elementwise add and mul
and a full sum), binary cross-entropy and an RBF two-sample statistic.
Forward values are plain numpy arrays; each `Tensor` keeps
vector-Jacobian callbacks to its Tensor parents so `backward` can replay
the graph once in reverse topological order. An operand that is not a
`Tensor` (data, a dropout mask, a target, a scalar) is a constant: it gets
no callback, so `backward` never visits it. A `Tensor` built directly is a
leaf that receives a gradient.

No op consumes randomness (dropout masks are drawn outside the tape and
enter as constants), so a fixed seed gives bitwise-identical runs.
"""

from __future__ import annotations

import numpy as np

NORM_EPS = 1e-8


class Tensor:
    """A node of the computation graph wrapping a float64 ndarray."""

    __slots__ = ("value", "grad", "_vjps")

    def __init__(self, value, _vjps=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._vjps = _vjps  # (parent, callback) pairs

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"


def value_of(x) -> np.ndarray:
    """The forward value of an operand: a Tensor's array, or the constant itself."""
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _node(value, *edges) -> Tensor:
    """A new node whose parents are the Tensor operands of `edges`, given as
    (operand, callback) pairs; a constant operand's pair is dropped."""
    return Tensor(value, [edge for edge in edges if isinstance(edge[0], Tensor)])


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    grad = np.asarray(grad)
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Tensor:
    av, bv = value_of(a), value_of(b)
    return _node(
        av + bv,
        (a, lambda g: _unbroadcast(g, av.shape)),
        (b, lambda g: _unbroadcast(g, bv.shape)),
    )


def mul(a, b) -> Tensor:
    av, bv = value_of(a), value_of(b)
    return _node(
        av * bv,
        (a, lambda g: _unbroadcast(g * bv, av.shape)),
        (b, lambda g: _unbroadcast(g * av, bv.shape)),
    )


def affine(x, w, b) -> Tensor:
    """x @ w.T + b, the dense layer, as one node."""
    xv, wv, bv = value_of(x), value_of(w), value_of(b)
    return _node(
        xv @ wv.T + bv,
        (x, lambda g: g @ wv),
        (w, lambda g: (xv.T @ g).T),
        (b, lambda g: _unbroadcast(g, bv.shape)),
    )


def asum(a) -> Tensor:
    """The sum of every entry, a scalar."""
    av = value_of(a)
    return _node(av.sum(), (a, lambda g: np.broadcast_to(g, av.shape)))


def elu(a) -> Tensor:
    """Elementwise x if x > 0 else exp(x) - 1 (ELU at alpha = 1).

    Both exponentials see min(x, 0), so a large positive input cannot
    overflow, and the derivative exp(min(x, 0)) is exactly 1 where x > 0.
    The select is a max: expm1(x) >= x for x <= 0, rounding included."""
    v = value_of(a)
    neg = np.minimum(v, 0.0)
    out_value = np.maximum(v, np.expm1(neg))
    deriv = np.exp(neg)
    return _node(out_value, (a, lambda g: g * deriv))


def grad_reverse(a) -> Tensor:
    """Identity forward; negates the backward gradient."""
    return _node(value_of(a), (a, lambda g: -np.asarray(g)))


def unit_normalize_rows(a) -> Tensor:
    """Scale each row to Euclidean norm 1; rows shorter than NORM_EPS are divided by NORM_EPS."""
    v = value_of(a)
    if v.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {v.shape}")
    norms = np.sqrt((v * v).sum(axis=1, keepdims=True))
    denom = np.maximum(norms, NORM_EPS)
    out_value = v / denom
    big = norms >= NORM_EPS

    def vjp(g):
        g = np.asarray(g)
        proj = (out_value * g).sum(axis=1, keepdims=True)
        return (g - np.where(big, out_value * proj, 0.0)) / denom

    return _node(out_value, (a, vjp))


def gather_rows(a, idx) -> Tensor:
    """Rows `idx` of `a`. The vjp scatters by assignment when `idx` is
    strictly increasing, so unique, as every training-path index from
    `np.flatnonzero` is; other indices accumulate with `np.add.at`.
    Assignment keeps a -0.0 gradient that 0.0 + g would turn into +0.0."""
    av = value_of(a)
    idx = np.asarray(idx, dtype=np.intp)

    def vjp(g):
        out = np.zeros_like(av)
        if idx.size < 2 or (idx[1:] > idx[:-1]).all():
            out[idx] = g
        else:
            np.add.at(out, idx, g)
        return out

    return _node(av[idx], (a, vjp))


def expit(z: np.ndarray) -> np.ndarray:
    """Logistic sigmoid, evaluated without overflow on either tail:
    1 / (1 + e) for z >= 0 and e / (1 + e) below, with e = exp(-|z|).
    The numerator max(e, z >= 0) is 1 for z >= 0 (where e <= 1) and e below.
    A NaN input gives a NaN output whose sign bit is not preserved. e and
    1 + e share one buffer: freeing fewer temporaries spares the page faults
    of re-growing the heap (78 per call at 14,000 rows when each op allocates)."""
    ez = np.abs(z, out=np.empty(np.shape(z)))
    np.exp(np.negative(ez, out=ez), out=ez)
    out = np.maximum(ez, z >= 0)
    ez += 1.0
    out /= ez
    return out


def bce_loss(logits, labels) -> Tensor:
    """Mean binary cross-entropy from logits, overflow-safe.

    Per element: max(z, 0) - z*y + log(1 + exp(-|z|)).
    """
    y = value_of(labels)
    z = value_of(logits)
    if z.shape != y.shape:
        raise ValueError(f"shape mismatch: logits {z.shape} vs labels {y.shape}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0 or 1")
    n = max(z.size, 1)
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return _node(per.sum() / n, (logits, lambda g: g * (expit(z) - y) / n))


def backward(loss: Tensor) -> None:
    """Populate .grad on every node reachable from `loss` (which must be scalar).

    A node's first gradient contribution is assigned and later ones are added
    out of place, so a .grad may share memory with another node's and must
    not be written to."""
    if not isinstance(loss, Tensor):
        raise ValueError("loss must be a Tensor")
    if loss.value.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")

    # Iterative post-order topological sort (graphs can be deep). Tensors
    # hash by identity.
    order: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        node.grad = None
        stack.append((node, True))
        for parent, _ in node._vjps:
            if parent not in seen:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        g = node.grad
        for parent, vjp in node._vjps:
            contribution = vjp(g)
            parent.grad = contribution if parent.grad is None else parent.grad + contribution


def pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of `x`, as
    |x_i|^2 + |x_j|^2 - 2 x_i.x_j (a fresh n x n array; entries may round
    slightly below 0)."""
    sq = (x * x).sum(axis=1)
    d2 = x @ x.T
    d2 *= -2.0
    d2 += sq[:, None]
    d2 += sq
    return d2


def mmd2_rbf(a, b, bandwidth: float) -> Tensor:
    """Biased V-statistic of squared MMD with RBF kernel exp(-||.||^2 / (2 bw^2)).

    Differentiable in both samples; used as a balancing penalty during
    training and (via .value) as a standalone two-sample statistic.

    One node: with the rows stacked as X and s = (1/na, ..., -1/nb, ...),
    the statistic is s'Ks over the kernel matrix K of X. For W = g*gamma*K o ss'
    (gamma = -1/(2 bw^2)) the gradient of the stacked rows is
    4 (diag(W1) X - W X) = 4 g gamma s o (Ks o X - K (s o X)), computed once
    per backward and split between the samples.
    """
    av, bv = value_of(a), value_of(b)
    if av.ndim != 2 or bv.ndim != 2:
        raise ValueError("expected 2-d sample matrices")
    if av.shape[0] == 0 or bv.shape[0] == 0:
        raise ValueError("samples must be nonempty")
    if av.shape[1] != bv.shape[1]:
        raise ValueError(f"column mismatch: {av.shape[1]} vs {bv.shape[1]}")
    if not bandwidth > 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    gamma = -1.0 / (2.0 * bandwidth * bandwidth)
    na, nb = av.shape[0], bv.shape[0]
    x = np.concatenate((av, bv))
    k = pairwise_sq_dists(x)
    k *= gamma
    np.exp(k, out=k)
    s = np.concatenate((np.full(na, 1.0 / na), np.full(nb, -1.0 / nb)))
    ks = k @ s
    memo = []  # (g, gradient of the stacked rows) of the latest backward

    def stacked_grad(g):
        if not memo or memo[0] is not g:
            full = ks[:, None] * x
            full -= k @ (s[:, None] * x)
            full *= (4.0 * gamma * g) * s[:, None]
            memo[:] = (g, full)
        return memo[1]

    return _node(
        s @ ks,
        (a, lambda g: stacked_grad(g)[:na]),
        (b, lambda g: stacked_grad(g)[na:]),
    )
