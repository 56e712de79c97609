"""Tape-based reverse-mode automatic differentiation on float64 arrays.

Implements exactly the operations needed for dense networks with ELU
activations, inverted dropout, row normalization, gradient reversal,
binary cross-entropy loss and an RBF two-sample statistic.
Forward values are plain numpy arrays; each `Tensor` keeps
vector-Jacobian callbacks to its parents so `backward` can replay the
graph once in reverse topological order.

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
        self._vjps = list(_vjps)  # (parent, callback) pairs

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"


def astensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    grad = np.asarray(grad)
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    return Tensor(
        a.value + b.value,
        [(a, lambda g: _unbroadcast(g, a.value.shape)),
         (b, lambda g: _unbroadcast(g, b.value.shape))],
    )


def mul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    return Tensor(
        a.value * b.value,
        [(a, lambda g: _unbroadcast(g * b.value, a.value.shape)),
         (b, lambda g: _unbroadcast(g * a.value, b.value.shape))],
    )


def matmul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    return Tensor(
        a.value @ b.value,
        [(a, lambda g: g @ b.value.T), (b, lambda g: a.value.T @ g)],
    )


def transpose(a) -> Tensor:
    a = astensor(a)
    return Tensor(a.value.T, [(a, lambda g: np.asarray(g).T)])


def asum(a, axis=None, keepdims=False) -> Tensor:
    a = astensor(a)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.value.shape)

    return Tensor(a.value.sum(axis=axis, keepdims=keepdims), [(a, vjp)])


def exp(a) -> Tensor:
    a = astensor(a)
    out_value = np.exp(a.value)
    return Tensor(out_value, [(a, lambda g: g * out_value)])


def elu(a) -> Tensor:
    """Elementwise x if x > 0 else exp(x) - 1 (ELU at alpha = 1)."""
    a = astensor(a)
    v = a.value
    pos = v > 0
    out_value = np.where(pos, v, np.expm1(v))
    deriv = np.where(pos, 1.0, np.exp(np.minimum(v, 0.0)))
    return Tensor(out_value, [(a, lambda g: g * deriv)])


def grad_reverse(a) -> Tensor:
    """Identity forward; negates the backward gradient."""
    a = astensor(a)
    return Tensor(a.value, [(a, lambda g: -np.asarray(g))])


def unit_normalize_rows(a) -> Tensor:
    """Scale each row to Euclidean norm 1; rows shorter than NORM_EPS are divided by NORM_EPS."""
    a = astensor(a)
    v = a.value
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

    return Tensor(out_value, [(a, vjp)])


def gather_rows(a, idx) -> Tensor:
    a = astensor(a)
    idx = np.asarray(idx, dtype=np.intp)

    def vjp(g):
        out = np.zeros_like(a.value)
        np.add.at(out, idx, g)
        return out

    return Tensor(a.value[idx], [(a, vjp)])


def expit(z: np.ndarray) -> np.ndarray:
    """Logistic sigmoid, evaluated without overflow on either tail."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_loss(logits, labels) -> Tensor:
    """Mean binary cross-entropy from logits, overflow-safe.

    Per element: max(z, 0) - z*y + log(1 + exp(-|z|)).
    """
    logits = astensor(logits)
    y = np.asarray(astensor(labels).value, dtype=np.float64)
    z = logits.value
    if z.shape != y.shape:
        raise ValueError(f"shape mismatch: logits {z.shape} vs labels {y.shape}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0 or 1")
    n = max(z.size, 1)
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return Tensor(per.sum() / n, [(logits, lambda g: g * (expit(z) - y) / n)])


def backward(loss: Tensor) -> None:
    """Populate .grad on every node reachable from `loss` (which must be scalar)."""
    if not isinstance(loss, Tensor):
        raise ValueError("loss must be a Tensor")
    if loss.value.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")

    # Iterative post-order topological sort (graphs can be deep).
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._vjps:
            if id(parent) not in seen:
                stack.append((parent, False))

    for node in order:
        node.grad = np.zeros_like(node.value)
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        g = node.grad
        for parent, vjp in node._vjps:
            parent.grad += vjp(g)


def mmd2_rbf(a, b, bandwidth: float) -> Tensor:
    """Biased V-statistic of squared MMD with RBF kernel exp(-||.||^2 / (2 bw^2)).

    Differentiable in both samples; used as a balancing penalty during
    training and (via .value) as a standalone two-sample statistic.
    """
    a, b = astensor(a), astensor(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError("expected 2-d sample matrices")
    if a.value.shape[0] == 0 or b.value.shape[0] == 0:
        raise ValueError("samples must be nonempty")
    if a.value.shape[1] != b.value.shape[1]:
        raise ValueError(
            f"column mismatch: {a.value.shape[1]} vs {b.value.shape[1]}"
        )
    if not bandwidth > 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    gamma = -1.0 / (2.0 * bandwidth * bandwidth)

    def block(p: Tensor, q: Tensor) -> Tensor:
        sp = asum(mul(p, p), axis=1, keepdims=True)
        sq = asum(mul(q, q), axis=1, keepdims=True)
        d2 = add(add(sp, transpose(sq)), mul(matmul(p, transpose(q)), -2.0))
        k = exp(mul(d2, gamma))
        return mul(asum(k), 1.0 / (p.value.shape[0] * q.value.shape[0]))

    return add(add(block(a, a), block(b, b)), mul(block(a, b), -2.0))
