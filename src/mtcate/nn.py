"""Dense layers and the layer functions of the one network here, each with
its gradient: ELU, inverted dropout, row normalization, binary
cross-entropy, an RBF two-sample statistic, and the Adam update.

Every function works on float64 numpy arrays. A loss returns its value and
the gradient of its weighted value with respect to its input; `mtrnet`
chains these gradients back through the layers by hand. No function here
draws randomness except `dropout_mask`, from the generator it is given, so
a fixed seed gives bitwise-identical runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
NORM_EPS = 1e-8


@dataclass
class DenseLayer:
    """Affine map: rows of the input are feature vectors, weights is (out, in).

    `dense_backward` writes the layer's gradients into `weights_grad` and
    `bias_grad`, which `pack` points at a model's gradient buffer."""

    weights: np.ndarray
    bias: np.ndarray
    weights_grad: np.ndarray | None = field(default=None, repr=False)
    bias_grad: np.ndarray | None = field(default=None, repr=False)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


def init_dense(rng: np.random.Generator, n_out: int, n_in: int) -> DenseLayer:
    """Zero bias, weights uniform in +-sqrt(6/(fan_in+fan_out))."""
    bound = math.sqrt(6.0 / (n_in + n_out))
    w = rng.uniform(-bound, bound, size=(n_out, n_in))
    return DenseLayer(w, np.zeros(n_out))


def dense_forward(layer: DenseLayer, x: np.ndarray) -> np.ndarray:
    """x @ W.T + b."""
    if x.ndim != 2:
        raise ValueError(f"expected 2-d input, got shape {x.shape}")
    if x.shape[1] != layer.in_dim:
        raise ValueError(f"input has {x.shape[1]} features, layer expects {layer.in_dim}")
    return x @ layer.weights.T + layer.bias


def dense_backward(layer: DenseLayer, x: np.ndarray, g: np.ndarray) -> None:
    """Write the gradients of the layer's weights, (x.T @ g).T, and of its
    bias, the column sums of g, for the output gradient `g` at input `x`.
    The input's gradient is g @ W, left to the caller, which may not need it."""
    layer.weights_grad[...] = (x.T @ g).T
    layer.bias_grad[...] = g.sum(axis=0)


def elu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ELU(x), its derivative), elementwise: x if x > 0 else exp(x) - 1
    (ELU at alpha = 1), and exp(min(x, 0)).

    Both exponentials see min(x, 0), so a large positive input cannot
    overflow, and the derivative is exactly 1 where x > 0. The select is a
    max: expm1(x) >= x for x <= 0, rounding included. The derivative cannot
    come from the output: expm1(x) + 1 is not bitwise exp(x)."""
    neg = np.minimum(x, 0.0)
    return np.maximum(x, np.expm1(neg)), np.exp(neg)


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: Bernoulli(1-rate) keep decisions scaled by 1/(1-rate).

    The mask is a plain constant array, so applying it is just an elementwise multiply.
    """
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row of `x` scaled to Euclidean norm 1; rows shorter than NORM_EPS
    are divided by NORM_EPS. Returns (rows, divisor, big): the (n, 1)
    divisors and which rows reached NORM_EPS, for `normalize_rows_backward`."""
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    divisor = np.maximum(norms, NORM_EPS)
    return x / divisor, divisor, norms >= NORM_EPS


def normalize_rows_backward(g: np.ndarray, out: np.ndarray, divisor: np.ndarray,
                            big: np.ndarray) -> np.ndarray:
    """The input's gradient for the output gradient `g` of `normalize_rows`,
    whose output was `out`: a row shorter than NORM_EPS was only divided."""
    proj = (out * g).sum(axis=1, keepdims=True)
    return (g - np.where(big, out * proj, 0.0)) / divisor


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


def binary_cross_entropy(logits: np.ndarray, labels: np.ndarray,
                         weight: float) -> tuple[np.float64, np.ndarray]:
    """Mean binary cross-entropy from logits, overflow-safe, and the gradient
    of weight * mean with respect to the logits, weight * (expit(z) - y) / n.

    Per element: max(z, 0) - z*y + log(1 + exp(-|z|))."""
    z, y = logits, labels
    if z.shape != y.shape:
        raise ValueError(f"shape mismatch: logits {z.shape} vs labels {y.shape}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0 or 1")
    n = max(z.size, 1)
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return per.sum() / n, weight * (expit(z) - y) / n


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


def mmd2_rbf(a: np.ndarray, b: np.ndarray, bandwidth: float,
             weight: float) -> tuple[np.float64, np.ndarray]:
    """Biased V-statistic of squared MMD with RBF kernel exp(-||.||^2 / (2 bw^2)),
    and the gradient of weight * MMD^2 with respect to the stacked rows [a; b].

    With the rows stacked as X and s = (1/na, ..., -1/nb, ...), the statistic
    is s'Ks over the kernel matrix K of X. For W = weight*gamma*K o ss'
    (gamma = -1/(2 bw^2)) the gradient is 4 (diag(W1) X - W X) =
    4 weight gamma s o (Ks o X - K (s o X))."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("expected 2-d sample matrices")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("samples must be nonempty")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column mismatch: {a.shape[1]} vs {b.shape[1]}")
    if not bandwidth > 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    gamma = -1.0 / (2.0 * bandwidth * bandwidth)
    na, nb = a.shape[0], b.shape[0]
    x = np.concatenate((a, b))
    k = pairwise_sq_dists(x)
    k *= gamma
    np.exp(k, out=k)
    s = np.concatenate((np.full(na, 1.0 / na), np.full(nb, -1.0 / nb)))
    ks = k @ s
    grad = ks[:, None] * x
    grad -= k @ (s[:, None] * x)
    grad *= (4.0 * gamma * weight) * s[:, None]
    return s @ ks, grad


def pack(layers) -> tuple[np.ndarray, np.ndarray]:
    """Copy the layers' weights and biases end to end into one flat float64
    buffer, rebind each to its view of it, and point each layer's gradients
    at the same views of a second buffer; returns (values, gradients). One
    elementwise update (such as `adam_step`) on the values then steps every
    layer."""
    flat = np.concatenate([p.ravel() for layer in layers for p in (layer.weights, layer.bias)])
    grad = np.empty_like(flat)
    start = 0
    for layer in layers:
        views = []
        for shape in (layer.weights.shape, layer.bias.shape):
            stop = start + math.prod(shape)
            views.append((flat[start:stop].reshape(shape), grad[start:stop].reshape(shape)))
            start = stop
        (layer.weights, layer.weights_grad), (layer.bias, layer.bias_grad) = views
    return flat, grad


@dataclass
class AdamState:
    """First/second moment accumulators for one parameter array, and two
    scratch arrays of its shape so a step allocates nothing."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    work: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.work = np.empty((2,) + self.m.shape)

    @classmethod
    def like(cls, param: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(param), np.zeros_like(param))


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> np.ndarray:
    """Bias-corrected Adam update, in place on `param`, `state.m` and `state.v`.

    Every operation of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    param -= lr*m_hat / (sqrt(v_hat) + eps) runs in the same order as the
    allocating formula, into the state's scratch arrays, so the result is
    bitwise the same."""
    grad = np.asarray(grad, dtype=np.float64)
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: param {param.shape}, grad {grad.shape}, state {state.m.shape}"
        )
    state.step += 1
    m, v, (update, denom) = state.m, state.v, state.work
    np.multiply(grad, 1.0 - ADAM_BETA1, out=update)
    m *= ADAM_BETA1
    m += update
    np.multiply(grad, 1.0 - ADAM_BETA2, out=update)
    update *= grad
    v *= ADAM_BETA2
    v += update
    np.divide(m, 1.0 - ADAM_BETA1 ** state.step, out=update)
    update *= lr
    np.divide(v, 1.0 - ADAM_BETA2 ** state.step, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    update /= denom
    param -= update
    return param
