"""Dense layers, dropout masks and the Adam update used by every network here."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, affine, value_of

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class DenseLayer:
    """Affine map: rows of the input are feature vectors, weights is (out, in)."""

    weights: Tensor
    bias: Tensor

    @property
    def in_dim(self) -> int:
        return self.weights.value.shape[1]


def init_dense(rng: np.random.Generator, n_out: int, n_in: int) -> DenseLayer:
    """Zero bias, weights uniform in +-sqrt(6/(fan_in+fan_out))."""
    bound = math.sqrt(6.0 / (n_in + n_out))
    w = rng.uniform(-bound, bound, size=(n_out, n_in))
    return DenseLayer(Tensor(w), Tensor(np.zeros(n_out)))


def dense_forward(layer: DenseLayer, x) -> Tensor:
    """x @ W.T + b; an input that is not a Tensor enters as a constant."""
    shape = value_of(x).shape
    if len(shape) != 2:
        raise ValueError(f"expected 2-d input, got shape {shape}")
    if shape[1] != layer.in_dim:
        raise ValueError(f"input has {shape[1]} features, layer expects {layer.in_dim}")
    return affine(x, layer.weights, layer.bias)


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: Bernoulli(1-rate) keep decisions scaled by 1/(1-rate).

    The mask is a plain constant array, so applying it is just an elementwise multiply.
    """
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def pack(tensors) -> np.ndarray:
    """Copy the tensors' values end to end into one flat float64 buffer and
    rebind each `.value` to its view of it, so one elementwise update (such
    as `adam_step`) on the buffer steps every tensor."""
    flat = np.concatenate([t.value.ravel() for t in tensors])
    start = 0
    for t in tensors:
        stop = start + t.value.size
        t.value = flat[start:stop].reshape(t.value.shape)
        start = stop
    return flat


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

