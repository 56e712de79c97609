import numpy as np
import pytest

from mtcate.autodiff import Tensor, add, asum, backward, bce_loss, elu, mul, unit_normalize_rows
from mtcate.nn import dense_forward, dropout_mask, init_dense


def finite_diff(loss_fn, tensor, step=1e-5):
    """Central finite differences of loss_fn() w.r.t. one tensor's entries."""
    fd = np.zeros_like(tensor.value)
    it = np.nditer(tensor.value, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = tensor.value[i]
        tensor.value[i] = orig + step
        up = float(loss_fn().value)
        tensor.value[i] = orig - step
        down = float(loss_fn().value)
        tensor.value[i] = orig
        fd[i] = (up - down) / (2.0 * step)
        it.iternext()
    return fd


def max_rel_grad_error(loss_fn, tensors, step=1e-5):
    """Worst relative disagreement between the tape gradient and finite
    differences over the given tensors."""
    backward(loss_fn())
    grads = [t.grad.copy() for t in tensors]
    worst = 0.0
    for t, g in zip(tensors, grads):
        fd = finite_diff(loss_fn, t, step)
        denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-6)
        worst = max(worst, float((np.abs(g - fd) / denom).max()))
    return worst


def random_network_loss(rng):
    """A random small MLP (up to 3 layers of up to 8 units) mixing ELU, fixed
    dropout masks, row normalization and one of the two losses.

    Returns (loss_fn, tensors) where tensors covers every parameter and the
    input, so gradient checks exercise the whole backward path."""
    n = int(rng.integers(2, 6))
    d_in = int(rng.integers(1, 5))
    depth = int(rng.integers(1, 4))
    widths = [int(w) for w in rng.integers(1, 9, size=depth)]

    x = Tensor(rng.standard_normal((n, d_in)))
    layers = []
    d = d_in
    for w in widths:
        layer = init_dense(rng, w, d)
        # generic nonzero biases: with zero biases a fully dropped-out row
        # lands the next activation exactly inside the normalization eps
        # guard, a degenerate point finite differences cannot probe
        layer.bias.value[:] = 0.1 * rng.standard_normal(w)
        layers.append(layer)
        d = w
    out_layer = init_dense(rng, 1, d)
    masks = [
        dropout_mask((n, w), 0.3, rng) if rng.random() < 0.5 else None
        for w in widths
    ]
    normalize_at = int(rng.integers(0, depth + 1))  # depth means "never"
    use_bce = rng.random() < 0.3
    if use_bce:
        target = Tensor(rng.integers(0, 2, size=(n, 1)).astype(float))
    else:
        target = Tensor(rng.standard_normal((n, 1)))

    def loss_fn():
        h = x
        for i, layer in enumerate(layers):
            h = elu(dense_forward(layer, h))
            # normalize before dropout: a fully dropped-out narrow row would
            # sit inside the eps guard, where finite differences cannot
            # resolve the (correct, huge) analytic gradient
            if i == normalize_at:
                h = unit_normalize_rows(h)
            if masks[i] is not None:
                h = mul(h, masks[i])
        out = dense_forward(out_layer, h)
        if use_bce:
            return bce_loss(out, target)
        diff = add(out, mul(target, -1.0))
        return mul(asum(mul(diff, diff)), 1.0 / n)  # mean squared error

    tensors = [x]
    for layer in layers + [out_layer]:
        tensors.extend([layer.weights, layer.bias])
    return loss_fn, tensors


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
