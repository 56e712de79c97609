# mtcate first: importing it pins BLAS to one thread only if numpy is not loaded yet
from mtcate import mtrnet

import numpy as np  # noqa: E402
import pytest  # noqa: E402


def finite_diff(f, x, step=1e-5):
    """Central finite differences of f() (a scalar or a vector) with respect
    to each entry of the array `x`, which f reads and which is perturbed in
    place; the result has shape x.shape + f's shape."""
    fd = []
    for i in np.ndindex(x.shape):
        orig = x[i]
        x[i] = orig + step
        up = np.asarray(f(), dtype=np.float64)
        x[i] = orig - step
        down = np.asarray(f(), dtype=np.float64)
        x[i] = orig
        fd.append((up - down) / (2.0 * step))
    return np.reshape(fd, x.shape + np.shape(fd[0]))


def max_rel_error(grad, fd) -> float:
    """Worst relative disagreement between an analytic gradient and finite
    differences, each entry's scale floored at 1e-6."""
    denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-6)
    return float((np.abs(grad - fd) / denom).max())


def random_step(rng):
    """A random small network, batch and step configuration: up to 3 encoder
    and 3 head layers of up to 5 units, each adversary, the MMD penalty, row
    weights, L2 and dropout each on or off.

    Returns (model, batch, the step's keyword arguments)."""
    def on():
        return rng.random() < 0.5

    n, d = int(rng.integers(4, 11)), int(rng.integers(1, 5))
    cfg = mtrnet.MTRNetConfig(
        rep_layer_size=int(rng.integers(1, 6)), hyp_layer_size=int(rng.integers(1, 6)),
        num_rep_layers=int(rng.integers(1, 4)), num_hyp_layers=int(rng.integers(1, 4)),
        dropout_rate=0.3 if on() else 0.0, l2_lambda=0.05 if on() else 0.0,
        alpha=float(rng.uniform(0.5, 2.0)) if on() else 0.0,
        beta=float(rng.uniform(0.5, 2.0)) if on() else 0.0,
    )
    model = mtrnet.init_model(cfg, d)
    for layer in model.phi + model.h0 + model.h1 + [model.k_t, model.k_r]:
        if layer is not None:
            # generic nonzero biases: with zero biases a fully dropped-out row
            # lands the next activation exactly inside the normalization eps
            # guard, a degenerate point finite differences cannot probe
            layer.bias[:] = 0.1 * rng.standard_normal(layer.bias.size)
    t = rng.integers(0, 2, n).astype(float)
    r = (rng.random(n) < 0.7).astype(np.int64)
    t[:2], r[:2] = (0.0, 1.0), 1  # both arms observed
    batch = mtrnet.TrainingBatch(
        rng.standard_normal((n, d)), np.where(r == 1, t, np.nan), rng.standard_normal(n),
        rng.uniform(0.5, 2.0, n) if on() else None)
    mmd_weight = float(rng.uniform(0.5, 2.0)) if on() else None
    kwargs = {"mmd_weight": mmd_weight, "mmd_bandwidth": float(rng.uniform(0.5, 2.0))}
    return model, batch, kwargs


def step_objectives(record, model, mmd_weight):
    """(descent, ascent) objectives of a step's record: outcome + L2 + MMD
    plus, or minus, the weighted adversary losses. The discriminators
    descend on the first; the encoder, behind the gradient reversal, on the
    second."""
    cfg = model.config
    base = (record["outcome"] + cfg.l2_lambda * record.get("l2", 0.0)
            + (mmd_weight or 0.0) * record.get("mmd2", 0.0))
    adversary = (cfg.alpha * record.get("treatment_bce", 0.0)
                 + cfg.beta * record.get("missingness_bce", 0.0))
    return base + adversary, base - adversary


def step_gradient_error(rng, step=1e-5) -> float:
    """Max relative error between the gradient a random `training_step`
    hands to Adam and central finite differences of its objective in
    `model.flat` coordinates, with the dropout masks replayed and Adam
    stubbed out. An encoder coordinate is checked against the ascent
    objective, every other one against the descent objective."""
    model, batch, kwargs = random_step(rng)
    mask_seed = int(rng.integers(2**32))
    captured = []
    adam_step = mtrnet.adam_step
    mtrnet.adam_step = lambda param, grad, state, lr: captured.append(grad.copy())
    try:
        def objectives():
            record = mtrnet.training_step(model, batch, rng=np.random.default_rng(mask_seed),
                                          **kwargs)
            return step_objectives(record, model, kwargs["mmd_weight"])

        objectives()
        fd = finite_diff(objectives, model.flat, step)
    finally:
        mtrnet.adam_step = adam_step
    n_phi = sum(layer.weights.size + layer.bias.size for layer in model.phi)
    expected = np.where(np.arange(model.flat.size) < n_phi, fd[:, 1], fd[:, 0])
    return max_rel_error(captured[0], expected)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
