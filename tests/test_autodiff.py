"""The layer functions the training step differentiates by hand: their
values and edge cases, and their gradients against finite differences and
against textbook forms. Then the step's gradient reversal, and the zero
gradient of a parameter the objective does not reach."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mtcate import mtrnet
from mtcate.nn import (
    binary_cross_entropy, dense_backward, dense_forward, dropout_mask, elu, expit,
    init_dense, mmd2_rbf, normalize_rows, normalize_rows_backward,
)
from conftest import finite_diff, max_rel_error


def test_elu_values():
    out, _ = elu(np.array([[0.0, 1.0, -1.0]]))
    assert out[0, 0] == 0.0
    assert out[0, 1] == 1.0
    assert out[0, 2] == pytest.approx(math.exp(-1.0) - 1.0, abs=1e-12)


def test_elu_continuous_at_zero():
    for v in (1e-9, -1e-9):
        assert abs(elu(np.array([[v]]))[0].item()) < 2e-9


def test_elu_derivative_approaches_alpha_below_one_above():
    for v, expected in ((-1e-9, 1.0), (1e-9, 1.0), (-2.0, math.exp(-2.0))):
        assert elu(np.array([[v]]))[1].item() == pytest.approx(expected, rel=1e-6)


def test_elu_large_input_raises_no_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, deriv = elu(np.array([[800.0, -1.0]]))
    assert out[0, 0] == 800.0
    assert out[0, 1] == np.expm1(-1.0)
    assert np.array_equal(deriv, [[1.0, np.exp(-1.0)]])


def test_elu_select_bitwise_matches_where_form():
    edges = np.array([0.0, -0.0, np.nan, -np.nan, -1e-300, 1e-300, -800.0, 800.0, 1e300,
                      -1e300, np.inf, -np.inf, -5e-324, 5e-324])
    v = np.concatenate([edges, np.random.default_rng(3).standard_cauchy(200)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, _ = elu(v)
    assert out.tobytes() == np.where(v > 0, v, np.expm1(np.minimum(v, 0.0))).tobytes()


def two_branch_expit(z):
    """The masked two-branch sigmoid that `expit` replaces."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_expit_bitwise_matches_two_branch_form():
    tails = np.array([0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, 800.0, -800.0,
                      np.inf, -np.inf])
    z = np.concatenate([tails, np.random.default_rng(7).standard_cauchy(50)])
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        out = expit(z)
    assert out.tobytes() == two_branch_expit(z).tobytes()
    assert out[[0, 1]].tolist() == [0.5, 0.5]
    assert out[[6, 7, 8, 9]].tolist() == [1.0, 0.0, 1.0, 0.0]
    assert np.isnan(expit(np.array([np.nan])))[0]  # sign bit not compared


def test_unit_normalize_rows_345():
    out, _, _ = normalize_rows(np.array([[3.0, 4.0]]))
    assert np.allclose(out, [[0.6, 0.8]], atol=1e-12)


def test_unit_normalize_rows_idempotent_on_unit_rows():
    row = np.array([[1.0 / math.sqrt(2), -1.0 / math.sqrt(2)]])
    out, _, _ = normalize_rows(row)
    assert np.allclose(out, row, atol=1e-12)


def test_unit_normalize_rows_eps_guard():
    out, divisor, big = normalize_rows(np.zeros((2, 3)))
    assert np.array_equal(out, np.zeros((2, 3)))
    assert not big.any()
    # a row inside the guard was only divided, so its gradient is only divided
    g = np.ones((2, 3))
    assert np.array_equal(normalize_rows_backward(g, out, divisor, big), g / 1e-8)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=6))
def test_unit_normalize_rows_norm_one(values):
    row = np.array([values])
    if np.linalg.norm(row) < 1e-8:
        return
    out, _, _ = normalize_rows(row)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-9


def test_bce_loss_examples():
    def bce(logit, label):
        return float(binary_cross_entropy(np.array([logit]), np.array([label]), 1.0)[0])

    assert bce(0.0, 1.0) == pytest.approx(math.log(2.0))
    assert bce(30.0, 1.0) < 1e-12
    assert bce(-30.0, 1.0) == pytest.approx(30.0, abs=1e-9)


def test_bce_loss_rejects_nonbinary_labels():
    with pytest.raises(ValueError):
        binary_cross_entropy(np.zeros(2), np.array([0.0, 0.5]), 1.0)


@given(st.floats(-500, 500), st.integers(0, 1))
def test_bce_loss_finite_for_extreme_logits(logit, label):
    value, grad = binary_cross_entropy(np.array([logit]), np.array([float(label)]), 1.0)
    assert np.isfinite(value) and value >= 0.0
    assert np.isfinite(grad).all()


def layer_with_gradients(rng, n_out, n_in):
    layer = init_dense(rng, n_out, n_in)
    layer.bias[:] = 0.1 * rng.standard_normal(n_out)
    layer.weights_grad, layer.bias_grad = np.empty_like(layer.weights), np.empty_like(layer.bias)
    return layer


def test_backward_linear_map_gradient_structure():
    rng = np.random.default_rng(3)
    layer = layer_with_gradients(rng, 3, 4)
    x = rng.standard_normal((2, 4))
    dense_backward(layer, x, np.ones((2, 3)))  # the gradient of sum(x W' + b)
    # d sum(x W') / dW: row i of the gradient = column sums of x
    assert np.allclose(layer.weights_grad, np.tile(x.sum(axis=0), (3, 1)), atol=1e-12)
    assert np.array_equal(layer.bias_grad, [2.0, 2.0, 2.0])


@pytest.mark.parametrize("case", range(10))
def test_gradients_match_finite_differences_on_random_ops(case):
    """dense -> ELU -> dropout -> row normalization -> dense -> weighted BCE,
    chained back by hand, against finite differences of the forward."""
    rng = np.random.default_rng(1000 + case)
    n, d, width = (int(v) for v in rng.integers(2, 7, size=3))
    x = rng.standard_normal((n, d))
    hidden, out = layer_with_gradients(rng, width, d), layer_with_gradients(rng, 1, width)
    mask = dropout_mask((n, width), 0.3, rng)
    labels = rng.integers(0, 2, (n, 1)).astype(float)
    weight = float(rng.uniform(0.5, 2.0))

    def forward():
        h, deriv = elu(dense_forward(hidden, x))
        rows, divisor, big = normalize_rows(h * mask)
        loss, logit_grad = binary_cross_entropy(dense_forward(out, rows), labels, weight)
        return weight * loss, (deriv, rows, divisor, big, logit_grad)

    _, (deriv, rows, divisor, big, logit_grad) = forward()
    dense_backward(out, rows, logit_grad)
    g = normalize_rows_backward(logit_grad @ out.weights, rows, divisor, big) * mask * deriv
    dense_backward(hidden, x, g)
    for array, grad in ((x, g @ hidden.weights), (hidden.weights, hidden.weights_grad),
                        (hidden.bias, hidden.bias_grad), (out.weights, out.weights_grad),
                        (out.bias, out.bias_grad)):
        assert max_rel_error(grad, finite_diff(lambda: forward()[0], array)) < 1e-4


def test_mmd2_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((5, 3))
    _, grad = mmd2_rbf(a, b, 1.3, 0.7)
    for sample, rows in ((a, grad[:4]), (b, grad[4:])):
        fd = finite_diff(lambda: 0.7 * mmd2_rbf(a, b, 1.3, 0.7)[0], sample)
        assert max_rel_error(rows, fd) < 1e-4


def three_block_mmd2(a, b, bandwidth, weight):
    """The textbook form: each of the blocks aa, bb and ab builds its kernel
    from explicit row differences, and each row's gradient of weight * MMD^2
    sums its kernel-weighted differences. Returns (value, grad_a, grad_b)."""
    gamma = -1.0 / (2.0 * bandwidth * bandwidth)

    def block(p, q):
        """mean_ij k(p_i, q_j) and its gradients with respect to p and q."""
        diff = p[:, None, :] - q[None, :, :]
        k = np.exp(gamma * (diff * diff).sum(axis=2))
        pull = (2.0 * gamma / k.size) * k[:, :, None] * diff
        return k.mean(), pull.sum(axis=1), -pull.sum(axis=0)

    (aa, aa_p, aa_q), (bb, bb_p, bb_q), (ab, ab_p, ab_q) = block(a, a), block(b, b), block(a, b)
    return (aa + bb - 2.0 * ab, weight * (aa_p + aa_q - 2.0 * ab_p),
            weight * (bb_p + bb_q - 2.0 * ab_q))


@pytest.mark.parametrize("na, nb, d, bandwidth, same", [
    (48, 52, 50, 0.9, False),  # an arm split of a training batch's representations
    (1, 30, 8, 0.5, False),
    (25, 1, 8, 2.0, False),
    (1, 1, 3, 1.0, False),
    (20, 20, 6, 1.1, True),  # a is b
])
def test_mmd2_node_matches_three_block_composition(na, nb, d, bandwidth, same):
    rng = np.random.default_rng(na * 100 + nb)

    def sample(n):
        rows = rng.standard_normal((n, d))
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)  # unit rows, as in training

    a = sample(na)
    b = a if same else sample(nb) + 0.2
    weight = 1.7  # a non-unit loss weight
    value, grad = mmd2_rbf(a, b, bandwidth, weight)
    ref_value, ref_a, ref_b = three_block_mmd2(a, b, bandwidth, weight)
    # relative, floored at the blocks' scale (each kernel sum is at most 1
    # per pair), since a is b cancels the statistic and its gradient to ~0
    scale = 4.0
    assert abs(value - ref_value) <= 1e-12 * max(abs(ref_value), scale)
    for rows, ref in ((grad[:na], ref_a), (grad[na:], ref_b)):
        grad_scale = max(np.abs(ref).max(), weight / bandwidth ** 2 / max(na, nb))
        assert np.abs(rows - ref).max() <= 1e-12 * grad_scale


def test_mmd2_input_validation():
    x = np.zeros((2, 2))
    with pytest.raises(ValueError):
        mmd2_rbf(x, np.zeros((0, 2)), 1.0, 1.0)
    with pytest.raises(ValueError):
        mmd2_rbf(x, np.zeros((2, 3)), 1.0, 1.0)
    with pytest.raises(ValueError):
        mmd2_rbf(x, x, 0.0, 1.0)


def tiny_step(**weights):
    """A one-layer-per-stack model without dropout or L2, and a batch with
    both arms observed and two missing rows."""
    cfg = mtrnet.MTRNetConfig(rep_layer_size=3, hyp_layer_size=3, num_rep_layers=1,
                              num_hyp_layers=1, dropout_rate=0.0, l2_lambda=0.0, **weights)
    rng = np.random.default_rng(0)
    batch = mtrnet.TrainingBatch(rng.standard_normal((6, 2)),
                                 np.array([0.0, 1.0, 0.0, 1.0, np.nan, np.nan]),
                                 rng.standard_normal(6))
    return mtrnet.init_model(cfg, 2), batch


def captured_gradients(monkeypatch):
    """Stub out Adam; returns the list each step's gradient is appended to."""
    grads = []
    monkeypatch.setattr(mtrnet, "adam_step",
                        lambda param, grad, state, lr: grads.append(grad.copy()))
    return grads


def test_discriminator_reads_the_representation_unchanged():
    """The discriminator sees the representation itself."""
    model, batch = tiny_step(alpha=0.0, beta=2.0)
    logits = dense_forward(model.k_r, mtrnet._rep_forward(model, batch.x))
    expected, _ = binary_cross_entropy(logits, batch.r[:, None].astype(float), 1.0)
    record = mtrnet.training_step(model, batch, rng=np.random.default_rng(0))
    assert record["missingness_bce"] == expected


@pytest.mark.parametrize("weights, key", [
    ({"alpha": 0.0, "beta": 2.0}, "missingness_bce"),  # every row
    ({"alpha": 2.0, "beta": 0.0}, "treatment_bce"),  # the observed rows only
], ids=["missingness", "treatment"])
def test_reversed_branch_negates_its_gradient_at_the_encoder(monkeypatch, weights, key):
    """With the heads' output weights at zero, the encoder's whole gradient
    comes through the reversal: minus the gradient of the weighted BCE."""
    model, batch = tiny_step(**weights)
    for head in (model.h0, model.h1):
        head[-1].weights[:] = 0.0
    grads = captured_gradients(monkeypatch)

    def adversary_loss():
        return 2.0 * mtrnet.training_step(model, batch, rng=None)[key]

    adversary_loss()
    n_phi = model.phi[0].weights.size + model.phi[0].bias.size
    assert max_rel_error(grads[0][:n_phi], -finite_diff(adversary_loss, model.flat[:n_phi])) < 1e-4


def test_backward_unused_parameter_gets_zero_gradient(monkeypatch):
    """A layer the objective does not reach gets an exact zero gradient,
    written over whatever the gradient buffer held."""
    model, batch = tiny_step(alpha=0.0, beta=0.0)
    model.h0[-1].weights[:] = 0.0  # h0's hidden layer no longer reaches its output
    model.grad[:] = np.nan
    captured_gradients(monkeypatch)
    mtrnet.training_step(model, batch, rng=None)
    hidden = model.h0[0]
    assert np.array_equal(hidden.weights_grad, np.zeros_like(hidden.weights))
    assert np.array_equal(hidden.bias_grad, np.zeros_like(hidden.bias))
    assert np.isfinite(model.grad).all() and np.any(model.grad != 0.0)
