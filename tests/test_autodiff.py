import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mtcate.autodiff import (
    Tensor, add, asum, backward, bce_loss, elu, expit, gather_rows, grad_reverse, mmd2_rbf, mul,
    unit_normalize_rows,
)
from conftest import max_rel_grad_error


# Reference ops the training step does not use, built on Tensor for the
# gradient checks and the textbook MMD composition below. Every operand is a Tensor.

def matmul(a, b):
    av, bv = a.value, b.value
    return Tensor(av @ bv, [(a, lambda g: g @ bv.T), (b, lambda g: av.T @ g)])


def transpose(a):
    return Tensor(a.value.T, [(a, lambda g: g.T)])


def exp(a):
    out = np.exp(a.value)
    return Tensor(out, [(a, lambda g: g * out)])


def row_sums(a):
    """The (n, 1) column of row sums."""
    av = a.value
    return Tensor(av.sum(axis=1, keepdims=True), [(a, lambda g: np.broadcast_to(g, av.shape))])


def test_elu_values():
    out = elu(Tensor(np.array([[0.0, 1.0, -1.0]]))).value
    assert out[0, 0] == 0.0
    assert out[0, 1] == 1.0
    assert out[0, 2] == pytest.approx(math.exp(-1.0) - 1.0, abs=1e-12)


def test_elu_continuous_at_zero():
    for v in (1e-9, -1e-9):
        assert abs(elu(Tensor(np.array([[v]]))).value.item()) < 2e-9


def test_elu_derivative_approaches_alpha_below_one_above():
    for v, expected in ((-1e-9, 1.0), (1e-9, 1.0), (-2.0, math.exp(-2.0))):
        x = Tensor(np.array([[v]]))
        backward(asum(elu(x)))
        assert x.grad.item() == pytest.approx(expected, rel=1e-6)


def test_elu_large_input_raises_no_overflow_warning():
    x = Tensor(np.array([[800.0, -1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = elu(x)
        backward(asum(out))
    assert out.value[0, 0] == 800.0
    assert out.value[0, 1] == np.expm1(-1.0)
    assert np.array_equal(x.grad, [[1.0, np.exp(-1.0)]])


def test_elu_select_bitwise_matches_where_form():
    edges = np.array([0.0, -0.0, np.nan, -np.nan, -1e-300, 1e-300, -800.0, 800.0, 1e300,
                      -1e300, np.inf, -np.inf, -5e-324, 5e-324])
    v = np.concatenate([edges, np.random.default_rng(3).standard_cauchy(200)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = elu(Tensor(v)).value
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
    out = unit_normalize_rows(Tensor(np.array([[3.0, 4.0]]))).value
    assert np.allclose(out, [[0.6, 0.8]], atol=1e-12)


def test_unit_normalize_rows_idempotent_on_unit_rows():
    row = np.array([[1.0 / math.sqrt(2), -1.0 / math.sqrt(2)]])
    out = unit_normalize_rows(Tensor(row)).value
    assert np.allclose(out, row, atol=1e-12)


def test_unit_normalize_rows_eps_guard():
    out = unit_normalize_rows(Tensor(np.zeros((2, 3)))).value
    assert np.array_equal(out, np.zeros((2, 3)))


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=6))
def test_unit_normalize_rows_norm_one(values):
    row = np.array([values])
    if np.linalg.norm(row) < 1e-8:
        return
    out = unit_normalize_rows(Tensor(row)).value
    assert abs(np.linalg.norm(out) - 1.0) < 1e-9


def test_grad_reverse_forward_is_bitwise_identity():
    x = np.random.default_rng(0).standard_normal((4, 3))
    assert np.array_equal(grad_reverse(Tensor(x)).value, x)


def test_grad_reverse_backward_negates():
    x = Tensor(np.array([[1.0, 2.0]]))
    backward(asum(grad_reverse(x)))
    assert np.array_equal(x.grad, -np.ones((1, 2)))


def test_bce_loss_examples():
    assert float(bce_loss(Tensor(np.array([0.0])), np.array([1.0])).value) == pytest.approx(math.log(2.0))
    assert float(bce_loss(Tensor(np.array([30.0])), np.array([1.0])).value) < 1e-12
    assert float(bce_loss(Tensor(np.array([-30.0])), np.array([1.0])).value) == pytest.approx(30.0, abs=1e-9)


def test_bce_loss_rejects_nonbinary_labels():
    with pytest.raises(ValueError):
        bce_loss(Tensor(np.zeros(2)), np.array([0.0, 0.5]))


@given(st.floats(-500, 500), st.integers(0, 1))
def test_bce_loss_finite_for_extreme_logits(logit, label):
    value = float(bce_loss(Tensor(np.array([logit])), np.array([float(label)])).value)
    assert np.isfinite(value) and value >= 0.0


def test_backward_linear_map_gradient_structure():
    rng = np.random.default_rng(3)
    w = Tensor(rng.standard_normal((3, 4)))
    x = rng.standard_normal((4, 2))
    backward(asum(matmul(w, Tensor(x))))
    # d sum(Wx) / dW = outer structure of x: row i of grad = column sums of x
    assert np.allclose(w.grad, np.tile(x.sum(axis=1), (3, 1)), atol=1e-12)


def test_backward_unused_parameter_gets_zero_gradient():
    used = Tensor(np.ones((2, 2)))
    unused = Tensor(np.ones((2, 2)))
    loss = asum(mul(used, used))
    loss = add(loss, mul(asum(unused), 0.0))
    backward(loss)
    assert np.array_equal(unused.grad, np.zeros((2, 2)))


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        backward(Tensor(np.ones((2, 2))))


def test_backward_accumulates_shared_nodes():
    x = Tensor(np.array([2.0]))
    y = add(mul(x, x), mul(x, 3.0))  # x^2 + 3x
    backward(asum(y))
    assert x.grad.item() == pytest.approx(7.0)


@pytest.mark.parametrize("case", range(10))
def test_gradients_match_finite_differences_on_random_ops(case):
    rng = np.random.default_rng(1000 + case)
    a = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal((4, 2)))
    c = Tensor(rng.standard_normal(2))
    idx = rng.integers(0, 3, size=5)

    def loss_fn():
        h = add(matmul(a, b), c)
        h = elu(h)
        h = gather_rows(h, idx)
        h = unit_normalize_rows(h)
        return asum(mul(exp(mul(h, 0.3)), transpose(Tensor(np.ones((2, 5))))))

    assert max_rel_grad_error(loss_fn, [a, b, c]) < 1e-4


@pytest.mark.parametrize("idx", [[0, 2, 3], [1], [3, 0, 0, 2], [2, 1]])
def test_gather_rows_gradient_reaches_every_gathered_row(idx):
    # strictly increasing rows scatter by assignment, the others accumulate
    a = Tensor(np.arange(12.0).reshape(4, 3))
    w = np.random.default_rng(5).standard_normal((len(idx), 3))
    backward(asum(mul(gather_rows(a, idx), w)))
    expected = np.zeros((4, 3))
    np.add.at(expected, idx, w)
    assert np.array_equal(a.grad, expected)


def test_mmd2_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    a = Tensor(rng.standard_normal((4, 3)))
    b = Tensor(rng.standard_normal((5, 3)))
    assert max_rel_grad_error(lambda: mmd2_rbf(a, b, 1.3), [a, b]) < 1e-4


def three_block_mmd2(a, b, bandwidth):
    """The tape composition `mmd2_rbf` replaces: each of the blocks aa, bb
    and ab builds its own norms, Gram product, exp and sum."""
    gamma = -1.0 / (2.0 * bandwidth * bandwidth)

    def block(p, q):
        sp = row_sums(mul(p, p))
        sq = row_sums(mul(q, q))
        d2 = add(add(sp, transpose(sq)), mul(matmul(p, transpose(q)), -2.0))
        k = exp(mul(d2, gamma))
        return mul(asum(k), 1.0 / (p.shape[0] * q.shape[0]))

    return add(add(block(a, a), block(b, b)), mul(block(a, b), -2.0))


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

    a = Tensor(sample(na))
    b = a if same else Tensor(sample(nb) + 0.2)
    weight = Tensor(np.array(1.7))  # a non-unit upstream gradient
    results = []
    for mmd in (mmd2_rbf, three_block_mmd2):
        out = mul(mmd(a, b, bandwidth), weight)
        backward(out)
        results.append((out.value.copy(), a.grad.copy(), b.grad.copy()))
    (value, grad_a, grad_b), (ref_value, ref_a, ref_b) = results
    # relative, floored at the blocks' scale (each kernel sum is at most 1
    # per pair), since a is b cancels the statistic and its gradient to ~0
    scale = 1.7 * 4.0
    assert abs(value - ref_value) <= 1e-12 * max(abs(ref_value), scale)
    for grad, ref in ((grad_a, ref_a), (grad_b, ref_b)):
        grad_scale = max(np.abs(ref).max(), 1.7 / bandwidth ** 2 / max(na, nb))
        assert np.abs(grad - ref).max() <= 1e-12 * grad_scale


def test_mmd2_input_validation():
    x = np.zeros((2, 2))
    with pytest.raises(ValueError):
        mmd2_rbf(x, np.zeros((0, 2)), 1.0)
    with pytest.raises(ValueError):
        mmd2_rbf(x, np.zeros((2, 3)), 1.0)
    with pytest.raises(ValueError):
        mmd2_rbf(x, x, 0.0)
