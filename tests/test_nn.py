import numpy as np
import pytest

from mtcate.nn import (
    ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, DenseLayer, adam_step, dense_forward,
    dropout_mask, init_dense,
)


def layer(w, b):
    return DenseLayer(np.asarray(w, float), np.asarray(b, float))


def test_dense_forward_identity():
    out = dense_forward(layer(np.eye(2), [0.0, 0.0]), np.array([[1.0, 2.0]]))
    assert np.array_equal(out, [[1.0, 2.0]])


def test_dense_forward_hand_example():
    out = dense_forward(layer([[1.0, 1.0]], [0.5]), np.array([[2.0, 3.0]]))
    assert np.array_equal(out, [[5.5]])


def test_dense_forward_zero_weights_returns_bias():
    out = dense_forward(layer(np.zeros((2, 3)), [1.5, -2.0]), np.random.default_rng(0).standard_normal((4, 3)))
    assert np.array_equal(out, np.tile([1.5, -2.0], (4, 1)))


def test_dense_forward_dimension_mismatch():
    with pytest.raises(ValueError):
        dense_forward(layer(np.eye(2), [0.0, 0.0]), np.ones((1, 3)))


def test_dropout_mask_rate_zero_is_all_ones():
    assert np.array_equal(dropout_mask((5, 7), 0.0, np.random.default_rng(42)), np.ones((5, 7)))


def test_dropout_mask_keep_fraction_concentrates():
    mask = dropout_mask((400, 400), 0.5, np.random.default_rng(7))
    kept = float((mask > 0).mean())
    assert abs(kept - 0.5) < 0.05
    assert np.all((mask == 0.0) | (mask == 2.0))  # inverted scaling


def test_dropout_mask_deterministic_per_seed():
    masks = [dropout_mask((20, 20), 0.3, np.random.default_rng(11)) for _ in range(2)]
    assert np.array_equal(masks[0], masks[1])


def test_dropout_mask_rejects_rate_one():
    with pytest.raises(ValueError):
        dropout_mask((2, 2), 1.0, np.random.default_rng(0))


def test_init_dense_bounds_and_zero_bias():
    rng = np.random.default_rng(5)
    l = init_dense(rng, 30, 20)
    bound = np.sqrt(6.0 / 50.0)
    assert np.all(np.abs(l.weights) <= bound)
    assert np.array_equal(l.bias, np.zeros(30))


def test_adam_zero_gradient_keeps_params_steps_counter():
    p = np.array([1.0, -2.0])
    state = AdamState.like(p)
    adam_step(p, np.zeros(2), state, 0.1)
    assert np.array_equal(p, [1.0, -2.0])
    assert state.step == 1


def test_adam_first_step_is_signed_learning_rate():
    p = np.zeros(3)
    g = np.array([0.5, -2.0, 1e-3])
    adam_step(p, g, AdamState.like(p), lr=0.01)
    assert np.allclose(p, -0.01 * np.sign(g), rtol=1e-4)


def test_adam_shape_mismatch():
    p = np.zeros(3)
    with pytest.raises(ValueError):
        adam_step(p, np.zeros(2), AdamState.like(p), 0.1)


def allocating_adam_step(param, grad, m, v, step, lr):
    """The textbook Adam formula, one fresh array per operation."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1 ** step)
    v_hat = v / (1.0 - ADAM_BETA2 ** step)
    return param - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v


def test_adam_in_place_is_bitwise_the_allocating_formula():
    rng = np.random.default_rng(4)
    p = rng.standard_normal(21_000)
    state = AdamState.like(p)
    m_buffer, v_buffer = state.m, state.v
    ref_p, ref_m, ref_v = p.copy(), np.zeros_like(p), np.zeros_like(p)
    for step in range(1, 6):
        g = rng.standard_normal(p.size) * 10.0 ** rng.integers(-8, 3, size=p.size)
        g[:3] = (0.0, -0.0, 1e-300)
        out = adam_step(p, g, state, 1e-3)
        ref_p, ref_m, ref_v = allocating_adam_step(ref_p, g, ref_m, ref_v, step, 1e-3)
        assert out is p and state.m is m_buffer and state.v is v_buffer
        assert p.tobytes() == ref_p.tobytes()
        assert state.m.tobytes() == ref_m.tobytes() and state.v.tobytes() == ref_v.tobytes()
    assert state.step == 5


def test_adam_trajectories_bitwise_identical():
    def run():
        rng = np.random.default_rng(2)
        p = rng.standard_normal(4)
        state = AdamState.like(p)
        for _ in range(25):
            adam_step(p, rng.standard_normal(4), state, 1e-2)
        return p

    assert np.array_equal(run(), run())
