import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtcate.cli import load_fitted, model_payload
from mtcate.data import Dataset
from mtcate.errors import DegenerateArmError, TrainingDivergedError
from mtcate.mtrnet import (
    MTRNetConfig, TrainingBatch, compute_weights, init_model, predict_cate,
    predict_outcomes, train, training_step,
    _median_bandwidth, _rep_forward,
)
from mtcate import mtrnet
from mtcate.nn import AdamState, adam_step, binary_cross_entropy, dense_backward, dense_forward


def small_config(**kwargs):
    base = dict(
        rep_layer_size=8, hyp_layer_size=8, iterations=10, batch_size=32,
        learning_rate=1e-3, dropout_rate=0.0, l2_lambda=1e-4,
        alpha=1.0, beta=1.0, seed=0,
    )
    base.update(kwargs)
    return MTRNetConfig(**base)


def toy_data(n=200, d=4, seed=0, missing=0.3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    t = (rng.random(n) < 0.5).astype(float)
    r = (rng.random(n) > missing).astype(np.int64)
    y = x[:, 0] + t * (1.0 + x[:, 1]) + 0.1 * rng.standard_normal(n)
    t_public = t.copy()
    t_public[r == 0] = np.nan
    return Dataset(x=x, t=t_public, y=y, t_true=t)


def dataset_batch(data):
    return TrainingBatch(data.x, data.t, data.y)


def step(model, batch, **kwargs):
    """One training step; small_config has dropout 0, so the generator draws nothing."""
    return training_step(model, batch, rng=np.random.default_rng(0), **kwargs)


def shape(layer):
    return layer.weights.shape


# ---------------------------------------------------------------------------
# Architecture


def test_init_model_architecture_shapes():
    model = init_model(MTRNetConfig(rep_layer_size=50, hyp_layer_size=50, seed=1), 25)
    assert [shape(l) for l in model.phi] == [(50, 25), (50, 50), (50, 50)]
    for head in (model.h0, model.h1):
        assert [shape(l) for l in head] == [(50, 50), (50, 50), (50, 50), (1, 50)]
    assert shape(model.k_t) == (1, 50)
    assert shape(model.k_r) == (1, 50)


def test_init_model_deterministic_per_seed():
    a = init_model(small_config(seed=7), 5)
    b = init_model(small_config(seed=7), 5)
    for name in a.parameters():
        assert np.array_equal(a.parameters()[name], b.parameters()[name])


def test_init_model_one_unit_representation():
    model = init_model(small_config(rep_layer_size=1), 3)
    assert shape(model.phi[-1]) == (1, 1)
    assert np.isfinite(predict_cate(model, np.zeros((2, 3)))).all()


def test_init_model_rejects_bad_input_dim():
    with pytest.raises(ValueError):
        init_model(small_config(), 0)


# ---------------------------------------------------------------------------
# Balancing weights


def test_compute_weights_balanced():
    w, u, n_o = compute_weights(np.array([1.0, 0.0, 1.0, 0.0]))
    assert u == 0.5 and n_o == 4
    assert np.allclose(w, np.ones(4))


def test_compute_weights_unbalanced():
    w, u, n_o = compute_weights(np.array([1.0, 1.0, 1.0, 0.0]))
    assert u == 0.75 and n_o == 4
    assert np.allclose(w, [1 / 1.5, 1 / 1.5, 1 / 1.5, 2.0])


def test_compute_weights_with_missing_rows():
    t = np.array([1.0, 0.0, 1.0, np.nan])
    w, u, n_o = compute_weights(t)
    assert n_o == 3 and u == pytest.approx(2.0 / 3.0)
    assert np.allclose(w, [0.75, 1.5, 0.75])


def test_compute_weights_degenerate_arm():
    with pytest.raises(DegenerateArmError):
        compute_weights(np.array([1.0, 1.0]))
    with pytest.raises(DegenerateArmError):
        compute_weights(np.array([np.nan, np.nan]))


@given(st.integers(2, 60), st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_compute_weights_sum_to_observed_count(n, seed):
    rng = np.random.default_rng(seed)
    t = rng.integers(0, 2, n).astype(float)
    r = rng.integers(0, 2, n)
    t[r == 0] = np.nan
    t_obs = t[r == 1]
    if t_obs.size == 0 or t_obs.min() == t_obs.max():
        return
    w, _, n_o = compute_weights(t)
    assert abs(w.sum() - n_o) <= 1e-9


# ---------------------------------------------------------------------------
# Losses (a training step records each term before updating; with dropout 0
# that is the loss of the model as passed in)


def set_constant_head(head, value):
    for layer in head:
        layer.weights[:] = 0.0
        layer.bias[:] = 0.0
    head[-1].bias[:] = value


def test_step_record_zero_when_heads_match_targets():
    model = init_model(small_config(), 3)
    set_constant_head(model.h0, 2.5)
    set_constant_head(model.h1, 2.5)
    batch = TrainingBatch(
        x=np.random.default_rng(0).standard_normal((6, 3)),
        t=np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0]),
        y=np.full(6, 2.5),
    )
    assert step(model, batch)["outcome"] == 0.0


def test_step_record_uninformative_observedness_head():
    model = init_model(small_config(), 3)
    model.k_r.weights[:] = 0.0
    model.k_r.bias[:] = 0.0
    batch = TrainingBatch(
        x=np.random.default_rng(0).standard_normal((4, 3)),
        t=np.array([1.0, 0.0, np.nan, np.nan]),
        y=np.zeros(4),
    )
    assert step(model, batch)["missingness_bce"] == pytest.approx(math.log(2.0))


def test_step_record_single_arm_batch_rejected():
    model = init_model(small_config(), 2)
    batch = TrainingBatch(
        x=np.zeros((3, 2)), t=np.array([1.0, 1.0, np.nan]), y=np.zeros(3),
    )
    with pytest.raises(DegenerateArmError):
        step(model, batch)


# ---------------------------------------------------------------------------
# Training dynamics


def test_stale_gradient_is_not_applied(monkeypatch):
    data = toy_data(n=64, seed=2)
    cfg = small_config(alpha=0.0, beta=0.0)
    model, clean = init_model(cfg, data.d), init_model(cfg, data.d)
    model.grad[:] = np.nan  # whatever an earlier step left must be overwritten
    applied = []

    def checked_adam_step(param, grad, state, lr):
        applied.append(np.isfinite(grad).all())
        return adam_step(param, grad, state, lr)

    monkeypatch.setattr(mtrnet, "adam_step", checked_adam_step)
    record = step(model, dataset_batch(data))
    assert applied == [True]
    assert record == step(clean, dataset_batch(data))
    assert model.flat.tobytes() == clean.flat.tobytes()
    assert model.adam.step == 1
    assert set(record) == {"iteration", "outcome", "l2", "total"}


def test_one_step_descends_outcome_loss():
    wins = 0
    for trial in range(20):
        data = toy_data(n=96, seed=200 + trial)
        batch = dataset_batch(data)
        cfg = small_config(seed=trial, learning_rate=1e-4)
        model = init_model(cfg, data.d)
        before = step(model, batch)["outcome"]
        after = step(model, batch)["outcome"]
        wins += after < before
    assert wins >= 18


def test_discriminator_descends_with_frozen_representation():
    data = toy_data(n=128, seed=5)
    model = init_model(small_config(seed=3), data.d)
    obs = np.flatnonzero(data.r == 1)
    t_obs = data.t[obs][:, None]
    state_w = AdamState.like(model.k_t.weights)
    state_b = AdamState.like(model.k_t.bias)
    losses = []
    for _ in range(11):
        rep_obs = _rep_forward(model, data.x)[obs]
        loss, logit_grad = binary_cross_entropy(dense_forward(model.k_t, rep_obs), t_obs, 1.0)
        losses.append(float(loss))
        dense_backward(model.k_t, rep_obs, logit_grad)
        adam_step(model.k_t.weights, model.k_t.weights_grad, state_w, 1e-3)
        adam_step(model.k_t.bias, model.k_t.bias_grad, state_b, 1e-3)
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_gradient_reversal_pushes_representation_to_increase_adversary_loss():
    ascents = 0
    for trial in range(50):
        data = toy_data(n=64, seed=400 + trial, missing=0.5)
        batch = dataset_batch(data)
        cfg = small_config(seed=trial, alpha=0.0, beta=50.0, learning_rate=1e-4)
        model = init_model(cfg, data.d)
        k_r_before = (model.k_r.weights.copy(), model.k_r.bias.copy())
        before = step(model, batch)["missingness_bce"]
        model.k_r.weights[:] = k_r_before[0]
        model.k_r.bias[:] = k_r_before[1]
        after = step(model, batch)["missingness_bce"]
        ascents += after >= before
    assert ascents >= 40


def test_training_step_detects_divergence():
    data = toy_data(n=32, seed=0)
    model = init_model(small_config(), data.d)
    model.h1[-1].weights[:] = 1e200
    model.h1[-1].bias[:] = 1e200
    with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError) as err:
        step(model, dataset_batch(data), iteration=17)
    assert err.value.iteration == 17


# ---------------------------------------------------------------------------
# train()


def test_train_zero_iterations_returns_initial_model():
    data = toy_data(n=50, seed=2)
    cfg = small_config(iterations=0)
    model, history = train(data, cfg)
    fresh = init_model(cfg, data.d)
    assert history == []
    for name in model.parameters():
        assert np.array_equal(model.parameters()[name], fresh.parameters()[name])


def test_train_history_length_and_fields():
    data = toy_data(n=80, seed=3)
    _, history = train(data, small_config(iterations=7))
    assert len(history) == 7
    assert {"outcome", "l2", "treatment_bce", "missingness_bce", "total"} <= set(history[0])


def test_median_bandwidth_matches_difference_tensor_form():
    data = toy_data(n=60, d=5, seed=3)
    model = init_model(small_config(rep_layer_size=16), data.d)
    batch = dataset_batch(data)
    rep = _rep_forward(model, batch.x)[batch.r == 1]
    diff = rep[:, None, :] - rep[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))[np.triu_indices(rep.shape[0], k=1)]
    assert _median_bandwidth(model, batch) == pytest.approx(np.median(dist), rel=1e-12)


def test_train_reproducible_per_seed():
    data = toy_data(n=80, seed=4)
    cfg = small_config(iterations=6, dropout_rate=0.2)
    m1, h1 = train(data, cfg)
    m2, h2 = train(data, cfg)
    assert h1 == h2
    for name in m1.parameters():
        assert np.array_equal(m1.parameters()[name], m2.parameters()[name])


def test_train_requires_both_arms():
    data = toy_data(n=40, seed=5)
    t = np.where(np.isnan(data.t), np.nan, 1.0)
    one_arm = Dataset(x=data.x, t=t, y=data.y)
    with pytest.raises(DegenerateArmError):
        train(one_arm, small_config())


# ---------------------------------------------------------------------------
# Prediction


def test_predict_cate_zero_for_identical_heads():
    model = init_model(small_config(seed=11), 4)
    for l0, l1 in zip(model.h0, model.h1):
        l1.weights[...] = l0.weights
        l1.bias[...] = l0.bias
    x = np.random.default_rng(1).standard_normal((10, 4))
    assert np.array_equal(predict_cate(model, x), np.zeros(10))


def test_predict_cate_is_definitionally_head_difference():
    model = init_model(small_config(seed=12), 3)
    x = np.random.default_rng(2).standard_normal((7, 3))
    f0, f1 = predict_outcomes(model, x)
    assert np.array_equal(predict_cate(model, x), f1 - f0)


def test_predict_repeatable():
    model = init_model(small_config(seed=13, dropout_rate=0.4), 3)
    x = np.random.default_rng(3).standard_normal((5, 3))
    assert np.array_equal(predict_cate(model, x), predict_cate(model, x))


def test_predict_zero_weight_heads_return_bias():
    model = init_model(small_config(seed=14), 3)
    set_constant_head(model.h0, -1.5)
    set_constant_head(model.h1, 2.0)
    x = np.random.default_rng(4).standard_normal((6, 3))
    f0, f1 = predict_outcomes(model, x)
    assert np.allclose(f0, -1.5)
    assert np.allclose(f1, 2.0)
    assert np.allclose(predict_cate(model, x), 3.5)


def test_predict_hand_built_one_unit_model():
    cfg = small_config(rep_layer_size=1, hyp_layer_size=1, num_rep_layers=1, num_hyp_layers=1)
    model = init_model(cfg, 1)
    model.phi[0].weights[:] = 2.0
    model.phi[0].bias[:] = 0.5
    model.h0[0].weights[:] = 1.0
    model.h0[0].bias[:] = 0.0
    model.h0[1].weights[:] = 3.0
    model.h0[1].bias[:] = 1.0
    model.h1[0].weights[:] = -1.0
    model.h1[0].bias[:] = 0.5
    model.h1[1].weights[:] = 2.0
    model.h1[1].bias[:] = 0.0

    def elu1(v):
        return v if v > 0 else math.exp(v) - 1.0

    x = np.array([[1.0], [-3.0]])
    pred0, pred1 = predict_outcomes(model, x)
    for i, xv in enumerate([1.0, -3.0]):
        s = math.copysign(1.0, elu1(2.0 * xv + 0.5))  # one-unit rows normalize to +-1
        f0 = 3.0 * elu1(1.0 * s) + 1.0
        f1 = 2.0 * elu1(-1.0 * s + 0.5)
        assert pred0[i] == pytest.approx(f0, rel=1e-12)
        assert pred1[i] == pytest.approx(f1, rel=1e-12)
        assert predict_cate(model, x)[i] == pytest.approx(f1 - f0, rel=1e-12)


def test_predict_dimension_mismatch():
    model = init_model(small_config(), 3)
    with pytest.raises(ValueError):
        predict_cate(model, np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# Serialization


def test_model_json_roundtrip_is_exact():
    data = toy_data(n=60, seed=6)
    model, _ = train(data, small_config(iterations=5, dropout_rate=0.1))
    clone = load_fitted(model_payload("mtrnet", model))
    x = np.random.default_rng(5).standard_normal((8, data.d))
    assert np.array_equal(predict_cate(model, x), predict_cate(clone, x))
    for name in model.parameters():
        assert np.array_equal(model.parameters()[name], clone.parameters()[name])


def test_model_file_with_unweighted_discriminators_still_loads():
    # files written when every network drew both discriminators carry them
    data = toy_data(n=60, seed=6)
    model, _ = train(data, small_config(iterations=3, alpha=0.0, beta=0.0))
    payload = model_payload("mtrnet", model)
    for name in ("k_t.w", "k_t.b", "k_r.w", "k_r.b"):
        payload["shapes"][name] = [1, 8] if name.endswith("w") else [1]
        payload["parameters"][name] = [[0.5] * 8] if name.endswith("w") else [0.0]
    clone = load_fitted(payload)
    assert clone.k_t is None and clone.k_r is None
    assert clone.flat.tobytes() == model.flat.tobytes()


def test_model_dict_version_check():
    data = toy_data(n=40, seed=7)
    model, _ = train(data, small_config(iterations=1))
    payload = model_payload("mtrnet", model)
    payload["format_version"] = 99
    with pytest.raises(ValueError, match="version 99"):
        load_fitted(payload)


def test_config_validation():
    with pytest.raises(ValueError):
        MTRNetConfig(learning_rate=0.0).validate()
    with pytest.raises(ValueError):
        MTRNetConfig(dropout_rate=1.0).validate()
    with pytest.raises(ValueError):
        MTRNetConfig(alpha=-0.1).validate()
    with pytest.raises(ValueError):
        MTRNetConfig(rep_layer_size=0).validate()
