import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtcate import baselines
from mtcate.baselines import (
    LOGISTIC_GRADIENT_TOLERANCE, LOGISTIC_ITERATIONS, LOGISTIC_LEARNING_RATE, apply_strategy,
    cfrmmd_train, fit_observedness, fit_treatment_classifier, ols_fit, tarnet_train,
)
from mtcate.data import Dataset
from mtcate.errors import DegenerateLabelsError, EmptyDataError, SingularDesignError
from mtcate.harness import METHODS, MethodSpec, fit_method
from mtcate.mtrnet import MTRNetConfig, train as mtrnet_train, _rep_forward
from mtcate.nn import AdamState, adam_step, expit, mmd2_rbf


def masked_dataset(n=120, d=3, seed=0, miss_rate=0.3, separable_r=False):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    t = (rng.random(n) < 0.5).astype(float)
    if separable_r:
        r = (x[:, 0] > 0).astype(np.int64)
    else:
        r = (rng.random(n) > miss_rate).astype(np.int64)
    y = x @ np.arange(1.0, d + 1.0) + 2.0 * t
    t_pub = t.copy()
    t_pub[r == 0] = np.nan
    return Dataset(x=x, t=t_pub, y=y, t_true=t)


def small_config(**kwargs):
    base = dict(rep_layer_size=8, hyp_layer_size=8, iterations=8, batch_size=32,
                learning_rate=1e-3, dropout_rate=0.0, l2_lambda=1e-4, seed=0)
    base.update(kwargs)
    return MTRNetConfig(**base)


# ---------------------------------------------------------------------------
# Strategies


def test_delete_keeps_observed_rows_with_unit_weights():
    data = masked_dataset(seed=1)
    complete, weights = apply_strategy(data, "delete")
    assert complete.n == data.n_observed()
    assert np.array_equal(weights, np.ones(complete.n))
    assert np.all(complete.r == 1)
    assert not np.any(np.isnan(complete.t))


def test_reweight_constant_propensity_gives_weight_two():
    # constant covariates and balanced observedness pin the classifier at 0.5
    n = 40
    r = (np.arange(n) % 2 == 0).astype(np.int64)
    t = np.where(r == 1, 1.0, np.nan)
    t[0] = 0.0  # keep both arms among observed rows
    data = Dataset(x=np.zeros((n, 2)), t=t, y=np.zeros(n))
    complete, weights = apply_strategy(data, "reweight")
    assert np.allclose(weights, 2.0)
    assert complete.n == n // 2


def test_impute_thresholds_predicted_probability():
    # strongly separable p(T=1|x): x>0 rows are treated
    rng = np.random.default_rng(3)
    n = 200
    x = rng.standard_normal((n, 1)) * 2.0
    t = (x[:, 0] > 0).astype(float)
    r = np.ones(n, dtype=np.int64)
    r[:20] = 0
    t_pub = t.copy()
    t_pub[r == 0] = np.nan
    data = Dataset(x=x, t=t_pub, y=np.zeros(n))

    clf = fit_treatment_classifier(data)
    complete, weights = apply_strategy(data, "impute")
    assert complete.n == n
    assert np.array_equal(weights, np.ones(n))
    missing = np.flatnonzero(r == 0)
    probs = clf.predict_proba(x[missing])
    assert np.array_equal(complete.t[missing], (probs >= 0.5).astype(float))
    # sanity: the classifier really is confident on far-out rows
    far = missing[np.abs(x[missing, 0]) > 1.0]
    assert np.all(complete.t[far] == t[far])


def test_impute_tie_at_half_goes_to_treated():
    # constant covariates and balanced observed arms leave the classifier
    # at exactly 0.5, so the fixed tie-break fills t = 1
    n = 20
    r = np.ones(n, dtype=np.int64)
    r[-4:] = 0
    t = np.where(r == 1, np.resize([1.0, 0.0], n), np.nan)
    data = Dataset(x=np.zeros((n, 2)), t=t, y=np.zeros(n))
    complete, _ = apply_strategy(data, "impute")
    assert np.all(complete.t[-4:] == 1.0)


def test_reweight_weights_respect_clamp():
    data = masked_dataset(seed=4, separable_r=True)
    _, weights = apply_strategy(data, "reweight")
    assert np.all(weights >= 1.0 / 0.99 - 1e-12)
    assert np.all(weights <= 1.0 / 0.01 + 1e-12)


def test_apply_strategy_rejects_unknown_and_empty():
    data = masked_dataset(seed=5)
    with pytest.raises(ValueError):
        apply_strategy(data, "drop")
    empty = Dataset(x=data.x, t=np.full(data.n, np.nan), y=data.y)
    with pytest.raises(EmptyDataError):
        apply_strategy(empty, "delete")


# ---------------------------------------------------------------------------
# Observedness / treatment classifiers


def test_observedness_uninformative_covariates():
    rng = np.random.default_rng(6)
    n = 600
    data = Dataset(
        x=rng.standard_normal((n, 3)),
        t=np.full(n, np.nan), y=np.zeros(n),
    )
    r = (rng.random(n) < 0.7).astype(np.int64)
    t = np.where(r == 1, 1.0, np.nan)
    t[np.flatnonzero(r == 1)[::2]] = 0.0
    data = Dataset(x=data.x, t=t, y=data.y)
    model = fit_observedness(data)
    preds = model.predict_proba(data.x)
    assert np.all(np.abs(preds - r.mean()) < 0.1)


def auc(scores, labels):
    order = np.argsort(scores)
    ranks = np.empty(len(scores))
    ranks[order] = np.arange(1, len(scores) + 1)
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    return (ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def test_observedness_separable_data():
    data = masked_dataset(n=400, seed=7, separable_r=True)
    model = fit_observedness(data)
    preds = model.predict_proba(data.x)
    assert auc(preds, data.r) > 0.95
    assert preds.min() >= 0.01 and preds.max() <= 0.99


def test_observedness_single_class_error():
    data = masked_dataset(seed=8)
    full = Dataset(x=data.x, t=np.where(np.isnan(data.t), 1.0, data.t), y=data.y)
    with pytest.raises(DegenerateLabelsError):
        fit_observedness(full)


def standardized(x):
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale < 1e-12] = 1.0
    return (x - mean) / scale


def separate_adam_logistic(x, labels, tolerance=LOGISTIC_GRADIENT_TOLERANCE):
    """Reference logistic fit: weights and bias stepped by two Adam states,
    stopping once every gradient entry is below `tolerance` (0: never)."""
    z = standardized(x)
    n, d = z.shape
    w, b = np.zeros(d), np.zeros(1)
    state_w, state_b = AdamState.like(w), AdamState.like(b)
    for _ in range(LOGISTIC_ITERATIONS):
        resid = (expit(z @ w + b[0]) - labels) / n
        grad_w, grad_b = z.T @ resid, np.array([resid.sum()])
        if max(np.abs(grad_w).max(), abs(grad_b[0])) < tolerance:
            break
        adam_step(w, grad_w, state_w, LOGISTIC_LEARNING_RATE)
        adam_step(b, grad_b, state_b, LOGISTIC_LEARNING_RATE)
    return w, float(b[0])


def counting_adam_steps(monkeypatch):
    """Count the Adam steps the logistic fits take."""
    steps = []

    def counted(*args, **kwargs):
        steps.append(1)
        return adam_step(*args, **kwargs)

    monkeypatch.setattr(baselines, "adam_step", counted)
    return steps


@pytest.mark.parametrize("fit", [fit_treatment_classifier, fit_observedness])
def test_logistic_fit_matches_separate_adam_states_bitwise(fit):
    data = masked_dataset(n=300, d=4, seed=11)
    obs = data.r == 1
    if fit is fit_treatment_classifier:  # the imputation classifier
        x, labels = data.x[obs], data.t[obs]
    else:  # the reweighting classifier
        x, labels = data.x, data.r.astype(np.float64)
    weights, bias = separate_adam_logistic(x, labels)
    model = fit(data)
    assert model.weights.tobytes() == weights.tobytes()
    assert np.float64(model.bias).tobytes() == np.float64(bias).tobytes()
    assert model.weights.flags.owndata  # not a view into the training buffer


def test_logistic_fit_stops_at_a_vanishing_gradient(monkeypatch):
    steps = counting_adam_steps(monkeypatch)
    data = masked_dataset(n=2000, d=4, seed=12)  # r independent of x: not separable
    model = fit_observedness(data)
    assert 0 < len(steps) < LOGISTIC_ITERATIONS
    # the mean log-likelihood gradient at the fit, in standardized coordinates
    z = standardized(data.x)
    resid = (expit(z @ model.weights + model.bias) - data.r) / data.n
    grad = np.append(z.T @ resid, resid.sum())
    assert np.abs(grad).max() < LOGISTIC_GRADIENT_TOLERANCE


def test_logistic_fit_on_separable_labels_takes_every_step(monkeypatch):
    steps = counting_adam_steps(monkeypatch)
    data = masked_dataset(n=400, d=3, seed=7, separable_r=True)
    model = fit_observedness(data)
    assert len(steps) == LOGISTIC_ITERATIONS
    assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
    weights, bias = separate_adam_logistic(data.x, data.r.astype(np.float64), tolerance=0.0)
    assert model.weights.tobytes() == weights.tobytes()
    assert np.float64(model.bias).tobytes() == np.float64(bias).tobytes()


def test_classifier_without_rows_is_an_empty_data_error():
    data = masked_dataset(seed=5)
    unobserved = Dataset(x=data.x, t=np.full(data.n, np.nan), y=data.y)
    with pytest.raises(EmptyDataError, match="no rows"):
        fit_treatment_classifier(unobserved)


@pytest.mark.parametrize("width", [1, 3])
def test_classifier_checks_its_input_width(width):
    data = masked_dataset(n=300, d=4, seed=11)
    model = fit_observedness(data)
    with pytest.raises(ValueError, match=r"expected \(n, 4\) input"):
        model.predict_proba(data.x[:3, :width])


# ---------------------------------------------------------------------------
# OLS


def linear_complete(n=300, d=4, seed=0, beta0=None, beta1=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    t = (rng.random(n) < 0.5).astype(float)
    beta0 = np.arange(1.0, d + 1.0) if beta0 is None else beta0
    beta1 = beta0[::-1].copy() if beta1 is None else beta1
    y = np.where(t == 1, x @ beta1 + 1.0, x @ beta0)
    return Dataset(x=x, t=t, y=y), beta0, beta1


def test_ols_exact_linear_recovery():
    data, beta0, beta1 = linear_complete(seed=9)
    model = ols_fit(data)
    x_new = np.random.default_rng(1).standard_normal((50, 4))
    expected = 1.0 + x_new @ (beta1 - beta0)
    assert np.allclose(model.predict_cate(x_new), expected, atol=1e-8)


def test_ols_identical_arms_zero_cate():
    data, beta0, _ = linear_complete(seed=10, beta1=np.arange(1.0, 5.0))
    data = Dataset(x=data.x, t=data.t, y=data.x @ beta0)  # same surface, no offset
    model = ols_fit(data)
    x_new = np.random.default_rng(2).standard_normal((20, 4))
    assert np.allclose(model.predict_cate(x_new), 0.0, atol=1e-7)


def test_ols_weight_scale_invariance():
    data, _, _ = linear_complete(seed=11)
    w = np.random.default_rng(3).uniform(0.5, 2.0, data.n)
    m1 = ols_fit(data, w)
    m2 = ols_fit(data, 2.0 * w)
    assert np.array_equal(m1.beta0, m2.beta0)
    assert np.array_equal(m1.beta1, m2.beta1)


def test_ols_rank_deficient_arm():
    data, _, _ = linear_complete(n=8, d=6, seed=12)
    with pytest.raises(SingularDesignError):
        ols_fit(data)


def row_weights_with(n, value):
    w = np.ones(n)
    w[5] = value
    return w


BAD_ROW_WEIGHTS = [
    pytest.param(lambda n: row_weights_with(n, np.nan), "must be finite", id="nan"),
    pytest.param(lambda n: row_weights_with(n, np.inf), "must be finite", id="inf"),
    pytest.param(lambda n: row_weights_with(n, -0.5), "must be non-negative", id="negative"),
    pytest.param(lambda n: np.ones(n - 1), "must have one entry per row", id="short"),
]
WEIGHTED_FITS = {
    "ols": lambda data, w: ols_fit(data, w),
    "tarnet": lambda data, w: tarnet_train(data, w, small_config()),
    "cfrmmd": lambda data, w: cfrmmd_train(data, w, small_config(alpha=1.0)),
}


@pytest.mark.parametrize("fit", WEIGHTED_FITS.values(), ids=WEIGHTED_FITS.keys())
@pytest.mark.parametrize("weights, cause", BAD_ROW_WEIGHTS)
def test_bad_row_weights_fail_before_fitting(fit, weights, cause):
    data, _, _ = linear_complete(n=80, seed=14)
    with pytest.raises(ValueError, match=f"row weights {cause}"):
        fit(data, weights(data.n))


def test_ols_requires_complete_treatments():
    data = masked_dataset(seed=13)
    with pytest.raises(ValueError):
        ols_fit(data)


# ---------------------------------------------------------------------------
# Neural baselines


def test_tarnet_is_bitwise_mtrnet_with_adversaries_off():
    data, _, _ = linear_complete(n=80, seed=14)
    cfg = small_config(seed=21, dropout_rate=0.2, alpha=3.0, beta=5.0)
    tar, tar_hist = tarnet_train(data, np.ones(data.n), cfg)
    ref, ref_hist = mtrnet_train(data, MTRNetConfig(**{**cfg.to_dict(), "alpha": 0.0, "beta": 0.0}))
    assert [h["outcome"] for h in tar_hist] == [h["outcome"] for h in ref_hist]
    for name in ref.parameters():
        assert np.array_equal(tar.parameters()[name], ref.parameters()[name])


def test_cfrmmd_zero_penalty_matches_tarnet():
    data, _, _ = linear_complete(n=80, seed=15)
    cfg = small_config(seed=22, alpha=0.0)
    cfr, _ = cfrmmd_train(data, np.ones(data.n), cfg)
    tar, _ = tarnet_train(data, np.ones(data.n), cfg)
    for name in tar.parameters():
        assert np.array_equal(cfr.parameters()[name], tar.parameters()[name])


@pytest.mark.parametrize("method", [k for k, m in METHODS.items() if m.estimator != "ols"])
def test_fitted_model_has_discriminators_only_for_mtrnet(method):
    data = masked_dataset(n=100, seed=17)
    cfg = small_config(seed=23, dropout_rate=0.2, alpha=2.0, beta=3.0)
    model = fit_method(method, cfg, data)
    adversarial = {"k_t", "k_r"} if method == "mtrnet" else set()
    assert {name.split(".")[0] for name in model.parameters()} == {"phi", "h0", "h1"} | adversarial
    assert {head for head in ("k_t", "k_r") if getattr(model, head) is not None} == adversarial
    # one Adam state over every parameter, stepped once per iteration
    assert model.adam.step == cfg.iterations
    assert model.adam.m.size == model.flat.size == sum(
        p.size for p in model.parameters().values())


def shifted_arms_dataset(n, seed):
    rng = np.random.default_rng(seed)
    t = (rng.random(n) < 0.5).astype(float)
    x = rng.standard_normal((n, 3)) + 1.5 * t[:, None]  # strong arm-wise covariate shift
    y = x @ np.array([1.0, -0.5, 0.25]) + t
    return Dataset(x=x, t=t, y=y)


def mmd2(a, b, bandwidth):
    """The statistic alone (the gradient that comes with it is of weight 1)."""
    return mmd2_rbf(a, b, bandwidth, 1.0)[0]


def arm_mmd(model, data):
    rep = _rep_forward(model, data.x)
    return float(mmd2(rep[data.t == 0], rep[data.t == 1], 1.0))


def test_cfrmmd_penalty_reduces_representation_imbalance():
    gaps = []
    for seed in range(5):
        data = shifted_arms_dataset(200, seed=30 + seed)
        cfg_off = small_config(seed=seed, iterations=60, alpha=0.0)
        cfg_on = small_config(seed=seed, iterations=60, alpha=10.0)
        off, _ = cfrmmd_train(data, np.ones(data.n), cfg_off)
        on, history = cfrmmd_train(data, np.ones(data.n), cfg_on)
        gaps.append(arm_mmd(off, data) - arm_mmd(on, data))
    assert np.median(gaps) >= 0.0
    # the penalty is the only term beyond the outcome loss and L2
    assert set(history[0]) == {"iteration", "outcome", "l2", "mmd2", "total"}


def test_cfrmmd_deterministic_per_seed():
    data = shifted_arms_dataset(100, seed=40)
    cfg = small_config(seed=5, iterations=6, alpha=2.0)
    m1, h1 = cfrmmd_train(data, np.ones(data.n), cfg)
    m2, h2 = cfrmmd_train(data, np.ones(data.n), cfg)
    assert h1 == h2


# ---------------------------------------------------------------------------
# MMD


def test_mmd_identical_samples_is_zero():
    a = np.random.default_rng(0).standard_normal((30, 2))
    assert mmd2(a, a, 1.0) <= 1e-12
    assert mmd2(np.zeros((1, 1)), np.zeros((1, 1)), 1.0) <= 1e-12


def test_mmd_separated_samples():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((200, 1))
    b = rng.standard_normal((200, 1)) + 10.0
    assert mmd2(a, b, 1.0) > 0.5


def test_mmd_symmetry():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((50, 3))
    b = rng.standard_normal((60, 3)) + 0.3
    assert abs(mmd2(a, b, 0.7) - mmd2(b, a, 0.7)) <= 1e-12


@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 3),
       st.floats(0.2, 3.0), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_mmd_nonnegative(na, nb, d, bandwidth, seed):
    rng = np.random.default_rng(seed)
    value = mmd2(rng.standard_normal((na, d)), rng.standard_normal((nb, d)), bandwidth)
    assert value >= -1e-12


# ---------------------------------------------------------------------------
# Specs


def test_baseline_spec_names_and_json():
    spec = MethodSpec.from_dict({"name": "CFRMMD_rew", "grid": [{"alpha": 2.0}]})
    assert spec.name == "cfrmmd_rew" and spec.label == "CFRMMD_rew"
    assert MethodSpec("ols_del").label == "OLS_del"
    clone = MethodSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone == spec


def test_baseline_spec_rejects_unknown():
    with pytest.raises(ValueError):
        MethodSpec("forest_del")


def test_fit_method_end_to_end():
    data = masked_dataset(n=150, seed=16)
    fitted = fit_method("ols_rew", small_config(), data)
    assert np.isfinite(fitted.predict_cate(data.x)).all()
    fitted = fit_method("tarnet_del", small_config(), data)
    assert np.isfinite(fitted.predict_cate(data.x)).all()
