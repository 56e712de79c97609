"""Baseline CATE estimators (per-arm least squares, TARNet, CFR-MMD) and the
three missing-treatment strategies they are crossed with: delete rows,
impute labels, or reweight observed rows by inverse observedness
probability. `harness.fit_method` pairs a strategy with an estimator.

Imputation and reweighting each fit a logistic classifier, p(T=1|x,R=1) or
p(R=1|x), on standardized covariates, laid out feature-major over a row of
ones for the bias, by full-batch Adam at learning rate 0.1. The fit stops
once the largest entry of the mean log-likelihood gradient is below 1e-6,
and after at most 400 steps; predictions are clamped to [0.01, 0.99]."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import mtrnet
from .data import Dataset
from .errors import DegenerateLabelsError, EmptyDataError, SingularDesignError
from .nn import AdamState, adam_step, expit

STRATEGIES = ("delete", "impute", "reweight")


# ---------------------------------------------------------------------------
# Logistic classifier (shared by imputation and reweighting)

LOGISTIC_ITERATIONS = 400  # a cap: the fit stops earlier once the gradient vanishes
LOGISTIC_LEARNING_RATE = 0.1
LOGISTIC_GRADIENT_TOLERANCE = 1e-6
PROPENSITY_CLAMP = (0.01, 0.99)


@dataclass
class ObservednessModel:
    """Logistic head on standardized covariates; predictions are clamped so
    inverse-probability weights stay bounded."""

    weights: np.ndarray
    bias: float
    feat_mean: np.ndarray
    feat_scale: np.ndarray

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        z = (mtrnet.check_input(x, self.weights.size) - self.feat_mean) / self.feat_scale
        return np.clip(expit(z @ self.weights + self.bias), *PROPENSITY_CLAMP)


def _fit_logistic(x: np.ndarray, labels: np.ndarray) -> ObservednessModel:
    """Fit a logistic model on standardized covariates by full-batch Adam
    (learning rate 0.1) on the mean log-likelihood, over a feature-major
    (d + 1, n) design whose last row is ones: theta (the weights, then the
    bias) meets it in one product, and a step's two products are n-long dot
    products. The loop stops once the gradient's largest entry is below
    LOGISTIC_GRADIENT_TOLERANCE (1e-6), and after LOGISTIC_ITERATIONS (400)
    steps at most, so labels that never get there (separable ones) take
    every step. The model clamps its predictions to [0.01, 0.99]."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.size == 0:
        raise EmptyDataError("no rows to fit the classifier on")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ValueError("labels must be 0/1")
    if labels.min() == labels.max():
        raise DegenerateLabelsError("labels contain a single class")
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale < 1e-12] = 1.0
    # one Adam call steps theta; a step fills preallocated n-sized buffers
    n, d = x.shape
    design = np.empty((d + 1, n))
    np.divide(np.subtract(x.T, mean[:, None], out=design[:d]), scale[:, None], out=design[:d])
    design[d] = 1.0
    theta, grad = np.zeros(d + 1), np.empty(d + 1)
    state = AdamState.like(theta)
    logits, resid = np.empty(n), np.empty(n)
    work = (resid, np.empty(n), np.empty(n, dtype=bool))
    for _ in range(LOGISTIC_ITERATIONS):
        np.matmul(theta, design, out=logits)
        expit(logits, work)  # into resid
        resid -= labels
        np.matmul(design, resid, out=grad)
        grad /= n
        if np.abs(grad).max() < LOGISTIC_GRADIENT_TOLERANCE:
            break
        adam_step(theta, grad, state, LOGISTIC_LEARNING_RATE)
    return ObservednessModel(theta[:d].copy(), float(theta[d]), mean, scale)


def fit_observedness(data: Dataset) -> ObservednessModel:
    """p(R=1 | x) classifier; requires both observed and missing rows."""
    return _fit_logistic(data.x, data.r.astype(np.float64))


def fit_treatment_classifier(data: Dataset) -> ObservednessModel:
    """p(T=1 | x, R=1) classifier fit on the observed-treatment rows."""
    obs = data.r == 1
    return _fit_logistic(data.x[obs], data.t[obs])


# ---------------------------------------------------------------------------
# Missing-data strategies


def _as_complete(data: Dataset, t: np.ndarray) -> Dataset:
    # `t` has no NaN, so the output is fully observed (its `r` is all 1);
    # the hidden assignment is dropped because imputation may disagree with it.
    return replace(data, t=t, t_true=None)


def apply_strategy(data: Dataset, strategy: str):
    """Turn a missing-treatment dataset into (complete dataset, row weights).

    delete: keep r=1 rows, unit weights. impute: fill missing t by
    thresholding p(T=1|x) at 0.5 (ties treat), unit weights. reweight: keep
    r=1 rows weighted by 1 / clamp(p(R=1|x)). All three are deterministic,
    and each output's t has no NaN, so its derived r is 1 on every row."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    if data.n_observed() == 0:
        raise EmptyDataError("no observed-treatment rows")

    if strategy == "delete":
        kept = np.flatnonzero(data.r == 1)
        sub = data.subset(kept)
        return _as_complete(sub, sub.t), np.ones(kept.size)

    if strategy == "impute":
        clf = fit_treatment_classifier(data)
        t = data.t.copy()
        missing = data.r == 0
        if np.any(missing):
            t[missing] = (clf.predict_proba(data.x[missing]) >= 0.5).astype(np.float64)
        return _as_complete(data, t), np.ones(data.n)

    clf = fit_observedness(data)
    kept = np.flatnonzero(data.r == 1)
    sub = data.subset(kept)
    weights = 1.0 / clf.predict_proba(sub.x)
    return _as_complete(sub, sub.t), weights


# ---------------------------------------------------------------------------
# Per-arm weighted least squares

OLS_JITTER = 1e-8


@dataclass
class OlsModel:
    beta0: np.ndarray  # intercept first
    beta1: np.ndarray

    def predict_cate(self, x: np.ndarray) -> np.ndarray:
        x = mtrnet.check_input(x, self.beta0.size - 1)
        return (self.beta1[0] + x @ self.beta1[1:]) - (self.beta0[0] + x @ self.beta0[1:])


def ols_fit(data: Dataset, weights=None) -> OlsModel:
    """Weighted least squares per treatment arm with a small ridge jitter.

    Weights are normalized to mean one so scaling them has no effect."""
    if np.any(np.isnan(data.t)):
        raise ValueError("ols_fit needs complete treatments (apply a strategy first)")
    weights = np.ones(data.n) if weights is None else mtrnet.check_row_weights(weights, data.n)
    betas = []
    for arm in (0.0, 1.0):
        rows = data.t == arm
        n_eff = int(np.count_nonzero(weights[rows] > 0))
        if n_eff < data.d + 1:
            raise SingularDesignError(
                f"arm {int(arm)} has {n_eff} effective rows for {data.d + 1} coefficients"
            )
        xa = np.hstack([np.ones((int(rows.sum()), 1)), data.x[rows]])
        wa = weights[rows]
        wa = wa / wa.mean()
        a = xa.T @ (xa * wa[:, None]) + OLS_JITTER * np.eye(data.d + 1)
        b = xa.T @ (wa * data.y[rows])
        try:
            beta = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise SingularDesignError(f"arm {int(arm)}: {exc}")
        if not np.all(np.isfinite(beta)):
            raise SingularDesignError(f"arm {int(arm)}: non-finite solution")
        betas.append(beta)
    return OlsModel(betas[0], betas[1])


# ---------------------------------------------------------------------------
# Neural baselines


def tarnet_train(data: Dataset, weights, config: mtrnet.MTRNetConfig):
    """The adversary-free cut of the network: identical engine with
    alpha = beta = 0, strategy weights multiplying the per-row outcome loss."""
    cfg = replace(config, alpha=0.0, beta=0.0)
    return mtrnet.train(data, cfg, row_weights=weights)


def cfrmmd_train(data: Dataset, weights, config: mtrnet.MTRNetConfig):
    """TARNet plus a per-batch kernel two-sample penalty between arm-wise
    representations, jointly minimized; config.alpha is the penalty weight."""
    cfg = replace(config, alpha=0.0, beta=0.0)
    return mtrnet.train(data, cfg, row_weights=weights, mmd_weight=config.alpha)
