"""Evaluation metrics: PEHE against true effects, PEHE against realized
outcome differences, policy risk on a randomized subset, and the
nearest-neighbor PEHE surrogate used for model selection. Each can be
reported overall and split by the treatment-observedness domain."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DegenerateArmError, MetricUnavailableError, Spec, StratumEmptyError, check_keys

# float64 elements of one (own rows, opposite-arm rows, d) difference block in
# the nearest-neighbour search, so its memory grows linearly with the rows
NN_BLOCK_ELEMENTS = 1 << 20


def pehe_true(tau_hat: np.ndarray, tau: np.ndarray) -> float:
    """Mean squared error against the true CATE (before the square root)."""
    tau_hat = np.asarray(tau_hat, dtype=np.float64)
    if tau is None:
        raise MetricUnavailableError("true CATE not available")
    tau = np.asarray(tau, dtype=np.float64)
    if tau_hat.shape != tau.shape:
        raise ValueError(f"shape mismatch: {tau_hat.shape} vs {tau.shape}")
    diff = tau_hat - tau
    return float(np.mean(diff * diff))


def pehe_observed(tau_hat: np.ndarray, y1: np.ndarray, y0: np.ndarray) -> float:
    """Mean squared error against realized potential-outcome differences."""
    if y1 is None or y0 is None:
        raise MetricUnavailableError("both potential outcomes are required")
    return pehe_true(tau_hat, np.asarray(y1) - np.asarray(y0))


def policy_risk(tau_hat: np.ndarray, y: np.ndarray, t: np.ndarray, e: np.ndarray) -> float:
    """1 - value of the policy "treat iff tau_hat > 0", estimated on the
    randomized subset (e=1). Ties tau_hat == 0 map to "do not treat"."""
    if e is None:
        raise MetricUnavailableError("policy risk needs a randomized-subset flag")
    tau_hat = np.asarray(tau_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    e = np.asarray(e)
    if not np.any(e == 1):
        raise StratumEmptyError("randomized subset")
    rand = e == 1
    pi = tau_hat > 0.0
    p_treat = float(np.mean(pi[rand]))
    value = 0.0
    if p_treat > 0:
        rows = rand & pi & (t == 1.0)
        if not np.any(rows):
            raise StratumEmptyError("randomized treated rows with pi=1")
        value += float(np.mean(y[rows])) * p_treat
    if p_treat < 1:
        rows = rand & ~pi & (t == 0.0)
        if not np.any(rows):
            raise StratumEmptyError("randomized control rows with pi=0")
        value += float(np.mean(y[rows])) * (1.0 - p_treat)
    return 1.0 - value


def nn_surrogate_effects(x: np.ndarray, t: np.ndarray, y: np.ndarray):
    """Per-row effect surrogates (1-2t_i)(y_j(i) - y_i) over observed-t rows,
    where j(i) is the Euclidean nearest neighbor in the opposite arm
    (ties broken by lowest row index). Returns (observed_row_indices, surrogates)."""
    t = np.asarray(t, dtype=np.float64)
    obs = np.flatnonzero(~np.isnan(t))
    xo, to, yo = np.asarray(x)[obs], t[obs], np.asarray(y)[obs]
    idx0 = np.flatnonzero(to == 0.0)
    idx1 = np.flatnonzero(to == 1.0)
    if idx0.size == 0 or idx1.size == 0:
        raise DegenerateArmError("need both arms among observed-treatment rows")
    surrogates = np.empty(obs.size)
    for arm, own, opp in ((1.0, idx1, idx0), (0.0, idx0, idx1)):
        x_opp = xo[opp]
        rows = max(1, NN_BLOCK_ELEMENTS // max(x_opp.size, 1))
        nearest = np.empty(own.size, dtype=np.intp)
        for start in range(0, own.size, rows):
            diff = xo[own[start:start + rows]][:, None, :] - x_opp[None, :, :]
            d2 = (diff * diff).sum(axis=2)
            nearest[start:start + rows] = np.argmin(d2, axis=1)  # lowest index on ties
        j = opp[nearest]
        surrogates[own] = (1.0 - 2.0 * arm) * (yo[j] - yo[own])
    return obs, surrogates


def pehe_nn(tau_hat: np.ndarray, x: np.ndarray, t: np.ndarray, y: np.ndarray) -> float:
    """Mean squared error of tau_hat against nearest-opposite-neighbor surrogates.

    Computed only over rows with observed treatment; tau_hat is indexed by the
    full row order of x."""
    tau_hat = np.asarray(tau_hat, dtype=np.float64)
    obs, surrogates = nn_surrogate_effects(x, t, y)
    diff = tau_hat[obs] - surrogates
    return float(np.mean(diff * diff))


# ---------------------------------------------------------------------------
# Domain-split reporting


@dataclass
class EvalReport(Spec):
    """Metric values per observedness domain plus split sizes and run metadata."""

    metrics: dict = field(default_factory=dict)  # name -> {split: value | None}
    counts: dict = field(default_factory=dict)  # split -> n
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# Every metric a report can name: name -> (data, tau_hat) -> value. The
# callees are looked up at call time, where a tracer can wrap them.
METRICS = {
    "pehe": lambda data, tau_hat: pehe_true(tau_hat, data.tau),
    "sqrt_pehe": lambda data, tau_hat: float(np.sqrt(pehe_true(tau_hat, data.tau))),
    "pehe_obs": lambda data, tau_hat: pehe_observed(tau_hat, data.y1, data.y0),
    "sqrt_pehe_obs": lambda data, tau_hat: float(np.sqrt(pehe_observed(tau_hat, data.y1, data.y0))),
    "policy_risk": lambda data, tau_hat: policy_risk(
        tau_hat, data.y, data.t_true if data.t_true is not None else data.t, data.e),
    "pehe_nn": lambda data, tau_hat: pehe_nn(tau_hat, data.x, data.t, data.y),
}


def evaluate_predictions(data: Dataset, tau_hat: np.ndarray, metrics,
                         metadata: dict | None = None) -> EvalReport:
    """Evaluate each metric on all rows, the r=1 rows and the r=0 rows; the
    three subsets are built once per report.

    Empty splits yield None ("absent") rather than an error."""
    metrics = list(metrics)
    check_keys(metrics, METRICS, "metric")
    tau_hat = np.asarray(tau_hat, dtype=np.float64)
    if tau_hat.shape != (data.n,):
        raise ValueError(f"tau_hat must have shape ({data.n},)")
    splits = {
        "overall": np.arange(data.n),
        "t_observed": np.flatnonzero(data.r == 1),
        "t_missing": np.flatnonzero(data.r == 0),
    }
    subsets = {split: (data.subset(idx), tau_hat[idx]) for split, idx in splits.items() if idx.size}
    report = EvalReport(counts={split: int(idx.size) for split, idx in splits.items()},
                        metadata=metadata or {})
    for metric in metrics:
        report.metrics[metric] = {
            split: METRICS[metric](*subsets[split]) if split in subsets else None
            for split in splits
        }
    return report


def available_metrics(data: Dataset) -> list[str]:
    """Metrics computable from the fields this dataset carries."""
    out = []
    if data.tau is not None:
        out.append("sqrt_pehe")
    if data.y0 is not None and data.y1 is not None:
        out.append("sqrt_pehe_obs")
    if data.e is not None and np.any(data.e == 1):
        out.append("policy_risk")
    return out
