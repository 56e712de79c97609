"""Evaluation metrics: PEHE against true effects, PEHE against realized
outcome differences, policy risk on a randomized subset, and the
nearest-neighbor PEHE surrogate used for model selection. Each can be
reported overall and split by the treatment-observedness domain."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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


# the observedness domains a report splits each metric by
SPLITS = ("overall", "t_observed", "t_missing")


@dataclass
class EvalReport(Spec):
    """Metric values per observedness domain plus split sizes and run metadata."""

    metrics: dict[str, dict[str, float | None]] = field(default_factory=dict)
    counts: dict = field(default_factory=dict)  # split -> n
    metadata: dict = field(default_factory=dict)

    def validate(self) -> None:
        check_keys(self.metrics, METRICS, "report metric")
        for metric, by_split in self.metrics.items():
            check_keys(by_split, SPLITS, f"report.metrics.{metric} split")


class Metric(NamedTuple):
    needs: tuple[str, ...]  # fields read besides x, t and y; "e" means rows with e = 1
    score: Callable  # (data, tau_hat) -> value


# The one metric table: every metric a report can name. The callees are
# looked up at call time, where a tracer can wrap them. A report asked for no
# metric names the DEFAULT_METRICS its data can give.
METRICS = {
    "pehe": Metric(("tau",), lambda d, tau_hat: pehe_true(tau_hat, d.tau)),
    "sqrt_pehe": Metric(("tau",), lambda d, tau_hat: float(np.sqrt(pehe_true(tau_hat, d.tau)))),
    "pehe_obs": Metric(("y0", "y1"), lambda d, tau_hat: pehe_observed(tau_hat, d.y1, d.y0)),
    "sqrt_pehe_obs": Metric(("y0", "y1"), lambda d, tau_hat: float(
        np.sqrt(pehe_observed(tau_hat, d.y1, d.y0)))),
    "policy_risk": Metric(("e",), lambda d, tau_hat: policy_risk(
        tau_hat, d.y, d.t_true if d.t_true is not None else d.t, d.e)),
    "pehe_nn": Metric((), lambda d, tau_hat: pehe_nn(tau_hat, d.x, d.t, d.y)),
}
DEFAULT_METRICS = ("sqrt_pehe", "sqrt_pehe_obs", "policy_risk")


def evaluate_predictions(data: Dataset, tau_hat: np.ndarray, metrics,
                         metadata: dict | None = None) -> EvalReport:
    """Evaluate each metric on all rows, the r=1 rows and the r=0 rows; the
    three subsets are built once per report.

    A split that lacks the rows a metric needs yields None ("absent"): an
    empty split, or a domain split without both observed arms (pehe_nn;
    t_missing has no observed treatment at all) or whose randomized subset
    misses a stratum (policy_risk). All rows lacking them is an error."""
    metrics = list(metrics)
    check_keys(metrics, METRICS, "metric")
    tau_hat = np.asarray(tau_hat, dtype=np.float64)
    if tau_hat.shape != (data.n,):
        raise ValueError(f"tau_hat must have shape ({data.n},)")
    splits = dict(zip(SPLITS, (np.arange(data.n), np.flatnonzero(data.r == 1),
                               np.flatnonzero(data.r == 0))))
    subsets = {split: (data.subset(idx), tau_hat[idx]) for split, idx in splits.items() if idx.size}
    values = {}
    for metric in metrics:
        by_split = values[metric] = {}
        score = METRICS[metric].score
        for split in splits:
            try:
                by_split[split] = score(*subsets[split]) if split in subsets else None
            except (DegenerateArmError, StratumEmptyError):
                if split == "overall":
                    raise
                by_split[split] = None
    counts = {split: int(idx.size) for split, idx in splits.items()}
    return EvalReport(metrics=values, counts=counts, metadata=metadata or {})


def carried_fields(data: Dataset) -> set[str]:
    """The optional fields `data` carries, with "e" only when some row has e = 1."""
    return {name for name, v in data.columns().items() if name != "e" or np.any(v == 1)}


def _defaults(fields) -> list[str]:
    return [metric for metric in DEFAULT_METRICS if fields.issuperset(METRICS[metric].needs)]


def resolve_metrics(wanted, fields) -> list[str]:
    """The metrics to report on data carrying `fields` (as carried_fields
    names them): `wanted`, or, when it is empty, the default metrics the
    fields allow. A ValueError names an unknown metric, a wanted metric's
    missing field, or data that can give no default metric."""
    check_keys(wanted, METRICS, "metric")
    for metric in wanted:
        for name in METRICS[metric].needs:
            if name not in fields:
                rows = " with a randomized subset (rows at e = 1)" if name == "e" else ""
                raise ValueError(f"metric {metric!r} needs field {name!r}{rows}, "
                                 f"which the data lacks")
    defaults = _defaults(fields)
    if not wanted and not defaults:
        raise ValueError("dataset carries no ground-truth fields to evaluate against "
                         "(tau, y0 and y1, or rows with e = 1)")
    return list(wanted) or defaults


def selection_metric(fields) -> str:
    """The model-selection score for training data carrying `fields`: pehe_nn,
    unless policy_risk is the only default metric the fields allow."""
    return "policy_risk" if _defaults(fields) == ["policy_risk"] else "pehe_nn"
