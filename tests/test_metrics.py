import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtcate import metrics
from mtcate.data import Dataset
from mtcate.errors import DegenerateArmError, MetricUnavailableError, StratumEmptyError
from mtcate.metrics import (
    METRICS, EvalReport, carried_fields, evaluate_predictions, nn_surrogate_effects, pehe_nn,
    pehe_observed, pehe_true, policy_risk, resolve_metrics, selection_metric,
)


def test_pehe_true_examples():
    assert pehe_true(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert pehe_true(np.full(4, 0.5), np.zeros(4)) == pytest.approx(0.25)
    assert pehe_true(np.array([1.0, 2.0]), np.zeros(2)) == pytest.approx(2.5)
    assert math.sqrt(pehe_true(np.array([1.0, 2.0]), np.zeros(2))) == pytest.approx(1.5811, abs=1e-4)


def test_pehe_true_requires_ground_truth():
    with pytest.raises(MetricUnavailableError):
        pehe_true(np.zeros(2), None)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
def test_pehe_nonnegative_and_zero_iff_equal(values):
    tau = np.asarray(values)
    assert pehe_true(tau, tau) == 0.0
    assert pehe_true(tau + 1.0, tau) > 0.0


def test_pehe_observed_examples():
    y1 = np.array([2.0, 1.0])
    y0 = np.array([1.0, 2.0])
    assert pehe_observed(y1 - y0, y1, y0) == 0.0
    assert pehe_observed(np.zeros(2), y1, y0) == pytest.approx(1.0)


def test_pehe_observed_equals_pehe_true_when_noiseless():
    tau = np.array([0.5, -1.0, 2.0])
    y0 = np.array([0.0, 1.0, 2.0])
    tau_hat = np.array([1.0, 0.0, 0.0])
    assert pehe_observed(tau_hat, y0 + tau, y0) == pytest.approx(pehe_true(tau_hat, tau))


def test_policy_risk_all_treated_branch():
    tau_hat = np.ones(5)
    t = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    y = np.array([0.9, 0.8, 0.7, 0.2, 0.1])
    e = np.ones(5)
    assert policy_risk(tau_hat, y, t, e) == pytest.approx(1.0 - 0.8)


def test_policy_risk_four_row_hand_set():
    tau_hat = np.array([1.0, 1.0, -1.0, -1.0])
    t = np.array([1.0, 1.0, 0.0, 0.0])
    y = np.array([1.0, 0.0, 1.0, 0.0])
    e = np.ones(4)
    assert policy_risk(tau_hat, y, t, e) == pytest.approx(0.5)


def test_policy_risk_tie_means_do_not_treat():
    tau_hat = np.zeros(3)
    t = np.array([0.0, 0.0, 1.0])
    y = np.array([0.4, 0.6, 1.0])
    e = np.ones(3)
    # pi == 0 everywhere, so only the control stratum enters
    assert policy_risk(tau_hat, y, t, e) == pytest.approx(1.0 - 0.5)


def test_policy_risk_missing_stratum_is_an_error():
    tau_hat = np.ones(3)
    t = np.zeros(3)  # no randomized treated rows to estimate the treated value
    y = np.ones(3)
    with pytest.raises(StratumEmptyError):
        policy_risk(tau_hat, y, t, np.ones(3))


def test_policy_risk_without_randomized_flag_is_unavailable():
    with pytest.raises(MetricUnavailableError):
        policy_risk(np.ones(3), np.ones(3), np.array([1.0, 0.0, 1.0]), None)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_policy_risk_range_for_unit_interval_outcomes(data):
    n = data.draw(st.integers(8, 30))
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    y = rng.random(n)
    t = rng.integers(0, 2, n).astype(float)
    tau_hat = rng.standard_normal(n)
    try:
        risk = policy_risk(tau_hat, y, t, np.ones(n))
    except StratumEmptyError:
        return
    assert 1.0 - y.max() - 1e-12 <= risk <= 1.0 - y.min() + 1e-12


def test_pehe_nn_two_row_example():
    x = np.array([[0.0], [1.0]])
    t = np.array([1.0, 0.0])
    y = np.array([3.0, 1.0])
    assert pehe_nn(np.array([2.0, 2.0]), x, t, y) == 0.0


def test_pehe_nn_ignores_missing_rows_and_needs_both_arms():
    x = np.array([[0.0], [1.0], [5.0]])
    t = np.array([1.0, 0.0, np.nan])
    y = np.array([3.0, 1.0, 99.0])
    assert pehe_nn(np.array([2.0, 2.0, 123.0]), x, t, y) == 0.0
    with pytest.raises(DegenerateArmError):
        pehe_nn(np.zeros(2), x[:2], np.array([1.0, 1.0]), y[:2])


def test_pehe_nn_tie_breaks_to_lowest_index():
    x = np.zeros((3, 1))
    t = np.array([1.0, 0.0, 0.0])
    y = np.array([2.0, 5.0, 7.0])
    # the treated row's neighbor is row 1 (not row 2): surrogate = 2 - 5 = -3
    assert pehe_nn(np.array([-3.0, -3.0, -5.0]), x, t, y) == 0.0


def test_pehe_nn_invariant_to_constant_covariate_shift():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((30, 4))
    t = (rng.random(30) < 0.5).astype(float)
    t[:2] = [0.0, 1.0]
    y = rng.standard_normal(30)
    tau_hat = rng.standard_normal(30)
    assert pehe_nn(tau_hat, x, t, y) == pytest.approx(pehe_nn(tau_hat, x + 7.5, t, y), rel=1e-12)


@pytest.mark.parametrize("block_elements", [1, 50, 10**9])
def test_nn_surrogates_blocked_search_matches_brute_force(monkeypatch, block_elements):
    rng = np.random.default_rng(3)
    x = rng.integers(0, 3, size=(40, 2)).astype(float)  # many exact duplicates
    t = (rng.random(40) < 0.5).astype(float)
    t[rng.random(40) < 0.2] = np.nan
    y = rng.standard_normal(40)
    monkeypatch.setattr(metrics, "NN_BLOCK_ELEMENTS", block_elements)
    obs, surrogates = nn_surrogate_effects(x, t, y)
    expected = []
    for i in obs:
        opp = [j for j in obs if t[j] == 1.0 - t[i]]
        d2 = [float(((x[i] - x[j]) ** 2).sum()) for j in opp]
        j = opp[d2.index(min(d2))]  # first minimum: lowest row index
        expected.append((1.0 - 2.0 * t[i]) * (y[j] - y[i]))
    assert np.array_equal(surrogates, expected)


# ---------------------------------------------------------------------------
# Domain-split reports


def toy_dataset(r, tau, tau_extra=None):
    n = len(r)
    return Dataset(
        x=np.arange(n, dtype=float)[:, None],
        t=np.where(np.asarray(r) == 1, 1.0, np.nan),
        y=np.zeros(n),
        tau=np.asarray(tau, dtype=float),
    )


def test_domain_split_fully_observed_has_absent_missing_split():
    data = toy_dataset([1, 1, 1], [0.0, 0.0, 0.0])
    report = evaluate_predictions(data, np.zeros(3), ["pehe"])
    vals = report.metrics["pehe"]
    assert vals["t_missing"] is None
    assert vals["overall"] == vals["t_observed"] == 0.0


def test_domain_split_without_a_stratum_is_absent():
    # treat everyone: the one randomized missing row is a control, so the
    # t_missing split has no randomized treated row to value the policy by
    data = Dataset(x=np.zeros((4, 1)), t=np.array([1.0, np.nan, 0.0, np.nan]),
                   y=np.array([1.0, 2.0, 0.0, 0.0]),
                   t_true=np.array([1.0, 0.0, 0.0, 1.0]), e=np.array([1, 1, 0, 0]))
    vals = evaluate_predictions(data, np.ones(4), ["policy_risk"]).metrics["policy_risk"]
    assert vals == {"overall": 0.0, "t_observed": 0.0, "t_missing": None}
    with pytest.raises(StratumEmptyError):  # no row of the data has what it needs
        evaluate_predictions(data, np.array([-1.0, 1.0, 1.0, 1.0]), ["policy_risk"])


def test_domain_split_equal_errors_give_equal_values():
    data = toy_dataset([1, 0, 1, 0], [0.0, 0.0, 0.0, 0.0])
    report = evaluate_predictions(data, np.full(4, 2.0), ["pehe"])
    vals = report.metrics["pehe"]
    assert vals["overall"] == vals["t_observed"] == vals["t_missing"] == pytest.approx(4.0)


def test_domain_split_mixes_split_means():
    data = toy_dataset([1, 1, 0, 0], [0.0, 0.0, 0.0, 0.0])
    tau_hat = np.array([0.0, 0.0, 1.0, 1.0])
    vals = evaluate_predictions(data, tau_hat, ["pehe"]).metrics["pehe"]
    assert vals["t_observed"] == 0.0
    assert vals["t_missing"] == 1.0
    assert vals["overall"] == pytest.approx(0.5)


def test_sqrt_pehe_is_root_of_mean_not_mean_of_roots():
    data = toy_dataset([1, 1], [0.0, 0.0])
    vals = evaluate_predictions(data, np.array([0.0, 2.0]), ["sqrt_pehe"]).metrics["sqrt_pehe"]
    assert vals["overall"] == pytest.approx(math.sqrt(2.0))  # mean of roots would be 1.0


def test_overall_lies_between_split_values_for_mean_metrics():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = 12
        r = rng.integers(0, 2, n)
        if r.min() == r.max():
            continue
        data = toy_dataset(r, rng.standard_normal(n))
        vals = evaluate_predictions(data, rng.standard_normal(n), ["pehe"]).metrics["pehe"]
        lo = min(vals["t_observed"], vals["t_missing"])
        hi = max(vals["t_observed"], vals["t_missing"])
        assert lo - 1e-12 <= vals["overall"] <= hi + 1e-12


def test_report_json_roundtrip():
    data = toy_dataset([1, 0], [0.0, 0.0])
    report = evaluate_predictions(data, np.zeros(2), ["pehe", "sqrt_pehe"], {"method": "x"})
    again = json.loads(json.dumps(report.to_dict()))
    assert again == {"metrics": report.metrics, "counts": report.counts,
                     "metadata": {"method": "x"}}
    assert EvalReport.from_dict(again) == report


def test_evaluate_predictions_checks_every_metric_name_first(monkeypatch):
    def no_eval(*args):
        raise AssertionError("a metric was computed")

    monkeypatch.setitem(metrics.METRICS, "pehe", metrics.METRICS["pehe"]._replace(score=no_eval))
    data = toy_dataset([1, 0], [0.0, 0.0])
    with pytest.raises(ValueError, match="'pehee'"):
        evaluate_predictions(data, np.zeros(2), ["pehe", "pehee"])


# ---------------------------------------------------------------------------
# Which metrics data can be scored by


@pytest.mark.parametrize("name", sorted(METRICS))
def test_each_metric_reads_exactly_the_fields_its_table_entry_names(name):
    # x, t and y plus every optional field a metric can read; every row is
    # randomized, and tau_hat treats and withholds rows of both arms
    rng = np.random.default_rng(5)
    t = np.tile([0.0, 1.0], 6)
    y0, y1 = rng.standard_normal(12), rng.standard_normal(12)
    columns = {"x": rng.standard_normal((12, 2)), "t": t, "y": np.where(t == 1.0, y1, y0),
               "y0": y0, "y1": y1, "tau": y1 - y0, "e": np.ones(12)}
    tau_hat = np.tile([1.0, 1.0, -1.0, -1.0], 3)

    def carrying(fields):
        return Dataset(**{k: v for k, v in columns.items() if k in {"x", "t", "y", *fields}})

    needs = METRICS[name].needs
    data = carrying(needs)
    assert carried_fields(data) == {"x", "t", "y", *needs}
    assert resolve_metrics([name], carried_fields(data)) == [name]
    assert math.isfinite(evaluate_predictions(data, tau_hat, [name]).metrics[name]["overall"])
    for field in needs:
        lacking = carrying(set(needs) - {field})
        with pytest.raises(ValueError, match=f"metric '{name}' needs field '{field}'"):
            resolve_metrics([name], carried_fields(lacking))
        with pytest.raises(MetricUnavailableError):
            evaluate_predictions(lacking, tau_hat, [name])


def test_resolve_metrics_names_an_unknown_metric_or_gives_the_defaults():
    with pytest.raises(ValueError, match=r"unknown metric key\(s\) \['pehee'\]"):
        resolve_metrics(["pehe", "pehee"], {"tau"})
    assert resolve_metrics((), {"tau", "y0", "y1", "e"}) == [
        "sqrt_pehe", "sqrt_pehe_obs", "policy_risk"]
    assert resolve_metrics((), {"y0", "y1"}) == ["sqrt_pehe_obs"]
    assert resolve_metrics(["pehe_nn"], set()) == ["pehe_nn"]
    with pytest.raises(ValueError, match="dataset carries no ground-truth fields"):
        resolve_metrics((), {"y0"})


# Every subset of the optional fields: policy risk on the randomized subset
# selects exactly when it is the only default metric (e present, tau absent,
# y0 and y1 not both present).
@pytest.mark.parametrize("fields, expected", [
    ((), "pehe_nn"),
    (("tau",), "pehe_nn"),
    (("y0",), "pehe_nn"),
    (("y1",), "pehe_nn"),
    (("e",), "policy_risk"),
    (("tau", "y0"), "pehe_nn"),
    (("tau", "y1"), "pehe_nn"),
    (("tau", "e"), "pehe_nn"),
    (("y0", "y1"), "pehe_nn"),
    (("y0", "e"), "policy_risk"),
    (("y1", "e"), "policy_risk"),
    (("tau", "y0", "y1"), "pehe_nn"),
    (("tau", "y0", "e"), "pehe_nn"),
    (("tau", "y1", "e"), "pehe_nn"),
    (("y0", "y1", "e"), "pehe_nn"),
    (("tau", "y0", "y1", "e"), "pehe_nn"),
])
def test_selection_metric_on_every_subset_of_the_optional_fields(fields, expected):
    assert selection_metric({"x", "t", "y", *fields}) == expected
