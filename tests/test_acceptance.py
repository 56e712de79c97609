"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -rA` (or -s) to see the lines.
The trend experiment is the long pole at roughly 110 s on a 2-core VM;
everything else finishes in seconds.
"""

import os
import time

import numpy as np
import pytest

from mtcate import cli
from mtcate.baselines import tarnet_train
from mtcate.data import (
    Dataset, MissingnessSpec, OutcomeSpec, SyntheticDGPSpec, apply_missingness,
    generate, missingness_probabilities,
)
from mtcate.harness import ExperimentConfig, MethodSpec, run_experiment
from mtcate.mtrnet import MTRNetConfig, compute_weights, train as mtrnet_train
from mtcate.nn import mmd2_rbf
from mtcate.theory import run_world_sweep
from mtcate.trend import trend_config
from conftest import step_gradient_error


def criterion(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} {detail}".rstrip())
    assert ok, f"{name} {detail}"


# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_gradient_correctness():
    """The gradient every random training step hands to Adam against finite
    differences of the step's objective (see conftest.step_gradient_error)."""
    started = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        worst = max(worst, step_gradient_error(np.random.default_rng(seed), step=1e-5))
    elapsed = time.perf_counter() - started
    criterion(
        "gradient-correctness",
        worst < 1e-4 and elapsed < 30.0,
        f"(max rel err {worst:.2e}, {elapsed:.1f}s)",
    )


def test_theory_oracle_identities_and_bounds():
    started = time.perf_counter()
    summary = run_world_sweep(1000, seed=7)
    elapsed = time.perf_counter() - started
    criterion(
        "theory-identities",
        summary.residual_violations == 0
        and summary.max_abs_residual <= 1e-10
        and elapsed < 60.0,
        f"(max |residual| {summary.max_abs_residual:.2e}, {elapsed:.1f}s)",
    )
    criterion(
        "theory-bounds",
        summary.slack_violations == 0
        and summary.min_slack >= -1e-10
        and elapsed < 60.0,
        f"(min slack {summary.min_slack:.2e}, {elapsed:.1f}s)",
    )


def _iterative_missingness(x_row, means, q):
    p_m, p_o = 1.0, 1.0
    for j in range(len(x_row)):
        if x_row[j] > means[j]:
            p_m *= q
            p_o *= 1.0 - q
        else:
            p_m *= 1.0 - q
            p_o *= q
    return p_m / (p_m + p_o)


def _any_dgp(n, d, seed):
    return SyntheticDGPSpec(
        n=n, d=d, propensity=tuple([0.4] * d),
        outcome0=OutcomeSpec(kind="linear", linear=tuple([1.0] * d)),
        outcome1=OutcomeSpec(kind="linear", intercept=1.0, linear=tuple([0.5] * d)),
        seed=seed,
    )


def test_missingness_generator():
    rng = np.random.default_rng(11)
    counts_exact = True
    for trial in range(20):
        n = int(rng.integers(50, 3000))
        m = float(rng.uniform(0.05, 0.95))
        data = generate(_any_dgp(n, 4, seed=trial))
        masked = apply_missingness(data, MissingnessSpec(m=m, q=0.8, seed=trial))
        counts_exact &= int((masked.r == 0).sum()) == round(m * n)

    closed_matches = True
    for d in range(1, 13):
        x = rng.standard_normal((16, d))
        means = x.mean(axis=0)
        for q in (0.1, 0.37, 0.5, 0.9):
            closed = missingness_probabilities(x, means, q)
            naive = np.array([_iterative_missingness(row, means, q) for row in x])
            closed_matches &= float(np.max(np.abs(closed - naive))) <= 1e-12

    x = rng.standard_normal((64, 6))
    symmetric = np.array_equal(
        missingness_probabilities(x, x.mean(axis=0), 0.5), np.full(64, 0.5)
    )
    criterion(
        "missingness-generator",
        counts_exact and closed_matches and symmetric,
        f"(counts {counts_exact}, closed-form {closed_matches}, q=.5 {symmetric})",
    )


def test_balancing_weight_formula():
    w, u, _ = compute_weights(np.array([1.0, 0.0, 1.0, 0.0]))
    hand1 = u == 0.5 and np.array_equal(w, np.ones(4))
    w, u, _ = compute_weights(np.array([1.0, 1.0, 1.0, 0.0]))
    hand2 = u == 0.75 and np.allclose(w, [1 / 1.5, 1 / 1.5, 1 / 1.5, 2.0], rtol=0, atol=1e-15)
    w, u, n_o = compute_weights(np.array([1.0, 0.0, 1.0, np.nan]))
    hand3 = n_o == 3 and abs(u - 2 / 3) < 1e-15 and np.allclose(w, [0.75, 1.5, 0.75], rtol=0, atol=1e-15)

    rng = np.random.default_rng(13)
    sums_ok = True
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 200))
        t = rng.integers(0, 2, n).astype(float)
        r = rng.integers(0, 2, n)
        t[r == 0] = np.nan
        t_obs = t[r == 1]
        if t_obs.size == 0 or t_obs.min() == t_obs.max():
            continue
        w, _, n_o = compute_weights(t)
        sums_ok &= abs(w.sum() - n_o) <= 1e-9
        checked += 1
    criterion(
        "balancing-weights",
        hand1 and hand2 and hand3 and sums_ok,
        f"(hand examples {hand1 and hand2 and hand3}, 100 batch sums {sums_ok})",
    )


def test_tarnet_equivalence():
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        n = 60
        x = rng.standard_normal((n, 3))
        t = (rng.random(n) < 0.5).astype(float)
        r = (rng.random(n) < 0.8).astype(np.int64)
        t_pub = t.copy()
        t_pub[r == 0] = np.nan
        y = x[:, 0] + t
        data = Dataset(x=x, t=t_pub, y=y)
        cfg = MTRNetConfig(rep_layer_size=6, hyp_layer_size=6, iterations=6,
                           batch_size=24, dropout_rate=0.2, seed=seed,
                           alpha=0.0, beta=0.0)
        net_a, _ = mtrnet_train(data, cfg)
        net_b, _ = tarnet_train(data, np.ones(n), cfg)
        for name, param in net_a.parameters().items():
            if name.startswith(("phi", "h0", "h1")):
                ok &= np.array_equal(param, net_b.parameters()[name])
    criterion("tarnet-equivalence", ok, "(10 seeds, bitwise phi/h trajectories)")


def test_mmd_estimator():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((200, 1))
    b = rng.standard_normal((200, 1)) + 10.0
    self_value = float(mmd2_rbf(a, a, 1.0, 1.0)[0])
    separated_value = float(mmd2_rbf(a, b, 1.0, 1.0)[0])
    criterion("mmd-estimator", self_value <= 1e-12 and separated_value > 0.5,
              f"(self {self_value:.1e}, separated {separated_value:.3f})")


def test_linear_recovery():
    started = time.perf_counter()
    dgp = SyntheticDGPSpec(
        n=2000, d=5, propensity=(0.4, 0.4, 0.4, 0.4, 0.4),
        outcome0=OutcomeSpec(kind="linear", linear=(1.0, -1.0, 0.5, 2.0, 0.0)),
        outcome1=OutcomeSpec(kind="linear", intercept=2.0, linear=(0.5, 1.0, -0.5, 1.0, 1.0)),
        noise_sd=0.0, seed=0,
    )
    config = ExperimentConfig(
        dgp=dgp, csv_path=None, missingness=MissingnessSpec(m=0.3, q=0.5),
        methods=(MethodSpec("ols_del", grid=({},)),),
        num_runs=10, master_seed=101, metrics=("sqrt_pehe",),
    )
    results, failures = run_experiment(config, log=None)
    values = [r.report.metrics["sqrt_pehe"]["overall"] for r in results]
    elapsed = time.perf_counter() - started
    ok = not failures and len(values) == 10 and all(v < 0.05 for v in values) and elapsed < 10.0
    criterion("ols-linear-recovery", ok,
              f"(worst sqrt-pehe {max(values):.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# The headline experiment: balanced representations help most where the
# treatment labels are missing, and the advantage widens with the missing
# fraction.

def missing_domain_gaps(m: float):
    """Per-seed TARNet_del minus MTRNet missing-domain errors (positive is
    a win for the balanced representation). Runs on up to two processes:
    `jobs` does not change the results."""
    results, failures = run_experiment(trend_config(m), jobs=min(2, os.cpu_count() or 1),
                                       log=None)
    assert not failures, failures
    by_run = {}
    for res in results:
        by_run.setdefault(res.run_index, {})[res.method] = (
            res.report.metrics["sqrt_pehe"]["t_missing"]
        )
    return [vals["tarnet_del"] - vals["mtrnet"] for _, vals in sorted(by_run.items())]


@pytest.mark.slow
def test_missing_domain_trend():
    started = time.perf_counter()
    gaps_half = missing_domain_gaps(0.5)
    wins = sum(g >= 0 for g in gaps_half)
    gaps_low = missing_domain_gaps(0.3)
    gaps_high = missing_domain_gaps(0.7)
    elapsed = time.perf_counter() - started
    widening = np.median(gaps_high) >= np.median(gaps_low)
    criterion(
        "missing-domain-trend",
        wins >= 7 and widening and elapsed < 900.0,
        f"(wins {wins}/10 at m=0.5, median gap {np.median(gaps_low):+.3f} at m=0.3 "
        f"vs {np.median(gaps_high):+.3f} at m=0.7, {elapsed:.0f}s)",
    )


def test_experiment_determinism(tmp_path):
    config = {
        "data": {"synthetic": _any_dgp(150, 3, seed=5).to_dict()},
        "missingness": {"m": 0.3, "q": 0.7},
        "methods": [
            {"name": "ols_del", "grid": [{}]},
            {"name": "tarnet_del", "grid": [{"iterations": 8}],
             "config": {"rep_layer_size": 8, "hyp_layer_size": 8, "batch_size": 32,
                        "dropout_rate": 0.1}},
        ],
        "num_runs": 2,
        "master_seed": 99,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(__import__("json").dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["experiment", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli.main(["experiment", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("results.jsonl", "aggregate.csv")
    )
    criterion("experiment-determinism", identical, "(byte-identical result files)")
