"""The benchmark's workloads, built from a workload seed and run through
mtcate's public API (`harness.run_experiment`, `harness.sweep_m`,
`theory.run_world_sweep`).

One repeat of a workload is a fixed amount of work; a benchmark run repeats
it. Repeats with the same seed must produce byte-identical results files,
which is one of the correctness checks.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from mtcate import harness, theory
from mtcate.data import MissingnessSpec, OutcomeSpec, SyntheticDGPSpec
from mtcate.harness import ExperimentConfig, MethodSpec
from mtcate.mtrnet import MTRNetConfig

THEORY_RESIDUAL_LIMIT = 1e-10


# ---------------------------------------------------------------------------
# The calibrated trend workload. A copy, kept in step with the two copies in
# tests/test_acceptance.py and scripts/run_trend_experiment.py by
# perfbench/test_perfbench.py.


def trend_dgp(n: int = 2000) -> SyntheticDGPSpec:
    d = 10
    rho = 0.15
    mixing = (1.0 - rho) * np.eye(d) + rho * np.ones((d, d)) / np.sqrt(d)
    base = np.array([0.6, -0.6, 0.6, -0.6, 0.6, -0.6, 0.6, -0.6, 0.6, -0.6])
    effect = np.array([0.8, -0.8, 0.5, -0.5, 0.3, -0.3, 0.0, 0.0, 0.0, 0.0])
    ones = tuple([1.0] * d)
    return SyntheticDGPSpec(
        n=n, d=d, propensity=tuple([0.4] * d),
        outcome0=OutcomeSpec(kind="piecewise", intercept=0.0, linear=tuple(base),
                             jump=4.0, jump_direction=ones, jump_threshold=2.5),
        outcome1=OutcomeSpec(kind="piecewise", intercept=1.0, linear=tuple(base + effect),
                             jump=4.0, jump_direction=ones, jump_threshold=2.5),
        noise_sd=0.3, mixing=tuple(tuple(row) for row in mixing), seed=0,
    )


def trend_config(m: float, num_runs: int, master_seed: int) -> ExperimentConfig:
    net = MTRNetConfig(rep_layer_size=32, hyp_layer_size=32, iterations=600,
                       batch_size=150, learning_rate=1e-3, dropout_rate=0.1,
                       l2_lambda=1e-4)
    return ExperimentConfig(
        dgp=trend_dgp(), csv_path=None,
        missingness=MissingnessSpec(m=m, q=0.9),
        methods=(
            MethodSpec("mtrnet",
                       grid=({"alpha": 1.0, "beta": 8.0}, {"alpha": 1.0, "beta": 15.0}),
                       base_config=net),
            MethodSpec("tarnet_del",
                       grid=({"learning_rate": 1e-3}, {"learning_rate": 3e-3}),
                       base_config=net),
        ),
        num_runs=num_runs, master_seed=master_seed, metrics=("sqrt_pehe",),
    )


# ---------------------------------------------------------------------------
# Outcome of one repeat


@dataclass
class Repeat:
    attempted: int  # harness runs, or theory worlds
    failed: int
    digest: str  # sha256 over the results files the repeat wrote
    quality: dict  # result values reported for information, never timed
    problems: list = field(default_factory=list)  # failed correctness checks


def _sha256(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _missing_domain_error(results) -> float:
    values = [r.report.metrics["sqrt_pehe"]["t_missing"] for r in results]
    return float(np.mean(values)) if values else float("nan")


def _check_results(results, failures, attempted: int) -> list[str]:
    problems = []
    if failures:
        problems.append(f"{len(failures)} failed runs, first: {failures[0]}")
    if len(results) + len(failures) != attempted:
        problems.append(f"{len(results)} results + {len(failures)} failures != {attempted} runs")
    for res in results:
        for metric, by_split in res.report.metrics.items():
            for split, value in by_split.items():
                if value is None or not math.isfinite(value):
                    problems.append(f"{res.method} run {res.run_index}: {metric}.{split} = {value}")
    return problems


@contextmanager
def captured_experiments():
    """Collect (results, failures) of every harness.run_experiment call made
    through the module attribute, as sweep_m makes them."""
    calls = []
    inner = harness.run_experiment

    def capture(*args, **kwargs):
        out = inner(*args, **kwargs)
        calls.append(out)
        return out

    harness.run_experiment = capture
    try:
        yield calls
    finally:
        harness.run_experiment = inner


# ---------------------------------------------------------------------------
# Workloads


class Experiment:
    """`harness.run_experiment` on one config; writes results like
    `mtcate experiment` does."""

    def __init__(self, config: ExperimentConfig, jobs: int):
        self.config = config
        self.jobs = jobs

    def run(self, out_dir: Path) -> Repeat:
        results, failures = harness.run_experiment(self.config, jobs=self.jobs, log=None)
        harness.write_results(out_dir, results, failures)
        attempted = self.config.num_runs * len(self.config.methods)
        return Repeat(
            attempted=attempted, failed=len(failures),
            digest=_sha256([out_dir / "results.jsonl", out_dir / "aggregate.csv"]),
            quality={"sqrt_pehe_missing": _missing_domain_error(results)},
            problems=_check_results(results, failures, attempted),
        )


class Sweep:
    """`harness.sweep_m` over missing fractions; writes per-m results and the
    sweep table like scripts/run_trend_experiment.py does."""

    def __init__(self, config: ExperimentConfig, m_values):
        self.config = config
        self.m_values = tuple(m_values)

    def run(self, out_dir: Path) -> Repeat:
        with captured_experiments() as calls:
            rows = harness.sweep_m(self.config, self.m_values, log=None)
        files = []
        problems = []
        results_all = []
        failed = 0
        per_m = self.config.num_runs * len(self.config.methods)
        for m, (results, failures) in zip(self.m_values, calls):
            harness.write_results(out_dir / f"m_{m:g}", results, failures)
            files.append(out_dir / f"m_{m:g}" / "results.jsonl")
            problems += _check_results(results, failures, per_m)
            results_all += results
            failed += len(failures)
        harness.write_sweep(out_dir, rows)
        files.append(out_dir / "sweep_m.csv")
        if len(calls) != len(self.m_values):
            problems.append(f"{len(calls)} experiments for {len(self.m_values)} m values")
        return Repeat(
            attempted=per_m * len(self.m_values), failed=failed, digest=_sha256(files),
            quality={"sqrt_pehe_missing": _missing_domain_error(results_all)},
            problems=problems,
        )


class Theory:
    """`theory.run_world_sweep`, as `mtcate theory-check` runs it."""

    def __init__(self, num_worlds: int, seed: int):
        self.num_worlds = num_worlds
        self.seed = seed

    def run(self, out_dir: Path) -> Repeat:
        summary = theory.run_world_sweep(self.num_worlds, seed=self.seed)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "theory_checks.json"
        path.write_text(json.dumps(summary.to_dict(), sort_keys=True, indent=2))
        violations = summary.residual_violations + summary.slack_violations
        problems = []
        if violations:
            problems.append(f"{summary.residual_violations} identity and "
                            f"{summary.slack_violations} bound violations")
        if not summary.max_abs_residual <= THEORY_RESIDUAL_LIMIT:
            problems.append(f"max |residual| {summary.max_abs_residual:.3e} > {THEORY_RESIDUAL_LIMIT}")
        return Repeat(
            attempted=summary.num_worlds, failed=violations, digest=_sha256([path]),
            quality={"max_abs_residual": summary.max_abs_residual,
                     "min_slack": summary.min_slack},
            problems=problems,
        )


def build(name: str, seed: int):
    """The workload's inputs, generated from the workload seed alone.

    A repeat is one run of each experiment (trend: 6 fits, ols_sweep: 9 OLS
    runs, cfr_jobs2: 15 fits on 2 workers) or 10000 theory worlds, so that
    two repeats of any workload take well under a minute on 2 cores."""
    if name == "trend":
        return Experiment(trend_config(0.5, num_runs=1, master_seed=seed), jobs=1)
    if name == "ols_sweep":
        methods = tuple(MethodSpec.from_dict({"name": n}) for n in ("ols_del", "ols_imp", "ols_rew"))
        config = replace(trend_config(0.5, num_runs=1, master_seed=seed),
                         dgp=trend_dgp(n=20000), methods=methods)
        return Sweep(config, (0.3, 0.5, 0.7))
    if name == "cfr_jobs2":
        methods = tuple(MethodSpec.from_dict({"name": n}, "desk")
                        for n in ("cfrmmd_del", "cfrmmd_imp", "cfrmmd_rew"))
        config = ExperimentConfig(
            dgp=trend_dgp(), csv_path=None, missingness=MissingnessSpec(m=0.5, q=0.9),
            methods=methods, num_runs=1, master_seed=seed, metrics=("sqrt_pehe",),
            preset="desk",
        )
        return Experiment(config, jobs=2)
    if name == "theory":
        return Theory(10000, seed)
    raise ValueError(f"unknown workload {name!r}")
