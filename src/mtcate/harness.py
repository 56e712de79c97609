"""Experiment orchestration: seeded per-run pipelines (generate, mask, split,
cross-validate, retrain, evaluate), grid search, missing-fraction sweeps and
Table-style aggregation. Every byte written to disk is a deterministic
function of the config and master seed; timings go to the log only.

Selection runs only when there is a choice. A method with a one-point grid
(every OLS method, or any single explicit override) is fitted once, on
train+val, with no cross-validation; so that point cannot fail on the train
split alone."""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import baselines, data as datamod, metrics as metricsmod, mtrnet
from .data import Dataset, MissingnessSpec, SyntheticDGPSpec
from .errors import AllFailedError, ExperimentFailedError, check_keys
from .metrics import EvalReport
from .mtrnet import MTRNetConfig

class Method(NamedTuple):
    label: str  # name used in result files and reports
    estimator: str  # mtrnet | ols | tarnet | cfrmmd
    strategy: str | None  # baselines.apply_strategy name; MTRNet handles missing labels itself


# The one method table: canonical lowercase key -> Method.
METHODS = {
    "mtrnet": Method("MTRNet", "mtrnet", None),
    "ols_del": Method("OLS_del", "ols", "delete"),
    "ols_imp": Method("OLS_imp", "ols", "impute"),
    "ols_rew": Method("OLS_rew", "ols", "reweight"),
    "tarnet_del": Method("TARNet_del", "tarnet", "delete"),
    "tarnet_imp": Method("TARNet_imp", "tarnet", "impute"),
    "tarnet_rew": Method("TARNet_rew", "tarnet", "reweight"),
    "cfrmmd_del": Method("CFRMMD_del", "cfrmmd", "delete"),
    "cfrmmd_imp": Method("CFRMMD_imp", "cfrmmd", "impute"),
    "cfrmmd_rew": Method("CFRMMD_rew", "cfrmmd", "reweight"),
}


def canonical_method(name: str) -> str:
    key = name.lower()
    if key not in METHODS:
        raise ValueError(f"unknown method {name!r}; known: {sorted(METHODS)}")
    return key


def derive_seed(master_seed: int, *parts) -> int:
    """Stable stream seed from the master seed and any labels."""
    blob = ":".join([str(master_seed)] + [str(p) for p in parts]).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")


# ---------------------------------------------------------------------------
# Grids and presets


def expand_grid(grid) -> list[dict]:
    """Cartesian product of a {param: [values]} mapping, in declaration order
    (an explicit sequence of override dicts passes through)."""
    if grid is None:
        return [{}]
    if isinstance(grid, (list, tuple)):
        return [dict(g) for g in grid]
    keys = list(grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


DESK_GRIDS = {
    "mtrnet": {"learning_rate": [1e-2, 1e-3], "alpha": [0.5, 2.0], "beta": [0.5, 2.0]},
    "ols": None,
    "tarnet": {"learning_rate": [1e-2, 1e-3]},
    "cfrmmd": {"learning_rate": [1e-2, 1e-3], "alpha": [0.5, 2.0]},
}

# Full tuning ranges; the product is large and meant for long runs.
PAPER_GRID_COMMON = {
    "rep_layer_size": [50, 100, 200],
    "hyp_layer_size": [50, 100, 200],
    "iterations": [100, 200, 300],
    "batch_size": [50, 70, 100],
    "learning_rate": [0.01, 0.005, 0.001, 0.0005, 0.0001],
    "dropout_rate": [0.1, 0.2, 0.3],
    "l2_lambda": [0.0005, 0.0001, 0.00005],
}
_ALPHA_RANGE = [10.0 ** (k / 2.0) for k in range(-4, 3)]
PAPER_GRIDS = {
    "mtrnet": {**PAPER_GRID_COMMON, "alpha": _ALPHA_RANGE, "beta": _ALPHA_RANGE},
    "ols": None,
    "tarnet": dict(PAPER_GRID_COMMON),
    "cfrmmd": {**PAPER_GRID_COMMON, "alpha": _ALPHA_RANGE},
}
PRESETS = {"desk": DESK_GRIDS, "paper": PAPER_GRIDS}


_CONFIG_KEYS = frozenset(f.name for f in fields(MTRNetConfig))
# the seed is derived per run, so a grid may vary every other field
_GRID_KEYS = _CONFIG_KEYS - {"seed"}


@dataclass(frozen=True)
class MethodSpec:
    name: str  # method key, canonicalized on construction
    grid: tuple = ()  # tuple of override dicts, or a {param: values} mapping
    base_config: MTRNetConfig = field(default_factory=MTRNetConfig)

    def __post_init__(self):
        object.__setattr__(self, "name", canonical_method(self.name))
        points = self.grid if isinstance(self.grid, (list, tuple)) else [self.grid or {}]
        check_keys([k for point in points for k in point], _GRID_KEYS, f"{self.name} grid")

    @property
    def label(self) -> str:
        return METHODS[self.name].label

    def grid_points(self) -> list[dict]:
        # expanded on demand: the full tuning preset is huge
        return expand_grid(self.grid if self.grid != () else None)

    def to_dict(self) -> dict:
        grid = self.grid
        if isinstance(grid, tuple):
            grid = list(grid)
        return {"name": self.name, "grid": grid, "config": self.base_config.to_dict()}

    @classmethod
    def from_dict(cls, d: dict, preset: str = "desk") -> "MethodSpec":
        check_keys(d, ("name", "grid", "config"), "method")
        name = canonical_method(d["name"])
        grid = d.get("grid")
        if grid is None:
            grid = PRESETS[preset][METHODS[name].estimator]
        if isinstance(grid, list):
            grid = tuple(dict(g) for g in grid)
        elif grid is None:
            grid = ({},)
        config = d.get("config", {})
        check_keys(config, _CONFIG_KEYS, f"{name} config")
        base = MTRNetConfig.from_dict({**MTRNetConfig().to_dict(), **config})
        return cls(name=name, grid=grid, base_config=base)


@dataclass(frozen=True)
class ExperimentConfig:
    dgp: SyntheticDGPSpec | None
    csv_path: str | None
    missingness: MissingnessSpec | None
    methods: tuple
    num_runs: int = 10
    master_seed: int = 0
    metrics: tuple = ()  # empty means: use whatever the data supports
    preset: str = "desk"

    def validate(self) -> None:
        if (self.dgp is None) == (self.csv_path is None):
            raise ValueError("config needs exactly one of a synthetic spec or a csv path")
        if not self.methods:
            raise ValueError("at least one method is required")
        if self.num_runs < 1:
            raise ValueError("num_runs must be >= 1")
        check_keys(self.metrics, metricsmod.METRICS, "metric")

    def to_dict(self) -> dict:
        return {
            "data": (
                {"synthetic": self.dgp.to_dict()} if self.dgp is not None
                else {"csv": self.csv_path}
            ),
            "missingness": None if self.missingness is None else self.missingness.to_dict(),
            "methods": [m.to_dict() for m in self.methods],
            "num_runs": self.num_runs,
            "master_seed": self.master_seed,
            "metrics": list(self.metrics),
            "preset": self.preset,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        check_keys(d, ("data", "missingness", "methods", "num_runs", "master_seed",
                       "metrics", "preset"), "experiment config")
        preset = d.get("preset", "desk")
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}")
        src = d["data"]
        check_keys(src, ("synthetic", "csv"), "data")
        dgp = SyntheticDGPSpec.from_dict(src["synthetic"]) if "synthetic" in src else None
        csv_path = src.get("csv")
        miss = d.get("missingness")
        cfg = cls(
            dgp=dgp,
            csv_path=csv_path,
            missingness=None if miss is None else MissingnessSpec.from_dict(miss),
            methods=tuple(MethodSpec.from_dict(m, preset) for m in d["methods"]),
            num_runs=int(d.get("num_runs", 10)),
            master_seed=int(d.get("master_seed", 0)),
            metrics=tuple(d.get("metrics", ())),
            preset=preset,
        )
        cfg.validate()
        return cfg


# ---------------------------------------------------------------------------
# Fitting and scoring


def fit_method(name: str, config: MTRNetConfig, train_data: Dataset):
    """Fit one method on (possibly missing-treatment) training data; returns
    an object exposing predict_cate. A baseline first makes the data complete
    with its strategy, then fits its estimator on the result. Callees are
    looked up on their modules at call time, where a tracer can wrap them."""
    method = METHODS[canonical_method(name)]
    if method.estimator == "mtrnet":
        model, _ = mtrnet.train(train_data, config)
        return model
    complete, weights = baselines.apply_strategy(train_data, method.strategy)
    if method.estimator == "ols":
        return baselines.ols_fit(complete, weights)
    fit = baselines.tarnet_train if method.estimator == "tarnet" else baselines.cfrmmd_train
    model, _ = fit(complete, weights, config)
    return model


def selection_score(model, val_data: Dataset, selection_metric: str) -> float:
    tau_hat = model.predict_cate(val_data.x)
    if selection_metric == "pehe_nn":
        return metricsmod.pehe_nn(tau_hat, val_data.x, val_data.t, val_data.y)
    if selection_metric == "policy_risk":
        return metricsmod.policy_risk(tau_hat, val_data.y, val_data.t, val_data.e)
    raise ValueError(f"unknown selection metric {selection_metric!r}")


def default_selection_metric(d: Dataset) -> str:
    # Surrogate-effect error needs only factual observed data; switch to
    # policy risk when a randomized subset is the only evaluable signal.
    if d.e is not None and np.any(d.e == 1) and d.tau is None and (d.y0 is None or d.y1 is None):
        return "policy_risk"
    return "pehe_nn"


def cross_validate(train_data: Dataset, val_data: Dataset, method: MethodSpec,
                   seed: int, selection_metric: str):
    """Score every grid point on the validation split; return
    (best_overrides, scores). Failures score +inf; ties keep grid order."""
    points = method.grid_points()
    scores = []
    causes = []
    for overrides in points:
        config = replace(method.base_config, **overrides, seed=seed)
        try:
            model = fit_method(method.name, config, train_data)
            score = float(selection_score(model, val_data, selection_metric))
            if not np.isfinite(score):
                score = float("inf")
        except (ValueError, RuntimeError) as exc:
            score = float("inf")
            causes.append(f"{overrides}: {exc}")
        scores.append(score)
    if not np.any(np.isfinite(scores)):
        raise AllFailedError(causes or ["empty grid"])
    best = int(np.argmin(scores))
    return dict(points[best]), scores


# ---------------------------------------------------------------------------
# Runs


@dataclass
class RunResult:
    method: str
    run_index: int
    seed: int
    hyperparameters: dict
    report: EvalReport
    wall_clock_s: float = 0.0

    def to_dict(self) -> dict:
        # wall clock intentionally excluded: result files must be bitwise
        # reproducible under a fixed master seed
        return {
            "method": self.method,
            "method_label": METHODS[self.method].label,
            "run_index": self.run_index,
            "seed": self.seed,
            "hyperparameters": self.hyperparameters,
            "report": {
                "metrics": self.report.metrics,
                "counts": self.report.counts,
                "metadata": self.report.metadata,
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunResult":
        return cls(
            method=d["method"], run_index=d["run_index"], seed=d["seed"],
            hyperparameters=d["hyperparameters"],
            report=EvalReport(
                metrics=d["report"]["metrics"], counts=d["report"]["counts"],
                metadata=d["report"]["metadata"],
            ),
        )


def _run_dataset(config: ExperimentConfig, run_index: int, base: Dataset | None) -> Dataset:
    """Per-run data: synthetic specs are regenerated, csv data gets a fresh
    missingness pattern when it arrives fully observed."""
    ms = config.master_seed
    if config.dgp is not None:
        d = datamod.generate(replace(config.dgp, seed=derive_seed(ms, run_index, "data")))
    else:
        d = base
    if config.missingness is not None and np.all(d.r == 1):
        spec = replace(config.missingness, seed=derive_seed(ms, run_index, "missingness"))
        d = datamod.apply_missingness(d, spec)
    return d


def _execute_run(config: ExperimentConfig, run_index: int, method: MethodSpec,
                 base: Dataset | None) -> RunResult:
    started = time.perf_counter()
    ms = config.master_seed
    d = _run_dataset(config, run_index, base)
    train, val, test = datamod.split(d, seed=derive_seed(ms, run_index, "split"))
    seed = derive_seed(ms, run_index, method.name)

    selection = default_selection_metric(train)
    points = method.grid_points()
    if len(points) == 1:
        chosen = dict(points[0])
    else:
        chosen, _ = cross_validate(train, val, method, seed, selection)
    final_config = replace(method.base_config, **chosen, seed=seed)
    model = fit_method(method.name, final_config, datamod.concat(train, val))

    wanted = list(config.metrics) or metricsmod.available_metrics(test)
    report = metricsmod.evaluate_predictions(
        test, model.predict_cate(test.x), wanted,
        metadata={
            "method": method.label,
            "run_index": run_index,
            "seed": seed,
            "selection_metric": selection,
            "m": None if config.missingness is None else config.missingness.m,
            "q": None if config.missingness is None else config.missingness.q,
        },
    )
    return RunResult(
        method=method.name, run_index=run_index, seed=seed,
        hyperparameters=chosen, report=report,
        wall_clock_s=time.perf_counter() - started,
    )


def _job(args):
    config_dict, run_index, method_dict, csv_path = args
    config = ExperimentConfig.from_dict(config_dict)
    method = MethodSpec.from_dict(method_dict, config.preset)
    base = datamod.load_csv(csv_path) if csv_path else None
    return _execute_run(config, run_index, method, base)


def run_experiment(config: ExperimentConfig, jobs: int = 1, log=sys.stderr):
    """All (run, method) combinations. Per-job failures are recorded and the
    experiment only aborts once at least half of the jobs have failed."""
    config.validate()
    base = datamod.load_csv(config.csv_path) if config.csv_path else None
    tasks = [(run, method) for run in range(config.num_runs) for method in config.methods]
    results: list[RunResult] = []
    failures: list[dict] = []

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                (run, method, pool.submit(
                    _job, (config.to_dict(), run, method.to_dict(), config.csv_path)))
                for run, method in tasks
            ]
            for run, method, future in futures:
                try:
                    results.append(future.result())
                except (ValueError, RuntimeError) as exc:
                    failures.append({"method": method.name, "run_index": run, "error": str(exc)})
    else:
        for run, method in tasks:
            try:
                results.append(_execute_run(config, run, method, base))
            except (ValueError, RuntimeError) as exc:
                failures.append({"method": method.name, "run_index": run, "error": str(exc)})

    if failures and len(failures) * 2 >= len(tasks):
        raise ExperimentFailedError(
            f"{len(failures)} of {len(tasks)} runs failed; first: {failures[0]}"
        )
    results.sort(key=lambda r: (r.run_index, r.method))
    if log is not None:
        total = sum(r.wall_clock_s for r in results)
        print(f"[mtcate] {len(results)} runs ok, {len(failures)} failed, "
              f"{total:.1f}s of fit time", file=log)
    return results, failures


# ---------------------------------------------------------------------------
# Aggregation and sweeps


def aggregate(results) -> list[dict]:
    """Mean and sample std (n-1 denominator, zero for a single run) per
    (method, metric, domain)."""
    cells: dict[tuple, list[float]] = {}
    for res in results:
        for metric, by_split in res.report.metrics.items():
            for split, value in by_split.items():
                if value is not None:
                    cells.setdefault((res.method, metric, split), []).append(value)
    rows = []
    for (method, metric, split), values in sorted(cells.items()):
        arr = np.asarray(values)
        rows.append({
            "method": METHODS[method].label,
            "metric": metric,
            "domain": split,
            "mean": float(arr.mean()),
            "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            "n_runs": int(arr.size),
        })
    return rows


def sweep_m(config: ExperimentConfig, m_values, jobs: int = 1, log=sys.stderr):
    """Rerun the experiment for each missing fraction, holding q and the
    master-seed policy fixed. Returns long-format rows
    (method, m, metric_domain, mean, std)."""
    if config.missingness is None:
        raise ValueError("sweep_m needs a missingness spec in the config")
    m_values = list(m_values)
    bad = [m for m in m_values if not (0.0 < m < 1.0)]
    if bad:
        raise ValueError(f"m values must lie in (0,1), got {bad}")
    rows = []
    for m in m_values:
        sub = replace(config, missingness=replace(config.missingness, m=float(m)))
        results, _ = run_experiment(sub, jobs=jobs, log=log)
        for agg in aggregate(results):
            rows.append({
                "method": agg["method"],
                "m": float(m),
                "metric": f"{agg['metric']}.{agg['domain']}",
                "mean": agg["mean"],
                "std": agg["std"],
            })
    return rows


# ---------------------------------------------------------------------------
# File output (all deterministic)


def write_results(out_dir, results, failures, dataset_label: str = "synthetic") -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.jsonl", "w") as fh:
        for res in results:
            fh.write(json.dumps(res.to_dict(), sort_keys=True) + "\n")
    with open(out / "aggregate.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "dataset", "metric", "domain", "mean", "std", "n_runs"])
        for row in aggregate(results):
            writer.writerow([
                row["method"], dataset_label, row["metric"], row["domain"],
                repr(row["mean"]), repr(row["std"]), row["n_runs"],
            ])
    if failures:
        with open(out / "failures.json", "w") as fh:
            json.dump(failures, fh, sort_keys=True, indent=2)


def write_sweep(out_dir, rows) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep_m.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "m", "metric", "mean", "std"])
        for row in rows:
            writer.writerow([
                row["method"], repr(row["m"]), row["metric"],
                repr(row["mean"]), repr(row["std"]),
            ])


def read_results_jsonl(path) -> list[RunResult]:
    out = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                out.append(RunResult.from_dict(json.loads(line)))
    return out
