"""Experiment orchestration: seeded per-run pipelines (generate, mask, split,
cross-validate, retrain, evaluate), grid search, missing-fraction sweeps and
Table-style aggregation. Every byte written to disk is a deterministic
function of the config and master seed; timings go to the log only.

Selection runs only when there is a choice. A method with a one-point grid
(every OLS method, or any single explicit override) is fitted once, on
train+val, with no cross-validation; so that point cannot fail on the train
split alone.

The unit of work is one fit. `run_experiment` queues a task per grid point
of every multi-point (run, method) pair (fit on train, score on val) and,
once a pair's points have returned, picks its point with `cross_validate`
and queues its refit (on train+val, evaluated on test). A task carries its
run index, not data: each process is served the experiment once, and a task
returns its value or error and builds its run's data from the served config
and seeds unless its process already holds them (tasks of one run share one
read-only copy), so it runs inline (`jobs=1`, which never loads the pool's
modules) or on a process pool (`jobs>1`) to the same bytes."""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import baselines, data as datamod, metrics as metricsmod, mtrnet
from .data import DataSpec, Dataset, MissingnessSpec, SyntheticDGPSpec
from .errors import (
    AllFailedError, ExperimentFailedError, Spec, check_count, check_keys, decode, encode,
)
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
    if isinstance(grid, (list, tuple)):
        return [dict(g) for g in grid]
    keys = list(grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


DESK_GRIDS = {
    "mtrnet": {"learning_rate": [1e-2, 1e-3], "alpha": [0.5, 2.0], "beta": [0.5, 2.0]},
    "ols": ({},),
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
    "ols": ({},),
    "tarnet": dict(PAPER_GRID_COMMON),
    "cfrmmd": {**PAPER_GRID_COMMON, "alpha": _ALPHA_RANGE},
}
PRESETS = {"desk": DESK_GRIDS, "paper": PAPER_GRIDS}


def _preset_grids(preset: str) -> dict:
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; known: {sorted(PRESETS)}")
    return PRESETS[preset]


# the seed is derived per run, so a grid may vary every other field
_GRID_KEYS = frozenset(f.name for f in fields(MTRNetConfig)) - {"seed"}


@dataclass(frozen=True)
class MethodSpec:
    name: str  # method key, canonicalized on construction
    grid: tuple = ({},)  # tuple of override dicts, or a {param: values} mapping
    base_config: MTRNetConfig = field(default_factory=MTRNetConfig)

    def __post_init__(self):  # typed as at load: a dict base_config builds the config
        object.__setattr__(self, "name", canonical_method(decode(self.name, str, "name")))
        object.__setattr__(self, "base_config",
                           decode(self.base_config, MTRNetConfig, "base_config"))
        where = f"{self.name} grid"
        base = self.base_config.to_dict()

        def typed(key, value):  # as its field's type: an int alpha becomes a float
            return getattr(MTRNetConfig.from_dict({**base, key: value}, where), key)

        if isinstance(self.grid, dict):
            bad = sorted(k for k, v in self.grid.items() if not (isinstance(v, list) and v))
            if bad:
                raise ValueError(f"{where} key(s) {bad} must map to a non-empty list")
            check_keys(self.grid, _GRID_KEYS, where)
            grid = {k: [typed(k, v) for v in vs] for k, vs in self.grid.items()}  # not expanded
        else:
            points = decode(self.grid, tuple[dict, ...], where)
            if not points:
                raise ValueError(f"{where} has no points")
            check_keys([k for point in points for k in point], _GRID_KEYS, where)
            grid = tuple({k: typed(k, v) for k, v in point.items()} for point in points)
        object.__setattr__(self, "grid", grid)

    @property
    def label(self) -> str:
        return METHODS[self.name].label

    def grid_points(self) -> list[dict]:
        # expanded on demand: the full tuning preset is huge
        return expand_grid(self.grid)

    def to_dict(self) -> dict:
        return {"name": self.name, "grid": encode(self.grid), "config": self.base_config.to_dict()}

    @classmethod
    def from_dict(cls, d: dict, preset: str = "desk") -> "MethodSpec":
        """Decodes a method object; a method without a grid takes its
        estimator's grid from `preset`. Building the spec checks and types
        the grid."""
        check_keys(d, ("name", "grid", "config"), "method", required=("name",))
        name = canonical_method(decode(d["name"], str, "method.name"))
        grid = d.get("grid")
        return cls(name=name, base_config=MTRNetConfig.from_dict(d.get("config", {}),
                                                                 f"{name} config"),
                   grid=_preset_grids(preset)[METHODS[name].estimator] if grid is None else grid)


@dataclass(frozen=True)
class ExperimentConfig(Spec):
    dgp: SyntheticDGPSpec | None
    csv_path: str | None
    methods: tuple[MethodSpec, ...]
    missingness: MissingnessSpec | None = None  # None keeps the data's own labels
    num_runs: int = 10
    master_seed: int = 0
    metrics: tuple[str, ...] = ()  # empty means: use whatever the data supports
    preset: str = "desk"

    @property
    def data(self) -> DataSpec:
        return DataSpec(self.dgp, self.csv_path, self.missingness)

    def validate(self) -> None:
        self.data  # building the DataSpec checks the data block
        _preset_grids(self.preset)
        if not self.methods:
            raise ValueError("at least one method is required")
        check_count("num_runs", self.num_runs, 1)
        check_keys(self.metrics, metricsmod.METRICS, "metric")

    def to_dict(self) -> dict:
        d = super().to_dict()
        source = {"synthetic": d.pop("dgp"), "csv": d.pop("csv_path")}
        return {"data": {k: v for k, v in source.items() if v is not None}, **d}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The `data` block holds the source; every other key but `methods`
        is a field, which building the config types by its annotation."""
        scalars = ("missingness", "num_runs", "master_seed", "metrics", "preset")
        check_keys(d, ("data", "methods", *scalars), "experiment config",
                   required=("data", "methods"))
        src = decode(d["data"], dict, "data")
        check_keys(src, ("synthetic", "csv"), "data")
        data = DataSpec.from_dict(src, "data")
        given = {k: d[k] for k in scalars if k in d}
        preset = decode(given.get("preset", cls.preset), str, "preset")
        methods = decode(d["methods"], tuple[dict, ...], "methods")
        return cls(dgp=data.synthetic, csv_path=data.csv,
                   methods=tuple(MethodSpec.from_dict(m, preset) for m in methods), **given)


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
    """The model's validation score, lower is better. It reads the public
    treatment column `t` alone, so model selection never sees the hidden
    labels: its `policy_risk` averages outcomes over the rows whose treatment
    is observed, where `METRICS["policy_risk"]` scores a test split on
    `t_true` when the split carries it."""
    tau_hat = model.predict_cate(val_data.x)
    if selection_metric == "pehe_nn":
        return metricsmod.pehe_nn(tau_hat, val_data.x, val_data.t, val_data.y)
    if selection_metric == "policy_risk":
        return metricsmod.policy_risk(tau_hat, val_data.y, val_data.t, val_data.e)
    raise ValueError(f"unknown selection metric {selection_metric!r}")


def cross_validate(points: list[dict], outcomes) -> tuple[dict, list[float]]:
    """The choice among grid points (`method.grid_points()`, expanded once by
    the caller); returns (best_overrides, scores). `outcomes[i]` is point i's
    validation score or the error its fit raised. A failed or non-finite
    point scores +inf, ties keep grid order, and when every point fails the
    AllFailedError lists every cause."""
    scores = []
    causes = []
    for overrides, outcome in zip(points, outcomes):
        if isinstance(outcome, Exception):
            causes.append(f"{overrides}: {outcome}")
            outcome = float("inf")
        elif not np.isfinite(outcome):
            causes.append(f"{overrides}: score {outcome}")
            outcome = float("inf")
        scores.append(float(outcome))
    if not np.any(np.isfinite(scores)):
        raise AllFailedError(causes or ["empty grid"])
    best = int(np.argmin(scores))
    return dict(points[best]), scores


# ---------------------------------------------------------------------------
# Runs


@dataclass
class RunResult(Spec):
    method: str
    run_index: int
    seed: int
    hyperparameters: dict
    report: EvalReport

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"result: unknown method {self.method!r}; known: {sorted(METHODS)}")

    def to_dict(self) -> dict:
        return {**super().to_dict(), "method_label": METHODS[self.method].label}

    @classmethod
    def from_dict(cls, d) -> "RunResult":  # a non-object fails in Spec.from_dict
        result = super().from_dict({k: v for k, v in d.items() if k != "method_label"}
                                   if isinstance(d, dict) else d, "result")
        label = METHODS[result.method].label
        if d.get("method_label", label) != label:  # d is an object here
            raise ValueError(f"result: method_label {d['method_label']!r} is not the label of "
                             f"method {result.method!r}, {label!r}")
        return result


def _run_spec(config: ExperimentConfig, run_index: int) -> DataSpec:
    """The run's data spec, with the synthetic draw and the mask seeded per run."""
    ms = config.master_seed
    return config.data.reseeded(derive_seed(ms, run_index, "data"),
                                derive_seed(ms, run_index, "missingness"))


# The experiment this process serves its tasks: its "config", its CSV "base"
# (or None) and the last "run" built, as (run index, (train, val, test)).
# `run_experiment` empties it when the experiment ends.
_served: dict = {}


def _serve(config: ExperimentConfig, base: Dataset | None) -> None:
    """Hold `config` and its CSV `base` for the tasks this process runs."""
    _served.update(config=config, base=base, run=(None, ()))


def _run_splits(run_index: int, method: MethodSpec):
    """(train, val, test, method seed) of one run of the served experiment,
    built once per run in each process through the one loader and shared
    read-only by the run's tasks until a task of another run, or the end of
    `run_experiment`, drops them."""
    config = _served["config"]
    ms = config.master_seed
    if _served["run"][0] != run_index:
        data = datamod.load_dataset(_run_spec(config, run_index), _served["base"])
        splits = datamod.split(data, seed=derive_seed(ms, run_index, "split"))
        for part in splits:
            for column in (*part.columns().values(), part.r):
                column.setflags(write=False)
        _served["run"] = (run_index, splits)
    return (*_served["run"][1], derive_seed(ms, run_index, method.name))


def _score_task(run_index: int, method: MethodSpec, point: dict) -> float:
    """One grid point of a multi-point pair, fitted on train and scored on
    val."""
    train, val, _, seed = _run_splits(run_index, method)
    model = fit_method(method.name, replace(method.base_config, **point, seed=seed), train)
    selection = metricsmod.selection_metric(metricsmod.carried_fields(train))
    return float(selection_score(model, val, selection))


def _execute_run(run_index: int, method: MethodSpec, point: dict) -> RunResult:
    """A pair's chosen point fitted on train+val and evaluated on test by the
    metrics test can give; when it can give none, the pair fails unfitted."""
    config = _served["config"]
    train, val, test, seed = _run_splits(run_index, method)
    wanted = metricsmod.resolve_metrics(config.metrics, metricsmod.carried_fields(test))
    final_config = replace(method.base_config, **point, seed=seed)
    model = fit_method(method.name, final_config, datamod.concat(train, val))
    report = metricsmod.evaluate_predictions(
        test, model.predict_cate(test.x), wanted,
        metadata={
            "method": method.label,
            "run_index": run_index,
            "seed": seed,
            "selection_metric": metricsmod.selection_metric(metricsmod.carried_fields(train)),
            "m": None if config.missingness is None else config.missingness.m,
            "q": None if config.missingness is None else config.missingness.q,
        },
    )
    return RunResult(method=method.name, run_index=run_index, seed=seed,
                     hyperparameters=dict(point), report=report)


def _run_task(task):
    """A (step, run_index, method, point) task; returns the step's value, or
    the ValueError/RuntimeError it raised."""
    step, *args = task
    try:
        return step(*args)
    except (ValueError, RuntimeError) as exc:
        return exc


def _job(task):
    """One task in a pool worker."""
    return _run_task(task)


def _process_pool(jobs: int):
    """A pool of `jobs` worker processes, each served this process's
    experiment once by its initializer. Its modules, multiprocessing among
    them, are loaded here, so a run without workers never loads them."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=jobs, initializer=_serve,
                               initargs=(_served["config"], _served["base"]))


def run_experiment(config: ExperimentConfig, jobs: int = 1, log=sys.stderr):
    """All (run, method) pairs as one pipeline of tasks, on `jobs` worker
    processes when jobs > 1 (only then is the pool loaded) and inline
    otherwise. A metric the data cannot give fails before the first fit.
    A pool gets every point of every multi-point grid up front, in pair
    order (inline, a pair's points run just before its refit, so each run's
    data is built once); once a pair's own points have returned,
    cross_validate picks its point, and the refit on train+val with its test
    evaluation (all a one-point pair runs) queues behind the points still
    pending. Every task runs. Failures (a dead worker's BrokenProcessPool
    included) are recorded in pair order, and once every pair has finished,
    ExperimentFailedError is raised if at least half of them failed;
    otherwise returns (results, failures)."""
    jobs = check_count("jobs", jobs, 1)
    started = time.perf_counter()
    base = datamod.load_csv(config.csv_path) if config.csv_path else None
    # the fields of every run's data: the CSV's, or a draw's (e = 1 rows only in an RCT)
    fields = (metricsmod.carried_fields(base) if base is not None
              else {"y0", "y1", "tau"} | ({"e"} if config.dgp.rct else set()))
    metricsmod.resolve_metrics(config.metrics, fields)  # before the first fit
    pairs = [(run, method) for run in range(config.num_runs) for method in config.methods]
    grids = [method.grid_points() for method in config.methods] * config.num_runs

    _serve(config, base)  # this process's tasks, and each worker once, read it
    pool = None
    try:
        if jobs == 1:  # a task runs as it is submitted, and what it returns is its outcome
            submit, outcome = _run_task, lambda task: task
        else:
            from concurrent.futures.process import BrokenProcessPool
            pool = _process_pool(jobs)

            def submit(task):  # a pool that broke before the task was queued is its error
                try:
                    return pool.submit(_job, task)
                except BrokenProcessPool as exc:
                    return exc

            def outcome(task):  # a dead worker's BrokenProcessPool is the error of its task
                try:
                    return task if isinstance(task, Exception) else task.result()
                except BrokenProcessPool as exc:
                    return exc
        scored = ([submit((_score_task, *pair, point)) for point in points]
                  if len(points) > 1 else [] for pair, points in zip(pairs, grids))
        scored = scored if pool is None else list(scored)
        refits = []
        for pair, points, pending in zip(pairs, grids, scored):
            try:
                point = points[0] if len(points) == 1 else cross_validate(
                    points, [outcome(task) for task in pending])[0]
                refits.append(submit((_execute_run, *pair, point)))
            except AllFailedError as exc:
                refits.append(exc)
        outcomes = [outcome(task) for task in refits]
    finally:  # an escaping error leaves no queued task to wait for
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        _served.clear()  # no later experiment sees this one's data

    failures = [{"method": method.name, "run_index": run, "error": str(outcome)}
                for (run, method), outcome in zip(pairs, outcomes)
                if isinstance(outcome, Exception)]
    if failures and len(failures) * 2 >= len(pairs):
        raise ExperimentFailedError(f"{len(failures)} of {len(pairs)} runs failed; "
                                    f"first: {failures[0]}")
    results = sorted((outcome for outcome in outcomes if not isinstance(outcome, Exception)),
                     key=lambda r: (r.run_index, r.method))
    if log is not None:
        print(f"[mtcate] {len(results)} runs ok, {len(failures)} failed "
              f"in {time.perf_counter() - started:.1f}s", file=log)
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
    master-seed policy fixed. Returns [(m, results, failures), ...] in the
    order of m_values."""
    if config.missingness is None:
        raise ValueError("sweep_m needs a missingness spec in the config")
    m_values = [float(m) for m in m_values]
    if not m_values:
        raise ValueError("m_values must not be empty")
    # every m's config is built, and so checked, before the first experiment
    configs = [replace(config, missingness=replace(config.missingness, m=m)) for m in m_values]
    labels = [f"m_{m:g}" for m in m_values]  # each m's directory in write_sweep
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ValueError(f"m values must be distinct; repeated: {repeated}")
    return [(m, *run_experiment(sub, jobs=jobs, log=log)) for m, sub in zip(m_values, configs)]


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
    else:  # an earlier run's failures no longer describe this one
        (out / "failures.json").unlink(missing_ok=True)


def write_sweep(out_dir, sweep, dataset_label: str = "synthetic") -> None:
    """Each m's experiment under m_<m>/ (as write_results writes it), plus the
    long-format sweep_m.csv: one (method, m, metric.domain, mean, std) row per
    aggregate cell."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for m, results, failures in sweep:
        write_results(out / f"m_{m:g}", results, failures, dataset_label)
    with open(out / "sweep_m.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "m", "metric", "mean", "std"])
        for m, results, _ in sweep:
            for row in aggregate(results):
                writer.writerow([
                    row["method"], repr(m), f"{row['metric']}.{row['domain']}",
                    repr(row["mean"]), repr(row["std"]),
                ])


def read_results_jsonl(path) -> list[RunResult]:
    """The results in a results.jsonl file; a line that is not JSON or not
    a valid result raises a ValueError that starts with `path:line`."""
    out = []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    out.append(RunResult.from_dict(json.loads(line)))
                except ValueError as exc:
                    raise ValueError(f"{path}:{number}: {exc}") from exc
    return out
