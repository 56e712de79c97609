import json
import os
import pickle
import re
import subprocess
import sys
import time
import uuid
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mtcate import data as dm, harness
from mtcate.data import MissingnessSpec, OutcomeSpec, SyntheticDGPSpec
from mtcate.errors import (
    AllFailedError, CsvParseError, ExperimentFailedError, StratumEmptyError, TrainingDivergedError,
)
from mtcate.harness import (
    METHODS, ExperimentConfig, MethodSpec, RunResult, aggregate, canonical_method,
    cross_validate, derive_seed, expand_grid, read_results_jsonl, run_experiment,
    sweep_m, write_results, write_sweep,
)
from mtcate.metrics import METRICS, EvalReport
from mtcate.mtrnet import MTRNetConfig
from mtcate.trend import trend_config


def linear_dgp(n=200, d=3, seed=0, noise=0.0):
    return SyntheticDGPSpec(
        n=n, d=d, propensity=tuple([0.3] * d),
        outcome0=OutcomeSpec(kind="linear", intercept=0.0, linear=tuple([1.0] * d)),
        outcome1=OutcomeSpec(kind="linear", intercept=1.0, linear=tuple([0.5] * d)),
        noise_sd=noise, seed=seed,
    )


def tiny_net_config(**kwargs):
    base = dict(rep_layer_size=8, hyp_layer_size=8, iterations=15, batch_size=48,
                learning_rate=1e-2, dropout_rate=0.0, l2_lambda=1e-4)
    base.update(kwargs)
    return MTRNetConfig(**base)


def experiment_config(methods, num_runs=2, master_seed=7, n=200):
    return ExperimentConfig(
        dgp=linear_dgp(n=n), csv_path=None,
        missingness=MissingnessSpec(m=0.3, q=0.6),
        methods=tuple(methods), num_runs=num_runs, master_seed=master_seed,
    )


def test_method_name_handling():
    assert canonical_method("TARNet_del") == "tarnet_del"
    assert METHODS[canonical_method("OLS_rew")] == ("OLS_rew", "ols", "reweight")
    assert METHODS["mtrnet"] == ("MTRNet", "mtrnet", None)
    assert len(METHODS) == 10  # MTRNet plus 3 estimators x 3 strategies
    with pytest.raises(ValueError):
        canonical_method("causal_forest")


def test_derive_seed_stable_and_distinct():
    a = derive_seed(1, 0, "mtrnet")
    assert a == derive_seed(1, 0, "mtrnet")
    assert a != derive_seed(1, 1, "mtrnet")
    assert a != derive_seed(1, 0, "ols_del")
    assert a != derive_seed(2, 0, "mtrnet")


def test_expand_grid_order():
    grid = {"a": [1, 2], "b": [10, 20]}
    points = expand_grid(grid)
    assert points == [{"a": 1, "b": 10}, {"a": 1, "b": 20}, {"a": 2, "b": 10}, {"a": 2, "b": 20}]
    assert expand_grid([{"a": 1}]) == [{"a": 1}]
    # a grid has one representation: no grid is the one default point
    assert MethodSpec("ols_del").grid_points() == [{}]
    assert MethodSpec.from_dict({"name": "ols_del"}, "paper").grid_points() == [{}]
    with pytest.raises(ValueError, match="no points"):
        MethodSpec.from_dict({"name": "ols_del", "grid": []})


def test_experiment_config_json_roundtrip():
    cfg = experiment_config([MethodSpec("ols_del", grid=({},))])
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


@pytest.mark.parametrize("method, bad_key", [
    ({"name": "tarnet_del", "grid": [{"learnin_rate": 0.1}]}, "learnin_rate"),
    ({"name": "tarnet_del", "grid": {"learning_rate": [0.1], "seed": [1, 2]}}, "seed"),
    ({"name": "mtrnet", "config": {"alpah": 2.0}}, "alpah"),
])
def test_typo_hyperparameter_key_fails_at_load(method, bad_key):
    cfg = experiment_config([MethodSpec("ols_del", grid=({},))]).to_dict()
    cfg["methods"].append(method)
    with pytest.raises(ValueError, match=bad_key):
        ExperimentConfig.from_dict(cfg)


@pytest.mark.parametrize("block, bad_key", [
    ((), "num_run"),
    (("data",), "cvs"),
    (("data", "synthetic"), "noise_SD"),
    (("data", "synthetic", "outcome0"), "jmp"),
    (("missingness",), "Q"),
    (("methods", 0), "gird"),
])
def test_typo_config_key_fails_at_load(block, bad_key):
    cfg = experiment_config([MethodSpec("ols_del", grid=({},))]).to_dict()
    target = cfg
    for key in block:
        target = target[key]
    target[bad_key] = 1.0
    with pytest.raises(ValueError, match=re.escape(repr([bad_key]))):
        ExperimentConfig.from_dict(cfg)


def test_unknown_metric_name_fails_at_load():
    cfg = experiment_config([MethodSpec("ols_del", grid=({},))]).to_dict()
    cfg["metrics"] = ["sqrt_pehe", "sqrt_pehee"]
    with pytest.raises(ValueError, match=re.escape(repr(["sqrt_pehee"]))):
        ExperimentConfig.from_dict(cfg)


def test_typo_hyperparameter_key_never_reaches_run_experiment():
    with pytest.raises(ValueError, match="learnin_rate"):
        run_experiment(experiment_config([
            MethodSpec("ols_del", grid=({},)),
            MethodSpec("tarnet_del", grid=({"learnin_rate": 0.1},), base_config=tiny_net_config()),
        ]), log=None)


def cv_on(train_d, val_d, method, seed):
    """cross_validate over the method's grid, each point fitted on train_d
    and scored on val_d inline; a point passes its score or caught error."""
    def score(point):
        config = replace(method.base_config, **point, seed=seed)
        try:
            return harness.selection_score(harness.fit_method(method.name, config, train_d),
                                           val_d, "pehe_nn")
        except (ValueError, RuntimeError) as exc:
            return exc

    points = method.grid_points()
    return cross_validate(points, [score(point) for point in points])


class FixedEffects:
    """A fitted model whose CATE estimate is the first covariate."""

    def predict_cate(self, x):
        return x[:, 0]


def test_selection_policy_risk_reads_public_t_where_the_metric_reads_t_true():
    # rows 1 and 4 hide their treatment; rows 6 and 7 lie outside the e = 1 subset
    val = dm.Dataset(x=np.array([[1.0], [1.0], [1.0], [-1.0], [-1.0], [-1.0], [1.0], [-1.0]]),
                     t=np.array([1.0, np.nan, 0.0, 0.0, np.nan, 1.0, 1.0, 0.0]),
                     y=np.array([2.0, 4.0, 0.0, 1.0, 3.0, 5.0, 10.0, 10.0]),
                     e=np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0]),
                     t_true=np.array([1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0]))
    model = FixedEffects()
    # policy value 0.5 * mean y(treated, tau_hat > 0) + 0.5 * mean y(control, tau_hat <= 0)
    assert harness.selection_score(model, val, "policy_risk") == 1.0 - (0.5 * 2.0 + 0.5 * 1.0)
    assert METRICS["policy_risk"].score(val, model.predict_cate(val.x)) \
        == 1.0 - (0.5 * 3.0 + 0.5 * 2.0)


def test_cross_validate_singleton_grid():
    d = dm.apply_missingness(dm.generate(linear_dgp(seed=2)), MissingnessSpec(m=0.3, q=0.6, seed=1))
    train_d, val_d, _ = dm.split(d, seed=3)
    method = MethodSpec("ols_del", grid=({},))
    chosen, scores = cv_on(train_d, val_d, method, seed=5)
    assert chosen == {}
    assert len(scores) == 1 and np.isfinite(scores[0])


def test_cross_validate_prefers_sane_learning_rate():
    d = dm.apply_missingness(dm.generate(linear_dgp(seed=4)), MissingnessSpec(m=0.3, q=0.6, seed=2))
    train_d, val_d, _ = dm.split(d, seed=5)
    method = MethodSpec(
        "tarnet_del",
        grid=({"learning_rate": 1e8}, {"learning_rate": 1e-2}),
        base_config=tiny_net_config(),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        chosen, scores = cv_on(train_d, val_d, method, seed=6)
    assert chosen == {"learning_rate": 1e-2}
    assert scores[1] < scores[0]


def test_cross_validate_deterministic():
    d = dm.apply_missingness(dm.generate(linear_dgp(seed=6)), MissingnessSpec(m=0.3, q=0.6, seed=3))
    train_d, val_d, _ = dm.split(d, seed=7)
    method = MethodSpec("mtrnet", grid=({"alpha": 0.5}, {"alpha": 2.0}), base_config=tiny_net_config())
    first = cv_on(train_d, val_d, method, seed=8)
    second = cv_on(train_d, val_d, method, seed=8)
    assert first == second


def test_cross_validate_all_failed():
    d = dm.apply_missingness(dm.generate(linear_dgp(seed=8)), MissingnessSpec(m=0.3, q=0.6, seed=4))
    train_d, val_d, _ = dm.split(d, seed=9)
    one_arm = train_d.subset(np.flatnonzero(train_d.t != 0.0))  # missing rows and t = 1 rows
    method = MethodSpec("tarnet_del", grid=({"learning_rate": 1e-2}, {"learning_rate": 1e-3}),
                        base_config=tiny_net_config())
    with pytest.raises(AllFailedError) as caught:
        cv_on(one_arm, val_d, method, seed=10)
    assert len(caught.value.causes) == 2


def test_run_experiment_counts_and_determinism():
    cfg = experiment_config([
        MethodSpec("ols_del", grid=({},)),
        MethodSpec("ols_rew", grid=({},)),
    ], num_runs=3)
    results, failures = run_experiment(cfg, log=None)
    assert failures == []
    assert len(results) == 3 * 2
    again, _ = run_experiment(cfg, log=None)
    assert [r.to_dict() for r in results] == [r.to_dict() for r in again]


def test_run_experiment_ols_recovers_linear_truth():
    cfg = experiment_config([MethodSpec("ols_del", grid=({},))], num_runs=1, n=400)
    results, _ = run_experiment(cfg, log=None)
    assert results[0].report.metrics["sqrt_pehe"]["overall"] < 0.05


def test_masked_experiment_reports_pehe_nn_as_absent_on_the_missing_split():
    """The t_missing split has no observed treatment, so no nearest-neighbour
    surrogate: its pehe_nn is absent, and no run fails."""
    cfg = replace(experiment_config([MethodSpec("ols_del", grid=({},))]),
                  metrics=("sqrt_pehe", "pehe_nn"))
    results, failures = run_experiment(cfg, log=None)
    assert failures == [] and len(results) == 2
    for res in results:
        assert res.report.metrics["pehe_nn"]["t_missing"] is None
        assert res.report.metrics["pehe_nn"]["t_observed"] >= 0.0
        assert res.report.metrics["sqrt_pehe"]["t_missing"] >= 0.0


def partial_failure_config():
    # m=0.5 leaves exactly 20 of the 40 rows observed, fewer than the 2 x 13
    # that OLS needs for d=12 in both arms, so ols_del fails in every run even
    # on train+val, while the other two methods stay healthy: failures < half,
    # experiment survives.
    return ExperimentConfig(
        dgp=linear_dgp(n=40, d=12), csv_path=None,
        missingness=MissingnessSpec(m=0.5, q=0.5),
        methods=(
            MethodSpec("ols_del", grid=({},)),
            MethodSpec("tarnet_del", grid=({},), base_config=tiny_net_config(iterations=5, batch_size=16)),
            MethodSpec("mtrnet", grid=({},), base_config=tiny_net_config(iterations=5, batch_size=16)),
        ),
        num_runs=2, master_seed=3,
    )


def test_run_experiment_records_partial_failures():
    results, failures = run_experiment(partial_failure_config(), log=None)
    assert {f["method"] for f in failures} == {"ols_del"}
    assert len(results) == 4


def test_pooled_failures_match_serial():
    cfg = partial_failure_config()
    seq, seq_failures = run_experiment(cfg, jobs=1, log=None)
    par, par_failures = run_experiment(cfg, jobs=2, log=None)
    assert len(seq_failures) == 2
    assert par_failures == seq_failures
    assert [r.to_dict() for r in par] == [r.to_dict() for r in seq]


@pytest.mark.parametrize("jobs", [0, -3, 2.5, True, "2"])
def test_run_experiment_and_sweep_reject_nonpositive_jobs(monkeypatch, jobs):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_method called")

    monkeypatch.setattr(harness, "fit_method", no_fit)
    cfg = experiment_config([MethodSpec("ols_del")], num_runs=1)
    with pytest.raises(ValueError, match="jobs"):
        run_experiment(cfg, jobs=jobs, log=None)
    with pytest.raises(ValueError, match="jobs"):
        sweep_m(cfg, [0.5], jobs=jobs, log=None)


def _csv_without_ground_truth(cfg, tmp_path):
    d = dm.generate(linear_dgp())
    dm.save_csv(dm.Dataset(x=d.x, t=d.t, y=d.y), tmp_path / "bare.csv")
    return replace(cfg, dgp=None, csv_path=str(tmp_path / "bare.csv"))


@pytest.mark.parametrize("spoil, named", [
    (lambda cfg, _: replace(cfg, missingness=MissingnessSpec(m=1.5, q=0.9)),
     "m must be in (0,1), got 1.5"),
    (lambda cfg, _: replace(cfg, num_runs=0), "num_runs must be >= 1, got 0"),
    (lambda cfg, _: replace(cfg, preset="bogus"), "unknown preset 'bogus'"),
    (lambda cfg, _: replace(cfg, metrics=("sqrt_pehe", "policy_risk")),
     "metric 'policy_risk' needs field 'e'"),
    (_csv_without_ground_truth, "dataset carries no ground-truth fields"),
    (lambda cfg, tmp_path: replace(_csv_without_ground_truth(cfg, tmp_path),
                                   metrics=("sqrt_pehe_obs",)),
     "metric 'sqrt_pehe_obs' needs field 'y0'"),
], ids=["missingness", "num_runs", "preset", "policy_risk_without_rct", "csv_without_truth",
        "csv_without_y0"])
def test_run_experiment_cannot_start_from_a_bad_config(monkeypatch, tmp_path, spoil, named):
    # the config checks itself when it is built, and data that cannot give
    # the metrics fails before the first fit, so there is nothing to run
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_method called")

    monkeypatch.setattr(harness, "fit_method", no_fit)
    cfg = experiment_config([MethodSpec("ols_del")], num_runs=2)
    with pytest.raises(ValueError, match=re.escape(named)):
        run_experiment(spoil(cfg, tmp_path), log=None)


def test_an_rct_draw_or_a_named_surrogate_metric_passes_the_metric_check(monkeypatch, tmp_path):
    def failing_fit(*args, **kwargs):
        raise RuntimeError("fit_method called")  # recorded as the task's failure

    monkeypatch.setattr(harness, "fit_method", failing_fit)
    cfg = experiment_config([MethodSpec("ols_del")], num_runs=2)
    rct = replace(cfg, dgp=replace(cfg.dgp, rct=True), metrics=("policy_risk",))
    bare = replace(_csv_without_ground_truth(cfg, tmp_path), missingness=None,
                   metrics=("pehe_nn",))
    for passing in (rct, bare):  # past the check, every fit fails
        with pytest.raises(ExperimentFailedError, match="fit_method called"):
            run_experiment(passing, log=None)


def test_a_test_split_that_can_give_no_metric_fails_its_pair(monkeypatch, tmp_path):
    # the CSV's only ground truth is 3 rows at e = 1: the experiment passes
    # the check before the first fit, but no run's test split holds one of
    # them, so each pair fails, unfitted, naming the cause instead of
    # reporting nothing
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_method called")

    monkeypatch.setattr(harness, "fit_method", no_fit)
    d = dm.generate(linear_dgp(n=100))
    rows = dm.Dataset(x=np.arange(100.0)[:, None], t=np.zeros(100), y=np.zeros(100))
    tested = np.concatenate([dm.split(rows, seed=derive_seed(0, run, "split"))[2].x[:, 0]
                             for run in range(3)])
    e = np.zeros(100)
    e[np.setdiff1d(np.arange(100), tested)[:3]] = 1.0
    dm.save_csv(dm.Dataset(x=d.x, t=d.t, y=d.y, e=e), tmp_path / "rct3.csv")
    cfg = ExperimentConfig(dgp=None, csv_path=str(tmp_path / "rct3.csv"),
                           methods=(MethodSpec("ols_del"),), num_runs=3, master_seed=0)
    with pytest.raises(ExperimentFailedError,
                       match="3 of 3 runs failed.*dataset carries no ground-truth fields"):
        run_experiment(cfg, log=None)


def _die_in_worker(task):
    os._exit(1)


@pytest.mark.parametrize("method", [
    MethodSpec("ols_del"),  # dies in its refit, the pair's only task
    MethodSpec("tarnet_del", grid=({}, {"learning_rate": 3e-3}), base_config=tiny_net_config()),
], ids=["one_point", "two_point"])
def test_dead_worker_fails_the_experiment_by_name(monkeypatch, method):
    monkeypatch.setattr(harness, "_job", _die_in_worker)
    cfg = experiment_config([method], num_runs=1)
    with pytest.raises(ExperimentFailedError, match="process pool"):
        run_experiment(cfg, jobs=2, log=None)


class _BrokenPool(ProcessPoolExecutor):
    def submit(self, fn, /, *args, **kwargs):
        raise BrokenProcessPool("the process pool is not usable anymore")


@pytest.mark.parametrize("method", [
    MethodSpec("ols_del"),
    MethodSpec("tarnet_del", grid=({}, {"learning_rate": 3e-3}), base_config=tiny_net_config()),
], ids=["one_point", "two_point"])
def test_a_pool_broken_before_queueing_fails_the_experiment_by_name(monkeypatch, method):
    monkeypatch.setattr(harness, "_process_pool", lambda jobs: _BrokenPool(max_workers=jobs))
    with pytest.raises(ExperimentFailedError, match="process pool"):
        run_experiment(experiment_config([method], num_runs=1), jobs=2, log=None)


def failing_grid_config():
    # With 90% of labels missing, few observed rows are left: MTRNet's
    # batch_size 4 cannot sample both arms in most runs while 6 usually can,
    # and in some runs every point of a pair fails (AllFailedError) or a
    # one-point OLS refit fails, yet fewer than half of the pairs fail.
    cfg = experiment_config([
        MethodSpec("mtrnet", grid=({"batch_size": 4}, {"batch_size": 6}),
                   base_config=tiny_net_config()),
        MethodSpec("tarnet_del", grid=({}, {"learning_rate": 3e-3}), base_config=tiny_net_config()),
        MethodSpec("ols_rew"),
    ], num_runs=8)
    return replace(cfg, missingness=MissingnessSpec(m=0.9, q=0.6))


@pytest.mark.slow
def test_pooled_grid_points_match_serial_bytes_with_failures(tmp_path):
    cfg = failing_grid_config()
    for jobs in (1, 2):
        write_results(tmp_path / f"jobs{jobs}", *run_experiment(cfg, jobs=jobs, log=None))
    failures = json.loads((tmp_path / "jobs1" / "failures.json").read_text())
    assert any(f["error"].startswith("all grid points failed") for f in failures)
    assert any(f["method"] == "ols_rew" for f in failures)  # a one-point refit failed
    results = read_results_jsonl(tmp_path / "jobs1" / "results.jsonl")
    # batch_size 4 scores +inf (or worse) wherever MTRNet survives
    assert {r.hyperparameters["batch_size"] for r in results if r.method == "mtrnet"} == {6}
    for name in ("results.jsonl", "aggregate.csv", "failures.json"):
        assert (tmp_path / "jobs2" / name).read_bytes() == (tmp_path / "jobs1" / name).read_bytes()


def _logging_job(task):
    """harness._job that records each task it runs in a file of its own."""
    step, run, method, point = task
    record = json.dumps([step.__name__, run, method.name, point], sort_keys=True)
    (Path(os.environ["JOB_LOG_DIR"]) / uuid.uuid4().hex).write_text(record)
    return harness._run_task(task)


def test_pool_runs_one_job_per_grid_point_plus_one_per_pair(tmp_path, monkeypatch):
    grids = {"mtrnet": ({"alpha": 0.5}, {"alpha": 2.0}),
             "tarnet_del": ({}, {"learning_rate": 3e-3}, {"learning_rate": 3e-2}),
             "ols_rew": ({},)}
    cfg = experiment_config([MethodSpec(name, grid=grid, base_config=tiny_net_config())
                             for name, grid in grids.items()], num_runs=2)
    monkeypatch.setenv("JOB_LOG_DIR", str(tmp_path))
    monkeypatch.setattr(harness, "_job", _logging_job)
    pooled, failures = run_experiment(cfg, jobs=2, log=None)
    assert failures == []
    jobs = sorted(path.read_text() for path in tmp_path.iterdir())
    expected = []
    for res in pooled:
        grid = grids[res.method]
        if len(grid) > 1:
            expected += [["_score_task", res.run_index, res.method, p] for p in grid]
        expected.append(["_execute_run", res.run_index, res.method, res.hyperparameters])
    assert jobs == sorted(json.dumps(job, sort_keys=True) for job in expected)
    assert len(jobs) == 2 * (2 + 1) + 2 * (3 + 1) + 2 * 1
    serial, _ = run_experiment(cfg, jobs=1, log=None)
    assert [r.to_dict() for r in pooled] == [r.to_dict() for r in serial]


def _flagging_job(task):
    """harness._job where run 0's refit touches a flag file as it starts, and
    run 1's last grid point waits up to 20 s for that flag, then records
    whether it appeared."""
    step, run, _, point = task
    flags = Path(os.environ["JOB_LOG_DIR"])
    if step.__name__ == "_execute_run" and run == 0:
        (flags / "refit0").touch()
    elif step.__name__ == "_score_task" and run == 1 and point == {"learning_rate": 3e-3}:
        deadline = time.monotonic() + 20.0
        while not (flags / "refit0").exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        (flags / ("seen" if (flags / "refit0").exists() else "missed")).touch()
    return harness._run_task(task)


def test_a_pairs_refit_does_not_wait_for_later_pairs_points(tmp_path, monkeypatch):
    method = MethodSpec("tarnet_del", grid=({}, {"learning_rate": 3e-3}),
                        base_config=tiny_net_config())
    cfg = experiment_config([method], num_runs=2)
    monkeypatch.setenv("JOB_LOG_DIR", str(tmp_path))
    monkeypatch.setattr(harness, "_job", _flagging_job)
    results, failures = run_experiment(cfg, jobs=2, log=None)
    assert failures == [] and len(results) == 2
    # run 0's refit started while run 1's last point was still running
    assert (tmp_path / "seen").exists()


@pytest.mark.parametrize("exc", [
    TrainingDivergedError(17), StratumEmptyError("randomized subset"),
    CsvParseError(3, "t is empty but r=1"), AllFailedError(["{}: a", "{'alpha': 2.0}: b"]),
])
def test_errors_cross_a_pool_unchanged(exc):
    again = pickle.loads(pickle.dumps(exc))
    assert type(again) is type(exc)
    assert str(again) == str(exc) and vars(again) == vars(exc)


def test_csv_experiment_pooled_bytes_match_serial(tmp_path):
    d = dm.apply_missingness(dm.generate(linear_dgp(seed=5)), MissingnessSpec(m=0.3, q=0.6, seed=2))
    dm.save_csv(d, tmp_path / "data.csv")
    cfg = ExperimentConfig(
        dgp=None, csv_path=str(tmp_path / "data.csv"), missingness=None,
        methods=(MethodSpec("ols_rew"),
                 MethodSpec("tarnet_del", grid=({}, {"learning_rate": 3e-3}),
                            base_config=tiny_net_config())),
        num_runs=2, master_seed=5,
    )
    for jobs in (1, 2):
        write_results(tmp_path / f"jobs{jobs}", *run_experiment(cfg, jobs=jobs, log=None))
    for name in ("results.jsonl", "aggregate.csv"):
        assert (tmp_path / "jobs2" / name).read_bytes() == (tmp_path / "jobs1" / name).read_bytes()


def _recorded(fn, kind: str):
    """`fn`, recording the process id of each call in a file of its own."""
    def call(*args, **kwargs):
        (Path(os.environ["JOB_LOG_DIR"]) / f"{kind}-{uuid.uuid4().hex}").write_text(
            str(os.getpid()))
        return fn(*args, **kwargs)

    call.recorded = True
    return call


def _recording_job(task):
    """harness._job that records each task's pickled size and part types,
    and each CSV read and data build in its process, whatever the start
    method."""
    for name in ("load_csv", "split"):
        if not getattr(getattr(dm, name), "recorded", False):
            setattr(dm, name, _recorded(getattr(dm, name), name))
    record = {"bytes": len(pickle.dumps(task)), "types": [type(part).__name__ for part in task]}
    (Path(os.environ["JOB_LOG_DIR"]) / f"task-{uuid.uuid4().hex}").write_text(json.dumps(record))
    return harness._run_task(task)


def test_pooled_csv_tasks_carry_no_data_and_each_worker_builds_its_run_once(
        tmp_path, monkeypatch):
    d = dm.apply_missingness(dm.generate(linear_dgp(n=2000, seed=5)),
                             MissingnessSpec(m=0.3, q=0.6, seed=2))
    dm.save_csv(d, tmp_path / "data.csv")
    points = tuple({"learning_rate": lr} for lr in (1e-2, 3e-3, 1e-3, 3e-4))
    cfg = ExperimentConfig(
        dgp=None, csv_path=str(tmp_path / "data.csv"),
        methods=(MethodSpec("ols_rew"),
                 MethodSpec("tarnet_del", grid=points, base_config=tiny_net_config())),
        num_runs=1, master_seed=5,
    )
    log = tmp_path / "log"
    log.mkdir()
    monkeypatch.setenv("JOB_LOG_DIR", str(log))
    monkeypatch.setattr(harness, "_job", _recording_job)
    monkeypatch.setattr(dm, "load_csv", _recorded(dm.load_csv, "load_csv"))
    results, failures = run_experiment(cfg, jobs=2, log=None)
    assert failures == [] and len(results) == 2

    def records(kind):
        return [path.read_text() for path in log.glob(f"{kind}-*")]

    assert records("load_csv") == [str(os.getpid())]  # once, in the parent
    assert 1 <= len(records("split")) <= 2  # at most once per worker
    tasks = [json.loads(text) for text in records("task")]
    assert len(tasks) == 4 + 2
    for task in tasks:
        assert task["bytes"] < 1024
        assert not {"Dataset", "ExperimentConfig"} & set(task["types"])
    assert harness._served == {}


# A CSV experiment, pooled then inline, in a fresh interpreter whose pool
# workers start from a forkserver and so share no memory with the parent.
FORKSERVER_EXPERIMENT = """
import json, multiprocessing, sys
from mtcate.harness import ExperimentConfig, run_experiment
multiprocessing.set_start_method("forkserver")
cfg = ExperimentConfig.from_dict(json.loads(sys.argv[1]))
print(json.dumps([[r.to_dict() for r in run_experiment(cfg, jobs=jobs, log=None)[0]]
                  for jobs in (2, 1)]))
"""


def test_pool_workers_are_served_without_fork(tmp_path):
    d = dm.apply_missingness(dm.generate(linear_dgp(seed=5)), MissingnessSpec(m=0.3, q=0.6, seed=2))
    dm.save_csv(d, tmp_path / "data.csv")
    cfg = ExperimentConfig(
        dgp=None, csv_path=str(tmp_path / "data.csv"),
        methods=(MethodSpec("ols_rew"),
                 MethodSpec("tarnet_del", grid=({}, {"learning_rate": 3e-3}),
                            base_config=tiny_net_config())),
        num_runs=2, master_seed=5,
    )
    src = str(Path(harness.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", FORKSERVER_EXPERIMENT, json.dumps(cfg.to_dict())],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    pooled, serial = json.loads(done.stdout)
    assert len(pooled) == 4 and pooled == serial


def test_served_state_is_emptied_however_an_experiment_ends(monkeypatch):
    cfg = partial_failure_config()
    results, failures = run_experiment(cfg, log=None)  # ols_del fails in every run
    assert failures and results
    assert harness._served == {}

    def escaping_fit(name, config, train_data):
        raise TypeError("not recorded as a failure")

    monkeypatch.setattr(harness, "fit_method", escaping_fit)
    with pytest.raises(TypeError):
        run_experiment(cfg, log=None)
    assert harness._served == {}


ONE_POINT_OLS = tuple(MethodSpec(name) for name in ("ols_del", "ols_imp", "ols_rew"))


def test_one_point_methods_share_their_runs_data(monkeypatch):
    generated = []
    generate = dm.generate
    monkeypatch.setattr(dm, "generate", lambda spec: generated.append(spec.seed) or generate(spec))
    results, failures = run_experiment(experiment_config(ONE_POINT_OLS, num_runs=2), log=None)
    assert failures == [] and len(results) == 6
    assert len(generated) == 2 and len(set(generated)) == 2  # once per run, in jobs=1


def test_inline_grid_points_share_their_runs_data(monkeypatch):
    generated = []
    generate = dm.generate
    monkeypatch.setattr(dm, "generate", lambda spec: generated.append(spec.seed) or generate(spec))
    method = MethodSpec("tarnet_del", grid=({}, {"learning_rate": 3e-3}),
                        base_config=tiny_net_config())
    results, failures = run_experiment(experiment_config([method], num_runs=3), log=None)
    assert failures == [] and len(results) == 3
    assert len(generated) == 3 and len(set(generated)) == 3  # once per run, in jobs=1


def test_shared_data_is_dropped_when_an_experiment_ends():
    run_experiment(experiment_config(ONE_POINT_OLS, num_runs=1), log=None)
    assert harness._served == {}
    cfg = replace(partial_failure_config(), methods=(MethodSpec("ols_del"),))
    with pytest.raises(ExperimentFailedError):
        run_experiment(cfg, log=None)
    assert harness._served == {}


def test_shared_columns_are_read_only(monkeypatch):
    cfg = experiment_config([MethodSpec("ols_del", grid=({}, {}))], num_runs=1)
    harness._serve(cfg, None)
    splits = harness._run_splits(0, cfg.methods[0])[:3]
    harness._served.clear()
    for part in splits:
        assert not any(v.flags.writeable for v in (*part.columns().values(), part.r))

    def mutating_fit(name, config, train_data):
        train_data.y[0] = 0.0

    monkeypatch.setattr(harness, "fit_method", mutating_fit)
    with pytest.raises(ExperimentFailedError, match="read-only"):
        run_experiment(cfg, log=None)


def test_back_to_back_csv_experiments_write_what_each_writes_alone(tmp_path):
    """Two CSV files at one path, and one run, so that the second
    experiment's first run has the key of the first experiment's last."""
    path = tmp_path / "data.csv"
    cfg = ExperimentConfig(dgp=None, csv_path=str(path), methods=ONE_POINT_OLS,
                           num_runs=1, master_seed=5)

    def written(seed, out):
        d = dm.apply_missingness(dm.generate(linear_dgp(seed=seed)),
                                 MissingnessSpec(m=0.3, q=0.6, seed=2))
        dm.save_csv(d, path)
        write_results(out, *run_experiment(cfg, log=None))
        return (out / "results.jsonl").read_bytes()

    alone = {seed: written(seed, tmp_path / f"alone{seed}") for seed in (5, 6)}
    assert alone[5] != alone[6]
    for seed in (6, 5):  # each now runs right after the other
        assert written(seed, tmp_path / f"after{seed}") == alone[seed]


def test_pooled_bytes_match_serial_with_grid_and_one_point_methods(tmp_path):
    method = MethodSpec("tarnet_del", grid=({}, {"learning_rate": 3e-3}),
                        base_config=tiny_net_config())
    cfg = experiment_config([method, *ONE_POINT_OLS], num_runs=2)
    for jobs in (1, 2):
        results, failures = run_experiment(cfg, jobs=jobs, log=None)
        assert failures == [] and len(results) == 8
        write_results(tmp_path / f"jobs{jobs}", results, failures)
    for name in ("results.jsonl", "aggregate.csv"):
        assert (tmp_path / "jobs2" / name).read_bytes() == (tmp_path / "jobs1" / name).read_bytes()


def test_run_experiment_aborts_when_half_fail():
    cfg = ExperimentConfig(
        dgp=linear_dgp(n=40, d=8), csv_path=None,
        missingness=MissingnessSpec(m=0.5, q=0.5),
        methods=(MethodSpec("ols_del", grid=({},)),),
        num_runs=2, master_seed=4,
    )
    with pytest.raises(ExperimentFailedError):
        run_experiment(cfg, log=None)


def test_test_split_never_reaches_cross_validation(monkeypatch):
    seen = []
    selections = []
    original_fit, original_score = harness.fit_method, harness.selection_score
    original_cv = harness.cross_validate

    def fit_spy(name, config, train_data):
        seen.append(train_data)
        return original_fit(name, config, train_data)

    def score_spy(model, val_data, selection_metric):
        seen.append(val_data)
        return original_score(model, val_data, selection_metric)

    def cv_spy(*args, **kwargs):
        selections.append(args)
        return original_cv(*args, **kwargs)

    monkeypatch.setattr(harness, "fit_method", fit_spy)
    monkeypatch.setattr(harness, "selection_score", score_spy)
    monkeypatch.setattr(harness, "cross_validate", cv_spy)
    # two grid points, so there is a selection to make
    cfg = experiment_config([MethodSpec("ols_del", grid=({}, {}))], num_runs=1)
    results, _ = run_experiment(cfg, log=None)
    # reconstruct the test rows of the run and compare byte-level row hashes
    d = dm.load_dataset(harness._run_spec(cfg, 0))
    _, _, test_d = dm.split(d, seed=derive_seed(cfg.master_seed, 0, "split"))
    test_rows = {row.tobytes() for row in test_d.x}
    assert selections, "cross_validate was never called"
    assert len(seen) == 2 * 2 + 1  # each point's fit and score, and the refit
    for fitted_or_scored in seen:
        assert not ({row.tobytes() for row in fitted_or_scored.x} & test_rows)


def test_one_point_grid_never_selects(monkeypatch):
    def no_selection(*args, **kwargs):
        raise AssertionError("cross_validate called for a one-point grid")

    fits = []
    original_fit = harness.fit_method

    def counting_fit(name, config, train_data):
        fits.append(name)
        return original_fit(name, config, train_data)

    monkeypatch.setattr(harness, "cross_validate", no_selection)
    monkeypatch.setattr(harness, "fit_method", counting_fit)
    point = {"learning_rate": 3e-3}
    cfg = experiment_config([
        MethodSpec("ols_rew"),
        MethodSpec("tarnet_del", grid=(point,), base_config=tiny_net_config()),
    ], num_runs=2)
    results, failures = run_experiment(cfg, log=None)
    assert failures == [] and len(results) == 4
    assert sorted(fits) == sorted(["ols_rew", "tarnet_del"] * 2)
    for res in results:
        assert res.hyperparameters == ({} if res.method == "ols_rew" else point)
    par, _ = run_experiment(cfg, jobs=2, log=None)
    assert [r.to_dict() for r in par] == [r.to_dict() for r in results]


def test_aggregate_mean_and_std():
    def result(method, run, overall):
        return RunResult(
            method=method, run_index=run, seed=run,
            hyperparameters={},
            report=EvalReport(
                metrics={"sqrt_pehe": {"overall": overall, "t_observed": overall, "t_missing": None}},
                counts={"overall": 10, "t_observed": 10, "t_missing": 0},
                metadata={},
            ),
        )

    rows = aggregate([result("ols_del", 0, 1.0), result("ols_del", 1, 3.0)])
    overall = next(r for r in rows if r["domain"] == "overall")
    assert overall["mean"] == pytest.approx(2.0)
    assert overall["std"] == pytest.approx(np.sqrt(2.0))
    assert overall["n_runs"] == 2

    single = aggregate([result("ols_del", 0, 1.5)])
    assert single[0]["std"] == 0.0 and single[0]["n_runs"] == 1

    same = aggregate([result("ols_del", 0, 0.7), result("ols_del", 1, 0.7)])
    assert same[0]["std"] == 0.0


def test_aggregate_matches_per_run_mean_exactly():
    cfg = experiment_config([MethodSpec("ols_del", grid=({},))], num_runs=3)
    results, _ = run_experiment(cfg, log=None)
    rows = aggregate(results)
    overall = next(r for r in rows if r["metric"] == "sqrt_pehe" and r["domain"] == "overall")
    per_run = [r.report.metrics["sqrt_pehe"]["overall"] for r in results]
    assert overall["mean"] == pytest.approx(np.mean(per_run), abs=1e-12)


def test_write_results_removes_an_earlier_runs_failures(tmp_path):
    cfg = experiment_config([MethodSpec("ols_del", grid=({},))], num_runs=1)
    results, _ = run_experiment(cfg, log=None)
    write_results(tmp_path, results, [{"method": "ols_del", "run_index": 0, "error": "x"}])
    assert (tmp_path / "failures.json").exists()
    write_results(tmp_path, results, [])
    assert not (tmp_path / "failures.json").exists()


def test_write_and_read_results_roundtrip(tmp_path):
    cfg = experiment_config([MethodSpec("ols_del", grid=({},))], num_runs=2)
    results, failures = run_experiment(cfg, log=None)
    write_results(tmp_path, results, failures)
    loaded = read_results_jsonl(tmp_path / "results.jsonl")
    assert [r.to_dict() for r in loaded] == [r.to_dict() for r in results]
    header = (tmp_path / "aggregate.csv").read_text().splitlines()[0]
    assert header == "method,dataset,metric,domain,mean,std,n_runs"


def test_reading_a_result_checks_its_method_label(tmp_path):
    cfg = experiment_config([MethodSpec("ols_del", grid=({},))], num_runs=1)
    line = run_experiment(cfg, log=None)[0][0].to_dict()
    assert line["method_label"] == "OLS_del"
    assert RunResult.from_dict(line).to_dict() == line
    unlabelled = {k: v for k, v in line.items() if k != "method_label"}
    assert RunResult.from_dict(unlabelled).to_dict() == line
    path = tmp_path / "results.jsonl"
    path.write_text(json.dumps({**line, "method_label": "TARNet_del"}) + "\n")
    with pytest.raises(ValueError) as raised:
        read_results_jsonl(path)
    assert str(raised.value) == (f"{path}:1: result: method_label 'TARNet_del' is not the "
                                 "label of method 'ols_del', 'OLS_del'")


def sweep_rows(sweep):
    """The long-format rows of sweep_m.csv, from each m's aggregate."""
    return [
        {"method": agg["method"], "m": m, "metric": f"{agg['metric']}.{agg['domain']}",
         "mean": agg["mean"], "std": agg["std"]}
        for m, results, _ in sweep for agg in aggregate(results)
    ]


def test_sweep_m_shape_and_csv_roundtrip(tmp_path):
    cfg = experiment_config([MethodSpec("ols_del", grid=({},)), MethodSpec("ols_imp", grid=({},))],
                            num_runs=1)
    sweep = sweep_m(cfg, [0.2, 0.5], log=None)
    assert [m for m, _, _ in sweep] == [0.2, 0.5]
    rows = sweep_rows(sweep)
    methods = {r["method"] for r in rows}
    assert methods == {"OLS_del", "OLS_imp"}
    for m in (0.2, 0.5):
        for method in methods:
            matching = [r for r in rows if r["m"] == m and r["method"] == method]
            assert matching  # at least one metric row per (method, m)
    write_sweep(tmp_path, sweep)
    text = (tmp_path / "sweep_m.csv").read_text().splitlines()
    assert text[0] == "method,m,metric,mean,std"
    parsed = [line.split(",") for line in text[1:]]
    assert len(parsed) == len(rows)
    for (method, m, metric, mean, std), row in zip(parsed, rows):
        assert method == row["method"]
        assert float(m) == row["m"]
        assert metric == row["metric"]
        assert float(mean) == row["mean"]
        assert float(std) == row["std"]
    for m, results, _ in sweep:
        loaded = read_results_jsonl(tmp_path / f"m_{m:g}" / "results.jsonl")
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in results]
        assert (tmp_path / f"m_{m:g}" / "aggregate.csv").read_text().startswith(
            "method,dataset,metric,domain,mean,std,n_runs\n")


def test_sweep_m_rejects_bad_fraction():
    cfg = experiment_config([MethodSpec("ols_del", grid=({},))], num_runs=1)
    with pytest.raises(ValueError):
        sweep_m(cfg, [0.0], log=None)


def test_sweep_m_rejects_no_fractions(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_experiment", lambda *a, **k: calls.append(a) or ([], []))
    cfg = experiment_config([MethodSpec("ols_del", grid=({},))], num_runs=1)
    with pytest.raises(ValueError, match="m_values must not be empty"):
        sweep_m(cfg, [], log=None)
    assert calls == []


def test_sweep_m_checks_every_fraction_before_running(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_experiment", lambda *a, **k: calls.append(a) or ([], []))
    cfg = experiment_config([MethodSpec("ols_del", grid=({},))], num_runs=1)
    with pytest.raises(ValueError, match=re.escape("m must be in (0,1), got 0.0")):
        sweep_m(cfg, [0.5, 0.0], log=None)
    assert calls == []


def test_sweep_m_rejects_repeated_fractions_before_running(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_experiment", lambda *a, **k: calls.append(a) or ([], []))
    cfg = experiment_config([MethodSpec("ols_del", grid=({},))], num_runs=1)
    with pytest.raises(ValueError, match=re.escape("['m_0.5']")):
        sweep_m(cfg, [0.5, 0.2, 0.5], log=None)
    with pytest.raises(ValueError, match="m_0.3"):  # the same directory label
        sweep_m(cfg, [0.3, 0.30000001], log=None)
    assert calls == []


def test_parallel_jobs_match_sequential():
    # every OLS strategy, so the logistic fits' data-dependent stop crosses the pool
    cfg = experiment_config([MethodSpec(name, grid=({},))
                             for name in ("ols_del", "ols_imp", "ols_rew")], num_runs=2)
    seq, seq_failures = run_experiment(cfg, jobs=1, log=None)
    par, par_failures = run_experiment(cfg, jobs=2, log=None)
    assert seq_failures == par_failures == []
    assert len(seq) == 6
    assert [r.to_dict() for r in seq] == [r.to_dict() for r in par]


def test_parallel_jobs_match_sequential_neural():
    # every neural family on a two-point grid, each spec crossing the pool pickled
    cfg = experiment_config([
        MethodSpec("mtrnet", grid=({"alpha": 0.5, "beta": 2.0}, {"alpha": 2.0, "beta": 0.5}),
                   base_config=tiny_net_config()),
        MethodSpec("tarnet_rew", grid=({}, {"learning_rate": 3e-3}), base_config=tiny_net_config()),
        MethodSpec("cfrmmd_imp", grid={"alpha": [1.0, 0.5]}, base_config=tiny_net_config()),
    ], num_runs=2)
    seq, seq_failures = run_experiment(cfg, jobs=1, log=None)
    par, par_failures = run_experiment(cfg, jobs=2, log=None)
    assert seq_failures == par_failures == []
    assert len(seq) == 6
    assert [r.to_dict() for r in seq] == [r.to_dict() for r in par]


@pytest.mark.slow
def test_sweep_m_shift_free_control():
    """Without a covariate shift (q=0.5) the two methods stay close; the
    strong shift is what opens the missing-domain gap. Scaled to 3 runs of
    the calibrated setup."""

    def mean_gap(q):
        cfg = trend_config(0.5)
        cfg = replace(cfg, missingness=MissingnessSpec(m=0.5, q=q), num_runs=3)
        rows = sweep_rows(sweep_m(cfg, [0.5, 0.7], jobs=min(2, os.cpu_count() or 1),
                                  log=None))
        gaps = []
        for m in (0.5, 0.7):
            vals = {r["method"]: r["mean"] for r in rows
                    if r["m"] == m and r["metric"] == "sqrt_pehe.t_missing"}
            gaps.append(vals["TARNet_del"] - vals["MTRNet"])
        return float(np.mean(gaps))

    assert abs(mean_gap(0.5)) < abs(mean_gap(0.9))
