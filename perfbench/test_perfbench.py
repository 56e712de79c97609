"""Checks on the benchmark itself: the tracer records every declared layer
function at its binding site (worker processes included), and the
benchmark's copy of the calibrated trend workload matches the two copies
in the repository.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import mtcate  # noqa: E402
from mtcate import harness, theory  # noqa: E402
from mtcate.harness import MethodSpec  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _tiny(config, methods, n=400):
    small = [replace(m, base_config=replace(m.base_config, iterations=4, batch_size=60))
             for m in methods]
    return replace(config, dgp=workloads.trend_dgp(n=n), methods=tuple(small))


def test_every_layer_function_records_a_span(tmp_path):
    trend = workloads.trend_config(0.5, num_runs=1, master_seed=3)
    tiny_trend = _tiny(trend, trend.methods)
    cfr = workloads.build("cfr_jobs2", 3).config
    tiny_cfr = _tiny(cfr, [replace(m, grid=({"alpha": 1.0},)) for m in cfr.methods[1:]])
    tiny_ols = _tiny(trend, [MethodSpec.from_dict({"name": "ols_rew"})])

    untraced = harness.run_experiment
    tracer = tracing.Tracer(tmp_path)
    originals = tracer.install(mtcate)
    try:
        for config, jobs in ((tiny_trend, 1), (tiny_cfr, 2)):
            _, failures = harness.run_experiment(config, jobs=jobs, log=None)
            assert not failures
        harness.sweep_m(tiny_ols, [0.5], log=None)
        theory.run_world_sweep(5, seed=3)
    finally:
        tracer.uninstall(originals)
    workers = tracer.merge_spilled()

    assert harness.run_experiment is untraced
    assert workers == len(tiny_cfr.methods)
    calls = tracer.calls()
    assert calls[tracing.POOL_JOB] == len(tiny_cfr.methods)
    missing = [name for name in tracing.SPAN_NAMES if calls.get(name, 0) < 1]
    assert not missing, f"no spans recorded for {missing}"
    assert calls["autodiff.backward"] == calls["mtrnet.training_step"]
    counts = tracing.exact_counts(tracer.snapshot())
    assert counts["autodiff.tape_nodes_per_step"] > 0
    assert counts["metrics.nn_surrogate_effects.bytes_computed"] > 0


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trend_config_copies_match():
    tests_dir = str(ROOT / "tests")
    sys.path.insert(0, tests_dir)  # test_acceptance imports its conftest
    try:
        acceptance = _load(ROOT / "tests" / "test_acceptance.py", "_perfbench_acceptance_copy")
    finally:
        sys.path.remove(tests_dir)
    script = _load(ROOT / "scripts" / "run_trend_experiment.py", "_perfbench_script_copy")

    for m in (0.3, 0.5, 0.7):
        ours = workloads.trend_config(m, num_runs=1, master_seed=20260810)
        for theirs in (acceptance.trend_config(m), script.build_config(m, 10, 20260810)):
            assert replace(theirs, num_runs=1).to_dict() == ours.to_dict()
