"""The config codec: every JSON spec round-trips through its dataclass, and a
missing key, a mistyped value or an invalid value fails at load with a
ValueError that names it."""

import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from mtcate import data as dm, harness, theory
from mtcate.data import DataSpec, MissingnessSpec, OutcomeSpec, SyntheticDGPSpec
from mtcate.errors import Spec, encode
from mtcate.harness import ExperimentConfig, MethodSpec, RunResult, run_experiment
from mtcate.metrics import EvalReport
from mtcate.mtrnet import MTRNetConfig

floats = st.floats(-5.0, 5.0, allow_nan=False)
seeds = st.integers(0, 2**32)


@st.composite
def outcome_specs(draw, d=None):
    d = draw(st.integers(1, 4)) if d is None else d
    vector = st.tuples(*[floats] * d)
    return OutcomeSpec(
        kind=draw(st.sampled_from(["linear", "quadratic", "piecewise"])),
        intercept=draw(floats), linear=draw(vector), quadratic=draw(vector),
        jump=draw(floats), jump_direction=draw(vector), jump_threshold=draw(floats),
    )


@st.composite
def synthetic_specs(draw):
    d = draw(st.integers(1, 4))
    mixing = st.tuples(*[st.tuples(*[floats] * d)] * d)
    return SyntheticDGPSpec(
        n=draw(st.integers(1, 10_000)), d=d, propensity=draw(st.tuples(*[floats] * d)),
        outcome0=draw(outcome_specs(d)), outcome1=draw(outcome_specs(d)),
        noise_sd=draw(st.floats(0.0, 3.0)), mixing=draw(st.none() | mixing),
        rct=draw(st.booleans()), seed=draw(seeds),
    )


missingness_specs = st.builds(
    MissingnessSpec, m=st.floats(0.01, 0.99), q=st.floats(0.01, 0.99), seed=seeds,
)

net_configs = st.builds(
    MTRNetConfig,
    rep_layer_size=st.integers(1, 200), hyp_layer_size=st.integers(1, 200),
    num_rep_layers=st.integers(1, 4), num_hyp_layers=st.integers(1, 4),
    iterations=st.integers(0, 1000), batch_size=st.integers(1, 256),
    learning_rate=st.floats(1e-6, 1.0), dropout_rate=st.floats(0.0, 0.9),
    l2_lambda=st.floats(0.0, 1.0), alpha=st.floats(0.0, 100.0),
    beta=st.floats(0.0, 100.0), seed=seeds,
)


@given(st.one_of(outcome_specs(), synthetic_specs(), missingness_specs, net_configs))
@settings(max_examples=100, deadline=None)
def test_spec_json_round_trip(spec):
    again = type(spec).from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec


def test_ints_load_as_floats_and_defaults_come_from_the_dataclass():
    spec = SyntheticDGPSpec.from_dict({
        "n": 10, "d": 1, "propensity": [1],
        "outcome0": {"kind": "linear", "linear": [2]},
        "outcome1": {"kind": "linear", "linear": [1]},
    })
    assert spec.propensity == (1.0,) and type(spec.propensity[0]) is float
    assert spec.outcome0 == OutcomeSpec(kind="linear", linear=(2.0,))
    assert (spec.noise_sd, spec.mixing, spec.rct, spec.seed) == (0.0, None, False, 0)
    assert MTRNetConfig.from_dict({}) == MTRNetConfig()
    # a spec built in Python is typed alike
    direct = OutcomeSpec(kind="linear", intercept=1, linear=[2, 3.5])
    assert direct.linear == (2.0, 3.5) and type(direct.intercept) is float
    assert all(type(v) is float for v in direct.linear)


def dgp_dict():
    return {
        "n": 60, "d": 2, "propensity": [0.5, 0.5],
        "outcome0": {"kind": "linear", "linear": [1.0, 1.0]},
        "outcome1": {"kind": "linear", "intercept": 1.0, "linear": [0.5, 0.5]},
    }


def experiment_dict():
    return {
        "data": {"synthetic": dgp_dict()}, "missingness": {"m": 0.3, "q": 0.6},
        "methods": [{"name": "ols_del"},
                    {"name": "tarnet_del", "grid": [{}], "config": {"iterations": 5}}],
        "num_runs": 1,
    }


# (path to the block, key, value or None to delete it, text the error names)
LOAD_FAILURES = [
    (("data", "synthetic"), "d", None, "['d']"),
    (("data", "synthetic", "outcome0"), "kind", None, "['kind']"),
    (("missingness",), "q", None, "['q']"),
    (("methods", 0), "name", None, "['name']"),
    ((), "methods", None, "['methods']"),
    (("methods", 1, "config"), "iterations", 2.5, "iterations"),
    (("data", "synthetic"), "n", "abc", "data.synthetic.n"),
    (("data", "synthetic"), "propensity", 0.5, "data.synthetic.propensity"),
    (("data", "synthetic"), "rct", 1, "data.synthetic.rct"),
    (("data",), "csv", 5, "data.csv"),
    ((), "num_runs", 2.5, "num_runs"),
    ((), "metrics", "sqrt_pehe", "metrics"),
    (("missingness",), "q", 1.5, "q must be in (0,1)"),
    (("data", "synthetic"), "noise_sd", -1, "noise_sd"),
    (("data", "synthetic", "outcome1"), "kind", "cubic", "cubic"),
    (("methods", 1, "config"), "dropout_rate", 1.5, "dropout_rate"),
    ((), "data", {}, "exactly one"),
    ((), "data", None, "data"),
    # every coefficient vector and the mixer must match d (here 2)
    (("data", "synthetic"), "propensity", [0.5], "['propensity']"),
    (("data", "synthetic", "outcome0"), "linear", [1.0], "['outcome0.linear']"),
    (("data", "synthetic", "outcome1"), "linear", [1.0, 2.0, 3.0], "['outcome1.linear']"),
    (("data", "synthetic", "outcome0"), "kind", "quadratic", "['outcome0.quadratic']"),
    (("data", "synthetic", "outcome1"), "kind", "piecewise", "['outcome1.jump_direction']"),
    (("data", "synthetic"), "mixing", [[1.0, 0.0]], "mixing must be d x d"),
    (("data", "synthetic"), "mixing", [[1.0], [0.0]], "mixing must be d x d"),
    # a negative seed fails here, not later inside numpy's SeedSequence
    (("data", "synthetic"), "seed", -1, "seed must be >= 0"),
    (("missingness",), "seed", -1, "seed must be >= 0"),
    (("methods", 1, "config"), "seed", -1, "seed must be >= 0"),
    # a non-finite number fails at load, naming its field
    (("methods", 1, "config"), "learning_rate", float("inf"), "learning_rate must be positive and"),
    (("methods", 1, "config"), "learning_rate", float("nan"), "learning_rate must be positive and"),
    (("methods", 1, "config"), "l2_lambda", float("nan"), "l2_lambda must be finite"),
    (("methods", 1, "config"), "alpha", float("nan"), "alpha must be finite"),
    (("methods", 1, "config"), "beta", float("inf"), "beta must be finite"),
    # (test_datagen checks each family of the data generator's numbers)
    (("data", "synthetic"), "propensity", [float("nan")] * 2, "['propensity'] must be finite"),
    # a count is an integer: a float or a bool fails, naming its field
    (("data", "synthetic"), "n", 2.5, "data.synthetic.n"),
    (("data", "synthetic"), "d", True, "data.synthetic.d"),
    (("methods", 1, "config"), "iterations", True, "iterations"),
    (("methods", 1, "config"), "batch_size", 2.5, "batch_size"),
    ((), "num_runs", True, "num_runs"),
]


@pytest.mark.parametrize("block, key, value, named", LOAD_FAILURES)
def test_bad_value_fails_at_load(block, key, value, named):
    cfg = experiment_dict()
    target = cfg
    for step in block:
        target = target[step]
    if value is None and key in target:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(ValueError, match=re.escape(named)):
        ExperimentConfig.from_dict(cfg)


def test_experiment_config_round_trips_through_json():
    cfg = ExperimentConfig.from_dict(experiment_dict())
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    csv_cfg = ExperimentConfig.from_dict({**experiment_dict(), "data": {"csv": "d.csv"}})
    assert csv_cfg.to_dict()["data"] == {"csv": "d.csv"}
    assert ExperimentConfig.from_dict(csv_cfg.to_dict()) == csv_cfg


@pytest.mark.parametrize("grid, named", [
    ({"learning_rate": 0.01}, "['learning_rate']"),
    ({"learning_rate": []}, "['learning_rate']"),
    ({"alpha": [1.0], "beta": "high"}, "['beta']"),
    ({"dropout_rate": [0.1, 1.5]}, "dropout_rate"),
    ({"iterations": [100, 2.5]}, "iterations"),
    ([{"learning_rate": -1.0}], "learning_rate"),
    ([0.01], "grid[0]"),
    (0.01, "grid"),
])
def test_grid_shape_and_values_fail_at_load(grid, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        MethodSpec.from_dict({"name": "mtrnet", "grid": grid})


@pytest.mark.parametrize("grid, named", [
    ({"learning_rate": []}, "['learning_rate']"),
    ({"learning_rate": 0.1}, "['learning_rate']"),
    ([0.01], "grid[0]"),
])
def test_grid_shape_fails_when_a_method_spec_is_built_directly(grid, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        MethodSpec("tarnet_del", grid=grid)


@pytest.mark.parametrize("spec, key, value", [
    ("net", "iterations", True), ("net", "iterations", 2.5), ("net", "batch_size", 2.5),
    ("net", "rep_layer_size", True), ("net", "num_hyp_layers", 2.5), ("net", "seed", 1.5),
    ("dgp", "n", 2.5), ("dgp", "n", True), ("dgp", "d", 2.5), ("dgp", "seed", True),
    ("missingness", "seed", 2.5), ("experiment", "num_runs", 2.5),
    ("experiment", "num_runs", True),
])
def test_a_count_must_be_an_integer_when_a_spec_is_built_directly(spec, key, value):
    # the load path's decoder rejects these first; validate must too
    built = {"net": MTRNetConfig(), "dgp": SyntheticDGPSpec.from_dict(dgp_dict()),
             "missingness": MissingnessSpec(m=0.3, q=0.6),
             "experiment": ExperimentConfig.from_dict(experiment_dict())}[spec]
    with pytest.raises(ValueError, match=re.escape(f"{key} must be an integer, got {value!r}")):
        replace(built, **{key: value}).validate()


def result_dict():
    return {"method": "ols_del", "run_index": 0, "seed": 1, "hyperparameters": {}, "report": {}}


# (Spec subclass, a valid loaded object, one bad field and value)
BUILD_FAILURES = [
    (OutcomeSpec, {"kind": "linear"}, "kind", "cubic"),
    (SyntheticDGPSpec, dgp_dict(), "noise_sd", -1.0),
    (MissingnessSpec, {"m": 0.5, "q": 0.9}, "m", 1.5),
    (DataSpec, {"csv": "d.csv"}, "synthetic", SyntheticDGPSpec.from_dict(dgp_dict())),
    (MTRNetConfig, {}, "dropout_rate", 1.5),
    (ExperimentConfig, experiment_dict(), "preset", "bogus"),
    (ExperimentConfig, experiment_dict(), "num_runs", 0),
    (ExperimentConfig, experiment_dict(), "metrics", "sqrt_pehe"),
    (ExperimentConfig, experiment_dict(), "methods", "ols_del"),
    (RunResult, result_dict(), "method", "bogus"),
    (EvalReport, {}, "metrics", {"bogus": {}}),
    # a value of the wrong type, named as its field
    (OutcomeSpec, {"kind": "linear"}, "linear", (1.0, "a")),
    (SyntheticDGPSpec, dgp_dict(), "rct", "no"),
    (MissingnessSpec, {"m": 0.5, "q": 0.9}, "q", "0.9"),
    (DataSpec, {"csv": "d.csv"}, "csv", 0),
    (MTRNetConfig, {}, "alpha", None),
    (MTRNetConfig, {}, "iterations", True),
    (EvalReport, {}, "counts", [1]),
]


@pytest.mark.parametrize("cls, loaded, key, value", BUILD_FAILURES,
                         ids=[f"{row[0].__name__}.{row[2]}" for row in BUILD_FAILURES])
def test_a_spec_built_directly_fails_with_the_message_it_fails_with_at_load(cls, loaded, key,
                                                                           value):
    with pytest.raises(ValueError) as at_load:
        cls.from_dict({**loaded, key: encode(value)})
    built = cls.from_dict(loaded)
    with pytest.raises(ValueError) as directly:
        replace(built, **{key: value})
    assert str(directly.value) == str(at_load.value)


@pytest.mark.parametrize("methods, named", [
    (({"name": "ols_del"},), "methods[0]: expected MethodSpec, got {'name': 'ols_del'}"),
    ((MethodSpec("ols_del"), "tarnet_del"), "methods[1]: expected MethodSpec, got 'tarnet_del'"),
], ids=["dict", "str"])
def test_an_experiment_built_directly_names_a_method_entry_that_is_no_method_spec(methods,
                                                                                   named):
    # the load path builds every entry with MethodSpec.from_dict, so only a
    # direct build can hold another type
    built = ExperimentConfig.from_dict(experiment_dict())
    with pytest.raises(ValueError, match=re.escape(named)):
        replace(built, methods=methods)


@pytest.mark.parametrize("build, message", [
    (lambda: MissingnessSpec(m="0.5", q=0.9), "m: expected float, got '0.5'"),
    (lambda: MTRNetConfig(alpha=None), "alpha: expected float, got None"),
    (lambda: MTRNetConfig(learning_rate="x"), "learning_rate: expected float, got 'x'"),
    (lambda: SyntheticDGPSpec(**{**vars(SyntheticDGPSpec.from_dict(dgp_dict())), "rct": "no"}),
     "rct: expected bool, got 'no'"),
    (lambda: OutcomeSpec(kind="linear", linear=(1.0, "a")), "linear[1]: expected float, got 'a'"),
    (lambda: DataSpec(csv=0), "csv: expected str, got 0"),
    (lambda: RunResult(method="ols_del", run_index="0", seed=1, hyperparameters={},
                       report=EvalReport()), "run_index must be an integer, got '0'"),
], ids=["missingness.m", "net.alpha", "net.learning_rate", "dgp.rct", "outcome.linear",
        "data.csv", "result.run_index"])
def test_a_spec_built_in_python_is_typed_by_its_annotations(build, message):
    # the load path's type rule, applied to a direct build: no bare TypeError,
    # and no value of another type stored
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


def test_a_method_spec_built_in_python_types_its_name_and_config():
    # MethodSpec is no Spec (its grid is a tuple of points or a mapping), so
    # it types these two fields itself, as the load path types them
    with pytest.raises(ValueError) as raised:
        MethodSpec(name=5)
    assert str(raised.value) == "name: expected str, got 5"
    assert MethodSpec("ols_del", base_config={}).base_config == MTRNetConfig()
    assert MethodSpec("ols_del", base_config={"alpha": 2}).base_config.alpha == 2.0
    for config, message in (({"alpha": "x"}, "base_config.alpha: expected float, got 'x'"),
                            ([], "base_config: expected an object, got []")):
        with pytest.raises(ValueError) as raised:
            MethodSpec("ols_del", base_config=config)
        assert str(raised.value) == message


def test_every_spec_with_a_validate_has_a_build_failure_row():
    def subclasses(cls):
        return {cls}.union(*(subclasses(sub) for sub in cls.__subclasses__()))

    assert theory.SweepSummary in subclasses(Spec)  # every module is imported
    checked = {cls for cls in subclasses(Spec) if "validate" in vars(cls)} - {Spec}
    assert checked == {row[0] for row in BUILD_FAILURES}


def test_paper_preset_loads_without_expanding_its_grids(monkeypatch):
    def no_expansion(grid):
        raise AssertionError("grid expanded at load")

    monkeypatch.setattr(harness, "expand_grid", no_expansion)
    cfg = ExperimentConfig.from_dict({
        **experiment_dict(), "preset": "paper",
        "methods": [{"name": name} for name in harness.METHODS],
    })
    assert len(cfg.methods) == len(harness.METHODS)


def test_grid_expanded_once_per_method(monkeypatch):
    calls = []
    original = harness.expand_grid

    def counting(grid):
        calls.append(grid)
        return original(grid)

    monkeypatch.setattr(harness, "expand_grid", counting)
    cfg = ExperimentConfig.from_dict({
        **experiment_dict(), "num_runs": 2,
        "methods": [{"name": "ols_del", "grid": [{}, {}]}, {"name": "ols_rew"}],
    })
    results, failures = run_experiment(cfg, log=None)
    assert failures == [] and len(results) == 4
    assert len(calls) == 2  # one per method, not per (run, method)


@pytest.mark.parametrize("ints, floats, direct", [
    ({"alpha": [1, 2], "beta": [3]}, {"alpha": [1.0, 2.0], "beta": [3.0]}, False),
    ([{"alpha": 1, "beta": 3}, {"alpha": 2}], [{"alpha": 1.0, "beta": 3.0}, {"alpha": 2.0}], False),
    ({"alpha": [1, 2]}, {"alpha": [1.0, 2.0]}, True),
], ids=["mapping", "list", "direct"])
def test_grid_ints_write_the_same_results_as_floats(tmp_path, ints, floats, direct):
    # direct: the int grid's MethodSpec is built in Python, the floats' loaded
    written = []
    for grid in (ints, floats):
        cfg = ExperimentConfig.from_dict({
            **experiment_dict(), "num_runs": 2, "methods": [{"name": "ols_del", "grid": grid}],
        })
        if direct and grid is ints:
            cfg = replace(cfg, methods=(MethodSpec("ols_del", grid=grid),))
        results, failures = run_experiment(cfg, log=None)
        assert failures == [] and len(results) == 2
        out = tmp_path / str(len(written))
        harness.write_results(out, results, failures)
        written.append((out / "results.jsonl").read_bytes())
    assert written[0] == written[1]
    assert b'"alpha": 1.0' in written[0] or b'"alpha": 2.0' in written[0]


def test_experiment_masks_only_a_fully_observed_csv():
    full = dm.generate(SyntheticDGPSpec.from_dict(dgp_dict()))
    cfg = ExperimentConfig.from_dict({**experiment_dict(), "data": {"csv": "full.csv"}})
    masked = dm.load_dataset(harness._run_spec(cfg, 0), full)
    assert int((masked.r == 0).sum()) == round(0.3 * full.n)
    assert dm.load_dataset(harness._run_spec(cfg, 1), full).r.tolist() != masked.r.tolist()
    with pytest.raises(ValueError, match="fully observed"):
        dm.load_dataset(harness._run_spec(cfg, 0), masked)
