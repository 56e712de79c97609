"""The config codec: every JSON spec round-trips through its dataclass, and a
missing key, a mistyped value or an invalid value fails at load with a
ValueError that names it."""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from mtcate import data as dm, harness
from mtcate.data import MissingnessSpec, OutcomeSpec, SyntheticDGPSpec
from mtcate.harness import ExperimentConfig, MethodSpec, run_experiment
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


def test_experiment_masks_only_a_fully_observed_csv():
    full = dm.generate(SyntheticDGPSpec.from_dict(dgp_dict()))
    cfg = ExperimentConfig.from_dict({**experiment_dict(), "data": {"csv": "full.csv"}})
    masked = harness._run_dataset(cfg, 0, full)
    assert int((masked.r == 0).sum()) == round(0.3 * full.n)
    assert harness._run_dataset(cfg, 1, full).r.tolist() != masked.r.tolist()
    with pytest.raises(ValueError, match="fully observed"):
        harness._run_dataset(cfg, 0, masked)
