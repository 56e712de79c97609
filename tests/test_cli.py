import copy
import json
import re

import numpy as np
import pytest

from mtcate import cli, data as dm, harness, mtrnet, theory


def dgp_dict(n=120, d=2, seed=0):
    return {
        "n": n, "d": d, "propensity": [0.5] * d,
        "outcome0": {"kind": "linear", "intercept": 0.0, "linear": [1.0] * d},
        "outcome1": {"kind": "linear", "intercept": 1.0, "linear": [0.5] * d},
        "noise_sd": 0.0, "seed": seed,
    }


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_generate_writes_loadable_csv(tmp_path, capsys):
    config = write_json(tmp_path / "gen.json", {
        "synthetic": dgp_dict(), "missingness": {"m": 0.25, "q": 0.7, "seed": 1},
    })
    out = tmp_path / "data.csv"
    assert cli.main(["generate", "--config", config, "--out", str(out)]) == 0
    d = dm.load_csv(out)
    assert d.n == 120
    assert int((d.r == 0).sum()) == round(0.25 * 120)
    assert d.tau is not None and d.t_true is not None


def test_train_and_evaluate_roundtrip(tmp_path):
    data_cfg = {"synthetic": dgp_dict(seed=3), "missingness": {"m": 0.3, "q": 0.6, "seed": 2}}
    gen_cfg = write_json(tmp_path / "gen.json", data_cfg)
    csv_path = tmp_path / "data.csv"
    assert cli.main(["generate", "--config", gen_cfg, "--out", str(csv_path)]) == 0

    train_cfg = write_json(tmp_path / "train.json", {
        "method": "tarnet_del",
        "config": {"rep_layer_size": 8, "hyp_layer_size": 8, "iterations": 10,
                   "batch_size": 32, "dropout_rate": 0.0},
        "data": {"csv": str(csv_path)},
    })
    out_dir = tmp_path / "fit"
    assert cli.main(["train", "--config", train_cfg, "--out", str(out_dir)]) == 0
    model_payload = json.loads((out_dir / "model.json").read_text())
    assert model_payload["kind"] == "mtrnet"
    report = json.loads((out_dir / "report.json").read_text())
    assert "sqrt_pehe" in report["metrics"]

    report_path = tmp_path / "eval.json"
    assert cli.main(["evaluate", "--model", str(out_dir / "model.json"),
                     "--data", str(csv_path), "--out", str(report_path)]) == 0
    evaluated = json.loads(report_path.read_text())
    assert evaluated["metrics"]["sqrt_pehe"]["overall"] >= 0.0


def test_train_ols_model_payload(tmp_path):
    train_cfg = write_json(tmp_path / "train.json", {
        "method": "OLS_del",
        "data": {"synthetic": dgp_dict(seed=5), "missingness": {"m": 0.2, "q": 0.5, "seed": 4}},
    })
    out_dir = tmp_path / "fit"
    assert cli.main(["train", "--config", train_cfg, "--out", str(out_dir)]) == 0
    payload = json.loads((out_dir / "model.json").read_text())
    assert payload["kind"] == "ols"
    fitted = cli.load_fitted(payload)
    assert np.isfinite(fitted.predict_cate(np.zeros((3, 2)))).all()


def test_experiment_and_report_commands(tmp_path):
    config = write_json(tmp_path / "exp.json", {
        "data": {"synthetic": dgp_dict(n=150, seed=6)},
        "missingness": {"m": 0.3, "q": 0.6},
        "methods": [{"name": "ols_del", "grid": [{}]}],
        "num_runs": 2,
        "master_seed": 9,
    })
    out = tmp_path / "results"
    assert cli.main(["experiment", "--config", config, "--out", str(out)]) == 0
    lines = (out / "results.jsonl").read_text().splitlines()
    assert len(lines) == 2
    agg = (out / "aggregate.csv").read_text()
    assert "OLS_del" in agg

    rep_out = tmp_path / "rollup"
    assert cli.main(["report", "--results", str(out / "results.jsonl"),
                     "--out", str(rep_out)]) == 0
    assert (rep_out / "aggregate.csv").exists()


def test_theory_check_command(tmp_path, capsys):
    out = tmp_path / "theory"
    assert cli.main(["theory-check", "--worlds", "25", "--seed", "3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "identity violations   0" in printed
    payload = json.loads((out / "theory_checks.json").read_text())
    assert payload["num_worlds"] == 25


def test_theory_check_output_reads_back(tmp_path, capsys):
    out = tmp_path / "D"
    assert cli.main(["theory-check", "--worlds", "300", "--out", str(out)]) == 0
    payload = json.loads((out / "theory_checks.json").read_text())
    summary = theory.SweepSummary.from_dict(payload)
    assert summary.to_dict() == payload
    assert summary.num_worlds == 300
    for count in (summary.num_worlds, summary.residual_violations, summary.slack_violations):
        assert type(count) is int


def test_cli_failure_emits_json_error(tmp_path, capsys):
    config = write_json(tmp_path / "bad.json", {"data": {}, "methods": []})
    code = cli.main(["experiment", "--config", config, "--out", str(tmp_path / "x")])
    assert code != 0
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert "error" in payload and payload["error"]["message"]


def test_train_rejects_typo_config_key(tmp_path, capsys):
    config = write_json(tmp_path / "train.json", {
        "method": "tarnet_del", "config": {"learnin_rate": 0.1},
        "data": {"synthetic": dgp_dict(), "missingness": {"m": 0.3, "q": 0.6}},
    })
    assert cli.main(["train", "--config", config, "--out", str(tmp_path / "fit")]) != 0
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "ValueError" and "learnin_rate" in error["message"]


def test_experiment_rejects_typo_config_key(tmp_path, capsys):
    config = write_json(tmp_path / "exp.json", {
        "data": {"synthetic": dgp_dict()}, "missingness": {"m": 0.3, "q": 0.6},
        "methods": [{"name": "ols_del"}], "num_run": 2,
    })
    assert cli.main(["experiment", "--config", config, "--out", str(tmp_path / "x")]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "ValueError" and "'num_run'" in error["message"]


@pytest.mark.parametrize("command, payload, bad_key", [
    ("generate", {"synthetic": dgp_dict(), "missingnes": {"m": 0.3, "q": 0.6}}, "missingnes"),
    ("train", {"method": "ols_del", "data": {"synthetic": dgp_dict()}, "metric": ["pehe"]},
     "metric"),
    ("train", {"method": "ols_del", "data": {"synthetic": dgp_dict(), "misingness": {}}},
     "misingness"),
])
def test_generate_and_train_reject_typo_top_level_key(tmp_path, capsys, command, payload, bad_key):
    config = write_json(tmp_path / "config.json", payload)
    out = tmp_path / "out"
    assert cli.main([command, "--config", config, "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "ValueError" and repr([bad_key]) in error["message"]
    assert not out.exists()


def test_train_rejects_unknown_metric_before_fitting(tmp_path, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_method called")

    monkeypatch.setattr(harness, "fit_method", no_fit)
    config = write_json(tmp_path / "train.json", {
        "method": "ols_del", "data": {"synthetic": dgp_dict()}, "metrics": ["sqrt_pehee"],
    })
    assert cli.main(["train", "--config", config, "--out", str(tmp_path / "fit")]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "ValueError" and "'sqrt_pehee'" in error["message"]


def test_train_writes_nothing_when_the_report_fails(tmp_path, capsys):
    # policy risk needs a randomized subset, which a block without rct lacks
    config = write_json(tmp_path / "train.json", {
        "method": "ols_del", "data": {"synthetic": dgp_dict()}, "metrics": ["policy_risk"],
    })
    out = tmp_path / "fit"
    error = cli_error(capsys, ["train", "--config", config, "--out", str(out)])
    assert "randomized" in error["message"]
    assert not (out / "model.json").exists() and not (out / "report.json").exists()


def test_experiment_rejects_unknown_metric_before_fitting(tmp_path, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_method called")

    monkeypatch.setattr(harness, "fit_method", no_fit)
    config = write_json(tmp_path / "exp.json", {
        "data": {"synthetic": dgp_dict()}, "missingness": {"m": 0.3, "q": 0.6},
        "methods": [{"name": "ols_del", "grid": [{}]}], "num_runs": 2,
        "metrics": ["sqrt_pehe", "sqrt_pehee"],
    })
    assert cli.main(["experiment", "--config", config, "--out", str(tmp_path / "x")]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "ValueError" and "'sqrt_pehee'" in error["message"]


def test_sweep_m_command(tmp_path):
    config = write_json(tmp_path / "exp.json", {
        "data": {"synthetic": dgp_dict(n=150, seed=8)},
        "missingness": {"m": 0.5, "q": 0.6},
        "methods": [{"name": "ols_del", "grid": [{}]}],
        "num_runs": 1,
        "master_seed": 12,
    })
    out = tmp_path / "sweep"
    assert cli.main(["sweep-m", "--config", str(config), "--m", "0.2,0.6",
                     "--out", str(out)]) == 0
    lines = (out / "sweep_m.csv").read_text().splitlines()
    assert lines[0] == "method,m,metric,mean,std"
    assert any(line.startswith("OLS_del,0.2,") for line in lines[1:])
    assert any(line.startswith("OLS_del,0.6,") for line in lines[1:])


def test_sweep_m_command_writes_failures_per_m(tmp_path):
    # 40 rows at d=12: at m=0.5 only 20 rows are observed, too few for
    # ols_del in both arms, while the other two methods still fit
    tiny = {"rep_layer_size": 8, "hyp_layer_size": 8, "iterations": 5, "batch_size": 16}
    config = write_json(tmp_path / "exp.json", {
        "data": {"synthetic": dgp_dict(n=40, d=12, seed=8)},
        "missingness": {"m": 0.5, "q": 0.5},
        "methods": [{"name": "ols_del"}, {"name": "ols_imp"},
                    {"name": "mtrnet", "grid": [{}], "config": tiny}],
        "num_runs": 1,
        "master_seed": 3,
    })
    out = tmp_path / "sweep"
    assert cli.main(["sweep-m", "--config", config, "--m", "0.5", "--out", str(out)]) == 0
    failures = json.loads((out / "m_0.5" / "failures.json").read_text())
    assert [(f["method"], f["run_index"]) for f in failures] == [("ols_del", 0)]
    assert len((out / "m_0.5" / "results.jsonl").read_text().splitlines()) == 2
    assert "n_runs" in (out / "m_0.5" / "aggregate.csv").read_text().splitlines()[0]


def test_experiment_on_a_csv_that_already_misses_labels(tmp_path):
    """Without a missingness block, an experiment keeps the CSV's own labels
    and reports both domains."""
    gen = write_json(tmp_path / "gen.json", {
        "synthetic": dgp_dict(n=200, seed=4), "missingness": {"m": 0.3, "q": 0.6, "seed": 1},
    })
    csv_path = tmp_path / "data.csv"
    assert cli.main(["generate", "--config", gen, "--out", str(csv_path)]) == 0
    config = write_json(tmp_path / "exp.json", {
        "data": {"csv": str(csv_path)}, "methods": [{"name": "ols_del"}], "num_runs": 2,
    })
    out = tmp_path / "results"
    assert cli.main(["experiment", "--config", config, "--out", str(out)]) == 0
    results = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert len(results) == 2
    for result in results:
        report = result["report"]
        assert report["counts"]["t_observed"] > 0 and report["counts"]["t_missing"] > 0
        assert all(report["metrics"]["sqrt_pehe"][split] >= 0.0
                   for split in ("t_observed", "t_missing"))


def test_sweep_m_without_missingness_fails_by_name(tmp_path, capsys):
    config = write_json(tmp_path / "exp.json", {
        "data": {"synthetic": dgp_dict()}, "methods": [{"name": "ols_del"}], "num_runs": 1,
    })
    assert cli.main(["sweep-m", "--config", config, "--m", "0.5",
                     "--out", str(tmp_path / "sweep")]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "ValueError" and "missingness spec" in error["message"]


def test_theory_check_rejects_zero_worlds(tmp_path, capsys):
    out = tmp_path / "theory"
    assert cli.main(["theory-check", "--worlds", "0", "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "ValueError" and "num_worlds" in error["message"]
    assert not out.exists()
    assert cli.main(["theory-check", "--worlds", "5", "--seed", "-1", "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error == {"type": "ValueError", "message": "seed must be >= 0, got -1"}
    assert not out.exists()



def cli_error(capsys, argv):
    """Run a command that must fail; return the JSON error object it printed."""
    assert cli.main(argv) == 1
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]


def test_sweep_m_names_a_bad_m_entry(tmp_path, capsys):
    config = write_json(tmp_path / "exp.json", {
        "data": {"synthetic": dgp_dict()}, "missingness": {"m": 0.5, "q": 0.6},
        "methods": [{"name": "ols_del"}], "num_runs": 1,
    })
    out = tmp_path / "sweep"
    error = cli_error(capsys, ["sweep-m", "--config", config, "--m", "0.3,,0.5",
                               "--out", str(out)])
    assert error["type"] == "ValueError"
    assert "--m '0.3,,0.5'" in error["message"] and "''" in error["message"]
    assert not out.exists()


def test_generate_masks_a_fully_observed_csv(tmp_path, capsys):
    full = tmp_path / "full.csv"
    config = write_json(tmp_path / "gen.json", {"synthetic": dgp_dict(n=90)})
    assert cli.main(["generate", "--config", config, "--out", str(full)]) == 0
    assert dm.load_csv(full).n_observed() == 90
    masked = tmp_path / "masked.csv"
    config = write_json(tmp_path / "mask.json", {
        "csv": str(full), "missingness": {"m": 0.5, "q": 0.9}})
    assert cli.main(["generate", "--config", config, "--out", str(masked)]) == 0
    d = dm.load_csv(masked)
    assert d.n == 90 and int((d.r == 0).sum()) == round(0.5 * 90)

    # a CSV that already misses labels is not masked again
    config = write_json(tmp_path / "again.json", {
        "csv": str(masked), "missingness": {"m": 0.5, "q": 0.9}})
    out = tmp_path / "again.csv"
    error = cli_error(capsys, ["generate", "--config", config, "--out", str(out)])
    assert error["type"] == "ValueError" and "fully observed" in error["message"]
    assert not out.exists()


def test_train_masks_a_fully_observed_csv(tmp_path):
    full = tmp_path / "full.csv"
    config = write_json(tmp_path / "gen.json", {"synthetic": dgp_dict(n=100, seed=2)})
    assert cli.main(["generate", "--config", config, "--out", str(full)]) == 0
    config = write_json(tmp_path / "train.json", {
        "method": "ols_del",
        "data": {"csv": str(full), "missingness": {"m": 0.3, "q": 0.7, "seed": 1}},
    })
    assert cli.main(["train", "--config", config, "--out", str(tmp_path / "fit")]) == 0
    report = json.loads((tmp_path / "fit" / "report.json").read_text())
    assert report["counts"] == {"overall": 100, "t_observed": 70, "t_missing": 30}


BAD_DATA_BLOCKS = [
    ({}, "exactly one"),
    ({"synthetic": dgp_dict(), "csv": "data.csv"}, "exactly one"),
    ({"synthetic": {k: v for k, v in dgp_dict().items() if k != "d"}}, "['d']"),
    ({"synthetic": {**dgp_dict(), "n": "abc"}}, "synthetic.n"),
    ({"synthetic": {**dgp_dict(), "noise_sd": -1}}, "noise_sd"),
    ({"synthetic": dgp_dict(), "missingness": {"m": 0.3}}, "['q']"),
    ({"synthetic": dgp_dict(), "missingness": {"m": 0.3, "q": 1.5}}, "q must be in (0,1)"),
    ({"csv": 5}, "csv"),
]


@pytest.mark.parametrize("block, named", BAD_DATA_BLOCKS)
@pytest.mark.parametrize("command", ["generate", "train"])
def test_bad_data_block_fails_at_load(tmp_path, capsys, command, block, named):
    payload = block if command == "generate" else {"method": "ols_del", "data": block}
    config = write_json(tmp_path / "config.json", payload)
    out = tmp_path / "out"
    error = cli_error(capsys, [command, "--config", config, "--out", str(out)])
    assert error["type"] == "ValueError" and named in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("payload, named", [
    ({"method": "tarnet_del", "config": {"iterations": 2.5}}, "iterations"),
    ({"method": "tarnet_del", "config": {"dropout_rate": 1.5}}, "dropout_rate"),
    ({"method": 3}, "method.name"),
    ({}, "['method']"),
])
def test_bad_train_config_fails_at_load(tmp_path, capsys, payload, named):
    config = write_json(tmp_path / "train.json", {"data": {"synthetic": dgp_dict()}, **payload})
    error = cli_error(capsys, ["train", "--config", config, "--out", str(tmp_path / "fit")])
    assert error["type"] == "ValueError" and named in error["message"]
    assert not (tmp_path / "fit").exists()


DROP = object()


def network_payload(*path):
    """A small network's model_payload with the entry at `path[:-1]` set to
    `path[-1]`, or removed when that is DROP."""
    config = mtrnet.MTRNetConfig(rep_layer_size=2, hyp_layer_size=2,
                                 num_rep_layers=1, num_hyp_layers=1)
    payload = cli.model_payload("mtrnet", mtrnet.init_model(config, 2))
    *keys, last, value = path
    target = payload
    for key in keys:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return payload


@pytest.mark.parametrize("payload, named", [
    ({"kind": "cart", "format_version": 1}, "'cart'"),
    ({"format_version": 1, "beta0": [0.0], "beta1": [1.0]}, "None"),
    ({"kind": "ols"}, "['format_version', 'beta0', 'beta1']"),
    ({"kind": "ols", "format_version": 2, "beta0": [0.0], "beta1": [1.0]}, "version 2"),
    ({"kind": "mtrnet", "format_version": 1}, "'input_dim'"),
    ({"kind": "ols", "format_version": True, "beta0": [0.0, 1.0], "beta1": [1.0, 1.0]},
     "ols model.format_version"),
    ({"kind": "ols", "format_version": 1, "beta0": "abc", "beta1": [1.0, 1.0]},
     "ols model.beta0"),
    ({"kind": "ols", "format_version": 1, "beta0": [0.0, 1.0], "beta1": [1.0, False]},
     "ols model.beta1[1]"),
    ({"kind": "ols", "format_version": 1, "beta0": [0.0, 1.0], "beta1": [1.0, 1.0, 2.0]},
     "beta0 and beta1"),
    ({"kind": "ols", "format_version": 1, "beta0": [0.0], "beta1": [1.0]}, "beta0 and beta1"),
    ([1], "model: expected dict, got [1]"),
    (network_payload("parameters", "h1.0.w", DROP),
     "missing mtrnet model.parameters key(s) ['h1.0.w']"),
    (network_payload("input_dim", 2.9), "mtrnet model.input_dim"),
    (network_payload("input_dim", True), "mtrnet model.input_dim"),
    (network_payload("shapes", "x"), "mtrnet model.shapes: expected dict"),
    (network_payload("parameters", [1.0]), "mtrnet model.parameters: expected dict"),
    (network_payload("shapes", "h1.0.b", [3]), "mtrnet model.shapes.h1.0.b"),
    (network_payload("parameters", "h1.0.w", "abc"), "mtrnet model.parameters.h1.0.w"),
    (network_payload("parameters", "h1.0.w", [[0.5, 0.5], [0.5]]),
     "mtrnet model.parameters.h1.0.w: ragged"),
    (network_payload("parameters", "h1.0.b", [0.0, 0.0, 0.0]),
     "mtrnet model.parameters.h1.0.b: expected shape"),
    (network_payload("parameters", "h1.0.b", [0.0, float("inf")]),
     "mtrnet model.parameters.h1.0.b: non-finite"),
])
def test_load_fitted_checks_kind_version_and_keys(payload, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        cli.load_fitted(payload)


def test_evaluate_checks_an_ols_models_input_width(tmp_path, capsys):
    train_cfg = write_json(tmp_path / "train.json", {
        "method": "ols_del", "data": {"synthetic": dgp_dict(n=60, d=3)}})
    assert cli.main(["train", "--config", train_cfg, "--out", str(tmp_path / "fit")]) == 0
    wide = tmp_path / "wide.csv"
    gen_cfg = write_json(tmp_path / "gen.json", {"synthetic": dgp_dict(n=50, d=5)})
    assert cli.main(["generate", "--config", gen_cfg, "--out", str(wide)]) == 0
    error = cli_error(capsys, ["evaluate", "--model", str(tmp_path / "fit" / "model.json"),
                               "--data", str(wide), "--out", str(tmp_path / "eval.json")])
    assert error == {"type": "ValueError", "message": "expected (n, 3) input, got (50, 5)"}


def test_evaluate_rejects_a_csv_with_no_data_rows(tmp_path, capsys):
    train_cfg = write_json(tmp_path / "train.json", {
        "method": "ols_del", "data": {"synthetic": dgp_dict(n=60, d=3)}})
    assert cli.main(["train", "--config", train_cfg, "--out", str(tmp_path / "fit")]) == 0
    empty = tmp_path / "empty.csv"
    empty.write_text("y,t,r,x1,x2,x3\n")
    error = cli_error(capsys, ["evaluate", "--model", str(tmp_path / "fit" / "model.json"),
                               "--data", str(empty), "--out", str(tmp_path / "eval.json")])
    assert error == {"type": "CsvParseError", "message": "line 2: no data rows"}
    assert not (tmp_path / "eval.json").exists()


def test_train_report_records_the_config_as_given(tmp_path):
    given = {"rep_layer_size": 4, "hyp_layer_size": 4, "iterations": 2, "batch_size": 16,
             "alpha": 2.0}
    train_cfg = write_json(tmp_path / "train.json", {
        "method": "cfrmmd_del", "config": given,
        "data": {"synthetic": dgp_dict(), "missingness": {"m": 0.2, "q": 0.5, "seed": 4}},
    })
    assert cli.main(["train", "--config", train_cfg, "--seed", "7",
                     "--out", str(tmp_path / "fit")]) == 0
    report = json.loads((tmp_path / "fit" / "report.json").read_text())
    expected = mtrnet.MTRNetConfig.from_dict({**given, "seed": 7}).to_dict()
    assert report["metadata"]["config"] == expected
    # the network itself is built without a treatment adversary
    model = json.loads((tmp_path / "fit" / "model.json").read_text())
    assert model["config"] == {**expected, "alpha": 0.0, "beta": 0.0}
    assert not any(name.startswith(("k_t", "k_r")) for name in model["parameters"])


def test_report_rejects_an_unknown_method_before_writing(tmp_path, capsys):
    config = write_json(tmp_path / "exp.json", {
        "data": {"synthetic": dgp_dict(n=150, seed=6)},
        "missingness": {"m": 0.3, "q": 0.6},
        "methods": [{"name": "ols_del"}],
        "num_runs": 2,
    })
    out = tmp_path / "results"
    assert cli.main(["experiment", "--config", config, "--out", str(out)]) == 0
    lines = (out / "results.jsonl").read_text().splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([lines[0], lines[1].replace('"method": "ols_del"', '"method": "nope"')]))
    error = cli_error(capsys, ["report", "--results", str(bad), "--out", str(tmp_path / "rollup")])
    assert error["type"] == "ValueError" and "'nope'" in error["message"]
    assert not (tmp_path / "rollup").exists()

    # each metric entry is checked as it is read
    bad_entries = [
        (lambda m: m["sqrt_pehe"].update(overall="abc"), "result.report.metrics.sqrt_pehe.overall"),
        (lambda m: m["sqrt_pehe"].update(overall=True), "result.report.metrics.sqrt_pehe.overall"),
        (lambda m: m.update(sqrt_pehe=3), "result.report.metrics.sqrt_pehe"),
        (lambda m: m.update(pehee={"overall": 1.0}), "'pehee'"),
        (lambda m: m["sqrt_pehe"].update(everywhere=1.0), "'everywhere'"),
    ]
    for edit, named in bad_entries:
        result = json.loads(lines[1])
        edit(result["report"]["metrics"])
        bad.write_text("\n".join([lines[0], json.dumps(result)]))
        error = cli_error(capsys, ["report", "--results", str(bad),
                                   "--out", str(tmp_path / "rollup")])
        assert error["type"] == "ValueError" and named in error["message"], named
        assert error["message"].startswith(f"{bad}:2: "), named
        assert not (tmp_path / "rollup").exists()

    # a bad line is named by file and line number
    bad.write_text(lines[0] + "\n{\n")
    error = cli_error(capsys, ["report", "--results", str(bad), "--out", str(tmp_path / "rollup")])
    assert error["type"] == "ValueError" and error["message"].startswith(f"{bad}:2: Expecting")
    result = json.loads(lines[1])
    result["report"]["metrics"]["sqrt_pehe"]["overall"] = "abc"
    bad.write_text("\n".join([lines[0], json.dumps(result)]))
    error = cli_error(capsys, ["report", "--results", str(out / "results.jsonl"), str(bad),
                               "--out", str(tmp_path / "rollup")])
    assert error["type"] == "ValueError"
    assert error["message"].startswith(f"{bad}:2: result.report.metrics.sqrt_pehe.overall")
    assert not (tmp_path / "rollup").exists()


@pytest.mark.parametrize("content", ["3", "[1]", '"abc"'])
@pytest.mark.parametrize("command", ["generate", "train", "evaluate", "experiment", "sweep-m"])
def test_commands_reject_a_json_file_that_is_not_an_object(tmp_path, capsys, command, content):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    inputs = {"evaluate": ["--model", str(bad), "--data", str(tmp_path / "data.csv")],
              "sweep-m": ["--config", str(bad), "--m", "0.5"]}
    out = tmp_path / "out"
    error = cli_error(capsys, [command, *inputs.get(command, ["--config", str(bad)]),
                               "--out", str(out)])
    assert error == {"type": "ValueError", "message":
                     f"{bad}: expected dict, got {json.loads(content)!r}"}
    assert not out.exists()


@pytest.mark.parametrize("method", ["ols_del", "mtrnet", "tarnet_del", "cfrmmd_del"])
def test_evaluate_reloads_what_train_wrote(tmp_path, monkeypatch, method):
    full = tmp_path / "full.csv"
    config = write_json(tmp_path / "gen.json", {"synthetic": dgp_dict(n=100, seed=4)})
    assert cli.main(["generate", "--config", config, "--out", str(full)]) == 0
    trained = []
    fit_method = harness.fit_method
    monkeypatch.setattr(harness, "fit_method",
                        lambda *args: trained.append(fit_method(*args)) or trained[-1])
    tiny = {"rep_layer_size": 8, "hyp_layer_size": 8, "iterations": 5, "batch_size": 32}
    config = write_json(tmp_path / "train.json", {
        "method": method, "data": {"csv": str(full)},
        **({} if method == "ols_del" else {"config": tiny}),
    })
    fit = tmp_path / "fit"
    assert cli.main(["train", "--config", config, "--out", str(fit)]) == 0
    assert cli.main(["evaluate", "--model", str(fit / "model.json"), "--data", str(full),
                     "--out", str(tmp_path / "eval.json")]) == 0
    evaluated = json.loads((tmp_path / "eval.json").read_text())
    assert evaluated["metrics"] == json.loads((fit / "report.json").read_text())["metrics"]

    payload = json.loads((fit / "model.json").read_text())
    reloaded = cli.load_fitted(payload)
    if method == "ols_del":
        assert reloaded.beta0.tobytes() == trained[0].beta0.tobytes()
        assert reloaded.beta1.tobytes() == trained[0].beta1.tobytes()
    else:
        assert reloaded.flat.tobytes() == trained[0].flat.tobytes()
        discriminators = {name.split(".")[0] for name in payload["parameters"]} & {"k_t", "k_r"}
        assert discriminators == ({"k_t", "k_r"} if method == "mtrnet" else set())
