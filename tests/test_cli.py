import json
import re

import numpy as np
import pytest

from mtcate import cli, data as dm, harness


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


def test_theory_check_rejects_zero_worlds(tmp_path, capsys):
    out = tmp_path / "theory"
    assert cli.main(["theory-check", "--worlds", "0", "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "ValueError" and "num_worlds" in error["message"]
    assert not out.exists()



def cli_error(capsys, argv):
    """Run a command that must fail; return the JSON error object it printed."""
    assert cli.main(argv) == 1
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]


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


@pytest.mark.parametrize("payload, named", [
    ({"kind": "cart", "format_version": 1}, "'cart'"),
    ({"format_version": 1, "beta0": [0.0], "beta1": [1.0]}, "None"),
    ({"kind": "ols"}, "['format_version', 'beta0', 'beta1']"),
    ({"kind": "ols", "format_version": 2, "beta0": [0.0], "beta1": [1.0]}, "version 2"),
    ({"kind": "mtrnet", "format_version": 1}, "'input_dim'"),
])
def test_load_fitted_checks_kind_version_and_keys(payload, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        cli.load_fitted(payload)
