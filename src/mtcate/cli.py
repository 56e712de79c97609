"""Command-line entry points.

Subcommands: generate, train, evaluate, experiment, sweep-m, theory-check,
report. All take JSON configs; outputs are deterministic given the config
and seed. On failure a JSON error object goes to stderr and the exit code
is nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data as datamod, harness, metrics as metricsmod, mtrnet, theory
from .baselines import OlsModel
from .errors import check_keys, decode


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            return decode(json.load(fh), dict, str(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# model.json: the one codec for fitted models

FORMAT_VERSION = 1

# the keys each kind of model payload carries besides the shared envelope
_MODEL_KEYS = {"ols": ("beta0", "beta1"), "mtrnet": ("input_dim", "config", "shapes", "parameters")}


def model_payload(method: str, fitted) -> dict:
    """The model.json object of a fitted model: the shared envelope, then the
    OLS coefficients or the network's input width, config, shapes and values."""
    envelope = {"format_version": FORMAT_VERSION, "method": method}
    if isinstance(fitted, OlsModel):
        return {**envelope, "kind": "ols",
                "beta0": fitted.beta0.tolist(), "beta1": fitted.beta1.tolist()}
    params = fitted.parameters()
    return {**envelope, "kind": "mtrnet", "input_dim": fitted.input_dim,
            "config": fitted.config.to_dict(),
            "shapes": {name: list(p.shape) for name, p in params.items()},
            "parameters": {name: p.tolist() for name, p in params.items()}}


def load_fitted(payload: dict):
    """The fitted model of a model_payload, after checking its kind, format
    version, keys and values; a ValueError names the first that is wrong.
    Parameters the network's config does not build (the discriminators in
    older TARNet/CFR-MMD files) are ignored."""
    kind = decode(payload, dict, "model").get("kind")
    if kind not in _MODEL_KEYS:
        raise ValueError(f"unknown model kind {kind!r}; known: {sorted(_MODEL_KEYS)}")
    required = ("format_version", "kind", *_MODEL_KEYS[kind])
    check_keys(payload, (*required, "method"), f"{kind} model", required)
    version = decode(payload["format_version"], int, f"{kind} model.format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version!r}")
    if kind == "ols":
        beta0, beta1 = (np.asarray(decode(payload[key], tuple[float, ...], f"ols model.{key}"))
                        for key in ("beta0", "beta1"))
        if beta0.size < 2 or beta0.shape != beta1.shape:
            raise ValueError(f"ols model.beta0 and beta1 must have one length >= 2 "
                             f"(intercept first), got {beta0.size} and {beta1.size}")
        return OlsModel(beta0, beta1)
    config = mtrnet.MTRNetConfig.from_dict(payload["config"], "mtrnet model.config")
    model = mtrnet.init_model(config, decode(payload["input_dim"], int, "mtrnet model.input_dim"))
    shapes = decode(payload["shapes"], dict[str, tuple[int, ...]], "mtrnet model.shapes")
    values = decode(payload["parameters"], dict, "mtrnet model.parameters")
    for key, entries in (("shapes", shapes), ("parameters", values)):
        check_keys(entries, entries, f"mtrnet model.{key}", required=model.parameters())
    for name, param in model.parameters().items():
        shape, where = param.shape, f"mtrnet model.parameters.{name}"
        if shapes[name] != shape:
            raise ValueError(f"mtrnet model.shapes.{name}: expected {shape}, got {shapes[name]}")
        tp = tuple[float, ...] if len(shape) == 1 else tuple[tuple[float, ...], ...]
        nested = decode(values[name], tp, where)
        try:
            value = np.array(nested, dtype=np.float64)
        except ValueError:  # numpy refuses a ragged list
            raise ValueError(f"{where}: ragged nested list") from None
        if value.shape != shape:
            raise ValueError(f"{where}: expected shape {shape}, got {value.shape}")
        if not np.isfinite(value).all():
            raise ValueError(f"{where}: non-finite value")
        param[...] = value  # in place: trained values are views of model.flat
    return model


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate(args) -> int:
    spec = datamod.DataSpec.from_dict(_load_json(args.config), "data config")
    if args.seed is not None:
        spec = spec.reseeded(args.seed, args.seed)
    d = datamod.load_dataset(spec)
    datamod.save_csv(d, args.out)
    print(f"wrote {d.n} rows x {d.d} covariates to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_json(args.config)
    check_keys(cfg, ("method", "config", "data", "metrics"), "train config",
               required=("method", "data"))
    spec = harness.MethodSpec.from_dict({"name": cfg["method"], "config": cfg.get("config", {})})
    method, net_config = spec.name, spec.base_config
    if args.seed is not None:
        net_config = replace(net_config, seed=args.seed)
    d = datamod.load_dataset(datamod.DataSpec.from_dict(cfg["data"], "data"))
    wanted = metricsmod.resolve_metrics(decode(cfg.get("metrics", []), tuple[str, ...], "metrics"),
                                        metricsmod.carried_fields(d))
    fitted = harness.fit_method(method, net_config, d)
    # built before anything is written, so a metric that fails leaves no
    # model.json; it keeps the config as given (a CFR-MMD net's has alpha = 0)
    report = metricsmod.evaluate_predictions(
        d, fitted.predict_cate(d.x), wanted,
        metadata={"method": harness.METHODS[method].label, "seed": net_config.seed,
                  "config": net_config.to_dict()},
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _dump_json(model_payload(method, fitted), out / "model.json")
    _dump_json(report.to_dict(), out / "report.json")
    print(f"trained {harness.METHODS[method].label}; wrote {out / 'model.json'}")
    return 0


def cmd_evaluate(args) -> int:
    fitted = load_fitted(_load_json(args.model))
    d = datamod.load_csv(args.data)
    wanted = metricsmod.resolve_metrics((), metricsmod.carried_fields(d))
    report = metricsmod.evaluate_predictions(d, fitted.predict_cate(d.x), wanted)
    _dump_json(report.to_dict(), args.out)
    print(f"wrote {args.out}")
    return 0


def _experiment_config(args) -> harness.ExperimentConfig:
    cfg_dict = _load_json(args.config)
    if args.preset:
        cfg_dict["preset"] = args.preset
    if args.seed is not None:
        cfg_dict["master_seed"] = args.seed
    return harness.ExperimentConfig.from_dict(cfg_dict)


def _dataset_label(config: harness.ExperimentConfig) -> str:
    return "synthetic" if config.dgp is not None else Path(config.csv_path).name


def cmd_experiment(args) -> int:
    config = _experiment_config(args)
    results, failures = harness.run_experiment(config, jobs=args.jobs)
    harness.write_results(args.out, results, failures, dataset_label=_dataset_label(config))
    print(f"wrote {len(results)} results to {args.out}")
    return 0


def cmd_sweep_m(args) -> int:
    config = _experiment_config(args)
    try:
        m_values = [float(v) for v in args.m.split(",")]
    except ValueError as exc:  # float's message quotes the bad entry
        raise ValueError(f"--m {args.m!r}: {exc}") from None
    sweep = harness.sweep_m(config, m_values, jobs=args.jobs)
    harness.write_sweep(args.out, sweep, dataset_label=_dataset_label(config))
    print(f"wrote sweep over m={m_values} to {args.out}")
    return 0


def cmd_theory_check(args) -> int:
    summary = theory.run_world_sweep(args.worlds, seed=args.seed or 0)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _dump_json(summary.to_dict(), out / "theory_checks.json")
    print(summary.table())
    if summary.residual_violations or summary.slack_violations:
        raise RuntimeError(
            f"{summary.residual_violations} identity and "
            f"{summary.slack_violations} inequality violations"
        )
    return 0


def cmd_report(args) -> int:
    results = [res for path in args.results for res in harness.read_results_jsonl(path)]
    if not results:
        raise ValueError("no results found")
    harness.write_results(args.out, results, failures=[], dataset_label=args.dataset)
    print(f"aggregated {len(results)} results into {args.out}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtcate",
        description="Treatment-effect estimation with missing treatment labels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthetic data + missingness -> CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="one method, one dataset -> model JSON + report")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="model JSON + CSV -> report JSON")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="full multi-run protocol")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--preset", choices=sorted(harness.PRESETS))
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("sweep-m", help="experiment across missing fractions")
    p.add_argument("--config", required=True)
    p.add_argument("--m", required=True, help="comma-separated fractions in (0,1)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--preset", choices=sorted(harness.PRESETS))
    p.set_defaults(func=cmd_sweep_m)

    p = sub.add_parser("theory-check", help="identity/bound sweeps on random discrete worlds")
    p.add_argument("--worlds", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_theory_check)

    p = sub.add_parser("report", help="aggregate result files")
    p.add_argument("--results", nargs="+", required=True)
    p.add_argument("--dataset", default="synthetic")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # contract: JSON error object + nonzero exit
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
