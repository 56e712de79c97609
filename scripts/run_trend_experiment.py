"""Missing-fraction sweep of the calibrated trend workload (`mtcate.trend`):
MTRNet against TARNet with deletion. Writes the long-format sweep CSV plus
per-run results for each missing fraction.

Usage:
    python scripts/run_trend_experiment.py --out results/trend \
        --m 0.3,0.5,0.7 --runs 10 --seed 20260810 [--jobs 4]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from mtcate.harness import run_experiment, write_results, write_sweep, aggregate
from mtcate.trend import trend_config


def build_config(m, runs, seed):
    return trend_config(m, num_runs=runs, master_seed=seed)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--m", default="0.3,0.5,0.7")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    out = Path(args.out)
    sweep_rows = []
    for m in [float(v) for v in args.m.split(",")]:
        config = build_config(m, args.runs, args.seed)
        results, failures = run_experiment(config, jobs=args.jobs)
        write_results(out / f"m_{m:g}", results, failures)
        for agg in aggregate(results):
            sweep_rows.append({
                "method": agg["method"], "m": m,
                "metric": f"{agg['metric']}.{agg['domain']}",
                "mean": agg["mean"], "std": agg["std"],
            })
        by_run = {}
        for res in results:
            by_run.setdefault(res.run_index, {})[res.method] = (
                res.report.metrics["sqrt_pehe"]["t_missing"]
            )
        gaps = [v["tarnet_del"] - v["mtrnet"] for v in by_run.values()]
        wins = sum(g >= 0 for g in gaps)
        print(f"m={m:g}: balanced representation wins {wins}/{len(gaps)} seeds "
              f"on the missing domain, median gap {np.median(gaps):+.3f}")
    write_sweep(out, sweep_rows)
    print(f"wrote {out / 'sweep_m.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
