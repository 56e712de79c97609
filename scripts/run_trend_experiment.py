"""Missing-fraction sweep of the calibrated trend workload (`mtcate.trend`):
MTRNet against TARNet with deletion. Writes what `mtcate sweep-m` writes
and prints, per missing fraction, how many seeds MTRNet wins on the
missing domain.

Usage:
    python scripts/run_trend_experiment.py --out results/trend \
        --m 0.3,0.5,0.7 --runs 10 --seed 20260810 [--jobs 4]
"""

import argparse
import statistics
import sys

from mtcate.harness import sweep_m, write_sweep
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

    m_values = [float(v) for v in args.m.split(",")]
    sweep = sweep_m(build_config(m_values[0], args.runs, args.seed), m_values, jobs=args.jobs)
    write_sweep(args.out, sweep)
    for m, results, _ in sweep:
        by_run = {}
        for res in results:
            by_run.setdefault(res.run_index, {})[res.method] = (
                res.report.metrics["sqrt_pehe"]["t_missing"]
            )
        gaps = [v["tarnet_del"] - v["mtrnet"] for v in by_run.values()]
        wins = sum(g >= 0 for g in gaps)
        print(f"m={m:g}: balanced representation wins {wins}/{len(gaps)} seeds "
              f"on the missing domain, median gap {statistics.median(gaps):+.3f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
