"""mtcate benchmark: one seeded workload, end-to-end metrics or a traced
per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload trend --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/workloads.py and BENCHMARK.json for why each):
trend, ols_sweep, cfr_jobs2, theory. Each run repeats the workload until
`--seconds` have passed and at least two repeats are done.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  runs_per_s   completed harness runs (one results.jsonl line each) per wall
               second; on theory, checked worlds per wall second. Median
               over repeats.
  cpu_s        user + system CPU seconds of one repeat, pool workers
               included. Median over repeats.
  peak_rss_mb  peak resident memory of the largest process, workers included.
  setup_s      time to import the package and build the workload's inputs,
               median of several fresh processes.
--trace 1 runs one untraced repeat and two traced repeats and reports the
per-layer metrics (calls, busy and self time, latency percentiles, exact
counts, per-layer self-time shares, pool figures) and the tracing overhead.

Correctness checks, any failure exits 1: zero failed runs, finite metrics,
identical results digests across repeats (traced or not), zero theory
violations with max |residual| <= 1e-10, and identical exact counts across
traced repeats. The line before the result carries an "info" object: the
environment, the results digest, result values (mean missing-domain
sqrt PEHE) and per-repeat figures.
"""

import os

# Pin BLAS before numpy loads; pool workers inherit the environment.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("trend", "ols_sweep", "cfr_jobs2", "theory")
SETUP_PROBES = 4  # extra fresh processes timing set-up, besides this one
MIN_REPEATS = 2
TRACED_REPEATS = 2
# The span names whose latency percentiles are reported as metrics: the
# per-call costs an optimisation of the engine, metrics or pool would move.
LATENCY_SPANS = (
    "mtrnet.train", "mtrnet.training_step", "mtrnet.predict_cate",
    "autodiff.backward", "autodiff.mmd2_rbf", "nn.dense_forward",
    "nn.adam_step.from_mtrnet", "harness.fit_method", "harness.pool.job",
    "metrics.pehe_nn", "baselines.apply_strategy", "theory.check_bounds",
)
# Spans with traced children, so busy and self time differ.
NONLEAF_SPANS = (
    "mtrnet.train", "mtrnet.training_step", "mtrnet.predict_cate",
    "baselines.apply_strategy", "baselines.fit_observedness",
    "baselines.fit_treatment_classifier", "metrics.pehe_nn",
    "metrics.evaluate_predictions", "harness.run_experiment", "harness.sweep_m",
    "harness.cross_validate", "harness.selection_score", "harness.fit_method",
    "theory.run_world_sweep", "theory.check_decompositions", "theory.check_bounds",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if args.seed < 0:
        p.error("--seed must be >= 0")  # numpy seed sequences take no negatives
    return args


def load_workload(name: str, seed: int):
    """Import the package from this checkout's src/ and build the inputs;
    returns (package, workload, seconds taken)."""
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import mtcate
    # every traced module, so each is an attribute of the package
    from mtcate import baselines, data, harness, metrics, mtrnet, theory  # noqa: F401
    import workloads

    if Path(mtcate.__file__).resolve().parent != SRC / "mtcate":
        raise SystemExit(f"imported mtcate from {mtcate.__file__}, not from {SRC}")
    workload = workloads.build(name, seed)
    return mtcate, workload, time.perf_counter() - started


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN holds the largest reaped
    # child, which is how pool workers are counted.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_repeat(workload, work_dir: Path, index: int) -> dict:
    out = work_dir / f"repeat-{index}"
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    rep = workload.run(out)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    shutil.rmtree(out, ignore_errors=True)
    return {"wall_s": wall, "cpu_s": cpu, "attempted": rep.attempted, "failed": rep.failed,
            "digest": rep.digest, "quality": rep.quality, "problems": rep.problems}


def setup_probes(args) -> list[float]:
    """Set-up time in fresh interpreters (import is paid once per process)."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def environment(args) -> dict:
    import numpy as np

    commit = None  # an exported checkout has no history
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines,
    }


def check_repeats(repeats) -> list[str]:
    problems = [p for r in repeats for p in r["problems"]]
    digests = sorted({r["digest"] for r in repeats})
    if len(digests) != 1:
        problems.append(f"results differ between repeats of the same seed: {digests}")
    return problems


def measure(workload, seconds: int, work_dir: Path):
    """Repeat untraced until `seconds` have passed and MIN_REPEATS are done;
    returns (repeats, {metric: (value, unit)})."""
    repeats = []
    started = time.perf_counter()
    while len(repeats) < MIN_REPEATS or time.perf_counter() - started < seconds:
        repeats.append(run_repeat(workload, work_dir, len(repeats)))
    return repeats, {
        "runs_per_s": (statistics.median(r["attempted"] / r["wall_s"] for r in repeats), "1/s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in repeats), "s"),
        # read before the set-up probes add children of their own
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def measure_traced(package, workload, work_dir: Path):
    """One untraced repeat, then TRACED_REPEATS traced ones; returns
    (repeats, {metric: (value, unit)}, info, problems)."""
    repeats = [run_repeat(workload, work_dir, 0)]
    tracer = tracing.Tracer(work_dir / "spans")
    tracer.spill_dir.mkdir(parents=True, exist_ok=True)
    snaps = []
    originals = tracer.install(package)
    try:
        for i in range(TRACED_REPEATS):
            tracer.reset()
            repeats.append(run_repeat(workload, work_dir, i + 1))
            tracer.merge_spilled()
            snaps.append(tracer.snapshot())
    finally:
        tracer.uninstall(originals)

    problems = []
    counts = [tracing.exact_counts(s) for s in snaps]
    if any(c != counts[0] for c in counts[1:]):
        problems.append(f"exact counts differ between traced repeats: {counts}")
    summary = tracing.summarize(snaps)
    untraced_wall = repeats[0]["wall_s"]
    traced_wall = statistics.mean(r["wall_s"] for r in repeats[1:])

    metrics = {}
    for name, span in summary["spans"].items():
        if name == tracing.POOL_JOB:
            continue
        metrics[f"{name}.calls"] = (span["calls"], "count")
        metrics[f"{name}.self_s"] = (span["self_s"], "s")
        if name in NONLEAF_SPANS:  # a leaf's busy time equals its self time
            metrics[f"{name}.busy_s"] = (span["busy_s"], "s")
    for name in LATENCY_SPANS:
        metrics[f"{name}.p50_ms"] = (summary["spans"][name]["p50_ms"], "ms")
        metrics[f"{name}.tail_ms"] = (summary["spans"][name]["tail_ms"], "ms")
    exact = counts[0]
    for name in ("autodiff.tape_nodes_per_step", "nn.adam_step.calls_per_step",
                 "theory.eps_terms.calls_per_world"):
        metrics[name] = (exact[name], "count")
    metrics["metrics.nn_surrogate_effects.bytes_computed"] = (
        exact["metrics.nn_surrogate_effects.bytes_computed"], "B")
    metrics["harness.pool.worker_busy_s"] = (summary["pool"]["worker_busy_s"], "s")
    metrics["harness.pool.utilization"] = (summary["pool"]["utilization"], "1")
    for layer, share in summary["layer_self_share"].items():
        metrics[f"layer.{layer}.self_share"] = (share, "1")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.overhead_share"] = ((traced_wall - untraced_wall) / untraced_wall, "1")
    info = {"spans": summary["spans"], "exact_counts": exact}
    return repeats, metrics, info, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mtcate" / "__init__.py").is_file():
        print(f"error: no mtcate package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    package, workload, setup_s = load_workload(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            repeats, metrics, extra, problems = measure_traced(package, workload, work_dir)
        else:
            repeats, metrics = measure(workload, args.seconds, work_dir)
            setup_samples = [setup_s] + setup_probes(args)
            metrics["setup_s"] = (statistics.median(setup_samples), "s")
            extra, problems = {"setup_samples_s": setup_samples}, []
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problems = check_repeats(repeats) + problems
    info = {
        "environment": environment(args),
        "results_sha256": repeats[0]["digest"],
        "quality": repeats[0]["quality"],
        "repeats": [{k: r[k] for k in ("wall_s", "cpu_s", "attempted", "failed")}
                    for r in repeats],
        "problems": problems,
        **extra,
    }
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in repeats),
        "failed": sum(r["failed"] for r in repeats),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    if problems:
        for problem in problems:
            print(f"correctness check failed: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
