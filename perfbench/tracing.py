"""Span tracing at the binding sites of mtcate's layer functions.

A layer function is wrapped where its caller looks it up, not only where it
is defined: `mtrnet` imports `backward`, `mmd2_rbf`, `dense_forward`,
`dropout_mask` and `adam_step` by name and `baselines` imports `adam_step`
by name, so patching `autodiff.backward` or `nn.adam_step` alone would record
nothing. Spans are aggregated per name (every duration, and self time); self time is a span's duration minus the time its traced children
cover. Pool workers forked by `harness.run_experiment(jobs>1)` inherit the
patches; each worker job writes its spans to a file that the parent merges.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
import uuid
from pathlib import Path

# (module attribute holding the function at the call site, span name).
# The span name is "<defining module>.<function>"; the Adam update is split
# by caller because both training engines call it.
BINDING_SITES = (
    ("data", "generate", "data.generate"),
    ("data", "apply_missingness", "data.apply_missingness"),
    ("data", "split", "data.split"),
    ("data", "concat", "data.concat"),
    ("mtrnet", "backward", "autodiff.backward"),
    ("mtrnet", "mmd2_rbf", "autodiff.mmd2_rbf"),
    ("mtrnet", "dense_forward", "nn.dense_forward"),
    ("mtrnet", "dropout_mask", "nn.dropout_mask"),
    ("mtrnet", "adam_step", "nn.adam_step.from_mtrnet"),
    ("baselines", "adam_step", "nn.adam_step.from_baselines"),
    ("mtrnet", "train", "mtrnet.train"),
    ("mtrnet", "training_step", "mtrnet.training_step"),
    ("mtrnet", "predict_cate", "mtrnet.predict_cate"),
    ("baselines", "apply_strategy", "baselines.apply_strategy"),
    ("baselines", "fit_observedness", "baselines.fit_observedness"),
    ("baselines", "fit_treatment_classifier", "baselines.fit_treatment_classifier"),
    ("baselines", "ols_fit", "baselines.ols_fit"),
    ("metrics", "pehe_nn", "metrics.pehe_nn"),
    ("metrics", "nn_surrogate_effects", "metrics.nn_surrogate_effects"),
    ("metrics", "evaluate_predictions", "metrics.evaluate_predictions"),
    ("theory", "run_world_sweep", "theory.run_world_sweep"),
    ("theory", "random_world", "theory.random_world"),
    ("theory", "check_decompositions", "theory.check_decompositions"),
    ("theory", "check_bounds", "theory.check_bounds"),
    ("theory", "eps_terms", "theory.eps_terms"),
    ("theory", "ipm_supnorm", "theory.ipm_supnorm"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "sweep_m", "harness.sweep_m"),
    ("harness", "cross_validate", "harness.cross_validate"),
    ("harness", "selection_score", "harness.selection_score"),
    ("harness", "fit_method", "harness.fit_method"),
)
SPAN_NAMES = tuple(name for _, _, name in BINDING_SITES)
# Worker-side span around one pooled (run, method) job; its busy time is the
# pool's busy time.
POOL_JOB = "harness.pool.job"
LAYERS = ("data", "autodiff", "nn", "mtrnet", "baselines", "metrics", "theory", "harness")

# Candidate tail percentiles, highest first; a span reports the highest one
# with at least MIN_TAIL_SAMPLES samples beyond it.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)
MIN_TAIL_SAMPLES = 10


def tape_nodes(loss) -> int:
    """Nodes reachable from `loss` through the tape's parent links."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent, _ in getattr(stack.pop(), "_vjps", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def surrogate_bytes(x, t) -> int:
    """Bytes of the float64 difference tensors nn_surrogate_effects builds:
    n1*n0*d*8 for each of its two arm directions (computed, not measured)."""
    import numpy as np  # loaded by then; importing it here keeps it out of run.py's start-up

    t = np.asarray(t, dtype=np.float64)
    n1 = int(np.count_nonzero(t == 1.0))
    n0 = int(np.count_nonzero(t == 0.0))
    return 2 * n1 * n0 * int(np.shape(x)[1]) * 8


class Tracer:
    """Per-name span aggregates and exact counters for one process."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.self_time: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[float] = []  # child time covered so far, per open span

    def reset(self) -> None:
        # cleared in place: the installed wrappers hold these objects
        for store in (self.self_time, self.durations, self.counts, self._stack):
            store.clear()

    def _count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, count=None):
        """`fn` wrapped in a span; `count(args, kwargs, duration)` runs after
        the span closes and its time is kept out of the parent's self time."""
        stack, self_time, durations = self._stack, self.self_time, self.durations

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                self_time[name] = self_time.get(name, 0.0) + duration - children
                durations.setdefault(name, []).append(duration)
                if count is not None:
                    count(args, kwargs, duration)
                if stack:
                    stack[-1] += time.perf_counter() - start

        return wrapper

    # -- counters attached to specific spans -------------------------------

    def _count_backward(self, args, kwargs, duration):
        self._count("autodiff.tape_nodes", tape_nodes(args[0] if args else kwargs["loss"]))

    def _count_surrogate(self, args, kwargs, duration):
        x = args[0] if args else kwargs["x"]
        t = args[1] if len(args) > 1 else kwargs["t"]
        self._count("metrics.nn_surrogate_effects.bytes_computed", surrogate_bytes(x, t))

    def _count_pool_slots(self, args, kwargs, duration):
        jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
        if jobs > 1:
            self._count("harness.pool.slot_s", jobs * duration)
            self._count("harness.pool.wait_s", duration)  # the parent only waits

    def _spill_worker_job(self, run_job):
        """The pool job: a worker-local span whose aggregates are written to
        a file when the job ends (the worker's memory dies with it)."""

        traced_job = self.wrap(POOL_JOB, run_job)

        @functools.wraps(run_job)
        def job(args):
            self.reset()
            try:
                return traced_job(args)
            finally:
                self.spill(self.spill_dir / f"job-{os.getpid()}-{uuid.uuid4().hex}.json")

        return job

    # -- install / merge ------------------------------------------------------

    def install(self, package) -> list:
        """Patch every binding site on the imported `package` modules;
        returns the originals for `uninstall`."""
        counters = {
            "autodiff.backward": self._count_backward,
            "metrics.nn_surrogate_effects": self._count_surrogate,
            "harness.run_experiment": self._count_pool_slots,
        }
        originals = []
        for module_name, attr, name in BINDING_SITES:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, counters.get(name)))
        harness = package.harness
        originals.append((harness, "_job", harness._job))
        harness._job = self._spill_worker_job(harness._job)
        return originals

    @staticmethod
    def uninstall(originals) -> None:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)

    def spill(self, path: Path) -> None:
        payload = {"self_time": self.self_time, "durations": self.durations,
                   "counts": self.counts}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)

    def merge_spilled(self) -> int:
        """Fold in (and delete) every worker file; returns how many."""
        files = sorted(self.spill_dir.glob("job-*.json"))
        for path in files:
            payload = json.loads(path.read_text())
            for name, value in payload["self_time"].items():
                self.self_time[name] = self.self_time.get(name, 0.0) + value
            for name, values in payload["durations"].items():
                self.durations.setdefault(name, []).extend(values)
            for key, value in payload["counts"].items():
                self._count(key, value)
            path.unlink()
        return len(files)

    def calls(self) -> dict[str, int]:
        return {name: len(d) for name, d in self.durations.items()}

    def snapshot(self) -> dict:
        """Copy of the aggregates, for comparing repeats."""
        return {
            "self_time": dict(self.self_time),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "counts": dict(self.counts),
        }


def tail(samples: list[float]):
    """(percentile, value) for the highest candidate percentile that leaves
    at least MIN_TAIL_SAMPLES samples beyond it, or (None, None)."""
    n = len(samples)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= MIN_TAIL_SAMPLES:
            ordered = sorted(samples)
            rank = min(n - 1, int(round(pct / 100.0 * (n - 1))))
            return pct, ordered[rank]
    return None, None


def exact_counts(snap: dict) -> dict:
    """The counts that must repeat exactly from one repeat to the next."""
    counts = snap["counts"]
    calls = {name: len(d) for name, d in snap["durations"].items()}
    steps = calls.get("mtrnet.training_step", 0)
    worlds = calls.get("theory.random_world", 0)
    return {
        "calls": {name: calls.get(name, 0) for name in SPAN_NAMES + (POOL_JOB,)},
        "autodiff.tape_nodes_per_step": counts.get("autodiff.tape_nodes", 0) / steps if steps else 0.0,
        "nn.adam_step.calls_per_step": (
            calls.get("nn.adam_step.from_mtrnet", 0) / steps if steps else 0.0
        ),
        "theory.eps_terms.calls_per_world": (
            calls.get("theory.eps_terms", 0) / worlds if worlds else 0.0
        ),
        "metrics.nn_surrogate_effects.bytes_computed": counts.get(
            "metrics.nn_surrogate_effects.bytes_computed", 0),
    }


def summarize(snaps: list[dict]) -> dict:
    """Per-span statistics per repeat (totals divided by the number of
    repeats; percentiles over the pooled samples) plus per-layer self-time
    shares and pool figures."""
    repeats = len(snaps)
    spans = {}
    total_self = 0.0
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name in SPAN_NAMES + (POOL_JOB,):
        samples = [d for s in snaps for d in s["durations"].get(name, [])]
        busy = sum(samples) / repeats
        self_s = sum(s["self_time"].get(name, 0.0) for s in snaps) / repeats
        pct, tail_value = tail(samples)
        spans[name] = {
            "calls": len(samples) / repeats,
            "busy_s": busy,
            "self_s": self_s,
            "samples": len(samples),
            "p50_ms": 1e3 * statistics.median(samples) if samples else 0.0,
            "tail_pct": pct,
            "tail_ms": 1e3 * tail_value if tail_value is not None else 0.0,
        }
        total_self += self_s
        layer_self[name.split(".", 1)[0]] += self_s
    # Self-time shares count work, so the parent's wait on its pool is left out.
    wait_s = sum(s["counts"].get("harness.pool.wait_s", 0.0) for s in snaps) / repeats
    layer_self["harness"] -= wait_s
    total_self -= wait_s
    slot_s = sum(s["counts"].get("harness.pool.slot_s", 0.0) for s in snaps) / repeats
    worker_busy = spans[POOL_JOB]["busy_s"]
    return {
        "spans": spans,
        "layer_self_share": {
            layer: (value / total_self if total_self else 0.0)
            for layer, value in layer_self.items()
        },
        "pool": {
            "worker_busy_s": worker_busy,
            "utilization": worker_busy / slot_s if slot_s else 0.0,
        },
    }
