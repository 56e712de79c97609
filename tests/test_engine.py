"""The training engine against the bytes of a reference engine, pinned.

The reference is reverse-mode differentiation of the whole objective on a
general tape, with the L2 penalty built on the tape, zero-filled gradients
accumulated in place, and one Adam state per parameter array. Its
parameters after each of the first six steps were recorded as
sha256(model.flat) prefixes, for MTRNet and for the TARNet and CFR-MMD
baselines trained by the same engine. The hand-written forward and
backward must reproduce them bit for bit. One more fit, MTRNet with the
MMD penalty as well, puts both discriminators and the penalty on the same
observed rows; its digests were recorded from the hand-written engine
with a separate backward block per discriminator and for the penalty."""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mtcate
from mtcate import cli, mtrnet
from mtcate.baselines import apply_strategy, cfrmmd_train, tarnet_train
from mtcate.data import Dataset

ITERATIONS = 6


def masked_data(n=120, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4))
    t = (rng.random(n) < 0.5).astype(float)
    r = (rng.random(n) < 0.7).astype(np.int64)
    y = x[:, 0] + t * (1.0 + x[:, 1]) + 0.1 * rng.standard_normal(n)
    t_public = np.where(r == 1, t, np.nan)
    return Dataset(x=x, t=t_public, y=y)


CONFIG = mtrnet.MTRNetConfig(rep_layer_size=8, hyp_layer_size=8, iterations=ITERATIONS,
                             batch_size=48, dropout_rate=0.2, l2_lambda=1e-3,
                             alpha=1.0, beta=4.0, seed=5)

FITS = {
    "mtrnet": lambda data, cfg: mtrnet.train(data, cfg),
    "mtrnet_treatment_only": lambda data, cfg: mtrnet.train(data, replace(cfg, beta=0.0)),
    "mtrnet_missingness_only": lambda data, cfg: mtrnet.train(data, replace(cfg, alpha=0.0)),
    "mtrnet_with_mmd": lambda data, cfg: mtrnet.train(data, cfg, mmd_weight=0.5),
    "tarnet_delete": lambda data, cfg: tarnet_train(*apply_strategy(data, "delete"), cfg),
    "tarnet_reweight": lambda data, cfg: tarnet_train(*apply_strategy(data, "reweight"), cfg),
    "cfrmmd_delete": lambda data, cfg: cfrmmd_train(*apply_strategy(data, "delete"), cfg),
    "cfrmmd_reweight": lambda data, cfg: cfrmmd_train(*apply_strategy(data, "reweight"),
                                                      replace(cfg, alpha=0.5)),
}

# sha256(model.flat.tobytes())[:16] after each step of the reference engine;
# the reweight fits' row weights are those of the feature-major strategy
# classifier (baselines._fit_logistic)
PINNED = {
    "cfrmmd_delete": (
        "c9d467de14258a97", "4848966712abda50", "742019367ec19ebf",
        "520eade7998b6809", "c1f877122268398b", "35b2362514006b6c",
    ),
    "cfrmmd_reweight": (
        "dfe32319c8ee68f4", "de192a272b1635af", "20b6da4b572c8fc5",
        "9ef82a929c451862", "c397aa9381c2e428", "dc0b3d0676a69d9c",
    ),
    "mtrnet": (
        "48061a50e9aaf9a4", "f4094c41d0760237", "0851a0d22c3debed",
        "6ae994922b8bb006", "33c3891b1f8980d5", "2e7dbeec3a450ffa",
    ),
    "mtrnet_missingness_only": (
        "c6d33cd34f50dace", "0129e495a96348cc", "b74d63b62e8d76f4",
        "9adf13b40a681e68", "8091d30765a4330d", "3649e34af784f328",
    ),
    "mtrnet_with_mmd": (
        "39f42cc6e6093e35", "a8fee711e8cd0497", "5d97d711d9a40b58",
        "8ebcbc9c33e738ae", "5e44f7e52f14e776", "b8d4677a2614df43",
    ),
    "mtrnet_treatment_only": (
        "d9264b9455df7e1c", "d7f990d6cab4abf7", "5e144bf10131f3f9",
        "9421246eac95fd38", "fec84a3991262666", "81a33669aa98bb45",
    ),
    "tarnet_delete": (
        "644228c0486f888c", "f4677f9383fae96d", "92220ec49ae04b00",
        "56695526fba08897", "504fb90e223a83a6", "097eda9fcb7fd0ed",
    ),
    "tarnet_reweight": (
        "95d0be84dce2cbb0", "f9b6071e69d7a9ce", "a77d5463cc7a712f",
        "689db0b4ec3b3b9b", "e5d04338544cb1bd", "0f997fa75808e1b4",
    ),
}


@pytest.mark.parametrize("fit", sorted(FITS))
def test_lean_engine_is_bitwise_the_reference_engine(monkeypatch, fit):
    """Every step's parameters equal the reference engine's, and Adam only
    ever sees a finite gradient, although each step starts from a gradient
    buffer of NaN."""
    digests, applied = [], []
    step, adam_step = mtrnet.training_step, mtrnet.adam_step

    def checked_step(model, batch, **kwargs):
        model.grad[:] = np.nan
        record = step(model, batch, **kwargs)
        digests.append(hashlib.sha256(model.flat.tobytes()).hexdigest()[:16])
        return record

    def checked_adam_step(param, grad, state, lr):
        applied.append(np.isfinite(grad).all())
        return adam_step(param, grad, state, lr)

    monkeypatch.setattr(mtrnet, "training_step", checked_step)
    monkeypatch.setattr(mtrnet, "adam_step", checked_adam_step)
    model, _ = FITS[fit](masked_data(), CONFIG)
    assert applied == [True] * ITERATIONS
    assert tuple(digests) == PINNED[fit]
    assert model.adam.step == ITERATIONS


@pytest.mark.parametrize("alpha, beta, in_flat", [
    (1.0, 4.0, {"k_t", "k_r"}), (0.0, 4.0, {"k_r"}), (0.0, 0.0, set()),
])
def test_flat_buffer_holds_discriminators_only_when_weighted(alpha, beta, in_flat):
    model = mtrnet.init_model(replace(CONFIG, alpha=alpha, beta=beta), 4)
    params = model.parameters()
    assert {name.split(".", 1)[0] for name in params} == {"phi", "h0", "h1"} | in_flat
    for name, param in params.items():
        assert np.shares_memory(param, model.flat), name
    assert model.flat.size == model.adam.m.size == sum(p.size for p in params.values())


def test_load_fitted_writes_into_the_flat_buffer():
    data = masked_data(seed=1)
    model, _ = mtrnet.train(data, CONFIG)
    clone = cli.load_fitted(cli.model_payload("mtrnet", model))
    for name, param in clone.parameters().items():
        assert np.shares_memory(param, clone.flat), name
        assert np.array_equal(param, model.parameters()[name]), name
    x = data.x[:10]
    before = mtrnet.predict_cate(clone, x)
    flat_before = clone.flat.copy()
    mtrnet.training_step(clone, mtrnet.TrainingBatch(data.x, data.t, data.y),
                         rng=np.random.default_rng(0))
    assert not np.array_equal(clone.flat, flat_before)
    assert not np.array_equal(mtrnet.predict_cate(clone, x), before)


# Two 100-step fits at shapes where a multi-threaded OpenBLAS rounds some
# products differently: CFR-MMD at the trend shapes (its MMD's `x @ x.T` and
# `K @ x`) and MTRNet at widths 100 and batch 70. Then OLS with reweighting on
# 20,000-row trend data, whose strategy classifier runs n-long products.
# mtcate is imported before numpy, as the CLI and a pool worker import it.
BLAS_FITS = """
import hashlib
from dataclasses import replace
from mtcate import harness
from mtcate.trend import trend_config, trend_dgp
config = trend_config(0.5, master_seed=1)
harness._serve(config, None)
train = harness._run_splits(0, config.methods[0])[0]
net = replace(config.methods[0].base_config, iterations=100, seed=3, alpha=1.0)
for name, cfg in (("cfrmmd_del", net), ("mtrnet", replace(
        net, rep_layer_size=100, hyp_layer_size=100, batch_size=70, beta=8.0))):
    print(name, hashlib.sha256(harness.fit_method(name, cfg, train).flat).hexdigest())
harness._serve(replace(config, dgp=trend_dgp(n=20000)), None)
ols = harness.fit_method("ols_rew", net, harness._run_splits(0, config.methods[0])[0])
print("ols_rew", hashlib.sha256(ols.beta0.tobytes() + ols.beta1.tobytes()).hexdigest())
"""
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def unpinned_env() -> dict:
    """This process's environment without the BLAS thread variables, with
    mtcate's source tree on PYTHONPATH."""
    src = str(Path(mtcate.__file__).parents[1])
    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


@pytest.mark.slow
def test_fit_bytes_do_not_depend_on_the_blas_thread_count():
    base = unpinned_env()
    digests = []
    for pinned in ({}, dict.fromkeys(BLAS_THREAD_VARS, "1")):
        done = subprocess.run([sys.executable, "-c", BLAS_FITS], capture_output=True, text=True,
                              env={**base, **pinned}, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.split())
    assert len(digests[0]) == 6 and digests[0] == digests[1]


# Loads a file as a module (a script's `main` does not run) and prints
# whether mtcate entered `sys.modules` before numpy.
IMPORTS_MTCATE_FIRST = """
import runpy, sys
runpy.run_path(sys.argv[1], run_name="loaded_by_path")
names = list(sys.modules)
print(names.index("mtcate") < names.index("numpy"))
"""


def imports_mtcate_first(path: Path) -> bool:
    """Whether loading `path` in a fresh interpreter, with the BLAS thread
    variables unset, imports mtcate before numpy."""
    done = subprocess.run([sys.executable, "-c", IMPORTS_MTCATE_FIRST, str(path)],
                          capture_output=True, text=True, env=unpinned_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split() == ["True"]


def test_trend_script_imports_mtcate_before_numpy():
    # else numpy loads OpenBLAS before mtcate's import pins it to one thread
    assert imports_mtcate_first(Path(__file__).parents[1] / "scripts" / "run_trend_experiment.py")


def test_conftest_imports_mtcate_before_numpy():
    # else the whole test session runs with OpenBLAS's default thread count
    assert imports_mtcate_first(Path(__file__).with_name("conftest.py"))
