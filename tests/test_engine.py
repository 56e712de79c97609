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
from dataclasses import replace

import numpy as np
import pytest

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

# sha256(model.flat.tobytes())[:16] after each step of the reference engine
PINNED = {
    "cfrmmd_delete": (
        "c9d467de14258a97", "4848966712abda50", "742019367ec19ebf",
        "520eade7998b6809", "c1f877122268398b", "35b2362514006b6c",
    ),
    "cfrmmd_reweight": (
        "ddaf21e150cf134c", "5ecd6081bbcbd6d9", "1107e53b9265aba4",
        "e3260a1628f064f7", "3dc061d4a441b353", "b44ad0edb46cd73d",
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
        "5aa725a228893953", "84d0e74a982e5477", "336c649f9fa73a37",
        "c0f5b0c49b761496", "b07ef6cd7ad163b3", "d7c4711308f84052",
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
