"""The lean training engine against a reference engine on the same tape.

The reference is the textbook form: the L2 penalty is built on the tape,
backward zero-fills every node's gradient and accumulates into it in
place, and Adam keeps one state per parameter array. The lean engine
adds the L2 gradient after backward, assigns each node's first gradient
contribution and makes one Adam update over the flat parameter buffer.
Both must give bitwise-equal gradients and parameters step after step, for
MTRNet and for the TARNet and CFR-MMD baselines trained by the same engine."""

from dataclasses import replace

import numpy as np
import pytest

from mtcate import cli, mtrnet
from mtcate.autodiff import Tensor, add, asum, mul
from mtcate.baselines import apply_strategy, cfrmmd_train, tarnet_train
from mtcate.data import Dataset
from mtcate.nn import AdamState, adam_step

ITERATIONS = 6


def topological_order(loss):
    """Every node reachable from `loss`, parents first, in backward's DFS order."""
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._vjps:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def reference_backward(loss):
    """Zero-fill, then accumulate in place, in the same DFS topological order."""
    order = topological_order(loss)
    for node in order:
        node.grad = np.zeros_like(node.value)
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        for parent, vjp in node._vjps:
            parent.grad += vjp(node.grad)


def l2_penalty(weights):
    """The sum of squared entries of `weights`, composed on the tape left to right."""
    total = None
    for w in weights:
        term = asum(mul(w, w))
        total = term if total is None else add(total, term)
    return total


class ReferenceCheck:
    """Wraps mtrnet's backward and adam_step: every step first runs the
    reference engine on the lean loss plus the L2 penalty on the tape, then
    the lean one, and compares the gradients and the parameters bitwise."""

    def __init__(self, monkeypatch):
        self.model = None
        self.steps = 0
        self.lean_step = mtrnet.training_step
        self.lean_backward = mtrnet.backward
        self.lean_adam = mtrnet.adam_step
        monkeypatch.setattr(mtrnet, "training_step", self.training_step)
        monkeypatch.setattr(mtrnet, "backward", self.backward)
        monkeypatch.setattr(mtrnet, "adam_step", self.adam_step)

    def training_step(self, model, batch, **kwargs):
        if model is not self.model:
            self.model = model
            self.reference = {name: (t.value.copy(), AdamState.like(t.value))
                              for name, t in model.parameters().items()}
        record = self.lean_step(model, batch, **kwargs)
        assert record["l2"] == self.reference_l2
        return record

    def backward(self, loss):
        trained = self.model.parameters()
        penalty = l2_penalty(self.model.hypothesis_weights())
        self.reference_l2 = float(penalty.value)
        reference_backward(add(loss, mul(penalty, self.model.config.l2_lambda)))
        self.reference_grads = {name: t.grad.copy() for name, t in trained.items()}
        for t in trained.values():
            t.grad = None
        self.lean_backward(loss)

    def adam_step(self, param, grad, state, lr):
        assert param is self.model.flat and state is self.model.adam
        reference_grad = np.concatenate([g.ravel() for g in self.reference_grads.values()])
        assert grad.tobytes() == reference_grad.tobytes()
        for name, (value, ref_state) in self.reference.items():
            adam_step(value, self.reference_grads[name], ref_state, lr)
        out = self.lean_adam(param, grad, state, lr)
        for name, t in self.model.parameters().items():
            assert np.shares_memory(t.value, self.model.flat), name
            assert t.value.tobytes() == self.reference[name][0].tobytes(), name
        self.steps += 1
        return out


def masked_data(n=120, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4))
    t = (rng.random(n) < 0.5).astype(float)
    r = (rng.random(n) < 0.7).astype(np.int64)
    y = x[:, 0] + t * (1.0 + x[:, 1]) + 0.1 * rng.standard_normal(n)
    t_public = np.where(r == 1, t, np.nan)
    return Dataset(x=x, t=t_public, r=r, y=y)


CONFIG = mtrnet.MTRNetConfig(rep_layer_size=8, hyp_layer_size=8, iterations=ITERATIONS,
                             batch_size=48, dropout_rate=0.2, l2_lambda=1e-3,
                             alpha=1.0, beta=4.0, seed=5)

FITS = {
    "mtrnet": lambda data, cfg: mtrnet.train(data, cfg),
    "mtrnet_treatment_only": lambda data, cfg: mtrnet.train(data, replace(cfg, beta=0.0)),
    "tarnet_reweight": lambda data, cfg: tarnet_train(*apply_strategy(data, "reweight"), cfg),
    "cfrmmd_delete": lambda data, cfg: cfrmmd_train(*apply_strategy(data, "delete"), cfg),
}


@pytest.mark.parametrize("fit", sorted(FITS))
def test_lean_engine_is_bitwise_the_reference_engine(monkeypatch, fit):
    check = ReferenceCheck(monkeypatch)
    model, _ = FITS[fit](masked_data(), CONFIG)
    assert check.steps == ITERATIONS and check.model is model
    assert model.adam.step == ITERATIONS


@pytest.mark.parametrize("fit", sorted(FITS))
def test_l2_penalty_adds_only_its_constant_to_the_tape(monkeypatch, fit):
    """The penalty's one node is the add of its value into the loss, which
    keeps the loss's rounding; the sum of squares itself is not on the tape."""
    nodes = []
    lean_backward = mtrnet.backward

    def counting_backward(loss):
        nodes.append(len(topological_order(loss)))
        lean_backward(loss)

    monkeypatch.setattr(mtrnet, "backward", counting_backward)
    for l2_lambda in (1e-3, 0.0):
        FITS[fit](masked_data(), replace(CONFIG, iterations=1, l2_lambda=l2_lambda))
    assert nodes[0] == nodes[1] + 1


@pytest.mark.parametrize("alpha, beta, in_flat", [
    (1.0, 4.0, {"k_t", "k_r"}), (0.0, 4.0, {"k_r"}), (0.0, 0.0, set()),
])
def test_flat_buffer_holds_discriminators_only_when_weighted(alpha, beta, in_flat):
    model = mtrnet.init_model(replace(CONFIG, alpha=alpha, beta=beta), 4)
    params = model.parameters()
    assert {name.split(".", 1)[0] for name in params} == {"phi", "h0", "h1"} | in_flat
    for name, t in params.items():
        assert np.shares_memory(t.value, model.flat), name
    assert model.flat.size == model.adam.m.size == sum(t.value.size for t in params.values())


def test_load_fitted_writes_into_the_flat_buffer():
    data = masked_data(seed=1)
    model, _ = mtrnet.train(data, CONFIG)
    clone = cli.load_fitted(cli.model_payload("mtrnet", model))
    for name, t in clone.parameters().items():
        assert np.shares_memory(t.value, clone.flat), name
        assert np.array_equal(t.value, model.parameters()[name].value), name
    x = data.x[:10]
    before = mtrnet.predict_cate(clone, x)
    flat_before = clone.flat.copy()
    mtrnet.training_step(clone, mtrnet.TrainingBatch(data.x, data.t, data.r, data.y),
                         rng=np.random.default_rng(0))
    assert not np.array_equal(clone.flat, flat_before)
    assert not np.array_equal(mtrnet.predict_cate(clone, x), before)


def test_trained_parameter_without_gradient_is_an_error(monkeypatch):
    data = masked_data(seed=2)
    model = mtrnet.init_model(CONFIG, data.d)
    unreached = {**model.parameters(), "unreached.w": Tensor(np.zeros(3))}
    monkeypatch.setattr(model, "parameters", lambda: unreached)
    with pytest.raises(RuntimeError, match="unreached.w"):
        mtrnet.training_step(model, mtrnet.TrainingBatch(data.x, data.t, data.r, data.y),
                             rng=np.random.default_rng(0))
