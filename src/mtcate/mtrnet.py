"""The missing-treatment representation network and its training loop.

One shared representation feeds four heads: per-arm outcome regressors
h0/h1, a treatment discriminator and an observedness discriminator. The
discriminators descend on their own cross-entropy losses while the
representation ascends on them through a gradient-reversal node, which
pushes the representation towards being uninformative of both treatment
and missingness. A discriminator whose weight (alpha, beta) is 0 is neither
drawn nor trained, so the TARNet and CFR-MMD baselines are the
adversary-free subset of the same model and engine (optional per-row
weights / kernel penalty).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Tensor, add, asum, backward, bce_loss, elu, gather_rows, grad_reverse,
    mmd2_rbf, mul, pairwise_sq_dists, unit_normalize_rows,
)
from .data import Dataset
from .errors import DegenerateArmError, Spec, TrainingDivergedError
from .nn import (
    AdamState, DenseLayer, adam_step, dense_forward, dropout_mask, init_dense, pack,
)

# SeedSequence domain tags so model init / batching / dropout use
# independent streams even when other components share the integer seed.
_INIT_STREAM = 404
_BATCH_STREAM = 505
_DROPOUT_STREAM = 606

MAX_BATCH_RESAMPLES = 100


@dataclass(frozen=True)
class MTRNetConfig(Spec):
    rep_layer_size: int = 50
    hyp_layer_size: int = 50
    num_rep_layers: int = 3
    num_hyp_layers: int = 3
    iterations: int = 300
    batch_size: int = 100
    learning_rate: float = 1e-3
    dropout_rate: float = 0.1
    l2_lambda: float = 1e-4
    alpha: float = 1.0
    beta: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        counts = (
            self.rep_layer_size, self.hyp_layer_size,
            self.num_rep_layers, self.num_hyp_layers, self.batch_size,
        )
        if any(c < 1 for c in counts):
            raise ValueError(f"layer sizes, layer counts and batch size must be >= 1: {self}")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.l2_lambda < 0 or self.alpha < 0 or self.beta < 0:
            raise ValueError("l2_lambda, alpha, beta must be >= 0")


@dataclass
class TrainingBatch:
    x: np.ndarray
    t: np.ndarray  # NaN where missing
    r: np.ndarray
    y: np.ndarray
    row_weights: np.ndarray | None = None


@dataclass
class MTRNetModel:
    config: MTRNetConfig
    input_dim: int
    phi: list[DenseLayer]
    h0: list[DenseLayer]
    h1: list[DenseLayer]
    k_t: DenseLayer | None  # the treatment discriminator, when config.alpha > 0
    k_r: DenseLayer | None  # the observedness discriminator, when config.beta > 0
    _parameters: dict[str, Tensor] = field(init=False, repr=False)
    flat: np.ndarray = field(init=False)  # every parameter's value, end to end
    adam: AdamState = field(init=False)  # one Adam state over `flat`
    grad: np.ndarray = field(init=False)  # a step's gradients, laid out like `flat`

    def __post_init__(self):
        params = {}
        for group, layers in (("phi", self.phi), ("h0", self.h0), ("h1", self.h1)):
            for i, layer in enumerate(layers):
                params[f"{group}.{i}.w"], params[f"{group}.{i}.b"] = layer.weights, layer.bias
        for group, layer in (("k_t", self.k_t), ("k_r", self.k_r)):
            if layer is not None:
                params[f"{group}.w"], params[f"{group}.b"] = layer.weights, layer.bias
        self._parameters = params
        self.flat = pack(list(params.values()))
        self.adam = AdamState.like(self.flat)
        self.grad = np.empty_like(self.flat)

    def parameters(self) -> dict[str, Tensor]:
        """Every parameter by name, in `flat`'s order; all of them are trained."""
        return self._parameters

    def hypothesis_weights(self) -> list[Tensor]:
        return [layer.weights for layer in self.h0 + self.h1]

    def predict_cate(self, x) -> np.ndarray:
        return predict_cate(self, x)


def _init_stack(rng, widths) -> list[DenseLayer]:
    """Dense layers mapping widths[0] -> widths[1] -> ..., drawn in order."""
    return [init_dense(rng, n_out, n_in) for n_in, n_out in zip(widths, widths[1:])]


def init_model(config: MTRNetConfig, input_dim: int) -> MTRNetModel:
    """Representation stack, two outcome heads ending in a scalar layer, then
    a single-layer logit head for each discriminator whose weight is
    positive (treatment before observedness)."""
    config.validate()
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _INIT_STREAM]))
    rep, hyp = config.rep_layer_size, config.hyp_layer_size
    phi = _init_stack(rng, [input_dim] + [rep] * config.num_rep_layers)
    h0, h1 = (_init_stack(rng, [rep] + [hyp] * config.num_hyp_layers + [1]) for _ in range(2))
    k_t = init_dense(rng, 1, rep) if config.alpha > 0 else None
    k_r = init_dense(rng, 1, rep) if config.beta > 0 else None
    return MTRNetModel(config, input_dim, phi, h0, h1, k_t, k_r)


def compute_weights(t, r):
    """Balancing weights t/(2u) + (1-t)/(2(1-u)) over observed rows.

    Returns (w, u, n_o) with w aligned to the observed rows in batch order,
    u the observed treated fraction and n_o the observed-row count."""
    t = np.asarray(t, dtype=np.float64)
    r = np.asarray(r)
    if t.shape != r.shape:
        raise ValueError(f"t and r shapes differ: {t.shape} vs {r.shape}")
    obs = r == 1
    n_o = int(obs.sum())
    if n_o == 0:
        raise DegenerateArmError("no observed-treatment rows in batch")
    t_obs = t[obs]
    if np.any(np.isnan(t_obs)) or not np.all((t_obs == 0.0) | (t_obs == 1.0)):
        raise ValueError("observed t must be 0/1")
    u = float(t_obs.mean())
    if u == 0.0 or u == 1.0:
        raise DegenerateArmError(f"single treatment arm among observed rows (u={u})")
    w = t_obs / (2.0 * u) + (1.0 - t_obs) / (2.0 * (1.0 - u))
    return w, u, n_o


def _dense_elu_dropout(layers, h, drop: float, rng) -> Tensor:
    """The encoder's and the heads' hidden stack: ELU(dense(h)) per layer,
    each followed by a dropout mask when drop > 0."""
    for layer in layers:
        h = elu(dense_forward(layer, h))
        if drop > 0:
            h = mul(h, dropout_mask(h.shape, drop, rng))
    return h


def _rep_forward(model: MTRNetModel, x, train_mode: bool, rng) -> Tensor:
    drop = model.config.dropout_rate if train_mode else 0.0
    return unit_normalize_rows(_dense_elu_dropout(model.phi, x, drop, rng))


def _head_forward(layers, z, drop: float, rng) -> Tensor:
    return dense_forward(layers[-1], _dense_elu_dropout(layers[:-1], z, drop, rng))


def training_step(model: MTRNetModel, batch: TrainingBatch, *, rng: np.random.Generator,
                  iteration: int = 0, mmd_weight: float | None = None,
                  mmd_bandwidth: float | None = None) -> dict:
    """One Adam update on outcome + l2_lambda*L2 + alpha*L_T + beta*L_R
    (+ mmd_weight*MMD^2 between the arms' representations).

    A discriminator (present only when its weight is positive) descends on
    its cross-entropy while the representation ascends on it through a
    gradient-reversal node. L2 is weight decay on the heads' weights: its
    value enters the tape as a constant, and after `backward` each head
    weight's gradient gets l2_lambda*w added twice, in the order the tape
    adds the two operands of w*w, so the bits are those of the penalty built
    on the tape. The update is one Adam step on `model.flat`, which holds
    every parameter of the model. Returns the pre-update value of every term
    built, each unscaled."""
    cfg = model.config
    if mmd_weight and mmd_bandwidth is None:
        raise ValueError("mmd_weight given without a bandwidth")
    rep = _rep_forward(model, batch.x, train_mode=True, rng=rng)

    w, _, n_o = compute_weights(batch.t, batch.r)
    obs = np.flatnonzero(batch.r == 1)
    t_obs = batch.t[obs]
    y_obs = batch.y[obs]
    if batch.row_weights is not None:
        w = w * np.asarray(batch.row_weights, dtype=np.float64)[obs]
    rep_obs = gather_rows(rep, obs)
    arms = (np.flatnonzero(t_obs == 0.0), np.flatnonzero(t_obs == 1.0))
    arm_reps = [gather_rows(rep_obs, arm) for arm in arms]
    terms = []
    for arm, arm_rep, layers in zip(arms, arm_reps, (model.h0, model.h1)):
        pred = _head_forward(layers, arm_rep, cfg.dropout_rate, rng)
        diff = add(pred, -y_obs[arm][:, None])
        terms.append(asum(mul(mul(diff, diff), w[arm][:, None])))
    outcome = mul(add(terms[0], terms[1]), 1.0 / n_o)
    record = {"iteration": iteration, "outcome": float(outcome.value)}

    total = outcome
    if cfg.l2_lambda > 0:
        l2 = sum(np.sum(head_w.value * head_w.value) for head_w in model.hypothesis_weights())
        total = add(total, l2 * cfg.l2_lambda)
        record["l2"] = float(l2)
    if cfg.alpha > 0 or cfg.beta > 0:
        adv = grad_reverse(rep)
    if cfg.alpha > 0:
        logit_t = dense_forward(model.k_t, gather_rows(adv, obs))
        treatment = bce_loss(logit_t, t_obs[:, None])
        total = add(total, mul(treatment, cfg.alpha))
        record["treatment_bce"] = float(treatment.value)
    if cfg.beta > 0:
        logit_r = dense_forward(model.k_r, adv)
        missingness = bce_loss(logit_r, batch.r.astype(np.float64)[:, None])
        total = add(total, mul(missingness, cfg.beta))
        record["missingness_bce"] = float(missingness.value)
    if mmd_weight:
        mmd = mmd2_rbf(*arm_reps, mmd_bandwidth)
        total = add(total, mul(mmd, mmd_weight))
        record["mmd2"] = float(mmd.value)
    record["total"] = float(total.value)

    if not np.isfinite(record["total"]):
        raise TrainingDivergedError(iteration)

    params = model.parameters()
    for tensor in params.values():
        tensor.grad = None  # never apply a gradient left by an earlier graph
    backward(total)
    missing = [name for name, tensor in params.items() if tensor.grad is None]
    if missing:
        raise RuntimeError(f"the objective does not reach trained parameter(s) {missing}")
    if cfg.l2_lambda > 0:
        for head_w in model.hypothesis_weights():
            decay = cfg.l2_lambda * head_w.value
            head_w.grad = (head_w.grad + decay) + decay
    np.concatenate([tensor.grad.ravel() for tensor in params.values()], out=model.grad)
    adam_step(model.flat, model.grad, model.adam, cfg.learning_rate)
    return record


def _sample_batch_indices(rng, data: Dataset, batch_size: int) -> np.ndarray:
    """Uniform with replacement; redrawn (up to a limit) until the observed
    rows of the batch contain both treatment arms."""
    for _ in range(MAX_BATCH_RESAMPLES):
        idx = rng.integers(0, data.n, size=batch_size)
        t_obs = data.t[idx][data.r[idx] == 1]
        if t_obs.size and 0.0 < t_obs.mean() < 1.0:
            return idx
    raise DegenerateArmError(
        f"could not sample a batch with both arms in {MAX_BATCH_RESAMPLES} attempts"
    )


def _median_bandwidth(model: MTRNetModel, batch: TrainingBatch) -> float:
    """Median pairwise distance between initial representations of the first
    batch's observed rows, from the squared distances the MMD kernel uses
    (clamped at 0 against rounding), in n x n memory."""
    rep = _rep_forward(model, batch.x, train_mode=False, rng=None).value
    rep = rep[batch.r == 1]
    iu = np.triu_indices(rep.shape[0], k=1)
    dist = np.sqrt(np.maximum(pairwise_sq_dists(rep)[iu], 0.0))
    return float(max(np.median(dist), 1e-3))


def train(data: Dataset, config: MTRNetConfig, *, row_weights=None,
          mmd_weight: float | None = None):
    """Run `config.iterations` mini-batch steps; returns (model, history)."""
    config.validate()
    t_obs = data.t[data.r == 1]
    if t_obs.size == 0 or not (0.0 < t_obs.mean() < 1.0):
        raise DegenerateArmError("training data needs observed rows from both arms")
    if row_weights is not None:
        row_weights = check_row_weights(row_weights, data.n)

    model = init_model(config, data.d)
    batch_rng = np.random.default_rng(np.random.SeedSequence([config.seed, _BATCH_STREAM]))
    drop_rng = np.random.default_rng(np.random.SeedSequence([config.seed, _DROPOUT_STREAM]))
    bandwidth = None
    history = []
    for it in range(config.iterations):
        idx = _sample_batch_indices(batch_rng, data, config.batch_size)
        batch = TrainingBatch(
            data.x[idx], data.t[idx], data.r[idx], data.y[idx],
            None if row_weights is None else row_weights[idx],
        )
        if mmd_weight and bandwidth is None:
            bandwidth = _median_bandwidth(model, batch)
        record = training_step(
            model, batch, rng=drop_rng, iteration=it,
            mmd_weight=mmd_weight, mmd_bandwidth=bandwidth,
        )
        history.append(record)
    return model, history


# ---------------------------------------------------------------------------
# Prediction


def check_input(x, input_dim: int) -> np.ndarray:
    """`x` as a float64 (n, input_dim) array; any other shape is a ValueError."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != input_dim:
        raise ValueError(f"expected (n, {input_dim}) input, got {x.shape}")
    return x


def check_row_weights(weights, n: int) -> np.ndarray:
    """`weights` as a float64 (n,) array of finite, non-negative entries; any
    other input is a ValueError naming the cause."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise ValueError(f"row weights must have one entry per row: expected ({n},), "
                         f"got {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise ValueError("row weights must be finite")
    if np.any(weights < 0.0):
        raise ValueError("row weights must be non-negative")
    return weights


def predict_outcomes(model: MTRNetModel, x):
    """(f0(x), f1(x)) in evaluation mode (no dropout)."""
    x = check_input(x, model.input_dim)
    rep = _rep_forward(model, x, train_mode=False, rng=None)
    f0 = _head_forward(model.h0, rep, 0.0, None)
    f1 = _head_forward(model.h1, rep, 0.0, None)
    return f0.value[:, 0], f1.value[:, 0]


def predict_cate(model: MTRNetModel, x) -> np.ndarray:
    f0, f1 = predict_outcomes(model, x)
    return f1 - f0

