"""The missing-treatment representation network and its training loop.

One shared representation feeds four heads: per-arm outcome regressors
h0/h1, a treatment discriminator and an observedness discriminator. The
discriminators descend on their own cross-entropy losses while the
representation ascends on them through a gradient reversal, which pushes
the representation towards being uninformative of both treatment and
missingness. A discriminator whose weight (alpha, beta) is 0 is neither
drawn nor trained, so the TARNet and CFR-MMD baselines are the
adversary-free subset of the same model and training step (optional
per-row weights / kernel penalty).

The graph is fixed by the config, so a training step differentiates it by
hand. Its forward pass records each consumer of the representation (an
outcome head, the MMD penalty, a discriminator) as a branch with its rows
and a cache of each layer's input, ELU derivative and dropout mask.
`backward` walks each branch's cache in reverse, subtracts the reversed
branches' summed gradient at the representation, and walks the encoder,
writing every parameter's gradient into its own slice of `model.grad`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, observedness
from .errors import DegenerateArmError, Spec, TrainingDivergedError, check_count
from .nn import (
    AdamState, DenseLayer, adam_step, binary_cross_entropy, dense_backward, dense_forward,
    dropout_mask, elu, init_dense, mmd2_rbf, normalize_rows, normalize_rows_backward, pack,
    pairwise_sq_dists,
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
        for name in ("rep_layer_size", "hyp_layer_size", "num_rep_layers", "num_hyp_layers",
                     "batch_size"):
            check_count(name, getattr(self, name), 1)
        check_count("iterations", self.iterations, 0)
        check_count("seed", self.seed, 0)
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must be in [0, 1)")
        for name in ("l2_lambda", "alpha", "beta"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


@dataclass
class TrainingBatch:
    x: np.ndarray
    t: np.ndarray  # NaN where missing
    y: np.ndarray
    row_weights: np.ndarray | None = None
    r: np.ndarray = field(init=False)  # 0/1 observedness of t

    def __post_init__(self):
        self.r = observedness(self.t)


@dataclass
class MTRNetModel:
    config: MTRNetConfig
    input_dim: int
    phi: list[DenseLayer]
    h0: list[DenseLayer]
    h1: list[DenseLayer]
    k_t: DenseLayer | None  # the treatment discriminator, when config.alpha > 0
    k_r: DenseLayer | None  # the observedness discriminator, when config.beta > 0
    _parameters: dict[str, np.ndarray] = field(init=False, repr=False)
    flat: np.ndarray = field(init=False)  # every parameter's value, end to end
    adam: AdamState = field(init=False)  # one Adam state over `flat`
    grad: np.ndarray = field(init=False)  # a step's gradients, laid out like `flat`

    def __post_init__(self):
        layers = {}
        for group, stack in (("phi", self.phi), ("h0", self.h0), ("h1", self.h1)):
            for i, layer in enumerate(stack):
                layers[f"{group}.{i}"] = layer
        for group, layer in (("k_t", self.k_t), ("k_r", self.k_r)):
            if layer is not None:
                layers[group] = layer
        self.flat, self.grad = pack(list(layers.values()))
        self._parameters = {}
        for name, layer in layers.items():
            self._parameters[f"{name}.w"], self._parameters[f"{name}.b"] = layer.weights, layer.bias
        self.adam = AdamState.like(self.flat)

    def parameters(self) -> dict[str, np.ndarray]:
        """Every parameter by name, in `flat`'s order (each a view of it);
        all of them are trained."""
        return self._parameters

    def predict_cate(self, x) -> np.ndarray:
        return predict_cate(self, x)


def _init_stack(rng, widths) -> list[DenseLayer]:
    """Dense layers mapping widths[0] -> widths[1] -> ..., drawn in order."""
    return [init_dense(rng, n_out, n_in) for n_in, n_out in zip(widths, widths[1:])]


def init_model(config: MTRNetConfig, input_dim: int) -> MTRNetModel:
    """Representation stack, two outcome heads ending in a scalar layer, then
    a single-layer logit head for each discriminator whose weight is
    positive (treatment before observedness)."""
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _INIT_STREAM]))
    rep, hyp = config.rep_layer_size, config.hyp_layer_size
    phi = _init_stack(rng, [input_dim] + [rep] * config.num_rep_layers)
    h0, h1 = (_init_stack(rng, [rep] + [hyp] * config.num_hyp_layers + [1]) for _ in range(2))
    k_t = init_dense(rng, 1, rep) if config.alpha > 0 else None
    k_r = init_dense(rng, 1, rep) if config.beta > 0 else None
    return MTRNetModel(config, input_dim, phi, h0, h1, k_t, k_r)


def compute_weights(t):
    """Balancing weights t/(2u) + (1-t)/(2(1-u)) over the observed (non-NaN)
    entries of t.

    Returns (w, u, n_o) with w aligned to the observed rows in batch order,
    u the observed treated fraction and n_o the observed-row count."""
    t = np.asarray(t, dtype=np.float64)
    t_obs = t[~np.isnan(t)]
    n_o = t_obs.size
    if n_o == 0:
        raise DegenerateArmError("no observed-treatment rows in batch")
    if not np.all((t_obs == 0.0) | (t_obs == 1.0)):
        raise ValueError("observed t must be 0/1")
    u = float(t_obs.mean())
    if u == 0.0 or u == 1.0:
        raise DegenerateArmError(f"single treatment arm among observed rows (u={u})")
    w = t_obs / (2.0 * u) + (1.0 - t_obs) / (2.0 * (1.0 - u))
    return w, u, n_o


# ---------------------------------------------------------------------------
# Forward and backward passes. A cache entry is (layer, input, ELU
# derivative, dropout mask), the last two None where the layer has none.


def _stack_forward(layers, h, drop: float, rng, cache: list) -> np.ndarray:
    """The encoder's and the heads' hidden stack: ELU(dense(h)) per layer,
    each followed by a dropout mask when drop > 0."""
    for layer in layers:
        out, deriv = elu(dense_forward(layer, h))
        mask = dropout_mask(out.shape, drop, rng) if drop > 0 else None
        cache.append((layer, h, deriv, mask))
        h = out if mask is None else out * mask
    return h


def _head_forward(layers, z, drop: float, rng, cache: list) -> np.ndarray:
    h = _stack_forward(layers[:-1], z, drop, rng, cache)
    cache.append((layers[-1], h, None, None))
    return dense_forward(layers[-1], h)


def _stack_backward(cache: list, g: np.ndarray, input_grad: bool = True):
    """Walk `cache` in reverse from the output gradient `g`, writing each
    layer's gradients; returns the input's gradient, or None when
    `input_grad` is False (the input is data)."""
    for i in range(len(cache) - 1, -1, -1):
        layer, x, deriv, mask = cache[i]
        if mask is not None:
            g = g * mask
        if deriv is not None:
            g = g * deriv
        dense_backward(layer, x, g)
        g = g @ layer.weights if i or input_grad else None
    return g


def _rep_forward(model: MTRNetModel, x) -> np.ndarray:
    """The representation in evaluation mode (no dropout)."""
    return normalize_rows(_stack_forward(model.phi, x, 0.0, None, []))[0]


@dataclass
class StepCache:
    """What `backward` reads from a training step's forward pass: the
    encoder's layer cache, the normalized representation, and one branch per
    consumer of it, (rows of the batch, layer cache, gradient of the
    objective at the branch's output, reversed?). The rows are an index
    array, or slice(None) for every row."""

    encoder: list
    rep: np.ndarray  # the normalized representation of the batch
    rep_norm: tuple  # normalize_rows' (divisor, big)
    branches: list


def training_step(model: MTRNetModel, batch: TrainingBatch, *, rng: np.random.Generator,
                  iteration: int = 0, mmd_weight: float | None = None,
                  mmd_bandwidth: float | None = None) -> dict:
    """One Adam update on outcome + l2_lambda*L2 + alpha*L_T + beta*L_R
    (+ mmd_weight*MMD^2 between the arms' representations).

    A discriminator (present only when its weight is positive) descends on
    its cross-entropy while the representation ascends on it through a
    gradient reversal. L2 is weight decay on the heads' weights. The update
    is one Adam step on `model.flat`, which holds every parameter of the
    model. Returns the pre-update value of every term built, each unscaled."""
    cfg = model.config
    if mmd_weight and mmd_bandwidth is None:
        raise ValueError("mmd_weight given without a bandwidth")
    encoder = []
    rep, divisor, big = normalize_rows(
        _stack_forward(model.phi, batch.x, cfg.dropout_rate, rng, encoder))

    w, _, n_o = compute_weights(batch.t)
    obs = np.flatnonzero(batch.r == 1)
    t_obs = batch.t[obs]
    if batch.row_weights is not None:
        w = w * np.asarray(batch.row_weights, dtype=np.float64)[obs]
    terms, arms, branches = [], [], []
    for label, layers in ((0.0, model.h0), (1.0, model.h1)):
        arm = np.flatnonzero(t_obs == label)  # among the observed rows
        rows = obs[arm]
        arm_rep = rep[rows]
        arms.append((rows, arm_rep))
        cache = []
        diff = _head_forward(layers, arm_rep, cfg.dropout_rate, rng, cache) - batch.y[rows][:, None]
        row_w = w[arm][:, None]
        terms.append((diff * diff * row_w).sum())
        # d/d diff of sum(w diff^2) / n_o, as the product rule's two equal halves
        half = (1.0 / n_o) * row_w * diff
        branches.append((rows, cache, half + half, False))
    outcome = (terms[0] + terms[1]) * (1.0 / n_o)
    record = {"iteration": iteration, "outcome": float(outcome)}

    total = outcome
    if cfg.l2_lambda > 0:
        l2 = sum(np.sum(layer.weights * layer.weights) for layer in model.h0 + model.h1)
        total = total + l2 * cfg.l2_lambda
        record["l2"] = float(l2)
    for key, weight, layer, rows, labels in (
            ("treatment_bce", cfg.alpha, model.k_t, obs, t_obs),
            ("missingness_bce", cfg.beta, model.k_r, slice(None), batch.r)):
        if weight > 0:
            cache = []
            loss, logit_grad = binary_cross_entropy(
                _head_forward([layer], rep[rows], 0.0, None, cache),
                labels.astype(np.float64)[:, None], weight)
            branches.append((rows, cache, logit_grad, True))
            total = total + loss * weight
            record[key] = float(loss)
    if mmd_weight:
        rows, reps = zip(*arms)
        mmd, mmd_grad = mmd2_rbf(*reps, mmd_bandwidth, mmd_weight)
        branches.append((np.concatenate(rows), [], mmd_grad, False))  # no layers
        total = total + mmd * mmd_weight
        record["mmd2"] = float(mmd)
    record["total"] = float(total)

    if not np.isfinite(record["total"]):
        raise TrainingDivergedError(iteration)

    backward(StepCache(encoder, rep, (divisor, big), branches), model)
    adam_step(model.flat, model.grad, model.adam, cfg.learning_rate)
    return record


def backward(step: StepCache, model: MTRNetModel) -> None:
    """Write the gradient of the step's objective into `model.grad`, every
    slice of it, so nothing from an earlier step survives.

    Each branch's input gradient is added into a zero-filled buffer at its
    rows: the unreversed branches share one buffer and the reversed ones
    another, which is subtracted from it once; that subtraction is the
    gradient reversal. Each vector-Jacobian product keeps the arithmetic of
    reverse-mode differentiation of the same graph (the L2 decay's
    (g + d) + d, the squared error's c + c, the reversed branches summed
    before one subtraction), and no buffer row receives more than two
    contributions, whose sum into zeros does not depend on their order. So
    the bits are those of differentiating the objective on a general tape."""
    grads = {False: np.zeros_like(step.rep), True: np.zeros_like(step.rep)}
    for rows, cache, g, reversed_ in step.branches:
        grads[reversed_][rows] += _stack_backward(cache, g)
    lam = model.config.l2_lambda
    if lam > 0:  # weight decay: lam * w added twice, as the two halves of w * w
        for layer in model.h0 + model.h1:
            decay = lam * layer.weights
            layer.weights_grad += decay
            layer.weights_grad += decay
    rep_grad = grads[False]
    rep_grad -= grads[True]
    _stack_backward(step.encoder, normalize_rows_backward(rep_grad, step.rep, *step.rep_norm),
                    input_grad=False)


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
    rep = _rep_forward(model, batch.x)
    rep = rep[batch.r == 1]
    iu = np.triu_indices(rep.shape[0], k=1)
    dist = np.sqrt(np.maximum(pairwise_sq_dists(rep)[iu], 0.0))
    return float(max(np.median(dist), 1e-3))


def train(data: Dataset, config: MTRNetConfig, *, row_weights=None,
          mmd_weight: float | None = None):
    """Run `config.iterations` mini-batch steps; returns (model, history)."""
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
        batch = TrainingBatch(data.x[idx], data.t[idx], data.y[idx],
                              None if row_weights is None else row_weights[idx])
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
    rep = _rep_forward(model, x)
    f0 = _head_forward(model.h0, rep, 0.0, None, [])
    f1 = _head_forward(model.h1, rep, 0.0, None, [])
    return f0[:, 0], f1[:, 0]


def predict_cate(model: MTRNetModel, x) -> np.ndarray:
    f0, f1 = predict_outcomes(model, x)
    return f1 - f0

