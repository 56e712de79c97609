"""Exact loss accounting on finite discrete worlds.

A world is a fully specified joint law over (x, t, r, y0, y1) on a finite
covariate set with finite outcome supports, so every expectation is a
finite sum. A tabular model is one prediction per covariate point and
outcome; its representation is the identity, since an injective relabeling
of the points cannot change an IPM over the sup-norm unit ball. On such
worlds the error decompositions hold to rounding error and every link of the
generalization bound chain can be checked without estimation noise, with the
worst-case function family realized as the sup-norm unit ball (whose IPM is
the exact absolute-difference sum, maximized by the sign function).

Every check below takes one world and model, or a stack of worlds of
equal K and their models with a leading world axis, and gives each stacked
world the same floats, bit for bit, as that world alone: a single world is
a stack with no leading axis. Random worlds and models are drawn as such
stacks, each field of a whole K-group in one Generator call.

One empirical note baked into the identities: the arm decompositions inside
the observed domain are exact with the arm share measured *inside* that
domain, u = p(T=0 | R=1). The marginal share p(T=0) coincides with it only
when observedness and treatment are marginally independent; we expose both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Spec, check_count

VALUE_SCALE = 2.0  # outcome values and predictions are drawn from [-VALUE_SCALE, VALUE_SCALE]
MAX_POINTS = 5  # a random world has 2 to MAX_POINTS covariate points
TOLERANCE = 1e-10  # largest |residual| and most negative slack a sweep accepts
# worlds a sweep draws before checking them together, so its memory does not
# grow with the number of worlds
WORLD_BLOCK = 256


def _is_probability(p: np.ndarray) -> np.ndarray:
    """Per vector along the last axis: nonnegative masses summing to 1
    (a NaN mass fails the sum)."""
    return ((np.abs(np.add.reduce(p, axis=-1) - 1.0) <= 1e-9)
            & (np.minimum.reduce(p, axis=-1, initial=np.inf) >= 0))


def _by_point(a: np.ndarray) -> np.ndarray:
    """(..., 2, K) arm-major to a contiguous (..., K, 2) point-major array."""
    return np.ascontiguousarray(np.swapaxes(a, -1, -2))


@dataclass
class Worlds:
    """Discrete worlds as arrays with any leading axes: none for one world,
    one (the world axis) for a stack of worlds with the same K.

    The outcome laws are zero-padded (2, K, S) arrays: `values[t, k, j]` is
    the j-th support value of Y_t | x_k and `probs[t, k, j]` its mass, and a
    padded slot has value 0 and mass 0. Every expectation over a support is
    `np.vecdot` (BLAS ddot, one fused multiply-add per slot), so a padded
    slot adds an exact zero and the expectation equals the per-point
    `v @ p` bit for bit, whatever S; `np.einsum` or `(a * p).sum()` would
    round differently."""

    p_x: np.ndarray     # (..., K) covariate masses
    p_t1: np.ndarray    # (..., K) p(T=1|x), strictly inside (0,1)
    p_r1: np.ndarray    # (..., K) p(R=1|x), strictly inside (0,1)
    values: np.ndarray  # (..., 2, K, S) outcome support values, zero-padded
    probs: np.ndarray   # (..., 2, K, S) their masses, zero-padded

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.p_x.ndim == 0 or not _is_probability(self.p_x).all():
            raise ValueError("p_x must be a probability vector")
        for name, p in (("p_t1", self.p_t1), ("p_r1", self.p_r1)):
            if p.shape != self.p_x.shape:
                raise ValueError(f"{name} must match p_x in shape")
            if not (np.minimum.reduce(p, axis=None, initial=np.inf) > 0
                    and np.maximum.reduce(p, axis=None, initial=-np.inf) < 1):
                raise ValueError(f"{name} must be strictly inside (0,1)")
        if (self.values.shape != self.probs.shape
                or self.values.shape[:-1] != (*self.p_x.shape[:-1], 2, self.p_x.shape[-1])):
            raise ValueError("need one outcome law per covariate point")
        # per law (..., 2, K); a failure names the arm of its first bad law
        for field, lawful, why in (
                ("values", np.isfinite(self.values).all(axis=-1), "must be finite"),
                ("probs", _is_probability(self.probs), "must hold a probability vector per point")):
            if not lawful.all():
                raise ValueError(f"y{np.nonzero(~lawful)[-2][0]}_{field} {why}")

    # Derived scalars, one per world
    @property
    def v(self) -> np.ndarray:
        """p(R=0)."""
        return np.vecdot(self.p_x, 1.0 - self.p_r1)

    @property
    def u_marginal(self) -> np.ndarray:
        """p(T=0)."""
        return np.vecdot(self.p_x, 1.0 - self.p_t1)

    @property
    def u_observed(self) -> np.ndarray:
        """p(T=0 | R=1)."""
        return np.vecdot(self.p_x, (1.0 - self.p_t1) * self.p_r1) / np.vecdot(self.p_x, self.p_r1)

    def outcome_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """(means, variances) of Y_t | x_k, each (..., 2, K)."""
        means = np.vecdot(self.values, self.probs)
        return means, np.vecdot((self.values - means[..., None]) ** 2, self.probs)


@dataclass
class TabularModel:
    """Hypothesis tables over the covariate points, f_t(x_k) = h_t[k]: the
    representation is the identity. Like `Worlds`, the arrays may carry a
    leading model axis."""

    h0: np.ndarray  # (..., K) prediction of Y0 at each covariate point
    h1: np.ndarray  # (..., K) prediction of Y1

    def __post_init__(self):
        self.h0 = np.asarray(self.h0, dtype=np.float64)
        self.h1 = np.asarray(self.h1, dtype=np.float64)
        if self.h0.ndim == 0 or self.h1.shape != self.h0.shape:
            raise ValueError("h0 and h1 must be tables of the same length")
        for name, h in (("h0", self.h0), ("h1", self.h1)):
            if not np.isfinite(h).all():
                raise ValueError(f"{name} must be finite")


def loss_table(world: Worlds, model: TabularModel) -> np.ndarray:
    """(..., K, 2) table of expected pointwise losses."""
    preds = np.stack([model.h0, model.h1], axis=-2)
    return _by_point(np.vecdot((world.values - preds[..., None]) ** 2, world.probs))


@dataclass
class EpsTerms:
    """Every field holds one value per world: a scalar for one world, a
    (B,) array for a stack."""

    pehe: np.ndarray
    f: np.ndarray
    cf: np.ndarray
    f_r1: np.ndarray
    f_r0: np.ndarray
    cf_r1: np.ndarray
    cf_r0: np.ndarray
    f_r1_t1: np.ndarray
    f_r1_t0: np.ndarray
    cf_r1_t1: np.ndarray
    cf_r1_t0: np.ndarray
    sigma2_y: np.ndarray
    sigma2_y0: np.ndarray
    sigma2_y1: np.ndarray
    sigma2_parts: dict  # keys like "y1|t1": variance of Y_t under the arm-s sub-law
    mean_sq_f: np.ndarray    # squared distance of predictions to conditional means, factual law
    mean_sq_cf: np.ndarray
    v: np.ndarray
    u_observed: np.ndarray
    u_marginal: np.ndarray
    b: np.ndarray  # largest pointwise loss: puts every loss inside the sup-norm unit ball


def eps_terms(world: Worlds, model: TabularModel) -> EpsTerms:
    """Every loss component as an exact finite sum over the joint support."""
    points = (-2, -1)  # the (K, 2) axes of a point-major table
    l = loss_table(world, model)
    p_x = world.p_x
    p_t = np.stack([1.0 - world.p_t1, world.p_t1], axis=-1)  # (..., K, 2)
    p_xt = p_x[..., None] * p_t

    f = (p_xt * l).sum(axis=points)
    cf = (p_xt[..., ::-1] * l).sum(axis=points)

    p_r1 = world.p_r1
    pr1 = np.vecdot(p_x, p_r1)[..., None]
    pr0 = 1.0 - pr1
    px_given_r1 = (p_x * p_r1 / pr1)[..., None]
    px_given_r0 = (p_x * (1.0 - p_r1) / pr0)[..., None]
    f_r1 = ((px_given_r1 * p_t) * l).sum(axis=points)
    f_r0 = ((px_given_r0 * p_t) * l).sum(axis=points)
    cf_r1 = ((px_given_r1 * p_t[..., ::-1]) * l).sum(axis=points)
    cf_r0 = ((px_given_r0 * p_t[..., ::-1]) * l).sum(axis=points)

    # p(x | R=1, T=t)
    px_r1_t = p_x[..., None] * p_r1[..., None] * p_t  # joint over x for (R=1, T=t)
    px_given_r1_t = px_r1_t / px_r1_t.sum(axis=-2, keepdims=True)
    f_r1_t1 = np.vecdot(px_given_r1_t[..., 1], l[..., 1])
    f_r1_t0 = np.vecdot(px_given_r1_t[..., 0], l[..., 0])
    cf_r1_t1 = np.vecdot(px_given_r1_t[..., 0], l[..., 1])  # treated loss over the control population
    cf_r1_t0 = np.vecdot(px_given_r1_t[..., 1], l[..., 0])

    means, variances = world.outcome_moments()
    m, var = _by_point(means), _by_point(variances)
    preds = np.stack([model.h0, model.h1], axis=-1)
    sq = (preds - m) ** 2
    mean_sq_f = (p_xt * sq).sum(axis=points)
    mean_sq_cf = (p_xt[..., ::-1] * sq).sum(axis=points)

    parts = {
        f"y{t}|t{s}": np.vecdot(p_xt[..., s], var[..., t]) for t in (0, 1) for s in (0, 1)
    }
    sigma2_y0 = np.minimum(parts["y0|t0"], parts["y0|t1"])
    sigma2_y1 = np.minimum(parts["y1|t1"], parts["y1|t0"])
    sigma2_y = np.minimum(sigma2_y0, sigma2_y1)

    tau_hat = model.h1 - model.h0
    tau = m[..., 1] - m[..., 0]
    pehe = np.vecdot(p_x, (tau_hat - tau) ** 2)

    return EpsTerms(
        pehe=pehe, f=f, cf=cf, f_r1=f_r1, f_r0=f_r0, cf_r1=cf_r1, cf_r0=cf_r0,
        f_r1_t1=f_r1_t1, f_r1_t0=f_r1_t0, cf_r1_t1=cf_r1_t1, cf_r1_t0=cf_r1_t0,
        sigma2_y=sigma2_y, sigma2_y0=sigma2_y0, sigma2_y1=sigma2_y1,
        sigma2_parts=parts, mean_sq_f=mean_sq_f, mean_sq_cf=mean_sq_cf,
        v=world.v, u_observed=world.u_observed, u_marginal=world.u_marginal,
        b=l.max(axis=points),
    )


# ---------------------------------------------------------------------------
# IPM over the sup-norm unit ball


def ipm_supnorm(p1, p2) -> np.ndarray:
    """sup over |g| <= 1 of |sum g (p1 - p2)| == sum |p1 - p2|, per pair of
    mass vectors along the last axis."""
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    if p1.shape != p2.shape:
        raise ValueError("mass vectors must have the same shape")
    for name, p in (("p1", p1), ("p2", p2)):
        if not np.all(_is_probability(p)):
            raise ValueError(f"{name} must hold probability vectors")
    return np.abs(p1 - p2).sum(axis=-1)


def representation_ipms(world: Worlds) -> dict:
    """The two covariate-shift distances of the bound, between conditional
    covariate laws (the representation is the identity): observed-vs-missing
    and (within the observed domain) control-vs-treated."""
    p_x, p_r1, p_t1 = world.p_x, world.p_r1, world.p_t1
    px_r0 = p_x * (1.0 - p_r1) / world.v[..., None]
    px_r1 = p_x * p_r1 / np.vecdot(p_x, p_r1)[..., None]
    joint_t0 = p_x * p_r1 * (1.0 - p_t1)
    joint_t1 = p_x * p_r1 * p_t1
    return {
        "missingness": ipm_supnorm(px_r0, px_r1),
        "treatment": ipm_supnorm(joint_t0 / joint_t0.sum(axis=-1, keepdims=True),
                                 joint_t1 / joint_t1.sum(axis=-1, keepdims=True)),
    }


# ---------------------------------------------------------------------------
# Identity and bound checks


@dataclass
class DecompositionReport:
    residuals: dict

    @property
    def max_abs_residual(self) -> np.ndarray:
        return np.max(np.abs(list(self.residuals.values())), axis=0)


def check_decompositions(e: EpsTerms) -> DecompositionReport:
    """Equality residuals: the observedness mixture split of the factual and
    counterfactual losses, the arm mixture split inside the observed domain
    (arm share u = p(T=0|R=1)), and the variance split relating each loss to
    its mean-prediction error."""
    u = e.u_observed
    residuals = {
        "factual_by_observedness": e.f - ((1.0 - e.v) * e.f_r1 + e.v * e.f_r0),
        "counterfactual_by_observedness": e.cf - ((1.0 - e.v) * e.cf_r1 + e.v * e.cf_r0),
        "factual_by_arm_observed": e.f_r1 - ((1.0 - u) * e.f_r1_t1 + u * e.f_r1_t0),
        "counterfactual_by_arm_observed": e.cf_r1 - (u * e.cf_r1_t1 + (1.0 - u) * e.cf_r1_t0),
        "factual_variance_split": e.mean_sq_f
        - (e.f - e.sigma2_parts["y1|t1"] - e.sigma2_parts["y0|t0"]),
        "counterfactual_variance_split": e.mean_sq_cf
        - (e.cf - e.sigma2_parts["y1|t0"] - e.sigma2_parts["y0|t1"]),
    }
    return DecompositionReport(residuals=residuals)


@dataclass
class BoundReport:
    slacks: dict
    ipms: dict

    @property
    def min_slack(self) -> np.ndarray:
        return np.min(list(self.slacks.values()), axis=0)


def final_bound_rhs(e: EpsTerms, ipm_treatment, ipm_missingness):
    """The end-to-end right-hand side of the bound chain."""
    return 2.0 * (
        e.f_r1_t1 + e.f_r1_t0 + e.b * ipm_treatment
        + 2.0 * e.v * e.b * ipm_missingness - 4.0 * e.sigma2_y
    )


def check_bounds(world: Worlds, e: EpsTerms) -> BoundReport:
    """Inequality slacks (right side minus left side, nonnegative when the
    bound holds) for each link of the chain and for the end-to-end bound;
    `e` is eps_terms(world, model) for any model."""
    ipms = representation_ipms(world)
    u = e.u_observed

    total_loss_rhs = 2.0 * (e.f + e.cf - 4.0 * e.sigma2_y)
    observed_rhs = 2.0 * (
        e.f_r1 + e.cf_r1 + 2.0 * e.v * e.b * ipms["missingness"] - 4.0 * e.sigma2_y
    )
    final_rhs = final_bound_rhs(e, ipms["treatment"], ipms["missingness"])
    slacks = {
        "pehe_vs_total_loss": total_loss_rhs - e.pehe,
        "total_loss_vs_observed_domain": observed_rhs - total_loss_rhs,
        "counterfactual_vs_factual_arms": (
            u * e.f_r1_t1 + (1.0 - u) * e.f_r1_t0 + e.b * ipms["treatment"] - e.cf_r1
        ),
        "observed_domain_vs_arm_split": final_rhs - observed_rhs,
        "pehe_vs_final_bound": final_rhs - e.pehe,
    }
    return BoundReport(slacks=slacks, ipms=ipms)


# ---------------------------------------------------------------------------
# Random worlds and sweeps


def _normalized(g: np.ndarray) -> np.ndarray:
    """Rows over their running sums: on standard exponentials, the numbers
    `rng.dirichlet(np.ones(k), size=n)` draws from the same stream."""
    return g * (1.0 / g.cumsum(axis=-1)[..., -1:])


def random_world(rng: np.random.Generator, k: int, n: int, max_support: int = 4) -> tuple:
    """`n` random worlds of `k` points as stacked `Worlds` fields (p_x, p_t1,
    p_r1, values, probs), each field drawn for all `n` at once: each outcome
    law holds 1 to `max_support` sorted values, zero-padded to `max_support`."""
    k, n = check_count("k", k, 2), check_count("n", n, 1)
    max_support = check_count("max_support", max_support, 1)
    p_x = _normalized(rng.standard_exponential((n, k)))
    p_t1, p_r1 = rng.uniform(0.05, 0.95, size=(2, n, k))
    sizes = rng.integers(1, max_support + 1, size=(n, 2, k, 1))
    padding = np.arange(max_support) >= sizes
    values = rng.uniform(-VALUE_SCALE, VALUE_SCALE, size=padding.shape)
    values[padding] = np.inf  # sorts the padding after the support
    values.sort(axis=-1)
    values[padding] = 0.0
    probs = rng.standard_exponential(padding.shape)
    probs[padding] = 0.0
    return p_x, p_t1, p_r1, values, _normalized(probs)


def random_model(rng: np.random.Generator, k: int, n: int) -> tuple:
    """`n` random models' stacked `TabularModel` fields (h0, h1) over `k` points."""
    n, k = check_count("n", n, 1), check_count("k", k, 1)
    return tuple(rng.uniform(-VALUE_SCALE, VALUE_SCALE, size=(2, n, k)))


@dataclass
class SweepSummary(Spec):
    num_worlds: int
    max_abs_residual: float
    min_slack: float
    residual_violations: int
    slack_violations: int
    residual_tolerance: float
    slack_tolerance: float

    def table(self) -> str:
        lines = [
            f"worlds checked        {self.num_worlds}",
            f"max |residual|        {self.max_abs_residual:.3e} (tolerance {self.residual_tolerance:.1e})",
            f"min slack             {self.min_slack:.3e} (tolerance -{self.slack_tolerance:.1e})",
            f"identity violations   {self.residual_violations}",
            f"inequality violations {self.slack_violations}",
        ]
        return "\n".join(lines)


def run_world_sweep(num_worlds: int, seed: int = 0) -> SweepSummary:
    """Exhaustively check the identities and the bound chain on randomly
    drawn worlds and models.

    The worlds are drawn and checked in blocks of WORLD_BLOCK, so memory
    does not grow with `num_worlds`. Block j draws from its own seed
    `SeedSequence([seed, 808, j])`: first the point count K (2 to
    MAX_POINTS) of each of its worlds, then, for each K in increasing order,
    that K-group's worlds and models, a field at a time (`random_world`,
    `random_model`). So a full block's worlds depend on (seed, j) alone.
    Each group becomes one `Worlds` and one `TabularModel`, which validate
    every world of the group once, and goes through one `eps_terms`,
    `check_decompositions` and `check_bounds` pass. Each stacked world gets
    the floats it gets alone, by three rules:
    - only worlds of equal K are stacked, since padding K would regroup
      numpy's pairwise sums over points;
    - sums over points run over a world's trailing contiguous (K, 2) axes,
      which sum as the one-world table does;
    - every dot product keeps its per-world stride: the loss, mean and
      variance tables are point-major (..., K, 2), because a ddot down a
      strided column rounds differently from one over a contiguous copy.
    The largest residual, the smallest slack and the violation counts fold
    across stacks in any order, so the summary is the per-world one."""
    num_worlds = check_count("num_worlds", num_worlds, 1)
    seed = check_count("seed", seed, 0)
    max_res, min_slack = 0.0, float("inf")
    res_viol = slack_viol = 0
    for block, start in enumerate(range(0, num_worlds, WORLD_BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 808, block]))
        ks = rng.integers(2, MAX_POINTS + 1, size=min(WORLD_BLOCK, num_worlds - start))
        for k, n in zip(*np.unique(ks, return_counts=True)):
            worlds = Worlds(*random_world(rng, k, n))
            models = TabularModel(*random_model(rng, k, n))
            e = eps_terms(worlds, models)
            residual = check_decompositions(e).max_abs_residual
            slack = check_bounds(worlds, e).min_slack
            max_res = max(max_res, float(residual.max()))
            min_slack = min(min_slack, float(slack.min()))
            res_viol += int(np.count_nonzero(residual > TOLERANCE))
            slack_viol += int(np.count_nonzero(slack < -TOLERANCE))
    return SweepSummary(
        num_worlds=num_worlds, max_abs_residual=max_res, min_slack=min_slack,
        residual_violations=res_viol, slack_violations=slack_viol,
        residual_tolerance=TOLERANCE, slack_tolerance=TOLERANCE,
    )
