"""Exact loss accounting on finite discrete worlds.

A world is a fully specified joint law over (x, t, r, y0, y1) on a finite
covariate set with finite outcome supports, so every expectation is a
finite sum. A tabular model is a permutation representation (invertible by
construction) plus per-point hypothesis tables. On such worlds the error
decompositions hold to rounding error and every link of the generalization
bound chain can be checked without estimation noise, with the worst-case
function family realized as the sup-norm unit ball (whose IPM is the exact
absolute-difference sum, maximized by the sign function).

One empirical note baked into the identities: the arm decompositions inside
the observed domain are exact with the arm share measured *inside* that
domain, u = p(T=0 | R=1). The marginal share p(T=0) coincides with it only
when observedness and treatment are marginally independent; we expose both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VALUE_SCALE = 2.0  # outcome values and predictions are drawn from [-VALUE_SCALE, VALUE_SCALE]
TOLERANCE = 1e-10  # largest |residual| and most negative slack a sweep accepts


@dataclass
class DiscreteWorld:
    p_x: np.ndarray            # (K,) covariate masses
    p_t1: np.ndarray           # (K,) p(T=1|x), strictly inside (0,1)
    p_r1: np.ndarray           # (K,) p(R=1|x), strictly inside (0,1)
    y0_values: list            # per point: support of Y0 | x
    y0_probs: list
    y1_values: list
    y1_probs: list

    def __post_init__(self):
        self.p_x = np.asarray(self.p_x, dtype=np.float64)
        self.p_t1 = np.asarray(self.p_t1, dtype=np.float64)
        self.p_r1 = np.asarray(self.p_r1, dtype=np.float64)
        for name in ("y0_values", "y0_probs", "y1_values", "y1_probs"):
            setattr(self, name, [np.asarray(v, dtype=np.float64) for v in getattr(self, name)])
        self.validate()

    @property
    def k(self) -> int:
        return self.p_x.size

    def validate(self) -> None:
        if abs(self.p_x.sum() - 1.0) > 1e-9 or np.any(self.p_x < 0):
            raise ValueError("p_x must be a probability vector")
        for name, p in (("p_t1", self.p_t1), ("p_r1", self.p_r1)):
            if p.shape != self.p_x.shape:
                raise ValueError(f"{name} must match p_x in shape")
            if np.any(p <= 0) or np.any(p >= 1):
                raise ValueError(f"{name} must be strictly inside (0,1)")
        for values, probs in ((self.y0_values, self.y0_probs), (self.y1_values, self.y1_probs)):
            if len(values) != self.k or len(probs) != self.k:
                raise ValueError("need one outcome law per covariate point")
            for v, p in zip(values, probs):
                if v.shape != p.shape or abs(p.sum() - 1.0) > 1e-9 or np.any(p < 0):
                    raise ValueError("each outcome law must be a probability vector")

    # Derived scalars
    @property
    def v(self) -> float:
        """p(R=0)."""
        return float(self.p_x @ (1.0 - self.p_r1))

    @property
    def u_marginal(self) -> float:
        """p(T=0)."""
        return float(self.p_x @ (1.0 - self.p_t1))

    @property
    def u_observed(self) -> float:
        """p(T=0 | R=1)."""
        return float(self.p_x @ ((1.0 - self.p_t1) * self.p_r1) / (self.p_x @ self.p_r1))

    def mean_outcome(self, t: int) -> np.ndarray:
        values, probs = (self.y0_values, self.y0_probs) if t == 0 else (self.y1_values, self.y1_probs)
        return np.array([float(v @ p) for v, p in zip(values, probs)])

    def var_outcome(self, t: int) -> np.ndarray:
        values, probs = (self.y0_values, self.y0_probs) if t == 0 else (self.y1_values, self.y1_probs)
        means = self.mean_outcome(t)
        return np.array([float(((v - m) ** 2) @ p) for v, p, m in zip(values, probs, means)])


@dataclass
class TabularModel:
    """Permutation representation phi plus hypothesis tables over the
    representation points: f_t(x_k) = h_t[phi[k]]."""

    phi: np.ndarray  # (K,) a permutation of 0..K-1
    h0: np.ndarray   # (K,) indexed by representation point
    h1: np.ndarray

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=np.intp)
        self.h0 = np.asarray(self.h0, dtype=np.float64)
        self.h1 = np.asarray(self.h1, dtype=np.float64)
        if sorted(self.phi.tolist()) != list(range(self.phi.size)):
            raise ValueError("phi must be a permutation")
        if self.h0.shape != self.phi.shape or self.h1.shape != self.phi.shape:
            raise ValueError("hypothesis tables must match phi in length")

    def f(self, t: int) -> np.ndarray:
        """Predictions indexed by covariate point."""
        return (self.h0, self.h1)[t][self.phi]


def loss_table(world: DiscreteWorld, model: TabularModel) -> np.ndarray:
    """(K, 2) table of expected pointwise losses."""
    out = np.empty((world.k, 2))
    for t in (0, 1):
        values = (world.y0_values, world.y1_values)[t]
        probs = (world.y0_probs, world.y1_probs)[t]
        pred = model.f(t)
        out[:, t] = [float(((v - pred[k]) ** 2) @ p) for k, (v, p) in enumerate(zip(values, probs))]
    return out


@dataclass
class EpsTerms:
    pehe: float
    f: float
    cf: float
    f_r1: float
    f_r0: float
    cf_r1: float
    cf_r0: float
    f_r1_t1: float
    f_r1_t0: float
    cf_r1_t1: float
    cf_r1_t0: float
    sigma2_y: float
    sigma2_y0: float
    sigma2_y1: float
    sigma2_parts: dict  # keys like "y1|t1": variance of Y_t under the arm-s sub-law
    mean_sq_f: float    # squared distance of predictions to conditional means, factual law
    mean_sq_cf: float
    v: float
    u_observed: float
    u_marginal: float
    b: float  # largest pointwise loss: puts every loss inside the sup-norm unit ball


def eps_terms(world: DiscreteWorld, model: TabularModel) -> EpsTerms:
    """Every loss component as an exact finite sum over the joint support."""
    l = loss_table(world, model)
    p_x = world.p_x
    p_t = np.stack([1.0 - world.p_t1, world.p_t1], axis=1)  # (K, 2)
    p_xt = p_x[:, None] * p_t

    f = float((p_xt * l).sum())
    cf = float((p_xt[:, ::-1] * l).sum())

    p_r1 = world.p_r1
    pr1 = float(p_x @ p_r1)
    pr0 = 1.0 - pr1
    px_given_r1 = p_x * p_r1 / pr1
    px_given_r0 = p_x * (1.0 - p_r1) / pr0
    f_r1 = float(((px_given_r1[:, None] * p_t) * l).sum())
    f_r0 = float(((px_given_r0[:, None] * p_t) * l).sum())
    cf_r1 = float(((px_given_r1[:, None] * p_t[:, ::-1]) * l).sum())
    cf_r0 = float(((px_given_r0[:, None] * p_t[:, ::-1]) * l).sum())

    # p(x | R=1, T=t)
    px_r1_t = p_x[:, None] * p_r1[:, None] * p_t  # joint over x for (R=1, T=t)
    px_given_r1_t = px_r1_t / px_r1_t.sum(axis=0, keepdims=True)
    f_r1_t1 = float(px_given_r1_t[:, 1] @ l[:, 1])
    f_r1_t0 = float(px_given_r1_t[:, 0] @ l[:, 0])
    cf_r1_t1 = float(px_given_r1_t[:, 0] @ l[:, 1])  # treated loss over the control population
    cf_r1_t0 = float(px_given_r1_t[:, 1] @ l[:, 0])

    m = np.stack([world.mean_outcome(0), world.mean_outcome(1)], axis=1)
    var = np.stack([world.var_outcome(0), world.var_outcome(1)], axis=1)
    preds = np.stack([model.f(0), model.f(1)], axis=1)
    sq = (preds - m) ** 2
    mean_sq_f = float((p_xt * sq).sum())
    mean_sq_cf = float((p_xt[:, ::-1] * sq).sum())

    parts = {
        f"y{t}|t{s}": float(p_xt[:, s] @ var[:, t]) for t in (0, 1) for s in (0, 1)
    }
    sigma2_y0 = min(parts["y0|t0"], parts["y0|t1"])
    sigma2_y1 = min(parts["y1|t1"], parts["y1|t0"])
    sigma2_y = min(sigma2_y0, sigma2_y1)

    tau_hat = model.f(1) - model.f(0)
    tau = m[:, 1] - m[:, 0]
    pehe = float(p_x @ ((tau_hat - tau) ** 2))

    return EpsTerms(
        pehe=pehe, f=f, cf=cf, f_r1=f_r1, f_r0=f_r0, cf_r1=cf_r1, cf_r0=cf_r0,
        f_r1_t1=f_r1_t1, f_r1_t0=f_r1_t0, cf_r1_t1=cf_r1_t1, cf_r1_t0=cf_r1_t0,
        sigma2_y=sigma2_y, sigma2_y0=sigma2_y0, sigma2_y1=sigma2_y1,
        sigma2_parts=parts, mean_sq_f=mean_sq_f, mean_sq_cf=mean_sq_cf,
        v=world.v, u_observed=world.u_observed, u_marginal=world.u_marginal,
        b=float(l.max()),
    )


# ---------------------------------------------------------------------------
# IPM over the sup-norm unit ball


def ipm_supnorm(p1, p2) -> float:
    """sup over |g| <= 1 of |sum g (p1 - p2)| == sum |p1 - p2|."""
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    if p1.shape != p2.shape:
        raise ValueError("mass vectors must have the same shape")
    for p in (p1, p2):
        if abs(p.sum() - 1.0) > 1e-9 or np.any(p < 0):
            raise ValueError("inputs must be probability vectors")
    return float(np.abs(p1 - p2).sum())


def pushforward(masses: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Distribution over representation points induced by the permutation."""
    out = np.empty_like(np.asarray(masses, dtype=np.float64))
    out[np.asarray(phi, dtype=np.intp)] = masses
    return out


def representation_ipms(world: DiscreteWorld, model: TabularModel) -> dict:
    """The two covariate-shift distances in representation space:
    observed-vs-missing and (within the observed domain) control-vs-treated."""
    p_x, p_r1, p_t1 = world.p_x, world.p_r1, world.p_t1
    pz_r0 = pushforward(p_x * (1.0 - p_r1) / (p_x @ (1.0 - p_r1)), model.phi)
    pz_r1 = pushforward(p_x * p_r1 / (p_x @ p_r1), model.phi)
    joint_t0 = p_x * p_r1 * (1.0 - p_t1)
    joint_t1 = p_x * p_r1 * p_t1
    pz_r1_t0 = pushforward(joint_t0 / joint_t0.sum(), model.phi)
    pz_r1_t1 = pushforward(joint_t1 / joint_t1.sum(), model.phi)
    return {
        "missingness": ipm_supnorm(pz_r0, pz_r1),
        "treatment": ipm_supnorm(pz_r1_t0, pz_r1_t1),
    }


# ---------------------------------------------------------------------------
# Identity and bound checks


@dataclass
class DecompositionReport:
    residuals: dict

    @property
    def max_abs_residual(self) -> float:
        return max(abs(v) for v in self.residuals.values())


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
    def min_slack(self) -> float:
        return min(self.slacks.values())


def final_bound_rhs(e: EpsTerms, ipm_treatment: float, ipm_missingness: float) -> float:
    """The end-to-end right-hand side of the bound chain."""
    return 2.0 * (
        e.f_r1_t1 + e.f_r1_t0 + e.b * ipm_treatment
        + 2.0 * e.v * e.b * ipm_missingness - 4.0 * e.sigma2_y
    )


def check_bounds(world: DiscreteWorld, model: TabularModel, e: EpsTerms) -> BoundReport:
    """Inequality slacks (right side minus left side, nonnegative when the
    bound holds) for each link of the chain and for the end-to-end bound;
    `e` is eps_terms(world, model)."""
    ipms = representation_ipms(world, model)
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


def random_world(rng: np.random.Generator, max_points: int = 5, max_support: int = 4) -> DiscreteWorld:
    k = int(rng.integers(2, max_points + 1))
    p_x = rng.dirichlet(np.ones(k))
    p_t1 = rng.uniform(0.05, 0.95, size=k)
    p_r1 = rng.uniform(0.05, 0.95, size=k)

    def laws():
        values, probs = [], []
        for _ in range(k):
            size = int(rng.integers(1, max_support + 1))
            values.append(np.sort(rng.uniform(-VALUE_SCALE, VALUE_SCALE, size=size)))
            probs.append(rng.dirichlet(np.ones(size)))
        return values, probs

    y0_values, y0_probs = laws()
    y1_values, y1_probs = laws()
    return DiscreteWorld(p_x, p_t1, p_r1, y0_values, y0_probs, y1_values, y1_probs)


def random_model(rng: np.random.Generator, k: int) -> TabularModel:
    return TabularModel(
        phi=rng.permutation(k),
        h0=rng.uniform(-VALUE_SCALE, VALUE_SCALE, size=k),
        h1=rng.uniform(-VALUE_SCALE, VALUE_SCALE, size=k),
    )


@dataclass
class SweepSummary:
    num_worlds: int
    max_abs_residual: float
    min_slack: float
    residual_violations: int
    slack_violations: int
    residual_tolerance: float
    slack_tolerance: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    def table(self) -> str:
        lines = [
            f"worlds checked        {self.num_worlds}",
            f"max |residual|        {self.max_abs_residual:.3e} (tolerance {self.residual_tolerance:.1e})",
            f"min slack             {self.min_slack:.3e} (tolerance -{self.slack_tolerance:.1e})",
            f"identity violations   {self.residual_violations}",
            f"inequality violations {self.slack_violations}",
        ]
        return "\n".join(lines)


def run_world_sweep(num_worlds: int, seed: int = 0, max_points: int = 5,
                    max_support: int = 4) -> SweepSummary:
    """Exhaustively check the identities and the bound chain on randomly
    drawn worlds and models; per-world seeds derive from the master seed."""
    max_res = 0.0
    min_slack = float("inf")
    res_viol = 0
    slack_viol = 0
    for i in range(num_worlds):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 808, i]))
        world = random_world(rng, max_points=max_points, max_support=max_support)
        model = random_model(rng, world.k)
        e = eps_terms(world, model)
        dec = check_decompositions(e)
        bnd = check_bounds(world, model, e)
        max_res = max(max_res, dec.max_abs_residual)
        min_slack = min(min_slack, bnd.min_slack)
        if dec.max_abs_residual > TOLERANCE:
            res_viol += 1
        if bnd.min_slack < -TOLERANCE:
            slack_viol += 1
    return SweepSummary(
        num_worlds=num_worlds, max_abs_residual=max_res, min_slack=min_slack,
        residual_violations=res_viol, slack_violations=slack_viol,
        residual_tolerance=TOLERANCE, slack_tolerance=TOLERANCE,
    )
