import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtcate import theory
from mtcate.theory import (
    TabularModel, Worlds, check_bounds, check_decompositions, eps_terms,
    final_bound_rhs, ipm_supnorm, loss_table, random_model, random_world,
    representation_ipms, run_world_sweep,
)


def discrete_world(p_x, p_t1, p_r1, y0_values, y0_probs, y1_values, y1_probs):
    """One world from per-point outcome laws: `y0_values[k]` is the support
    of Y0 | x_k and `y0_probs[k]` its masses (likewise for Y1), zero-padded
    to the largest support."""
    k = len(p_x)
    if any(len(arm) != k for arm in (y0_values, y0_probs, y1_values, y1_probs)):
        raise ValueError("need one outcome law per covariate point")
    laws = (*y0_values, *y1_values), (*y0_probs, *y1_probs)
    sizes = [len(v) for v in laws[0]]
    if sizes != [len(p) for p in laws[1]]:
        raise ValueError("each outcome law needs one mass per value")
    values, probs = np.zeros((2, 2 * k, max(sizes)))
    for i, size in enumerate(sizes):
        values[i, :size] = laws[0][i]
        probs[i, :size] = laws[1][i]
    return Worlds(*(np.asarray(p, dtype=np.float64) for p in (p_x, p_t1, p_r1)),
                  values.reshape(2, k, -1), probs.reshape(2, k, -1))


def random_table(rng, k):
    """One random model over `k` points."""
    return TabularModel(*(h[0] for h in random_model(rng, k, 1)))


def random_pair(rng, k):
    """One random world of `k` points and a random model over them."""
    return Worlds(*(field[0] for field in random_world(rng, k, 1))), random_table(rng, k)


def two_point_world(p_t1=(0.3, 0.7), p_r1=(0.6, 0.4)):
    return discrete_world(
        p_x=[0.5, 0.5], p_t1=list(p_t1), p_r1=list(p_r1),
        y0_values=[[1.0], [0.0, 2.0]], y0_probs=[[1.0], [0.5, 0.5]],
        y1_values=[[2.0, 4.0], [1.0]], y1_probs=[[0.25, 0.75], [1.0]],
    )


def test_loss_table_examples():
    world = two_point_world()
    model = TabularModel(h0=[1.0, 1.0], h1=[0.0, 0.0])
    table = loss_table(world, model)
    # deterministic Y0 = 1 at x0, prediction 1 -> 0
    assert table[0, 0] == 0.0
    # Y0 uniform on {0,2} at x1, prediction 1 -> 1
    assert table[1, 0] == pytest.approx(1.0)


def test_loss_table_at_conditional_mean_equals_variance():
    world = two_point_world()
    means, variances = world.outcome_moments()
    m1 = means[1]
    model = TabularModel(h0=[0.0, 0.0], h1=m1)
    assert loss_table(world, model)[:, 1] == pytest.approx(variances[1])


def test_perfect_model_has_zero_pehe():
    world = two_point_world()
    m0, m1 = world.outcome_moments()[0]
    model = TabularModel(h0=m0, h1=m1)
    assert eps_terms(world, model).pehe == pytest.approx(0.0, abs=1e-15)


def test_constant_observedness_collapses_domains():
    world = two_point_world(p_r1=(0.5, 0.5))
    model = random_table(np.random.default_rng(0), 2)
    e = eps_terms(world, model)
    assert e.f == pytest.approx(e.f_r1, abs=1e-12)
    assert e.f == pytest.approx(e.f_r0, abs=1e-12)


def test_u_variants_coincide_when_shift_is_absent():
    rng = np.random.default_rng(1)
    const_t = discrete_world(
        p_x=[0.25, 0.75], p_t1=[0.4, 0.4], p_r1=[0.2, 0.9],
        y0_values=[[0.0], [1.0]], y0_probs=[[1.0], [1.0]],
        y1_values=[[1.0], [2.0]], y1_probs=[[1.0], [1.0]],
    )
    assert const_t.u_observed == pytest.approx(const_t.u_marginal, abs=1e-15)
    const_r = two_point_world(p_r1=(0.35, 0.35))
    assert const_r.u_observed == pytest.approx(const_r.u_marginal, abs=1e-15)
    skewed = two_point_world()  # both vary: the shares genuinely differ
    assert abs(skewed.u_observed - skewed.u_marginal) > 1e-3


# ---------------------------------------------------------------------------
# Monte-Carlo oracle for the exact sums


def sample_world(world, model, n, rng):
    k = world.p_x.size
    x = rng.choice(k, size=n, p=world.p_x)
    t = (rng.random(n) < world.p_t1[x]).astype(int)
    r = (rng.random(n) < world.p_r1[x]).astype(int)
    y0 = np.empty(n)
    y1 = np.empty(n)
    for j in range(k):
        rows = x == j
        # a padded slot has mass 0, so it is never drawn
        y0[rows] = rng.choice(world.values[0, j], size=int(rows.sum()), p=world.probs[0, j])
        y1[rows] = rng.choice(world.values[1, j], size=int(rows.sum()), p=world.probs[1, j])
    f0, f1 = model.h0[x], model.h1[x]
    return x, t, r, y0, y1, f0, f1


def mc_estimate(samples):
    arr = np.asarray(samples, dtype=np.float64)
    return arr.mean(), arr.std(ddof=1) / np.sqrt(arr.size)


def test_eps_terms_match_monte_carlo():
    rng = np.random.default_rng(77)
    world, model = random_pair(rng, 3)
    e = eps_terms(world, model)

    n = 1_000_000
    x, t, r, y0, y1, f0, f1 = sample_world(world, model, n, rng)
    y_fact = np.where(t == 1, y1, y0)
    f_fact = np.where(t == 1, f1, f0)
    y_cf = np.where(t == 1, y0, y1)
    f_cf = np.where(t == 1, f0, f1)

    checks = [
        (e.f, (f_fact - y_fact) ** 2),
        (e.cf, (f_cf - y_cf) ** 2),
        (e.f_r1, ((f_fact - y_fact) ** 2)[r == 1]),
        (e.f_r0, ((f_fact - y_fact) ** 2)[r == 0]),
        (e.cf_r1, ((f_cf - y_cf) ** 2)[r == 1]),
        (e.f_r1_t1, ((f1 - y1) ** 2)[(r == 1) & (t == 1)]),
        (e.f_r1_t0, ((f0 - y0) ** 2)[(r == 1) & (t == 0)]),
    ]
    for exact, samples in checks:
        mean, se = mc_estimate(samples)
        assert abs(exact - mean) <= 3.0 * se + 1e-6

    means = world.outcome_moments()[0]
    tau = means[1] - means[0]
    mean, se = mc_estimate(((f1 - f0) - tau[x]) ** 2)
    assert abs(e.pehe - mean) <= 3.0 * se + 1e-6

    m1 = means[1][x]
    mean, se = mc_estimate(np.where(t == 1, (y1 - m1) ** 2, 0.0))
    assert abs(e.sigma2_parts["y1|t1"] - mean) <= 3.0 * se + 1e-6

    assert e.v == pytest.approx((r == 0).mean(), abs=3.0 * 0.5 / np.sqrt(n) + 1e-6)
    assert e.u_observed == pytest.approx((t[r == 1] == 0).mean(), abs=2e-3)


# ---------------------------------------------------------------------------
# IPM


def test_ipm_examples():
    assert ipm_supnorm([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert ipm_supnorm([1.0, 0.0], [0.0, 1.0]) == pytest.approx(2.0)
    assert ipm_supnorm([0.7, 0.3], [0.4, 0.6]) == pytest.approx(0.6)


def test_ipm_rejects_non_probability_masses():
    with pytest.raises(ValueError, match="p1"):
        ipm_supnorm([0.5, 0.6], [0.5, 0.5])
    with pytest.raises(ValueError, match="p2"):
        ipm_supnorm([0.5, 0.5], [1.5, -0.5])
    with pytest.raises(ValueError, match="p1"):
        ipm_supnorm([np.nan, np.nan], [0.5, 0.5])
    with pytest.raises(ValueError, match="p2"):
        ipm_supnorm([0.5, 0.5], [np.inf, 0.5])
    with pytest.raises(ValueError, match="p2"):
        ipm_supnorm([[0.5, 0.5], [1.0, 0.0]], [[0.5, 0.5], [0.5, np.nan]])


@pytest.mark.parametrize("p, verdict", [
    ([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]], [True, True, True]),
    ([np.nan, 1.0], False),
    ([-0.0, 1.0], True),
    ([-1e-300, 1.0], False),  # sums to 1.0 exactly, but one mass is negative
    ([np.inf, 0.0], False),
    ([-np.inf, 1.0], False),
    (np.zeros((3, 0)), [False, False, False]),
    ([1.0], True),
    ([0.5], False),
    ([0.1] * 10, True),  # its left-to-right sum is 0.9999999999999999
    ([0.1] * 8 + [0.3, -0.1], False),
    ([0.1] * 9 + [np.nan], False),
], ids=["valid_stack", "nan", "negative_zero", "tiny_negative", "inf", "minus_inf",
        "empty_last_axis", "one_mass", "one_short_mass", "ten_masses", "ten_last_negative",
        "ten_last_nan"])
def test_is_probability_verdicts(p, verdict):
    p = np.asarray(p, dtype=np.float64)
    assert np.array_equal(theory._is_probability(p), np.asarray(verdict))


@given(st.integers(2, 6), st.integers(0, 5000))
@settings(max_examples=50, deadline=None)
def test_ipm_is_a_metric_on_the_simplex(k, seed):
    rng = np.random.default_rng(seed)
    p, q, s = rng.dirichlet(np.ones(k), size=3)
    assert abs(ipm_supnorm(p, q) - ipm_supnorm(q, p)) <= 1e-12
    assert ipm_supnorm(p, q) <= ipm_supnorm(p, s) + ipm_supnorm(s, q) + 1e-12
    assert ipm_supnorm(p, p) == 0.0


# ---------------------------------------------------------------------------
# Identities and bounds


def test_decomposition_residuals_tiny_on_random_worlds():
    for i in range(100):
        rng = np.random.default_rng(2000 + i)
        world, model = random_pair(rng, 2 + i % 4)
        assert check_decompositions(eps_terms(world, model)).max_abs_residual <= 1e-10


def test_bound_slacks_nonnegative_on_random_worlds():
    for i in range(100):
        rng = np.random.default_rng(3000 + i)
        world, model = random_pair(rng, 2 + i % 4)
        assert check_bounds(world, eps_terms(world, model)).min_slack >= -1e-10


def test_nearly_full_observedness_collapses_factual_loss():
    world = two_point_world(p_r1=(1.0 - 1e-12, 1.0 - 1e-12))
    model = random_table(np.random.default_rng(4), 2)
    e = eps_terms(world, model)
    assert abs(e.f - e.f_r1) <= 1e-10


def test_deterministic_outcomes_reduce_variance_identity():
    world = discrete_world(
        p_x=[0.4, 0.6], p_t1=[0.3, 0.8], p_r1=[0.5, 0.7],
        y0_values=[[1.0], [2.0]], y0_probs=[[1.0], [1.0]],
        y1_values=[[3.0], [0.0]], y1_probs=[[1.0], [1.0]],
    )
    model = random_table(np.random.default_rng(5), 2)
    e = eps_terms(world, model)
    assert e.sigma2_y == 0.0
    assert e.mean_sq_f == pytest.approx(e.f, abs=1e-14)
    assert e.mean_sq_cf == pytest.approx(e.cf, abs=1e-14)


def test_balanced_world_with_perfect_model_trivial_bound():
    world = two_point_world(p_t1=(0.5, 0.5), p_r1=(0.5, 0.5))
    means = world.outcome_moments()[0]
    model = TabularModel(h0=means[0], h1=means[1])
    e = eps_terms(world, model)
    report = check_bounds(world, e)
    assert report.ipms["missingness"] == pytest.approx(0.0, abs=1e-15)
    assert report.ipms["treatment"] == pytest.approx(0.0, abs=1e-15)
    assert e.pehe == pytest.approx(0.0, abs=1e-15)
    assert report.min_slack >= -1e-12


def test_constant_observedness_makes_domain_link_tight():
    world = two_point_world(p_r1=(0.5, 0.5))
    model = random_table(np.random.default_rng(6), 2)
    report = check_bounds(world, eps_terms(world, model))
    assert report.ipms["missingness"] == pytest.approx(0.0, abs=1e-15)
    assert report.slacks["total_loss_vs_observed_domain"] == pytest.approx(0.0, abs=1e-12)


def test_representation_ipms_exact_values():
    # p(x|R=0) = (0.4, 0.6) against p(x|R=1) = (0.6, 0.4); inside R=1,
    # p(x|T=0) = (7/9, 2/9) against p(x|T=1) = (9/23, 14/23)
    ipms = representation_ipms(two_point_world())
    assert ipms["missingness"] == pytest.approx(0.4, rel=1e-15)
    assert ipms["treatment"] == pytest.approx(160 / 207, rel=1e-15)


def test_final_bound_monotone_in_missingness_shift():
    # Constant losses across points isolate the shift term: only the
    # observed-vs-missing distance moves as p(R=1|x) spreads around 0.5.
    rhs_values = []
    for delta in (0.0, 0.1, 0.2, 0.3, 0.4):
        world = discrete_world(
            p_x=[0.5, 0.5], p_t1=[0.4, 0.4], p_r1=[0.5 + delta, 0.5 - delta],
            y0_values=[[1.0], [1.0]], y0_probs=[[1.0], [1.0]],
            y1_values=[[1.0], [1.0]], y1_probs=[[1.0], [1.0]],
        )
        model = TabularModel(h0=[0.0, 0.0], h1=[0.0, 0.0])
        e = eps_terms(world, model)
        ipms = representation_ipms(world)
        assert e.v == pytest.approx(0.5, abs=1e-15)  # spread keeps p(R=0) fixed
        assert e.b == 1.0  # every pointwise loss is (1 - 0)^2
        rhs_values.append(final_bound_rhs(e, ipm_treatment=ipms["treatment"],
                                          ipm_missingness=ipms["missingness"]))
    assert all(b > a for a, b in zip(rhs_values, rhs_values[1:]))


def test_world_validation():
    def world(**changes):
        fields = dict(p_x=[0.5, 0.5], p_t1=[0.5, 0.5], p_r1=[0.5, 0.5],
                      y0_values=[[0.0], [0.0]], y0_probs=[[1.0], [1.0]],
                      y1_values=[[0.0], [0.0]], y1_probs=[[1.0], [1.0]])
        return discrete_world(**{**fields, **changes})

    w = world()
    bad = [
        ({"p_x": [0.5, 0.6]}, "p_x"),
        ({"p_x": [np.nan, np.nan]}, "p_x"),
        ({"p_x": [1.5, -0.5]}, "p_x"),
        ({"p_t1": [0.0, 0.5]}, "p_t1"),
        ({"p_t1": [np.nan, 0.5]}, "p_t1"),
        ({"p_r1": [0.5, np.inf]}, "p_r1"),
        ({"p_r1": [0.5]}, "p_r1"),
        ({"y0_values": [[0.0]]}, "one outcome law per covariate point"),
        ({"y1_values": [[0.0], [0.0, 1.0]]}, "one mass per value"),
        ({"y1_values": [[0.0], [np.inf]]}, "y1_values"),
        ({"y0_values": [[np.nan], [0.0]]}, "y0_values"),
        ({"y0_probs": [[1.0], [0.9]]}, "y0_probs"),
        ({"y1_probs": [[np.nan], [1.0]]}, "y1_probs"),
        ({"y1_values": [[0.0, 1.0], [0.0]], "y1_probs": [[1.5, -0.5], [1.0]]}, "y1_probs"),
    ]
    for changes, named in bad:
        with pytest.raises(ValueError, match=named):
            world(**changes)
    with pytest.raises(ValueError, match="one outcome law per covariate point"):
        Worlds(w.p_x, w.p_t1, w.p_r1, w.values, np.concatenate([w.probs, w.probs], axis=-1))
    bad_models = [
        ({"h0": [np.nan, 0.0]}, "h0 must be finite"),
        ({"h1": [0.0, np.inf]}, "h1 must be finite"),
        ({"h1": [0.0]}, "h0 and h1"),
        ({"h0": 0.0, "h1": 0.0}, "h0 and h1"),
    ]
    for changes, named in bad_models:
        with pytest.raises(ValueError, match=named):
            TabularModel(**{"h0": [0.0, 0.0], "h1": [0.0, 0.0], **changes})


def test_sweep_summary_reports_no_violations():
    summary = run_world_sweep(50, seed=123)
    assert summary.residual_violations == 0
    assert summary.slack_violations == 0
    assert summary.max_abs_residual <= 1e-10
    assert summary.min_slack >= -1e-10
    assert "worlds checked" in summary.table()


def test_sweep_builds_one_loss_table_per_world(monkeypatch):
    worlds_covered = []

    def counting_loss_table(world, model):
        worlds_covered.append(model.h0.shape[0])  # a stack's leading world axis
        return loss_table(world, model)

    monkeypatch.setattr(theory, "loss_table", counting_loss_table)
    run_world_sweep(5, seed=1)
    assert sum(worlds_covered) == 5


def test_sweep_rejects_a_negative_seed_before_drawing(monkeypatch):
    drawn = []
    monkeypatch.setattr(theory, "random_world", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match="seed"):
        run_world_sweep(5, seed=-1)
    assert drawn == []


@pytest.mark.parametrize("args, named", [
    ((True,), "num_worlds"), ((2.5,), "num_worlds"), (("5",), "num_worlds"),
    ((5, True), "seed"), ((5, 1.0), "seed"),
])
def test_sweep_rejects_non_integer_counts_before_drawing(monkeypatch, args, named):
    drawn = []
    monkeypatch.setattr(theory, "random_world", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match=f"{named} must be an integer"):
        run_world_sweep(*args)
    assert drawn == []


def test_sweep_counts_are_plain_ints():
    summary = run_world_sweep(np.int64(3), seed=np.int64(1))
    assert type(summary.num_worlds) is int and summary.to_dict() == run_world_sweep(3, 1).to_dict()


@pytest.mark.parametrize("sizes, named", [
    ({"k": 1, "n": 3}, "k must be >= 2"), ({"k": 2.5, "n": 3}, "k must be an integer"),
    ({"k": True, "n": 3}, "k must be an integer"),
    ({"k": 3, "n": 3, "max_support": 0}, "max_support must be >= 1"),
    ({"k": 3, "n": 3, "max_support": 4.0}, "max_support"),
    ({"k": 3, "n": 3, "max_support": True}, "max_support must be an integer"),
    ({"k": 3, "n": 0}, "n must be >= 1"), ({"k": 3, "n": 2.0}, "n must be an integer"),
    ({"k": 3, "n": True}, "n must be an integer"),
])
def test_random_world_rejects_bad_sizes(sizes, named):
    with pytest.raises(ValueError, match=named):
        random_world(np.random.default_rng(0), **sizes)


@pytest.mark.parametrize("sizes, named", [
    ((0, 3), "k must be >= 1"), ((2.0, 3), "k must be an integer"),
    ((True, 3), "k must be an integer"), ((2, 0), "n must be >= 1"),
    ((2, "3"), "n must be an integer"), ((2, False), "n must be an integer"),
])
def test_random_model_rejects_bad_sizes(sizes, named):
    with pytest.raises(ValueError, match=named):
        random_model(np.random.default_rng(0), *sizes)


def test_sweep_validates_each_world_once_in_its_stack(monkeypatch):
    validated, modeled = [], []
    validate, post_init = Worlds.validate, TabularModel.__post_init__

    def recording_validate(self):
        validated.append(self.p_x.shape)
        validate(self)

    def recording_post_init(self):
        modeled.append(np.shape(self.h0))
        post_init(self)

    monkeypatch.setattr(Worlds, "validate", recording_validate)
    monkeypatch.setattr(TabularModel, "__post_init__", recording_post_init)
    run_world_sweep(300, seed=2)
    for shapes in (validated, modeled):
        assert all(len(shape) == 2 for shape in shapes)  # no one-world check
        assert sum(shape[0] for shape in shapes) == 300


def test_sweep_rejects_a_drawn_world_with_a_nan_outcome_value(monkeypatch):
    draw = theory.random_world

    def nan_world(rng, k, n):
        p_x, p_t1, p_r1, values, probs = draw(rng, k, n)
        values[-1, 1, 0, 0] = np.nan
        return p_x, p_t1, p_r1, values, probs

    monkeypatch.setattr(theory, "random_world", nan_world)
    with pytest.raises(ValueError, match=r"y[01]_values must be finite"):
        run_world_sweep(3, seed=0)


def test_sweep_rejects_a_drawn_model_with_a_nan_prediction(monkeypatch):
    draw = theory.random_model

    def nan_model(rng, k, n):
        h0, h1 = draw(rng, k, n)
        h0[-1, 0] = np.nan
        return h0, h1

    monkeypatch.setattr(theory, "random_model", nan_model)
    with pytest.raises(ValueError, match="h0 must be finite"):
        run_world_sweep(20, seed=1)


# sha256 of what random_world draws from seeds 0-49 (3 worlds of 2 + seed % 4
# points each, laws zero-padded to max_support 4), and of what random_model
# then draws from the same streams: the draw order cannot drift
PINNED_DRAWS = {
    "worlds": "1b186bf65fc0c58d060f3a55f101100eaf0e2ffe0fd9838dd6e5ae0a6af4821f",
    "models": "5b06eb77ce4bed9afa6afb29f396db13a1670b33273329fe5304691f8930057c",
}


def test_random_draws_are_pinned():
    digests = {name: hashlib.sha256() for name in PINNED_DRAWS}
    for seed in range(50):
        rng = np.random.default_rng(seed)
        k = 2 + seed % 4
        world = random_world(rng, k, 3)
        assert [a.shape for a in world] == [(3, k)] * 3 + [(3, 2, k, 4)] * 2
        model = random_model(rng, k, 3)
        assert [a.shape for a in model] == [(3, k)] * 2
        for name, arrays in (("worlds", world), ("models", model)):
            for a in arrays:
                digests[name].update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    assert {name: d.hexdigest() for name, d in digests.items()} == PINNED_DRAWS


def test_block_draws_follow_their_laws(monkeypatch):
    def within_5_sd(counts, total, p):
        return np.all(np.abs(np.asarray(counts) - total * p) <= 5 * np.sqrt(total * p * (1 - p)))

    groups = []
    draw = theory.random_world

    def recording_world(rng, k, n):
        groups.append((k, n))
        return draw(rng, k, n)

    monkeypatch.setattr(theory, "random_world", recording_world)
    run_world_sweep(4096, seed=9)
    per_k = {k: sum(n for kk, n in groups if kk == k) for k in range(2, 6)}
    assert sum(per_k.values()) == 4096 and within_5_sd(list(per_k.values()), 4096, 1 / 4)

    rng = np.random.default_rng(10)
    for k in range(2, 6):
        p_x, p_t1, p_r1, values, probs = draw(rng, k, 2000)
        sizes = np.count_nonzero(probs, axis=-1)
        laws = sizes.size
        assert within_5_sd([np.count_nonzero(sizes == s) for s in (1, 2, 3, 4)], laws, 1 / 4)
        padding = np.arange(4) >= sizes[..., None]
        assert (values[padding] == 0.0).all() and (probs[padding] == 0.0).all()
        assert (np.diff(values, axis=-1)[~padding[..., 1:]] >= 0.0).all()  # sorted support
        assert ((values >= -2.0) & (values < 2.0)).all()
        assert (probs[~padding] > 0.0).all()
        for masses in (p_x, probs):
            assert (np.abs(masses.sum(axis=-1) - 1.0) <= 1e-12).all()
        for p in (p_t1, p_r1):
            assert p.shape == (2000, k) and ((p >= 0.05) & (p < 0.95)).all()
        for h in random_model(rng, k, 2000):
            assert h.shape == (2000, k) and ((h >= -2.0) & (h < 2.0)).all()


def test_flat_dirichlet_draws_what_numpy_dirichlet_draws():
    for seed in range(200):
        for k in (2, 3, 4, 5, 9):
            for n in (1, 3):
                p_x = random_world(np.random.default_rng(seed), k, n)[0]
                expected = np.random.default_rng(seed).dirichlet(np.ones(k), size=n)
                assert (_bits(p_x) == _bits(expected)).all()


# 600 worlds cover every K from 2 to 5, each in one block of its own.
PINNED_SWEEPS = {
    5: (4.440892098500626e-15, 0.001873179251230539),
    2024: (3.552713678800501e-15, 0.004961374228279247),
}


@pytest.mark.parametrize("seed", sorted(PINNED_SWEEPS))
def test_sweep_summary_is_pinned(seed):
    assert 600 > 2 * theory.WORLD_BLOCK
    max_abs_residual, min_slack = PINNED_SWEEPS[seed]
    assert run_world_sweep(600, seed=seed).to_dict() == {
        "num_worlds": 600, "max_abs_residual": max_abs_residual, "min_slack": min_slack,
        "residual_violations": 0, "slack_violations": 0,
        "residual_tolerance": 1e-10, "slack_tolerance": 1e-10,
    }


def test_a_full_block_depends_on_the_seed_and_block_alone(monkeypatch):
    draw_world, draw_model = theory.random_world, theory.random_model

    def full_blocks(num_worlds, seed):
        """{(K, j): the fields of K's j-th block} for each block of WORLD_BLOCK
        worlds the sweep draws, worlds' then models'."""
        draws = []

        def recording(draw):
            def recorded(rng, k, n):
                fields = draw(rng, k, n)
                draws.append((k, [np.copy(a) for a in fields]))
                return fields
            return recorded

        monkeypatch.setattr(theory, "random_world", recording(draw_world))
        monkeypatch.setattr(theory, "random_model", recording(draw_model))
        run_world_sweep(num_worlds, seed=seed)
        blocks = {}
        for (k, world), (_, model) in zip(draws[::2], draws[1::2]):
            j = sum(key[0] == k for key in blocks)
            blocks[k, j] = world + model
        return {key: fields for key, fields in blocks.items()
                if fields[0].shape[0] == theory.WORLD_BLOCK}

    def same(ours, theirs):
        return all(a.shape == b.shape and (_bits(a) == _bits(b)).all()
                   for a, b in zip(ours, theirs))

    small, large = full_blocks(2000, 6), full_blocks(4000, 6)
    assert {k for k, _ in small} == {k for k, _ in large} == set(range(2, theory.MAX_POINTS + 1))
    assert small.keys() < large.keys()
    for key in small:
        assert same(small[key], large[key]), key
    assert not same(large[2, 0], large[2, 1])
    assert not same(small[2, 0], full_blocks(2000, 7)[2, 0])


def _per_block_sweep(num_worlds, seed):
    """The sweep checked one (K, block) stack at a time, drawn as documented:
    the per-K counts from one multinomial, then each K's blocks in turn."""
    max_res, min_slack, res_viol, slack_viol = 0.0, float("inf"), 0, 0
    counts = np.random.default_rng(np.random.SeedSequence([seed, 808])).multinomial(
        num_worlds, [0.25] * 4)
    for k, count in zip((2, 3, 4, 5), counts):
        full, last = divmod(int(count), theory.WORLD_BLOCK)
        for block, n in enumerate([theory.WORLD_BLOCK] * full + [last] * (last > 0)):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 808, k, block]))
            worlds = Worlds(*random_world(rng, k, n))
            models = TabularModel(*random_model(rng, k, n))
            e = eps_terms(worlds, models)
            residual = check_decompositions(e).max_abs_residual
            slack = check_bounds(worlds, e).min_slack
            max_res, min_slack = max(max_res, residual.max()), min(min_slack, slack.min())
            res_viol += int(np.count_nonzero(residual > theory.TOLERANCE))
            slack_viol += int(np.count_nonzero(slack < -theory.TOLERANCE))
    return num_worlds, float(max_res), float(min_slack), res_viol, slack_viol


@pytest.mark.parametrize("num_worlds", [1, 255, 256, 257, 600, 3000, 5000])
@pytest.mark.parametrize("seed", [0, 17])
def test_sweep_equals_checking_each_drawn_group_alone(num_worlds, seed):
    summary = run_world_sweep(num_worlds, seed=seed)
    assert (summary.num_worlds, summary.max_abs_residual, summary.min_slack,
            summary.residual_violations, summary.slack_violations) \
        == _per_block_sweep(num_worlds, seed)


def test_sweep_checks_stacks_of_one_k_up_to_stack_blocks(monkeypatch):
    stacks = []
    validate = Worlds.validate

    def recording_validate(self):
        stacks.append(self.p_x.shape)
        validate(self)

    monkeypatch.setattr(Worlds, "validate", recording_validate)
    run_world_sweep(16 * theory.WORLD_BLOCK, seed=9)
    assert all(shape[0] <= theory.STACK_BLOCKS * theory.WORLD_BLOCK for shape in stacks)
    assert any(shape[0] > theory.WORLD_BLOCK for shape in stacks)
    assert sum(shape[0] for shape in stacks) == 16 * theory.WORLD_BLOCK
    assert len(stacks) < 16 * (theory.MAX_POINTS - 1)  # fewer than one per (block, K)


@pytest.mark.parametrize("seed", [3, 4])
def test_twenty_thousand_worlds_have_no_violations(seed):
    summary = run_world_sweep(20_000, seed=seed)
    assert summary.residual_violations == 0 and summary.slack_violations == 0
    assert summary.max_abs_residual <= 1e-10 and summary.min_slack >= -1e-10


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _world_values(e, dec, bnd, i=...):
    """Every float the checks give world `i` of a stack (all of one world)."""
    values = [getattr(e, name) for name in sorted(vars(e)) if name != "sigma2_parts"]
    for table in (e.sigma2_parts, dec.residuals, bnd.slacks, bnd.ipms):
        values += [table[key] for key in sorted(table)]
    return np.array([np.asarray(v)[i] for v in values], dtype=np.float64)


# sha256 of _world_values over the 120 worlds below (30 of each K), in draw order
PINNED_WORLD_VALUES = "aebe41e75c6c0e26065a3ba7508f95a96f9939d5bda3e9093ec910baa454f62f"


def _stack_values_equal_alone(rng, k, n):
    """Checks `n` drawn worlds of `k` points as one stack and each alone,
    asserts each world's floats agree bit for bit, and gives the stacked ones."""
    fields = (*random_world(rng, k, n), *random_model(rng, k, n))
    worlds, models = Worlds(*fields[:5]), TabularModel(*fields[5:])
    e = eps_terms(worlds, models)
    checks = (e, check_decompositions(e), check_bounds(worlds, e))
    stacked = []
    for i in range(n):
        stacked.append(_world_values(*checks, i))
        world = Worlds(*(f[i] for f in fields[:5]))
        model = TabularModel(*(f[i] for f in fields[5:]))
        e_alone = eps_terms(world, model)
        alone = _world_values(e_alone, check_decompositions(e_alone),
                              check_bounds(world, e_alone))
        assert (_bits(stacked[-1]) == _bits(alone)).all(), (k, i)
    return stacked, np.count_nonzero(fields[4], axis=-1)


def test_stacked_worlds_equal_each_world_alone_bit_for_bit():
    rng = np.random.default_rng(11)
    stacked = []
    supports = set()
    for k in (2, 3, 4, 5):
        values, sizes = _stack_values_equal_alone(rng, k, 30)
        stacked += values
        supports.update(sizes.ravel().tolist())
    assert supports == {1, 2, 3, 4}
    digest = hashlib.sha256(b"".join(values.tobytes() for values in stacked)).hexdigest()
    assert digest == PINNED_WORLD_VALUES


@pytest.mark.parametrize("k", [8, 9])
def test_stacked_worlds_past_eight_points_equal_each_world_alone(k):
    # from 8 entries numpy sums pairwise and a fold left to right; both a
    # stack and a world alone fold, so they still agree
    _stack_values_equal_alone(np.random.default_rng(k), k, 20)
