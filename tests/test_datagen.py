import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtcate.data import (
    COLUMNS, Dataset, MissingnessSpec, OutcomeSpec, SyntheticDGPSpec, apply_missingness,
    OPTIONAL_COLUMNS, concat, generate, load_csv, missingness_probabilities, save_csv,
    split,
)
from mtcate.errors import CsvParseError, TooFewRowsError


def linear_spec(n=200, d=3, noise=0.0, seed=0, rct=False):
    return SyntheticDGPSpec(
        n=n, d=d, propensity=tuple([0.5] * d),
        outcome0=OutcomeSpec(kind="linear", intercept=0.0, linear=tuple([1.0] * d)),
        outcome1=OutcomeSpec(kind="linear", intercept=2.0, linear=tuple([-0.5] * d)),
        noise_sd=noise, seed=seed, rct=rct,
    )


def test_generate_noiseless_outcomes_are_exact():
    d = generate(linear_spec(noise=0.0))
    mu0 = d.x @ np.full(3, 1.0)
    mu1 = 2.0 + d.x @ np.full(3, -0.5)
    assert np.array_equal(d.y, np.where(d.t == 1.0, mu1, mu0))
    assert np.array_equal(d.tau, mu1 - mu0)
    assert np.all(d.r == 1)


@pytest.mark.parametrize("changes, named", [
    ({"propensity": (np.nan,) * 3}, "['propensity']"),
    ({"noise_sd": np.nan}, "['noise_sd']"),
    ({"mixing": ((1.0, 0.0, 0.0), (0.0, np.inf, 0.0), (0.0, 0.0, 1.0))}, "['mixing']"),
    ({"outcome0": OutcomeSpec(kind="piecewise", linear=(1.0,) * 3, jump=np.nan,
                              jump_direction=(1.0,) * 3)}, "['outcome0.jump']"),
    ({"outcome1": OutcomeSpec(kind="quadratic", linear=(1.0,) * 3,
                              quadratic=(0.0, -np.inf, 0.0))}, "['outcome1.quadratic']"),
])
def test_generate_rejects_a_non_finite_number_naming_its_field(changes, named):
    # the spec checks itself when it is built, so generate never sees it
    with pytest.raises(ValueError, match=re.escape(f"{named} must be finite")):
        generate(replace(linear_spec(), **changes))


def test_generate_zero_propensity_balances_arms():
    spec = SyntheticDGPSpec(
        n=10000, d=2, propensity=(0.0, 0.0),
        outcome0=OutcomeSpec(kind="linear", linear=(1.0, 0.0)),
        outcome1=OutcomeSpec(kind="linear", linear=(1.0, 0.0)),
        seed=4,
    )
    d = generate(spec)
    assert abs(d.t.mean() - 0.5) < 0.03
    assert np.array_equal(d.tau, np.zeros(10000))  # identical surfaces


def test_generate_rct_flags_all_rows():
    d = generate(linear_spec(rct=True))
    assert np.all(d.e == 1)


def test_outcome_families_evaluate():
    x = np.array([[1.0, -2.0]])
    quad = OutcomeSpec(kind="quadratic", intercept=1.0, linear=(1.0, 1.0), quadratic=(0.5, 0.25))
    assert quad.evaluate(x)[0] == pytest.approx(1.0 + (1.0 - 2.0) + 0.5 + 1.0)
    pw = OutcomeSpec(kind="piecewise", linear=(0.0, 0.0), jump=3.0, jump_direction=(1.0, 0.0))
    assert pw.evaluate(x)[0] == 3.0
    assert pw.evaluate(-x)[0] == 0.0


def assert_same_dataset(a, b):
    for name in ("x", "t", "r", "y") + OPTIONAL_COLUMNS:
        va, vb = getattr(a, name), getattr(b, name)
        assert (va is None) == (vb is None), name
        if va is not None:
            assert np.array_equal(va, vb, equal_nan=(name == "t")), name


# ---------------------------------------------------------------------------
# Missingness probabilities


def test_missingness_probability_symmetric_q():
    x = np.random.default_rng(0).standard_normal((50, 4))
    p = missingness_probabilities(x, x.mean(axis=0), 0.5)
    assert np.array_equal(p, np.full(50, 0.5))


def test_missingness_probability_one_covariate_above():
    assert missingness_probabilities(np.array([[1.0]]), np.array([0.0]), 0.8)[0] == pytest.approx(0.8)


def test_missingness_probability_balanced_coordinates():
    p = missingness_probabilities(np.array([[1.0, -1.0]]), np.zeros(2), 0.73)[0]
    assert p == pytest.approx(0.5)


def iterative_missingness(x_row, means, q):
    # The per-covariate multiply-then-normalize procedure, kept deliberately
    # naive as an independent oracle for the closed form.
    p_m, p_o = 1.0, 1.0
    for j in range(len(x_row)):
        if x_row[j] > means[j]:
            p_m *= q
            p_o *= 1.0 - q
        else:
            p_m *= 1.0 - q
            p_o *= q
    return p_m / (p_m + p_o)


@given(
    st.integers(1, 12),
    st.floats(0.05, 0.95),
    st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_closed_form_matches_iterative_procedure(d, q, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((8, d))
    means = x.mean(axis=0)
    closed = missingness_probabilities(x, means, q)
    naive = np.array([iterative_missingness(row, means, q) for row in x])
    assert np.max(np.abs(closed - naive)) <= 1e-12


@given(st.integers(0, 6), st.floats(0.05, 0.95))
def test_missingness_swap_symmetry(a, q):
    d = 6
    row_a = np.where(np.arange(d) < a, 1.0, -1.0)
    row_b = np.where(np.arange(d) < d - a, 1.0, -1.0)
    means = np.zeros(d)
    pa, pb = missingness_probabilities(np.stack([row_a, row_b]), means, q)
    assert abs(pa + pb - 1.0) <= 1e-12


@given(st.permutations(list(range(5))), st.floats(0.05, 0.95))
def test_missingness_invariant_to_column_permutation(perm, q):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 5))
    means = x.mean(axis=0)
    perm = np.asarray(perm)
    base = missingness_probabilities(x, means, q)
    permuted = missingness_probabilities(x[:, perm], means[perm], q)
    assert np.array_equal(base, permuted)


# ---------------------------------------------------------------------------
# apply_missingness


def test_apply_missingness_exact_count_and_masking():
    d = generate(linear_spec(n=503, seed=8))
    masked = apply_missingness(d, MissingnessSpec(m=0.37, q=0.8, seed=1))
    assert int((masked.r == 0).sum()) == round(0.37 * 503)
    assert np.all(np.isnan(masked.t[masked.r == 0]))
    assert np.array_equal(masked.t_true, d.t)


def test_apply_missingness_preserves_payload_bitwise():
    d = generate(linear_spec(n=150, noise=0.3, seed=2))
    masked = apply_missingness(d, MissingnessSpec(m=0.5, q=0.9, seed=3))
    for name in ("x", "y", "y0", "y1", "tau"):
        assert np.array_equal(getattr(masked, name), getattr(d, name))


def test_apply_missingness_extreme_shift_probability():
    # all five covariates above their means, q = 0.9
    q = 0.9
    expected = 0.9**5 / (0.9**5 + 0.1**5)
    p = missingness_probabilities(np.ones((1, 5)), np.zeros(5), q)[0]
    assert p == pytest.approx(expected, abs=1e-12)
    assert p > 0.9999


def test_apply_missingness_shifts_covariates():
    # For q > 0.5 the missing rows sit above the mean more often.
    hits = 0
    for seed in range(10):
        d = generate(linear_spec(n=5000, d=4, seed=100 + seed))
        masked = apply_missingness(d, MissingnessSpec(m=0.4, q=0.8, seed=seed))
        above = (masked.x > masked.x.mean(axis=0)).sum(axis=1)
        if above[masked.r == 0].mean() >= above[masked.r == 1].mean():
            hits += 1
    assert hits >= 9


def test_apply_missingness_requires_fully_observed():
    d = generate(linear_spec(n=100))
    masked = apply_missingness(d, MissingnessSpec(m=0.2, q=0.6, seed=0))
    with pytest.raises(ValueError):
        apply_missingness(masked, MissingnessSpec(m=0.2, q=0.6, seed=0))


def test_dataset_r_is_one_exactly_where_t_is_observed():
    t = [1.0, np.nan, 0.0, np.nan]
    d = Dataset(x=np.zeros((4, 1)), t=t, y=[0, 0, 0, 0])
    assert d.r.dtype == np.int64 and d.r.tolist() == [1, 0, 1, 0] and d.n_observed() == 2
    assert d.subset([1, 2]).r.tolist() == [0, 1]
    with pytest.raises(TypeError):  # observedness is t's, never passed on its own
        Dataset(x=np.zeros((4, 1)), t=t, r=[1, 0, 1, 0], y=[0, 0, 0, 0])


@pytest.mark.parametrize("x", [np.float64(1.0), np.zeros(1)], ids=["0-d", "1-d"])
def test_dataset_rejects_an_x_that_is_not_2d(x):
    # the number of dimensions is checked before the row count is read
    with pytest.raises(ValueError, match="x must be 2-d"):
        Dataset(x=x, t=[1.0], y=[0.0])


@pytest.mark.parametrize("column", ["x", "y", "y0", "y1", "tau"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_dataset_rejects_a_non_finite_value_naming_its_column(column, bad):
    fields = {"x": np.zeros((3, 1)), "t": [1.0, 0.0, 1.0],
              **{name: np.zeros(3) for name in ("y", "y0", "y1", "tau")}}
    fields[column].flat[1] = bad
    with pytest.raises(ValueError, match=f"^{column} must be finite$"):
        Dataset(**fields)


def test_every_dataset_field_is_in_the_column_table():
    # subset, concat and dataclasses.replace copy exactly these columns
    assert [f.name for f in fields(Dataset) if f.init] == list(COLUMNS)


# ---------------------------------------------------------------------------
# split


def test_split_sizes_and_partition():
    d = generate(linear_spec(n=100))
    train, val, test = split(d, seed=5)
    assert (train.n, val.n, test.n) == (70, 20, 10)
    rows = np.vstack([train.x, val.x, test.x])
    assert np.array_equal(np.sort(rows, axis=0), np.sort(d.x, axis=0))


def test_split_deterministic():
    d = generate(linear_spec(n=57))
    a = split(d, seed=9)
    b = split(d, seed=9)
    for part_a, part_b in zip(a, b):
        assert_same_dataset(part_a, part_b)


def test_split_too_few_rows():
    d = generate(linear_spec(n=9))
    with pytest.raises(TooFewRowsError):
        split(d)


def test_concat_roundtrips_split():
    d = generate(linear_spec(n=40))
    train, val, _ = split(d, seed=1)
    both = concat(train, val)
    assert both.n == train.n + val.n == 36
    assert both.y0 is not None


def test_concat_names_a_column_only_one_dataset_carries():
    d = generate(linear_spec(n=40))
    with pytest.raises(ValueError, match=re.escape("['tau']")):
        concat(d, replace(d, tau=None))


# ---------------------------------------------------------------------------
# CSV


def test_csv_missing_cell_convention(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,t,r,x1,x2\n2.5,,0,0.1,0.2\n1.0,1,1,0.3,0.4\n")
    d = load_csv(path)
    assert d.y[0] == 2.5 and np.isnan(d.t[0]) and d.r[0] == 0
    assert d.t[1] == 1.0 and d.r[1] == 1


def test_csv_roundtrip_random_dataset(tmp_path):
    d = apply_missingness(
        generate(linear_spec(n=83, noise=0.2, seed=6, rct=True)),
        MissingnessSpec(m=0.3, q=0.7, seed=7),
    )
    path = tmp_path / "d.csv"
    save_csv(d, path)
    assert_same_dataset(load_csv(path), d)


def test_csv_roundtrip_without_optional_columns(tmp_path):
    d = Dataset(
        x=np.array([[0.25, -1.5], [3.0, 2.0]]),
        t=np.array([1.0, np.nan]), y=np.array([0.5, -0.125]),
    )
    path = tmp_path / "d.csv"
    save_csv(d, path)
    assert_same_dataset(load_csv(path), d)


def test_csv_observed_row_with_empty_t_is_an_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,t,r,x1\n1.0,,1,0.5\n")
    with pytest.raises(CsvParseError) as err:
        load_csv(path)
    assert err.value.line == 2


def test_csv_t_and_t_true_disagreeing_names_the_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,t,r,x1,t_true\n1.0,1,1,0.5,1\n2.0,0,1,0.1,1\n")
    with pytest.raises(CsvParseError, match="t_true") as err:
        load_csv(path)
    assert err.value.line == 3


def test_csv_nonbinary_treatment_is_an_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,t,r,x1\n1.0,1,1,0.5\n2.0,0.7,1,0.1\n")
    with pytest.raises(CsvParseError) as err:
        load_csv(path)
    assert err.value.line == 3


def test_csv_with_a_header_and_no_rows_is_an_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("y,t,r,x1,x2,tau\n")
    with pytest.raises(CsvParseError, match="no data rows") as err:
        load_csv(path)
    assert err.value.line == 2


def test_csv_repeated_column_is_an_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,t,r,x1,tau,tau\n1.0,1,1,0.5,0.2,0.3\n")
    with pytest.raises(CsvParseError, match=r"\['tau'\]") as err:
        load_csv(path)
    assert err.value.line == 1


def test_csv_inconsistent_width_is_an_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,t,r,x1,x2\n1.0,1,1,0.5\n")
    with pytest.raises(CsvParseError):
        load_csv(path)
