"""Datasets, synthetic data generation, the covariate-dependent treatment
missingness mechanism, splitting and CSV (de)serialization.

Conventions: `t` is a float vector with NaN where the treatment label is
missing, the only stored record of which labels are missing; `r` is the
0/1 observedness indicator, derived from `t` (1 where `t` is not NaN);
`t_true` (when present) keeps the pre-masking assignment for evaluation
only and is never shown to estimators.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from .nn import expit
from .errors import CsvParseError, Spec, TooFewRowsError, check_count

OPTIONAL_COLUMNS = ("y0", "y1", "tau", "e", "t_true")
COLUMNS = ("x", "t", "y", *OPTIONAL_COLUMNS)  # every stored column of a Dataset
BINARY_COLUMNS = ("e", "t_true")  # optional columns holding 0/1
SPLIT_FRACTIONS = (0.70, 0.20, 0.10)  # train, validation, test


def observedness(t) -> np.ndarray:
    """The 0/1 int64 indicator of the rows whose treatment `t` is not NaN."""
    return (~np.isnan(t)).astype(np.int64)


@dataclass
class Dataset:
    x: np.ndarray  # (n, d) covariates
    t: np.ndarray  # (n,) treatment, NaN where missing
    y: np.ndarray  # (n,) factual outcome
    y0: np.ndarray | None = None
    y1: np.ndarray | None = None
    tau: np.ndarray | None = None
    e: np.ndarray | None = None  # randomized-subset flag
    t_true: np.ndarray | None = None  # hidden ground-truth assignment
    r: np.ndarray = field(init=False)  # (n,) 0/1 observedness of t

    def __post_init__(self):
        for name, v in self.columns().items():
            setattr(self, name, np.asarray(v, dtype=np.float64))
        self.r = observedness(self.t)
        self.validate()

    def columns(self) -> dict[str, np.ndarray]:
        """The columns this dataset carries, by name, in `COLUMNS` order."""
        return {name: getattr(self, name) for name in COLUMNS if getattr(self, name) is not None}

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def validate(self) -> None:
        if self.x.ndim != 2:
            raise ValueError("x must be 2-d")
        n = self.n
        for name, v in self.columns().items():
            if name != "x" and v.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        obs = self.r == 1
        tv = self.t[obs]
        if not np.all((tv == 0.0) | (tv == 1.0)):
            raise ValueError("observed t must be 0/1")
        for name in ("x", "y", "y0", "y1", "tau"):
            v = getattr(self, name)
            if v is not None and not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite")
        for name in BINARY_COLUMNS:
            v = getattr(self, name)
            if v is not None and not np.all((v == 0.0) | (v == 1.0)):
                raise ValueError(f"{name} must be 0/1")
        if self.t_true is not None and np.any(tv != self.t_true[obs]):
            raise ValueError("t and t_true disagree on observed rows")

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(**{name: v[idx] for name, v in self.columns().items()})

    def n_observed(self) -> int:
        return int(self.r.sum())


def concat(a: Dataset, b: Dataset) -> Dataset:
    """Row-wise concatenation; optional fields must be present in both or neither."""
    if a.d != b.d:
        raise ValueError("column counts differ")
    ca, cb = a.columns(), b.columns()
    one_sided = [name for name in COLUMNS if (name in ca) != (name in cb)]
    if one_sided:
        raise ValueError(f"field(s) {one_sided} present in only one dataset")
    return Dataset(**{name: np.concatenate([v, cb[name]]) for name, v in ca.items()})


# ---------------------------------------------------------------------------
# Synthetic data generating process


@dataclass(frozen=True)
class OutcomeSpec(Spec):
    """One response surface: linear, linear+quadratic, or linear+step ("piecewise")."""

    kind: str  # linear | quadratic | piecewise
    intercept: float = 0.0
    linear: tuple[float, ...] = ()
    quadratic: tuple[float, ...] = ()  # coefficients on x_j^2 (kind=quadratic)
    jump: float = 0.0  # added where w.x > threshold (kind=piecewise)
    jump_direction: tuple[float, ...] = ()
    jump_threshold: float = 0.0

    def validate(self) -> None:
        if self.kind not in ("linear", "quadratic", "piecewise"):
            raise ValueError(f"unknown outcome kind {self.kind!r}")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        out = self.intercept + x @ np.asarray(self.linear, dtype=np.float64)
        if self.kind == "quadratic":
            out = out + (x * x) @ np.asarray(self.quadratic, dtype=np.float64)
        elif self.kind == "piecewise":
            w = np.asarray(self.jump_direction, dtype=np.float64)
            out = out + self.jump * (x @ w > self.jump_threshold)
        return out


@dataclass(frozen=True)
class SyntheticDGPSpec(Spec):
    n: int
    d: int
    propensity: tuple[float, ...]  # p(T=1|x) = sigmoid(gamma . x)
    outcome0: OutcomeSpec
    outcome1: OutcomeSpec
    noise_sd: float = 0.0
    mixing: tuple[tuple[float, ...], ...] | None = None  # optional covariate mixer
    rct: bool = False  # randomize T via Bernoulli(0.5) and flag all rows
    seed: int = 0

    def validate(self) -> None:
        check_count("n", self.n, 1)
        check_count("d", self.d, 1)
        numbers = {"propensity": self.propensity, "noise_sd": self.noise_sd,
                   "mixing": sum(self.mixing or (), ())}
        numbers.update({f"{name}.{key}": value for name in ("outcome0", "outcome1")
                        for key, value in vars(getattr(self, name)).items() if key != "kind"})
        nonfinite = [key for key, value in numbers.items() if not np.isfinite(value).all()]
        if nonfinite:
            raise ValueError(f"{nonfinite} must be finite")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")
        check_count("seed", self.seed, 0)
        vectors = {"propensity": self.propensity}
        for name in ("outcome0", "outcome1"):
            outcome = getattr(self, name)
            vectors[f"{name}.linear"] = outcome.linear
            if outcome.kind == "quadratic":
                vectors[f"{name}.quadratic"] = outcome.quadratic
            if outcome.kind == "piecewise":
                vectors[f"{name}.jump_direction"] = outcome.jump_direction
        bad = [key for key, vector in vectors.items() if len(vector) != self.d]
        if bad:
            raise ValueError(f"{bad} must have length d = {self.d}")
        if self.mixing is not None and (len(self.mixing) != self.d
                                        or any(len(row) != self.d for row in self.mixing)):
            raise ValueError(f"mixing must be d x d = {self.d} x {self.d}")


def generate(spec: SyntheticDGPSpec) -> Dataset:
    """Draw a fully observed dataset (r = 1 everywhere) with ground truth attached."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 101]))
    z = rng.standard_normal((spec.n, spec.d))
    if spec.mixing is not None:
        mix = np.asarray(spec.mixing, dtype=np.float64)
        x = z @ mix.T
    else:
        x = z
    if spec.rct:
        p_treat = np.full(spec.n, 0.5)
    else:
        p_treat = expit(x @ np.asarray(spec.propensity, dtype=np.float64))
    t = (rng.random(spec.n) < p_treat).astype(np.float64)
    mu0 = spec.outcome0.evaluate(x)
    mu1 = spec.outcome1.evaluate(x)
    y0 = mu0 + spec.noise_sd * rng.standard_normal(spec.n)
    y1 = mu1 + spec.noise_sd * rng.standard_normal(spec.n)
    y = np.where(t == 1.0, y1, y0)
    e = np.ones(spec.n) if spec.rct else np.zeros(spec.n)
    return Dataset(x=x, t=t, y=y, y0=y0, y1=y1, tau=mu1 - mu0, e=e, t_true=t.copy())


# ---------------------------------------------------------------------------
# Treatment missingness


@dataclass(frozen=True)
class MissingnessSpec(Spec):
    m: float  # target missing fraction
    q: float  # shift magnitude
    seed: int = 0

    def validate(self) -> None:
        for name in ("m", "q"):
            if not (0.0 < getattr(self, name) < 1.0):
                raise ValueError(f"{name} must be in (0,1), got {getattr(self, name)}")
        check_count("seed", self.seed, 0)


def missingness_probabilities(x: np.ndarray, column_means: np.ndarray, q: float) -> np.ndarray:
    """Per-row probability that the treatment label goes missing.

    Closed form of the per-covariate multiply-then-normalize scheme: with
    a = #{j: x_j > mean_j}, p_m = q^a (1-q)^(d-a) / (q^a (1-q)^(d-a) +
    (1-q)^a q^(d-a)). Evaluated as sigmoid((2a-d) logit(q)) so large d
    cannot underflow.
    """
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must be in (0,1), got {q}")
    a = (np.asarray(x) > np.asarray(column_means)).sum(axis=1)
    d = np.asarray(x).shape[1]
    return expit((2.0 * a - d) * np.log(q / (1.0 - q)))


def apply_missingness(data: Dataset, spec: MissingnessSpec) -> Dataset:
    """Mask treatments with covariate-dependent probability, then flip uniformly
    chosen rows in the majority direction until #{r=0} == round(m*n) exactly."""
    if np.any(data.r == 0):
        raise ValueError("apply_missingness expects a fully observed dataset")
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 202]))
    means = data.x.mean(axis=0)
    p_miss = missingness_probabilities(data.x, means, spec.q)
    r = (rng.random(data.n) >= p_miss).astype(np.int64)

    target_missing = int(round(spec.m * data.n))
    current_missing = int((r == 0).sum())
    if current_missing < target_missing:
        candidates = np.flatnonzero(r == 1)
        flip = rng.choice(candidates, size=target_missing - current_missing, replace=False)
        r[flip] = 0
    elif current_missing > target_missing:
        candidates = np.flatnonzero(r == 0)
        flip = rng.choice(candidates, size=current_missing - target_missing, replace=False)
        r[flip] = 1

    t_true = data.t.copy()
    t_public = data.t.copy()
    t_public[r == 0] = np.nan
    return replace(data, t=t_public, t_true=t_true)


# ---------------------------------------------------------------------------
# Splitting


def split(data: Dataset, seed: int = 0):
    """Disjoint uniform random (train, validation, test) partition in SPLIT_FRACTIONS."""
    if data.n < 10:
        raise TooFewRowsError(f"need at least 10 rows to split, got {data.n}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 303]))
    perm = rng.permutation(data.n)
    n_train = int(round(SPLIT_FRACTIONS[0] * data.n))
    n_val = int(round(SPLIT_FRACTIONS[1] * data.n))
    n_test = data.n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise TooFewRowsError(f"split sizes degenerate: {(n_train, n_val, n_test)}")
    return (
        data.subset(perm[:n_train]),
        data.subset(perm[n_train:n_train + n_val]),
        data.subset(perm[n_train + n_val:]),
    )


# ---------------------------------------------------------------------------
# CSV round trip


def _format(v: float) -> str:
    return repr(float(v))


def save_csv(data: Dataset, path) -> None:
    """Columns: y, t (empty cell = missing), r, x1..xd, then any of y0, y1,
    tau, e, t_true the dataset carries."""
    opt = [name for name in OPTIONAL_COLUMNS if getattr(data, name) is not None]
    header = ["y", "t", "r"] + [f"x{j + 1}" for j in range(data.d)] + opt
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n):
            row = [
                _format(data.y[i]),
                "" if np.isnan(data.t[i]) else str(int(data.t[i])),
                str(int(data.r[i])),
            ]
            row += [_format(v) for v in data.x[i]]
            for name in opt:
                v = getattr(data, name)[i]
                row.append(str(int(v)) if name in BINARY_COLUMNS else _format(v))
            writer.writerow(row)


def _parse_float(cell: str, line: int, col: str) -> float:
    try:
        v = float(cell)
    except ValueError:
        raise CsvParseError(line, f"column {col!r}: not a number: {cell!r}")
    if not math.isfinite(v):
        raise CsvParseError(line, f"column {col!r}: non-finite value")
    return v


def _parse_binary(cell: str, line: int, col: str) -> float:
    v = _parse_float(cell, line, col)
    if v not in (0.0, 1.0):
        raise CsvParseError(line, f"column {col!r}: expected 0 or 1, got {cell!r}")
    return v


def load_csv(path) -> Dataset:
    """Read what save_csv writes; every cell is checked on its own line,
    including that the `r` column agrees with `t`, and a header with no row
    under it is an error at line 2. Each row is parsed as it is read, into
    one growing float array per column (`x` row-major), so the text of the
    file is never held whole."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(1, "empty file")
        repeated = sorted({c for c in header if header.count(c) > 1})
        if repeated:
            raise CsvParseError(1, f"repeated columns {repeated}")
        d = len([c for c in header if c.startswith("x")])
        expected = ["y", "t", "r"] + [f"x{j + 1}" for j in range(d)]
        if header[: 3 + d] != expected:
            raise CsvParseError(1, f"header must start with {expected}, got {header[:3 + d]}")
        opt = header[3 + d:]
        unknown = [c for c in opt if c not in OPTIONAL_COLUMNS]
        if unknown:
            raise CsvParseError(1, f"unknown columns {unknown}")

        x, t, y = array("d"), array("d"), array("d")
        extra = {name: array("d") for name in opt}
        for line, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvParseError(line, f"expected {len(header)} cells, got {len(row)}")
            y.append(_parse_float(row[0], line, "y"))
            observed = _parse_binary(row[2], line, "r") == 1.0
            if row[1] == "":
                if observed:
                    raise CsvParseError(line, "t is empty but r=1")
                t.append(math.nan)
            else:
                if not observed:
                    raise CsvParseError(line, "t is present but r=0")
                t.append(_parse_binary(row[1], line, "t"))
            for j in range(d):
                x.append(_parse_float(row[3 + j], line, f"x{j + 1}"))
            for k, name in enumerate(opt):
                parse = _parse_binary if name in BINARY_COLUMNS else _parse_float
                extra[name].append(parse(row[3 + d + k], line, name))
            if observed and "t_true" in extra and extra["t_true"][-1] != t[-1]:
                raise CsvParseError(line, "t and t_true disagree on an observed row")
    if not y:
        raise CsvParseError(2, "no data rows")
    return Dataset(x=np.frombuffer(x).reshape(len(y), d), t=np.frombuffer(t), y=np.frombuffer(y),
                   **{name: np.frombuffer(v) for name, v in extra.items()})


# ---------------------------------------------------------------------------
# The one loader: every command and every experiment run builds its data here


@dataclass(frozen=True)
class DataSpec(Spec):
    """Exactly one source, a synthetic spec or a CSV path, optionally masked
    by a missingness spec."""

    synthetic: SyntheticDGPSpec | None = None
    csv: str | None = None
    missingness: MissingnessSpec | None = None

    def validate(self) -> None:
        if (self.synthetic is None) == (self.csv is None):
            raise ValueError("data needs exactly one of a synthetic spec or a csv path")

    def reseeded(self, synthetic_seed: int, missingness_seed: int) -> "DataSpec":
        """The same spec with the synthetic draw and the mask seeded anew."""
        return DataSpec(self.synthetic and replace(self.synthetic, seed=synthetic_seed), self.csv,
                        self.missingness and replace(self.missingness, seed=missingness_seed))


def load_dataset(spec: DataSpec, csv_data: Dataset | None = None) -> Dataset:
    """Generate the synthetic spec or read the CSV (`csv_data` is that CSV
    when the caller has read it already), then mask it with the missingness
    spec, which needs fully observed data."""
    if spec.synthetic is not None:
        d = generate(spec.synthetic)
    else:
        d = load_csv(spec.csv) if csv_data is None else csv_data
    return d if spec.missingness is None else apply_missingness(d, spec.missingness)
