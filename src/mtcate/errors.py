"""Exception types and the unknown-key check shared across the package."""


def check_keys(keys, allowed, where: str) -> None:
    """Raise a ValueError naming any key of a loaded config that is not allowed."""
    unknown = sorted(set(keys) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} key(s) {unknown}; allowed: {sorted(allowed)}")


class DegenerateArmError(ValueError):
    """Observed-treatment rows contain only one arm (or none), so the
    balancing weights t/(2u) + (1-t)/(2(1-u)) are undefined."""


class TrainingDivergedError(RuntimeError):
    def __init__(self, iteration: int, message: str | None = None):
        super().__init__(message or f"non-finite loss at iteration {iteration}")
        self.iteration = iteration


class EmptyDataError(ValueError):
    """No usable rows left after filtering."""


class SingularDesignError(ValueError):
    """Least-squares design matrix is rank deficient beyond the ridge jitter."""


class DegenerateLabelsError(ValueError):
    """A binary classifier was given a single-class target."""


class MetricUnavailableError(ValueError):
    """The data lacks the ground-truth fields this metric needs."""


class StratumEmptyError(ValueError):
    def __init__(self, stratum: str):
        super().__init__(f"empty stratum: {stratum}")
        self.stratum = stratum


class CsvParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class TooFewRowsError(ValueError):
    """Dataset too small to split."""


class AllFailedError(RuntimeError):
    """Every grid point failed during cross-validation."""

    def __init__(self, causes):
        super().__init__("all grid points failed: " + "; ".join(map(str, causes)))
        self.causes = list(causes)


class ExperimentFailedError(RuntimeError):
    """At least half of the runs in an experiment failed."""
