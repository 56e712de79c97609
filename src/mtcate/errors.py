"""Exception types and the config codec shared across the package: the key
check and the `Spec` base class every JSON config dataclass loads through."""

from dataclasses import MISSING, fields
from types import UnionType
from typing import get_args, get_origin, get_type_hints


def check_keys(keys, allowed, where: str, required=()) -> None:
    """Raise a ValueError naming any key of a loaded config that is not
    allowed, or any required key that is absent."""
    unknown = sorted(set(keys) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} key(s) {unknown}; allowed: {sorted(allowed)}")
    missing = [k for k in required if k not in keys]
    if missing:
        raise ValueError(f"missing {where} key(s) {missing}")


def decode(value, tp, where: str):
    """`value`, read from JSON, as type `tp`: a Spec from an object, a tuple
    from a list, None for `X | None`, a float from an int, and otherwise
    exactly `tp` (a bool is no number). A mismatch is a ValueError naming
    `where`."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:
        return None if value is None else decode(value, args[0], where)
    if isinstance(tp, type) and issubclass(tp, Spec):
        return tp.from_dict(value, where)
    if origin is tuple and isinstance(value, (list, tuple)):
        return tuple(decode(v, args[0], f"{where}[{i}]") for i, v in enumerate(value))
    if tp is float and type(value) is int:
        return float(value)
    if origin is None and isinstance(value, tp) and (tp is bool or type(value) is not bool):
        return value
    raise ValueError(f"{where}: expected {tp.__name__}, got {value!r}")


class Spec:
    """Base of the config dataclasses: the codec reads them from JSON and
    writes them back by their own fields, defaults and types."""

    def validate(self) -> None:
        """Raise a ValueError for an invalid value; from_dict calls it."""

    def to_dict(self) -> dict:
        return {f.name: encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d, where: str | None = None):
        """The inverse of to_dict: rejects unknown and missing keys, coerces
        each value to its field's type and validates the result."""
        where = where or cls.__name__
        if not isinstance(d, dict):
            raise ValueError(f"{where}: expected an object, got {d!r}")
        required = [f.name for f in fields(cls) if f.default is f.default_factory is MISSING]
        check_keys(d, [f.name for f in fields(cls)], where, required)
        hints = get_type_hints(cls)
        spec = cls(**{k: decode(v, hints[k], f"{where}.{k}") for k, v in d.items()})
        spec.validate()
        return spec


def encode(value):
    """`value` as JSON data: a tuple as a list, anything with a to_dict as
    its dict, everything else as it is."""
    if isinstance(value, tuple):
        return [encode(v) for v in value]
    return value.to_dict() if hasattr(value, "to_dict") else value


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
