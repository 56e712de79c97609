"""Exception types and the config codec shared across the package: the key
and count checks and the `Spec` base class of every config dataclass, which
checks itself when it is built and loads from JSON through the codec.

An error whose __init__ formats its message from arguments pickles by those
arguments (`__reduce__`), so one raised in a pool worker reaches the parent
with the same message and attributes as one raised inline."""

from dataclasses import MISSING, fields
from numbers import Integral
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


def check_count(name: str, value, least: int) -> int:
    """`value` as an int >= `least`, or a ValueError naming `name` (a bool is no count)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def decode(value, tp, where: str):
    """`value`, read from JSON, as type `tp`: a Spec from an object, a tuple
    from a list, a `dict[str, X]` from an object with each value decoded as
    X, None for `X | None`, a float from an int, and otherwise exactly `tp`
    (a bool is no number). A mismatch is a ValueError naming `where`."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:
        return None if value is None else decode(value, args[0], where)
    if isinstance(tp, type) and issubclass(tp, Spec):
        return tp.from_dict(value, where)
    if origin is tuple and isinstance(value, (list, tuple)):
        return tuple(decode(v, args[0], f"{where}[{i}]") for i, v in enumerate(value))
    if origin is dict and isinstance(value, dict):
        return {k: decode(v, args[1], f"{where}.{k}") for k, v in value.items()}
    if tp is float and type(value) is int:
        return float(value)
    if origin is None and isinstance(value, tp) and (tp is bool or type(value) is not bool):
        return value
    raise ValueError(f"{where}: expected {tp.__name__}, got {value!r}")


class Spec:
    """Base of the config dataclasses, which validate themselves when built
    (directly, by from_dict or by dataclasses.replace), so no user checks one
    again; the codec reads and writes them by their fields, defaults and types."""

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise a ValueError for an invalid value; __post_init__ calls it."""

    def to_dict(self) -> dict:
        return {f.name: encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d, where: str | None = None):
        """The inverse of to_dict: rejects unknown and missing keys and
        coerces each value to its field's type (building validates it)."""
        where = where or cls.__name__
        if not isinstance(d, dict):
            raise ValueError(f"{where}: expected an object, got {d!r}")
        required = [f.name for f in fields(cls) if f.default is f.default_factory is MISSING]
        check_keys(d, [f.name for f in fields(cls)], where, required)
        hints = get_type_hints(cls)
        return cls(**{k: decode(v, hints[k], f"{where}.{k}") for k, v in d.items()})


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

    def __reduce__(self):
        return type(self), (self.iteration, str(self))


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

    def __reduce__(self):
        return type(self), (self.stratum,)


class CsvParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message

    def __reduce__(self):
        return type(self), (self.line, self.message)


class TooFewRowsError(ValueError):
    """Dataset too small to split."""


class AllFailedError(RuntimeError):
    """Every grid point failed during cross-validation."""

    def __init__(self, causes):
        super().__init__("all grid points failed: " + "; ".join(map(str, causes)))
        self.causes = list(causes)

    def __reduce__(self):
        return type(self), (self.causes,)


class ExperimentFailedError(RuntimeError):
    """At least half of the runs in an experiment failed."""
