"""Exception types and the config codec shared across the package: the key
and count checks, the type rule `decode`, and the `Spec` base class of every
config dataclass, which types and checks itself when it is built.

An error whose __init__ formats its message from arguments pickles by those
arguments (`__reduce__`), so one raised in a pool worker reaches the parent
with the same message and attributes as one raised inline."""

from dataclasses import MISSING, fields
from functools import cache
from numbers import Integral
from types import UnionType
from typing import get_args, get_origin, get_type_hints

_hints = cache(get_type_hints)  # a Spec class's field types, by name


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
    value = decode(value, int, name)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def decode(value, tp, where: str):
    """`value` as type `tp`: the type rule of every Spec field, however the Spec
    is built. A Spec comes from an object (an instance passes as it is), a tuple
    from a list or tuple, a `dict[str, X]` from an object of Xs, None for
    `X | None`, an int or a float from an integer, and otherwise `value` must be
    a `tp` (a bool is no number). A mismatch is a ValueError naming `where`."""
    if tp in (int, float) and isinstance(value, Integral) and not isinstance(value, bool):
        return tp(value)
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:
        return None if value is None else decode(value, args[0], where)
    if isinstance(tp, type) and issubclass(tp, Spec) and not isinstance(value, tp):
        return tp.from_dict(value, where)
    if origin is tuple and isinstance(value, (list, tuple)):
        return tuple(decode(v, args[0], f"{where}[{i}]") for i, v in enumerate(value))
    if origin is dict and isinstance(value, dict):
        return {k: decode(v, args[1], f"{where}.{k}") for k, v in value.items()}
    if origin is None and tp is not int and isinstance(value, tp):
        return value
    raise ValueError(f"{where} must be an integer, got {value!r}" if tp is int
                     else f"{where}: expected {tp.__name__}, got {value!r}")


class Spec:
    """Base of the config dataclasses. Building one (directly, by from_dict or
    by dataclasses.replace) types each field by its annotation with `decode`,
    then validates it; the codec reads and writes them by their fields."""

    def __post_init__(self):
        hints = _hints(type(self))
        for f in fields(self):
            object.__setattr__(self, f.name, decode(getattr(self, f.name), hints[f.name], f.name))
        self.validate()

    def validate(self) -> None:
        """Raise a ValueError for an invalid value; __post_init__ calls it."""

    def to_dict(self) -> dict:
        return {f.name: encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d, where: str = ""):
        """The inverse of to_dict: rejects unknown and missing keys. `where`
        names a nested object, and its fields by their path under it."""
        if not isinstance(d, dict):
            raise ValueError(f"{where or cls.__name__}: expected an object, got {d!r}")
        required = [f.name for f in fields(cls) if f.default is f.default_factory is MISSING]
        check_keys(d, [f.name for f in fields(cls)], where or cls.__name__, required)
        hints = _hints(cls)
        return cls(**{k: decode(v, hints[k], f"{where}.{k}") for k, v in d.items()} if where else d)


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
