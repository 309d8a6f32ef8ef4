"""Exception taxonomy shared by every module, the field type check of the
config dataclasses, the integer test of class values, and the finite-loss
check of the training loops.

The CLI maps these onto exit codes: content problems (DataError,
ConfigError and their subclasses CheckpointError and SamplingError) exit 2,
internal invariant violations (ShapeError, ContractError) exit 3.
"""

import dataclasses
import math
import numbers


class SentibertError(Exception):
    """Base class for all library errors."""


class ShapeError(SentibertError):
    """Tensor shapes incompatible with the requested operation."""


class ContractError(SentibertError):
    """An API precondition or internal invariant was violated."""


class ConfigError(SentibertError):
    """Invalid configuration value or dataset composition."""


class DataError(SentibertError):
    """Malformed or unusable input data (carries line numbers when known)."""


class CheckpointError(DataError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


class SamplingError(ConfigError):
    """A corpus that cannot yield the requested draws (a document of one
    sentence, or no other document to sample a non-successor from)."""


_KINDS = {int: numbers.Integral, float: numbers.Real, bool: bool, str: str}


def check_type(name: str, value, kind: type) -> None:
    """ConfigError naming `name` unless value is of kind: int, float, bool or
    str. A bool passes only as bool; an int passes as float."""
    if not isinstance(value, _KINDS[kind]) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")


def is_int(value) -> bool:
    """An int or numpy integer, and not a bool: a class index or label."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_field_types(config) -> None:
    """check_type on every field of a dataclass annotated int, float, bool or str."""
    for f in dataclasses.fields(config):
        if f.type in _KINDS:
            check_type(f.name, getattr(config, f.name), f.type)


def check_finite_loss(where: str, loss: float) -> None:
    """ConfigError naming where and the loss unless it is finite: training
    diverged (usually a learning rate too high) and its model is unusable."""
    if not math.isfinite(loss):
        raise ConfigError(f"{where}: loss is {loss!r}, not finite; training diverged (lower the learning rate)")
