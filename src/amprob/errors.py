"""Exception hierarchy shared across the package; `shown`, the short repr
their messages give a value; and `int_in`, the int test of the argument
checks that raise them."""

import operator
import reprlib


class AmprobError(Exception):
    """Base class for all package errors."""


class UsageError(AmprobError, ValueError):
    """The caller violated an API precondition (bad arguments); `key`
    names the argument at fault, when known."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class DomainError(AmprobError, ValueError):
    """The inputs are syntactically fine but mathematically inadmissible
    (non-finite values, a total probability float64 cannot hold, null
    total amplitude, zero-probability collapse)."""


class InvariantError(AmprobError, RuntimeError):
    """An internal cross-check failed; indicates a bug, not user error."""


class _ShortRepr(reprlib.Repr):
    def repr_int(self, x: int, level: int) -> str:
        try:
            return super().repr_int(x, level)
        except ValueError:  # more than sys.get_int_max_str_digits() digits
            return f"<int of {x.bit_length()} bits>"


# `reprlib.repr`, except that an int too long for `repr` is shown by its
# bit length, so no message raises while it names the value at fault
shown = _ShortRepr().repr


def int_in(value: int, low: int, high: int) -> bool:
    """Whether `value` is an int (numpy's included, as `operator.index`
    reads it) in low..high-1."""
    try:
        return low <= operator.index(value) < high
    except TypeError:
        return False


class ConfigError(UsageError):
    """Configuration parse or validation failure, with location info."""

    def __init__(self, message: str, key: str | None = None,
                 line: int | None = None):
        self.line = line
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if key is not None:
            prefix += f"key '{key}': "
        super().__init__(prefix + message, key)
