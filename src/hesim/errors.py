"""Exceptions that map onto CLI exit codes, and the one rule for configured numbers."""

import math
import numbers


class ConfigError(ValueError):
    """Bad or inconsistent run configuration (exit code 2)."""


class NumericalError(RuntimeError):
    """A computation left its valid numerical regime (exit code 3)."""


def number(value, what, lo=-math.inf, hi=math.inf, *, integer=False, open_lo=False, open_hi=False):
    """value as an int (integer=True) or a float if it is a finite numbers.Real
    (numbers.Integral for an integer), not a bool, and inside its bounds."""
    x = math.nan  # fails every check
    if isinstance(value, numbers.Integral if integer else numbers.Real) and type(value) is not bool:
        try:
            x = int(value) if integer else float(value)
        except OverflowError:  # an int or a fraction past the float range
            pass
    if abs(x) < math.inf and (lo < x if open_lo else lo <= x) and (x < hi if open_hi else x <= hi):
        return x
    left = "(" if open_lo or lo == -math.inf else "["
    right = ")" if open_hi or hi == math.inf else "]"
    kind = "an integer" if integer else "a finite number"
    raise ConfigError(f"{what} must be {kind} in {left}{lo:g}, {hi:g}{right}, got {value!r}")
