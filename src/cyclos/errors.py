"""Shared exception types and input checks.

Every validation failure raises a subclass of :class:`CyclosError` so the CLI
can map them onto its exit-code contract (1 = validation error, 2 = failed
property check).
"""

import math
import numbers
from contextlib import contextmanager


class CyclosError(ValueError):
    """Base class for all package-specific errors."""


@contextmanager
def malformed(what: str, error: type[CyclosError] = CyclosError):
    """Re-raise a missing key, wrong shape or type, or unparsable number
    inside the block as ``error``; CyclosErrors pass through unchanged."""
    try:
        yield
    except CyclosError:
        raise
    except (LookupError, TypeError, ValueError, ArithmeticError, AttributeError) as exc:
        raise error(f"malformed {what}: {exc!r}") from exc


def is_int(x) -> bool:
    """True for integers, including numpy's, but not for bools."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_finite(x) -> bool:
    """True for finite real numbers, including numpy's, but not for bools."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


class MalformedChainError(CyclosError):
    """A chain references simplices that do not exist in the complex."""


class ClosureError(CyclosError):
    """An operation requiring a closed chain/loop/path received an open one."""


class UnwrapError(CyclosError):
    """Phase samples too sparse to unwrap unambiguously (gap >= pi)."""


class WindowError(CyclosError):
    """Invalid coincidence window."""


class MonotonicityError(CyclosError):
    """Inputs violate a required nesting/ordering (filtrations, deltas)."""


class FiltrationError(CyclosError):
    """A filtration step is malformed or NaN, precedes one of its faces, or repeats a vertex."""


class FeasibilityError(CyclosError):
    """A path intersects an obstacle interior."""


class SamplingError(CyclosError):
    """Numerical residual too large; input sampled too coarsely."""


class CompositionError(CyclosError):
    """Consecutive moves do not share endpoints."""


class PreconditionError(CyclosError):
    """A documented operation precondition does not hold."""


class ConfigError(CyclosError):
    """Inconsistent network/route/accumulator configuration."""


class TableError(CyclosError):
    """A feature descriptor is missing from the model table."""


class NoPeakError(CyclosError):
    """Accumulator contains no votes; argmax undefined."""
