"""Exception hierarchy.

Everything raised on purpose derives from :class:`OdelofError` so callers
(and the CLI) can distinguish anticipated failures from bugs.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


class OdelofError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(OdelofError, ValueError):
    """Invalid argument: bad shape, non-finite value, out-of-domain input."""


def is_count(v) -> bool:
    """Whether ``v`` is an integer: numpy's integers are, a bool is not."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v) -> bool:
    """Whether ``v`` is a real number: numpy's floats and integers are, a
    bool is not."""
    return isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))


def is_finite_real(v) -> bool:
    """Whether ``v`` is a real number (as for :func:`is_real`) that converts
    to a finite float: an integer too large for a float is not."""
    try:
        return is_real(v) and math.isfinite(v)
    except OverflowError:
        return False


def is_flag(v) -> bool:
    """Whether ``v`` is a bool, numpy's included."""
    return isinstance(v, (bool, np.bool_))


def check_kinds(obj, counts=(), reals=(), flags=()) -> None:
    """Raise :class:`ArgumentError`, naming the field, for the first
    attribute of ``obj`` in ``counts`` that is not an integer, in ``reals``
    that is not a real number or in ``flags`` that is not a bool."""
    for names, is_kind, what in (
        (counts, is_count, "an integer"),
        (reals, is_real, "a number"),
        (flags, is_flag, "true or false"),
    ):
        for name in names:
            v = getattr(obj, name)
            if not is_kind(v):
                raise ArgumentError(f"{name} must be {what}, got {v!r}")


class RankError(OdelofError):
    """A linear system is singular or numerically rank deficient."""


class ConvergenceError(OdelofError):
    """An iterative solver failed to reach its tolerance."""


class BlowupError(OdelofError):
    """A trajectory left the guarded region during integration.

    Attributes
    ----------
    time : float
        First grid or substep time at which the state was non-finite or
        exceeded the guard threshold.
    """

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = float(time)

    def __reduce__(self):
        # a study's worker returns it to the calling process by pickle
        return type(self), (str(self), self.time)


class DegenerateDesignError(OdelofError):
    """A smoother design collapsed (constant predictor, too few points)."""


class PipelineError(OdelofError):
    """A fit pipeline stage failed; carries the stage name."""

    def __init__(self, message: str, stage: str = ""):
        super().__init__(message)
        self.stage = stage


class ConfigError(OdelofError):
    """Experiment configuration is invalid; message points at the key."""


class TestAbortedError(OdelofError):
    """Too many bootstrap replicates failed for the test to be trusted.

    Attributes
    ----------
    n_failed, n_total : int
        Failed and attempted replicate counts at abort time.
    messages : list[str]
        One representative message per failed replicate.
    """

    __test__ = False  # keep pytest from collecting the Test* name

    def __init__(self, message: str, n_failed: int, n_total: int, messages=None):
        super().__init__(message)
        self.n_failed = int(n_failed)
        self.n_total = int(n_total)
        self.messages = list(messages or [])
