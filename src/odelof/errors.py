"""Exception hierarchy.

Everything raised on purpose derives from :class:`OdelofError` so callers
(and the CLI) can distinguish anticipated failures from bugs.
"""

from __future__ import annotations

import numbers

import numpy as np


class OdelofError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(OdelofError, ValueError):
    """Invalid argument: bad shape, non-finite value, out-of-domain input."""


def check_kinds(obj, counts=(), flags=()) -> None:
    """Raise :class:`ArgumentError`, naming the field, for the first
    attribute of ``obj`` in ``counts`` that is not an integer (numpy's
    integers are; a bool is not) or in ``flags`` that is not a bool."""
    for name in counts:
        v = getattr(obj, name)
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ArgumentError(f"{name} must be an integer, got {v!r}")
    for name in flags:
        v = getattr(obj, name)
        if not isinstance(v, (bool, np.bool_)):
            raise ArgumentError(f"{name} must be true or false, got {v!r}")


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
