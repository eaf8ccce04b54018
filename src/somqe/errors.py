"""Exception types shared across the package.

InputError covers everything a caller handed us that cannot be used as given
(malformed files, out-of-range parameters, mismatched series).  It doubles as
a ValueError so library users who never import this module still catch it the
obvious way.  ComputationError marks a computation that ran but failed:
registration, or the t-tail continued fraction, that did not converge, or a
frame worker process that died.
"""

from __future__ import annotations


class SomqeError(Exception):
    """Base class for every error this package raises on purpose."""


class InputError(SomqeError, ValueError):
    """Unusable input: bad file, bad parameter, mismatched data."""


class ComputationError(SomqeError, RuntimeError):
    """A numeric procedure failed to produce a usable result."""


class RegistrationError(ComputationError):
    """Alignment did not converge.

    Carries the best transform found so far and the mean-square residual at
    that transform so a caller can inspect or reuse the partial result.  The
    stack index is attached when the failure happened inside stack
    registration.
    """

    def __init__(self, message: str, *, transform=None, residual=None, index=None):
        super().__init__(message)
        self.transform = transform
        self.residual = residual
        self.index = index
