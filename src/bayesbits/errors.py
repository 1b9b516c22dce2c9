"""Exception hierarchy shared across the package.

Every error raised by bayesbits derives from :class:`BayesBitsError`, so
callers can catch the whole family with one clause. Where a stdlib
exception type is the conventional signal (ValueError for bad domains,
KeyError for bad labels) the subclass inherits from it as well.
"""

from __future__ import annotations


class BayesBitsError(Exception):
    """Base class for all bayesbits errors."""


class DomainError(BayesBitsError, ValueError):
    """A scalar argument is outside its mathematical domain.

    Examples: a probability outside [0, 1], a negative surprisal, NaN
    where a bits value is required.
    """


class InvariantViolation(BayesBitsError, ValueError):
    """A structural invariant failed; the message names the invariant.

    Raised when a distribution does not sum to 1, a likelihood column is
    not a distribution, labels collide, or matrix dimensions disagree.
    """


class UnknownLabelError(BayesBitsError, KeyError):
    """A model or observation label is not part of the space."""

    def __str__(self) -> str:
        # KeyError.__str__ repr-quotes the message; keep it plain
        return Exception.__str__(self)


class ImpossibleObservationError(BayesBitsError):
    """The queried observation has zero marginal probability.

    Conditioning on an event that cannot occur is undefined, so every
    posterior-side operation rejects it.
    """


class UndefinedLogError(BayesBitsError):
    """A log-odds quantity is undefined because the prior is zero."""


class ScenarioFormatError(BayesBitsError, ValueError):
    """A scenario file failed to parse; the message carries diagnostics."""
