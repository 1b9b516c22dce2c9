"""Arithmetic between probabilities and information contents.

A probability is either an exact rational (``fractions.Fraction``) or a
binary64 float. Exact values survive sums and products unchanged, which
keeps hand-authored fixtures like 7/12 exact all the way to the single
log that converts them to bits. Information contents are always floats:
logarithms of rationals are irrational, so nothing is gained by wrapping
them.

Conventions, fixed once for the whole package:

* all information quantities are base-2 (bits); there is no nats mode
* probability 0 maps to ``+inf`` bits and back, never to an error, so
  refuted hypotheses flow through updates and land at posterior 0
* bits values are never NaN
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DomainError, InvariantViolation, UnknownLabelError
from .record import Record

__all__ = [
    "Bits",
    "Distribution",
    "Probability",
    "FLOAT_SUM_TOL",
    "NEG_BITS_NOISE_TOL",
    "as_probability",
    "entropy",
    "info_content",
    "is_exact",
    "parse_probability",
    "prob_from_info",
    "probability_repr",
]

# Exact rationals keep fixture arithmetic exact; floats cover everything else.
Probability = Union[Fraction, float]

# Bits values are plain binary64 floats (possibly +/-inf, never NaN).
Bits = float

# Float-form distributions must sum to 1 within this; worse sums are
# rejected rather than renormalized, so authoring errors surface.
FLOAT_SUM_TOL = 1e-9


def parse_probability(text: str) -> Fraction:
    """The exact rational a probability string names.

    The one grammar of probability strings, in scenario files and on the
    command line: ``"num/den"`` or a decimal such as ``"0.25"``, each
    part a run of ASCII digits, with whitespace allowed around the parts. Both
    forms parse to an exact ``Fraction``. Signs, exponents, underscores
    and a bare ``".25"`` are refused, and so is a number with more
    digits than CPython converts. :func:`as_probability` checks the range.
    """
    num, slash, den = text.partition("/")
    if slash:
        num, den = num.strip(), den.strip()
        valid = num.isdecimal() and den.isdecimal()
    else:
        whole, point, decimals = text.strip().partition(".")
        num, den = whole + decimals, "1" + "0" * len(decimals)
        valid = whole.isdecimal() and (decimals.isdecimal() or not point)
    if not (valid and (num + den).isascii()):
        raise DomainError(
            f"cannot parse probability from {text!r}: expected 'num/den' or a decimal"
        )
    try:
        num, den = int(num), int(den)
    except ValueError as exc:  # more digits than CPython converts to int
        raise DomainError(f"probability string too long: {exc}") from None
    if den == 0:
        raise DomainError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def as_probability(value: Probability | int | str) -> Probability:
    """Validate and normalize one probability value.

    Accepts a Fraction, an int (exact), a float, or a string in the
    grammar of :func:`parse_probability` (exact). Rejects values outside
    [0, 1] and non-finite floats.
    """
    if type(value) is not Fraction:  # a Fraction, the common case, needs no conversion
        if isinstance(value, str):
            value = parse_probability(value)
        elif isinstance(value, bool):
            raise DomainError(f"probability must be numeric, got {value!r}")
        elif isinstance(value, int):
            value = Fraction(value)
        elif isinstance(value, float):
            if math.isnan(value) or not 0.0 <= value <= 1.0:
                raise DomainError(f"probability {value!r} outside [0, 1]")
            return value
        elif not isinstance(value, Fraction):
            raise DomainError(
                f"probability must be Fraction, int, or float, got {type(value).__name__}"
            )
    # a Fraction's denominator is positive, so this is 0 <= value <= 1
    if not 0 <= value.numerator <= value.denominator:
        raise DomainError(f"probability {value} outside [0, 1]")
    return value


def _common_denominator(ps: Sequence[Probability]) -> tuple[list[int], int] | None:
    """Numerators of ``ps`` over their least common denominator.

    None unless every value is a Fraction. Exact kernels sum and compare
    these integers and build one Fraction per result, instead of going
    through Fraction arithmetic for every ``+`` and ``*``.
    """
    if not all(isinstance(p, Fraction) for p in ps):
        return None
    den = math.lcm(*[p.denominator for p in ps])
    return [p.numerator * (den // p.denominator) for p in ps], den


def _sum_unless_one(ps: Sequence[Probability]) -> str | None:
    """The sum of ``ps`` as text when it is not 1, else None.

    All-Fraction values must sum to exactly 1, checked on their integer
    numerators over one common denominator; values with any float must
    sum to 1 within :data:`FLOAT_SUM_TOL`.
    """
    scaled = _common_denominator(ps)
    if scaled is not None:
        nums, den = scaled
        total = sum(nums)
        return None if total == den else probability_repr(Fraction(total, den))
    total = float(sum(ps))
    return None if abs(total - 1.0) <= FLOAT_SUM_TOL else repr(total)


def is_exact(p: Probability) -> bool:
    """True when ``p`` is held as an exact rational."""
    return isinstance(p, Fraction)


def probability_repr(p: Probability) -> str:
    """Stable text form: ``"num/den"`` for exact values, repr for floats.

    A numerator or denominator with more digits than CPython prints
    (4300 by default) raises :class:`DomainError`.
    """
    if isinstance(p, Fraction):
        try:
            return f"{p.numerator}/{p.denominator}"
        except ValueError as exc:
            raise DomainError(
                f"exact value has over {sys.get_int_max_str_digits()} digits, too long to print"
            ) from exc
    return repr(p)


def _float(p: Probability) -> float:
    """``float(p)``, bit for bit.

    For a Fraction this is the int true division that
    ``numbers.Rational.__float__`` runs, without its call overhead: the
    exact kernels take one float per cell. Raises OverflowError like
    ``float(p)`` when the value exceeds the float range.
    """
    if isinstance(p, Fraction):
        return p.numerator / p.denominator
    return p


def _log2_positive(p: Probability) -> float:
    """log2 of a rational or float known to be > 0.

    For rationals whose float image would underflow to 0 or overflow
    (a ratio such as posterior / prior can exceed the float range), fall
    back to integer logs so adversarial denominators still give a finite
    answer.
    """
    if isinstance(p, Fraction):
        try:
            x = _float(p)
        except OverflowError:
            x = 0.0
        if x == 1.0:  # any rational within 2**-53 of 1: log1p keeps its offset
            return math.log1p((p.numerator - p.denominator) / p.denominator) / math.log(2)
        if x > 0.0:
            return math.log2(x)
        return math.log2(p.numerator) - math.log2(p.denominator)
    return math.log2(p)


def info_content(p: Probability | int | str) -> Bits:
    """Information content (self-information) of one event, in bits.

    Returns ``-log2(p)``: 0 bits for certainty, ``+inf`` for an
    impossible event. Rejects values outside [0, 1].
    """
    return _info(as_probability(p))


def _info(p: Probability) -> Bits:
    """:func:`info_content` of a value :func:`as_probability` already accepted."""
    if p == 0:
        return math.inf
    lg = _log2_positive(p)
    return 0.0 if lg == 0.0 else -lg


# Bit-space subtraction of two independently rounded logs can land a
# hair below 0 when the true value is 0 (posterior probability 1); such
# dips are noise, not negative surprisals, and map to probability 1.
NEG_BITS_NOISE_TOL = 1e-9


def prob_from_info(bits: Bits) -> float:
    """Probability of the event whose information content is ``bits``.

    Inverse of :func:`info_content`: returns ``2**-bits``. Requires
    ``bits >= 0`` (a surprisal cannot be negative) except for float
    noise within :data:`NEG_BITS_NOISE_TOL` of 0, which clamps to
    probability 1; ``+inf`` maps to 0.
    """
    if math.isnan(bits):
        raise DomainError("bits value must not be NaN")
    if bits < 0:
        if bits >= -NEG_BITS_NOISE_TOL:
            return 1.0
        raise DomainError(f"information content must be >= 0, got {bits}")
    if math.isinf(bits):
        return 0.0
    return 2.0 ** (-bits)


class Distribution(Record):
    """A finite distribution over labeled events.

    Labels are unique and ordered; probabilities line up with them. A
    distribution made of exact rationals must sum to exactly 1; one with
    any float entries must sum to 1 within :data:`FLOAT_SUM_TOL`.
    """

    __slots__ = _fields = ("labels", "probs")
    labels: tuple[str, ...]
    probs: tuple[Probability, ...]

    def __init__(
        self,
        labels: Sequence[str],
        probs: Iterable[Probability | int | str],
    ) -> None:
        self._set(labels=tuple(labels), probs=tuple([as_probability(p) for p in probs]))
        self._check()

    def _check(self) -> None:
        if len(self.labels) == 0:
            raise InvariantViolation("distribution needs at least one event")
        if len(self.labels) != len(self.probs):
            raise InvariantViolation(
                f"{len(self.labels)} labels but {len(self.probs)} probabilities"
            )
        if len(set(self.labels)) != len(self.labels):
            raise InvariantViolation(f"duplicate labels in {self.labels}")
        total = _sum_unless_one(self.probs)
        if total is not None:
            raise InvariantViolation(f"probabilities sum to {total}, expected 1")

    @property
    def is_exact(self) -> bool:
        """True when every probability is an exact rational."""
        return all(isinstance(p, Fraction) for p in self.probs)

    def __len__(self) -> int:
        return len(self.labels)

    def prob_of(self, label: str) -> Probability:
        try:
            return self.probs[self.labels.index(label)]
        except ValueError:
            raise UnknownLabelError(f"unknown event {label!r}; have {list(self.labels)}") from None

    @classmethod
    def uniform(cls, labels: Sequence[str]) -> "Distribution":
        n = len(labels)
        return cls(labels, [Fraction(1, n)] * n)


def entropy(d: Distribution) -> Bits:
    """Average information content of a distribution, in bits.

    Sum of ``p * info_content(p)`` over the events, with the usual
    convention that zero-probability events contribute nothing. Bounded
    by 0 and log2(n).
    """
    return _entropy(d.probs)


def _entropy(probs: Iterable[Probability]) -> Bits:
    """:func:`entropy` of probabilities already validated as a distribution."""
    total = 0.0
    for p in probs:
        if p == 0:
            continue
        total += _float(p) * _info(p)
    return total
