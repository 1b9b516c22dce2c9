"""Probability/bits conversions and the Distribution container."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bayesbits import Distribution
from bayesbits.core import (
    _info,
    as_probability,
    entropy,
    info_content,
    prob_from_info,
    probability_repr,
)
from bayesbits.errors import DomainError, InvariantViolation
from helpers import probability_types, same_bits

LOG2_3 = 1.584962500721156


class TestAsProbability:
    def test_fraction_passes_through(self):
        assert as_probability(Fraction(1, 3)) == Fraction(1, 3)
        assert isinstance(as_probability(Fraction(1, 3)), Fraction)

    def test_int_becomes_exact(self):
        assert as_probability(1) == Fraction(1)
        assert isinstance(as_probability(0), Fraction)

    def test_float_stays_float(self):
        p = as_probability(0.25)
        assert p == 0.25
        assert not isinstance(p, Fraction)

    def test_rational_string(self):
        assert as_probability("7/12") == Fraction(7, 12)

    def test_bad_string(self):
        with pytest.raises(DomainError):
            as_probability("seven twelfths")

    def test_zero_denominator_string(self):
        with pytest.raises(DomainError):
            as_probability("1/0")

    @pytest.mark.parametrize("bad", [-0.1, 1.1, Fraction(3, 2), Fraction(-1, 2), 2, -1])
    def test_out_of_range(self, bad):
        with pytest.raises(DomainError):
            as_probability(bad)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            as_probability(float("nan"))

    def test_bool_rejected(self):
        with pytest.raises(DomainError):
            as_probability(True)

    def test_other_types_rejected(self):
        with pytest.raises(DomainError):
            as_probability([0.5])


class TestInfoContent:
    def test_certainty_is_zero_bits(self):
        out = info_content(Fraction(1))
        assert out == 0.0
        assert math.copysign(1.0, out) == 1.0

    def test_impossible_is_infinite(self):
        assert info_content(0) == math.inf
        assert info_content(0.0) == math.inf

    def test_halvings(self):
        assert info_content(Fraction(1, 2)) == 1.0
        assert info_content(Fraction(1, 4)) == 2.0
        assert info_content(0.125) == 3.0

    def test_one_third(self):
        assert info_content(Fraction(1, 3)) == pytest.approx(LOG2_3, abs=1e-12)

    def test_seven_twelfths(self):
        assert info_content(Fraction(7, 12)) == pytest.approx(0.7776075786635521, abs=1e-12)

    def test_monotone(self):
        assert info_content(Fraction(1, 8)) > info_content(Fraction(1, 4))

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            info_content(1.5)

    def test_tiny_rational_does_not_underflow(self):
        p = Fraction(1, 2**4000)
        assert info_content(p) == pytest.approx(4000.0, abs=1e-6)

    def test_rational_a_hair_below_one_is_not_certain(self):
        # float() rounds both to 1.0; the exact offset still shows in the bits
        assert info_content(1 - Fraction(1, 2**60)) == pytest.approx(2**-60 / math.log(2), rel=1e-12)
        p = Fraction(2731113904815422123190291, 2731113904815422273486848)
        assert 0.0 < info_content(p) == pytest.approx(float(1 - p) / math.log(2), rel=1e-12)

    def test_never_nan(self):
        assert not math.isnan(info_content(Fraction(1, 7)))


class TestProbFromInfo:
    def test_roundtrip_values(self):
        assert prob_from_info(0.0) == 1.0
        assert prob_from_info(1.0) == 0.5
        assert prob_from_info(3.0) == 0.125

    def test_infinite_bits_is_probability_zero(self):
        assert prob_from_info(math.inf) == 0.0

    def test_negative_bits_rejected(self):
        with pytest.raises(DomainError):
            prob_from_info(-0.5)

    def test_negative_noise_clamps_to_certainty(self):
        # two rounded logs cancelling can leave -1 ulp where 0 is meant
        assert prob_from_info(-2.220446049250313e-16) == 1.0
        assert prob_from_info(-1e-10) == 1.0

    def test_noise_band_is_narrow(self):
        with pytest.raises(DomainError):
            prob_from_info(-1e-6)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            prob_from_info(float("nan"))

    def test_roundtrip_through_info(self):
        for p in (0.5, 0.25, 0.75, 1.0):
            assert prob_from_info(info_content(p)) == pytest.approx(p, abs=1e-15)


class TestProbabilityRepr:
    def test_fraction(self):
        assert probability_repr(Fraction(7, 12)) == "7/12"
        assert probability_repr(Fraction(0)) == "0/1"

    def test_float(self):
        assert probability_repr(0.25) == "0.25"


class TestDistribution:
    def test_exact_sum_must_be_one(self):
        with pytest.raises(InvariantViolation):
            Distribution(("a", "b"), (Fraction(1, 2), Fraction(1, 3)))

    def test_float_sum_within_tolerance(self):
        d = Distribution(("a", "b", "c"), (0.1, 0.2, 0.7 + 1e-12))
        assert probability_types(d) == [float] * 3

    def test_float_sum_beyond_tolerance_rejected_not_renormalized(self):
        with pytest.raises(InvariantViolation):
            Distribution(("a", "b"), (0.5, 0.5001))

    def test_duplicate_labels(self):
        with pytest.raises(InvariantViolation):
            Distribution(("a", "a"), (Fraction(1, 2), Fraction(1, 2)))

    def test_empty(self):
        with pytest.raises(InvariantViolation):
            Distribution((), ())

    def test_length_mismatch(self):
        with pytest.raises(InvariantViolation):
            Distribution(("a", "b"), (Fraction(1),))

    def test_uniform(self):
        d = Distribution.uniform(("x", "y", "z"))
        assert d.probs == (Fraction(1, 3),) * 3
        assert probability_types(d) == [Fraction] * 3

    def test_uniform_over_no_labels(self):
        # the library's own error, as for Distribution((), ()), not ZeroDivisionError
        with pytest.raises(InvariantViolation, match="distribution needs at least one event"):
            Distribution.uniform(())

    def test_string_entries_become_exact(self):
        d = Distribution(("a", "b"), ("1/3", "2/3"))
        assert probability_types(d) == [Fraction, Fraction]

    def test_mixed_exact_and_float_is_inexact(self):
        d = Distribution(("a", "b"), (Fraction(1, 2), 0.5))
        assert probability_types(d) == [Fraction, float]


class TestEntropy:
    def test_uniform_three(self):
        assert entropy(Distribution.uniform(("a", "b", "c"))) == pytest.approx(
            LOG2_3, abs=1e-12
        )

    def test_certain_event_zero_entropy(self):
        d = Distribution(("a", "b"), (Fraction(1), Fraction(0)))
        assert entropy(d) == 0.0

    def test_die_roll_prior(self):
        d = Distribution(("A", "B", "C"), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
        assert entropy(d) == pytest.approx(1.4591479170272448, abs=1e-12)

    def test_bounds(self):
        d = Distribution(("a", "b", "c"), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        assert 0.0 <= entropy(d) <= LOG2_3


@st.composite
def unit_fractions(draw):
    """A Fraction in [0, 1] whose denominator has up to 4000 bits."""
    den = draw(st.integers(1, 2 ** draw(st.integers(1, 4000))))
    return Fraction(draw(st.integers(0, den)), den)


class TestPerCellKernels:
    """The exact kernels' info helper gives the public function's bits."""

    @given(unit_fractions() | st.floats(0.0, 1.0))
    @example(Fraction(1, 3**4000))
    @example(Fraction(3**2000 - 1, 3**2000))
    def test_info_is_info_content(self, p):
        assert same_bits(_info(p), info_content(p))
