"""Property tests: the integer square-class kernel against the PAdic route."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from chatelet.padic import PAdic, rational_square_class_rep

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
PRIMES = st.sampled_from(SMALL_PRIMES)


@st.composite
def rationals(draw):
    """Nonzero rationals whose valuation at each of SMALL_PRIMES varies."""
    q = Fraction(draw(st.integers(-10 ** 12, 10 ** 12).filter(bool)),
                 draw(st.integers(1, 10 ** 9)))
    for p in SMALL_PRIMES:
        q *= Fraction(p) ** draw(st.integers(-4, 4))
    return q


class TestKernelProperties:
    @settings(max_examples=200, deadline=None)
    @given(PRIMES, rationals())
    def test_matches_padic_square_class(self, p, q):
        assert rational_square_class_rep(p, q) == \
            PAdic.from_rational(p, q).square_class().rep

    @settings(max_examples=200, deadline=None)
    @given(PRIMES, rationals(), rationals())
    def test_invariant_under_squares(self, p, q, lam):
        assert rational_square_class_rep(p, q * lam * lam) == \
            rational_square_class_rep(p, q)

    @settings(max_examples=200, deadline=None)
    @given(PRIMES, rationals(), rationals())
    def test_multiplicative(self, p, a, b):
        product = rational_square_class_rep(p, a) * rational_square_class_rep(p, b)
        assert rational_square_class_rep(p, a * b) == \
            rational_square_class_rep(p, product)
