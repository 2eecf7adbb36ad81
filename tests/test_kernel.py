"""Property tests: the integer square-class kernel against independent certificates."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from chatelet.padic import frac_val_unit, rational_square_class_rep, square_class_reps

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


def brute_is_square(p, q):
    """Even valuation and a residue root of y^2 = u mod p^k, with k past the
    Hensel threshold (3 for p = 2, 1 for odd p)."""
    v, u = frac_val_unit(p, q)
    m = p ** (3 if p == 2 else 1)
    unit = u.numerator * pow(u.denominator, -1, m) % m
    return v % 2 == 0 and any(y * y % m == unit for y in range(m))


class TestKernelProperties:
    @settings(max_examples=200, deadline=None)
    @given(PRIMES, rationals())
    def test_matches_padic_square_class(self, p, q):
        # the rep is a canonical class rep and q / rep is a square in Q_p
        rep = rational_square_class_rep(p, q)
        assert rep in square_class_reps(p)
        assert brute_is_square(p, q / rep)

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
