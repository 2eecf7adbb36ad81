"""Core p-adic arithmetic, squareness, square classes, and the unit filtration."""

import time
from fractions import Fraction

import pytest

from chatelet.padic import (
    MR_LIMIT,
    FiltrationCapReached,
    PAdic,
    PrecisionError,
    SquareClass,
    epsilon,
    is_prime,
    omega,
    rational_square_class_rep,
    smallest_nonresidue,
    square_class_reps,
)


def brute_is_square_unit(p, u, k):
    """Independent oracle: does y^2 = u mod p^k have a solution?

    With k past the Hensel threshold (1 for odd p, 3 for p=2) a residue
    solution lifts to an exact square root of the unit.
    """
    m = p ** k
    return any(y * y % m == u % m for y in range(m))


def test_integer_arithmetic_embeds():
    a = PAdic.from_rational(2, 3)
    b = PAdic.from_rational(2, 5)
    assert (a * b) == 15
    assert (a * b).valuation == 0


def test_valuation_and_unit_of_12():
    x = PAdic.from_rational(2, 12)
    assert x.valuation == 2
    assert x.unit % 8 == 3


def test_division_identity():
    fifth = PAdic.from_rational(5, Fraction(1, 5))
    assert (fifth * 5) == 1


def test_product_valuation_is_sum():
    x = PAdic.from_rational(3, 18)
    y = PAdic.from_rational(3, Fraction(2, 27))
    assert (x * y).valuation == x.valuation + y.valuation


def test_full_cancellation_raises():
    x = PAdic.from_rational(7, 10)
    with pytest.raises(PrecisionError):
        x - 10


def test_division_by_zero():
    x = PAdic.from_rational(5, 3)
    with pytest.raises(ZeroDivisionError):
        x / PAdic.zero(5)


def test_zero_is_tagged_and_rejected_by_class_ops():
    z = PAdic.zero(2)
    assert z.is_zero
    with pytest.raises(ZeroDivisionError):
        z.square_class()
    with pytest.raises(ZeroDivisionError):
        z.is_square()


def test_mixed_primes_rejected():
    with pytest.raises(ValueError):
        PAdic.from_rational(2, 3) * PAdic.from_rational(3, 2)


class TestIsSquare:
    def test_17_is_square_in_q2(self):
        # independent route: a residue root of y^2 = 17 mod 8 Hensel-lifts
        assert brute_is_square_unit(2, 17, 3)
        assert PAdic.from_rational(2, 17).is_square()

    def test_2_is_not_square_in_q2(self):
        assert not PAdic.from_rational(2, 2).is_square()

    def test_4_is_square_in_q5(self):
        assert PAdic.from_rational(5, 4).is_square()

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_matches_brute_force_on_units(self, p):
        k = 3 if p == 2 else 1
        for u in range(1, min(p ** k, 50) + (p ** k if p == 2 else 0)):
            if u % p == 0:
                continue
            expect = brute_is_square_unit(p, u, k)
            assert PAdic.from_rational(p, u).is_square() == expect


class TestSquareClass:
    def test_12_is_class_minus5_in_q2(self):
        cls = PAdic.from_rational(2, 12).square_class()
        assert cls.rep == -5
        # certificate: 12 / (-5) is a square
        assert PAdic.from_rational(2, Fraction(12, -5)).is_square()

    def test_9_is_trivial(self):
        assert PAdic.from_rational(2, 9).square_class().rep == 1

    def test_5_in_q3_is_the_nonresidue(self):
        assert smallest_nonresidue(3) == 2
        assert PAdic.from_rational(3, 5).square_class().rep == 2
        assert PAdic.from_rational(3, Fraction(5, 2)).is_square()

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_every_value_maps_to_exactly_one_rep(self, p):
        reps = square_class_reps(p)
        for n in list(range(-30, 31)) + [Fraction(n, 7) for n in range(1, 20)]:
            if n == 0:
                continue
            r = rational_square_class_rep(p, n)
            assert r in reps
            # x / rep is a square, and no other rep divides to a square
            matches = [t for t in reps
                       if rational_square_class_rep(p, Fraction(n) / t) == 1]
            assert matches == [r]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_invariant_under_multiplication_by_squares(self, p):
        for x in (3, 7, Fraction(5, 4), -6):
            base = rational_square_class_rep(p, x)
            for y in (2, 3, Fraction(1, 5), 12):
                assert rational_square_class_rep(p, x * y * y) == base

    def test_is_square_iff_trivial_class(self):
        for p in (2, 5):
            for n in range(1, 40):
                x = PAdic.from_rational(p, n)
                assert x.is_square() == (x.square_class().rep == 1)

    def test_class_group_multiplication(self):
        a = SquareClass(2, -5)
        b = SquareClass(2, 2)
        assert (a * b).rep == -10


class TestEpsilonOmega:
    def test_identity(self):
        assert epsilon(1) == 0
        assert omega(1) == 0

    def test_epsilon_3(self):
        assert epsilon(3) == 1

    def test_omega_7(self):
        assert omega(7) == (49 - 1) // 8 % 2 == 0

    def test_homomorphisms_exhaustive_mod8(self):
        odd = [1, 3, 5, 7]
        for u in odd:
            for v in odd:
                assert epsilon(u * v) == (epsilon(u) + epsilon(v)) % 2
                assert omega(u * v) == (omega(u) + omega(v)) % 2

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            epsilon(4)

    def test_accepts_padic_unit(self):
        assert epsilon(PAdic.from_rational(2, -1)) == 1


class TestFiltration:
    def test_level_of_9_is_3(self):
        assert PAdic.from_rational(2, 9).filtration_level() == 3

    def test_level_of_3_is_1(self):
        assert PAdic.from_rational(2, 3).filtration_level() == 1

    def test_level_of_5_is_2(self):
        # one level below the square units U_3 = 1 + 8 Z_2
        assert PAdic.from_rational(2, 5).filtration_level() == 2

    def test_cap_is_reported_distinctly(self):
        with pytest.raises(FiltrationCapReached):
            PAdic.from_rational(2, 1).filtration_level()

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            PAdic.from_rational(2, 6).filtration_level()


def test_squaring_bijection_on_filtration_quotients():
    """Squaring maps U_n/U_{n+k} onto U_{n+1}/U_{n+1+k} bijectively (p=2, n>1)."""
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            reps = [1 + t * 2 ** n for t in range(2 ** k)]
            images = set()
            for x in reps:
                sq = x * x
                assert (sq - 1) % 2 ** (n + 1) == 0
                images.add((sq - 1) // 2 ** (n + 1) % 2 ** k)
            assert len(images) == 2 ** k


def test_serialization_roundtrip():
    x = PAdic.from_rational(3, Fraction(7, 9))
    d = x.to_dict()
    y = PAdic(d["p"], d["valuation"], d["unit"], d["precision"])
    assert x == y


class TestIsPrime:
    def test_small_values(self):
        primes = [n for n in range(200)
                  if n > 1 and all(n % f for f in range(2, n))]
        assert [n for n in range(200) if is_prime(n)] == primes

    def test_carmichael_number_is_composite(self):
        start = time.monotonic()
        assert not is_prime(561)
        assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
        assert time.monotonic() - start < 0.5

    def test_nineteen_digit_prime_within_budget(self):
        start = time.monotonic()
        assert is_prime(1000000000000000003)
        assert not is_prime(1000000000000000001)
        assert time.monotonic() - start < 0.5

    def test_refuses_beyond_proven_range(self):
        first_prime_beyond = 3317044064679887385962123
        assert first_prime_beyond > MR_LIMIT
        with pytest.raises(ValueError, match="proven range"):
            is_prime(first_prime_beyond)
