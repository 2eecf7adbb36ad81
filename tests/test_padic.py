"""Square classes, squareness, epsilon/omega, the unit filtration and primality."""

import dataclasses
import signal
import time
from fractions import Fraction

import pytest

from chatelet.chi import chi, find_witness, in_M, sample_M
from chatelet.hilbert import hilbert, hilbert_oracle
from chatelet.padic import (
    MR_LIMIT,
    SquareClass,
    epsilon,
    frac_val_unit,
    int_valuation,
    is_prime,
    omega,
    rational_is_square,
    rational_square_class_rep,
    smallest_nonresidue,
    square_class_reps,
)
from chatelet.quadratic import build_extension, lambda_base
from chatelet.surface import classify_cubic, classify_pair, count_roots_cubic, normalize_pair


def brute_is_square_unit(p, u, k):
    """Independent oracle: does y^2 = u mod p^k have a solution?

    With k past the Hensel threshold (1 for odd p, 3 for p=2) a residue
    solution lifts to an exact square root of the unit.
    """
    m = p ** k
    return any(y * y % m == u % m for y in range(m))


def test_integer_arithmetic_embeds():
    # integers are exact: the class of 3 * 5 is the product of the classes
    assert frac_val_unit(2, 3 * 5) == (0, 15)
    assert SquareClass.of(2, 3) * SquareClass.of(2, 5) == SquareClass.of(2, 15)


def test_valuation_and_unit_of_12():
    assert frac_val_unit(2, 12) == (2, 3)


def test_division_identity():
    fifth = Fraction(1, 5)
    assert fifth * 5 == 1
    assert frac_val_unit(5, fifth) == (-1, 1)
    assert (SquareClass.of(5, fifth) * SquareClass.of(5, 5)).is_trivial


def test_product_valuation_is_sum():
    x, y = 18, Fraction(2, 27)
    assert frac_val_unit(3, x * y)[0] == \
        frac_val_unit(3, x)[0] + frac_val_unit(3, y)[0]


def test_full_cancellation_raises():
    # 10 - 10 is exactly zero, which has no valuation or square class
    x = Fraction(10)
    with pytest.raises(ValueError):
        frac_val_unit(7, x - 10)
    with pytest.raises(ValueError):
        SquareClass.of(7, x - 10)


def test_division_by_zero():
    ext = build_extension(5, 2)
    with pytest.raises(ZeroDivisionError):
        ext.element(3, 0) / ext.element(0, 0)


def test_zero_is_tagged_and_rejected_by_class_ops():
    z = build_extension(2, -1).element(0, 0)
    assert z.is_zero
    with pytest.raises(ZeroDivisionError):
        z.valuation()
    for op in (frac_val_unit, rational_square_class_rep, rational_is_square,
               SquareClass.of):
        with pytest.raises(ValueError):
            op(2, 0)


def _alarm(signum, frame):
    raise TimeoutError("still running after 2 s")


@pytest.mark.parametrize("call", [
    lambda: hilbert(1, 2, 3),
    lambda: build_extension(1, 2),
    lambda: frac_val_unit(1, 6),
    lambda: int_valuation(-1, 6),
    lambda: int_valuation(0, 6),
    lambda: in_M(1, 1, 2, 3),
    lambda: sample_M(1, 2, 3),
], ids=["hilbert", "build_extension", "frac_val_unit", "int_valuation",
        "int_valuation_zero", "in_M", "sample_M"])
def test_p_below_two_refused(call):
    # n % p is 0 for every n when p = 1 or -1, so stripping p never ended;
    # the alarm turns such a hang into a failure
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        with pytest.raises(ValueError, match="not prime"):
            call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("p", [4, 9, 15, 21])
@pytest.mark.parametrize("call", [
    lambda p: rational_square_class_rep(p, 5),
    square_class_reps,
    lambda p: hilbert(p, 5, 3),
    lambda p: hilbert_oracle(p, 2, 3),
    lambda p: build_extension(p, 2),
    lambda p: in_M(p, 1, 2, 3),
    lambda p: sample_M(p, 2, 3),
    lambda p: find_witness(p, 2, 3),
    lambda p: chi(p, 0, 2, 3),
    lambda p: normalize_pair(p, 2, 3),
    lambda p: classify_pair(p, 2, 3),
    lambda p: classify_cubic(p, 2, 0, -3, 0),
    lambda p: count_roots_cubic(p, 0, -3, 0),
], ids=["rational_square_class_rep", "square_class_reps", "hilbert",
        "hilbert_oracle", "build_extension", "in_M", "sample_M",
        "find_witness", "chi", "normalize_pair", "classify_pair",
        "classify_cubic", "count_roots_cubic"])
def test_composite_p_refused(call, p):
    # a composite p has no square-class group to answer in; every entry
    # point refuses it rather than reading a Legendre symbol mod p
    with pytest.raises(ValueError, match="not prime"):
        call(p)


@pytest.mark.parametrize("n", [4, 9, 15, 21, 25])
def test_smallest_nonresidue_refuses_composite(n):
    # Euler's criterion mod a composite n decides nothing; 15 once gave 14
    # and 4 gave 3
    with pytest.raises(ValueError, match="not prime"):
        smallest_nonresidue(n)


def test_mixed_primes_rejected():
    with pytest.raises(ValueError):
        SquareClass(2, -5) * SquareClass(3, 2)
    with pytest.raises(ValueError):
        SquareClass.of(3, SquareClass(2, 5))


class TestIsSquare:
    def test_17_is_square_in_q2(self):
        # independent route: a residue root of y^2 = 17 mod 8 Hensel-lifts
        assert brute_is_square_unit(2, 17, 3)
        assert rational_is_square(2, 17)

    def test_2_is_not_square_in_q2(self):
        assert not rational_is_square(2, 2)

    def test_4_is_square_in_q5(self):
        assert rational_is_square(5, 4)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_matches_brute_force_on_units(self, p):
        k = 3 if p == 2 else 1
        for u in range(1, min(p ** k, 50) + (p ** k if p == 2 else 0)):
            if u % p == 0:
                continue
            expect = brute_is_square_unit(p, u, k)
            assert rational_is_square(p, u) == expect


class TestSquareClass:
    def test_12_is_class_minus5_in_q2(self):
        assert rational_square_class_rep(2, 12) == -5
        # certificate: 12 / (-5) is a square
        assert rational_is_square(2, Fraction(12, -5))

    def test_9_is_trivial(self):
        assert rational_square_class_rep(2, 9) == 1

    def test_5_in_q3_is_the_nonresidue(self):
        assert smallest_nonresidue(3) == 2
        assert rational_square_class_rep(3, 5) == 2
        assert rational_is_square(3, Fraction(5, 2))

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
        # certificate: even valuation and a residue root of the unit part
        for p in (2, 5):
            k = 3 if p == 2 else 1
            for n in range(1, 40):
                v, u = frac_val_unit(p, n)
                expect = v % 2 == 0 and brute_is_square_unit(p, int(u), k)
                assert rational_is_square(p, n) == expect
                assert (rational_square_class_rep(p, n) == 1) == expect

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
        # a unit of Z_2 given as an exact rational
        assert epsilon(Fraction(-1)) == 1
        assert epsilon(Fraction(-1, 9)) == 1

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rational_units_read_mod8(self, sign):
        # n/d = n * d^-1 mod 8 for odd n and d
        for n in range(1, 64, 2):
            for d in range(1, 64, 2):
                z8 = pow(d, -1, 8) * sign * n % 8
                assert epsilon(Fraction(sign * n, d)) == (z8 - 1) // 2 % 2
                assert omega(Fraction(sign * n, d)) == (z8 * z8 - 1) // 8 % 2

    def test_rational_unit_examples(self):
        assert omega(Fraction(9, 5)) == 1  # 9 * 5^-1 = 5 mod 8
        assert epsilon(Fraction(7, 3)) == 0  # 7 * 3^-1 = 5 mod 8

    def test_rejects_rational_non_unit(self):
        for z in (Fraction(7, 2), Fraction(2, 3), Fraction(0)):
            with pytest.raises(ValueError):
                epsilon(z)
            with pytest.raises(ValueError):
                omega(z)


class TestFiltration:
    """The level of a unit x is v(1 - x); lambda_i reads whether it is i."""

    EXT = build_extension(2, -1)

    def check_level(self, x, level):
        assert frac_val_unit(2, 1 - x)[0] == level
        assert lambda_base(self.EXT, level, x) == 1
        assert lambda_base(self.EXT, level - 1, x) == 0
        with pytest.raises(ValueError):
            lambda_base(self.EXT, level + 1, x)

    def test_level_of_9_is_3(self):
        self.check_level(9, 3)

    def test_level_of_3_is_1(self):
        self.check_level(3, 1)

    def test_level_of_5_is_2(self):
        # one level below the square units U_3 = 1 + 8 Z_2
        self.check_level(5, 2)

    def test_one_lies_in_every_level(self):
        for i in (1, 3, 24, 64, 200):
            assert lambda_base(self.EXT, i, 1) == 0

    @pytest.mark.parametrize("i", [24, 30])
    def test_deep_levels_are_exact(self, i):
        # theta = 1 is a unit, however deep the level
        assert lambda_base(self.EXT, i, 1 + 2 ** i) == 1
        assert lambda_base(self.EXT, i, 1 + 2 ** (i + 1)) == 0

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            lambda_base(self.EXT, 1, 6)


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
    x = SquareClass.of(3, Fraction(7, 9))
    d = dataclasses.asdict(x)
    assert SquareClass(d["p"], d["rep"]) == x


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
