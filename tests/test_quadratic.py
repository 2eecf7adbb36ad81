"""Quadratic extensions of Q_p: ramification, norms, uniformisers, lambda maps."""

import time
from fractions import Fraction

import pytest

from chatelet.hilbert import hilbert
from chatelet.padic import (
    frac_val_unit,
    is_prime,
    rational_square_class_rep,
    square_class_reps,
)
from chatelet.quadratic import build_extension, lambda_base, lambda_ext


def brute_is_norm(ext, x, box=9):
    """Independent oracle: scan a rational box for a + b*sqrt(d) of norm x

    (up to squares).  Finding any element whose norm lands in the square
    class of x certifies membership, since norms form a group containing
    the squares."""
    target = rational_square_class_rep(ext.p, x)
    grid = [Fraction(n, m) for n in range(-box, box + 1)
            for m in (1, 2, 3, 4) if not (n == 0 and m > 1)]
    for a in grid:
        for b in grid:
            nm = a * a - ext.d * b * b
            if nm and rational_square_class_rep(ext.p, nm) == target:
                return True
    return False


class TestRamification:
    def test_sqrt5_over_q5_is_ramified(self):
        assert build_extension(5, 5).ramified

    def test_sqrt5_over_q2_is_unramified(self):
        assert not build_extension(2, 5).ramified

    def test_sqrt_minus1_over_q2_is_ramified(self):
        assert build_extension(2, -1).ramified

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_odd_p_ramified_iff_odd_valuation(self, p):
        for rep in square_class_reps(p):
            if rep == 1:
                continue
            ext = build_extension(p, rep)
            assert ext.ramified == (rep % p == 0)

    def test_square_d_rejected(self):
        with pytest.raises(ValueError):
            build_extension(5, 4)


class TestNorms:
    def test_norm_of_sqrt_d(self):
        ext = build_extension(2, -1)
        assert ext.element(0, 1).norm() == 1

    def test_norm_of_one_plus_i_is_2(self):
        ext = build_extension(2, -1)
        assert ext.element(1, 1).norm() == 2

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_norm_is_multiplicative(self, p):
        ext = build_extension(p, 2)  # 2 is a nonsquare in Q_2, Q_3 and Q_5
        pairs = [(1, 1), (2, -3), (Fraction(1, 2), 5), (-4, Fraction(2, 3))]
        for a1, b1 in pairs:
            for a2, b2 in pairs:
                x = ext.element(a1, b1)
                y = ext.element(a2, b2)
                assert (x * y).norm() == x.norm() * y.norm()

    def test_minus_one_is_norm_from_q2_sqrt2(self):
        # explicit witness: N(1 + sqrt 2) = 1 - 2 = -1
        ext = build_extension(2, 2)
        assert ext.element(1, 1).norm() == -1
        assert ext.is_norm(-1)

    def test_3_is_not_norm_from_q2_i(self):
        # N(a + bi) = a^2 + b^2, and a sum of two squares with odd unit
        # part is 1 mod 4; the unit 3 is not
        ext = build_extension(2, -1)
        assert not ext.is_norm(3)
        assert not brute_is_norm(ext, 3)

    def test_norm_class_subgroup_for_gaussian_q2(self):
        ext = build_extension(2, -1)
        assert ext.norm_reps == {1, 2, 5, 10}

    def test_norm_class_subgroup_for_unramified_q2(self):
        ext = build_extension(2, 5)
        assert ext.norm_reps == {1, -1, 5, -5}

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_norm_subgroup_has_index_two(self, p):
        total = len(square_class_reps(p))
        for rep in square_class_reps(p):
            if rep == 1:
                continue
            ext = build_extension(p, rep)
            assert len(ext.norm_reps) * 2 == total

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_three_norm_routes_agree(self, p):
        for rep in square_class_reps(p):
            if rep == 1:
                continue
            ext = build_extension(p, rep)
            for x_rep in square_class_reps(p):
                a = ext.is_norm(x_rep)
                b = hilbert(p, x_rep, rep) == 1
                c = brute_is_norm(ext, x_rep)
                assert a == b == c, (p, rep, x_rep)

    def test_norm_subgroup_lemma(self):
        # the three norms 1 = N(1), -d = N(sqrt(d)) and 1 - d = N(1 + sqrt(d))
        # already span N(L^*) at every odd p, which is why the norm grid needs
        # no closure under multiplication (quadratic._norm_class_subgroup)
        start = time.monotonic()
        cases = 0
        for p in filter(is_prime, range(3, 5000)):
            for d in square_class_reps(p)[1:]:
                lemma = {1, rational_square_class_rep(p, -d),
                         rational_square_class_rep(p, 1 - d)}
                assert lemma == build_extension(p, d).norm_reps, (p, d)
                cases += 1
        assert cases == 2004
        assert time.monotonic() - start < 2.0


class TestValuationCriteria:
    """The valuation criteria are the Hilbert-symbol route (hilbert_odd)."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_unramified_norm_iff_even_valuation(self, p):
        for rep in square_class_reps(p):
            if rep == 1:
                continue
            ext = build_extension(p, rep)
            if ext.ramified:
                continue
            for x_rep in square_class_reps(p):
                for k in range(4):
                    x = Fraction(x_rep) * p ** k
                    expect = hilbert(p, x, rep) == 1
                    assert expect == (frac_val_unit(p, x)[0] % 2 == 0)
                    assert ext.is_norm(x) == expect

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_ramified_odd_p_criterion(self, p):
        for rep in square_class_reps(p):
            if rep % p != 0:
                continue
            ext = build_extension(p, rep)
            assert ext.ramified
            for x_rep in square_class_reps(p):
                expect = hilbert(p, x_rep, rep) == 1
                assert ext.is_norm(x_rep) == expect


class TestRamifiedBreakS:
    TABLE = {-1: 1, -5: 1, 2: 2, -2: 2, 10: 2, -10: 2}

    def test_table(self):
        for d_rep, s in self.TABLE.items():
            assert build_extension(2, d_rep).s == s, d_rep

    def test_last_nonnorm_layer(self):
        # units at filtration level exactly s are never norms;
        # every unit at level >= s+1 is a norm
        for d_rep, s in self.TABLE.items():
            ext = build_extension(2, d_rep)
            modulus = 2 ** (s + 2)
            for t in range(1, modulus, 2):
                gamma = 1 + t * 2 ** s
                assert not ext.is_norm(gamma), (d_rep, gamma)
            for t in range(modulus):
                gamma = 1 + t * 2 ** (s + 1)
                assert ext.is_norm(gamma), (d_rep, gamma)

    def test_uniformiser_norm_has_valuation_one(self):
        # every ramified class of every prime below 100: pi_L = sqrt(d) when
        # v(d) = 1, and pi_L = 1 + sqrt(d) for the ramified 2-adic units
        for p in filter(is_prime, range(2, 100)):
            exts = [build_extension(p, d) for d in square_class_reps(p)[1:]]
            ramified = [ext for ext in exts if ext.ramified]
            if p == 2:
                assert {ext.d for ext in ramified} == set(self.TABLE)
            for ext in ramified:
                unit = frac_val_unit(p, ext.d)[0] == 0
                assert (ext.pi_L.a, ext.pi_L.b) == ((1, 1) if unit else (0, 1)), \
                    (p, ext.d)
                assert frac_val_unit(p, ext.pi_L.norm())[0] == 1


class TestLambdaMaps:
    def test_level_one_indicator(self):
        ext = build_extension(2, -1)
        assert lambda_base(ext, 1, 3) == 1
        assert lambda_base(ext, 1, 5) == 0

    def test_level_two_indicator(self):
        ext = build_extension(2, -1)
        assert lambda_base(ext, 2, 5) == 1
        assert lambda_base(ext, 2, 9) == 0
        # 3 lies outside U_2, so lambda_2 is undefined there
        with pytest.raises(ValueError):
            lambda_base(ext, 2, 3)

    def test_units_at_full_depth_vanish(self):
        ext = build_extension(2, -1)
        assert lambda_base(ext, 1, 1) == 0
        assert lambda_base(ext, 2, 1) == 0
        assert lambda_ext(ext, 1, ext.element(1, 0)) == 0

    def test_lambda_on_extension_elements(self):
        ext = build_extension(2, -1)
        # 1 - (1 + pi_L) = -pi_L has valuation 1 in L
        x = ext.pi_L + 1
        assert lambda_ext(ext, 1, x) == 1
        # the square of x sits one level deeper
        assert lambda_ext(ext, 1, x * x) == 0

    def test_lambda_additive_below_break(self):
        # on U_i/U_{i+1} with i < s the indicator is a homomorphism
        for d_rep in (2, -2, 10, -10):
            ext = build_extension(2, d_rep)
            for t1 in range(0, 8):
                for t2 in range(0, 8):
                    u, v = 1 + 2 * t1, 1 + 2 * t2
                    lhs = lambda_base(ext, 1, u * v)
                    rhs = (lambda_base(ext, 1, u)
                           + lambda_base(ext, 1, v)) % 2
                    assert lhs == rhs
