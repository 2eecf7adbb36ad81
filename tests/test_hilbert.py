"""Hilbert symbols over Q_p: closed formulas against the certified conic oracle."""

import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatelet.hilbert import (
    MAX_ORACLE_MODULUS,
    hilbert,
    hilbert_2,
    hilbert_odd,
    hilbert_oracle,
    symbol_route,
)
from chatelet.padic import (
    frac_val_unit,
    is_prime,
    rational_square_class_rep,
    smallest_nonresidue,
    square_class_reps,
)
from chatelet.quadratic import build_extension

PRIMES = [2, 3, 5, 7, 13]
REFERENCE_PRIMES = (2, 3, 5, 7)  # m <= 343, so the m x m reference stays small


def grid_scan_oracle(p, a, b):
    """The m x m primitive-pair scan that hilbert_oracle replaced, kept as an
    independent reference: some (y, z) with z^2 - b y^2 in the table of a x^2,
    x a unit, or (y, z) primitive and any x."""
    ra, rb = rational_square_class_rep(p, a), rational_square_class_rep(p, b)
    if ra == 1 or rb == 1:
        return 1
    delta = (p == 2) + max(frac_val_unit(p, ra)[0], frac_val_unit(p, rb)[0])
    m = p ** (2 * delta + 1)
    x = np.arange(m, dtype=np.int64)
    ax2 = (ra * x * x) % m
    hit_any = np.zeros(m, dtype=bool)
    hit_any[ax2] = True
    hit_unit = np.zeros(m, dtype=bool)
    hit_unit[ax2[x % p != 0]] = True
    w = (x[None, :] * x[None, :] - rb * x[:, None] * x[:, None]) % m
    if hit_unit[w].any():
        return 1
    yz_primitive = (x[:, None] % p != 0) | (x[None, :] % p != 0)
    return 1 if (hit_any[w] & yz_primitive).any() else -1


class TestKnownValues:
    def test_minus1_minus1_at_2(self):
        # z^2 + x^2 + y^2 = 0 has no nontrivial 2-adic solution
        assert hilbert(2, -1, -1) == -1

    def test_minus1_minus1_at_odd(self):
        assert hilbert(5, -1, -1) == 1
        assert hilbert(3, -1, -1) == 1

    def test_2_minus1_at_2(self):
        # witness 1^2 - 2*1^2 = -1
        assert hilbert(2, 2, -1) == 1

    def test_5_2_at_2(self):
        assert hilbert(2, 5, 2) == -1

    def test_p_nonresidue_at_odd(self):
        assert hilbert(3, 3, 2) == -1
        assert hilbert(7, 7, 3) == -1

    def test_square_argument_is_trivial(self):
        for b in (-1, 2, 5, -10):
            assert hilbert(2, 4, b) == 1
            assert hilbert(5, 9, b) == 1


class TestAlgebraicLaws:
    @pytest.mark.parametrize("p", PRIMES)
    def test_symmetry(self, p):
        reps = square_class_reps(p)
        for a in reps:
            for b in reps:
                assert hilbert(p, a, b) == hilbert(p, b, a)

    @pytest.mark.parametrize("p", PRIMES)
    def test_bilinearity(self, p):
        reps = square_class_reps(p)
        for a1 in reps:
            for a2 in reps:
                for b in reps:
                    assert hilbert(p, a1 * a2, b) == \
                        hilbert(p, a1, b) * hilbert(p, a2, b)

    @pytest.mark.parametrize("p", PRIMES)
    def test_a_with_one_minus_a(self, p):
        for a in [Fraction(n, m) for n in range(-9, 10) for m in (1, 2, 3)]:
            if a == 0 or a == 1:
                continue
            assert hilbert(p, a, 1 - a) == 1

    @pytest.mark.parametrize("p", PRIMES)
    def test_a_with_minus_a(self, p):
        for a in range(-9, 10):
            if a == 0:
                continue
            assert hilbert(p, a, -a) == 1

    @pytest.mark.parametrize("p", PRIMES)
    def test_invariance_under_squares(self, p):
        reps = square_class_reps(p)
        for a in reps:
            for b in reps:
                assert hilbert(p, a * 49, b * Fraction(1, 4)) == \
                    hilbert(p, a, b)


class TestOracleAgreement:
    @pytest.mark.parametrize("p", PRIMES + [q for q in range(17, 62) if is_prime(q)])
    def test_all_class_pairs(self, p):
        reps = square_class_reps(p)
        for a in reps:
            for b in reps:
                assert hilbert(p, a, b) == hilbert_oracle(p, a, b), (p, a, b)

    def test_oracle_on_scaled_inputs(self):
        assert hilbert_oracle(2, 20, -8) == hilbert(2, 20, -8)
        assert hilbert_oracle(3, Fraction(2, 3), 12) == \
            hilbert(3, Fraction(2, 3), 12)


class TestOracleScan:
    @pytest.mark.parametrize("p", REFERENCE_PRIMES)
    def test_matches_grid_scan_on_class_pairs(self, p):
        reps = square_class_reps(p)
        for a in reps:
            for b in reps:
                assert hilbert_oracle(p, a, b) == grid_scan_oracle(p, a, b), (p, a, b)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_grid_scan_on_noncanonical_rationals(self, data):
        p = data.draw(st.sampled_from(REFERENCE_PRIMES))
        qa, qb = (data.draw(st.sampled_from(square_class_reps(p))) for _ in "ab")
        lam = st.fractions().filter(bool)
        a, b = qa * data.draw(lam) ** 2, qb * data.draw(lam) ** 2
        assert hilbert_oracle(p, a, b) == grid_scan_oracle(p, qa, qb)

    @pytest.mark.parametrize("p", [31, 101])
    def test_full_scan_within_budget(self, p):
        # a nonsquare unit against p: the symbol is -1, so both the z = 1
        # and the y = 1 scans run over m = p^3
        u = smallest_nonresidue(p)
        start = time.monotonic()
        assert hilbert_oracle(p, u, p) == hilbert(p, u, p) == -1
        assert time.monotonic() - start < 1.0

    def test_memory_is_linear_in_m(self):
        # m = 31^3 = 29791: the m x m table would take 7.1 GB
        tracemalloc.start()
        try:
            hilbert_oracle(31, 3, 31)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_refuses_modulus_above_cap_before_allocating(self):
        assert 1000003 ** 3 > MAX_ORACLE_MODULUS
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the cap"):
                hilbert_oracle(1000003, 2, 1000003)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16


class TestOracleLemma:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_no_primitive_root_has_one_unit_coordinate(self, p):
        # the lemma behind the two scans, brute-forced over every triple mod
        # m: a root whose only unit coordinate is x would escape both the
        # z = 1 and the y = 1 scans
        reps = square_class_reps(p)[1:]
        for a in reps:
            for b in reps:
                delta = (p == 2) + max(frac_val_unit(p, a)[0],
                                       frac_val_unit(p, b)[0])
                m = p ** (2 * delta + 1)
                t = np.arange(m, dtype=np.int64)
                x, y, z = t[:, None, None], t[None, :, None], t[None, None, :]
                root = (z * z - a * x * x - b * y * y) % m == 0
                units = (x % p != 0).astype(np.int8) + (y % p != 0) + (z % p != 0)
                assert not (root & (units == 1)).any(), (p, a, b)
                assert (root & (units >= 2)).any() == (hilbert(p, a, b) == 1), \
                    (p, a, b)


class TestNormLink:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_symbol_detects_norms(self, p):
        # (x, d) = 1 exactly when x is a norm from Q_p(sqrt d)
        for d in square_class_reps(p):
            if d == 1:
                continue
            ext = build_extension(p, d)
            for x in square_class_reps(p):
                assert (hilbert(p, x, d) == 1) == ext.is_norm(x)

    def test_symbol_trivial_when_d_square(self):
        for x in square_class_reps(2):
            assert hilbert(2, x, 9) == 1


class TestRoutesAndErrors:
    def test_route_names(self):
        assert symbol_route(2) == "2-adic closed formula"
        assert symbol_route(7) == "odd-p norm criterion"

    def test_odd_routine_rejects_two(self):
        with pytest.raises(ValueError):
            hilbert_odd(2, 3, 5)

    def test_zero_arguments_rejected(self):
        with pytest.raises((ValueError, ZeroDivisionError)):
            hilbert(5, 0, 3)

    def test_dichotomy(self):
        for p in PRIMES:
            for a in square_class_reps(p):
                for b in square_class_reps(p):
                    assert hilbert(p, a, b) in (-1, 1)

    def test_2adic_formula_direct(self):
        # units: symbol is -1 exactly when both are 3 mod 4
        for u in (1, 3, 5, 7):
            for v in (1, 3, 5, 7):
                expect = -1 if (u % 4 == 3 and v % 4 == 3) else 1
                assert hilbert_2(u, v) == expect
