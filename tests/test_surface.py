"""Local classification of A0(X)0 for Chatelet surfaces over Q_p."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chatelet import surface
from chatelet.chi import SearchGrid, chi, find_witness, sample_M
from chatelet.padic import (
    frac_val_unit,
    int_valuation,
    rational_is_square,
    rational_square_class_rep,
    square_class_reps,
)
from chatelet.quadratic import build_extension
from chatelet.surface import (
    InconsistencyError,
    Outcome,
    _check_prime,
    _frac_mod,
    classify_cubic,
    classify_pair,
    count_roots_cubic,
    cubic_discriminant,
)

SMALL = {2: SearchGrid(max_abs_valuation=3, residue_depth=4),
         3: SearchGrid(max_abs_valuation=3, residue_depth=1),
         5: SearchGrid(max_abs_valuation=3, residue_depth=1),
         7: SearchGrid(max_abs_valuation=3, residue_depth=1)}

CUBIC_PRIMES = (2, 3, 5, 7, 11, 13)
REFERENCE_BOUND = 10 ** 5  # p^v(disc) up to which the breadth-first reference is cheap


def bfs_count_roots_cubic(p, a, b, c):
    """The breadth-first lifting that count_roots_cubic replaced, kept as an
    independent reference: every residue root mod p is lifted digit by digit
    to p^depth, the residues Hensel's lemma certifies are kept, and they are
    grouped into roots mod p^(floor(v(disc)/2) + 1).  Its work grows like
    p^(v(disc)/2), so it is only run on small p^v(disc)."""
    _check_prime(p)
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    disc = cubic_discriminant(a, b, c)
    if disc == 0:
        raise ValueError("repeated roots: disc(f) = 0 is out of scope")

    # scale x = t / p^s so the cubic in t is monic with p-integral coefficients
    s = 0
    for coeff, deg in ((a, 1), (b, 2), (c, 3)):
        if coeff != 0:
            v = frac_val_unit(p, coeff)[0]
            if v < 0:
                s = max(s, (-v + deg - 1) // deg)
    A = a * p ** s
    B = b * p ** (2 * s)
    C = c * p ** (3 * s)
    g_disc = disc * Fraction(p) ** (6 * s)
    vd = frac_val_unit(p, g_disc)[0]
    depth = 2 * vd + 1

    m = p ** depth
    A_, B_, C_ = (_frac_mod(q, m) for q in (A, B, C))

    def g(t, mod):
        return (((t + A_) * t + B_) * t + C_) % mod

    def dg(t, mod):
        return (3 * t * t + 2 * A_ * t + B_) % mod

    # breadth-first digit lifting of residue roots up to the certified depth
    level = [t for t in range(p) if g(t, p) == 0]
    for j in range(1, depth):
        mod = p ** (j + 1)
        nxt = []
        for r in level:
            for t in range(p):
                cand = r + t * p ** j
                if g(cand, mod) == 0:
                    nxt.append(cand)
        level = nxt

    certified = []
    for r in level:
        gr = g(r, m)
        dgr = dg(r, m)
        v_dgr = depth if dgr == 0 else int_valuation(p, dgr)
        if gr % m == 0 and 2 * v_dgr < depth:
            certified.append(r)

    # distinct roots differ at depth <= v(disc)/2 < the certified closeness,
    # so grouping residues mod p^(floor(vd/2)+1) counts roots exactly
    group_mod = p ** (vd // 2 + 1)
    seen = {}
    for r in certified:
        seen.setdefault(r % group_mod, r)
    roots = [Fraction(r, p ** s) for r in seen.values()]
    certificate = {"scaling": s, "hensel_depth": depth,
                   "disc_valuation": vd, "residues_certified": len(certified)}
    return len(roots), roots, certificate


class TestClassifyPair:
    def test_d_square_gives_zero(self):
        r = classify_pair(5, 4, 2)
        assert r.outcome is Outcome.ZERO

    def test_e_square_is_out_of_scope(self):
        r = classify_pair(5, 2, 4)
        assert r.outcome is Outcome.OUT_OF_SCOPE

    def test_isomorphic_extensions_give_zero(self):
        # d = 2 and e = 18 generate the same extension of Q_5
        r = classify_pair(5, 2, 18)
        assert r.outcome is Outcome.ZERO

    def test_odd_p_distinct_extensions_give_z2(self):
        r = classify_pair(5, 2, 5)
        assert r.outcome is Outcome.Z2

    def test_2adic_unramified_depends_on_valuation_mod_4(self):
        assert classify_pair(2, 5, 3).outcome is Outcome.ZERO      # v(e)=0
        assert classify_pair(2, 5, 2).outcome is Outcome.Z2        # v(e)=1
        assert classify_pair(2, 5, 12).outcome is Outcome.Z2       # v(e)=2
        assert classify_pair(2, 5, 24).outcome is Outcome.Z2       # v(e)=3
        assert classify_pair(2, 5, 48).outcome is Outcome.ZERO     # v(e)=4

    def test_2adic_ramified_gives_z2(self):
        for d in (-1, 2, -2, 10, -10, -5):
            r = classify_pair(2, d, 3)
            if rational_square_class_rep(2, Fraction(3, d)) == 1:
                continue  # isomorphic-extension case, not ramified-generic
            if build_extension(2, d).ramified:
                assert r.outcome is Outcome.Z2, d

    def test_zero_inputs_rejected(self):
        with pytest.raises(ValueError):
            classify_pair(5, 0, 3)
        with pytest.raises(ValueError):
            classify_pair(5, 2, 0)

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            classify_pair(6, 2, 3)

    def test_witness_attached_when_z2(self):
        r = classify_pair(5, 2, 5, with_witness=True, grid=SMALL[5])
        assert r.outcome is Outcome.Z2
        assert r.witness is not None
        assert chi(5, Fraction(r.witness), 2, 5).as_tuple() == (1, 1)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_invariant_under_square_scaling_of_d(self, p):
        for d in (2, 5, -1, 10):
            for e in (3, p, 2 * p * p):
                base = classify_pair(p, d, e).outcome
                assert classify_pair(p, d * 9, e).outcome is base
                assert classify_pair(p, Fraction(d, 4), e).outcome is base

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_invariant_under_fourth_power_scaling_of_e(self, p):
        for d in (2, 5, -1, 10):
            for e in (3, p, 2 * p * p):
                base = classify_pair(p, d, e).outcome
                assert classify_pair(p, d, e * p ** 4).outcome is base
                assert classify_pair(p, d, Fraction(e, p ** 8)).outcome is base


@pytest.mark.parametrize("p, d, e, outcome, reason", [
    (3, 4, 2, Outcome.ZERO, "d is a square: surface is birational to the plane"),
    (5, 2, 4, Outcome.OUT_OF_SCOPE,
     "split case: x^2 - e factors over Q_p (treated in prior work)"),
    (5, 2, 18, Outcome.ZERO, "L and E are isomorphic quadratic extensions"),
    (5, 2, 5, Outcome.Z2, "odd p with non-isomorphic quadratic extensions L, E"),
    (2, -1, 3, Outcome.Z2, "L ramified over Q_2"),
    (2, 5, 3, Outcome.ZERO, "L unramified over Q_2 and v(e) = 0 mod 4"),
    (2, 5, 2, Outcome.Z2, "L unramified over Q_2 and v(e) != 0 mod 4"),
])
def test_classify_pair_branch(p, d, e, outcome, reason):
    """One input per branch of classify_pair's decision chain."""
    r = classify_pair(p, d, e)
    assert (r.outcome, r.reason) == (outcome, reason)


class TestOutcomeConsistency:
    """The classifier's verdicts agree with direct evaluation of chi on M."""

    @pytest.mark.parametrize("p", [3, 5])
    def test_small_grid(self, p):
        grid = SMALL[p]
        for d in square_class_reps(p):
            if d == 1:
                continue
            for e in (2, 3, -1, p, 2 * p, -p):
                r = classify_pair(p, d, e)
                if r.outcome is Outcome.OUT_OF_SCOPE:
                    continue
                w = find_witness(p, d, e, grid=grid)
                if r.outcome is Outcome.Z2:
                    assert w is not None, (p, d, e)
                    assert chi(p, w, d, e).as_tuple() == (1, 1)
                else:
                    assert w is None, (p, d, e)
                    for x in sample_M(p, d, e, grid=grid):
                        assert chi(p, x, d, e).as_tuple() == (0, 0)


class TestCubics:
    def test_discriminant_formula(self):
        # x^3 - 1 has disc -27; x^3 - x has disc 4
        assert cubic_discriminant(0, 0, -1) == -27
        assert cubic_discriminant(0, -1, 0) == 4

    def test_x3_minus_2_has_no_root_in_q7(self):
        count, roots, cert = count_roots_cubic(7, 0, 0, -2)
        assert count == 0

    def test_x3_minus_2_has_one_root_in_q5(self):
        count, roots, cert = count_roots_cubic(5, 0, 0, -2)
        assert count == 1

    def test_x3_minus_x_splits(self):
        count, roots, cert = count_roots_cubic(5, 0, -1, 0)
        assert count == 3

    def test_irreducible_cubic_gives_zero(self):
        r = classify_cubic(7, 3, 0, 0, -2)
        assert r.outcome is Outcome.ZERO
        assert "irreducibility" in r.details

    def test_split_cubic_is_out_of_scope(self):
        r = classify_cubic(5, 2, 0, -1, 0)
        assert r.outcome is Outcome.OUT_OF_SCOPE

    def test_singular_cubic_is_out_of_scope(self):
        r = classify_cubic(5, 2, 0, 0, 0)
        assert r.outcome is Outcome.OUT_OF_SCOPE

    def test_shape_delegation(self):
        # x^3 - 5x = x(x^2 - 5): root at 0, e = 5, d = 2 over Q_5
        r = classify_cubic(5, 2, 0, -5, 0, with_witness=True, grid=SMALL[5])
        assert r.outcome is Outcome.Z2
        assert r.witness is not None
        assert "delegated" in r.details

    def test_shifted_shape_recognised(self):
        # (x-1)((x-1)^2 - 5) = x^3 - 3x^2 - 2x + 4: root 1, shape after shift
        r = classify_cubic(5, 2, -3, -2, 4)
        assert r.outcome is Outcome.Z2

    def test_one_root_wrong_shape_is_out_of_scope(self):
        # x^3 + x^2 - 2x = x(x^2 + x - 2) = x(x-1)(x+2) splits; pick a true
        # non-shape example instead: (x-1)(x^2+x+1) = x^3 - 1 over Q_5,
        # where x^2 + x + 1 is irreducible and the root is not at -a/3
        count, roots, cert = count_roots_cubic(5, 0, 0, -1)
        assert count == 1
        r = classify_cubic(5, 2, 0, 0, -1)
        assert r.outcome is Outcome.OUT_OF_SCOPE

    def test_d_square_shortcuts_cubic(self):
        r = classify_cubic(5, 16, 0, 0, -2)
        assert r.outcome is Outcome.ZERO


def _shift_scale(a, b, c, t=0, lam=1):
    """Coefficients of lam^3 f((x + t) / lam) for f = x^3 + a x^2 + b x + c:
    the roots move to lam (alpha - t)."""
    a, b, c = (a + 3 * t, b + 2 * a * t + 3 * t * t,
               c + b * t + a * t * t + t ** 3)
    return lam * a, lam ** 2 * b, lam ** 3 * c


def _from_roots(r1, r2, r3):
    return -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3


def _disc_valuation(p, a, b, c):
    return count_roots_cubic(p, a, b, c)[2]["disc_valuation"]


def sweep_cubics(p, n=80):
    """Deterministic cubics over Q_p with p^v(disc) <= REFERENCE_BOUND:
    random coefficients, three roots close together p-adically, and the
    shapes (x - r)((x - r)^2 - e) and (x - r)^3 - C, shifted and scaled."""
    rng = random.Random(f"cubic-sweep:{p}")
    out = []
    while len(out) < n:
        kind = rng.randrange(4)
        if kind == 0:
            coeffs = [Fraction(rng.randrange(-60, 61), rng.choice((1, 1, 2, 3, p, p * p)))
                      for _ in range(3)]
        elif kind == 1:
            x0 = rng.randrange(-30, 31)
            coeffs = _from_roots(x0, x0 + p ** rng.randrange(3) * rng.randrange(1, 9),
                                 x0 - p ** rng.randrange(3) * rng.randrange(1, 9))
        elif kind == 2:
            e = rng.choice((1, -1)) * p ** rng.randrange(5) * rng.randrange(1, 30)
            coeffs = _shift_scale(0, -e, 0, t=rng.randrange(-20, 21))
        else:
            coeffs = _shift_scale(0, 0, -p ** rng.randrange(5) * rng.randrange(1, 30),
                                  t=rng.randrange(-20, 21))
        lam = Fraction(rng.choice((1, 1, 2, 3, p)), rng.choice((1, 1, 5, p)))
        coeffs = _shift_scale(*coeffs, lam=lam)
        if cubic_discriminant(*coeffs) == 0:
            continue
        if p ** _disc_valuation(p, *coeffs) <= REFERENCE_BOUND:
            out.append(tuple(Fraction(q) for q in coeffs))
    return out


def _small_coeff():
    return st.builds(Fraction, st.integers(-200, 200), st.sampled_from((1, 2, 3, 5, 7, 9, 49)))


class TestRootCountingReference:
    """count_roots_cubic against the breadth-first lifting it replaced: the
    whole (count, roots, certificate) triple is identical."""

    @pytest.mark.parametrize("p", CUBIC_PRIMES)
    def test_deterministic_sweep(self, p):
        counts = set()
        for coeffs in sweep_cubics(p):
            got = count_roots_cubic(p, *coeffs)
            assert str(got) == str(bfs_count_roots_cubic(p, *coeffs)), (p, coeffs)
            counts.add(got[0])
        assert counts == {0, 1, 3}

    @settings(max_examples=150, deadline=None)
    @given(p=st.sampled_from(CUBIC_PRIMES), a=_small_coeff(), b=_small_coeff(),
           c=_small_coeff())
    def test_matches_reference(self, p, a, b, c):
        assume(cubic_discriminant(a, b, c) != 0)
        assume(p ** _disc_valuation(p, a, b, c) <= REFERENCE_BOUND)
        assert str(count_roots_cubic(p, a, b, c)) == str(bfs_count_roots_cubic(p, a, b, c))


class TestDeepCubics:
    """Deep inputs, v(disc) of 60 and more, under 1 s budgets (2 s for a
    1,432-digit coefficient)."""

    def test_three_close_roots_at_3(self):
        # x^3 - 3^20 x = x (x - 3^10)(x + 3^10), v(disc) = 60
        t0 = time.perf_counter()
        count, roots, cert = count_roots_cubic(3, 0, -3 ** 20, 0)
        assert time.perf_counter() - t0 < 1.0
        assert count == 3
        assert cert["residues_certified"] == 3 ** 21

    def test_coefficient_size_within_budget(self):
        # x^3 - 3^3000 x: a 1,432-digit coefficient, v(disc) = 9000; the
        # content of each child is stripped in O(content) divisions, not in
        # O(depth) as a per-coefficient valuation would take
        t0 = time.perf_counter()
        count, roots, cert = count_roots_cubic(3, 0, -3 ** 3000, 0)
        assert time.perf_counter() - t0 < 2.0
        assert count == 3
        assert cert["disc_valuation"] == 9000
        assert cert["hensel_depth"] == 18001
        assert cert["residues_certified"] == 3 ** 3001

    def test_deep_irreducible_at_7(self):
        t0 = time.perf_counter()
        count, roots, cert = count_roots_cubic(7, 0, 0, -3 * 7 ** 31)
        assert time.perf_counter() - t0 < 1.0
        assert count == 0 and roots == []
        assert cert["hensel_depth"] == 125

    def test_deep_one_root_shape_delegates(self):
        e = 3 * 7 ** 40
        t0 = time.perf_counter()
        r = classify_cubic(7, 7, 0, -e, 0)
        assert time.perf_counter() - t0 < 1.0
        assert "delegated" in r.details
        pair = classify_pair(7, 7, e)
        assert (r.outcome, r.reason) == (pair.outcome, pair.reason)


class TestGaloisParity:
    def test_one_root_with_square_disc_is_inconsistent(self, monkeypatch):
        # x^3 - x splits over Q_5 and disc = 4 is a square
        monkeypatch.setattr(surface, "count_roots_cubic",
                            lambda p, a, b, c: (1, [Fraction(0)], {}))
        with pytest.raises(InconsistencyError):
            classify_cubic(5, 2, 0, -1, 0)

    def test_three_roots_with_nonsquare_disc_is_inconsistent(self, monkeypatch):
        # x^3 - 2 has one root in Q_5 and disc = -108 is a non-square there
        monkeypatch.setattr(surface, "count_roots_cubic",
                            lambda p, a, b, c: (3, [], {}))
        with pytest.raises(InconsistencyError):
            classify_cubic(5, 2, 0, 0, -2)

    def test_no_root_allows_square_disc(self):
        # x^3 - 3x + 1 is irreducible mod 2 with disc = 81: Galois group A_3
        assert rational_is_square(2, cubic_discriminant(0, -3, 1))
        assert count_roots_cubic(2, 0, -3, 1)[0] == 0
        assert classify_cubic(2, 3, 0, -3, 1).outcome is Outcome.ZERO


class TestCubicInvariance:
    @settings(max_examples=150, deadline=None)
    @given(p=st.sampled_from(CUBIC_PRIMES), a=_small_coeff(), b=_small_coeff(),
           c=_small_coeff(), t=st.integers(-500, 500), t_den=st.integers(1, 40))
    def test_count_invariant_under_integral_shift(self, p, a, b, c, t, t_den):
        assume(t_den % p and cubic_discriminant(a, b, c) != 0)
        shifted = _shift_scale(a, b, c, t=Fraction(t, t_den))
        assert count_roots_cubic(p, *shifted)[0] == count_roots_cubic(p, a, b, c)[0]

    @settings(max_examples=150, deadline=None)
    @given(p=st.sampled_from(CUBIC_PRIMES), a=_small_coeff(), b=_small_coeff(),
           c=_small_coeff(), lam_num=st.integers(-300, 300).filter(bool),
           lam_den=st.integers(1, 300))
    def test_count_invariant_under_scaling(self, p, a, b, c, lam_num, lam_den):
        assume(cubic_discriminant(a, b, c) != 0)
        scaled = _shift_scale(a, b, c, lam=Fraction(lam_num, lam_den))
        assert count_roots_cubic(p, *scaled)[0] == count_roots_cubic(p, a, b, c)[0]

    @settings(max_examples=150, deadline=None)
    @given(p=st.sampled_from(CUBIC_PRIMES), d=st.integers(-60, 60).filter(bool),
           e=st.integers(-10 ** 6, 10 ** 6).filter(bool), r=_small_coeff())
    def test_shifted_shape_matches_pair(self, p, d, e, r):
        assume(not rational_is_square(p, e))
        r_cubic = classify_cubic(p, d, *_shift_scale(0, -e, 0, t=-r))
        r_pair = classify_pair(p, d, e)
        assert (r_cubic.outcome, r_cubic.reason) == (r_pair.outcome, r_pair.reason)
        assert rational_is_square(p, d) or "delegated" in r_cubic.details
