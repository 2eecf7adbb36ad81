"""Independent verification layer for the classifier.

Samples the set M = {x in K^* : x(x^2-e) in N(L^*)} u {0}, evaluates the
map chi into (Z/2Z)^2, and searches for (1,1)-witnesses.  The second chi
coordinate (the class of x - sqrt(e) upstairs) is evaluated through the norm
transfer: x - sqrt(e) is a norm from LE/E iff its norm x^2 - e down to K is a
norm from L/K.

All grid points are exact rationals.
Norm tests run on square classes: the class of x^2 - e is read off integers,
and class(x (x^2 - e)) = class(x) class(x^2 - e) is the product of the two
canonical representatives, so no product is ever formed as a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .padic import Rational, frac_val_unit, int_valuation, rational_square_class_rep
from .quadratic import QuadExt, build_extension

# Largest search grid (points, 0 included) that may be scanned to the end.
# The default grid has 2,029 points at p = 13 and stays under it to p = 277.
MAX_GRID_SIZE = 10 ** 6


@dataclass(frozen=True)
class ChiValue:
    """An element of (Z/2Z)^2: (class of x mod N(L*), class of x - sqrt(e))."""

    first: int
    second: int

    def as_tuple(self) -> tuple[int, int]:
        return (self.first, self.second)

    def __str__(self):
        return f"({self.first},{self.second})"


@dataclass(frozen=True)
class SearchGrid:
    """Deterministic candidate set: x = p^i * s plus x = 0.

    Valuations run over [-max_abs_valuation, max_abs_valuation]; unit residues
    to depth ``residue_depth`` digits (default 5 for p = 2, 2 for odd p).
    Every explicit witness family used in the case analysis lies well inside
    the defaults.  Enumeration order is fixed: 0 first, then by (|i|, i, s).
    A full scan is refused above MAX_GRID_SIZE points (``check_size``).
    """

    max_abs_valuation: int = 6
    residue_depth: Optional[int] = None

    def depth(self, p: int) -> int:
        if self.residue_depth is not None:
            return self.residue_depth
        return 5 if p == 2 else 2

    def size(self, p: int) -> int:
        """Number of candidates: 0, plus (2w+1) valuations times the units
        mod p^k, that is 1 + (2w+1)(p^k - p^(k-1))."""
        k = self.depth(p)
        valuations = max(0, 2 * self.max_abs_valuation + 1)
        return 1 + valuations * (p ** k - p ** (k - 1) if k > 0 else 0)

    def check_size(self, p: int) -> None:
        """Refuse, before a point is drawn, a grid above MAX_GRID_SIZE."""
        size = self.size(p)
        if size > MAX_GRID_SIZE:
            raise ValueError(
                f"search grid has {size} points at p = {p}, above the cap of "
                f"{MAX_GRID_SIZE}; lower the residue depth or the valuation window")

    def candidates(self, p: int) -> Iterator[Fraction]:
        """0, then s * p^i in grid order; residues are drawn lazily.

        Each point is built from ints: s * p^i for i >= 0, and s / p^-i for
        i < 0, which is already in lowest terms since p does not divide s.
        """
        yield Fraction(0)
        m = p ** self.depth(p)
        vals = sorted(range(-self.max_abs_valuation, self.max_abs_valuation + 1),
                      key=lambda i: (abs(i), i))
        for i in vals:
            scale = p ** abs(i)
            for s in range(1, m):
                if s % p:
                    yield Fraction(s * scale) if i >= 0 else Fraction(s, scale)


def _extensions(p: int, d: Rational, e: Rational) -> tuple[QuadExt, bool]:
    """(L, L_isomorphic_E); rejects square e (split) and square d."""
    e_rep = rational_square_class_rep(p, e)
    if e_rep == 1:
        raise ValueError("e is a square: the split case has no chi map here")
    L = build_extension(p, d)
    return L, L.d == e_rep


def _class_pair(p: int, x: Fraction, a: int, b: int) -> Optional[tuple[int, int]]:
    """The classes of the two chi arguments at x for e = a/b, as canonical
    representatives: x and x^2 - e for x != 0, and -e twice for x = 0, since
    chi(0) is read on (-e, -sqrt(e)) and N(-sqrt(e)) = -e.  None when
    x^2 = e, which cannot happen for nonsquare e.

    The product of the two classes is that of x(x^2 - e) for x != 0 and a
    square for x = 0, so x lies in M iff the product is a norm.  With x = n/m,
    x^2 - e = (n^2 b - a m^2) / (m^2 b), which lies in the class of
    (n^2 b - a m^2) b since m^2 b^2 is a square.  This holds for any a/b,
    so a/b need not be in lowest terms.
    """
    n, m = x.numerator, x.denominator
    if n == 0:
        rep = rational_square_class_rep(p, -a * b)
        return rep, rep
    t = (n * n * b - a * m * m) * b
    if t == 0:
        return None
    return rational_square_class_rep(p, n * m), rational_square_class_rep(p, t)


def _in_M(L: QuadExt, x: Fraction, e: Fraction) -> bool:
    """in_M with L already built."""
    reps = _class_pair(L.p, x, e.numerator, e.denominator)
    return reps is not None and L.is_norm(reps[0] * reps[1])


def _fraction(q: Rational) -> Fraction:
    return q if isinstance(q, Fraction) else Fraction(q)


def in_M(p: int, x: Rational, d: Rational, e: Rational) -> bool:
    """Membership in M: x = 0, or x(x^2 - e) a norm from L."""
    return _in_M(build_extension(p, d), _fraction(x), _fraction(e))


def chi(p: int, x: Rational, d: Rational, e: Rational) -> ChiValue:
    """chi(x) for x in M; refuses x outside M (where chi is undefined).

    chi(x) = (class of x, class of x - sqrt(e)) for x != 0 and
    (class of -e, class of -sqrt(e)) for x = 0, with the second coordinate
    computed via the norm transfer.  When L = E, e = lambda^2 d, so
    x^2 - e = N(x + lambda sqrt(d)) and -e = N(lambda sqrt(d)) are norms and
    the second coordinate is 0, as E*/N(LE*) is trivial.
    """
    x, e = _fraction(x), _fraction(e)
    L = _extensions(p, d, e)[0]
    if not in_M(p, x, d, e):
        raise ValueError(f"x = {x} is not in M; chi is undefined there")
    # the reps are canonical, so each coordinate is a lookup
    first_arg, second_arg = _class_pair(p, x, e.numerator, e.denominator)
    first = 0 if first_arg in L.norm_reps else 1
    second = 0 if second_arg in L.norm_reps else 1
    return ChiValue(first, second)


def sample_M(p: int, d: Rational, e: Rational,
             grid: Optional[SearchGrid] = None) -> list[Fraction]:
    """All grid points belonging to M (always includes 0).

    The whole grid is scanned, so one above MAX_GRID_SIZE is refused.
    """
    g = grid or SearchGrid()
    g.check_size(p)
    L = _extensions(p, d, e)[0]
    e = _fraction(e)
    return [x for x in g.candidates(p) if _in_M(L, x, e)]


def find_witness(p: int, d: Rational, e: Rational,
                 grid: Optional[SearchGrid] = None) -> Optional[Fraction]:
    """An element of M with chi = (1,1), or None, searched on e normalised
    to valuation 0..3.

    Write e = p^(4k) e' with k = floor(v(e)/4), so v(e') lies in 0..3.  For
    x = p^(2k) x', x^2 - e = p^(4k) (x'^2 - e'), and p^(2k) and p^(4k) are
    squares.  So x and x' lie in one square class, and so do x^2 - e and
    x'^2 - e'.  Hence x is in M_e iff x' is in M_e', and
    chi_e(x) = chi_e'(x'), since chi and membership read only those two
    classes.  The surfaces for e and e' are the same up to this change of
    variable, so the search runs on e' and the valuation window covers
    every v(e).

    The returned witness is p^(2k) times the first element of M_e' with
    chi = (1,1) in SearchGrid order; for v(e) in 0..3 (k = 0) it is that
    first grid element itself.  The order is deterministic, so the witness
    is reproducible.  Absence is a legitimate result and is only meaningful
    alongside a classifier verdict of {0}.
    """
    g = grid or SearchGrid()
    L, iso = _extensions(p, d, e)
    if iso:
        return None  # chi is diagonal-trivial when L = E
    e = _fraction(e)
    a, b = e.numerator, e.denominator
    # the walk starts at 0, whose classes are those of -e and -e' alike, so
    # k stays None there and e becomes e' = a/b only once the walk moves on;
    # a/b is in ints and need not be in lowest terms
    k = None
    for x in g.candidates(p):
        reps = _class_pair(p, x, a, b)
        # N(L*) has index 2, so two non-norm classes multiply to a norm
        # and x lies in M; the reps are canonical, so each test is a lookup
        if reps is not None and reps[0] not in L.norm_reps and reps[1] not in L.norm_reps:
            if not k:
                return x
            if k > 0:
                return Fraction(x.numerator * p ** (2 * k), x.denominator)
            return Fraction(x.numerator, x.denominator * p ** (-2 * k))
        if k is None:
            k = (int_valuation(p, a) - int_valuation(p, b)) // 4
            if k > 0:
                a //= p ** (4 * k)
            elif k < 0:
                a *= p ** (-4 * k)
    return None


def verify_ramified_disjunction(d: Rational, e: Rational) -> bool:
    """The v(d)=1 disjunction over Q_2: at least one of {-1, 1-e, e}
    (v(e)=1) or {-1, 1-e/4, e} (v(e)=3) is not a norm from L.

    This always holds for non-isomorphic L, E; a False return is a failure of
    the underlying arithmetic, and the test suites treat it as such.
    """
    d, e = Fraction(d), Fraction(e)
    if frac_val_unit(2, d)[0] != 1:
        raise ValueError("requires v(d) = 1")
    v_e = frac_val_unit(2, e)[0]
    if v_e not in (1, 3):
        raise ValueError("requires v(e) in {1, 3}")
    if rational_square_class_rep(2, d) == rational_square_class_rep(2, e):
        raise ValueError("requires non-isomorphic L and E")
    L = build_extension(2, d)
    middle = 1 - e if v_e == 1 else 1 - e / 4
    elements = [Fraction(-1), middle, e]
    return any(not L.is_norm(t) for t in elements)
