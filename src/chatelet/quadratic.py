"""Quadratic extensions L = Q_p(sqrt(d)): ramification, norms, unit filtration.

The norm-image subgroup of Q_p^*/(Q_p^*)^2 is read off at construction from
the classes of the norms a^2 - d*b^2 on a small integer grid; by local class
field theory it must have index exactly 2, and anything else is treated as an
arithmetic bug, never silently corrected (``_norm_class_subgroup`` proves the
grid always suffices).  It is held as the set of its canonical integer
representatives, so a norm test is one class reduction and one set lookup.
Membership is also decided by the Hilbert symbol (``chatelet.hilbert``),
which at odd p is the valuation criterion: for unramified L, x is a norm iff
v(x) is even; for ramified L, iff x/N(pi_L)^v(x) is a square.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .padic import frac_val_unit, rational_square_class_rep, square_class_reps


class NormSubgroupError(ArithmeticError):
    """The computed norm image does not have index 2; internal bug."""


class QuadExtElem:
    """a + b*sqrt(d) with exact rational coordinates in the base field.

    Elements are always assembled from rational data (uniformisers, unit
    representatives), so the coordinates, norms and valuations are exact,
    even when conjugate products cancel.
    """

    __slots__ = ("parent", "a", "b")

    def __init__(self, parent: "QuadExt", a, b):
        self.parent = parent
        self.a = Fraction(a)
        self.b = Fraction(b)

    def _coerce(self, other) -> "QuadExtElem":
        if isinstance(other, QuadExtElem):
            if other.parent is not self.parent:
                raise ValueError("elements of different extensions")
            return other
        return QuadExtElem(self.parent, other, 0)

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def conjugate(self) -> "QuadExtElem":
        return QuadExtElem(self.parent, self.a, -self.b)

    def norm(self) -> Fraction:
        """N_{L/K}(a + b sqrt(d)) = a^2 - d b^2, an exact rational."""
        return self.a * self.a - self.parent.d * self.b * self.b

    def __mul__(self, other) -> "QuadExtElem":
        o = self._coerce(other)
        d = self.parent.d
        return QuadExtElem(self.parent,
                           self.a * o.a + d * self.b * o.b,
                           self.a * o.b + self.b * o.a)

    def __add__(self, other) -> "QuadExtElem":
        o = self._coerce(other)
        return QuadExtElem(self.parent, self.a + o.a, self.b + o.b)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return QuadExtElem(self.parent, -self.a, -self.b)

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, other) -> "QuadExtElem":
        o = self._coerce(other)
        if o.is_zero:
            raise ZeroDivisionError("division by zero in extension field")
        n = o.norm()
        num = self * o.conjugate()
        return QuadExtElem(self.parent, num.a / n, num.b / n)

    def valuation(self) -> int:
        """v_L, normalized so v_L(pi_L) = 1 when ramified, v_L = v_K unramified."""
        if self.is_zero:
            raise ZeroDivisionError("valuation of zero")
        vn = frac_val_unit(self.parent.p, self.norm())[0]
        if self.parent.ramified:
            return vn
        assert vn % 2 == 0
        return vn // 2

    def __repr__(self):
        return f"({self.a}) + ({self.b})*sqrt({self.parent.d})"


@dataclass(frozen=True)
class QuadExt:
    """L = Q_p(sqrt(d)) for a nontrivial square class, held as its canonical
    int representative ``d`` (``square_class_reps``).

    Immutable; the norm-image subgroup of the square-class group is computed
    eagerly and cached in the value as its canonical integer representatives.
    For ramified L a uniformiser pi_L is fixed deterministically.
    """

    p: int
    d: int
    ramified: bool
    s: Optional[int] = None
    pi_L: Optional[QuadExtElem] = field(default=None, compare=False)
    norm_reps: frozenset = field(default_factory=frozenset, compare=False)

    def is_norm(self, x) -> bool:
        """x in N_{L/K}L^*, decided on square classes (Prop: norms contain squares)."""
        return rational_square_class_rep(self.p, x) in self.norm_reps

    def element(self, a, b) -> QuadExtElem:
        return QuadExtElem(self, a, b)

    def __repr__(self):
        kind = "ramified" if self.ramified else "unramified"
        return f"Q_{self.p}(sqrt({self.d})) [{kind}]"


def _norm_class_subgroup(p: int, d_rep: int) -> frozenset:
    """Canonical representatives of the classes of N(L^*).

    Every a^2 - d b^2 is a norm, so the classes found on the grid |a|, |b| <= 8
    lie in N(L^*), which has index 2; they are all of it exactly when they
    have index 2.  The grid always gets there, with 1 = N(1), -d = N(sqrt(d))
    and 1 - d = N(1 + sqrt(d)):

    * odd p, L ramified: -d has odd valuation, so its class is not 1;
    * odd p, L unramified: d = u is the least non-residue.  For p = 1 mod 4,
      -u is a non-residue.  For p = 3 mod 4, 1 - u = -(u - 1) is one,
      because every positive integer below u is a residue and -1 is not;
    * p = 2: the count check below passes for each of the seven fields.

    A different count is an arithmetic bug and raises NormSubgroupError.
    """
    found = {1}
    for a in range(-8, 9):
        for b in range(-8, 9):
            n = a * a - d_rep * b * b
            if n:
                found.add(rational_square_class_rep(p, n))
    expected = len(square_class_reps(p)) // 2
    if len(found) != expected:
        raise NormSubgroupError(
            f"norm image of Q_{p}(sqrt({d_rep})) has {len(found)} classes, "
            f"expected {expected}")
    return frozenset(found)


def _choose_uniformiser(ext: QuadExt) -> QuadExtElem:
    """Deterministic uniformiser of a ramified L.

    v(d) = 1: pi_L = sqrt(d).  For odd p these are the only ramified classes.
    v(d) = 0 happens only at p = 2, for d = -1 and d = -5: pi_L = 1 + sqrt(d),
    whose norm 1 - d is 2 or 6, of valuation 1.
    """
    pi_L = ext.element(0, 1) if ext.d % ext.p == 0 else ext.element(1, 1)
    if pi_L.valuation() != 1:
        raise NormSubgroupError(f"{pi_L} is not a uniformiser; arithmetic bug")
    return pi_L


def s_invariant(ext: QuadExt) -> int:
    """Largest i with sigma(pi_L)/pi_L in U_{i,L}, from the chosen pi_L.

    Independent of the choice of uniformiser; defined for ramified 2-adic
    extensions, where it is 1 or 2 over Q_2.
    """
    if ext.p != 2 or not ext.ramified:
        raise ValueError("s-invariant needs a ramified 2-adic extension")
    pi = ext.pi_L
    t = pi.conjugate() / pi
    return (1 - t).valuation()


# Each cached field holds about 600 bytes; the bound keeps a long run over
# many primes from growing without limit.
@lru_cache(maxsize=1024)
def _build(p: int, d_rep: int) -> QuadExt:
    ramified = d_rep != 5 if p == 2 else d_rep % p == 0
    ext = QuadExt(p=p, d=d_rep, ramified=ramified, norm_reps=_norm_class_subgroup(p, d_rep))
    if ramified:
        pi_L = _choose_uniformiser(ext)
        object.__setattr__(ext, "pi_L", pi_L)
        if not ext.is_norm(pi_L.norm()):
            raise NormSubgroupError("N(pi_L) not in the computed norm image")
        if p == 2:
            object.__setattr__(ext, "s", s_invariant(ext))
    return ext


def build_extension(p: int, d) -> QuadExt:
    """Construct Q_p(sqrt(d)).  Raises ValueError when d is a square (split case)."""
    rep = rational_square_class_rep(p, d)
    if rep == 1:
        raise ValueError("d is a square: K(sqrt(d)) is split, not a field")
    return _build(p, rep)


# -- the lambda maps on the unit filtration ----------------------------------

def lambda_base(ext: QuadExt, i: int, x) -> int:
    """lambda_{i,K}(1 + theta*pi_K^i) = theta mod 2, for x in U_{i,K}.

    Defined for a ramified extension.  Vanishes exactly on U_{i+1,K}.  The
    level of x is v_K(1 - x), read off the rational.
    """
    if not ext.ramified:
        raise ValueError("lambda_base needs a ramified extension")
    if x == 0 or frac_val_unit(ext.p, x)[0] != 0:
        raise ValueError(f"argument not in U_{i}")
    if x == 1:
        return 0  # 1 lies in every U_i, so theta = 0
    level = frac_val_unit(ext.p, 1 - x)[0]
    if level < i:
        raise ValueError(f"argument not in U_{i}")
    return 1 if level == i else 0


def lambda_ext(ext: QuadExt, i: int, x: QuadExtElem) -> int:
    """lambda_{i,L}(1 + theta*pi_L^i) = theta mod 2, for x in U_{i,L}."""
    if ext.pi_L is None:
        raise ValueError("lambda_ext needs a ramified extension")
    if x.valuation() != 0:
        raise ValueError("argument is not a unit of L")
    diff = 1 - x
    if diff.is_zero:
        return 0  # 1 lies in every U_{i,L}, so theta = 0
    level = diff.valuation()
    if level < i:
        raise ValueError(f"argument not in U_{{{i},L}}")
    # theta = (x-1)/pi_L^i is a unit iff v_L(1-x) is exactly i
    return 1 if level == i else 0
