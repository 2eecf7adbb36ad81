"""Square classes of Q_p, decided exactly on rationals.

Every predicate the classifier uses lives in the finite group
Q_p^*/(Q_p^*)^2, of order 8 for p = 2 and 4 for odd p.  A nonzero rational
p^v * n/d (n, d prime to p) lies in the class fixed by the parity of v and
the unit n*d, read modulo 8 for p = 2 and through its Legendre symbol for
odd p (Hensel's lemma; Serre, *A Course in Arithmetic*, II.3).  So every
value is carried as an exact int or Fraction and no p-adic digits are ever
truncated; there is no floating point anywhere in this package.

Every class reduction at odd p reads the cached per-prime table of
representatives (``_class_reps``), built with ``smallest_nonresidue``, which
is where p is checked: a composite p raises ValueError there.  The
representatives have valuation 0 or 1, so v(rep) is odd iff rep % p == 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

Rational = Union[int, Fraction]


# Miller-Rabin with the first thirteen primes as bases is deterministic
# below MR_LIMIT (Sorenson and Webster, 2015); larger n are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < MR_LIMIT; ValueError above it."""
    if n < 2:
        return False
    # trial division by the bases decides every n < 43^2 and is the fast
    # path for the small primes of everyday calls
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:
        return True
    if n >= MR_LIMIT:
        raise ValueError(f"{n} is beyond the proven range of the primality "
                         f"test (n < {MR_LIMIT})")
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def int_valuation(p: int, n: int) -> int:
    """v_p(n) for a nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    return _strip(p, n)[0]


def frac_val_unit(p: int, q: Rational) -> tuple[int, Fraction]:
    """Split a nonzero rational as p^v * u with u a p-adic unit (exact)."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("valuation of zero is undefined")
    vn = int_valuation(p, q.numerator)
    vd = int_valuation(p, q.denominator)
    v = vn - vd
    return v, q / Fraction(p) ** v


def smallest_nonresidue(p: int) -> int:
    """The canonical non-square unit for odd p: smallest positive non-residue.

    A composite p is refused, since Euler's criterion decides nothing there.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    for u in range(2, p):
        if pow(u, (p - 1) // 2, p) == p - 1:  # Euler's criterion
            return u
    raise ValueError(f"{p} has no quadratic non-residue; not an odd prime?")


@lru_cache(maxsize=256)
def _class_reps(p: int) -> tuple[int, ...]:
    if p == 2:
        return (1, -1, 5, -5, 2, -2, 10, -10)
    u = smallest_nonresidue(p)  # refuses a composite p
    return (1, u, p, u * p)


def square_class_reps(p: int) -> list[int]:
    """Canonical coset representatives of Q_p^* / (Q_p^*)^2.

    Eight classes for p = 2, four for odd p.
    """
    return list(_class_reps(p))


# odd units of Z_2 mod squares, keyed by residue mod 8
_UNIT_REP_2 = {1: 1, 3: -5, 5: 5, 7: -1}


def _strip(p: int, n: int) -> tuple[int, int]:
    """(v, n / p^v) with v = v_p(n), for a nonzero integer n."""
    if p == 2:
        v = (n & -n).bit_length() - 1
        return v, n >> v
    if p < 2:
        raise ValueError(f"{p} is not prime")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def rational_square_class_rep(p: int, q: Rational) -> int:
    """Canonical representative of the square class of a nonzero rational in Q_p.

    Integer arithmetic only: p is stripped from the numerator n and the
    denominator d, and the unit part n'/d' lies in the class of n'd', read
    from its residue mod 8 (p = 2) or its Legendre symbol (odd p).
    """
    if isinstance(q, int):
        n, d = q, 1
    else:
        if not isinstance(q, Fraction):
            q = Fraction(q)
        n, d = q.numerator, q.denominator
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    v, n = _strip(p, n)
    if d != 1:
        vd, d = _strip(p, d)
        v -= vd
        n *= d
    if p == 2:
        rep = _UNIT_REP_2[n % 8]
        return 2 * rep if v % 2 else rep
    unit_rep = _class_reps(p)[pow(n % p, (p - 1) // 2, p) != 1]
    return p * unit_rep if v % 2 else unit_rep


def rational_is_square(p: int, q: Rational) -> bool:
    """Exact squareness test for a nonzero rational viewed in Q_p."""
    return rational_square_class_rep(p, q) == 1


@dataclass(frozen=True)
class SquareClass:
    """Canonical representative of a class in Q_p^* / (Q_p^*)^2."""

    p: int
    rep: int

    def __post_init__(self):
        if self.rep not in _class_reps(self.p):
            raise ValueError(f"{self.rep} is not a canonical class rep for p={self.p}")

    @classmethod
    def of(cls, p: int, x) -> "SquareClass":
        """Square class of a nonzero rational or of an existing class."""
        if isinstance(x, SquareClass):
            if x.p != p:
                raise ValueError("mixed primes")
            return x
        return cls(p, rational_square_class_rep(p, x))

    @property
    def is_trivial(self) -> bool:
        return self.rep == 1

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if self.p != other.p:
            raise ValueError("mixed primes")
        return SquareClass(self.p, rational_square_class_rep(self.p, self.rep * other.rep))

    def __repr__(self):
        return f"SquareClass({self.rep} mod squares, p={self.p})"


def _odd_unit_mod8(z) -> int:
    """The residue mod 8 of a unit of Z_2: an odd int, or a rational n/d
    with n and d odd, which is n*d mod 8 since d^2 = 1 mod 8."""
    if isinstance(z, int):
        if z % 2 == 0:
            raise ValueError("epsilon/omega need an odd argument")
        return z % 8
    z = Fraction(z)
    n, d = z.numerator, z.denominator
    if n % 2 == 0 or d % 2 == 0:
        raise ValueError("epsilon/omega need a unit of Z_2")
    return n * d % 8


def epsilon(z) -> int:
    """epsilon(z) = (z-1)/2 mod 2; depends only on z mod 4."""
    return ((_odd_unit_mod8(z) - 1) // 2) % 2


def omega(z) -> int:
    """omega(z) = (z^2-1)/8 mod 2; depends only on z mod 8."""
    z8 = _odd_unit_mod8(z)
    return ((z8 * z8 - 1) // 8) % 2
