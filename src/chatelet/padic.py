"""Exact finite-precision arithmetic in Q_p, plus the square-class structure.

A p-adic number is stored as p^valuation * unit, with the unit known modulo
p^precision.  All constructors embed integers and fractions exactly; there is
no floating point anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

Rational = Union[int, Fraction]

# Default number of significant p-adic digits of the unit part.  Squareness
# at p=2 needs the unit mod 8, so the floor below keeps at least 3 digits.
DEFAULT_PRECISION_2 = 24
DEFAULT_PRECISION_ODD = 12

_precision_override: Optional[int] = None


class PrecisionError(ArithmeticError):
    """Raised when cancellation leaves too few significant digits."""


class FiltrationCapReached(PrecisionError):
    """x is congruent to 1 to full working precision; v(1-x) is unknown."""


def set_default_precision(n: Optional[int]) -> None:
    """Globally override the default precision (None restores built-ins)."""
    global _precision_override
    if n is not None and n < 3:
        raise ValueError("precision override must be >= 3")
    _precision_override = n


def default_precision(p: int) -> int:
    if _precision_override is not None:
        return _precision_override
    return DEFAULT_PRECISION_2 if p == 2 else DEFAULT_PRECISION_ODD


def precision_floor(p: int) -> int:
    return 3 if p == 2 else 1


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
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def frac_val_unit(p: int, q: Rational) -> tuple[int, Fraction]:
    """Split a nonzero rational as p^v * u with u a p-adic unit (exact)."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("valuation of zero is undefined")
    vn = int_valuation(p, q.numerator)
    vd = int_valuation(p, q.denominator)
    v = vn - vd
    return v, q / Fraction(p) ** v


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd p; 0 when p | a."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def smallest_nonresidue(p: int) -> int:
    """The canonical non-square unit for odd p: smallest positive non-residue."""
    for u in range(2, p):
        if legendre(u, p) == -1:
            return u
    raise ValueError(f"{p} has no quadratic non-residue; not an odd prime?")


@lru_cache(maxsize=256)
def _class_reps(p: int) -> tuple[int, ...]:
    if p == 2:
        return (1, -1, 5, -5, 2, -2, 10, -10)
    u = smallest_nonresidue(p)
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
    unit_rep = 1 if pow(n % p, (p - 1) // 2, p) == 1 else _class_reps(p)[1]
    return p * unit_rep if v % 2 else unit_rep


def class_rep_of(p: int, x) -> int:
    """Canonical representative of a nonzero rational, PAdic or SquareClass."""
    if isinstance(x, (PAdic, SquareClass)):
        return SquareClass.of(p, x).rep
    return rational_square_class_rep(p, x)


def rational_is_square(p: int, q: Rational) -> bool:
    """Exact squareness test for a nonzero rational viewed in Q_p."""
    return rational_square_class_rep(p, q) == 1


@dataclass(frozen=True)
class PAdic:
    """An element of Q_p at finite precision: p^valuation * unit.

    ``unit`` is an invertible residue modulo p^precision.  The zero element
    is a tagged value with ``unit is None``; all class and symbol operations
    reject it explicitly.  Instances are immutable.
    """

    p: int
    valuation: Optional[int]
    unit: Optional[int]
    precision: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.precision < precision_floor(self.p):
            raise PrecisionError(
                f"precision {self.precision} below floor for p={self.p}")
        if self.unit is not None and self.unit % self.p == 0:
            raise ValueError("unit part must be invertible mod p")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, precision: Optional[int] = None) -> "PAdic":
        return cls(p, None, None, precision or default_precision(p))

    @classmethod
    def from_rational(cls, p: int, q: Rational,
                      precision: Optional[int] = None) -> "PAdic":
        """Embed an integer or fraction exactly."""
        prec = precision or default_precision(p)
        q = Fraction(q)
        if q == 0:
            return cls.zero(p, prec)
        v, u = frac_val_unit(p, q)
        m = p ** prec
        unit = (u.numerator * pow(u.denominator, -1, m)) % m
        return cls(p, v, unit, prec)

    def _coerce(self, other) -> "PAdic":
        if isinstance(other, PAdic):
            if other.p != self.p:
                raise ValueError("mixed primes in arithmetic")
            return other
        return PAdic.from_rational(self.p, other, self.precision)

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.unit is None

    def _require_nonzero(self):
        if self.is_zero:
            raise ZeroDivisionError("operation undefined on p-adic zero")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "PAdic":
        b = self._coerce(other)
        a = self
        if a.is_zero:
            return b
        if b.is_zero:
            return a
        p = a.p
        # absolute depth to which each operand is known
        known = min(a.valuation + a.precision, b.valuation + b.precision)
        vmin = min(a.valuation, b.valuation)
        m = p ** (known - vmin)
        s = (a.unit * p ** (a.valuation - vmin)
             + b.unit * p ** (b.valuation - vmin)) % m
        if s == 0:
            raise PrecisionError("full cancellation: result indistinguishable "
                                 "from zero at this precision")
        dv = int_valuation(p, s)
        prec = known - vmin - dv
        if prec < precision_floor(p):
            raise PrecisionError(
                f"cancellation left {prec} digits (floor {precision_floor(p)})")
        return PAdic(p, vmin + dv, (s // p ** dv) % p ** prec, prec)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "PAdic":
        if self.is_zero:
            return self
        m = self.p ** self.precision
        return PAdic(self.p, self.valuation, (-self.unit) % m, self.precision)

    def __sub__(self, other) -> "PAdic":
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "PAdic":
        b = self._coerce(other)
        if self.is_zero or b.is_zero:
            return PAdic.zero(self.p, min(self.precision, b.precision))
        prec = min(self.precision, b.precision)
        m = self.p ** prec
        return PAdic(self.p, self.valuation + b.valuation,
                     (self.unit * b.unit) % m, prec)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other) -> "PAdic":
        b = self._coerce(other)
        b._require_nonzero()
        if self.is_zero:
            return PAdic.zero(self.p, min(self.precision, b.precision))
        prec = min(self.precision, b.precision)
        m = self.p ** prec
        inv = pow(b.unit, -1, m)
        return PAdic(self.p, self.valuation - b.valuation,
                     (self.unit * inv) % m, prec)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "PAdic":
        self._require_nonzero()
        m = self.p ** self.precision
        if n >= 0:
            return PAdic(self.p, self.valuation * n,
                         pow(self.unit, n, m), self.precision)
        inv = pow(self.unit, -1, m)
        return PAdic(self.p, self.valuation * n, pow(inv, -n, m), self.precision)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (PAdic, int, Fraction)):
            return NotImplemented
        b = self._coerce(other)
        if self.is_zero or b.is_zero:
            return self.is_zero and b.is_zero
        if self.valuation != b.valuation:
            return False
        prec = min(self.precision, b.precision)
        m = self.p ** prec
        return self.unit % m == b.unit % m

    def __hash__(self):
        # equality is precision-truncated; hash on the coarsest stable data
        if self.is_zero:
            return hash((self.p, "zero"))
        return hash((self.p, self.valuation, self.unit % self.p))

    def __repr__(self):
        if self.is_zero:
            return f"PAdic(0; p={self.p})"
        return (f"PAdic(p={self.p}, {self.p}^{self.valuation} * "
                f"{self.unit} + O({self.p}^{self.valuation + self.precision}))")

    # -- structure ---------------------------------------------------------

    def unit_residue(self, k: int) -> int:
        """The unit part modulo p^k (k <= precision)."""
        self._require_nonzero()
        if k > self.precision:
            raise PrecisionError(f"unit known only mod p^{self.precision}")
        return self.unit % self.p ** k

    def is_square(self) -> bool:
        """x in (Q_p^*)^2: even valuation and square unit part.

        For p=2 the unit must be 1 mod 8 (unit squares are exactly 1 + 8Z_2);
        for odd p a quadratic-residue test on the unit suffices.
        """
        self._require_nonzero()
        if self.valuation % 2 != 0:
            return False
        if self.p == 2:
            return self.unit_residue(3) == 1
        return legendre(self.unit_residue(1), self.p) == 1

    def square_class(self) -> "SquareClass":
        self._require_nonzero()
        if self.p == 2:
            rep = _UNIT_REP_2[self.unit_residue(3)]
        else:
            u = self.unit_residue(1)
            rep = 1 if legendre(u, self.p) == 1 else smallest_nonresidue(self.p)
        if self.valuation % 2:
            rep *= 2 if self.p == 2 else self.p
        return SquareClass(self.p, rep)

    def filtration_level(self) -> int:
        """Largest i with x in U_i = {u : v(1-u) >= i}; 0 when x != 1 mod p.

        Raises FiltrationCapReached when x = 1 to full precision, since the
        true level is then beyond what the digits can certify.
        """
        self._require_nonzero()
        if self.valuation != 0:
            raise ValueError("filtration level is defined for units only")
        s = (1 - self.unit) % self.p ** self.precision
        if s == 0:
            raise FiltrationCapReached(
                f"x = 1 mod p^{self.precision}; level exceeds precision")
        return int_valuation(self.p, s)

    def to_dict(self) -> dict:
        """JSON-ready form: {p, valuation, unit, precision}."""
        return {"p": self.p, "valuation": self.valuation,
                "unit": self.unit, "precision": self.precision}


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
        """Square class of a nonzero rational, PAdic, or existing class."""
        if isinstance(x, SquareClass):
            if x.p != p:
                raise ValueError("mixed primes")
            return x
        if isinstance(x, PAdic):
            if x.p != p:
                raise ValueError("mixed primes")
            return x.square_class()
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


def as_padic(p: int, x, precision: Optional[int] = None) -> PAdic:
    """Coerce a rational or PAdic to a PAdic over Q_p."""
    if isinstance(x, PAdic):
        if x.p != p:
            raise ValueError("mixed primes")
        return x
    return PAdic.from_rational(p, x, precision)


def _odd_unit_mod8(z) -> int:
    if isinstance(z, PAdic):
        if z.p != 2:
            raise ValueError("epsilon/omega are defined on 2-adic units")
        if z.is_zero or z.valuation != 0:
            raise ValueError("epsilon/omega need a unit of Z_2")
        return z.unit_residue(3)
    z = int(z)
    if z % 2 == 0:
        raise ValueError("epsilon/omega need an odd argument")
    return z % 8


def epsilon(z) -> int:
    """epsilon(z) = (z-1)/2 mod 2; depends only on z mod 4."""
    return ((_odd_unit_mod8(z) - 1) // 2) % 2


def omega(z) -> int:
    """omega(z) = (z^2-1)/8 mod 2; depends only on z mod 8."""
    z8 = _odd_unit_mod8(z)
    return ((z8 * z8 - 1) // 8) % 2
