"""Closed-form classification of the degree-zero Chow group A0(X)0 for
Chatelet surfaces y^2 - d z^2 = x(x^2 - e) and y^2 - d z^2 = f(x) over Q_p.

The group is always {0} or Z/2Z; cases outside the closed-form treatment
(split x^2 - e or cubic, unsupported shapes, singular cubics) are reported as
out-of-scope rather than guessed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .chi import SearchGrid, chi, find_witness
from .padic import (
    Rational,
    SquareClass,
    frac_val_unit,
    is_prime,
    rational_is_square,
    rational_square_class_rep,
)
from .quadratic import build_extension


class Outcome(enum.Enum):
    ZERO = "0"
    Z2 = "Z/2Z"
    OUT_OF_SCOPE = "out-of-scope"


class InconsistencyError(ArithmeticError):
    """Classifier and witness oracle disagree; a hard internal failure."""


# Largest residue count p * (v(disc)//2 + 2) the cubic root descent may scan:
# it visits at most v(disc)//2 + 2 nodes and scans p residues at each.  At the
# cap p = 5000011 with v(disc) = 0 took 1.2 s on one x86-64 core, and
# p = 1000003 with v(disc) = 12 took 0.8 s.
MAX_CUBIC_RESIDUES = 10 ** 7


@dataclass
class LocalChowResult:
    """Outcome of a local classification, with provenance.

    ``witness`` is an x with chi(x) = (1,1), certifying Z/2Z, filled on
    request.  ``details`` carries machine-readable certificates (e.g. cubic
    root counts).
    """

    outcome: Outcome
    reason: str
    witness: Optional[Fraction] = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "reason": self.reason,
            "witness": None if self.witness is None else str(self.witness),
            "details": {k: str(v) for k, v in self.details.items()},
        }


def _check_prime(p: int):
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def normalize_pair(p: int, d: Rational, e: Rational) -> tuple[Fraction, Fraction]:
    """Reduce to v(e) in {0,1,2,3} (e' = p^{-4k} e) and v(d') in {0,1}
    (square-class reduction of d).  Classification is invariant under this."""
    d, e = Fraction(d), Fraction(e)
    if d == 0 or e == 0:
        raise ValueError("d and e must be nonzero")
    v_e = frac_val_unit(p, e)[0]
    e_prime = e * Fraction(p) ** (-4 * (v_e // 4))
    d_prime = Fraction(rational_square_class_rep(p, d))
    return d_prime, e_prime


def classify_pair(p: int, d: Rational, e: Rational,
                  with_witness: bool = False,
                  grid=None) -> LocalChowResult:
    """A0(X)0 for y^2 - d z^2 = x(x^2 - e) over Q_p.

    Decision order: d square -> 0 (surface is rational); e square -> the split
    case is out of scope; L = E -> 0 (isomorphic extensions); odd p -> Z/2Z;
    p = 2 -> the unramified case depends on v(e) mod 4, the ramified case is
    always Z/2Z.
    """
    d, e = Fraction(d), Fraction(e)
    if d == 0 or e == 0:
        raise ValueError("d and e must be nonzero")

    dc, ec = SquareClass.of(p, d), SquareClass.of(p, e)
    if dc.is_trivial:
        result = LocalChowResult(Outcome.ZERO,
                                 "d is a square: surface is birational to the plane")
    elif ec.is_trivial:
        result = LocalChowResult(
            Outcome.OUT_OF_SCOPE,
            "split case: x^2 - e factors over Q_p (treated in prior work)")
    elif dc == ec:
        result = LocalChowResult(
            Outcome.ZERO, "L and E are isomorphic quadratic extensions")
    elif p != 2:
        result = LocalChowResult(
            Outcome.Z2, "odd p with non-isomorphic quadratic extensions L, E")
    elif build_extension(2, dc.rep).ramified:
        result = LocalChowResult(Outcome.Z2, "L ramified over Q_2")
    elif frac_val_unit(2, e)[0] % 4 == 0:
        result = LocalChowResult(
            Outcome.ZERO, "L unramified over Q_2 and v(e) = 0 mod 4")
    else:
        result = LocalChowResult(
            Outcome.Z2, "L unramified over Q_2 and v(e) != 0 mod 4")

    if with_witness:
        _attach_witness(p, d, e, result, grid)
    return result


def _attach_witness(p, d, e, result: LocalChowResult, grid):
    if result.outcome is not Outcome.Z2:
        return
    g = grid or SearchGrid()
    w = find_witness(p, d, e, g)
    if w is None:
        raise InconsistencyError(
            f"classifier says Z/2Z for (p={p}, d={d}, e={e}) but no witness "
            f"found in {g}; grid or arithmetic bug")
    result.witness = w
    result.details["chi"] = chi(p, w, d, e)


# -- cubic shape ---------------------------------------------------------------

def cubic_discriminant(a: Rational, b: Rational, c: Rational) -> Fraction:
    """Discriminant of the monic cubic x^3 + a x^2 + b x + c."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return (18 * a * b * c - 4 * a ** 3 * c + a ** 2 * b ** 2
            - 4 * b ** 3 - 27 * c ** 2)


def _frac_mod(q: Fraction, m: int) -> int:
    """A fraction with denominator prime to p, as a residue mod m = p^k."""
    return q.numerator * pow(q.denominator, -1, m) % m


def count_roots_cubic(p: int, a: Rational, b: Rational, c: Rational):
    """Number of roots of x^3 + a x^2 + b x + c in Q_p, with certificates.

    Coefficients must be exact rationals so the discriminant-based Hensel
    depth is exact.  Returns (count, roots, certificate) where roots are
    Fractions approximating each root to the certified depth and the
    certificate records the exhaustion parameters.  Rejects repeated roots
    (disc = 0), and a descent above MAX_CUBIC_RESIDUES before it starts.

    x = t / p^s makes the cubic monic with p-integral coefficients; g is that
    cubic with its coefficients reduced mod p^depth, depth = 2 v(disc g) + 1.

    Algorithm (Panayi's Newton-polygon descent, as in PARI's ZpX_roots).  A
    node (r, j, k, h) stands for the disc r + p^j Z_p, where
    h(y) = g(r + p^j y) / p^k has content 1; the root is (0, 0, 0, g).  For
    each residue t of h mod p, in increasing order, with h(t) = 0 mod p:
    if h'(t) is a unit the root is simple, and Newton's iteration lifts it to
    y mod p^(depth - j), a root alpha = r + p^j y of g with
    v(g'(alpha)) = k - j; otherwise the child (r + t p^j, j + 1, k + e,
    h(t + p y) / p^e) is searched, e being the content of h(t + p y).  A
    multiple root of h mod p means two roots of g closer than p^j, and two
    roots of g are never closer than p^(v(disc)/2), so the descent stops by
    level v(disc)/2 + 1.  A disc holds at most three roots, so at most one
    node per level has a child, and the work is O(p * v(disc)) integer
    operations on a cubic.  The walk is depth first with an explicit stack
    and ascending t, so roots come out in lexicographic order of their p-adic
    digits, lowest digit first.

    Certificate.  ``residues_certified`` counts the residues r mod p^depth
    with g(r) = 0 and 2 v(g'(r)) < depth, the residues Hensel's lemma turns
    into roots.  It equals the sum over the roots alpha of p^w,
    w = v(g'(alpha)).  Proof: w <= v(disc)/2, since disc = g'(alpha)^2 times
    the square of the difference of the other two roots.  If r is certified,
    Hensel's lemma gives a root alpha with v(g'(alpha)) = v(g'(r)) and
    v(r - alpha) >= v(g(r)) - v(g'(r)) >= depth - w.  Conversely, if r = alpha mod p^(depth - w), then
    g(r) = g'(alpha)(r - alpha) + O((r - alpha)^2) vanishes mod p^depth
    because 2(depth - w) >= depth, and v(g'(r)) = w because depth - w > w.
    So the certified residues of alpha are the p^w residues
    r = alpha mod p^(depth - w).  The root reported for alpha is the smallest
    of them, alpha mod p^(depth - w), divided by p^s.  Distinct roots differ
    mod p^(floor(v(disc)/2) + 1), which divides p^(depth - w), so the count
    is exact.
    """
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
    residues = p * (vd // 2 + 2)
    if residues > MAX_CUBIC_RESIDUES:
        raise ValueError(
            f"cubic root descent would scan up to {residues} residues at p = {p}, "
            f"above the cap of {MAX_CUBIC_RESIDUES}")
    depth = 2 * vd + 1

    m = p ** depth
    A_, B_, C_ = (_frac_mod(q, m) for q in (A, B, C))

    roots, certified = [], 0
    # a stack entry is a node (r, j, k, (h0, h1, h2, h3)), or a lifted root
    # (alpha mod p^depth, None, v(g'(alpha)), None) kept in walk order
    stack = [(0, 0, 0, (C_, B_, A_, 1))]
    while stack:
        r, j, k, h = stack.pop()
        if h is None:
            roots.append(Fraction(r % p ** (depth - k), p ** s))
            certified += p ** k
            continue
        h0, h1, h2, h3 = h
        # the scan reads h mod p only, so it runs on residues below p
        r0, r1, r2, r3 = (q % p for q in h)
        found = []
        for t in range(p):
            if (((r3 * t + r2) * t + r1) * t + r0) % p:
                continue
            ht = ((h3 * t + h2) * t + h1) * t + h0
            dht = (3 * h3 * t + 2 * h2) * t + h1
            if dht % p:
                mod = p ** (depth - j)
                y = t
                while (hy := ((h3 * y + h2) * y + h1) * y + h0) % mod:
                    y = (y - hy * pow((3 * h3 * y + 2 * h2) * y + h1, -1, mod)) % mod
                found.append((r + p ** j * y, None, k - j, None))
            else:
                # h(t + p y) by Taylor expansion at t, then its content removed
                # the content is stripped one p at a time from all four
                # coefficients, which ends since h3 p^3 != 0
                child = (ht, dht * p, (3 * h3 * t + h2) * p * p, h3 * p ** 3)
                e = 0
                while not any(q % p for q in child):
                    child = tuple(q // p for q in child)
                    e += 1
                found.append((r + t * p ** j, j + 1, k + e, child))
        stack.extend(reversed(found))

    certificate = {"scaling": s, "hensel_depth": depth,
                   "disc_valuation": vd, "residues_certified": certified}
    return len(roots), roots, certificate


def classify_cubic(p: int, d: Rational, a: Rational, b: Rational, c: Rational,
                   with_witness: bool = False, grid=None) -> LocalChowResult:
    """A0(X)0 for y^2 - d z^2 = x^3 + a x^2 + b x + c over Q_p.

    Irreducible cubic (no root in Q_p) gives {0}.  A single root r with the
    residual shape x(x^2 - e) after translating r to the origin delegates to
    classify_pair; other single-root shapes and fully split cubics are out of
    scope.  A root count that contradicts the parity of the discriminant
    (one root with a square disc, three with a non-square) raises
    InconsistencyError.
    """
    d = Fraction(d)
    if d == 0:
        raise ValueError("d must be nonzero")
    if rational_is_square(p, d):
        return LocalChowResult(Outcome.ZERO,
                               "d is a square: surface is birational to the plane")
    disc = cubic_discriminant(a, b, c)
    if disc == 0:
        return LocalChowResult(Outcome.OUT_OF_SCOPE,
                               "singular: repeated roots (disc = 0)")
    count, roots, certificate = count_roots_cubic(p, a, b, c)
    # Galois parity: one root leaves a transposition in the Galois group, so
    # disc(f) is a non-square; three roots mean a trivial group and a square
    if count in (1, 3) and rational_is_square(p, disc) != (count == 3):
        raise InconsistencyError(
            f"{count} roots of x^3 + {a} x^2 + {b} x + {c} in Q_{p} "
            f"contradict the square class of disc = {disc}")
    if count == 0:
        return LocalChowResult(
            Outcome.ZERO, "irreducible monic cubic: the group vanishes",
            details={"irreducibility": certificate})
    if count == 3:
        return LocalChowResult(
            Outcome.OUT_OF_SCOPE,
            "fully split cubic (treated in prior work)",
            details={"roots": certificate})
    # one root; the shape x(x^2 - e) forces the root to be -a/3 exactly
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    r = -a / 3
    if ((r + a) * r + b) * r + c != 0:
        return LocalChowResult(
            Outcome.OUT_OF_SCOPE,
            "one-root cubic not of the shape x(x^2 - e) after translation",
            details={"roots": certificate})
    # f(x + r) = x^3 + B x with B = b - a^2/3; so e = -B
    e = -(b - a * a / 3)
    result = classify_pair(p, d, e, with_witness=with_witness, grid=grid)
    result.details["delegated"] = f"shape x(x^2-e) with e={e} after shift by {r}"
    return result
