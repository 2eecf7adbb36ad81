"""The Hilbert symbol (a,b) over Q_p by three independent routes.

* the closed 2-adic formula (-1)^{eps(u)eps(v) + omega(v)alpha + omega(u)beta},
* the odd-p norm criteria (valuation parity / squareness after uniformiser
  division),
* a brute-force conic-solvability oracle used as ground truth.

The oracle decides isotropy of z^2 = a x^2 + b y^2 (equivalent to solvability
of a x^2 + b y^2 = 1) by an exhaustive search for primitive residue triples
modulo m = p^k, k = 2*(v(2) + max(v(a), v(b))) + 1, after reduction to
square-class representatives.  A primitive triple has a unit coordinate, so
the gradient (2ax, 2by, 2z) has valuation at most delta = v(2) + max(v(a),
v(b)); a root of the form mod p^{2*delta+1} therefore lifts to an exact p-adic
zero by Hensel's criterion, and every exact primitive zero reduces to such a
root.

Lemma: with a, b class representatives, so v(a), v(b) in {0, 1}, every
primitive root mod m has at least two unit coordinates.  Suppose only one
is a unit.  The other two are divisible by p, so their terms vanish mod p^2.
The unit coordinate's term (z^2, a x^2 or b y^2) has valuation 0 or 1.  At
valuation 0 the form is a unit, a contradiction mod p.  At valuation 1,
delta >= 1, so k >= 3, and the form has valuation exactly 1, a
contradiction mod p^2.  Hence z or y is a unit: if z is not, x and y both
are.

Multiplying a primitive root by the inverse of its unit z or y gives a root
with that coordinate equal to 1, so a root exists iff one of

    a x^2 + b y^2 = 1   (z = 1),   z^2 - a x^2 = b   (y = 1)

is solvable mod m.  Each is one length-m vector of squares looked up in a
boolean table of the residues a x^2 mod m: O(m) time and memory.  The
search is exhaustive, so -1 is always certified; there is no inconclusive
outcome.  Moduli above MAX_ORACLE_MODULUS are refused before anything is
allocated.
"""

from __future__ import annotations

import numpy as np

from .padic import epsilon, frac_val_unit, omega, rational_is_square, rational_square_class_rep

# Largest modulus p^k the conic oracle will scan: its work and memory are
# O(p^k), and the cap keeps every residue product inside int64.
MAX_ORACLE_MODULUS = 2 ** 22


def hilbert_2(a, b) -> int:
    """(a,b)_2 by the closed formula on a = 2^alpha u, b = 2^beta v."""
    ra, rb = rational_square_class_rep(2, a), rational_square_class_rep(2, b)
    alpha, beta = ra % 2 == 0, rb % 2 == 0
    u, v = ra >> alpha, rb >> beta
    exponent = epsilon(u) * epsilon(v) + omega(v) * alpha + omega(u) * beta
    return -1 if exponent % 2 else 1


def hilbert_odd(p: int, a, b) -> int:
    """(a,b)_p for odd p: +1 iff a is a norm from Q_p(sqrt(b)).

    Unramified Q_p(sqrt(b)): a is a norm iff v(a) is even.  Ramified, with
    pi_K = N(sqrt(b')) = -b' for the valuation-one representative b': a is a
    norm iff a/pi_K^{v(a)} is a square.  Both tests run on the class
    representatives a', b' of a and b, whose valuations are 0 or 1 and are
    read off as a' % p == 0.  The class of a'/pi_K^{v(a')} is that of
    a' * pi_K^{v(a')}, since the two differ by pi_K^{2 v(a')}.
    """
    if p == 2:
        raise ValueError("use hilbert_2 for p = 2")
    ra, rb = rational_square_class_rep(p, a), rational_square_class_rep(p, b)
    if rb == 1:
        return 1
    if rb % p:
        # unramified extension
        return -1 if ra % p == 0 else 1
    return 1 if rational_is_square(p, -ra * rb if ra % p == 0 else ra) else -1


def hilbert(p: int, a, b) -> int:
    """(a,b)_p by the closed formula (p=2) or the norm criteria (odd p)."""
    return hilbert_2(a, b) if p == 2 else hilbert_odd(p, a, b)


def hilbert_oracle(p: int, a, b) -> int:
    """Ground-truth conic oracle: certified exhaustive residue search.

    Returns +1 iff z^2 - a x^2 - b y^2 has a nontrivial p-adic zero, which is
    the solvability criterion for a x^2 + b y^2 = 1.  The search sets z = 1,
    then y = 1, and scans the other two coordinates through a table of
    squares mod m = p^k.  Every primitive root has two unit coordinates, one
    of them z or y, so the two scans are exhaustive; see the module docstring
    for that lemma and for the Hensel certificate that makes the finite
    search exact.  Raises ValueError when m exceeds MAX_ORACLE_MODULUS.
    """
    ra = rational_square_class_rep(p, a)
    rb = rational_square_class_rep(p, b)
    if ra == 1 or rb == 1:
        return 1
    v2 = 1 if p == 2 else 0
    delta = v2 + max(frac_val_unit(p, ra)[0], frac_val_unit(p, rb)[0])
    k = 2 * delta + 1
    m = p ** k
    if m > MAX_ORACLE_MODULUS:
        raise ValueError(f"conic oracle modulus {p}^{k} exceeds the cap "
                         f"{MAX_ORACLE_MODULUS}")
    am, bm = ra % m, rb % m
    t = np.arange(m, dtype=np.int64)
    sq = t * t % m  # entries below m <= 2^22: every product here fits int64
    ax2 = np.zeros(m, dtype=bool)
    ax2[am * sq % m] = True
    if ax2[(1 - bm * sq) % m].any():  # z = 1
        return 1
    return 1 if ax2[(sq - bm) % m].any() else -1  # y = 1


def symbol_route(p: int) -> str:
    """Human-readable name of the formula route used by hilbert()."""
    return "2-adic closed formula" if p == 2 else "odd-p norm criterion"
