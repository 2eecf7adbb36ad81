"""Local Chow groups at all places of Q for rational d, e.

Produces the family {A0(X_v)0} over v: 2, every odd prime dividing d or e,
and the real place are classified by the local machinery; all other places
are {0} and are not reported (at such a prime both extensions are unramified,
so either d is a square, or e is a square with unit roots, or the extensions
are isomorphic).  The global group itself is not assembled: that requires the
Tate-Shafarevich / character-group exact sequence, which is out of scope
here; see DISCLAIMER.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union

from sympy import factorint

from .padic import Rational, frac_val_unit, rational_is_square
from .surface import LocalChowResult, Outcome, classify_pair

DISCLAIMER = ("local groups only: assembling A0(X)0 over Q needs the exact "
              "sequence through Sha and the character group, not computed here")


class GlobalSplitError(ValueError):
    """d is a rational square: the conic splits globally; out of scope."""


@dataclass
class PlaceReport:
    place: Union[int, str]  # a prime, or "real"
    result: LocalChowResult

    def to_dict(self) -> dict:
        d = {"place": self.place}
        d.update(self.result.to_dict())
        return d


def _support(q: Fraction) -> set[int]:
    return set(factorint(abs(q.numerator)).keys()) | set(factorint(q.denominator).keys())


def bad_places(d: Rational, e: Rational) -> list[int]:
    """{2} plus every prime where d or e has nonzero valuation.

    At every excluded odd prime both Q_p(sqrt(d)) and Q_p(sqrt(e)) are
    unramified, and the group is {0} by the good-place trichotomy.
    """
    d, e = Fraction(d), Fraction(e)
    if d == 0 or e == 0:
        raise ValueError("d and e must be nonzero")
    if rational_square(d):
        raise GlobalSplitError("d is a rational square: conic bundle splits")
    return sorted({2} | _support(d) | _support(e))


def rational_square(q: Fraction) -> bool:
    q = Fraction(q)
    if q <= 0:
        return q == 0
    n, m = q.numerator, q.denominator
    return isqrt(n) ** 2 == n and isqrt(m) ** 2 == m


def classify_real_place(d: Rational, e: Rational) -> LocalChowResult:
    """Real place: for e < 0, x^2 - e stays irreducible and the group is {0}
    (L/R is either trivial or agrees with E); e > 0 is out of scope."""
    if Fraction(e) < 0:
        return LocalChowResult(
            Outcome.ZERO,
            "real place with x^2 - e irreducible: trivial or isomorphic extensions")
    return LocalChowResult(
        Outcome.OUT_OF_SCOPE,
        "real place with x^2 - e reducible (requires other methods)")


def classify_place(place: Union[int, str], d: Rational, e: Rational,
                   with_witness: bool = False) -> PlaceReport:
    if place == "real":
        return PlaceReport("real", classify_real_place(d, e))
    p = int(place)
    if (p != 2 and frac_val_unit(p, e)[0] == 0 and rational_is_square(p, e)
            and not rational_is_square(p, d)):
        # bad through d only, while e is a square unit: split fibre, unit roots
        return PlaceReport(p, LocalChowResult(
            Outcome.ZERO,
            "e a square unit at an odd place: split fibre with unit roots"))
    return PlaceReport(p, classify_pair(p, d, e, with_witness=with_witness))


def classify_all_places(d: Rational, e: Rational,
                        with_witness: bool = False) -> list[PlaceReport]:
    """PlaceReports at every bad place plus the real place, ordered by place
    (finite primes ascending, then "real").  All other places are {0}."""
    reports = [classify_place(p, d, e, with_witness=with_witness)
               for p in bad_places(d, e)]
    reports.append(classify_place("real", d, e))
    return reports
