"""Place-by-place classification over Q."""

from fractions import Fraction

import pytest

from chatelet.globalq import (
    GlobalSplitError,
    bad_places,
    classify_all_places,
    classify_place,
    classify_real_place,
    rational_square,
)
from chatelet.padic import frac_val_unit, square_class_reps
from chatelet.surface import Outcome


class TestBadPlaces:
    def test_example(self):
        assert bad_places(-1, -2) == [2]

    def test_supports_union(self):
        assert bad_places(15, Fraction(7, 3)) == [2, 3, 5, 7]

    def test_two_always_included(self):
        assert 2 in bad_places(3, 5)

    def test_square_d_raises(self):
        with pytest.raises(GlobalSplitError):
            bad_places(Fraction(4, 9), 3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            bad_places(0, 3)


def test_rational_square():
    assert rational_square(Fraction(4, 9))
    assert not rational_square(8)
    assert not rational_square(-4)


class TestGoodPlaces:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 101])
    def test_always_zero(self, p):
        # every pair of unit classes reaches one of the three good-place
        # cases: d a square, e a square (split fibre), or L = E
        units = [r for r in square_class_reps(p) if frac_val_unit(p, r)[0] == 0]
        for d, e in [(-1, -2)] + [(d, e) for d in units for e in units]:
            r = classify_place(p, d, e).result
            assert r.outcome is Outcome.ZERO, (p, d, e, r.reason)

    def test_agrees_with_local_classifier_or_split(self):
        # at good places the local machinery, when applicable, returns 0 too
        from chatelet.surface import classify_pair
        for p in (3, 7, 11, 13):
            full = classify_pair(p, -1, -2)
            assert full.outcome in (Outcome.ZERO, Outcome.OUT_OF_SCOPE)


class TestRealPlace:
    def test_negative_e_is_zero(self):
        assert classify_real_place(-1, -2).outcome is Outcome.ZERO

    def test_positive_e_out_of_scope(self):
        assert classify_real_place(-1, 2).outcome is Outcome.OUT_OF_SCOPE


class TestAllPlaces:
    def test_minus1_minus2(self):
        reports = classify_all_places(-1, -2)
        places = [r.place for r in reports]
        assert places == [2, "real"]
        by_place = {r.place: r.result.outcome for r in reports}
        assert by_place[2] is Outcome.Z2
        assert by_place["real"] is Outcome.ZERO

    def test_witnesses_requested(self):
        reports = classify_all_places(-1, -2, with_witness=True)
        two = next(r for r in reports if r.place == 2)
        assert two.result.witness is not None

    def test_square_e_at_odd_bad_place(self):
        # d = 18 = 2 * 3^2 is a nonsquare of even valuation and e = 4 a
        # square unit at p = 3: the fibre splits with unit roots, and the
        # split-fibre branch answers 0
        report = classify_place(3, 18, Fraction(4, 1))
        assert report.result.outcome is Outcome.ZERO
        assert report.result.reason == \
            "e a square unit at an odd place: split fibre with unit roots"

    def test_report_serialization(self):
        reports = classify_all_places(5, 2)
        for r in reports:
            d = r.to_dict()
            assert "place" in d and "outcome" in d

    def test_finite_places_sorted(self):
        reports = classify_all_places(Fraction(7, 3), -10)
        finite = [r.place for r in reports if r.place != "real"]
        assert finite == sorted(finite)
