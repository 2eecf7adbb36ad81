"""Acceptance gate: eleven end-to-end criteria, each printing one PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.  Every tolerance is exact; each criterion also
enforces its runtime budget.
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from chatelet.chi import SearchGrid, chi, find_witness, sample_M
from chatelet.globalq import bad_places, classify_all_places, classify_place
from chatelet.hilbert import hilbert, hilbert_oracle
from chatelet.padic import rational_is_square, square_class_reps
from chatelet.quadratic import build_extension, s_invariant
from chatelet.surface import Outcome, classify_cubic, classify_pair
from chatelet.chi import verify_ramified_disjunction

GRIDS = {2: SearchGrid(max_abs_valuation=3, residue_depth=4),
         3: SearchGrid(max_abs_valuation=3, residue_depth=1),
         5: SearchGrid(max_abs_valuation=3, residue_depth=1),
         7: SearchGrid(max_abs_valuation=3, residue_depth=1)}


@contextmanager
def criterion(number, budget_s, label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"CRITERION {number:>2}: FAIL  {label}", file=sys.stderr)
        raise
    elapsed = time.monotonic() - start
    line = f"CRITERION {number:>2}: PASS  ({elapsed:6.2f}s)  {label}"
    print(line, file=sys.stderr)
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s over budget {budget_s}s"


def test_criterion_01_hilbert_exhaustive():
    with criterion(1, 10, "symbol formula = conic oracle; symmetry; bilinearity"):
        for p in (2, 3, 5, 7, 13):
            reps = square_class_reps(p)
            for a in reps:
                for b in reps:
                    assert hilbert(p, a, b) == hilbert_oracle(p, a, b)
                    assert hilbert(p, a, b) == hilbert(p, b, a)
                    for c in reps:
                        assert hilbert(p, a * b, c) == \
                            hilbert(p, a, c) * hilbert(p, b, c)


def test_criterion_02_norm_triple_agreement():
    with criterion(2, 5, "three independent is_norm routes agree"):
        for p in (2, 3, 5, 7):
            for d in square_class_reps(p):
                if d == 1:
                    continue
                ext = build_extension(p, d)
                for x in square_class_reps(p):
                    via_symbol = hilbert(p, x, d) == 1
                    via_oracle = hilbert_oracle(p, x, d) == 1
                    via_subgroup = ext.is_norm(x)
                    assert via_symbol == via_oracle == via_subgroup


def test_criterion_03_s_invariant_table():
    with criterion(3, 1, "break of the ramified 2-adic unit filtration"):
        table = {-1: 1, -5: 1, 2: 2, -2: 2, 10: 2, -10: 2}
        for d, s in table.items():
            assert s_invariant(build_extension(2, d)) == s, d


def test_criterion_04_last_nonnorm_layer():
    with criterion(4, 5, "every unit at filtration level exactly s is a non-norm"):
        for d in (-1, -5, 2, -2, 10, -10):
            ext = build_extension(2, d)
            s = ext.s
            for t in range(1, 2 ** (s + 2), 2):
                gamma = 1 + t * 2 ** s
                assert not ext.is_norm(gamma), (d, gamma)


def _criterion5_grid():
    for p in (2, 3, 5, 7):
        for d in square_class_reps(p):
            if d == 1:
                continue
            for u in range(1, 21):
                for sign in (1, -1):
                    for k in range(4):
                        e = Fraction(sign * u) * p ** k
                        if rational_is_square(p, e):
                            continue
                        yield p, d, e


def test_criterion_05_and_08_classifier_vs_oracle():
    with criterion(5, 120, "classifier = witness oracle on the full grid"):
        off_diagonal = []
        for p, d, e in _criterion5_grid():
            grid = GRIDS[p]
            result = classify_pair(p, d, e)
            if result.outcome is Outcome.OUT_OF_SCOPE:
                continue
            iso = rational_is_square(p, Fraction(e) / d)
            witness = find_witness(p, d, e, grid=grid)
            if result.outcome is Outcome.Z2:
                assert witness is not None, (p, d, e)
                assert chi(p, witness, d, e).as_tuple() == (1, 1)
            else:
                assert witness is None, (p, d, e)
                for x in sample_M(p, d, e, grid=grid):
                    value = chi(p, x, d, e).as_tuple()
                    assert value == (0, 0), (p, d, e, x)
                    if not iso and value in ((1, 0), (0, 1)):
                        off_diagonal.append((p, d, e, x))
    with criterion(8, 1, "no off-diagonal chi value anywhere on that grid"):
        assert off_diagonal == []


def test_criterion_06_truth_table_2adic():
    with criterion(6, 60, "v(e) mod 4 truth table for unramified L; ramified always Z/2Z"):
        grid = GRIDS[2]
        # unramified L = Q_2(sqrt 5), E not isomorphic to L
        for u in (-1, 3, -5, 7, -13):
            for v_e in range(5):
                e = Fraction(u) * 2 ** v_e
                if rational_is_square(2, e) or rational_is_square(2, e / 5):
                    continue
                result = classify_pair(2, 5, e)
                if v_e % 4 == 0:
                    assert result.outcome is Outcome.ZERO, (e,)
                    for x in sample_M(2, 5, e, grid=grid):
                        assert chi(2, x, 5, e).as_tuple() == (0, 0)
                else:
                    assert result.outcome is Outcome.Z2, (e,)
                    w = find_witness(2, 5, e, grid=grid)
                    assert w is not None and \
                        chi(2, w, 5, e).as_tuple() == (1, 1)
        # ramified L: every admissible e gives Z/2Z, certified by a witness
        for d in (-1, -5, 2, -2, 10, -10):
            for e in (3, -1, 6, 10, 12, -20):
                e = Fraction(e)
                if rational_is_square(2, e) or rational_is_square(2, e / d):
                    continue
                result = classify_pair(2, d, e)
                assert result.outcome is Outcome.Z2, (d, e)
                w = find_witness(2, d, e, grid=grid)
                assert w is not None, (d, e)
                assert chi(2, w, d, e).as_tuple() == (1, 1)


def test_criterion_07_ramified_disjunction_exhaustive():
    with criterion(7, 5, "non-norm disjunction for v(d)=1, v(e) in {1,3}"):
        for d in (2, -2, 10, -10):
            for v_e in (1, 3):
                for u in range(1, 16, 2):
                    e = Fraction(u) * 2 ** v_e
                    if rational_is_square(2, e / d):
                        continue
                    assert verify_ramified_disjunction(d, e), (d, e)


def test_criterion_09_cubic_forms():
    with criterion(9, 10, "irreducible cubic vanishes; x(x^2-e) shape delegates"):
        r = classify_cubic(7, 3, 0, 0, -2)
        assert r.outcome is Outcome.ZERO
        assert "irreducibility" in r.details
        r = classify_cubic(5, 2, 0, -5, 0, with_witness=True, grid=GRIDS[5])
        assert r.outcome is Outcome.Z2
        assert "delegated" in r.details
        assert r.witness is not None
        assert chi(5, Fraction(r.witness), 2, 5).as_tuple() == (1, 1)


def test_criterion_10_global_smoke():
    with criterion(10, 10, "d=-1, e=-2 over Q: bad places {2}, real place 0"):
        assert bad_places(-1, -2) == [2]
        reports = {r.place: r.result.outcome
                   for r in classify_all_places(-1, -2)}
        assert reports["real"] is Outcome.ZERO
        assert reports[2] is Outcome.Z2
        for p in (3, 5, 7, 11, 13, 29, 97, 101):
            assert classify_place(p, -1, -2).result.outcome is Outcome.ZERO


def test_criterion_11_scaling_invariance_fuzz():
    with criterion(11, 60, "500 random surfaces: classification scale-invariant"):
        rng = random.Random(20240817)
        primes = [2, 3, 5, 7, 11]
        pool = [Fraction(n) for n in range(-12, 13) if n] + \
            [Fraction(n, m) for n in (-7, -3, 1, 5, 9) for m in (2, 3, 4)]
        for _ in range(500):
            p = rng.choice(primes)
            d = rng.choice(pool)
            e = rng.choice(pool)
            lam = rng.choice(pool)
            base = classify_pair(p, d, e).outcome
            assert classify_pair(p, d * lam * lam, e).outcome is base
            assert classify_pair(p, d, e * lam ** 4).outcome is base
            assert classify_pair(p, d, e * p ** 4).outcome is base
