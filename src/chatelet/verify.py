"""Cross-checking suites: every closed-form route against an independent one.

Each suite returns a summary dict {"name", "ok", "checks", "failures"} and is
deterministic, so CLI runs and CI runs agree bit-for-bit.  Covered: symbol
axioms, norm subgroup against Hilbert symbol, the unit-filtration non-norm
window, the witness dichotomy, and the diagonal law.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .chi import SearchGrid, chi, find_witness, sample_M, verify_ramified_disjunction
from .hilbert import hilbert, hilbert_oracle
from .padic import rational_is_square, rational_square_class_rep, square_class_reps
from .quadratic import build_extension, lambda_base, lambda_ext
from .surface import InconsistencyError, Outcome, check_witness, classify_pair


def _summary(name, checks, failures):
    return {"name": name, "ok": not failures, "checks": checks,
            "failures": failures[:20]}


def suite_hilbert() -> dict:
    """Symbol axioms and formula/oracle agreement over all square classes."""
    checks, failures = 0, []
    for p in (2, 3, 5, 7, 13):
        reps = square_class_reps(p)
        table = {}
        for a, b in product(reps, repeat=2):
            table[(a, b)] = hilbert(p, a, b)
            checks += 1
            if table[(a, b)] != hilbert_oracle(p, a, b):
                failures.append(f"(a={a},b={b})_{p}: formula != conic oracle")
        for a, b in product(reps, repeat=2):
            checks += 1
            if table[(a, b)] != table[(b, a)]:
                failures.append(f"symmetry fails at ({a},{b})_{p}")
        for a, b, c in product(reps, repeat=3):
            checks += 1
            if hilbert(p, a * b, c) != table[(a, c)] * table[(b, c)]:
                failures.append(f"bilinearity fails at ({a},{b},{c})_{p}")
        # (a, 1-a) = 1 over small rationals embedded in Q_p
        for a in [Fraction(n, m) for n in range(-9, 10) for m in (1, 2, 3, 4)]:
            if a in (0, 1):
                continue
            checks += 1
            if hilbert(p, a, 1 - a) != 1:
                failures.append(f"(a,1-a) != 1 at a={a}, p={p}")
    return _summary("hilbert", checks, failures)


def suite_norms() -> dict:
    """is_norm by the norm subgroup and by the Hilbert symbol (at odd p the
    valuation criterion) must agree on every square class, for every
    nontrivial d."""
    checks, failures = 0, []
    for p in (2, 3, 5, 7):
        reps = square_class_reps(p)
        for d in reps[1:]:
            L = build_extension(p, d)
            for x in reps:
                routes = {"subgroup": L.is_norm(x), "hilbert": hilbert(p, x, d) == 1}
                checks += 1
                if len(set(routes.values())) != 1:
                    failures.append(f"p={p}, d={d}, x={x}: {routes}")
    return _summary("norms", checks, failures)


RAMIFIED_2ADIC_S = {-1: 1, -5: 1, 2: 2, -2: 2, 10: 2, -10: 2}


def suite_filtration() -> dict:
    """s-invariants of the six ramified 2-adic extensions, the induced norm
    maps on the unit filtration, and the non-norm window at level s."""
    checks, failures = 0, []
    for d, expected_s in RAMIFIED_2ADIC_S.items():
        L = build_extension(2, d)
        checks += 1
        if L.s != expected_s:
            failures.append(f"s(Q_2(sqrt({d}))) = {L.s}, expected {expected_s}")
            continue
        s = L.s
        # level-i quotients map isomorphically below s: lambda commutes with N
        for i in range(1, s):
            x = L.element(1, 0) + L.pi_L  # 1 + pi_L, a generator of U_i/U_{i+1}
            checks += 1
            if lambda_ext(L, i, x) != lambda_base(L, i, x.norm()):
                failures.append(f"d={d}: lambda mismatch below s at i={i}")
        # gamma in U_s \ U_{s+1} is never a norm (residues mod 2^{s+2})
        for t in range(1, 2 ** (s + 2), 2):
            gamma = 1 + t * 2 ** s  # v(gamma - 1) = s, as t is odd
            checks += 1
            if L.is_norm(gamma):
                failures.append(f"d={d}: gamma={gamma} in U_{s}\\U_{s+1} is a norm")
        # every element of U_{s+1} is a norm (sampled residues)
        for t in range(0, 64):
            gamma = 1 + t * 2 ** (s + 1)
            checks += 1
            if not L.is_norm(gamma):
                failures.append(f"d={d}: gamma={gamma} in U_{s+1} is not a norm")
    return _summary("filtration", checks, failures)


def _e_grid(p: int):
    for base in range(-20, 21):
        if base == 0:
            continue
        for j in range(4):
            yield Fraction(base) * Fraction(p) ** j


def suite_oracle() -> dict:
    """Classifier vs witness search: Z/2Z iff a (1,1)-witness exists; {0}
    forces chi = (0,0) on all of sampled M.  Also checks the diagonal law."""
    checks, failures = 0, []
    grid = SearchGrid()
    for p in (2, 3, 5, 7):
        small = SearchGrid(max_abs_valuation=3,
                           residue_depth=4 if p == 2 else 1)
        for d in square_class_reps(p)[1:]:
            for e in _e_grid(p):
                if rational_is_square(p, e):
                    continue
                res = classify_pair(p, d, e)
                checks += 1
                try:
                    check_witness(p, d, e, res.outcome,
                                  find_witness(p, d, e, grid), grid)
                except InconsistencyError as exc:
                    failures.append(str(exc))
                    continue
                # a Z/2Z verdict excludes L = E, which classify_pair answers
                # {0}, so the diagonal law applies on every Z/2Z surface
                zero = res.outcome is Outcome.ZERO
                for x in sample_M(p, d, e, small):
                    checks += 1
                    value = chi(p, x, d, e)
                    if zero and value.as_tuple() != (0, 0):
                        failures.append(
                            f"p={p},d={d},e={e}: chi({x})={value} on a "
                            f"zero surface")
                    elif not zero and value.first != value.second:
                        failures.append(
                            f"p={p},d={d},e={e}: off-diagonal chi({x})={value}")
    return _summary("oracle", checks, failures)


def suite_disjunction() -> dict:
    """v(d)=1 disjunction over Q_2, exhaustively over unit residues mod 16."""
    checks, failures = 0, []
    for du in range(1, 16, 2):
        d = 2 * du
        for v_e in (1, 3):
            for eu in range(1, 16, 2):
                e = eu * 2 ** v_e
                if rational_square_class_rep(2, d) == rational_square_class_rep(2, e):
                    continue
                checks += 1
                if not verify_ramified_disjunction(d, e):
                    failures.append(f"d={d}, e={e}: disjunction fails")
    return _summary("disjunction", checks, failures)


ALL_SUITES = {
    "hilbert": suite_hilbert,
    "norms": suite_norms,
    "filtration": suite_filtration,
    "oracle": suite_oracle,
    "disjunction": suite_disjunction,
}


def run_suites(names=None) -> list[dict]:
    names = names or list(ALL_SUITES)
    return [ALL_SUITES[n]() for n in names]
