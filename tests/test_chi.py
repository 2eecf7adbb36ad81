"""The chi invariant on the norm set M and the witness search."""

import hashlib
import time
from fractions import Fraction

import pytest

from chatelet.chi import MAX_GRID_SIZE, ChiValue, SearchGrid, chi, find_witness, in_M, sample_M, verify_ramified_disjunction
from chatelet.padic import rational_is_square, square_class_reps
from chatelet.quadratic import build_extension
from chatelet.surface import Outcome, classify_pair
from chatelet.verify import _e_grid

GRID2 = SearchGrid(max_abs_valuation=3, residue_depth=4)
GRID_ODD = SearchGrid(max_abs_valuation=3, residue_depth=1)


class TestMembership:
    def test_zero_always_in_M(self):
        assert in_M(5, 0, 2, 5)
        assert in_M(2, 0, 5, 2)

    def test_membership_is_norm_condition(self):
        # over Q_3 with d = 2: x = 1 gives 1*(1-3) = -2, a norm from
        # Q_3(sqrt 2) iff v(-2) is even (unramified criterion)
        assert in_M(3, 1, 2, 3)
        # (1/3)((1/9) - 3) = -26/27 has odd valuation -3, hence not a norm
        assert not in_M(3, Fraction(1, 3), 2, 3)

    def test_zero_or_two_nonnorm_factors(self):
        # for x in M \ {0} the factors x and x^2 - e are non-norms in pairs
        for (p, d, e, grid) in [(2, 5, 2, GRID2), (3, 2, 3, GRID_ODD),
                                (5, 2, 5, GRID_ODD)]:
            L = build_extension(p, d)
            for x in sample_M(p, d, e, grid=grid):
                if x == 0:
                    continue
                bad = sum(1 for t in (x, x * x - e) if not L.is_norm(t))
                assert bad in (0, 2), (p, d, e, x)


class TestChi:
    def test_defined_only_on_M(self):
        with pytest.raises(ValueError):
            chi(3, Fraction(1, 3), 2, 3)

    def test_diagonal_law(self):
        # the two coordinates agree everywhere on M
        for (p, d, e, grid) in [(2, 5, 2, GRID2), (3, 2, 3, GRID_ODD)]:
            for x in sample_M(p, d, e, grid=grid):
                value = chi(p, x, d, e)
                assert value.first == value.second, (p, d, e, x)

    def test_trivial_when_extensions_coincide(self):
        # e = lambda^2 d defines the same extension as d; then x^2 - e and
        # -e are norms from L, so chi vanishes on M
        for p, grid in [(2, GRID2), (3, GRID_ODD), (5, GRID_ODD), (7, GRID_ODD)]:
            for d in square_class_reps(p)[1:]:
                for lam in (1, 3, Fraction(1, p), p, Fraction(5, 7)):
                    e = d * lam * lam
                    for x in sample_M(p, d, e, grid=grid):
                        assert chi(p, x, d, e).as_tuple() == (0, 0), (p, d, e, x)

    def test_value_at_zero(self):
        # chi(0) tests -e against the norms of L
        L = build_extension(2, 5)
        expected = 0 if L.is_norm(-2) else 1
        assert chi(2, 0, 5, 2).first == expected

    def test_chivalue_protocol(self):
        v = ChiValue(1, 1)
        assert tuple(v) == (1, 1)
        assert v.as_tuple() == (1, 1)

    @pytest.mark.parametrize("call", [
        lambda: sample_M(3, 2, 4),
        lambda: find_witness(3, 2, 4),
        lambda: chi(3, 0, 2, 4),
    ], ids=["sample_M", "find_witness", "chi"])
    def test_square_e_refused(self, call):
        # e = 4 splits x^2 - e, so there is no chi map to sample or search
        with pytest.raises(ValueError, match="e is a square"):
            call()


class TestWitness:
    def test_witness_found_in_z2_case(self):
        w = find_witness(2, 5, 2, grid=GRID2)
        assert w is not None
        assert chi(2, w, 5, 2).as_tuple() == (1, 1)

    def test_no_witness_when_extensions_coincide(self):
        assert find_witness(5, 2, 18, grid=GRID_ODD) is None

    def test_no_witness_in_zero_case(self):
        # v(e) = 0 mod 4 with L unramified: classifier says 0
        assert find_witness(2, 5, 3, grid=GRID2) is None

    def test_witness_is_deterministic(self):
        a = find_witness(2, 5, 2, grid=GRID2)
        b = find_witness(2, 5, 2, grid=GRID2)
        assert a == b

    def test_grid_candidate_order(self):
        g = SearchGrid(max_abs_valuation=1, residue_depth=1)
        first = list(g.candidates(3))[:4]
        assert first[0] == 0
        assert all(x != 0 for x in first[1:])


class TestScalingInvariance:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_witness_scales_with_e(self, p):
        # e and e * p^(4j) give the same surface under x -> p^(2j) x, so the
        # search finds the scaled witness, and one exists iff the verdict is
        # Z/2Z, whatever v(e)
        for d in square_class_reps(p)[1:]:
            for e in _e_grid(p):
                if rational_is_square(p, e):
                    continue
                w = find_witness(p, d, e)
                for j in range(-3, 4):
                    scale = Fraction(p) ** (2 * j)
                    e_j = e * scale * scale
                    w_j = find_witness(p, d, e_j)
                    assert w_j == (None if w is None else w * scale), (p, d, e, j)
                    z2 = classify_pair(p, d, e_j).outcome is Outcome.Z2
                    assert (w_j is not None) == z2, (p, d, e, j)
                    if z2:
                        assert chi(p, w_j, d, e_j).as_tuple() == (1, 1), (p, d, e, j)


class TestSearchGrid:
    def test_candidates_are_unique(self):
        xs = list(GRID2.candidates(2))
        assert len(xs) == len(set(xs))

    def test_valuation_window_respected(self):
        from chatelet.padic import frac_val_unit
        for x in GRID_ODD.candidates(5):
            if x == 0:
                continue
            assert abs(frac_val_unit(5, x)[0]) <= 3


    @pytest.mark.parametrize("p,window,depth", [
        (2, 3, 4), (3, 1, 1), (5, 0, 2), (7, 2, 0), (2, -1, 3)])
    def test_size_counts_candidates(self, p, window, depth):
        g = SearchGrid(max_abs_valuation=window, residue_depth=depth)
        assert g.size(p) == len(list(g.candidates(p)))

    def test_default_grids_are_under_the_cap(self):
        assert SearchGrid().size(13) == 2029
        for p in (2, 3, 5, 7, 11, 13):
            SearchGrid().check_size(p)

    def test_sample_M_refuses_grid_above_cap(self):
        g = SearchGrid(residue_depth=40)
        assert g.size(2) == 1 + 13 * 2 ** 39 > MAX_GRID_SIZE
        start = time.monotonic()
        with pytest.raises(ValueError, match="above the cap"):
            sample_M(2, 5, 3, g)
        assert time.monotonic() - start < 1.0


class TestRamifiedDisjunction:
    def test_example_d2_e6(self):
        assert verify_ramified_disjunction(2, 6)

    def test_depth_three_variant(self):
        assert verify_ramified_disjunction(2, 24)

    def test_rejects_wrong_d_valuation(self):
        with pytest.raises(ValueError):
            verify_ramified_disjunction(3, 6)

    def test_rejects_wrong_e_valuation(self):
        with pytest.raises(ValueError):
            verify_ramified_disjunction(2, 3)

    def test_rejects_isomorphic_extensions(self):
        with pytest.raises(ValueError):
            verify_ramified_disjunction(2, 2)

    def test_exhaustive_over_unit_window(self):
        # all ramified d of valuation 1, both e-depths, e-units mod 16
        for d in (2, -2, 10, -10):
            for v_e in (1, 3):
                for u in range(1, 16, 2):
                    e = Fraction(u * 2 ** v_e)
                    if rational_is_square(2, Fraction(e, d)):
                        continue  # isomorphic L, E: outside the disjunction's scope
                    assert verify_ramified_disjunction(d, e), (d, e)


class TestLazyGrid:
    def test_large_prime_witness_within_budget(self):
        # depth 2 at p = 10007 has ~10^8 unit residues; the grid draws them
        # lazily, so the witness at the front of the order comes back at once
        start = time.monotonic()
        assert find_witness(10007, 10007, 5) == 5
        assert time.monotonic() - start < 2.0

    def test_order_is_valuation_then_residue(self):
        g = SearchGrid(max_abs_valuation=1, residue_depth=1)
        assert [str(x) for x in g.candidates(3)] == [
            "0", "1", "2", "1/3", "2/3", "3", "6"]


# sample_M on the default grid and the concatenated chi string over its
# members, recorded from the Fraction-based implementation the integer
# square-class kernel replaced: (p, d, e) -> (member count, sha256 of the
# comma-joined members, sha256 of the chi string)
PINNED_DEFAULT_GRID = {
    (2, 5, 2): (113, "664b2e1cfe257928f0a3b071dd6b3aad778857598af5da5eef09a480c75bd191",
                "d752113b67d834131330e4a68b57daef10b099b206862d7fcec0d0800b3c092a"),
    (2, -1, 6): (105, "30d43dd120d1bbc5ca83c3af68b1bb66348ada87484cee6ac77bb3b82a5b108b",
                 "46d0afb9077ef783dec167a61117c6c30d9f866bdc68e0bd6dc90678de0a0317"),
    (2, 2, -3): (105, "9d0406c081864c893a438bcfef683b63929da49051a81695c19caaf7d4387cab",
                 "8cb549a54193627627a2c827b2c5610e6b73112217d3652a6ff99732ca5c540e"),
    (2, 10, 12): (113, "74c78a4393cf089eac91e59faa36479f4b884f703ac888cdb027f5aefb66290e",
                  "544edbee316b71a0bc2ef83b975751fec917c02395c9bf7bb4d91eff60ed8911"),
    (3, 2, 3): (43, "9a255bd07325d7126fe9464a45508c4ceff047ace30888290012d208622c5d95",
                "53906a54d5a3be0387e3edecb0f358ef825eeab194e4bd321d95140714c804e2"),
    (3, 3, 2): (40, "629753728b730285529dc6b56cbcdfe7bdc65710595cccbbad2ffa0da89d1ddd",
                "d6ddb2c44af2bb09cc553587e546458eda018855d4bf3f715e91fe2a6e8629dd"),
    (5, 2, 5): (141, "aebe06b67377dfd8b8a951b4b23eb2020857b1c21fa339350d91661b0aa96629",
                "21531f17c29510f5dd8821df3fc5ad799a0212cdbfb3f8aeb996be6f9ce7602d"),
    (7, 3, 7): (295, "4ae224cb636621376f3d9e46585f61f71ccc23945229131a3760ffe4b89a8654",
                "b93bb95d6380197c4a1daa30e72039b69d422e6dab0ed52dd18189b118f6f73f"),
    (13, 2, 2197): (937, "0059c84105c940ed73dcb616a13a9d9df754f334e04a91724fda335ed208e641",
                    "699d2e2d5e6884286cc53715714301b3c610099c7cb23ca390c4373821fa8ec5"),
    (2, Fraction(-5, 7), Fraction(3, 8)): (
        113, "d07e52025e4354ef9cb76e82c59a71b3073537b0e92aae887e7792670be39b97",
        "fd10601b8f2a7b7c2cad307da892b4a7ddbec6572f202859ade8d6c9f3c31f18"),
    (5, Fraction(3, 5), Fraction(5, 4)): (
        131, "1e3622fede76060642565071ff542a92f508b148a80ac52bb984c06266c5efe7",
        "d90264adf3a4c8c39ac176dac7cd6067f886597c5a5dceb232458fdf3cb7f6fd"),
    (3, Fraction(6, 5), Fraction(7, 27)): (
        40, "fd2ae17bc938fbdd36a28a5a9ea8105978286144f5c2dab41f0adcf0210c7904",
        "4c7f3da0386523b102328418c28d886bb9dc9c555671884e8fcc9bcba407e819"),
}

PINNED_SMALL_GRID = {
    (2, 5, 2): (["0", "1", "3", "2", "6"], "1100001111"),
    (2, -1, 6): (["0", "3", "1/2", "6"], "00110011"),
    (3, 3, 2): (["0", "2", "5", "8", "2/3", "5/3", "8/3", "6", "15", "24"],
                "00111111000000000000"),
}


def _chi_string(p, members, d, e):
    return "".join("%d%d" % chi(p, x, d, e).as_tuple() for x in members)


class TestPinnedOutputs:
    @pytest.mark.parametrize("case", sorted(PINNED_DEFAULT_GRID, key=str))
    def test_default_grid(self, case):
        p, d, e = case
        members = sample_M(p, d, e)
        digest = hashlib.sha256(",".join(map(str, members)).encode()).hexdigest()
        chis = hashlib.sha256(_chi_string(p, members, d, e).encode()).hexdigest()
        assert (len(members), digest, chis) == PINNED_DEFAULT_GRID[case]

    @pytest.mark.parametrize("case", sorted(PINNED_SMALL_GRID))
    def test_small_grid(self, case):
        p, d, e = case
        members = sample_M(p, d, e, SearchGrid(max_abs_valuation=1, residue_depth=2))
        assert ([str(x) for x in members], _chi_string(p, members, d, e)) == \
            PINNED_SMALL_GRID[case]
