"""Command-line interface: exit codes, JSON output, schema conformance."""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from chatelet import cli
from chatelet.hilbert import hilbert
from chatelet.surface import LocalChowResult, Outcome

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def hilbert_recheck(p, d, e, x):
    """x is in M with chi(x) = (1,1), by Hilbert symbols: a is a norm from
    Q_p(sqrt d) iff (a, d)_p = 1."""
    if x == 0:
        return hilbert(p, -e, d) == -1
    return (hilbert(p, x, d) == -1 and hilbert(p, x * x - e, d) == -1
            and hilbert(p, x * (x * x - e), d) == 1)


def load_schema(name):
    with open(SCHEMAS / name) as fh:
        return json.load(fh)


class TestClassify:
    def test_z2_exit_zero(self, capsys):
        code, out, _ = run(capsys, "classify", "-p", "5", "--d", "2", "--e", "5")
        assert code == 0
        assert "Z/2Z" in out

    def test_zero_exit_zero(self, capsys):
        code, out, _ = run(capsys, "classify", "-p", "2", "--d", "5", "--e", "3")
        assert code == 0
        assert out.startswith("0")

    def test_out_of_scope_exit_three(self, capsys):
        code, out, _ = run(capsys, "classify", "-p", "5", "--d", "2", "--e", "4")
        assert code == 3

    def test_bad_input_exit_two(self, capsys):
        code, _, err = run(capsys, "classify", "-p", "6", "--d", "2", "--e", "5")
        assert code == 2

    def test_requires_e_or_cubic(self, capsys):
        code, _, err = run(capsys, "classify", "-p", "5", "--d", "2")
        assert code == 2

    def test_malformed_cubic_exit_two(self, capsys):
        code, out, err = run(capsys, "classify", "-p", "3", "--d", "2",
                             "--cubic", "1,x,2")
        assert code == 2
        assert err.startswith("error:") and out == ""

    @pytest.mark.parametrize("argv", [
        ("classify", "-p", "5", "--d", "2", "--e", "1e100000"),
        ("classify", "-p", "5", "--d", "2", "--e", "1e300000"),
        ("classify", "-p", "5", "--d", "2", "--cubic", "0,0,0.5"),
        ("hilbert", "-p", "5", "0.5", "3"),
    ], ids=["1e100000", "1e300000", "cubic-decimal", "hilbert-decimal"])
    def test_decimal_or_exponent_exit_two(self, capsys, argv):
        # Fraction alone takes both; an exponent builds an int past the
        # 4300-digit guard, which then took p out one factor at a time
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "not a rational" in err and "Traceback" not in err and out == ""
        assert time.monotonic() - start < 2.0

    def test_precision_option_is_gone(self, capsys):
        # every value is exact, so there is no working precision to set
        code, _, _ = run(capsys, "classify", "-p", "2", "--d", "5", "--e", "2",
                         "--precision", "30")
        assert code == 2

    def test_cubic_form(self, capsys):
        code, out, _ = run(capsys, "classify", "-p", "7", "--d", "3",
                           "--cubic", "0,0,-2")
        assert code == 0
        assert out.startswith("0")

    def test_cubic_above_residue_cap_exit_two(self, capsys):
        # the root descent would scan about 6 * 10^24 residues
        start = time.monotonic()
        code, out, err = run(capsys, "classify", "-p", "2999999999999999999999957",
                             "--d", "3", "--cubic", "0,0,-2")
        assert code == 2
        assert err.startswith("error:") and "cap" in err and out == ""
        assert time.monotonic() - start < 2.0

    def test_cubic_below_residue_cap(self, capsys):
        code, out, _ = run(capsys, "classify", "-p", "1000003", "--d", "3",
                           "--cubic", "0,0,-2")
        assert code == 0
        assert out.startswith("0")

    def test_json_matches_schema(self, capsys):
        schema = load_schema("result.json")
        for argv in (["classify", "-p", "5", "--d", "2", "--e", "5", "--json"],
                     ["classify", "-p", "2", "--d", "5", "--e", "2",
                      "--with-witness", "--json"],
                     ["classify", "-p", "7", "--d", "3", "--cubic", "0,0,-2",
                      "--json"]):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            jsonschema.validate(json.loads(out), schema)

    def test_json_is_deterministic(self, capsys):
        argv = ["classify", "-p", "2", "--d", "5", "--e", "2",
                "--with-witness", "--json"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestHilbert:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "hilbert", "-p", "2", "--", "-1", "-1")
        assert code == 0
        assert out.strip().startswith("-1")

    def test_large_prime_within_budget(self, capsys):
        start = time.monotonic()
        code, out, _ = run(capsys, "hilbert", "-p", "1000000000000000003",
                           "--", "2", "3")
        assert code == 0
        assert time.monotonic() - start < 2.0

    def test_prime_beyond_proven_range_exit_two(self, capsys):
        code, _, err = run(capsys, "hilbert", "-p", "3317044064679887385962123",
                           "--", "2", "3")
        assert code == 2
        assert "proven range" in err

    def test_oracle_flag(self, capsys):
        code, out, _ = run(capsys, "hilbert", "-p", "2", "--oracle", "--",
                           "-1", "-1")
        assert code == 0
        assert "-1" in out and "oracle" in out

    def test_oracle_above_cap_exit_two(self, capsys):
        # m = 1000003^3, far above the oracle's modulus cap
        start = time.monotonic()
        code, out, err = run(capsys, "hilbert", "-p", "1000003", "--oracle",
                             "--", "2", "1000003")
        assert code == 2
        assert err.startswith("error:") and "cap" in err and out == ""
        assert time.monotonic() - start < 2.0


class TestWitness:
    def test_witness_output(self, capsys):
        code, out, _ = run(capsys, "witness", "-p", "2", "--d", "5", "--e", "2",
                           "--window", "3", "--depth", "4")
        assert code == 0
        assert "chi" in out

    def test_no_witness_message(self, capsys):
        code, out, _ = run(capsys, "witness", "-p", "2", "--d", "5", "--e", "3",
                           "--window", "3", "--depth", "4")
        assert code == 0
        assert "no witness" in out

    @pytest.mark.parametrize("d, e, expected, message", [
        ("0", "2", 2, "d and e must be nonzero"),
        ("2", "0", 2, "d and e must be nonzero"),
        ("4", "2", 3, "d is a square"),
        ("2", "4", 3, "e is a square"),
    ])
    def test_zero_is_bad_input_and_square_is_out_of_scope(self, capsys, d, e,
                                                          expected, message):
        # as in classify: zero d or e is malformed input, and a square d or e
        # is a split case
        start = time.monotonic()
        code, out, err = run(capsys, "witness", "-p", "3", "--d", d, "--e", e)
        assert code == expected
        assert err.startswith("error:") and message in err and out == ""
        assert time.monotonic() - start < 2.0

    def test_grid_above_cap_exit_two(self, capsys):
        # a {0} surface: the 13 * 2^39-point grid would be scanned to the end
        start = time.monotonic()
        code, out, err = run(capsys, "witness", "-p", "2", "--d", "5", "--e", "3",
                             "--depth", "40")
        assert code == 2
        assert err.startswith("error:") and "cap" in err and out == ""
        assert time.monotonic() - start < 2.0

    def test_classify_with_witness_grid_above_cap_exit_two(self, capsys):
        start = time.monotonic()
        code, out, err = run(capsys, "classify", "-p", "2", "--d", "5", "--e", "2",
                             "--with-witness", "--depth", "40")
        assert code == 2
        assert err.startswith("error:") and "cap" in err and out == ""
        assert time.monotonic() - start < 2.0

    @pytest.mark.parametrize("argv", [
        ("witness", "-p", "3", "--d", "3", "--e", "2", "--depth", "-1"),
        ("witness", "-p", "3", "--d", "3", "--e", "2", "--depth", "0"),
        ("witness", "-p", "3", "--d", "3", "--e", "2", "--window", "-1"),
        ("classify", "-p", "3", "--d", "3", "--e", "2", "--with-witness",
         "--depth", "0"),
    ])
    def test_empty_grid_arguments_exit_two(self, capsys, argv):
        # depth 0 leaves no unit residues and a negative window no
        # valuations: the grid is {0} alone, which holds no witness even on
        # these Z/2Z surfaces
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "must be at least" in err and out == ""
        assert time.monotonic() - start < 2.0

    def test_self_check_failure_exit_one(self, capsys):
        # a Z/2Z surface whose grid, {0, 1}, holds no witness: classify
        # --with-witness fails its own witness check, and witness must not
        # print a "no witness" that reads like {0}
        for argv in (
                ("classify", "-p", "2", "--d", "-1", "--e", "-10",
                 "--with-witness", "--window", "0", "--depth", "1"),
                ("witness", "-p", "2", "--d", "-1", "--e", "-10",
                 "--window", "0", "--depth", "1")):
            start = time.monotonic()
            code, out, err = run(capsys, *argv)
            assert code == 1, argv
            assert err.startswith("error:") and err.count("\n") == 1 and out == ""
            assert "Traceback" not in err
            assert time.monotonic() - start < 2.0

    def test_witness_contradicting_a_zero_verdict_exit_one(self, capsys,
                                                           monkeypatch):
        # witness checks the verdict in both directions: a witness found on a
        # surface classified {0} is an internal contradiction, not an answer
        monkeypatch.setattr(cli, "classify_pair", lambda p, d, e: LocalChowResult(
            Outcome.ZERO, "forced {0} verdict"))
        code, out, err = run(capsys, "witness", "-p", "7", "--d", "7", "--e", "3")
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1 and out == ""

    @pytest.mark.parametrize("command", ["classify", "witness"])
    @pytest.mark.parametrize("p, d, e, expected", [
        (2, "-1", "6291456", "3072"),  # e = 3 * 2^21
        (7, "7", "67618020872076774263589747", "4747561509943"),  # 3 * 7^30
        (3, "2", str(Fraction(2, 3 ** 21)), None),
        (5, "2", str(3 * 5 ** 401), None),
    ], ids=["2^21", "7^30", "3^-21", "5^401"])
    def test_witness_found_whatever_the_valuation_of_e(self, capsys, command,
                                                        p, d, e, expected):
        # the search runs on e / p^(4k) with v(e / p^(4k)) in 0..3, so the
        # default valuation window holds a witness for every v(e); these
        # witnesses once lay beyond it and the self-check exited 1
        argv = [command, "-p", str(p), "--d", d, "--e", e, "--json"]
        if command == "classify":
            argv.append("--with-witness")
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        x = json.loads(out)["witness"]
        assert expected is None or x == expected
        assert hilbert_recheck(p, Fraction(d), Fraction(e), Fraction(x))
        assert time.monotonic() - start < 2.0

    def test_unsearched_grid_is_not_refused(self, capsys):
        code, out, _ = run(capsys, "classify", "-p", "2", "--d", "5", "--e", "2",
                           "--depth", "40")
        assert code == 0
        assert out.startswith("Z/2Z")


class TestGlobal:
    def test_places_listed(self, capsys):
        code, out, _ = run(capsys, "global", "--d", "-1", "--e", "-2")
        assert code == 0
        assert "[2]" in out and "real" in out

    def test_json_matches_schema(self, capsys):
        schema = load_schema("place_report.json")
        code, out, _ = run(capsys, "global", "--d", "-1", "--e", "-2",
                           "--with-witness", "--json")
        assert code == 0
        jsonschema.validate(json.loads(out), schema)

    def test_split_d_exit_three(self, capsys):
        code, _, err = run(capsys, "global", "--d", "4", "--e", "3")
        assert code == 3


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "disjunction")
        assert code == 0
        assert "pass" in out

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nosuch")
        assert code == 2


class TestPrecision:
    """Every value is exact, so CHATELET_PRECISION no longer means anything."""

    def test_env_variable(self, capsys, monkeypatch):
        argv = ("classify", "--json", "-p", "3", "--d", "2", "--e", "3")
        plain = run(capsys, *argv)
        monkeypatch.setenv("CHATELET_PRECISION", "20")
        assert run(capsys, *argv) == plain
        assert plain[0] == 0

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("CHATELET_PRECISION", "zero")
        code, _, err = run(capsys, "classify", "-p", "3", "--d", "2",
                           "--e", "3")
        assert code == 0 and err == ""
