"""Command-line front end: classification, witness search, Hilbert symbols,
per-place reports over Q, and the verification suites.

Exit codes: 0 for a definite group ({0} or Z/2Z) or a passing verify run,
3 for out-of-scope inputs, 2 for malformed input, 1 for suite failures and
for a failed self-check (a classifier verdict its witness search contradicts).
All computation is deterministic; identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .chi import SearchGrid, chi, find_witness
from .globalq import DISCLAIMER, GlobalSplitError, classify_all_places
from .hilbert import hilbert, hilbert_oracle, symbol_route
from .padic import is_prime
from .surface import InconsistencyError, Outcome, check_witness, classify_cubic, classify_pair
from .verify import ALL_SUITES, run_suites

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_OUT_OF_SCOPE = 3


# 'a' or 'a/b' with an optional sign; Fraction alone would also take
# decimals and exponents, and 1e300000 is an int of 300,000 digits
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _rational(text: str) -> Fraction:
    """Parse 'a' or 'a/b' with optional sign; no decimals or exponents."""
    if _RATIONAL.fullmatch(text.strip()):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):  # a zero denominator, or
            pass                                 # too many digits for int()
    raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _prime(text: str) -> int:
    p = int(text)
    try:
        prime = is_prime(p)
    except ValueError as exc:  # beyond the proven range of the test
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not prime:
        raise argparse.ArgumentTypeError(f"{p} is not prime")
    return p


def _int_at_least(text: str, low: int) -> int:
    n = int(text)
    if n < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
    return n


def _window(text: str) -> int:
    return _int_at_least(text, 0)


def _depth(text: str) -> int:
    return _int_at_least(text, 1)


def _grid(args) -> SearchGrid:
    """The grid of --window/--depth.  A grid that will be searched is refused
    above its size cap here, outside any handler, so main exits 2."""
    grid = SearchGrid(args.window, args.depth)
    if getattr(args, "with_witness", True):
        grid.check_size(args.p)
    return grid


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def cmd_classify(args) -> int:
    if (args.e is None) == (args.cubic is None):
        print("error: provide exactly one of --e or --cubic", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.cubic is not None:
        try:
            coeffs = [_rational(t) for t in args.cubic.split(",")]
        except argparse.ArgumentTypeError as exc:
            print(f"error: --cubic: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        if len(coeffs) != 3:
            print("error: --cubic needs a,b,c", file=sys.stderr)
            return EXIT_INPUT_ERROR
        result = classify_cubic(args.p, args.d, *coeffs,
                                with_witness=args.with_witness, grid=_grid(args))
        surface = {"cubic": args.cubic, "d": str(args.d)}
    else:
        result = classify_pair(args.p, args.d, args.e,
                               with_witness=args.with_witness, grid=_grid(args))
        surface = {"d": str(args.d), "e": str(args.e)}
    payload = {"p": args.p, "surface": surface}
    payload.update(result.to_dict())
    human = f"{result.outcome.value}  ({result.reason})"
    if result.witness is not None:
        human += f"\nwitness: x = {result.witness}, chi = {result.details['chi']}"
    _emit(args, payload, human)
    return EXIT_OUT_OF_SCOPE if result.outcome is Outcome.OUT_OF_SCOPE else EXIT_OK


def cmd_hilbert(args) -> int:
    if args.oracle:
        value, route = hilbert_oracle(args.p, args.a, args.b), "conic brute-force oracle"
    else:
        value, route = hilbert(args.p, args.a, args.b), symbol_route(args.p)
    payload = {"p": args.p, "a": str(args.a), "b": str(args.b),
               "symbol": value, "route": route}
    _emit(args, payload, f"{value:+d}  [{route}]")
    return EXIT_OK


def cmd_witness(args) -> int:
    grid = _grid(args)
    # outside the handler, so zero d or e reaches main and exits 2
    verdict = classify_pair(args.p, args.d, args.e)
    try:
        w = find_witness(args.p, args.d, args.e, grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUT_OF_SCOPE
    # a search that contradicts the verdict either way reaches main, exit 1
    check_witness(args.p, args.d, args.e, verdict.outcome, w, grid)
    if w is None:
        payload = {"p": args.p, "d": str(args.d), "e": str(args.e),
                   "witness": None}
        _emit(args, payload, "no witness in the search grid")
        return EXIT_OK
    # chi refuses an x outside M, so its value certifies x_in_M
    value = chi(args.p, w, args.d, args.e)
    payload = {"p": args.p, "d": str(args.d), "e": str(args.e),
               "witness": str(w), "chi": list(value.as_tuple()),
               "certificate": {"x_in_M": "True", "chi": str(value.as_tuple())}}
    _emit(args, payload,
          f"x = {w}, chi = {value}  (x(x^2-e) is a norm; x and x^2-e are not)")
    return EXIT_OK


def cmd_global(args) -> int:
    try:
        reports = classify_all_places(args.d, args.e,
                                      with_witness=args.with_witness)
    except GlobalSplitError as exc:
        print(f"out of scope: {exc}", file=sys.stderr)
        return EXIT_OUT_OF_SCOPE
    places = [r.place for r in reports[:-1]]  # the last report is the real place
    payload = {"d": str(args.d), "e": str(args.e), "bad_places": places,
               "disclaimer": DISCLAIMER,
               "reports": [r.to_dict() for r in reports]}
    lines = [f"bad places: {places}"]
    for r in reports:
        lines.append(f"  v = {r.place}: {r.result.outcome.value} ({r.result.reason})")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suites(args.suite)
    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
    else:
        for r in results:
            status = "pass" if r["ok"] else "FAIL"
            print(f"{r['name']:<12} {status}  ({r['checks']} checks)")
            for f in r["failures"]:
                print(f"    {f}")
    return EXIT_OK if all(r["ok"] for r in results) else EXIT_SUITE_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chatelet",
        description="Degree-zero Chow groups of Chatelet surfaces over Q_p.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, grid=False):
        sp.add_argument("--json", action="store_true", help="emit JSON")
        if grid:
            sp.add_argument("--window", type=_window,
                            default=SearchGrid.max_abs_valuation,
                            help="search-grid valuation window half-width")
            sp.add_argument("--depth", type=_depth, default=None,
                            help="search-grid unit-residue digit depth")

    sp = sub.add_parser("classify", help="classify a surface over Q_p")
    sp.add_argument("-p", type=_prime, required=True)
    sp.add_argument("--d", type=_rational, required=True)
    sp.add_argument("--e", type=_rational, default=None)
    sp.add_argument("--cubic", default=None, metavar="a,b,c",
                    help="monic cubic coefficients for y^2 - d z^2 = f(x)")
    sp.add_argument("--with-witness", action="store_true")
    add_common(sp, grid=True)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("hilbert", help="Hilbert symbol (a,b)_p")
    sp.add_argument("-p", type=_prime, required=True)
    sp.add_argument("a", type=_rational)
    sp.add_argument("b", type=_rational)
    sp.add_argument("--oracle", action="store_true",
                    help="use the conic brute-force oracle route")
    add_common(sp)
    sp.set_defaults(func=cmd_hilbert)

    sp = sub.add_parser("witness", help="search for a chi = (1,1) witness")
    sp.add_argument("-p", type=_prime, required=True)
    sp.add_argument("--d", type=_rational, required=True)
    sp.add_argument("--e", type=_rational, required=True)
    add_common(sp, grid=True)
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("global", help="classify at every place of Q")
    sp.add_argument("--d", type=_rational, required=True)
    sp.add_argument("--e", type=_rational, required=True)
    sp.add_argument("--with-witness", action="store_true")
    add_common(sp)
    sp.set_defaults(func=cmd_global)

    sp = sub.add_parser("verify", help="run the cross-checking suites")
    sp.add_argument("--suite", action="append", default=None,
                    choices=sorted(ALL_SUITES), help="restrict to one suite")
    add_common(sp)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits itself on bad flags; fold that into our exit codes
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InconsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SUITE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
