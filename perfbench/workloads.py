"""Seeded requests, their execution and their independent checks.

Every workload is a sequence of rounds.  Round ``r`` of seed ``s`` is drawn
from its own generator, so the same (seed, round) always gives the same
requests, and every round of a workload has the same fixed mix of request
shapes.  The cost of a request depends on its shape (prime, valuations,
closeness of cubic roots), not on the seeded unit parts and square factors,
so every round costs about the same and runs of different seeds do the same
amount of work.

The checks do not trust the route under test: verdicts are compared with
the closed-form table evaluated on an independent square-class computation
(``is_square`` below), witnesses are rechecked through Hilbert symbols, and
CLI output is compared with the in-process library payload.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt

import chatelet as ct
from chatelet.globalq import DISCLAIMER

ZERO, Z2, OUT = "0", "Z/2Z", "out-of-scope"
GLOBAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


# -- independent p-adic arithmetic -------------------------------------------

def val_unit(p: int, q: Fraction) -> tuple[int, int]:
    """(v_p(q), u) with q = p^v * a/b and u = a*b, an integer unit in the
    square class of q's unit part."""
    n, d, v = q.numerator, q.denominator, 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v, n * d


def is_square(p: int, q: Fraction) -> bool:
    v, u = val_unit(p, q)
    if v % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return pow(u % p, (p - 1) // 2, p) == 1


def expected_pair(p: int, d: Fraction, e: Fraction) -> str:
    """A0(X)0 of y^2 - d z^2 = x(x^2 - e) over Q_p by the closed-form table."""
    if is_square(p, d):
        return ZERO
    if is_square(p, e):
        return OUT
    if is_square(p, d * e):
        return ZERO
    if p != 2:
        return Z2
    v_d, u_d = val_unit(2, d)
    if v_d % 2 == 0 and u_d % 8 == 5:  # L = Q_2(sqrt 5), unramified
        return ZERO if val_unit(2, e)[0] % 4 == 0 else Z2
    return Z2


def expected_place(place, d: Fraction, e: Fraction) -> str:
    if place == "real":
        return ZERO if e < 0 else OUT
    p = place
    if p != 2 and val_unit(p, e)[0] == 0 and is_square(p, e) and not is_square(p, d):
        return ZERO  # split fibre with unit roots
    return expected_pair(p, d, e)


def witness_error(p: int, d: Fraction, e: Fraction, x) -> str | None:
    """None when x is in M with chi(x) = (1,1), rechecked by Hilbert symbols
    (a is a norm from Q_p(sqrt d) iff (a, d)_p = 1)."""
    if x is None:
        return "Z/2Z verdict without a witness"
    x = Fraction(x)
    if x == 0:
        ok = ct.hilbert(p, -e, d) == -1
    else:
        ok = (ct.hilbert(p, x * (x * x - e), d) == 1
              and ct.hilbert(p, x, d) == -1
              and ct.hilbert(p, x * x - e, d) == -1)
    return None if ok else f"witness {x} fails the Hilbert-symbol recheck"


def cubic_disc(a: Fraction, b: Fraction, c: Fraction) -> Fraction:
    return 18 * a * b * c - 4 * a ** 3 * c + a * a * b * b - 4 * b ** 3 - 27 * c * c


def oracle_cells(p: int, a: Fraction, b: Fraction) -> int:
    """m^2, the size of hilbert_oracle's residue table for (a, b)."""
    if is_square(p, a) or is_square(p, b):
        return 0
    delta = (p == 2) + max(val_unit(p, a)[0] % 2, val_unit(p, b)[0] % 2)
    return p ** (2 * (2 * delta + 1))


# -- seeded inputs -------------------------------------------------------------

def _unit(rng: random.Random, p: int, square: bool | None = None) -> int:
    """A signed integer p-adic unit, of the given squareness when asked."""
    while True:
        u = rng.choice((1, -1)) * rng.randrange(1, 8 * p * p)
        if u % p and (square is None or is_square(p, Fraction(u)) == square):
            return u


def _lam(rng: random.Random, p: int, p_power: bool = True) -> Fraction:
    """A random rational; with p_power it may carry p^j, |j| <= 2."""
    lam = Fraction(rng.randrange(1, 40), rng.randrange(1, 40))
    if lam.numerator % p == 0 or lam.denominator % p == 0:
        lam = Fraction(rng.randrange(1, p), 1)
    if p_power:
        lam *= Fraction(p) ** rng.randrange(-2, 3)
    return lam


def _d(rng, p, square=False) -> Fraction:
    """Non-canonical d of a random square class (nonsquare unless asked)."""
    while True:
        d = rng.choice((1, p)) * _unit(rng, p) * _lam(rng, p) ** 2
        if is_square(p, d) == square:
            return d


def _e(rng, p, square=False) -> Fraction:
    """Non-canonical e = e0 * mu^4 with v(e0) in 0..3 (e -> e mu^4 leaves the
    surface unchanged, e -> e mu^2 does not)."""
    while True:
        e = p ** rng.randrange(4) * _unit(rng, p) * _lam(rng, p) ** 4
        if is_square(p, e) == square:
            return e


def _shift(rng, p) -> Fraction:
    """A p-integral translation, so the lifting work of a cubic is unchanged."""
    return Fraction(rng.randrange(-60, 61), rng.choice([q for q in (1, 2, 3, 7, 11) if q % p]))


def _one_root_cubic(rng, p, k):
    """(x - r)^3 - e (x - r) with v(e) = k and e nonsquare: exactly one root,
    r, and v(disc) = 3k + 2 v(2).  The unit factors leave the cost alone."""
    while True:
        e = p ** k * _unit(rng, p) * _lam(rng, p, p_power=False) ** 4
        if not is_square(p, e):
            break
    r = _shift(rng, p)
    return e, (-3 * r, 3 * r * r - e, -r ** 3 + e * r)


def _irreducible_cubic(rng, p, k):
    """(x - r)^3 - C with v(C) = k; for 3 | k the unit of C is a non-cube mod
    p (p = 1 mod 3), so the cubic has no root in Q_p; v(disc) = 2k + 3 v(3)."""
    while True:
        w = _unit(rng, p)
        if k % 3 or pow(w % p, (p - 1) // 3, p) != 1:
            break
    c = p ** k * w * _lam(rng, p, p_power=False) ** 3
    r = _shift(rng, p)
    return (-3 * r, 3 * r * r, -r ** 3 - c)


def _global_pair(rng):
    """d, e with several prime factors; d is never a rational square."""
    def rational():
        q = Fraction(rng.choice((1, -1)))
        for p in rng.sample(GLOBAL_PRIMES, rng.randrange(2, 4)):
            q *= Fraction(p) ** rng.choice((-1, 1, 1, 2, 3))
        return q
    while True:
        d, e = rational(), rational()
        if d < 0 or any(isqrt(n) ** 2 != n for n in (d.numerator, d.denominator)):
            return d, e


def _support(q: Fraction) -> set[int]:
    return {p for p in GLOBAL_PRIMES
            if q.numerator % p == 0 or q.denominator % p == 0}


# -- checks shared by the in-process and CLI routes -----------------------------

def check_pair_result(p, d, e, res: dict) -> str | None:
    want = expected_pair(p, d, e)
    if res["outcome"] != want:
        return f"p={p} d={d} e={e}: outcome {res['outcome']}, expected {want}"
    if want == Z2:
        return witness_error(p, d, e, res["witness"])
    if res["witness"] is not None:
        return f"p={p} d={d} e={e}: witness on a {want} verdict"
    return None


def check_cubic_result(p, d, shape, e, coeffs, res: dict) -> str | None:
    details = res["details"]
    if shape == "irreducible":
        if res["outcome"] != ZERO or "irreducibility" not in details:
            return f"irreducible cubic {coeffs} over Q_{p}: got {res['outcome']}"
        return None
    # one root: Galois parity says disc(f) is a nonsquare in Q_p
    if is_square(p, cubic_disc(*coeffs)):
        return f"one-root cubic {coeffs} over Q_{p} has a square discriminant"
    if "delegated" not in details:
        return f"one-root cubic {coeffs} over Q_{p} not delegated: {details}"
    return check_pair_result(p, d, e, res)


def check_places(d, e, reports: list[dict], places) -> str | None:
    want_places = sorted({2} | _support(d) | _support(e))
    if places != want_places or [r["place"] for r in reports] != want_places + ["real"]:
        return f"global d={d} e={e}: places {places}, expected {want_places}"
    for r in reports:
        want = expected_place(r["place"], d, e)
        if r["outcome"] != want:
            return f"global d={d} e={e} at {r['place']}: {r['outcome']}, expected {want}"
        if want == Z2:
            err = witness_error(r["place"], d, e, r["witness"])
            if err:
                return f"global d={d} e={e} at {r['place']}: {err}"
    return None


def check_result(req, res: dict) -> str | None:
    """Independent check of one pair, cubic, global or Hilbert-symbol result."""
    kind = req[0]
    if kind == "pair":
        return check_pair_result(*req[1:4], res)
    if kind == "cubic":
        return check_cubic_result(*req[1:], res)
    if kind == "global":
        return check_places(req[1], req[2], res["reports"], res["bad_places"])
    p, a, b = req[1:]
    if res["symbol"] != ct.hilbert(p, a, b):
        return f"oracle and formula disagree on ({a},{b})_{p}"
    return None


# -- workloads -------------------------------------------------------------------

PAIR_PRIMES = (2, 3, 5, 7, 11, 13)


class Workload:
    """A closed loop, one client: a round is a list of requests."""

    name = ""
    in_process = True
    timeout_s = 20.0

    def round(self, seed: int, index: int) -> list:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        reqs = self.make_round(rng)
        rng.shuffle(reqs)
        return reqs

    def warm_up(self) -> None:
        """Fill the extension cache and run each cheap request kind once, on
        inputs that do not depend on the seed."""
        for p in GLOBAL_PRIMES:
            for d in ct.square_class_reps(p)[1:]:
                ct.build_extension(p, d)
        seen = set()
        for req in self.round(-1, 0):
            key = self.warm_key(req)
            if key is not None and key not in seen:
                seen.add(key)
                self.check(req, self.execute(req))

    def warm_key(self, req):
        """Requests with equal keys warm the same code; None skips costly ones."""
        return req[:2]

    def response(self, res):
        """The part of a result that goes into the output digest."""
        return res


class Classify(Workload):
    """Certified classification, as ``classify --with-witness`` does it."""

    name = "classify"
    # (prime, v(e)) of the one-root cubics and (prime, v(C)) of the
    # irreducible ones: root closeness v(disc) from 3 up to 12.
    ONE_ROOT = ((7, 4), (7, 4), (7, 3), (7, 3), (5, 4), (5, 3), (3, 4), (3, 3),
                (2, 3), (2, 4), (13, 2), (13, 1))
    IRREDUCIBLE = ((7, 6), (7, 4), (13, 3), (5, 5), (3, 2), (2, 4))
    PAIRS_PER_PRIME = 20
    GLOBALS = 6

    def make_round(self, rng):
        reqs = []
        for p in PAIR_PRIMES:
            for i in range(self.PAIRS_PER_PRIME):
                # one in ten has a square d or a square e
                d = _d(rng, p, square=(i == 0))
                e = _e(rng, p, square=(i == 1))
                reqs.append(("pair", p, d, e))
        for p, k in self.ONE_ROOT:
            e, coeffs = _one_root_cubic(rng, p, k)
            reqs.append(("cubic", p, _d(rng, p), "one-root", e, coeffs))
        for p, k in self.IRREDUCIBLE:
            reqs.append(("cubic", p, _d(rng, p), "irreducible", None,
                         _irreducible_cubic(rng, p, k)))
        reqs += [("global",) + _global_pair(rng) for _ in range(self.GLOBALS)]
        return reqs

    def warm_key(self, req):
        if req[0] == "cubic":
            return req[3] if req[1] <= 3 else None
        return req[:2]

    def execute(self, req):
        kind = req[0]
        if kind == "pair":
            return ct.classify_pair(*req[1:4], with_witness=True).to_dict()
        if kind == "cubic":
            return ct.classify_cubic(req[1], req[2], *req[5], with_witness=True).to_dict()
        d, e = req[1], req[2]
        return {"bad_places": ct.bad_places(d, e),
                "reports": [r.to_dict() for r in
                            ct.classify_all_places(d, e, with_witness=True)]}

    def check(self, req, res):
        return check_result(req, res)


class Exhaust(Workload):
    """Full certification of a pair: classify, sample M over the default
    grid, chi at every member."""

    name = "exhaust"
    PRIMES = (2,) * 6 + (3,) * 4 + (5,) * 3 + (7,) * 2 + (11, 13)

    def make_round(self, rng):
        return [("exhaust", p, _d(rng, p), _e(rng, p)) for p in self.PRIMES]

    def warm_key(self, req):
        return req[1] if req[1] <= 3 else None

    def execute(self, req):
        _, p, d, e = req
        res = ct.classify_pair(p, d, e)
        members = ct.sample_M(p, d, e)
        chis = "".join("%d%d" % ct.chi(p, x, d, e).as_tuple() for x in members)
        return {"outcome": res.outcome.value, "members": len(members), "chi": chis}

    def check(self, req, res):
        _, p, d, e = req
        want = expected_pair(p, d, e)
        if res["outcome"] != want:
            return f"p={p} d={d} e={e}: outcome {res['outcome']}, expected {want}"
        values = {res["chi"][i:i + 2] for i in range(0, len(res["chi"]), 2)}
        if want == ZERO and values != {"00"}:
            return f"p={p} d={d} e={e}: chi {sorted(values)} on a {{0}} surface"
        if want == Z2 and not values <= {"00", "11"}:
            return f"p={p} d={d} e={e}: off-diagonal chi {sorted(values)}"
        return None


class Conic(Workload):
    """Conic oracle against the symbol formula on one square-class pair."""

    name = "conic"
    # (prime, class valuations of a and b) per round.  The oracle scans m^2
    # cells, m = p^3 when a class valuation is odd (odd p).  From p = 7 on,
    # one argument is a nonsquare unit and the other has odd valuation, so
    # the symbol is -1 whatever the seed and every scan runs to the end, at
    # a cost fixed by p: p = 7 holds the median, p = 17 the tail.
    SHAPES = (((2, (1, 0)), (2, (0, 1)), (2, (1, 1)), (3, (1, 1)), (3, (0, 0)),
               (5, (1, 0)), (5, (1, 1)))
              + ((7, (1, 0)), (7, (0, 1))) * 4
              + ((11, (1, 0)), (11, (0, 1)), (13, (1, 0)), (13, (0, 1)),
                 (17, (1, 0)), (17, (0, 1))))

    def make_round(self, rng):
        def arg(p, v):
            unit = _unit(rng, p, square=False if v == 0 else None)
            return p ** v * unit * _lam(rng, p) ** 2
        return [("conic", p, arg(p, va), arg(p, vb)) for p, (va, vb) in self.SHAPES]

    def warm_key(self, req):
        return req[1] if req[1] <= 11 else None

    def execute(self, req):
        _, p, a, b = req
        return {"oracle": ct.hilbert_oracle(p, a, b), "formula": ct.hilbert(p, a, b)}

    def check(self, req, res):
        if res["oracle"] != res["formula"]:
            return f"(a,b)_{req[1]} for a={req[2]} b={req[3]}: {res}"
        return None


class Cli(Workload):
    """One fresh ``python -m chatelet.cli ... --json`` per request."""

    name = "cli"
    in_process = False
    timeout_s = 30.0

    def make_round(self, rng):
        # fixed primes, so every round starts the same children
        e, one_root = _one_root_cubic(rng, 5, 2)
        return [
            ("pair", 2, _d(rng, 2), _e(rng, 2)),
            ("pair", 3, _d(rng, 3), _e(rng, 3, square=True)),  # exit 3
            ("pair", 13, _d(rng, 13), _e(rng, 13)),
            ("cubic", 5, _d(rng, 5), "one-root", e, one_root),
            ("cubic", 7, _d(rng, 7), "irreducible", None, _irreducible_cubic(rng, 7, 3)),
            ("hilbert", 7, 7 * _unit(rng, 7) * _lam(rng, 7) ** 2,
             _unit(rng, 7, square=False) * _lam(rng, 7) ** 2),
            ("global",) + _global_pair(rng),
        ]

    def warm_up(self):
        """The in-process reference only: the CLI pays its import per call."""
        for req in self.round(-1, 0):
            self.expected(req)

    @staticmethod
    def argv(req) -> list[str]:
        kind = req[0]
        if kind == "pair":
            return ["classify", "-p", str(req[1]), f"--d={req[2]}", f"--e={req[3]}",
                    "--with-witness", "--json"]
        if kind == "cubic":
            return ["classify", "-p", str(req[1]), f"--d={req[2]}",
                    "--cubic=" + ",".join(map(str, req[5])), "--with-witness", "--json"]
        if kind == "hilbert":
            return ["hilbert", "-p", str(req[1]), "--oracle", "--json", "--",
                    str(req[2]), str(req[3])]
        return ["global", f"--d={req[1]}", f"--e={req[2]}", "--with-witness", "--json"]

    def execute(self, req):
        cmd = [sys.executable, "-m", "chatelet.cli"] + self.argv(req)
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=self.timeout_s)
        return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    @staticmethod
    def expected(req) -> tuple[int, dict]:
        """Exit code and payload of the in-process library for the request."""
        kind = req[0]
        if kind == "pair":
            _, p, d, e = req
            res = ct.classify_pair(p, d, e, with_witness=True)
            payload = {"p": p, "surface": {"d": str(d), "e": str(e)}}
        elif kind == "cubic":
            p, d, coeffs = req[1], req[2], req[5]
            res = ct.classify_cubic(p, d, *coeffs, with_witness=True)
            payload = {"p": p, "surface": {"cubic": ",".join(map(str, coeffs)), "d": str(d)}}
        elif kind == "hilbert":
            _, p, a, b = req
            return 0, {"p": p, "a": str(a), "b": str(b), "route": "conic brute-force oracle",
                       "symbol": ct.hilbert_oracle(p, a, b)}
        else:
            _, d, e = req
            return 0, {"d": str(d), "e": str(e), "bad_places": ct.bad_places(d, e),
                       "disclaimer": DISCLAIMER,
                       "reports": [r.to_dict() for r in
                                   ct.classify_all_places(d, e, with_witness=True)]}
        payload.update(res.to_dict())
        return (3 if res.outcome is ct.Outcome.OUT_OF_SCOPE else 0), payload

    def check(self, req, res):
        want_exit, want = self.expected(req)
        if res["exit"] != want_exit:
            return f"{self.argv(req)}: exit {res['exit']}, expected {want_exit}: {res['stderr'][-300:]}"
        try:
            got = json.loads(res["stdout"])
        except json.JSONDecodeError:
            return f"{self.argv(req)}: output is not JSON"
        if got != json.loads(json.dumps(want)):
            return f"{self.argv(req)}: --json differs from the library payload"
        return check_result(req, got)

    def response(self, res) -> dict:
        return {"exit": res["exit"], "stdout": res["stdout"]}

    def compute_ms(self, seed: int) -> float:
        """Median time of ``cli.main`` in process over round 0: a request's
        work without interpreter start and import."""
        from chatelet import cli
        times = []
        for req in self.round(seed, 0):
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                cli.main(self.argv(req))
                times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3


WORKLOADS = {"cli": Cli, "classify": Classify, "exhaust": Exhaust, "conic": Conic}
