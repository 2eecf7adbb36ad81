"""Runs one workload in a fresh interpreter; started by run.py.

Imports the package from ``src/``, warms up, prints ``READY <monotonic
time>``, then runs rounds of requests as a closed loop with one client until
``--seconds`` have passed (and at least ``DIGEST_ROUNDS`` rounds are done),
and prints one JSON line with latencies, counts and digests.

With ``--trace 1`` it first runs ``DIGEST_ROUNDS`` rounds untraced, then
installs the tracer and runs the same rounds again and on until the time is
up.  The two passes must give the same output digest, and their time ratio
on the shared rounds is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

DIGEST_ROUNDS = 2


class RequestTimeout(BaseException):
    """Raised by SIGALRM when an in-process request overruns its limit."""


def _on_alarm(signum, frame):
    raise RequestTimeout


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str).encode()


def run_round(wl, seed: int, index: int, tracer=None) -> dict:
    """Run one round; the checks run after it, outside the timed part."""
    reqs = wl.round(seed, index)
    raw, latencies = [], []
    start = time.perf_counter()
    for i, req in enumerate(reqs):
        span = tracer.begin_request(index * 100_000 + i) if tracer else None
        if wl.in_process:
            signal.setitimer(signal.ITIMER_REAL, wl.timeout_s)
        try:
            t0 = time.perf_counter()
            res, err = wl.execute(req), None
            latencies.append(time.perf_counter() - t0)
        except (RequestTimeout, subprocess.TimeoutExpired):
            res, err = None, f"timed out after {wl.timeout_s} s"
        except Exception as exc:  # a failed request is counted, the run goes on
            res, err = None, f"{type(exc).__name__}: {exc}"
        finally:
            if wl.in_process:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if span is not None:
                tracer.end_request(span)
        raw.append((res, err))
    busy = time.perf_counter() - start

    if tracer:
        tracer.on = False
    errors, responses = [], []
    for req, (res, err) in zip(reqs, raw):
        if err is None:
            try:
                err = wl.check(req, res)
            except Exception as exc:  # a malformed response is a failed check
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            errors.append(f"{req}: {err}")
        responses.append({"request": req,
                          "response": wl.response(res) if res is not None else {"error": err}})
    if tracer:
        tracer.on = True
    return {"busy_s": busy, "latencies": latencies, "attempted": len(reqs),
            "errors": errors, "digest": hashlib.sha256(canonical(responses)).hexdigest()}


def run_phase(wl, seed: int, until: float, min_rounds: int, tracer=None) -> list[dict]:
    rounds = []
    while len(rounds) < min_rounds or time.monotonic() < until:
        rounds.append(run_round(wl, seed, len(rounds), tracer))
    return rounds


def digest(rounds: list[dict]) -> str:
    return hashlib.sha256("".join(r["digest"] for r in rounds).encode()).hexdigest()


def summary(rounds: list[dict]) -> dict:
    latencies = sorted(x for r in rounds for x in r["latencies"])
    n = len(latencies)
    busy = sum(r["busy_s"] for r in rounds)
    out = {"rounds": len(rounds), "attempted": sum(r["attempted"] for r in rounds),
           "completed": n, "busy_s": busy, "round_busy_s": [r["busy_s"] for r in rounds],
           "failed": sum(len(r["errors"]) for r in rounds),
           "errors": [e for r in rounds for e in r["errors"]][:10],
           "digest": digest(rounds[:DIGEST_ROUNDS]), "digest_all": digest(rounds)}
    out["throughput_rps"] = (out["attempted"] - out["failed"]) / busy
    if n:
        out["latency_p50_ms"] = statistics.median(latencies) * 1e3
    if n > 10:
        # the highest percentile with at least ten samples beyond it
        out["latency_tail_ms"] = latencies[n - 11] * 1e3
        out["latency_tail_pct"] = 100.0 * (n - 10) / n
    return out


def layer_metrics(tracer, rounds: list[dict], cache_before, cache_after) -> dict:
    requests = sum(r["attempted"] for r in rounds)
    out = {}
    for name, calls, self_ns in zip(tracer.names, tracer.calls, tracer.self_ns):
        if name == "request":
            continue
        out[f"{name}.calls"] = calls / requests
        out[f"{name}.self_ms"] = self_ns / 1e6 / requests
    c = tracer.counters
    calls = dict(zip(tracer.names, tracer.calls))

    def ratio(a, b):
        return a / b if b else 0.0
    out["chi.find_witness.candidates"] = ratio(c["chi.find_witness.candidates"],
                                               calls["chi.find_witness"])
    out["chi.sample_M.candidates"] = ratio(c["chi.sample_M.candidates"], calls["chi.sample_M"])
    out["chi.sample_M.hit_ratio"] = ratio(c["chi.sample_M.members"],
                                          c["chi.sample_M.candidates"])
    out["surface.count_roots_cubic.residues_certified"] = ratio(
        c["surface.count_roots_cubic.residues_certified"], calls["surface.count_roots_cubic"])
    out["surface.count_roots_cubic.root_yield"] = ratio(
        c["surface.count_roots_cubic.roots"], c["surface.count_roots_cubic.residues_certified"])
    out["hilbert.hilbert_oracle.cells"] = ratio(c["hilbert.hilbert_oracle.cells"],
                                                calls["hilbert.hilbert_oracle"])
    hits = cache_after.hits - cache_before.hits
    out["quadratic.build_extension.cache_hit_ratio"] = ratio(
        hits, hits + cache_after.misses - cache_before.misses)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="file for the traced spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads
    wl = workloads.WORKLOADS[args.workload]()
    wl.warm_up()
    print("READY", time.monotonic(), flush=True)
    if args.setup_only:
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    until = time.monotonic() + args.seconds
    result = {}
    if args.trace:
        from tracer import Tracer
        from chatelet import quadratic
        untraced = run_phase(wl, args.seed, 0.0, DIGEST_ROUNDS)
        tracer = Tracer(workloads.oracle_cells)
        if wl.in_process:
            tracer.install()
        cache_before = quadratic._build.cache_info()
        tracer.on = True
        traced = run_phase(wl, args.seed, until, DIGEST_ROUNDS, tracer)
        tracer.on = False
        result["untraced"] = summary(untraced)
        result["traced"] = summary(traced)
        shared = [sum(r["busy_s"] for r in phase[:DIGEST_ROUNDS]) for phase in (untraced, traced)]
        result["overhead_pct"] = 100.0 * (shared[1] / shared[0] - 1)
        result["layers"] = layer_metrics(tracer, traced, cache_before,
                                         quadratic._build.cache_info())
        # a request's time without interpreter start and import
        result["layers"]["cli.compute_ms"] = (
            result["untraced"]["latency_p50_ms"] if wl.in_process else wl.compute_ms(args.seed))
        if args.spans:
            tracer.write_spans(args.spans)
            result["spans"] = {"kept": len(tracer.spans), "dropped": tracer.dropped}
    else:
        result["untraced"] = summary(run_phase(wl, args.seed, until, DIGEST_ROUNDS))
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
