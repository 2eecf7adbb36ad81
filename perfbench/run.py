#!/usr/bin/env python3
"""Benchmark of the chatelet classifier: one command, four workloads.

    python3 perfbench/run.py --workload {cli,classify,exhaust,conic} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  Each run:

* times set-up ``SETUP_SAMPLES`` times, each in a fresh interpreter that
  imports the package and warms up, and reports the median as ``setup_s``;
* runs the workload in the last of those interpreters as a closed loop with
  one client for ``S`` seconds, checking every response independently;
* with ``--trace 0`` reports the end-to-end metrics, with ``--trace 1`` the
  per-layer metrics of a traced pass and the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details (environment, digests, errors) go to ``.perfbench/results/`` and
traced spans to ``.perfbench/spans/``.  The exit code is 0 only when every
response was correct; it is 2, with no result line, when the checkout has
no package source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli", "classify", "exhaust", "conic")
SETUP_SAMPLES = 5
PROBES = 3
RUN_LIMIT_S = 170.0

# Per-layer metrics that must be non-zero on each workload: the layer table
# of the benchmark's design (which layer should move which metric where).
PADIC = ("padic.rational_square_class_rep.calls", "padic.frac_val_unit.calls",
         "padic.SquareClass.of.calls")
QUAD = ("quadratic.is_norm.calls", "quadratic.build_extension.calls",
        "quadratic.build_extension.cache_hit_ratio")
CLI = ("cli.interpreter_ms", "cli.import_ms", "cli.import.numpy_ms",
       "cli.import.sympy_ms", "cli.compute_ms")
REQUIRED = {
    "cli": CLI,
    "classify": PADIC + QUAD + CLI + (
        "chi.find_witness.calls", "chi.find_witness.candidates",
        "surface.classify_pair.calls", "surface.classify_cubic.calls",
        "surface.count_roots_cubic.calls", "surface.count_roots_cubic.residues_certified",
        "surface.count_roots_cubic.root_yield",
        "globalq.bad_places.calls", "globalq.classify_all_places.calls"),
    "exhaust": PADIC + QUAD + CLI + (
        "chi.sample_M.calls", "chi.sample_M.candidates", "chi.sample_M.hit_ratio",
        "chi.chi.calls", "chi.in_M.calls"),
    "conic": CLI + ("hilbert.hilbert.calls", "hilbert.hilbert_oracle.calls",
                    "hilbert.hilbert_oracle.cells"),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "sympy": version("sympy"), "nproc": os.cpu_count(), "cpu": cpu,
            "loadavg": list(os.getloadavg())}


def run_child(cmd: list[str], env: dict, limit: float) -> tuple[int, str, str]:
    """Run a child in its own process group; on overrun kill the whole group
    (a CLI worker's own children too) and wait for it."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(limit, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {limit:.0f} s"
    return proc.returncode, out, err


def worker(args, env, deadline, extra=()) -> tuple[float, int, str, str]:
    """Start a worker; return (set-up seconds, exit code, stdout, stderr)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    spawned = time.monotonic()
    code, out, err = run_child(cmd, env, deadline - time.monotonic())
    ready = [line for line in out.splitlines() if line.startswith("READY ")]
    setup = float(ready[0].split()[1]) - spawned if ready else float("nan")
    return setup, code, out, err


def cli_layers(env, deadline) -> dict:
    """Interpreter start and package import, measured outside the package:
    wall time of bare and importing interpreters, and the numpy and sympy
    shares from ``-X importtime``."""
    def wall_ms(*flags):
        t0 = time.perf_counter()
        _, _, err = run_child([sys.executable, *flags], env, deadline - time.monotonic())
        return (time.perf_counter() - t0) * 1e3, err

    bare, imported, shares = [], [], []
    for _ in range(PROBES):
        bare.append(wall_ms("-c", "pass")[0])
        imported.append(wall_ms("-c", "import chatelet.cli")[0])
        shares.append(parse_importtime(wall_ms("-X", "importtime", "-c", "import chatelet.cli")[1]))
    interpreter = statistics.median(bare)
    return {"cli.interpreter_ms": interpreter,
            "cli.import_ms": statistics.median(imported) - interpreter,
            **{k: statistics.median(s.get(k, 0.0) for s in shares)
               for k in ("cli.import.numpy_ms", "cli.import.sympy_ms")}}


def parse_importtime(text: str) -> dict:
    """Cumulative ms of the numpy and sympy imports."""
    out = {}
    for line in text.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].strip()
            if name in ("numpy", "sympy"):
                out.setdefault(f"cli.import.{name}_ms", int(parts[1]) / 1e3)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chatelet" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment_start": environment()}
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        setup, code, out, err = worker(args, env, deadline, ["--setup-only"])
        if code != 0:
            print(f"error: set-up failed (exit {code}):\n{err[-2000:]}", file=sys.stderr)
            return 2
        setups.append(setup)
    cli = cli_layers(env, deadline) if args.trace else {}
    spans = ROOT / ".perfbench" / "spans" / f"{args.workload}-seed{args.seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    setup, code, out, err = worker(args, env, deadline, ["--spans", str(spans)])
    setups.append(setup)
    if code != 0 or not out.strip():
        print(f"error: worker failed (exit {code}):\n{err[-2000:]}", file=sys.stderr)
        return 2
    result = json.loads(out.strip().splitlines()[-1])
    record["environment_end"] = environment()
    record["setup_samples_s"] = setups
    record["worker"] = result

    base = result["untraced"]
    phases = [base] + ([result["traced"]] if args.trace else [])
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    problems = [e for p in phases for e in p["errors"]]
    if "latency_tail_ms" not in base:
        problems.append(f"only {base['completed']} requests: no tail with ten samples beyond")

    if args.trace:
        values = dict(result["layers"], **cli)
        values["trace.overhead_pct"] = result["overhead_pct"]
        if result["traced"]["digest"] != base["digest"]:
            problems.append("traced and untraced runs gave different output digests")
        for name in REQUIRED[args.workload]:
            if not values.get(name):
                problems.append(f"tracer self-test: {name} is zero on {args.workload}")
    else:
        values = dict(base, setup_s=statistics.median(setups), peak_rss_mb=result["peak_rss_mb"])
    # names and units come from BENCHMARK.json, so the output matches it
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] not in values:
            problems.append(f"{m['name']} was not measured")
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}

    correct = failed == 0 and not problems
    record.update(correct=correct, problems=problems, metrics=metrics)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    env_s, env_e = record["environment_start"], record["environment_end"]
    print(f"environment: python {env_s['python']}, numpy {env_s['numpy']}, "
          f"sympy {env_s['sympy']}, nproc {env_s['nproc']}, cpu {env_s['cpu']}")
    print(f"load average: start {env_s['loadavg']}, end {env_e['loadavg']}")
    for phase, p in zip(("untraced", "traced"), phases):
        print(f"{phase}: {p['rounds']} rounds, {p['attempted']} requests, "
              f"error_rate {p['failed'] / p['attempted']:.4f}, digest {p['digest']}")
    if "latency_tail_ms" in base:
        print(f"latency_tail_ms is p{base['latency_tail_pct']:.2f} of "
              f"{base['completed']} samples")
    if args.trace:
        t = result["traced"]
        print(f"tracing overhead: {result['overhead_pct']:+.1f}% time on the shared rounds; "
              f"throughput {t['throughput_rps'] - base['throughput_rps']:+.3f} 1/s, "
              f"p50 {t.get('latency_p50_ms', 0) - base.get('latency_p50_ms', 0):+.3f} ms")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for problem in problems[:10]:
        print(f"FAIL: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
