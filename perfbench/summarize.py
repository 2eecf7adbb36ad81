#!/usr/bin/env python3
"""Summarise the runs recorded under ``.perfbench/results/``.

    python3 perfbench/summarize.py [--out FILE]

For each workload and trace mode: the median and quartiles of every metric
over the recorded seeds, the spread (quartile distance over median) that
BENCHMARK.json's bounds are checked against, and the output digest of each
seed, which must not change between runs of the same code.  ``--out``
writes the same summary as JSON, as ``baseline.json`` was written.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(results_dir: Path) -> dict:
    runs = {}
    for path in sorted(results_dir.glob("*.json")):
        record = json.loads(path.read_text())
        key = f"{record['workload']}/trace{record['trace']}"
        runs.setdefault(key, []).append(record)
    out = {}
    for key, records in sorted(runs.items()):
        metrics = {}
        for name in records[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in records]
            entry = {"unit": records[0]["metrics"][name]["unit"],
                     "median": statistics.median(values), "runs": len(values)}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3,
                             spread=(q3 - q1) / entry["median"] if entry["median"] else 0.0)
            metrics[name] = entry
        out[key] = {
            "correct": all(r["correct"] for r in records),
            "seeds": sorted(r["seed"] for r in records),
            "digests": {str(r["seed"]): r["worker"]["untraced"]["digest"] for r in records},
            "environment": records[0]["environment_start"],
            "metrics": metrics,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    summary = summarize(ROOT / ".perfbench" / "results")
    for key, s in summary.items():
        print(f"{key}: {len(s['seeds'])} seeds, correct={s['correct']}")
        for name, m in s["metrics"].items():
            spread = f"  spread {m['spread']:.3f}" if "spread" in m else ""
            print(f"  {name:<48} median {m['median']:.6g} {m['unit']}{spread}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
