"""Run the benchmark several times and summarize each metric.

    python3 perfbench/repeat.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds 15] [--trace 0] [--out FILE]

Run from the root of a checkout.  Each run gets its own seed.  Prints,
per metric, the median, the quartiles and the spread (distance between
the quartiles as a share of the median), which is how the benchmark's
stability is judged; ``--out`` also writes them as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"seed {seed}: run failed\n{proc.stdout}")
    return result


def summarize(results: list[dict]) -> dict:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = stats.quartiles(values)
        out[name] = {
            "unit": first["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": stats.spread(values) if med else None,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repeat benchmark runs")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        results.append(run_once(args.workload, seed, args.seconds, args.trace))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items()), flush=True)
    summary = summarize(results)
    for name, s in summary.items():
        spread = f"{s['spread']:.3f}" if s["spread"] is not None else "n/a"
        print(f"{name:40s} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}")
    if args.trace:
        counters = [n for n in summary
                    if n.endswith((".calls", "rank_calls", "_frac", "_yield", "max_conductor"))]
        moved = [n for n in counters if len(set(summary[n]["values"])) > 1]
        print(f"counters that did not repeat exactly: {', '.join(moved) or 'none'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "runs": args.runs,
                       "first_seed": args.first_seed, "seconds": args.seconds,
                       "metrics": summary}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
