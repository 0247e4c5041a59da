#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

    python3 perfbench/measure.py --seeds 1-10 --out baseline.json
    python3 perfbench/measure.py --seeds 9001 --trace 1 --workloads online_overload
    python3 perfbench/measure.py --seeds 1-10 --record counts.json --out FILE

For every workload and metric it records the values, their median, first
and third quartiles, and the spread (q3 - q1) / median, with the quartiles
as Python's statistics.quantiles(values, n=4) gives them. The output file
is rewritten after every run, so an interrupted measurement keeps what it
has; machine notes (nproc, build type, compiler) go in alongside.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def compiler():
    try:
        first = subprocess.run(["c++", "--version"], capture_output=True,
                               text=True).stdout.splitlines()
        return first[0] if first else "unknown"
    except OSError:
        return "unknown"


def summarise(values):
    med = statistics.median(values)
    out = {"values": values, "median": med}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--record", metavar="FILE",
                        help="record each run's counts in FILE instead of "
                             "comparing them (run.py --record)")
    parser.add_argument("--expect", metavar="FILE",
                        help="compare each run's counts with FILE instead "
                             "of perfbench/counts.json (run.py --expect)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    out = {
        "machine": {"nproc": os.cpu_count(), "build": "Release + LTO",
                    "compiler": compiler()},
        "run_seconds": spec["run_seconds"],
        "trace": args.trace,
        "workloads": {},
    }
    for workload in workloads:
        rows = []
        for seed in parse_seeds(args.seeds):
            start = time.time()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", str(args.trace),
                 *(["--record", args.record] if args.record else []),
                 *(["--expect", args.expect] if args.expect else [])],
                capture_output=True, text=True, cwd=ROOT)
            if proc.returncode:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            rows.append((seed, result))
            print(f"{workload} seed {seed}: {time.time() - start:.1f} s, "
                  f"correct={result['correct']}", flush=True)
            names = list(rows[0][1]["metrics"])
            out["workloads"][workload] = {
                "seeds": [s for s, _ in rows],
                "correct": all(r["correct"] for _, r in rows),
                "attempted": sum(r["attempted"] for _, r in rows),
                "failed": sum(r["failed"] for _, r in rows),
                "metrics": {n: {"unit": rows[0][1]["metrics"][n]["unit"],
                                **summarise([r["metrics"][n]["value"]
                                             for _, r in rows])}
                            for n in names},
            }
            Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
        for name, m in out["workloads"][workload]["metrics"].items():
            print(f"  {name:28s} median {m['median']:.6g} {m['unit']}"
                  + (f"  spread {m['spread']:.3f}" if "spread" in m else ""))


if __name__ == "__main__":
    main()
