#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source, runs one workload,
checks its outputs, and prints the result as the last line of stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The workload names and the metric set (name, unit) come from BENCHMARK.json
at the repository root: --trace 0 reports its end_to_end metrics, --trace 1
its per_layer metrics. Every other metric the program measures is printed as
a `name value unit` line before the result line. When perfbench/counts.json
holds a run of the same workload, seed and mode, the run's output digest and
deterministic counts must match it exactly; that comparison is one more
checked operation. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
COUNTS = HERE / "counts.json"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds perfbench; returns (executable, build root)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the repository sources (CMakeLists.txt, src/) are missing")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      *generator, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return build_dir / "perfbench", build_root


def run_perfbench(exe, build_root, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns the JSON object perfbench prints."""
    work_dir = build_root / f"work-{os.getpid()}"
    cmd = [str(exe), workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work-dir", str(work_dir)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed no result")
    return json.loads(lines[-1])


def select(raw, wanted):
    """The wanted metrics (BENCHMARK.json entries) from a perfbench result;
    returns (metrics, problems)."""
    metrics, problems = {}, []
    for entry in wanted:
        got = raw["metrics"].get(entry["name"])
        if got is None:
            problems.append(f"metric {entry['name']} not emitted")
        elif got["unit"] != entry["unit"]:
            problems.append(f"metric {entry['name']} has unit {got['unit']}, "
                            f"expected {entry['unit']}")
        else:
            metrics[entry["name"]] = {"value": got["value"],
                                      "unit": got["unit"]}
    return metrics, problems


def compare_counts(raw, expect_path):
    """Exact comparison against a recorded run of the same workload, seed
    and mode; returns None when there is none, else the list of drifts."""
    path = Path(expect_path)
    recorded = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{raw['workload']}/seed{raw['seed']}/trace{raw['trace']}"
    entry = recorded.get("runs", {}).get(key)
    if entry is None:
        print(f"perfbench: no recorded counts for {key}; checked by the "
              "repetitions' digests only", file=sys.stderr)
        return None
    drifts = []
    if entry["digest"] != raw["digest"]:
        drifts.append(f"digest {raw['digest']} != recorded {entry['digest']}")
    for name, value in entry["counts"].items():
        if raw["counts"].get(name) != value:
            drifts.append(f"{name} {raw['counts'].get(name)} != recorded {value}")
    return drifts


def record_counts(raw, record_path):
    path = Path(record_path)
    recorded = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{raw['workload']}/seed{raw['seed']}/trace{raw['trace']}"
    recorded.setdefault("runs", {})[key] = {"digest": raw["digest"],
                                            "counts": raw["counts"]}
    recorded["runs"] = dict(sorted(recorded["runs"].items()))
    path.write_text(json.dumps(recorded, indent=2) + "\n")


def smoke(spec, exe, build_root):
    """Every workload in both modes at reduced length; asserts every metric
    named in BENCHMARK.json is emitted with its unit and nothing fails."""
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            raw = run_perfbench(exe, build_root, workload["name"], 1, 0, trace,
                             smoke=True)
            wanted = spec["per_layer" if trace else "end_to_end"]
            _, missing = select(raw, wanted)
            if raw["failed"]:
                missing.append(f"{raw['failed']} of {raw['attempted']} "
                               "checked operations failed")
            problems += [f"{workload['name']} trace={trace}: {p}"
                         for p in missing]
            print(f"smoke {workload['name']} trace={trace}: "
                  f"{len(wanted)} metrics, {raw['attempted']} checks, "
                  f"{'ok' if not missing else 'FAILED'}")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check the "
                             "metric set")
    parser.add_argument("--expect", metavar="FILE", default=str(COUNTS),
                        help="recorded counts and digests to compare with "
                             "(default: perfbench/counts.json)")
    parser.add_argument("--record", metavar="FILE",
                        help="record this run's counts and digest in FILE "
                             "instead of comparing")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())
    exe, build_root = build()
    if args.smoke:
        return smoke(spec, exe, build_root)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    raw = run_perfbench(exe, build_root, args.workload, args.seed, seconds,
                     args.trace)

    for name, m in sorted(raw["metrics"].items()):
        print(f"{name} {m['value']:.10g} {m['unit']}")
    print(f"checks {raw['attempted']} attempted, {raw['failed']} failed; "
          f"{raw['repetitions']} repetitions; digest {raw['digest']}")

    metrics, problems = select(
        raw, spec["per_layer" if args.trace else "end_to_end"])
    if problems:
        fail("; ".join(problems))
    if args.record:
        record_counts(raw, args.record)
        drifts = None
    else:
        drifts = compare_counts(raw, args.expect)
    for d in drifts or []:
        print(f"perfbench: drift: {d}", file=sys.stderr)
    failed = raw["failed"] + (1 if drifts else 0)
    result = {
        "correct": failed == 0,
        "attempted": raw["attempted"] + (0 if drifts is None else 1),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
