#!/usr/bin/env python3
"""Build and run the sim_e2e benchmark (bench/e2e/README.md).

One workload, as BENCHMARK.json's command runs it from the repo root:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

builds the benchmark under .bench_build/, runs the workload in its own
process (sim_e2e untraced, sim_e2e_trace traced), and prints as the
last line of stdout one JSON object with the keys correct, attempted,
failed and metrics. The metrics are BENCHMARK.json's end_to_end list
untraced and its per_layer list traced, each the median of the run.

Every workload (bench/e2e/run.sh calls this):

    python3 bench/e2e/run.py --suite [--seed S] [--out DIR] [--seconds T] [--trace]

prints every metric as name, unit, median, quartiles and n, writes
DIR/<workload>.json (and DIR/<workload>.trace.json), and exits 1 when
a cell failed, the mirror's oracle failed, or tracing.coverage left
[0.9, 1.1].
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "sim_e2e"
COVERAGE_RANGE = (0.9, 1.1)
BUILD_TIMEOUT_S = 850
# A run stops starting repetitions at --seconds; this bounds the last
# one and process exit.
RUN_GRACE_S = 150


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build(target):
    """Configure and build @target; returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", target, "-j", jobs]]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step {cmd} failed: {e}")
        if proc.returncode != 0:
            raise BenchError(f"build step {cmd} exited {proc.returncode}")
    return BUILD / target


def run_binary(binary, workload, seed, seconds, out, stdout):
    """Run one workload; returns its JSON report."""
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.exists():
        out.unlink()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--json", str(out)]
    try:
        proc = subprocess.run(cmd, stdout=stdout, stderr=sys.stderr,
                              timeout=seconds + RUN_GRACE_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{binary.name} {workload}: {e}")
    # 0: every cell passed; 1: measured, but a cell failed.
    if proc.returncode not in (0, 1) or not out.exists():
        raise BenchError(f"{binary.name} {workload} exited "
                         f"{proc.returncode} without a report")
    return json.loads(out.read_text())


def contract_line(report, wanted):
    """The result object for the metrics BENCHMARK.json lists."""
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise BenchError(f"metric {m['name']} ({m['unit']}) missing "
                             f"from the {report['workload']} report")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def single(args):
    bench = load_benchmark()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        raise BenchError(f"unknown workload {args.workload}")
    traced = args.trace == "1"
    binary = build("sim_e2e_trace" if traced else "sim_e2e")
    out = BUILD.parent / "out" / f"{args.workload}-{args.seed}-{args.trace}.json"
    report = run_binary(binary, args.workload, args.seed, args.seconds, out,
                        stdout=sys.stderr)
    wanted = bench["per_layer" if traced else "end_to_end"]
    print(json.dumps(contract_line(report, wanted)), flush=True)
    return 0


def suite(args):
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    out_dir = Path(args.out) if args.out else BUILD.parent / "suite"
    binaries = {False: build("sim_e2e")}
    if args.trace == "1":
        binaries[True] = build("sim_e2e_trace")
    problems = []
    for w in bench["workloads"]:
        for traced, binary in binaries.items():
            name = w["name"]
            suffix = ".trace.json" if traced else ".json"
            print(f"\n== {name} ({'traced' if traced else 'untraced'}, "
                  f"seed {args.seed})", flush=True)
            report = run_binary(binary, name, args.seed, seconds,
                                out_dir / (name + suffix), stdout=sys.stdout)
            if report["failed"]:
                problems.append(f"{name}: {report['failed']} of "
                                f"{report['attempted']} cells failed"
                                + (" (mirror oracle)" if traced else ""))
            if traced:
                cov = report["metrics"].get("tracing.coverage", {}).get("value")
                if cov is None or not COVERAGE_RANGE[0] <= cov <= COVERAGE_RANGE[1]:
                    problems.append(f"{name}: tracing.coverage {cov} outside "
                                    f"{COVERAGE_RANGE}")
    print(f"\nreports in {out_dir}")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--suite", action="store_true",
                   help="run every workload (run.sh)")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", nargs="?", const="1", default="0",
                   choices=["0", "1"])
    p.add_argument("--out", help="suite report directory")
    args = p.parse_args()
    try:
        if args.suite:
            return suite(args)
        if args.workload is None or args.seconds is None:
            p.error("--workload and --seconds are required without --suite")
        return single(args)
    except BenchError as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
