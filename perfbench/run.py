#!/usr/bin/env python3
"""Build the runtime benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and compiles perfbench/ (which pulls in the
program's libraries from src/) under .bench_build/ (or $CARGO_TARGET_DIR);
later calls only re-check the build. The binary's output is passed through,
and the last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

with every end-to-end metric of BENCHMARK.json when --trace 0 and every
per-layer metric when --trace 1. A traced run also writes the benchmark's
spans as a Chrome trace to .bench_build/traces/<workload>-<seed>.json.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170  # one run, after the build


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configure and build the benchmark binary; build output goes to stderr."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed")
    return build_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if not (root / "src" / "CMakeLists.txt").exists():
        fail("the program's sources (src/) are not in this checkout")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    binary = build(root, build_root / "perfbench")

    env = dict(os.environ)
    env.pop("DOSAS_METRICS", None)  # the benchmark decides what is traced
    env.pop("DOSAS_TRACE_OUT", None)
    if args.trace:
        traces = build_root / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        env["DOSAS_TRACE_OUT"] = str(traces / f"{args.workload}-{args.seed}.json")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")  # subprocess.run killed and reaped it

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        fail(f"benchmark exited with {proc.returncode}")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(result["metrics"]) != set(units):
        fail(f"metric names differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(units))}")
    metrics = {name: {"value": result["metrics"][name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
