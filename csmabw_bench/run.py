#!/usr/bin/env python3
"""Build and run the csmabw benchmark.

Usage (from the repository root):

    python3 csmabw_bench/run.py --workload clique_trains --seed 7 \
        --seconds 20 --trace 0

builds the library and the benchmark driver from source with CMake
(Release) into $CARGO_TARGET_DIR, default .bench_build, runs the
driver's self-test, then runs one workload and prints its report.  The
last stdout line is the JSON result; it is printed only when the run
succeeded and reported exactly the metrics BENCHMARK.json lists
(end_to_end with --trace 0, per_layer with --trace 1).

    --check       run the workload at this seed and a second seed with 1
                  worker and with its full pool (min(4, nproc); 2 for
                  stored_results) and require byte-identical outputs
    --write-refs  regenerate csmabw_bench/refs/<workload>.txt

--workload all runs every workload of BENCHMARK.json in turn.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170      # a run must end within 180 s
BUILD_LIMIT_S = 880    # the first run in a checkout builds (900 s)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds; returns True when the driver was (re)built
    from scratch, raises on failure."""
    fresh = not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
    if fresh:
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_LIMIT_S)
    subprocess.run([os.path.join(build_dir, "csmabw_bench_selftest")],
                   check=True, stdout=sys.stderr, timeout=60)
    return fresh


def validate(result, bench, trace):
    """Checks the result line: its four keys, and exactly the metrics
    and units BENCHMARK.json lists for this kind of run."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError("%s is not a whole number" % key)
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    expected = bench["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in expected}:
        raise ValueError("metrics differ from BENCHMARK.json: %s" %
                         sorted(set(metrics) ^ {m["name"] for m in expected}))
    for m in expected:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            raise ValueError("metric %s: %s" % (m["name"], got))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--write-refs", action="store_true")
    args = ap.parse_args()
    start = time.monotonic()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload == "all":
        # Every workload in turn, each report and result line printed.
        for name in names:
            code = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]
                + (["--check"] if args.check else [])).returncode
            if code != 0:
                return code
        return 0
    if args.workload not in names:
        log("unknown workload %s" % args.workload)
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    build_dir = os.path.join(build_dir, "csmabw_bench")
    try:
        built = build(build_dir)
    except (subprocess.SubprocessError, OSError) as e:
        log("build failed: %s" % e)
        return 1

    work = os.path.join(build_dir, "work-%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(build_dir, "csmabw_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work,
           "--refs", os.path.join(HERE, "refs")]
    if args.check or args.write_refs:
        cmd.append("--check=1" if args.check else "--write-refs=1")
        try:
            return subprocess.run(cmd).returncode
        finally:
            shutil.rmtree(work, ignore_errors=True)

    limit = (BUILD_LIMIT_S if built else RUN_LIMIT_S) - (time.monotonic() - start)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(limit, 1))
    except subprocess.TimeoutExpired:
        log("benchmark run exceeded its time limit")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    # A failed run's report goes to stderr: stdout then carries no result.
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log("benchmark exited with %d" % proc.returncode)
        return proc.returncode
    try:
        result = json.loads(lines[-1])
        validate(result, bench, args.trace)
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        sys.stderr.write(proc.stdout)
        log("invalid result: %s" % e)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
