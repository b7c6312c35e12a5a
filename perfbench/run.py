#!/usr/bin/env python3
# Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
"""Builds and runs the kwsc end-to-end benchmark.

Run from the root of a source tree:

    python3 perfbench/run.py --workload read_flat --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The benchmark binary is compiled from ../src with CMake into the build
directory (CARGO_TARGET_DIR when set, else .bench_build). Outputs (result
files, Chrome traces, per-run scratch files) go to .bench_out/. The last
line of stdout is the result object:
{"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("read_flat", "serve_topt", "mixed_update")
RUN_TIMEOUT_S = 170
HERE = os.path.dirname(os.path.abspath(__file__))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns the binary path."""
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "kwsc_perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (None if absent)."""
    path = "BENCHMARK.json"
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(binary, args):
    """Runs the binary; returns (stdout lines, exit code). Kills it on timeout
    or when this process is told to stop."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    previous = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
        return [], 1
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)
    return out.splitlines(), proc.returncode


def run_workload(binary, workload, seed, seconds, trace):
    """One run of one workload; returns (result dict, other stdout lines)."""
    out_dir = ".bench_out"
    os.makedirs(os.path.join(out_dir, "tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=os.path.join(out_dir, "tmp"))
    try:
        lines, code = run_binary(binary, [
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", "--out", out_dir, "--tmp", tmp])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if code != 0 or not lines:
        log(f"{workload}: benchmark exited with code {code}")
        return None, lines
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log(f"{workload}: malformed result line")
        return None, lines
    want = expected_metrics(trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        log(f"{workload}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(want) ^ set(result['metrics']))}")
        return None, lines
    env = next((json.loads(l[len("# env "):]) for l in lines if l.startswith("# env ")), {})
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "env": env, "result": result}
    with open(os.path.join(out_dir, f"result_{workload}_seed{seed}_trace{int(trace)}.json"),
              "w") as f:
        json.dump(record, f, indent=1)
    return result, lines[:-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        start = time.monotonic()
        result, lines = run_workload(binary, workload, args.seed, args.seconds,
                                     bool(args.trace))
        for line in lines:
            print(line)
        if result is None:
            return 1
        log(f"{workload}: {time.monotonic() - start:.1f} s")
        results[workload] = result

    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
        return 0
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
