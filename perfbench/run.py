#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload hot_reads --seed 1 --seconds 40 \
        --trace 0
    python3 perfbench/run.py --selfcheck

The first call builds the library and perfbench/e2e_bench from source into
.bench_build/perfbench (Release); later calls rebuild incrementally. The
benchmark's output is relayed with one change: the result object (the last
line of stdout) carries exactly the metrics BENCHMARK.json names for the
trace mode, and any other metric the program measured moves into the
report line before it, under "ungated". --trace 1 also writes the recorded
spans to .bench_build/perfbench/spans/<workload>-seed<seed>.tsv.

--selfcheck runs every workload of BENCHMARK.json once per trace mode on tiny
inputs and fails unless each run passes its correctness gate and prints
every metric BENCHMARK.json names, with its unit.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message, code=3):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log, timeout):
    """Runs cmd with output to log; returns its exit code (None on timeout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None


def build():
    missing = [p for p in ("CMakeLists.txt", "src", "plan_coefficients.json")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("cannot build: %s missing from %s" % (", ".join(missing), ROOT))
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2e_bench",
                  "--parallel", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                left = max(1.0, deadline - time.monotonic())
                code = run_logged(cmd, log, left)
            except OSError as e:
                fail("cannot run %s: %s" % (cmd[0], e))
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail("build failed (%s); see %s\n%s" % (
                    "timeout" if code is None else "exit %d" % code,
                    log_path, tail))


def run_bench(args, extra=()):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += list(extra)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("benchmark run timed out after %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def spans_path(workload, seed):
    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    return os.path.join(spans_dir, "%s-seed%s.tsv" % (workload, seed))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def gated_names(spec, trace):
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def shape_output(lines, names):
    """Keeps the named metrics in the result line (the last line) and moves
    the rest into the report line before it. Returns None when the output
    does not end with a report line and a result line."""
    if len(lines) < 2 or not lines[-2].startswith('{"report"'):
        return None
    try:
        report = json.loads(lines[-2])
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (ValueError, KeyError, TypeError):
        return None
    result["metrics"] = {n: metrics[n] for n in names if n in metrics}
    report["report"]["ungated"] = {
        n: m for n, m in metrics.items() if n not in result["metrics"]}
    return lines[:-2] + [json.dumps(report), json.dumps(result)]


def check_result(line, expected):
    """Problems with one result line against the expected {name: unit}."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON: %r" % line[:200]]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys are %s" % sorted(result))
        return problems
    if result["correct"] is not True:
        problems.append("correctness gate failed")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted = %r" % result["attempted"])
    if result["failed"] != 0:
        problems.append("failed = %r" % result["failed"])
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append("metrics missing %s, unexpected %s" % (missing, extra))
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s value %r" % (name, value))
        if m.get("unit") != unit:
            problems.append("%s unit %r, want %r" % (name, m.get("unit"), unit))
    return problems


def selfcheck():
    spec = load_spec()
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=0.4,
                                      trace=trace)
            start = time.monotonic()
            code, out = run_bench(args, ["--tiny"])
            elapsed = time.monotonic() - start
            problems = [] if code == 0 else ["exit code %d" % code]
            lines = shape_output(out.strip().splitlines(), list(expected[trace]))
            if lines is None:
                problems.append("no report and result line at the end")
            else:
                problems += check_result(lines[-1], expected[trace])
            status = "FAIL" if problems else "ok"
            print("selfcheck %-10s trace=%d %4s %.2f s %s" % (
                workload, trace, status, elapsed, "; ".join(problems)))
            failures += bool(problems)
    print("selfcheck: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and not args.workload:
        parser.error("--workload is required")
    build()
    if args.selfcheck:
        return selfcheck()
    extra = []
    if args.trace:
        extra = ["--spans-out", spans_path(args.workload, args.seed)]
    code, out = run_bench(args, extra)
    lines = out.splitlines()
    shaped = shape_output(lines, gated_names(load_spec(), args.trace))
    sys.stdout.write("\n".join(shaped if shaped is not None else lines) + "\n")
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
