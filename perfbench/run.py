#!/usr/bin/env python3
"""Build and run the host-time benchmark.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload stm-disjoint --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (and the repository's
libraries under src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls rebuild only what changed. Build
output goes to stderr. The benchmark's report goes to stdout and ends
with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones (and writes a Chrome trace under the build
directory). The exit code is non-zero when the build fails or an
output check fails.

--self-test runs every workload briefly, checks that each reports
every metric BENCHMARK.json names with its unit, and checks that one
injected wrong op result fails the run.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["stm-disjoint", "stm-contended", "serve-pool", "sim-hastm"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("src/ not found next to perfbench/; run from a full checkout")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 cwd=ROOT, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return None
        if res.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.isfile(binary) else None


def commit_id():
    try:
        res = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if res.returncode == 0 and res.stdout.strip():
            return res.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run(binary, workload, seed, seconds, trace, inject=False):
    """Run the binary; returns (exit code, stdout text)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", os.path.join(os.path.dirname(build_dir()),
                                       "traces"),
           "--commit", commit_id()]
    if inject:
        cmd.append("--inject-fault")
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 124, ""
    return res.returncode, res.stdout


def last_json(text):
    lines = [l for l in text.strip().splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    expect = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in names:
        for trace in (0, 1):
            code, out = run(binary, w, 1, 1, trace)
            res = last_json(out)
            tag = f"{w} trace={trace}"
            if code != 0 or not res or res.get("correct") is not True:
                problems.append(f"{tag}: exit {code}, result {res}")
                continue
            got = res["metrics"]
            if set(got) != set(expect[trace]):
                problems.append(f"{tag}: metric names differ: "
                                f"{sorted(set(got) ^ set(expect[trace]))}")
            for name, unit in expect[trace].items():
                m = got.get(name)
                if m and (m["unit"] != unit or
                          not math.isfinite(m["value"])):
                    problems.append(f"{tag}: {name} = {m}")
                if trace == 0 and m and m["value"] == 0:
                    problems.append(f"{tag}: {name} is 0")
            log(f"self-test {tag}: {len(got)} metrics ok")
        # A check that cannot fail is a defect: one injected wrong op
        # result must fail the run.
        code, out = run(binary, w, 1, 1, 0, inject=True)
        res = last_json(out)
        if code == 0 or not res or res.get("correct") is not False or \
                res.get("failed", 0) < 1:
            problems.append(f"{w} inject: exit {code}, result {res}")
        else:
            log(f"self-test {w} inject: exit {code}, "
                f"failed {res['failed']} of {res['attempted']}")
    for p in problems:
        log(f"SELF-TEST FAILED {p}")
    print(json.dumps({"self_test": "fail" if problems else "ok",
                      "problems": problems}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="flip one observed op result (the run must fail)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary)
    code, out = run(binary, args.workload, args.seed, args.seconds,
                    args.trace, inject=args.inject_fault)
    sys.stdout.write(out)
    if code == 0 and last_json(out) is None:
        log("no result line")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
