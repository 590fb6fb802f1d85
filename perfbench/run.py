#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the phrasemine sources one
level up are compiled into it) under $CARGO_TARGET_DIR, or .bench_build when
that is unset; later calls rebuild only what changed. Build output goes to
standard error, so the last line of standard output is the JSON
result. The exit code is the benchmark's: 0 when every output checked
correct, nonzero otherwise (a failed build included).

--selftest runs every workload for 0.05 s at the binary's --tiny size (a
5 % corpus, one set-up and a short warm-up), twice: once as is, which must
pass, and once with one reply deliberately corrupted, which the checker
must catch.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["hot", "cold", "sharded", "churn"]
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    out = os.path.join(build_dir(), "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", "4", "--target", "perfbench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, "perfbench")


def run(binary, args, echo=True):
    """Runs the benchmark binary; returns (exit code, parsed last line)."""
    cmd = [binary, "--out", os.path.join(build_dir(), "perfbench-out")] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, None
    lines = stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    if echo:
        sys.stdout.write(stdout)
        sys.stdout.flush()
    return proc.returncode, result


def selftest(binary):
    tiny = ["--seed", "11", "--seconds", "0.05", "--tiny"]
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, result = run(binary, ["--workload", workload, "--trace", trace]
                               + tiny, echo=False)
            good = code == 0 and result is not None and result["correct"]
            print("selftest %-8s trace=%s  %s" % (workload, trace,
                                                  "ok" if good else "FAILED"))
            ok = ok and good
        code, result = run(binary, ["--workload", workload, "--trace", "0",
                                    "--corrupt"] + tiny, echo=False)
        caught = code != 0 and result is not None and not result["correct"]
        print("selftest %-8s corrupted reply %s" % (
            workload, "caught" if caught else "NOT CAUGHT"))
        ok = ok and caught
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None or
                              args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return selftest(binary)
    extra = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace]
    code, _ = run(binary, extra)
    return code


if __name__ == "__main__":
    sys.exit(main())
