#!/usr/bin/env python3
"""certkit perf ledger: build the ledger from source, then run one workload.

    python3 perf_ledger/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Workloads: tick_release, campaign_fleet, analysis_corpus (see
BENCHMARK.json for why each was chosen). The build goes to
$CARGO_TARGET_DIR/perf_ledger (default .bench_build/perf_ledger) under the
checkout; the first run compiles everything, later runs only rebuild what
changed. The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}. A failed build or run exits
non-zero without printing one.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tick_release", "campaign_fleet", "analysis_corpus")
BUILD_JOBS = 4


def fail(message, log=None):
    if log is not None and os.path.exists(log):
        with open(log, encoding="utf-8", errors="replace") as f:
            sys.stderr.write(f.read()[-4000:])
    sys.stderr.write("perf_ledger: %s\n" % message)
    sys.exit(1)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    with open(log, "w", encoding="utf-8") as out:
        steps = [["cmake", "-S", HERE, "-B", build_dir],
                 ["cmake", "--build", build_dir, "-j", str(BUILD_JOBS)]]
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT) != 0:
                fail("build step failed: %s" % " ".join(step), log)
    return os.path.join(build_dir, "perf_ledger")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    spec = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec):
        fail("no BENCHMARK.json at the checkout root")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perf_ledger")
    binary = build(build_dir)

    # The binary runs inside its build tree, so everything it writes (the
    # analysis cache, the Chrome trace) stays there.
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", args.trace,
         "--spec", spec, "--out-dir", out_dir],
        cwd=out_dir, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("%s exited with %d" % (args.workload, proc.returncode))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
