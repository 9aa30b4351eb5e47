#!/usr/bin/env python3
"""Builds the end-to-end benchmark from the repository's sources and runs
one workload.

    python3 e2ebench/run.py --workload ingest_stream --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build), stores and span files to .bench_work. The
benchmark's output passes through unchanged; its last line is the result
JSON, once it holds exactly the metrics BENCHMARK.json lists for the mode.
Exits non-zero, without a result, when the sources or the build are
missing or broken, or the metrics do not match.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ingest_stream", "ingest_ack", "store_query", "paper_sweep")


def build(build_dir):
    """Configures (once) and builds the benchmark; build output -> stderr."""
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2ebench",
                  "-j", str(min(os.cpu_count() or 1, 4))])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                env=env)
        if result.returncode != 0:
            return False
    return True


def check_result(line, trace):
    """Why the result line does not hold the manifest's metrics of this
    mode in their units; empty when it does."""
    try:
        result = json.loads(line)
    except ValueError:
        return "no result line"
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return "the result line has the wrong keys"
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as manifest:
        specs = json.load(manifest)["per_layer" if trace else "end_to_end"]
    want = {spec["name"]: spec["unit"] for spec in specs}
    got = {name: metric.get("unit")
           for name, metric in result["metrics"].items()}
    return "" if got == want else (
        "the metrics differ from BENCHMARK.json's: %s" % sorted(
            set(got.items()) ^ set(want.items())))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(HERE, "..", "src", "stcomp",
                                       "CMakeLists.txt")):
        print("e2ebench: the stcomp sources (src/stcomp) are not next to "
              "the benchmark; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if not build(build_dir):
        print("e2ebench: build failed", file=sys.stderr)
        return 3
    work_dir = os.path.abspath(".bench_work")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    run = subprocess.run([
        os.path.join(build_dir, "e2ebench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work-dir", work_dir,
    ], stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    why = check_result(lines[-1] if lines else "", args.trace)
    if why:
        print("e2ebench: " + why, file=sys.stderr)
        return run.returncode or 4
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
