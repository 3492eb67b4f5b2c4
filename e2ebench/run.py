#!/usr/bin/env python3
"""Builds and runs the cbix end-to-end benchmark (see README.md).

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the library and the benchmark
program under .bench_build/e2ebench/ (later runs only check that the
build is up to date). The program's run record and result line are
printed to standard output; the result line, always the last, is
checked against BENCHMARK.json before it is printed: it must report
exactly the metrics BENCHMARK.json lists for this mode (end_to_end for
--trace 0, per_layer for --trace 1), with the same units.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
WORKLOADS = ("image_qbe", "int8_batch", "exact_mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(targets):
    """Configures (once) and builds `targets`; build output goes to stderr."""
    jobs = str(max(1, os.cpu_count() or 1))
    configured = BUILD_DIR / ".configured"
    steps = []
    if not configured.exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", *targets])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {' '.join(step)} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step)} exited with {done.returncode}")
        if step[1] == "-S":
            configured.touch()


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library sources, which identifies the code measured
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def declared_metrics(trace):
    """{name: unit} of the BENCHMARK.json section for this mode."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        section = spec["per_layer" if trace else "end_to_end"]
        return {m["name"]: m["unit"] for m in section}
    except (OSError, ValueError, KeyError, TypeError) as err:
        fail(f"cannot read the metric list of BENCHMARK.json: {err}")


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"last line of the benchmark is not JSON: {line!r}")
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line does not hold exactly correct/attempted/failed/metrics")
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    declared = declared_metrics(trace)
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        units = sorted(n for n in set(printed) & set(declared) if printed[n] != declared[n])
        fail(f"printed metrics differ from BENCHMARK.json: missing {missing}, "
             f"not declared {extra}, unit differs {units}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build(["e2e_bench"])
    scratch = BUILD_DIR / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    command = [str(BUILD_DIR / "e2e_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scratch", str(scratch),
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"benchmark program failed: {err}")
    if done.returncode != 0:
        fail(f"benchmark program exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("benchmark program printed nothing")
    check_result(lines[-1], args.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
