#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark, from the root of a checkout:

    python3 e2ebench/selftest.py

1. e2e_selftest: the oracle and reply checks on hand-checked cases with
   ties, and the tail-percentile rule.
2. BENCHMARK.json lists exactly the metrics the program can print
   (e2e_bench --list-metrics): same names, units, directions and
   sections, and its workloads are the ones run.py accepts.

Exits non-zero on the first failure.
"""

import json
import subprocess
import sys

import run


def check_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = subprocess.run([str(run.BUILD_DIR / "e2e_bench"), "--list-metrics"],
                            capture_output=True, text=True, timeout=60, check=True)
    program = {}
    for line in listed.stdout.splitlines():
        section, name, unit, better = line.split()
        program[name] = (section, unit, better)
    declared = {}
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            declared[metric["name"]] = (section, metric["unit"], metric["better"])
    if declared != program:
        diff = sorted(set(declared.items()) ^ set(program.items()))
        run.fail(f"BENCHMARK.json and e2e_bench --list-metrics differ: {diff}")
    workloads = tuple(w["name"] for w in spec["workloads"])
    if workloads != run.WORKLOADS:
        run.fail(f"BENCHMARK.json workloads {workloads} != run.py's {run.WORKLOADS}")
    print(f"selftest.py: BENCHMARK.json matches the program's "
          f"{len(program)} metrics and {len(workloads)} workloads")


def main():
    run.build(["e2e_bench", "e2e_selftest"])
    done = subprocess.run([str(run.BUILD_DIR / "e2e_selftest")], timeout=60, check=False)
    if done.returncode != 0:
        run.fail("e2e_selftest failed")
    check_benchmark_json()


if __name__ == "__main__":
    sys.exit(main())
