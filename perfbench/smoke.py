#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny budget.

Run from the repository root:

    python3 perfbench/smoke.py

Every workload, declared in BENCHMARK.json or not, runs untraced and
traced, on the default seed (1) and the held-out seed (2), both of which
have committed smoke-budget references.
Each run must exit 0, pass its checks with no cell lacking a committed
reference, and print exactly the metric names (with their units) that
BENCHMARK.json declares for that mode.
"""

import json
import subprocess
import sys

SEEDS = (1, 2)
# Runnable workloads that BENCHMARK.json does not declare (see src/llc.rs).
UNDECLARED = ("llc_4ch",)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in [w["name"] for w in bench["workloads"]] + list(UNDECLARED):
        for seed in SEEDS:
            for trace in (0, 1):
                cmd = bench["command"] + [
                    "--workload", workload, "--seed", str(seed), "--seconds", "1",
                    "--trace", str(trace), "--budget", "smoke",
                ]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                tag = f"{workload} seed={seed} trace={trace}"
                if proc.returncode != 0:
                    failures.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                    continue
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                provenance = json.loads(lines[-2])["provenance"]
                problems = []
                if provenance.get("ref_missing") != 0 or provenance.get("ref_matched", 0) < 1:
                    problems.append(f"references: matched={provenance.get('ref_matched')} "
                                    f"missing={provenance.get('ref_missing')}")
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"result keys {sorted(result)}")
                if not result.get("correct") or result.get("failed") != 0:
                    problems.append(f"checks failed: correct={result.get('correct')} failed={result.get('failed')}")
                if result.get("attempted", 0) < 1:
                    problems.append("nothing attempted")
                got = {n: m["unit"] for n, m in result.get("metrics", {}).items()}
                if got != declared[trace]:
                    missing = sorted(set(declared[trace]) - set(got))
                    extra = sorted(set(got) - set(declared[trace]))
                    units = sorted(n for n in got if n in declared[trace] and got[n] != declared[trace][n])
                    problems.append(f"metrics differ: missing={missing} extra={extra} unit_mismatch={units}")
                status = "ok" if not problems else "FAIL"
                print(f"{status:4} {tag}", flush=True)
                failures.extend(f"{tag}: {p}" for p in problems)
    for f in failures:
        print(f, file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
