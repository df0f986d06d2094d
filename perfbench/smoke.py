#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at reduced size, both modes.

Run from the repository root:

    python3 perfbench/smoke.py

For each workload in BENCHMARK.json it runs the benchmark with
`--size small` and `--trace 0` and `--trace 1`. It asserts that each run
exits 0 and ends with the result object, that every check passed, and
that the run printed exactly the metrics BENCHMARK.json names for that
mode, each with its unit. It exits 1 on the first failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    base = ["cargo", "run", "-q", "--release", "--offline",
            "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"), "--"]
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", trace, "--size", "small"]
            proc = subprocess.run(base + args, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            problems = []
            result = None
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}")
            else:
                try:
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                except (IndexError, json.JSONDecodeError) as e:
                    problems.append(f"last line is not the result object: {e}")
            if result is not None:
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"result keys {sorted(result)}")
                if result.get("correct") is not True or result.get("failed") != 0:
                    fails = [l for l in proc.stdout.splitlines() if l.startswith("check FAIL")]
                    problems.append(f"checks failed: {fails}")
                if not result.get("attempted", 0) >= 1:
                    problems.append("attempted < 1")
                got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
                for name, unit in wanted[trace].items():
                    if name not in got:
                        problems.append(f"metric {name} missing")
                    elif got[name] != unit:
                        problems.append(f"metric {name} has unit {got[name]!r}, want {unit!r}")
                    elif not isinstance(result["metrics"][name].get("value"), (int, float)):
                        problems.append(f"metric {name} has no numeric value")
                extra = sorted(set(got) - set(wanted[trace]))
                if extra:
                    problems.append(f"metrics not in BENCHMARK.json: {extra}")
            status = "ok" if not problems else "FAIL"
            print(f"{status:4} {workload:8} trace={trace}")
            for p in problems:
                print(f"     {p}")
            failures += bool(problems)
    if failures:
        print(f"{failures} smoke run(s) failed")
        return 1
    print("every workload printed every named metric with its unit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
