"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py [--seed N] [--seconds S]

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
checks that the last line is the result object, that it names exactly the
metrics BENCHMARK.json lists (with their units), that every value is a
finite number and that no op failed.  It also checks that the benchmark
refuses to run, with a non-zero exit and no result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.  Exits 1 on any
problem.
"""
from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, workload, seed, seconds, trace):
    argv = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run([sys.executable if a == "python3" else a for a in argv],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, expected):
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"last line is not JSON ({exc})"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}: "
                        + next((l for l in lines if l.startswith("meta ")), ""))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metrics missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            problems.append(f"{name} = {value!r}")
        if name in expected and entry.get("unit") != expected[name]:
            problems.append(f"{name} unit {entry.get('unit')!r}, expected {expected[name]!r}")
    return problems


def check_bare(seed):
    """The benchmark must refuse to run without the program's sources."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], seed, 1, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        return [f"ran without sources: exit {proc.returncode}, last line {last!r}"]
    return []


def main():
    parser = argparse.ArgumentParser(description="smoke check of the benchmark")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    expected = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    failures = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            problems = check_result(run(ROOT, workload, args.seed, args.seconds, trace),
                                    expected[trace])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok':4} {workload} --trace {trace}")
            for problem in problems:
                print(f"     {problem}")
    problems = check_bare(args.seed)
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok':4} refuses to run without src/g2lab")
    for problem in problems:
        print(f"     {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
