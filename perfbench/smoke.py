"""Smoke test of the benchmark itself, at chain length N = 3 (a few seconds
per run):

    python3 perfbench/smoke.py

For every workload it runs perfbench/run.py untraced (seed 0) and traced
(seed 1) and requires: exit code 0, a last line with exactly the four
result keys, no failed check, every metric BENCHMARK.json names printed
with its unit, and traced output files byte-identical to untraced ones.
It also requires the benchmark to refuse to run, without a result line,
in a directory that holds only BENCHMARK.json and the benchmark's files.
Exit code 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: str, *args: str):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=175)


def check_run(workload: str, trace: int, seed: int, spec: dict) -> list:
    proc = run_bench(ROOT, "--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace), "--sites", "3")
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        failed = [ln for ln in lines if "FAILED" in ln]
        problems.append(f"{label}: not correct: {failed}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}, units "
                        f"{sorted(k for k in wanted if k in got and got[k] != wanted[k])}")
    printed = set(re.findall(r"^metric (\S+) = \S+ (\S+)$", proc.stdout, re.M))
    missing = set(wanted.items()) - printed
    if missing:
        problems.append(f"{label}: not printed with unit: {sorted(missing)}")
    if trace and f"check {workload} [traced] outputs_byte_identical_to_untraced: ok" \
            not in proc.stdout:
        problems.append(f"{label}: traced outputs not byte-identical to untraced")
    return problems


def check_refuses_without_sources() -> list:
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    bare = tempfile.mkdtemp(dir=work_root)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = run_bench(bare, "--workload", "relax_n5", "--seed", "0",
                         "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or "correct" in proc.stdout:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    if [(w["name"], w["why"]) for w in spec["workloads"]] != [
            (w.name, w.why) for w in WORKLOADS.values()]:
        problems.append("BENCHMARK.json workloads differ from perfbench/workloads.py")
    for workload in WORKLOADS:
        for trace, seed in ((0, 0), (1, 1)):
            found = check_run(workload, trace, seed, spec)
            print(f"{workload} trace={trace} seed={seed}: {'ok' if not found else 'FAILED'}")
            problems += found
    problems += check_refuses_without_sources()
    for p in problems:
        print(p, file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
