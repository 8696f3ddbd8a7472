"""Benchmark of the ule pipeline: end-to-end metrics, output checks and a
per-layer traced run.

    python3 perfbench/run.py                      # every workload, untraced then traced
    python3 perfbench/run.py --workload relax_n5 --seed 3 --seconds 20 --trace 0

Each workload instance runs in a fresh process (perfbench/worker.py) with
BLAS pinned to one thread. With --trace 0 a run starts SETUP_PROBES
processes that stop at their first layer call (set-up time), half before
and half after max(1, seconds // instance_s) timed instances (instance_s is
a per-workload constant, see workloads.py), and reports medians. With --trace 1 it runs one untraced and one traced
instance on the same inputs, requires their output files to be
byte-identical, and reports per-layer metrics from the traced one.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Exit code 2 means the
benchmark could not start (for example, no ule sources next to it).
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, purpose  # noqa: E402

SETUP_PROBES = 8
RUN_LIMIT_S = 170.0       # every run must end well within 180 s
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
REFERENCE = os.path.join(HERE, "reference.json")
REQUIRED = (os.path.join("src", "ule", "__init__.py"), os.path.join("demos", "chain_n6.cfg"))


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Starts worker processes for one benchmark run and tallies failures."""

    def __init__(self, workdir: str, deadline: float, sites: int):
        self.workdir = workdir
        self.deadline = deadline
        self.sites = sites
        self.attempted = 0
        self.failed = 0
        self._count = 0

    def spawn(self, workload: str, seed: int, trace: int, probe: bool = False):
        """Run one worker; returns (result dict or None, outdir)."""
        self._count += 1
        tag = f"{workload}-{self._count}"
        outdir = os.path.join(self.workdir, tag)
        result_path = os.path.join(self.workdir, tag + ".json")
        log_path = os.path.join(self.workdir, tag + ".log")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed), "--sites", str(self.sites),
               "--trace", str(trace), "--outdir", outdir, "--result", result_path,
               "--reference", REFERENCE]
        if probe:
            cmd.append("--probe")
        env = dict(os.environ, **THREAD_ENV)
        self.attempted += 1
        timeout = self.deadline - time.monotonic()
        with open(log_path, "w") as log:
            try:
                if timeout <= 0:
                    raise subprocess.TimeoutExpired(cmd, 0)
                t_spawn = time.monotonic()
                proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], cwd=ROOT,
                                      env=env, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=timeout)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        result = None
        if code == 0:
            with open(result_path) as handle:
                result = json.load(handle)
        else:
            self.failed += 1
            with open(log_path) as log:
                tail = log.read()[-2000:]
            print(f"worker {tag} failed ({code}):\n{tail}", file=sys.stderr)
        if result is not None and not all(c["ok"] for c in result.get("checks", [])):
            self.failed += 1
        return result, outdir


def print_checks(workload: str, label: str, result: dict):
    for c in result["checks"]:
        status = "ok" if c["ok"] else "FAILED"
        print(f"check {workload} [{label}] {c['name']}: {status} ({c['value']})")


def print_metrics(metrics: dict, prefix: str = ""):
    for name, m in metrics.items():
        print(f"metric {prefix}{name} = {m['value']!r} {m['unit']}")


def run_untraced(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics: medians over set-up probes and timed instances.

    Half the probes run before the instances and half after, so the set-up
    median samples the machine at two moments of the run.
    """
    setups = []

    def probe(count):
        for _ in range(count):
            result, _ = runner.spawn(workload, seed, trace=0, probe=True)
            if result is not None:
                setups.append(result["setup_s"])

    probe(SETUP_PROBES // 2)
    instances = []
    for _ in range(max(1, int(seconds // WORKLOADS[workload].instance_s))):
        result, _ = runner.spawn(workload, seed, trace=0)
        if result is None:
            break
        instances.append(result)
        print_checks(workload, f"instance {len(instances)}", result)
    probe(SETUP_PROBES - SETUP_PROBES // 2)
    if not instances:
        return {}
    setups += [r["setup_s"] for r in instances]
    print("environment " + json.dumps(instances[0]["environment"]))
    print("inputs " + json.dumps(instances[0]["inputs"])
          + f" reference_checked={instances[0]['reference_checked']}")
    print(f"samples {workload}: wall_s {[r['wall_s'] for r in instances]}, "
          f"setup_s {setups}")

    def med(key):
        return statistics.median(r[key] for r in instances)
    return {
        "wall_s": {"value": med("wall_s"), "unit": "s"},
        "cpu_s": {"value": med("cpu_s"), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
    }


def _same_files(a: str, b: str) -> bool:
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    return all(filecmp.cmp(os.path.join(a, n), os.path.join(b, n), shallow=False)
               for n in names)


def run_traced(runner: Runner, workload: str, seed: int) -> dict:
    """Per-layer metrics from a traced instance, next to an untraced one."""
    plain, plain_dir = runner.spawn(workload, seed, trace=0)
    traced, traced_dir = runner.spawn(workload, seed, trace=1)
    if plain is None or traced is None:
        return {}
    print_checks(workload, "untraced", plain)
    print_checks(workload, "traced", traced)
    identical = _same_files(plain_dir, traced_dir)
    print(f"check {workload} [traced] outputs_byte_identical_to_untraced: "
          f"{'ok' if identical else 'FAILED'} ({sorted(os.listdir(traced_dir))})")
    if not identical:
        runner.failed += 1
    print("environment " + json.dumps(traced["environment"]))
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = [traced["wall_s"] - plain["wall_s"], "s"]
    for desc, value, holds in purpose(workload, layers):
        print(f"purpose {workload}: {desc}: {value!r} {'holds' if holds else 'DOES NOT HOLD'}")
    for span in traced["spans"][:12]:
        print(f"span {span['parent']} -> {span['name']}: {span['calls']} calls, "
              f"{span['inclusive_s']:.4f} s incl, {span['self_s']:.4f} s self")
    return {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measurement length of an untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: end-to-end metrics, 1: per-layer metrics; default: both")
    p.add_argument("--sites", type=int, default=5,
                   help="chain length N (the smoke test uses 3)")
    args = p.parse_args(argv)

    missing = [r for r in REQUIRED if not os.path.exists(os.path.join(ROOT, r))]
    if missing:
        print(f"cannot benchmark: {', '.join(missing)} not found under {ROOT}",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.trace is None else (args.trace,)
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    limit = RUN_LIMIT_S * len(names) * len(modes)
    runner = Runner(workdir, started + limit, args.sites)
    print(f"run seed={args.seed} sites={args.sites} commit={git_commit()} "
          f"nproc={os.cpu_count()} thread_env={json.dumps(THREAD_ENV)}")
    metrics = {}
    try:
        for name in names:
            for mode in modes:
                if mode == 0:
                    got = run_untraced(runner, name, args.seed, args.seconds)
                else:
                    got = run_traced(runner, name, args.seed)
                prefix = "" if len(names) == 1 else name + "."
                print_metrics(got, prefix)
                metrics.update({prefix + k: v for k, v in got.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"failed_frac = {runner.failed / max(runner.attempted, 1)!r} "
          f"({runner.failed}/{runner.attempted})")
    print(json.dumps({"correct": runner.failed == 0 and bool(metrics),
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
