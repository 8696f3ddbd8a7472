"""One workload instance in a fresh process; started by run.py, not by hand.

The parent sets the BLAS thread variables in this process's environment
before numpy is imported, passes its spawn timestamp (time.monotonic, which
is system-wide on Linux) and reads the JSON result file this process
writes. Set-up time runs from that timestamp to the first call into a
non-CLI layer. With --probe the process stops at that call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ule.cli  # noqa: E402  (imports every layer: part of set-up)

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Observations:
    """Facts read from layer return values while the workload runs."""

    def __init__(self):
        self.kernel_dimensions = []
        self.steady_residual = 0.0
        self.steps_accepted = 0
        self.steps_rejected = 0
        self.max_trace_drift = 0.0
        self.min_sample_eig = None
        self.superop_bytes = 0
        self.nfreq = 0
        self.f_pairs = set()

    def on_steady_state(self, report, args, kwargs):
        self.kernel_dimensions.append(int(report.kernel_dimension))
        self.steady_residual = max(self.steady_residual, float(report.residual))

    def on_propagate(self, traj, args, kwargs):
        st = traj.stats
        self.steps_accepted += int(st["n_accepted"])
        self.steps_rejected += int(st["n_rejected"])
        self.max_trace_drift = max(self.max_trace_drift, float(st["max_trace_drift"]))
        eig = float(st["min_sample_eig"])
        self.min_sample_eig = eig if self.min_sample_eig is None else min(
            self.min_sample_eig, eig)

    def on_build_liouvillian(self, sop, args, kwargs):
        self.superop_bytes += 16 * sop.dim ** 4

    def on_bohr_decompose(self, bohr, args, kwargs):
        self.nfreq = max(self.nfreq, int(bohr.nfreq))

    def on_f_integral(self, value, args, kwargs):
        self.f_pairs.add((args, tuple(sorted(kwargs.items()))))

    def untraced(self) -> dict:
        return {"dynamics.steady_state": self.on_steady_state}

    def traced(self) -> dict:
        return {"dynamics.steady_state": self.on_steady_state,
                "dynamics.propagate": self.on_propagate,
                "generator.build_liouvillian": self.on_build_liouvillian,
                "operators.bohr_decompose": self.on_bohr_decompose,
                "bath.f_integral": self.on_f_integral}


def layer_metrics(tracer, obs: Observations, wall_s: float, root: str) -> dict:
    """Per-layer metrics of a traced instance, name -> [value, unit].

    Function times are inclusive (span totals); `<layer>.self_s` sums the
    self time of that layer's spans.
    """
    inc = tracer.inclusive
    f_evals = tracer.calls("bath.f_integral")
    steps = obs.steps_accepted + obs.steps_rejected
    applies = tracer.calls("generator.apply_matrix")
    m = {
        "bath.f_table_s": [inc("bath.f_table"), "s"],
        "bath.f_evals": [f_evals, "count"],
        "bath.f_pair_ms": [1e3 * inc("bath.f_integral") / f_evals if f_evals else 0.0, "ms"],
        "bath.f_unique_ratio": [len(obs.f_pairs) / f_evals if f_evals else 0.0, "ratio"],
        "dynamics.propagate_s": [inc("dynamics.propagate"), "s"],
        "dynamics.steps_accepted": [obs.steps_accepted, "count"],
        "dynamics.steps_rejected": [obs.steps_rejected, "count"],
        "dynamics.step_ms": [1e3 * inc("dynamics.propagate") / steps if steps else 0.0, "ms"],
        "generator.apply_calls": [applies, "count"],
        "generator.apply_us": [1e6 * inc("generator.apply_matrix") / applies if applies else 0.0, "us"],
        "dynamics.steady_state_s": [inc("dynamics.steady_state"), "s"],
        "dynamics.steady_calls": [tracer.calls("dynamics.steady_state"), "count"],
        "generator.build_liouvillian_s": [inc("generator.build_liouvillian"), "s"],
        "generator.superop_mb_computed": [obs.superop_bytes / 1e6, "MB"],
        "generator.build_generator_s": [inc("generator.build_generator"), "s"],
        "generator.build_lamb_shift_s": [inc("generator.build_lamb_shift"), "s"],
        "analysis.gibbs_residual_report_s": [inc("analysis.gibbs_residual_report"), "s"],
        "analysis.gibbs_deviation_s": [inc("analysis.gibbs_deviation"), "s"],
        "analysis.trend_sweep_s": [inc("analysis.trend_sweep"), "s"],
        "operators.eigendecompose_s": [inc("operators.eigendecompose"), "s"],
        "operators.bohr_decompose_s": [inc("operators.bohr_decompose"), "s"],
        "operators.nfreq": [obs.nfreq, "count"],
        "spinchain.run_relaxation_s": [inc("spinchain.run_relaxation"), "s"],
        "spinchain.build_chain_hamiltonian_s": [inc("spinchain.build_chain_hamiltonian"), "s"],
        "io.write_s": [inc("io.write_csv") + inc("io.write_json"), "s"],
        "dynamics.max_trace_drift": [obs.max_trace_drift, "1"],
        "dynamics.min_sample_eig": [obs.min_sample_eig or 0.0, "1"],
        "dynamics.steady_residual": [obs.steady_residual, "1"],
        "root.self_s": [tracer.self_time(root), "s"],
        "trace.wall_s": [wall_s, "s"],
    }
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = [tracer.self_time(layer), "s"]
    return m


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--reference", required=True)
    args = p.parse_args(argv)

    work = WORKLOADS[args.workload]
    inputs = work.inputs(args.seed, args.sites)
    os.makedirs(args.outdir, exist_ok=True)
    clock = spans.WorkClock()
    obs = Observations()
    if args.trace:
        inst = spans.Tracer(clock, obs.traced())
    else:
        inst = spans.FirstCall(clock, obs.untraced(), stop_at_first=args.probe)
    try:
        returned = work.run(inputs, args.outdir)
        clock.mark_end()
        peak_rss_mb = clock.peak_rss_mb()
    except spans.SetupDone:
        returned = None
    finally:
        inst.close()
    if not clock.started:
        raise RuntimeError("the workload made no layer call")
    result = {"setup_s": clock.start_monotonic - args.t_spawn}
    if not args.probe:
        with open(args.reference) as handle:
            entry = json.load(handle)["workloads"].get(work.name)
        reference = entry["values"] if entry and entry["inputs"] == inputs else None
        observed = {"kernel_dimensions": obs.kernel_dimensions}
        result.update(
            wall_s=clock.wall_s, cpu_s=clock.cpu_s,
            peak_rss_mb=peak_rss_mb, inputs=inputs,
            reference_checked=reference is not None,
            checks=work.check(args.outdir, returned, observed, reference),
            environment=environment())
        if args.trace:
            result["layers"] = layer_metrics(inst, obs, clock.wall_s, work.root)
            result["spans"] = inst.rows()
    with open(args.result, "w") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
