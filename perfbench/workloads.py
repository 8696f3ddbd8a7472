"""The benchmark's workloads: inputs made from a seed, the measured call into
ule, and the checks on its outputs.

Each workload goes through a public entry point, `ule.cli.main` or
`ule.analysis.trend_sweep`, and leaves its results as files in an output
directory. Seed 0 runs the exact configurations below; any other seed
scales B_z, T1 and the sweep temperatures by factors drawn uniformly from
[1 - JITTER, 1 + JITTER], so that a claim can be tested on inputs it was
not tuned on. Checks against the stored reference values apply only when
a run's inputs equal the inputs the reference was made from; the
structural checks apply always.
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

CHAIN_CONFIG = os.path.join("demos", "chain_n6.cfg")
# the values demos/chain_n6.cfg sets; seed 0 reproduces them exactly
BASE_B_Z = 8.0
BASE_T1 = 2.0
SWEEP_TEMPERATURES = (2.0, 4.0, 8.0)
SWEEP_COUPLINGS = (0.1, 0.05, 0.01)
JITTER = 0.02


def _factors(seed: int, count: int) -> list:
    if seed == 0:
        return [1.0] * count
    rng = random.Random(seed)
    return [1.0 + rng.uniform(-JITTER, JITTER) for _ in range(count)]


def chain_inputs(seed: int, sites: int) -> dict:
    f_bz, f_t1 = _factors(seed, 2)
    return {"N": sites, "B_z": BASE_B_Z * f_bz, "T1": BASE_T1 * f_t1}


def sweep_inputs(seed: int, sites: int) -> dict:
    f_bz, *f_temps = _factors(seed, 1 + len(SWEEP_TEMPERATURES))
    return {"N": sites, "B_z": BASE_B_Z * f_bz,
            "temperatures": [t * f for t, f in zip(SWEEP_TEMPERATURES, f_temps)],
            "couplings": list(SWEEP_COUPLINGS)}


def _cli_argv(command: str, inputs: dict, outdir: str, extra=()) -> list:
    return [command, "--config", CHAIN_CONFIG, "--outdir", outdir,
            "--N", str(inputs["N"]), "--B_z", repr(inputs["B_z"]),
            "--T1", repr(inputs["T1"]), *extra]


def _read_csv(path: str) -> list:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))[1:]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _check(checks: list, name: str, ok: bool, value):
    checks.append({"name": name, "ok": bool(ok), "value": value})


# ---------------------------------------------------------------- relax_n5

def run_relax(inputs: dict, outdir: str):
    from ule import cli
    return cli.main(_cli_argv("spinchain", inputs, outdir))


def reference_relax(outdir: str, returned) -> dict:
    with open(os.path.join(outdir, "summary.json")) as handle:
        summary = json.load(handle)
    return {"M": [float(r[1]) for r in _read_csv(os.path.join(outdir, "fig1a.csv"))],
            "M_ss": summary["M_ss"], "trace_distance": summary["trace_distance"]}


def check_relax(outdir: str, returned, observed, reference) -> list:
    checks: list = []
    _check(checks, "exit_code_0", returned == 0, returned)
    if returned != 0:
        return checks
    with open(os.path.join(outdir, "summary.json")) as handle:
        s = json.load(handle)
    _check(checks, "kernel_dim_1", s["kernel_dimension"] == 1, s["kernel_dimension"])
    _check(checks, "trace_drift_le_1e-10", s["max_trace_drift"] <= 1e-10,
           s["max_trace_drift"])
    _check(checks, "min_eig_ge_-1e-8", s["min_sample_eig"] >= -1e-8, s["min_sample_eig"])
    _check(checks, "steady_residual_le_1e-12", s["steady_residual"] <= 1e-12,
           s["steady_residual"])
    _check(checks, "trace_distance_gt_1e-3", s["trace_distance"] > 1e-3,
           s["trace_distance"])
    if reference is not None:
        got = reference_relax(outdir, returned)
        dev = max((abs(a - b) for a, b in zip(got["M"], reference["M"])),
                  default=float("inf"))
        ok = len(got["M"]) == len(reference["M"]) and dev <= 1e-6
        _check(checks, "ref_M_t_abs_le_1e-6", ok, dev)
        for key in ("M_ss", "trace_distance"):
            rel = _rel(got[key], reference[key])
            _check(checks, f"ref_{key}_rel_le_1e-9", rel <= 1e-9, rel)
    return checks


# ---------------------------------------------------------------- sweep_n5

SWEEP_HEADER = ["T", "gamma", "trace_distance", "max_abs_diag_deviation",
                "observable_gap"]


def run_sweep(inputs: dict, outdir: str):
    from ule import analysis, io, spinchain
    n = inputs["N"]
    spec = spinchain.SpinChainSpec(N=n, B_z=inputs["B_z"])
    system = analysis.TrendSystem(
        hamiltonian=spinchain.build_chain_hamiltonian(spec),
        coupling_op=spinchain.bath_coupling_operator(1, n),
        observable=spinchain.magnetization(n))
    result = analysis.trend_sweep(system, inputs["temperatures"], inputs["couplings"])
    rows = [(t, g, c.trace_distance, c.max_abs_diag_deviation, c.observable_gap)
            for (t, g), c in result.cells.items()]
    io.write_csv(os.path.join(outdir, "sweep.csv"), SWEEP_HEADER, rows)
    return result


def reference_sweep(outdir: str, returned) -> dict:
    rows = _read_csv(os.path.join(outdir, "sweep.csv"))
    return {"trace_distance": [float(r[2]) for r in rows]}


def check_sweep(outdir: str, returned, observed, reference) -> list:
    from ule.analysis import sweep_monotonicity
    checks: list = []
    n_cells = len(returned.temperatures) * len(returned.couplings)
    _check(checks, "no_cell_errors", not returned.errors, len(returned.errors))
    dims = observed["kernel_dimensions"]
    _check(checks, "kernel_dim_1_every_cell",
           len(dims) == n_cells and all(d == 1 for d in dims), dims)
    monotone, violations = sweep_monotonicity(returned)
    _check(checks, "monotone", monotone, len(violations))
    if reference is not None:
        got = reference_sweep(outdir, returned)["trace_distance"]
        want = reference["trace_distance"]
        rel = max((_rel(a, b) for a, b in zip(got, want)), default=float("inf"))
        _check(checks, "ref_trace_distance_rel_le_1e-9",
               len(got) == len(want) and rel <= 1e-9, rel)
    return checks


# -------------------------------------------------------- residual_n5_lamb

def run_residual(inputs: dict, outdir: str):
    from ule import cli
    return cli.main(_cli_argv("residual", inputs, outdir,
                              extra=("--ignore_lamb_shift", "false")))


def reference_residual(outdir: str, returned) -> dict:
    rows = dict(_read_csv(os.path.join(outdir, "residuals.csv")))
    return {key: float(val) for key, val in rows.items()}


def check_residual(outdir: str, returned, observed, reference) -> list:
    checks: list = []
    _check(checks, "exit_code_0", returned == 0, returned)
    if returned != 0:
        return checks
    r = reference_residual(outdir, returned)
    _check(checks, "lamb_shift_on", r["lambshift_direct_norm"] > 0,
           r["lambshift_direct_norm"])
    _check(checks, "dissipator_mismatch_le_1e-10_direct",
           r["dissipator_mismatch"] <= 1e-10 * r["dissipator_direct_norm"],
           r["dissipator_mismatch"])
    _check(checks, "lambshift_mismatch_le_1e-6_direct",
           r["lambshift_mismatch"] <= 1e-6 * r["lambshift_direct_norm"],
           r["lambshift_mismatch"])
    for key in ("secular_dissipator_norm", "secular_lambshift_norm"):
        _check(checks, f"{key}_le_1e-12", r[key] <= 1e-12, r[key])
    if reference is not None:
        rel = _rel(r["lambshift_direct_norm"], reference["lambshift_direct_norm"])
        _check(checks, "ref_lambshift_direct_norm_rel_le_1e-6", rel <= 1e-6, rel)
    return checks


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `root` names the span whose own self time should stay small: a layer
    (`cli`, all its functions) or one function. `instance_s` is about what
    one instance took at the seed commit on a 2-vCPU box with one BLAS
    thread; a run measures `max(1, seconds // instance_s)` instances, a
    count that does not depend on the speed of the code under test.
    """

    name: str
    why: str
    inputs: Callable    # (seed, sites) -> dict
    run: Callable       # (inputs, outdir) -> returned value
    check: Callable     # (outdir, returned, observed, reference) -> [check]
    reference: Callable  # (outdir, returned) -> values for reference.json
    root: str
    instance_s: float


WORKLOADS = {w.name: w for w in (
    Workload("relax_n5",
             "ule spinchain at N=5, Lamb shift off: ~90% DP5 propagation, "
             "one 1024^2 SVD, no quadrature",
             chain_inputs, run_relax, check_relax, reference_relax, "cli", 20.0),
    Workload("sweep_n5",
             "trend_sweep on the N=5 chain over 3 T x 3 gamma: 9 dense "
             "Liouvillian builds and SVD steady states, no propagation or quadrature",
             sweep_inputs, run_sweep, check_sweep, reference_sweep,
             "analysis.trend_sweep", 15.0),
    Workload("residual_n5_lamb",
             "ule residual at N=5 with the Lamb shift: the f table and the "
             "two-route Gibbs residuals carry the load, no dynamics",
             chain_inputs, run_residual, check_residual, reference_residual, "cli", 24.0),
)}


def purpose(name: str, layers: dict) -> list:
    """What the traced run should confirm about a workload at full size.

    Returns (description, value, holds) triples. They are printed, not
    counted as failures: a later optimisation may legitimately move them.
    """
    def v(key):
        return layers[key][0]
    wall = v("trace.wall_s")
    share = {
        "relax_n5": ("dynamics.propagate_s / wall >= 0.70", v("dynamics.propagate_s") / wall, 0.70),
        "sweep_n5": ("(steady_state_s + build_liouvillian_s) / wall >= 0.60",
                     (v("dynamics.steady_state_s") + v("generator.build_liouvillian_s")) / wall, 0.60),
        "residual_n5_lamb": ("bath.f_table_s / wall >= 0.80", v("bath.f_table_s") / wall, 0.80),
    }[name]
    out = [(share[0], share[1], share[1] >= share[2]),
           ("root.self_s / wall < 0.10", v("root.self_s") / wall, v("root.self_s") < 0.10 * wall)]
    if name != "residual_n5_lamb":
        out.append(("bath.f_evals == 0", v("bath.f_evals"), v("bath.f_evals") == 0))
    if name != "relax_n5":
        out.append(("dynamics.steps_accepted == 0", v("dynamics.steps_accepted"),
                    v("dynamics.steps_accepted") == 0))
    return out
