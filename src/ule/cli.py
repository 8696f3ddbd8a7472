"""Command-line interface.

Subcommands:
    spinchain  full relaxation experiment -> fig1a.csv, fig1b.csv, summary.json
    evolve     magnetization trajectory only -> evolve.csv
    steady     steady state and Gibbs deviation -> steady.csv
    residual   Gibbs-residual report for the configured chain -> residuals.csv
    bath       tabulate g(omega) and f(E1, E2) -> bath_g.csv, bath_f.csv
    sweep      temperature/coupling trend on the three-level baseline -> sweep.csv

Configuration is a flat `key = value` text file (# comments); any key can
be overridden on the command line with --key value, or --key=value for a
value that starts with '-' (--B_z=-1e-3). Exit codes: 0 success,
2 configuration or validation error (a bad option too), 3 numerical
failure; `main(argv)` returns them, and only --help exits via argparse.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .analysis import (
    gibbs_residual_report,
    sweep_monotonicity,
    three_level_baseline,
    trend_sweep,
)
from .bath import BathSpec, QuadratureSpec, QuadratureError, f_values, jump_spectral
from .dynamics import PropagationError, SteadyStateError
from .generator import _require_memory
from .io import format_value, write_csv, write_json
from .operators import eigendecompose
from .spinchain import (
    SpinChainSpec,
    build_chain_hamiltonian,
    build_chain_superop,
    chain_channels,
    chain_steady_state,
    relax_chain,
    run_relaxation,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises ConfigError, named by its command, where
    argparse would print its usage and exit 2; subparsers inherit it."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


# The range a value must lie in: (test, requirement).
_FINITE = (math.isfinite, "finite")
_POSITIVE = (lambda v: 0 < v < math.inf, "finite and positive")
_NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "finite and non-negative")
_AT_LEAST_ONE = (lambda v: v >= 1, "at least 1")


def _check(name: str, value, rule):
    """ConfigError naming `name` and `value` unless `value` is in the range `rule`."""
    if not rule[0](value):
        raise ConfigError(f"{name} must be {rule[1]}, got {value}")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_list(option: str, text: str, rule=_FINITE) -> list:
    """The numbers of a comma-separated list option, each in the range `rule`;
    empty items are skipped."""
    values = []
    for item in text.split(","):
        if not item.strip():
            continue
        try:
            value = float(item)
        except ValueError:
            raise ConfigError(f"{option}: expected a number, got {item.strip()!r}") from None
        _check(f"{option} values", value, rule)
        values.append(value)
    return values


def _parse_sites(text: str):
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 2:
        raise ValueError(f"expected two sites, got {text!r}")
    return (int(parts[0]), int(parts[1]))


# key -> (parser, default, range). A key whose default is None stays absent
# unless the config file or a command-line override sets it; `load_config`
# requires the keys of the command's `required` set and checks every value
# it holds against the key's range (None: the parser is the check).
CONFIG_SCHEMA = {
    "N": (int, None, _AT_LEAST_ONE),
    "eta": (float, SpinChainSpec.eta, _FINITE),
    "B_z": (float, None, _FINITE),
    "T1": (float, None, _POSITIVE),
    "T2": (float, SpinChainSpec.T2, _POSITIVE),
    "gamma1": (float, None, _NON_NEGATIVE),
    "gamma2": (float, SpinChainSpec.gamma2, _NON_NEGATIVE),
    "Lambda_c": (float, SpinChainSpec.Lambda_c, _POSITIVE),
    "couple_sites": (_parse_sites, SpinChainSpec.couple_sites, None),
    "ignore_lamb_shift": (_parse_bool, SpinChainSpec.lamb_shift is None, None),
    "rtol": (float, QuadratureSpec.rtol, _POSITIVE),
    "atol": (float, QuadratureSpec.atol, _POSITIVE),
    "t_end": (float, None, _POSITIVE),
    "samples": (int, 200, _AT_LEAST_ONE),
    "tol": (float, 1e-8, _POSITIVE),
}


def _parse_value(key: str, text: str, where: str):
    """Parse one value with its schema parser; `where` prefixes the error."""
    try:
        return CONFIG_SCHEMA[key][0](text)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config_text(text: str) -> dict:
    """Parse flat `key = value` lines; `#` starts a comment."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, val.strip(), f"line {lineno}: bad value for {key}")
    return values


CHAIN_KEYS = frozenset({"N", "B_z", "T1", "gamma1"})
BATH_KEYS = frozenset({"T1", "gamma1"})


def load_config(args, required=CHAIN_KEYS) -> dict:
    values = {}
    if args.config is not None:
        try:
            with open(args.config) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        values.update(parse_config_text(text))
    for key in CONFIG_SCHEMA:
        override = getattr(args, f"opt_{key}", None)
        if override is not None:
            values[key] = _parse_value(key, override, f"bad value for --{key}")
    for key, (_, default, _) in CONFIG_SCHEMA.items():
        if key in values:
            continue
        if key in required:
            raise ConfigError(f"missing config key {key!r}")
        if default is not None:
            values[key] = default
    for key, value in values.items():
        if CONFIG_SCHEMA[key][2] is not None:
            _check(key, value, CONFIG_SCHEMA[key][2])
    return values


def quad_from_config(cfg: dict) -> QuadratureSpec:
    return QuadratureSpec(rtol=cfg["rtol"], atol=cfg["atol"])


# Peak of each chain command, Lamb shift (off, on), in complex d x d arrays of 16 d^2
# bytes, measured at N = 8-11 (README, Sizes); steady's counts the Krylov vectors it writes.
_PEAK_ARRAYS = {"spinchain": (40, 40), "evolve": (32, 32), "steady": (40, 40), "residual": (19, 28)}
# Bytes held per row of a written table: tracemalloc read 224-226 per sample
# or --omega-points point, 322 per --e-list pair at 10^5 pairs; 24% margin.
_ROW_BYTES = 400
# The block workspace `f_values` holds whatever its pair count: tracemalloc
# read 5.26 MB beyond 80 bytes a pair from 1,000 pairs up; 24% margin.
_F_WORKSPACE_BYTES = 6.5e6


def _chain_input(args, sampled: bool = False) -> tuple[dict, SpinChainSpec]:
    """(cfg, spec) of a chain command, after MemoryLimitError if its peak (its
    arrays, plus a row per sample if `sampled`) would not fit in memory."""
    cfg = load_config(args)
    spec = SpinChainSpec(
        N=cfg["N"], eta=cfg["eta"], B_z=cfg["B_z"], T1=cfg["T1"], T2=cfg["T2"],
        gamma1=cfg["gamma1"], gamma2=cfg["gamma2"], Lambda_c=cfg["Lambda_c"],
        couple_sites=cfg.get("couple_sites"),
        lamb_shift=None if cfg["ignore_lamb_shift"] else quad_from_config(cfg))
    arrays = _PEAK_ARRAYS[args.command][spec.lamb_shift is not None]
    rows = cfg["samples"] if sampled else 0
    # 2^(2N + 4) bytes an array, the exponent capped where the need is inf anyway
    need = arrays * 2.0 ** min(2 * spec.N + 4, 1023) + rows * _ROW_BYTES
    _require_memory(need, f"ule {args.command} at N = {spec.N} ({arrays} arrays of "
                          f"2^{2 * spec.N + 4} bytes, {rows} rows for samples)")
    return cfg, spec


def _out(args, name: str) -> str:
    import os
    os.makedirs(args.outdir, exist_ok=True)
    return os.path.join(args.outdir, name)


def cmd_spinchain(args) -> int:
    cfg, spec = _chain_input(args, sampled=True)
    result = run_relaxation(spec, t_end=cfg.get("t_end"),
                            samples=cfg["samples"], tol=cfg["tol"])
    traj, dev = result.trajectory, result.deviation
    write_csv(_out(args, "fig1a.csv"), ["t", "M"],
              zip(traj.times.tolist(), traj.observables["M"].tolist()))
    write_csv(_out(args, "fig1b.csv"), ["n", "E_n", "rho_nn", "rho_nn_th"], dev.rows())
    summary = {
        "M_ss": dev.observable_steady,
        "M_ss_th": dev.observable_thermal,
        "M_gap": dev.observable_gap,
        "trace_distance": dev.trace_distance,
        "max_abs_diag_deviation": dev.max_abs_diag_deviation,
        "max_rel_diag_deviation": dev.max_rel_diag_deviation,
        "rho11_gap": dev.rho11_gap,
        "rho11_rel_gap": dev.rho11_rel_gap,
        "steady_residual": result.steady.residual,
        "kernel_dimension": result.steady.kernel_dimension,
        "steady_rcond": result.steady.rcond,
        "steady_iterations": result.steady.iterations,
        "steady_estimate_iterations": result.steady.estimate_iterations,
        "accepted_steps": traj.stats["n_accepted"],
        "rejected_steps": traj.stats["n_rejected"],
        "max_trace_drift": traj.stats["max_trace_drift"],
        "min_sample_eig": traj.stats["min_sample_eig"],
        "config": dict(sorted(cfg.items())),
        "version": __version__,
    }
    write_json(_out(args, "summary.json"), summary)
    print(f"M_ss = {format_value(dev.observable_steady)}")
    print(f"M_ss_th = {format_value(dev.observable_thermal)}")
    print(f"trace_distance = {format_value(dev.trace_distance)}")
    print(f"wall seconds: build {result.runtime['build_seconds']:.1f}, "
          f"propagate {result.runtime['propagate_seconds']:.1f}, "
          f"steady {result.runtime['steady_seconds']:.1f}")
    return EXIT_OK


def cmd_evolve(args) -> int:
    cfg, spec = _chain_input(args, sampled=True)
    _, sop = build_chain_superop(spec)
    traj = relax_chain(spec, sop, t_end=cfg.get("t_end"),
                       samples=cfg["samples"], tol=cfg["tol"])
    write_csv(_out(args, "evolve.csv"), ["t", "M"],
              zip(traj.times.tolist(), traj.observables["M"].tolist()))
    return EXIT_OK


def cmd_steady(args) -> int:
    _, spec = _chain_input(args)
    report, dev = chain_steady_state(spec, *build_chain_superop(spec))
    write_csv(_out(args, "steady.csv"), ["n", "E_n", "rho_nn", "rho_nn_th"],
              dev.rows())
    print(f"kernel_dimension = {report.kernel_dimension}")
    print(f"residual = {format_value(report.residual)}")
    print(f"rcond = {format_value(report.rcond)}")
    print(f"iterations = {format_value(report.iterations)}")
    print(f"estimate_iterations = {format_value(report.estimate_iterations)}")
    print(f"trace_distance = {format_value(dev.trace_distance)}")
    print(f"max_abs_diag_deviation = {format_value(dev.max_abs_diag_deviation)}")
    print(f"rho11_gap = {format_value(dev.rho11_gap)}")
    print(f"observable_gap = {format_value(dev.observable_gap)}")
    return EXIT_OK


def cmd_residual(args) -> int:
    _, spec = _chain_input(args)
    channel = chain_channels(spec)[0]
    eig = eigendecompose(build_chain_hamiltonian(spec))
    report = gibbs_residual_report(eig, channel, spec.lamb_shift)
    write_csv(_out(args, "residuals.csv"), ["quantity", "norm"], report.rows())
    for name, value in report.rows():
        print(f"{name} = {format_value(value)}")
    table = dict(report.rows())
    missed = [q for q in ("dissipator_mismatch", "lambshift_mismatch")
              if not table[q] <= table[f"{q}_tol"]]  # NaN misses too
    for q in missed:
        print(f"numerical failure: {q} = {format_value(table[q])} exceeds its "
              f"tolerance {format_value(table[f'{q}_tol'])}", file=sys.stderr)
    return EXIT_NUMERICAL if missed else EXIT_OK


def cmd_bath(args) -> int:
    _check("--omega-max", args.omega_max, _POSITIVE)
    _check("--omega-points", args.omega_points, _AT_LEAST_ONE)
    energies = np.array(_parse_list("--e-list", args.e_list))
    pairs = energies.size ** 2
    _require_memory((args.omega_points + pairs) * _ROW_BYTES + _F_WORKSPACE_BYTES,
                    f"ule bath ({args.omega_points} rows for --omega-points, {pairs} rows "
                    f"for --e-list, the f workspace)")
    cfg = load_config(args, required=BATH_KEYS)
    bath = BathSpec(temperature=cfg["T1"], coupling=cfg["gamma1"],
                    cutoff=cfg["Lambda_c"])
    quad = quad_from_config(cfg)
    omega = np.linspace(-args.omega_max, args.omega_max, args.omega_points)
    g = jump_spectral(bath, omega)
    write_csv(_out(args, "bath_g.csv"), ["omega", "g"],
              zip(omega.tolist(), g.tolist()))
    e1, e2 = np.repeat(energies, energies.size), np.tile(energies, energies.size)
    f = f_values(bath, e1, e2, quad)
    write_csv(_out(args, "bath_f.csv"), ["e1", "e2", "f"],
              zip(e1.tolist(), e2.tolist(), f.tolist()))
    return EXIT_OK


def cmd_sweep(args) -> int:
    # the baseline sweep reads no config key; the config is only validated
    load_config(args, required=frozenset())
    temps = _parse_list("--T-list", args.T_list, _POSITIVE)
    gammas = _parse_list("--gamma-list", args.gamma_list, _POSITIVE)
    system = three_level_baseline()
    result = trend_sweep(system, temps, gammas)
    rows = []
    for t in temps:
        for gam in gammas:
            cell = result.cells.get((t, gam))
            if cell is None:
                print(f"cell T={t} gamma={gam} failed: {result.errors[(t, gam)]}",
                      file=sys.stderr)
                continue
            rows.append((t, gam, cell.trace_distance, cell.max_abs_diag_deviation,
                         cell.observable_gap if cell.observable_gap is not None else 0.0))
    write_csv(_out(args, "sweep.csv"),
              ["T", "gamma", "trace_distance", "max_diag_dev", "obs_gap"], rows)
    ok, violations = sweep_monotonicity(result)
    print(f"monotone = {ok}")
    for v in violations:
        print(f"violation: {v}")
    return EXIT_OK if not result.errors else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    keys = ", ".join(sorted(CONFIG_SCHEMA))
    parser = _Parser(
        prog="ule",
        description=__doc__,
        epilog=f"config keys: {keys}",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--outdir", default=".", help="output directory")
    for key in CONFIG_SCHEMA:
        common.add_argument(f"--{key}", dest=f"opt_{key}", default=None,
                            help=argparse.SUPPRESS)

    for name, fn, desc in (
            ("spinchain", cmd_spinchain, "full relaxation experiment"),
            ("evolve", cmd_evolve, "trajectory CSV only"),
            ("steady", cmd_steady, "steady state and Gibbs deviation"),
            ("residual", cmd_residual, "Gibbs residual report"),
            ("bath", cmd_bath, "bath function tables"),
            ("sweep", cmd_sweep, "temperature/coupling trend table")):
        p = sub.add_parser(name, help=desc, parents=[common])
        p.set_defaults(fn=fn)
        if name == "bath":
            p.add_argument("--omega-max", type=float, default=400.0)
            p.add_argument("--omega-points", type=int, default=1001)
            p.add_argument("--e-list", default="-2,-1,0,1,2",
                           help="comma-separated energies; f is tabulated on all pairs. "
                                "A list that starts with '-' is given as --e-list=-2,0,2")
        if name == "sweep":
            p.add_argument("--T-list", default="2,4,8")
            p.add_argument("--gamma-list", default="0.1,0.05,0.01")
    return parser


def main(argv=None) -> int:
    try:
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:
            raise ConfigError(f"ule {args.command}: unrecognized arguments: {' '.join(unknown)}")
        return args.fn(args)
    except (QuadratureError, SteadyStateError, PropagationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # ConfigError, MemoryLimitError and the library's own input checks
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
