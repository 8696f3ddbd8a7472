"""Command-line interface.

Subcommands:
    spinchain  full relaxation experiment -> fig1a.csv, fig1b.csv, summary.json
    evolve     magnetization trajectory only -> evolve.csv
    steady     steady state and Gibbs deviation -> steady.csv
    residual   Gibbs-residual report for the configured chain -> residuals.csv
    bath       tabulate g(omega) and f(E1, E2) -> bath_g.csv, bath_f.csv
    sweep      temperature/coupling trend on the three-level baseline -> sweep.csv

Configuration is a flat `key = value` text file (# comments); any key can
be overridden on the command line with --key value. Exit codes: 0 success,
2 configuration or validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .analysis import (
    gibbs_deviation,
    gibbs_residual_report,
    sweep_monotonicity,
    three_level_baseline,
    trend_sweep,
)
from .bath import BathSpec, QuadratureSpec, QuadratureError, f_table, jump_spectral
from .dynamics import PropagationError, SteadyStateError, steady_state
from .io import format_value, write_csv, write_json
from .operators import eigendecompose
from .spinchain import (
    SpinChainSpec,
    build_chain_hamiltonian,
    build_chain_superop,
    chain_channels,
    magnetization,
    relax_chain,
    run_relaxation,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


# key -> (parser, default); REQUIRED means the key must come from the
# config file or a command-line override
_REQUIRED = object()


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_sites(text: str):
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 2:
        raise ConfigError(f"couple_sites needs two sites, got {text!r}")
    return (int(parts[0]), int(parts[1]))


CONFIG_SCHEMA = {
    "N": (int, _REQUIRED),
    "eta": (float, 1.0),
    "B_z": (float, _REQUIRED),
    "T1": (float, _REQUIRED),
    "T2": (float, 1.0),
    "gamma1": (float, _REQUIRED),
    "gamma2": (float, 0.0),
    "Lambda_c": (float, 100.0),
    "omega0": (float, 2.0),
    "couple_sites": (_parse_sites, None),
    "ignore_lamb_shift": (_parse_bool, True),
    "rtol": (float, 1e-8),
    "atol": (float, 1e-12),
    "omega_max_pad": (float, 8.0),
    "max_depth": (int, 50),
    "t_end": (float, None),
    "samples": (int, 200),
    "tol": (float, 1e-8),
}


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
        parser = CONFIG_SCHEMA[key][0]
        try:
            values[key] = parser(val.strip())
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
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
            parser = CONFIG_SCHEMA[key][0]
            try:
                values[key] = parser(override)
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for --{key}: {exc}") from exc
    for key, (_, default) in CONFIG_SCHEMA.items():
        if key in values:
            continue
        if default is _REQUIRED:
            if key in required:
                raise ConfigError(f"missing config key {key!r}")
            continue
        if default is not None:
            values[key] = default
    return values


def quad_from_config(cfg: dict) -> QuadratureSpec:
    return QuadratureSpec(rtol=cfg["rtol"], atol=cfg["atol"],
                          omega_max_pad=cfg["omega_max_pad"],
                          max_depth=cfg["max_depth"])


def spec_from_config(cfg: dict) -> SpinChainSpec:
    try:
        return SpinChainSpec(
            N=cfg["N"], eta=cfg["eta"], B_z=cfg["B_z"], T1=cfg["T1"], T2=cfg["T2"],
            gamma1=cfg["gamma1"], gamma2=cfg["gamma2"], Lambda_c=cfg["Lambda_c"],
            omega0=cfg["omega0"], couple_sites=cfg.get("couple_sites"),
            ignore_lamb_shift=cfg["ignore_lamb_shift"], quad=quad_from_config(cfg))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_echo(cfg: dict) -> dict:
    echo = {}
    for key in sorted(CONFIG_SCHEMA):
        if key in cfg:
            val = cfg[key]
            echo[key] = list(val) if isinstance(val, tuple) else val
    return echo


def _out(args, name: str) -> str:
    import os
    os.makedirs(args.outdir, exist_ok=True)
    return os.path.join(args.outdir, name)


def cmd_spinchain(args) -> int:
    cfg = load_config(args)
    spec = spec_from_config(cfg)
    result = run_relaxation(spec, t_end=cfg.get("t_end"),
                            samples=cfg["samples"], tol=cfg["tol"])
    traj = result.trajectory
    write_csv(_out(args, "fig1a.csv"), ["t", "M"],
              zip(traj.times.tolist(), traj.observables["M"].tolist()))
    write_csv(_out(args, "fig1b.csv"), ["n", "E_n", "rho_nn", "rho_nn_th"],
              result.deviation.rows())
    dev = result.deviation
    summary = {
        "M_ss": result.magnetization_steady,
        "M_ss_th": result.magnetization_thermal,
        "M_gap": abs(result.magnetization_steady - result.magnetization_thermal),
        "trace_distance": dev.trace_distance,
        "max_abs_diag_deviation": dev.max_abs_diag_deviation,
        "max_rel_diag_deviation": dev.max_rel_diag_deviation,
        "rho11_gap": dev.rho11_gap,
        "rho11_rel_gap": dev.rho11_rel_gap,
        "steady_residual": result.steady.residual,
        "kernel_dimension": result.steady.kernel_dimension,
        "steady_method": result.steady.method,
        "steady_rcond": result.steady.rcond,
        "accepted_steps": result.runtime["n_accepted"],
        "rejected_steps": result.runtime["n_rejected"],
        "max_trace_drift": result.trajectory.stats["max_trace_drift"],
        "min_sample_eig": result.trajectory.stats["min_sample_eig"],
        "config": config_echo(cfg),
        "version": __version__,
    }
    write_json(_out(args, "summary.json"), summary)
    print(f"M_ss = {format_value(result.magnetization_steady)}")
    print(f"M_ss_th = {format_value(result.magnetization_thermal)}")
    print(f"trace_distance = {format_value(dev.trace_distance)}")
    print(f"wall seconds: build {result.runtime['build_seconds']:.1f}, "
          f"propagate {result.runtime['propagate_seconds']:.1f}, "
          f"steady {result.runtime['steady_seconds']:.1f}")
    return EXIT_OK


def cmd_evolve(args) -> int:
    cfg = load_config(args)
    spec = spec_from_config(cfg)
    _, sop = build_chain_superop(spec)
    traj = relax_chain(spec, sop, t_end=cfg.get("t_end"),
                       samples=cfg["samples"], tol=cfg["tol"])
    write_csv(_out(args, "evolve.csv"), ["t", "M"],
              zip(traj.times.tolist(), traj.observables["M"].tolist()))
    return EXIT_OK


def cmd_steady(args) -> int:
    cfg = load_config(args)
    spec = spec_from_config(cfg)
    eig, sop = build_chain_superop(spec)
    report = steady_state(sop)
    dev = gibbs_deviation(report.state, eig, 1.0 / spec.T1,
                          observable=magnetization(spec.N))
    write_csv(_out(args, "steady.csv"), ["n", "E_n", "rho_nn", "rho_nn_th"],
              dev.rows())
    print(f"kernel_dimension = {report.kernel_dimension}")
    print(f"residual = {format_value(report.residual)}")
    print(f"rcond = {format_value(report.rcond)}")
    print(f"trace_distance = {format_value(dev.trace_distance)}")
    print(f"max_abs_diag_deviation = {format_value(dev.max_abs_diag_deviation)}")
    print(f"rho11_gap = {format_value(dev.rho11_gap)}")
    print(f"observable_gap = {format_value(dev.observable_gap)}")
    return EXIT_OK


def cmd_residual(args) -> int:
    cfg = load_config(args)
    spec = spec_from_config(cfg)
    eig = eigendecompose(build_chain_hamiltonian(spec))
    channel = chain_channels(spec)[0]
    report = gibbs_residual_report(eig, channel, spec.quad,
                                   include_lamb_shift=not spec.ignore_lamb_shift)
    write_csv(_out(args, "residuals.csv"), ["quantity", "norm"], report.rows())
    for name, value in report.rows():
        print(f"{name} = {format_value(value)}")
    return EXIT_OK


def cmd_bath(args) -> int:
    cfg = load_config(args, required=BATH_KEYS)
    bath = BathSpec(temperature=cfg["T1"], coupling=cfg["gamma1"],
                    cutoff=cfg["Lambda_c"])
    quad = quad_from_config(cfg)
    omega = np.linspace(-args.omega_max, args.omega_max, args.omega_points)
    g = jump_spectral(bath, omega)
    write_csv(_out(args, "bath_g.csv"), ["omega", "g"],
              zip(omega.tolist(), g.tolist()))
    energies = [float(v) for v in args.e_list.split(",") if v.strip()]
    pairs = [(e1, e2) for e1 in energies for e2 in energies]
    table = f_table(bath, pairs, quad)
    write_csv(_out(args, "bath_f.csv"), ["e1", "e2", "f"],
              [(e1, e2, table[(e1, e2)]) for e1, e2 in pairs])
    return EXIT_OK


def cmd_sweep(args) -> int:
    # the baseline sweep reads no config key; the config is only validated
    load_config(args, required=frozenset())
    temps = [float(v) for v in args.T_list.split(",") if v.strip()]
    gammas = [float(v) for v in args.gamma_list.split(",") if v.strip()]
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
    parser = argparse.ArgumentParser(
        prog="ule",
        description=__doc__,
        epilog=f"config keys: {keys}",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--outdir", default=".", help="output directory")
        for key in CONFIG_SCHEMA:
            p.add_argument(f"--{key}", dest=f"opt_{key}", default=None,
                           help=argparse.SUPPRESS)

    for name, fn, desc in (
            ("spinchain", cmd_spinchain, "full relaxation experiment"),
            ("evolve", cmd_evolve, "trajectory CSV only"),
            ("steady", cmd_steady, "steady state and Gibbs deviation"),
            ("residual", cmd_residual, "Gibbs residual report"),
            ("bath", cmd_bath, "bath function tables"),
            ("sweep", cmd_sweep, "temperature/coupling trend table")):
        p = sub.add_parser(name, help=desc)
        common(p)
        p.set_defaults(fn=fn)
        if name == "bath":
            p.add_argument("--omega-max", type=float, default=400.0)
            p.add_argument("--omega-points", type=int, default=1001)
            p.add_argument("--e-list", default="-2,-1,0,1,2",
                           help="comma-separated energies; f is tabulated on all pairs")
        if name == "sweep":
            p.add_argument("--T-list", default="2,4,8")
            p.add_argument("--gamma-list", default="0.1,0.05,0.01")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, SteadyStateError, PropagationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # parameter validation raised outside the config layer
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
