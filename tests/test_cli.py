import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from ule import BathSpec, SpinChainSpec, TrendSystem, f_values, magnetization, propagate
from ule.cli import CONFIG_SCHEMA, ConfigError, build_parser, main, parse_config_text
from ule.generator import MemoryLimitError
from ule.io import format_value, write_json
from ule.spinchain import all_up_state, build_chain_superop

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHAIN_CFG = os.path.join(ROOT, "demos", "chain_n6.cfg")

SMALL_CONFIG = """
# small chain for fast end-to-end runs
N = 3
B_z = 8.0
T1 = 2.0
gamma1 = 0.1
t_end = 50
samples = 40
tol = 1e-8
"""


def subprocess_env(**extra):
    """os.environ plus `extra`, with this checkout's src/ first on PYTHONPATH."""
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))


def write_config(tmp_path, text=SMALL_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_values_and_comments():
    cfg = parse_config_text("N = 4  # sites\nT1=2.5\nignore_lamb_shift = false\n\n")
    assert cfg == {"N": 4, "T1": 2.5, "ignore_lamb_shift": False}


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("bogus = 1")


def test_parse_config_rejects_malformed_line():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words")


def test_missing_required_key_names_it(tmp_path, capsys):
    path = write_config(tmp_path, "N = 3\nB_z = 8.0\ngamma1 = 0.1\n")
    code = main(["steady", "--config", path, "--outdir", str(tmp_path)])
    assert code == 2
    assert "T1" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["steady", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "config" in capsys.readouterr().err.lower()


def test_flag_overrides_config(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "bath_out"
    code = main(["bath", "--config", path, "--T1", "4.0",
                 "--outdir", str(out), "--omega-points", "11",
                 "--omega-max", "2.0", "--e-list", "0,1"])
    assert code == 0
    lines = (out / "bath_g.csv").read_text().splitlines()
    assert lines[0] == "omega,g"
    assert len(lines) == 12
    # g(0) = sqrt(T)/(2 pi) reflects the overridden temperature
    mid = dict(zip(("omega", "g"), lines[6].split(",")))
    assert float(mid["omega"]) == 0.0
    assert float(mid["g"]) == pytest.approx(math.sqrt(4.0) / (2 * math.pi), rel=1e-12)
    f_lines = (out / "bath_f.csv").read_text().splitlines()
    assert f_lines[0] == "e1,e2,f"
    assert len(f_lines) == 5  # 2x2 pairs


def test_bath_f_table_is_one_f_values_call(tmp_path):
    # a repeated energy and a signed zero: the rows hold, bitwise, one
    # f_values call on all pairs in e-list order
    energies = [-2.0, 0.0, 0.0, 2.0, 1.5, -0.0]
    out = tmp_path / "out"
    assert main(["bath", "--config", write_config(tmp_path), "--Lambda_c", "100",
                 "--outdir", str(out), "--e-list=-2,0,0,2,1.5,-0.0"]) == 0
    lines = (out / "bath_f.csv").read_text().splitlines()
    assert lines[0] == "e1,e2,f"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    e1 = [a for a in energies for _ in energies]
    e2 = [b for _ in energies for b in energies]
    f = f_values(BathSpec(temperature=2.0, coupling=0.1, cutoff=100.0), e1, e2)
    assert [math.copysign(1.0, r[0]) for r in rows] == [math.copysign(1.0, a) for a in e1]
    assert [math.copysign(1.0, r[1]) for r in rows] == [math.copysign(1.0, b) for b in e2]
    assert rows == [list(r) for r in zip(e1, e2, f.tolist())]
    # the repeated 0 gives identical rows; -0 the same f
    assert lines[7:13] == lines[13:19]
    assert [r[2] for r in rows[30:36]] == [r[2] for r in rows[6:12]]
    assert main(["bath", "--config", write_config(tmp_path), "--outdir", str(out),
                 "--e-list="]) == 0
    assert (out / "bath_f.csv").read_text() == "e1,e2,f\n"


@pytest.mark.parametrize("option, value", [
    ("--omega-max", "inf"), ("--omega-max", "nan"), ("--omega-max", "-5"),
    ("--omega-max", "0"), ("--omega-points", "0")])
def test_bath_grid_options_exit_2(tmp_path, capsys, option, value):
    # each used to exit 0, writing NaN rows, a descending grid, copies of
    # g(0) or a header-only table
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["bath", "--config", write_config(tmp_path), "--outdir", str(out),
                     option, value])
    assert code == 2
    assert option in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, option, value", [
    ("bath", "--e-list", "1,a"), ("bath", "--e-list", "1,nan"), ("bath", "--e-list", "inf"),
    ("sweep", "--T-list", "1,a"), ("sweep", "--T-list", "1,inf"),
    ("sweep", "--gamma-list", "0.1,x"), ("sweep", "--gamma-list", "-inf,0.1")])
def test_list_options_are_checked_before_any_output(tmp_path, capsys, command, option, value):
    # a bad --e-list used to fail only after bath_g.csv was written, and
    # neither list error named its option
    out = tmp_path / "out"
    code = main([command, "--config", write_config(tmp_path), "--outdir", str(out),
                 f"{option}={value}"])
    assert code == 2
    assert f"config error: {option}" in capsys.readouterr().err
    assert not out.exists()


def test_readme_command_lines_parse():
    # a value that starts with '-' and is not a plain number reads as an
    # option unless it is attached with '='
    with open(os.path.join(ROOT, "README.md")) as handle:
        block = handle.read().split("## Command line", 1)[1].split("```", 2)[1]
    lines = [shlex.split(line.split("#", 1)[0]) for line in block.splitlines()
             if line.startswith("ule ")]
    assert len(lines) == 6
    parser = build_parser()
    for words in lines:
        assert parser.parse_args(words[1:]).command == words[1]
    assert parser.parse_args(["bath", "--e-list=-2,0,2"]).e_list == "-2,0,2"
    assert parser.parse_args(["steady", "--B_z=-1e-3"]).opt_B_z == "-1e-3"


def test_spinchain_outputs_and_determinism(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["spinchain", "--config", path, "--outdir", str(out1)]) == 0
    assert main(["spinchain", "--config", path, "--outdir", str(out2)]) == 0
    for name in ("fig1a.csv", "fig1b.csv", "summary.json"):
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    fig1a = (out1 / "fig1a.csv").read_text().splitlines()
    assert fig1a[0] == "t,M"
    assert len(fig1a) == 41
    first = fig1a[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.5
    fig1b = (out1 / "fig1b.csv").read_text().splitlines()
    assert fig1b[0] == "n,E_n,rho_nn,rho_nn_th"
    assert len(fig1b) == 1 + 8
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["kernel_dimension"] == 1
    assert 0.0 < summary["steady_rcond"] < 1.0
    assert summary["steady_iterations"] > 0
    assert summary["steady_estimate_iterations"] > summary["steady_iterations"]
    assert summary["config"]["N"] == 3
    assert summary["version"]
    assert abs(summary["M_gap"]) < 0.05
    assert "\n" in (out1 / "fig1a.csv").read_text()
    assert "\r" not in (out1 / "fig1a.csv").read_text()


def test_seventeen_digit_floats(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["evolve", "--config", path, "--outdir", str(out)]) == 0
    lines = (out / "evolve.csv").read_text().splitlines()
    t_217 = lines[2].split(",")[0]
    # 17 significant digits round-trip exactly
    assert float(t_217) == 50.0 / 39 * 1
    assert len(t_217.replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_steady_subcommand(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["steady", "--config", path, "--outdir", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "kernel_dimension = 1" in printed
    assert "rcond = " in printed
    assert "trace_distance" in printed
    lines = (out / "steady.csv").read_text().splitlines()
    assert lines[0] == "n,E_n,rho_nn,rho_nn_th"
    assert len(lines) == 9


def test_residual_subcommand(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["residual", "--config", path, "--outdir", str(out)]) == 0
    lines = (out / "residuals.csv").read_text().splitlines()
    assert lines[0] == "quantity,norm"
    assert len(lines) == 11
    quantities = [l.split(",")[0] for l in lines[1:]]
    assert "dissipator_direct_norm" in quantities
    assert "secular_lambshift_norm" in quantities
    # lamb shift ignored by default: those norms are exactly zero
    table = dict(l.split(",") for l in lines[1:])
    assert float(table["lambshift_direct_norm"]) == 0.0
    assert float(table["dissipator_direct_norm"]) > 0.0


@pytest.mark.parametrize("formula, quantity, factor, ignore_lamb_shift", [
    ("dissipator_on_gibbs_formula", "dissipator_mismatch", 1 + 1e-6, "true"),
    ("dissipator_on_gibbs_formula", "dissipator_mismatch", math.nan, "true"),
    ("lambshift_on_gibbs_formula", "lambshift_mismatch", 1 + 1e-5, "false"),
], ids=["dissipator", "dissipator_nan", "lambshift"])
def test_residual_missed_identity_exits_3(tmp_path, capsys, monkeypatch, formula, quantity,
                                          factor, ignore_lamb_shift):
    # a formula route off by 1e-6 relative misses the dissipator's tolerance
    # (1e-10 of the direct norm), one off by 1e-5 the Lamb shift's (1e-6),
    # and NaN misses any: residuals.csv is still written, then the run exits
    # 3 naming the quantity
    from ule import analysis
    original = getattr(analysis, formula)
    monkeypatch.setattr(analysis, formula, lambda *args: factor * original(*args))
    code = main(["residual", "--config", CHAIN_CFG, "--N", "3",
                 "--ignore_lamb_shift", ignore_lamb_shift, "--outdir", str(tmp_path)])
    assert code == 3
    lines = (tmp_path / "residuals.csv").read_text().splitlines()
    table = {k: float(v) for k, v in (line.split(",") for line in lines[1:])}
    assert not table[quantity] <= table[f"{quantity}_tol"]
    err = capsys.readouterr().err
    assert (f"{quantity} = {format_value(table[quantity])} exceeds its tolerance "
            f"{format_value(table[quantity + '_tol'])}") in err


def test_sweep_subcommand(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["sweep", "--config", path, "--outdir", str(out),
                 "--T-list", "2,4,8", "--gamma-list", "0.1,0.05,0.01"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "T,gamma,trace_distance,max_diag_dev,obs_gap"
    assert len(lines) == 10
    assert "monotone = True" in capsys.readouterr().out


def test_invalid_parameter_exits_2(tmp_path, capsys):
    path = write_config(tmp_path)
    code = main(["spinchain", "--config", path, "--N", "40"])
    assert code == 2
    assert "N" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_below_one_exits_2(tmp_path, capsys, samples):
    # no sample would leave min_sample_eig at inf, which JSON cannot hold
    config = os.path.join(ROOT, "demos", "chain_n6.cfg")
    code = main(["spinchain", "--config", config, "--N", "3", "--samples", samples,
                 "--outdir", str(tmp_path)])
    assert code == 2
    assert "samples must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), np.float64("inf")])
def test_write_json_refuses_non_finite_floats(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError, match="JSON cannot hold"):
        write_json(str(path), {"ok": 1.5, "nested": {"bad": value}})
    assert not path.exists()
    write_json(str(path), {"ok": 1.5, "flag": True, "count": 3, "none": None})
    assert json.loads(path.read_text()) == {"ok": 1.5, "flag": True, "count": 3, "none": None}


@pytest.mark.parametrize("key, value", [("rtol", "inf"), ("atol", "nan")])
def test_non_finite_quadrature_spec_exits_2(tmp_path, capsys, key, value):
    # an infinite rtol used to switch the error control off
    config = os.path.join(ROOT, "demos", "chain_n6.cfg")
    code = main(["residual", "--config", config, "--N", "3", "--ignore_lamb_shift", "false",
                 f"--{key}", value, "--outdir", str(tmp_path)])
    assert code == 2
    assert f"{key} must be finite and positive, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "residuals.csv").exists()


@pytest.mark.parametrize("command", ["evolve", "spinchain"])
@pytest.mark.parametrize("key, value", [
    ("tol", "inf"), ("tol", "0"), ("tol", "nan"), ("t_end", "inf"), ("t_end", "-1")])
def test_non_finite_run_settings_exit_2(tmp_path, capsys, monkeypatch, command, key, value):
    # an infinite tol used to accept every step and exit 3 with a positivity
    # violation; an infinite t_end exited 2 only after the generator was
    # built, with a RuntimeWarning from np.linspace on the way
    def refuse(*args, **kwargs):
        raise AssertionError("the generator was built")

    monkeypatch.setattr("ule.cli.build_chain_superop", refuse)
    monkeypatch.setattr("ule.cli.run_relaxation", refuse)
    config = os.path.join(ROOT, "demos", "chain_n6.cfg")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", config, "--N", "3", f"--{key}", value,
                     "--outdir", str(tmp_path)])
    assert code == 2
    assert f"{key} must be finite and positive" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_sampled_states_beyond_memory_exit_2(monkeypatch):
    # no command keeps states, so the guard is the library's: 20,000 kept
    # states of 256 x 256 take 21 GB, physical memory is read as 8.6 GB,
    # and propagate raises before the first step (no phase is ever filled)
    from ule import generator
    monkeypatch.setattr(generator, "_physical_memory", lambda: 2 ** 33)
    monkeypatch.setattr("ule.dynamics._phases", None)
    _, sop = build_chain_superop(SpinChainSpec(N=8))
    with pytest.raises(MemoryLimitError, match="storage for 20000 sampled states of size "
                                               "256 x 256 needs about 21 GB"):
        propagate(sop, all_up_state(8), 500.0, np.linspace(0.0, 500.0, 20000),
                  keep_states=True)


@pytest.mark.parametrize("argv, key", [
    (["evolve", "--N", "3", "--samples", "20000000000"], "samples"),
    (["spinchain", "--N", "3", "--samples", "20000000000"], "samples"),
    (["bath", "--omega-points", "20000000000"], "--omega-points"),
    (["bath", "--e-list=" + ",".join(str(e) for e in range(100))], "--e-list"),
], ids=["evolve_samples", "spinchain_samples", "bath_omega_points", "bath_e_list"])
def test_tables_beyond_memory_exit_2(tmp_path, capsys, monkeypatch, argv, key):
    # physical memory is read as 1 MB: the default 1,001-point bath grid
    # fits, the 100^2 f pairs of the e-list do not, and the guards run
    # before anything of the requested size is allocated or written
    from ule import generator
    monkeypatch.setattr(generator, "_physical_memory", lambda: 2 ** 20)
    out = tmp_path / "out"
    code = main([*argv, "--config", os.path.join(ROOT, "demos", "chain_n6.cfg"),
                 "--outdir", str(out)])
    assert code == 2
    assert f"rows for {key}" in capsys.readouterr().err
    assert not out.exists()


CHAIN_COMMANDS = [("spinchain", "true"), ("evolve", "true"), ("steady", "true"),
                  ("residual", "true"), ("residual", "false")]
CHAIN_IDS = ["spinchain", "evolve", "steady", "residual", "residual_lamb"]


class Reached(Exception):
    pass


def refuse_chain_hamiltonian(monkeypatch):
    """Make building the chain Hamiltonian, the first d^2 allocation of every
    chain command, raise Reached."""
    def refuse(spec):
        raise Reached
    monkeypatch.setattr("ule.cli.build_chain_hamiltonian", refuse)
    monkeypatch.setattr("ule.spinchain.build_chain_hamiltonian", refuse)


@pytest.mark.parametrize("command, ignore_lamb", CHAIN_COMMANDS, ids=CHAIN_IDS)
def test_chain_peak_model_refuses_below_its_need(tmp_path, capsys, monkeypatch,
                                                 command, ignore_lamb):
    # the model at N = 5: its arrays of 16 d^2 bytes, plus 200 table rows for
    # the sampled commands; memory read as exactly the need lets the command
    # through to the Hamiltonian, one byte less exits 2 before it
    from ule import cli, generator
    arrays = cli._PEAK_ARRAYS[command][ignore_lamb == "false"]
    rows = 200 if command in ("spinchain", "evolve") else 0
    need = arrays * 16 * 4 ** 5 + rows * cli._ROW_BYTES
    refuse_chain_hamiltonian(monkeypatch)
    argv = [command, "--config", CHAIN_CFG, "--N", "5", "--ignore_lamb_shift", ignore_lamb,
            "--outdir", str(tmp_path / "out")]
    monkeypatch.setattr(generator, "_physical_memory", lambda: need)
    with pytest.raises(Reached):
        main(argv)
    monkeypatch.setattr(generator, "_physical_memory", lambda: need - 1)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"ule {command} at N = 5 ({arrays} arrays of 2^14 bytes" in err
    assert f"needs about {need / 1e9:.3g} GB" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", ["13", "14", "2000", "1000000000"])
@pytest.mark.parametrize("command, ignore_lamb", CHAIN_COMMANDS, ids=CHAIN_IDS)
def test_chain_beyond_memory_exits_2_at_once(tmp_path, capsys, monkeypatch,
                                             command, ignore_lamb, n):
    # physical memory is read as 16 GiB, where N = 13 needs 20-43 GB and one
    # complex array at N = 14 takes 4.3 GB; the need of a huge N is taken
    # without forming 4^N, so even N = 10^9 is refused within a second
    import time
    from ule import generator
    monkeypatch.setattr(generator, "_physical_memory", lambda: 2 ** 34)
    refuse_chain_hamiltonian(monkeypatch)
    t0 = time.perf_counter()
    code = main([command, "--config", CHAIN_CFG, "--N", n, "--ignore_lamb_shift", ignore_lamb,
                 "--outdir", str(tmp_path)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert f"config error: ule {command} at N = {n} (" in capsys.readouterr().err


def test_bath_table_fits_its_row_bytes(tmp_path):
    # 317 energies give 100,489 f pairs: the traced peak of the whole command
    # stays within the rows its memory check reserves
    from ule import cli
    energies = ",".join(str(-3.0 + 6.0 * i / 316) for i in range(317))
    argv = ["bath", "--config", CHAIN_CFG, f"--e-list={energies}", "--outdir", str(tmp_path)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1001 + 317 ** 2) * cli._ROW_BYTES


def test_samples_without_states_stay_small(monkeypatch):
    # 20,000 states of 16 x 16 would take 82 MB; physical memory is read as
    # 32 MB, below that, and a run that keeps no states needs neither
    from ule import generator
    monkeypatch.setattr(generator, "_physical_memory", lambda: 2 ** 25)
    _, sop = build_chain_superop(SpinChainSpec(N=4))
    times = np.linspace(0.0, 50.0, 20000)
    tracemalloc.start()
    try:
        traj = propagate(sop, all_up_state(4), 50.0, times,
                         observables={"M": magnetization(4)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.states is None and traj.observables["M"].shape == (20000,)
    assert peak < 8e6


PROBE_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e400", "abc", ""]
# keys the schema no longer holds: the quadrature's padding and depth are
# constants of ule.bath, and omega0 entered no formula
RETIRED_KEYS = ["max_depth", "omega0", "omega_max_pad"]
# physically degenerate chains, whose steady state is not unique: no
# exchange, no field, or no coupling to the bath
DEGENERATE = {("steady", "eta", "0"), ("steady", "B_z", "0"), ("steady", "gamma1", "0")}


@pytest.mark.parametrize("command", ["steady", "residual"])
@pytest.mark.parametrize("key", sorted(CONFIG_SCHEMA) + RETIRED_KEYS)
def test_every_bad_config_value_names_its_key(tmp_path, capsys, command, key):
    # each run exits 0, exits 2 naming the key with no file written, or
    # exits 3 on a degenerate chain; none warns. A retired key always exits 2
    config = os.path.join(ROOT, "demos", "chain_n6.cfg")
    for i, value in enumerate(PROBE_VALUES):
        out = tmp_path / f"out{i}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", config, "--N", "3", f"--{key}={value}",
                         "--outdir", str(out)])
        err = capsys.readouterr().err
        if code == 2:
            assert re.search(rf"\b{key}\b", err), (value, err)
            assert not out.exists()
        else:
            assert key not in RETIRED_KEYS, (value, code)
            assert code == (3 if (command, key, value) in DEGENERATE else 0), (value, err)


def test_retired_keys_exit_2(tmp_path, capsys):
    # a config file line with a retired key is an unknown key; so is the
    # command-line option, which the parser refuses
    path = write_config(tmp_path, SMALL_CONFIG + "max_depth = 5\n")
    assert main(["steady", "--config", path, "--outdir", str(tmp_path / "a")]) == 2
    assert "unknown key 'max_depth'" in capsys.readouterr().err
    assert main(["steady", "--config", write_config(tmp_path), "--omega0", "2",
                 "--outdir", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "--omega0" in err
    assert not any(p.is_dir() for p in tmp_path.iterdir())


@pytest.mark.parametrize("argv, option", [
    (["steady", "--config", CHAIN_CFG, "--omega0", "2", "--outdir", "out"],
     "ule steady: unrecognized arguments: --omega0 2"),
    (["bath", "--omega-points", "abc", "--outdir", "out"], "--omega-points"),
    (["steady", "--config", CHAIN_CFG, "--outdir", "out", "--N"], "--N"),
    (["bogus", "--outdir", "out"], "bogus"),
    ([], "command"),
], ids=["unknown_option", "bad_int", "missing_value", "unknown_command", "empty"])
def test_bad_option_returns_2(tmp_path, capsys, monkeypatch, argv, option):
    # the parser's refusals take the config-error path: one line on
    # stderr that names the command, exit code 2, nothing written
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), captured.err
    assert option in lines[0]
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "config keys:" in capsys.readouterr().out


def test_module_entry_point_exits_2_on_a_bad_option(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "ule.cli", "steady", "--config", CHAIN_CFG,
                           "--omega0", "2", "--outdir", str(tmp_path / "out")],
                          env=subprocess_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error:") and "--omega0" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_sweep_failed_cell_exits_3(tmp_path, capsys, monkeypatch):
    # a diagonal coupling leaves every population stationary: the cell's
    # steady state is not unique, it is reported, and no row is written
    system = TrendSystem(hamiltonian=np.diag([0.0, 1.0, 3.0]).astype(complex),
                         coupling_op=np.diag([1.0, 2.0, 3.0]).astype(complex))
    monkeypatch.setattr("ule.cli.three_level_baseline", lambda: system)
    code = main(["sweep", "--T-list", "2", "--gamma-list", "0.1", "--outdir", str(tmp_path)])
    assert code == 3
    assert "cell T=2.0 gamma=0.1 failed: steady state is not unique" in capsys.readouterr().err
    assert (tmp_path / "sweep.csv").read_text() == "T,gamma,trace_distance,max_diag_dev,obs_gap\n"


def test_sweep_reports_a_monotonicity_violation(tmp_path, capsys):
    # the trace distance is 0.0057 at T = 0.01 and 0.023 at T = 2: it rises
    # with temperature, which the check flags without failing the run
    code = main(["sweep", "--T-list", "0.01,2", "--gamma-list", "0.1",
                 "--outdir", str(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert "monotone = False" in printed
    assert len([line for line in printed if line.startswith("violation:")]) == 1
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 3


def test_readme_range_list_matches_the_schema():
    # the exit-code paragraph names every key that has a range, under its
    # range, and no other
    with open(os.path.join(ROOT, "README.md")) as handle:
        text = " ".join(handle.read().split())
    ranges = text.split("outside its key's range:", 1)[1].split("`ule bath` with a", 1)[0]
    listed = {requirement: set(re.findall(r"`(\w+)`", names)) for requirement, names in
              re.findall(r"(finite and positive|finite and non-negative|finite|at least 1) "
                         r"\(([^)]*)\)", ranges)}
    schema = {}
    for key, (_, _, rule) in CONFIG_SCHEMA.items():
        if rule is not None:
            schema.setdefault(rule[1], set()).add(key)
    assert listed == schema


@pytest.mark.parametrize("option, value", [("--T-list", "-1,2"), ("--T-list", "2,0"),
                                           ("--gamma-list", "0.1,-0.1")])
def test_sweep_lists_must_be_positive(tmp_path, capsys, option, value):
    out = tmp_path / "out"
    code = main(["sweep", "--outdir", str(out), f"{option}={value}"])
    assert code == 2
    assert f"config error: {option} values must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_builds_no_dense_matrix(tmp_path):
    # at N = 5 one dense packed generator takes 8 d^4 bytes, 8.4 MB; the
    # evolve run peaks at 0.8 MB of traced allocations
    path = os.path.join(ROOT, "demos", "chain_n6.cfg")
    chain_out, evolve_out = tmp_path / "chain", tmp_path / "evolve"
    args = ["--config", path, "--N", "5", "--t_end", "5", "--samples", "11"]
    assert main(["spinchain", *args, "--outdir", str(chain_out)]) == 0
    tracemalloc.start()
    try:
        code = main(["evolve", *args, "--outdir", str(evolve_out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 4e6
    assert ((evolve_out / "evolve.csv").read_bytes()
            == (chain_out / "fig1a.csv").read_bytes())


def test_steady_shares_the_spinchain_steady_stage(tmp_path, capsys):
    path = write_config(tmp_path)
    chain_out, steady_out = tmp_path / "chain", tmp_path / "steady"
    assert main(["spinchain", "--config", path, "--outdir", str(chain_out)]) == 0
    capsys.readouterr()
    assert main(["steady", "--config", path, "--outdir", str(steady_out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert ((steady_out / "steady.csv").read_bytes()
            == (chain_out / "fig1b.csv").read_bytes())
    summary = json.loads((chain_out / "summary.json").read_text())
    for name, key in (("residual", "steady_residual"), ("rcond", "steady_rcond"),
                      ("iterations", "steady_iterations"),
                      ("estimate_iterations", "steady_estimate_iterations"),
                      ("trace_distance", "trace_distance"), ("observable_gap", "M_gap")):
        assert f"{name} = {format_value(summary[key])}" in printed


def test_gmres_workspace_beyond_memory_exits_2(tmp_path, capsys, monkeypatch):
    # the real GMRES workspace fits in 1.7 GB up to N = 10, so physical
    # memory is read as 256 MB: the 0.42 GB workspace at N = 9 cannot fit
    import time
    from ule import generator
    monkeypatch.setattr(generator, "_physical_memory", lambda: 2 ** 28)
    path = write_config(tmp_path)
    t0 = time.perf_counter()
    code = main(["steady", "--config", path, "--N", "9", "--outdir", str(tmp_path)])
    assert code == 2
    assert time.perf_counter() - t0 < 30.0
    err = capsys.readouterr().err
    assert "262144 entries" in err
    assert "GB" in err


def test_residual_lamb_shift_n9_exits_0_in_512_mb(tmp_path, capsys, monkeypatch):
    # the Lamb shift's w rule holds a few blocks of d^2 g values where the
    # level-triple table needed 17 GB at N = 9; with physical memory read as
    # 512 MB the Lamb-on residual runs and both identities hold
    from ule import generator
    monkeypatch.setattr(generator, "_physical_memory", lambda: 2 ** 29)
    config = os.path.join(ROOT, "demos", "chain_n6.cfg")
    code = main(["residual", "--config", config, "--N", "9", "--ignore_lamb_shift", "false",
                 "--outdir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "residuals.csv").read_text().splitlines()
    table = {k: float(v) for k, v in (line.split(",") for line in lines[1:])}
    assert table["lambshift_direct_norm"] > 0.0
    for q in ("dissipator_mismatch", "lambshift_mismatch"):
        assert table[q] <= table[f"{q}_tol"]


@pytest.mark.parametrize("command", ["residual", "spinchain", "evolve", "steady"])
def test_lamb_shift_commands_reach_eigendecompose_at_n10(tmp_path, capsys, monkeypatch, command):
    # no memory guard sizes the Lamb shift by d^3 (it refused at 137 GB
    # before): each chain command with the Lamb shift on at N = 10 goes on
    # to the eigendecomposition, here stopped there
    from ule import cli, spinchain

    def stop(h):
        raise Reached

    monkeypatch.setattr(cli, "eigendecompose", stop)
    monkeypatch.setattr(spinchain, "eigendecompose", stop)
    config = os.path.join(ROOT, "demos", "chain_n6.cfg")
    with pytest.raises(Reached):
        main([command, "--config", config, "--N", "10", "--ignore_lamb_shift", "false",
              "--outdir", str(tmp_path)])


def residual_lamb_off_in_512_mb(tmp_path, monkeypatch, n):
    """`ule residual` on the chain at N = n, Lamb shift off, with physical
    memory read as 512 MB: exit 0 and the dissipator routes agree."""
    from ule import generator
    monkeypatch.setattr(generator, "_physical_memory", lambda: 2 ** 29)
    config = os.path.join(ROOT, "demos", "chain_n6.cfg")
    assert main(["residual", "--config", config, "--N", str(n), "--outdir", str(tmp_path)]) == 0
    lines = (tmp_path / "residuals.csv").read_text().splitlines()
    table = dict(line.split(",") for line in lines[1:])
    assert float(table["dissipator_mismatch"]) <= 1e-10 * float(table["dissipator_direct_norm"])


def test_residual_n7_fits_in_512_mb(tmp_path, capsys, monkeypatch):
    # with the Lamb shift off nothing is built over the 128^3 level triples:
    # the dissipator formula is one d x d product; the chain has 7,307 Bohr
    # frequencies at N = 7
    residual_lamb_off_in_512_mb(tmp_path, monkeypatch, 7)


def test_residual_n9_lamb_off_fits_in_512_mb(tmp_path, capsys, monkeypatch):
    # d = 512: the d x d products hold a few 4.2 MB matrices where float64
    # tables over the level triples would take 1.07 GB each
    residual_lamb_off_in_512_mb(tmp_path, monkeypatch, 9)


def test_loose_tol_positivity_violation_names_tol(tmp_path, capsys):
    config = os.path.join(ROOT, "demos", "chain_n6.cfg")
    code = main(["evolve", "--config", config, "--N", "4", "--tol", "1e-4",
                 "--outdir", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "positivity violation" in err
    assert "tol = 0.0001; a loose tol can cause this" in err


def test_steady_n7_fits_and_exits_0(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["steady", "--config", path, "--N", "7", "--outdir", str(tmp_path)]) == 0
    assert "kernel_dimension = 1" in capsys.readouterr().out
    assert len((tmp_path / "steady.csv").read_text().splitlines()) == 1 + 128


def test_uncertified_n9_steady_state_counts_its_kernel_and_exits_3(tmp_path, capsys):
    # no dissipation: the secular rates of one border are singular and left
    # unscaled, its certificate fails, and no dense 262144 x 262144
    # generator could fit; one border per level counts the kernel
    # matrix-free
    import time
    path = write_config(tmp_path)
    t0 = time.perf_counter()
    code = main(["steady", "--config", path, "--N", "9", "--gamma1", "0",
                 "--outdir", str(tmp_path)])
    assert code == 3
    assert time.perf_counter() - t0 < 30.0
    err = capsys.readouterr().err
    assert "steady state is not unique: kernel dimension 512 " in err
    assert "(certified with 512 components and 0 random borders, rcond " in err
    assert re.search(r"one border: rcond \S+ is not above 1e-10\)", err)


@pytest.mark.parametrize("option, pairs", [(["--eta", "0"], 48620), (["--B_z", "0"], 2520)],
                         ids=["eta0", "B_z0"])
def test_n9_kernel_beyond_the_border_support_exits_3_promptly(tmp_path, capsys, option, pairs):
    # without dissipation the 512 component borders do not certify: the
    # kernel is the commutant of a degenerate H_eff (48,620 dimensions at
    # eta = 0, at least 2,520 at B_z = 0), and its degenerate level pairs
    # exceed GMRES_RESTART, so no random border is drawn and no slow rung
    # runs
    import time
    path = write_config(tmp_path)
    t0 = time.perf_counter()
    code = main(["steady", "--config", path, "--N", "9", "--gamma1", "0", *option,
                 "--outdir", str(tmp_path)])
    assert code == 3
    assert time.perf_counter() - t0 < 30.0
    err = capsys.readouterr().err
    assert (f"no bordering with 512 components and 0 random borders certifies the kernel "
            f"({pairs} degenerate level pairs)") in err
    assert "kernel dimension" not in err


@pytest.mark.parametrize("n", [5, 6])
def test_spinchain_builds_no_dense_matrix(tmp_path, n):
    # one dense packed generator takes 8 d^4 bytes, 8.4 MB at N = 5 and
    # 134 MB at N = 6; the whole run peaks at 2.3 and 8.2 MB of traced
    # allocations
    tracemalloc.start()
    try:
        code = main(["spinchain", "--config", os.path.join(ROOT, "demos", "chain_n6.cfg"),
                     "--N", str(n), "--t_end", "5", "--samples", "11",
                     "--outdir", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= {5: 4e6, 6: 16e6}[n]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["kernel_dimension"] == 1
    assert summary["steady_residual"] <= 1e-12


def test_uncertified_steady_state_counts_its_kernel_and_exits_3(capsys):
    # no dissipation: the bordered matrix is singular, and one border per
    # level counts the commutant of the N = 3 chain Hamiltonian
    code = main(["steady", "--config", os.path.join(ROOT, "demos", "chain_n6.cfg"),
                 "--N", "3", "--gamma1", "0"])
    assert code == 3
    assert "kernel dimension 8" in capsys.readouterr().err


def test_runtime_imports_no_scipy():
    # numpy is the one numerical dependency: importing scipy would load a
    # second OpenBLAS next to numpy's
    code = ("import sys, ule, ule.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_steady_state_across_blas_thread_counts(tmp_path):
    # at N = 7 (128 x 128) OpenBLAS splits the products across threads;
    # rho_nn moved by 1.3e-16 there between 1 and 2 threads
    path = write_config(tmp_path)
    for n, bound in ((4, 1e-12), (7, 1e-14)):
        columns = []
        for threads in ("1", "2"):
            out = tmp_path / f"n{n}_threads{threads}"
            env = subprocess_env(OPENBLAS_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "ule.cli", "steady", "--config", path,
                            "--N", str(n), "--outdir", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            rows = (out / "steady.csv").read_text().splitlines()[1:]
            columns.append(np.array([float(r.split(",")[2]) for r in rows]))
        assert len(columns[0]) == 2 ** n
        assert np.max(np.abs(columns[0] - columns[1])) <= bound


def test_residual_with_lamb_shift_across_blas_thread_counts(tmp_path):
    # the f table, the Lamb shift and both residual routes: the same bytes
    path = os.path.join(ROOT, "demos", "chain_n6.cfg")
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = subprocess_env(OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "ule.cli", "residual", "--config", path,
                        "--N", "4", "--ignore_lamb_shift", "false", "--outdir", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        tables.append((out / "residuals.csv").read_bytes())
    assert b"lambshift_direct_norm,0.48" in tables[0]
    assert tables[0] == tables[1]


def test_evolve_across_blas_thread_counts(tmp_path):
    # propagation runs one eigh of H_eff and d x d products in that
    # eigenbasis; at N = 7 OpenBLAS splits them across threads, and M moved
    # by 2.8e-16 over t <= 20 between 1 and 2 threads
    path = os.path.join(ROOT, "demos", "chain_n6.cfg")
    for n, span, bound in ((4, [], 1e-10), (7, ["--t_end", "20"], 1e-14)):
        series = []
        for threads in ("1", "2"):
            out = tmp_path / f"n{n}_threads{threads}"
            env = subprocess_env(OPENBLAS_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "ule.cli", "evolve", "--config", path,
                            "--N", str(n), *span, "--outdir", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            rows = (out / "evolve.csv").read_text().splitlines()[1:]
            series.append(np.array([float(r.split(",")[1]) for r in rows]))
        assert len(series[0]) == 200
        assert np.max(np.abs(series[0] - series[1])) <= bound
