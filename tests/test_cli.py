import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tasec import cli, secrecy
from tasec.channel import RngStream, Scenario
from tasec.cli import (ASC_CSV_HEADER, SWEEP_CSV_HEADER, UsageError, main,
                       parse_config)
from tasec.errors import ConvergenceError, UnsupportedSchemeError
from tasec.experiments import db_to_linear
from tasec.secrecy import ROUTES, Method, asc, asc_etas_closed, asc_quadrature
from tasec.selection import TasScheme

from faults import negate_btas_terms


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------------
# Parsing and precedence
# ----------------------------------------------------------------------------

def test_defaults():
    cfg = parse_config(["asc", "--scheme", "etas"])
    assert cfg.method == "closed"
    assert cfg.trials == 1_000_000
    assert cfg.seed == 42
    assert cfg.antennas == [2]
    assert cfg.gamma_b_db == 10.0 and cfg.gamma_e_db == 10.0


def test_flag_mapping():
    cfg = parse_config(["asc", "--scheme", "etas", "--gamma-b-db", "10",
                        "--gamma-e-db", "10", "-M", "8", "--method", "closed"])
    assert cfg.schemes == [TasScheme.ETAS]
    assert cfg.antennas == [8]


def test_config_file_and_precedence(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# sweep-ish defaults\n"
        "gamma_b_db = 25\n"
        "seed = 9  # inline comment\n"
        "antennas = 4\n")
    cfg = parse_config(["asc", "--scheme", "btas", "--config", str(config),
                        "--gamma-b-db", "5"])
    assert cfg.gamma_b_db == 5.0      # flag beats config
    assert cfg.seed == 9              # config beats default
    assert cfg.antennas == [4]
    assert cfg.gamma_e_db == 10.0     # untouched default


# Every config key of each subcommand, with one value as flags and the same
# value as a config file writes it. No value is the flag's default, so a key
# the config layer dropped would show. The other keys of the subcommand are
# given as flags, so each run is complete.
ROUND_TRIP = {
    "asc": {
        "scheme": (["--scheme", "etas"], "etas"),
        "method": (["--method", "quad"], "quad"),
        "gamma_b_db": (["--gamma-b-db", "3.5"], "3.5"),
        "gamma_e_db": (["--gamma-e-db", "-2"], "-2"),
        "antennas": (["-M", "4"], "4"),
        "trials": (["--trials", "5000"], "5000"),
        "seed": (["--seed", "7"], "7"),
        "threads": (["--threads", "2"], "2"),
        "out": (["--out", "asc.csv"], "asc.csv"),
    },
    "sweep": {
        "scheme": (["--scheme", "btas", "--scheme", "otas"], "btas, otas"),
        "gamma_b_db": (["--gamma-b-db", "3.5"], "3.5"),
        "gamma_e_db": (["--gamma-e-db", "-2"], "-2"),
        "antennas": (["-M", "4", "-M", "16"], "4 16"),
        "trials": (["--trials", "5000"], "5000"),
        "seed": (["--seed", "7"], "7"),
        "threads": (["--threads", "2"], "2"),
        "swept": (["--swept", "ratio"], "ratio"),
        "from_db": (["--from-db", "-6"], "-6"),
        "to_db": (["--to-db", "6"], "6"),
        "points": (["--points", "3"], "3"),
        "normalize_otas": (["--normalize-otas"], "yes"),
        "mc_overlay": (["--mc-overlay"], "on"),
        "out": (["--out", "sweep.csv"], "sweep.csv"),
    },
    "crossover": {
        "gamma_b_db": (["--gamma-b-db", "12"], "12"),
        "antennas": (["-M", "4"], "4"),
        "bracket_db": (["--bracket-db", "-20", "25"], "-20, 25"),
        "out": (["--out", "cross.csv"], "cross.csv"),
    },
    "verify": {
        "trials": (["--trials", "5000"], "5000"),
        "seed": (["--seed", "7"], "7"),
        "threads": (["--threads", "2"], "2"),
    },
}


def _parsed(argv, config=None):
    ns = vars(parse_config(argv + (["--config", str(config)] if config else [])))
    ns.pop("config")
    return ns


@pytest.mark.parametrize("subcommand", sorted(ROUND_TRIP))
def test_config_keys_are_the_long_flags(subcommand):
    _, commands = cli._build_parser()
    assert set(cli._config_keys(commands[subcommand])) == set(ROUND_TRIP[subcommand])


@pytest.mark.parametrize("subcommand,key", [(sub, key) for sub in sorted(ROUND_TRIP)
                                            for key in ROUND_TRIP[sub]])
def test_config_value_parses_like_its_flag(tmp_path, subcommand, key):
    table = ROUND_TRIP[subcommand]
    rest = [token for other, (flags, _) in table.items() if other != key
            for token in flags]
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {table[key][1]}\n")
    from_flags = _parsed([subcommand, *rest, *table[key][0]])
    assert _parsed([subcommand, *rest], config) == from_flags


@pytest.mark.parametrize("word,expected", [
    ("1", True), ("true", True), ("Yes", True), ("on", True),
    ("0", False), ("false", False), ("no", False), ("OFF", False)])
def test_config_boolean_spellings(tmp_path, word, expected):
    config = tmp_path / "run.cfg"
    config.write_text(f"mc_overlay = {word}\n")
    argv = ["sweep", "--swept", "ratio", "--from-db", "-6", "--to-db", "6",
            "--points", "2", "--scheme", "btas", "--trials", "64"]
    assert _parsed(argv, config)["mc_overlay"] is expected


def test_repeatable_flag_replaces_config_list(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("antennas = 4, 16\n")
    argv = ["sweep", "--swept", "ratio", "--from-db", "-6", "--to-db", "6",
            "--points", "2", "--scheme", "btas", "-M", "8"]
    assert _parsed(argv, config)["antennas"] == [8]
    assert _parsed(argv[:-2], config)["antennas"] == [4, 16]


def test_config_unknown_key(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("gamma_z_db = 3\n")
    code, _, err = run_cli(["asc", "--scheme", "btas", "--config", str(config)], capsys)
    assert code == 2
    assert "gamma_z_db" in err


def test_config_malformed_number(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("trials = lots\n")
    code, _, err = run_cli(["asc", "--scheme", "btas", "--config", str(config)], capsys)
    assert code == 2
    assert "lots" in err


def test_unknown_flag(capsys):
    code, _, err = run_cli(["asc", "--scheme", "btas", "--frobnicate"], capsys)
    assert code == 2
    # crossover runs no Monte Carlo, so it has no --threads
    code, _, err = run_cli(["crossover", "--threads", "2"], capsys)
    assert code == 2
    assert "--threads" in err


def test_invalid_antenna_count(capsys):
    code, _, err = run_cli(["asc", "--scheme", "btas", "-M", "0"], capsys)
    assert code == 2
    assert "-M" in err or "0" in err


def test_otas_closed_rejected(capsys):
    code, _, err = run_cli(["asc", "--scheme", "otas", "--method", "closed"], capsys)
    assert code == 2
    assert "closed-form unavailable for otas" in err


def test_otas_quad_rejected(capsys):
    code, _, err = run_cli(["asc", "--scheme", "otas", "--method", "quad"], capsys)
    assert code == 2


def test_random_closed_rejected(capsys):
    code, _, err = run_cli(["asc", "--scheme", "random", "--method", "closed"], capsys)
    assert code == 2


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("scheme", list(TasScheme))
def test_route_table_matches_library(scheme, method, capsys):
    code, out, err = run_cli(["asc", "--scheme", scheme.value, "--method",
                              method.value, "--trials", "20"], capsys)
    if method in ROUTES[scheme]:
        assert (code, err) == (0, "")
        assert out.splitlines()[1].startswith(f"{scheme.value},{method.value},")
    else:
        assert code == 2 and out == ""
        assert "unavailable for " + scheme.value in err
    if Method.QUAD in ROUTES[scheme]:
        assert asc_quadrature(Scenario(1.0, 1.0, 2), scheme).method is Method.QUAD
    else:
        with pytest.raises(UnsupportedSchemeError):
            asc_quadrature(Scenario(1.0, 1.0, 2), scheme)
    # The library's dispatcher answers exactly the pairs ROUTES lists, by
    # name or by enum, and takes a scheme's first route when none is named.
    scenario, rng = Scenario(1.0, 1.0, 2), RngStream(7)
    for name in (method, method.value):
        if method in ROUTES[scheme]:
            est = asc(scenario, scheme.value, name, trials=20, rng=rng)
            assert est.method is method
        else:
            with pytest.raises(UnsupportedSchemeError):
                asc(scenario, scheme, name, trials=20, rng=rng)
    default = asc(scenario, scheme, trials=20, rng=rng)
    assert default == asc(scenario, scheme, ROUTES[scheme][0], trials=20, rng=rng)
    assert default.method is ROUTES[scheme][0]


# ----------------------------------------------------------------------------
# asc
# ----------------------------------------------------------------------------

def test_asc_closed_row(capsys):
    code, out, _ = run_cli(["asc", "--scheme", "etas", "--gamma-b-db", "10",
                            "--gamma-e-db", "10", "-M", "8"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == ",".join(ASC_CSV_HEADER)
    fields = row.split(",")
    assert fields[0] == "etas" and fields[1] == "closed"
    assert float(fields[5]) > 0.0
    assert fields[6] == "" and fields[7] == ""  # no std_error/trials


def test_asc_single_antenna_schemes_identical(capsys):
    _, out_b, _ = run_cli(["asc", "--scheme", "btas", "-M", "1"], capsys)
    _, out_e, _ = run_cli(["asc", "--scheme", "etas", "-M", "1"], capsys)
    asc_b = out_b.strip().splitlines()[1].split(",")[5]
    asc_e = out_e.strip().splitlines()[1].split(",")[5]
    assert asc_b == asc_e


def test_asc_mc_fields_present(capsys):
    code, out, _ = run_cli(["asc", "--scheme", "otas", "--method", "mc",
                            "--trials", "4"], capsys)
    assert code == 0
    fields = out.strip().splitlines()[1].split(",")
    assert fields[1] == "mc"
    assert float(fields[6]) >= 0.0
    assert fields[7] == "4"


def test_asc_quad_route(capsys):
    code, out, _ = run_cli(["asc", "--scheme", "random", "--method", "quad",
                            "--gamma-b-db", "0", "--gamma-e-db", "0"], capsys)
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[5]) == pytest.approx(
        0.33906037855497906, abs=1e-9)


def test_asc_quad_large_legitimate_snr(capsys):
    # the tail out to x ~ 1e20 used to read as 0
    code, out, _ = run_cli(["asc", "--scheme", "random", "--method", "quad",
                            "--gamma-b-db", "200", "--gamma-e-db", "0", "-M", "8"], capsys)
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[5]) == pytest.approx(
        64.74546833819949, abs=1e-9)  # 60-digit closed form


@pytest.mark.parametrize("gamma_b_db", ["2000", "3000"])
def test_asc_quad_far_beyond_the_old_interval_cap(gamma_b_db):
    # a tail over 200-300 decades of x, past where the earlier adaptive rule
    # ran out of intervals; a fresh process shows that nothing is warned
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "tasec", "asc", "--scheme", "random", "--method", "quad",
         "--gamma-b-db", gamma_b_db, "--gamma-e-db", "0", "-M", "8"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": pythonpath})
    assert result.returncode == 0
    assert result.stderr == ""
    single = Scenario(db_to_linear(float(gamma_b_db)), 1.0, 1)
    assert float(result.stdout.splitlines()[1].split(",")[5]) == pytest.approx(
        asc_etas_closed(single).value, abs=1e-10)


# 60-digit mpmath values of the closed forms at (3082, 0) dB, M = 8, the
# top of the dB range, where the integrand's tail has not vanished at the
# largest double: quadrature exits 1 there, the closed forms answer.
TOP_OF_RANGE = {"btas": 1024.2593825743917874, "etas": 1022.8235073882643455,
                "random": 1022.1251452847372848}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scheme, method", [
    (scheme.value, method.value) for scheme in TasScheme for method in ROUTES[scheme]
    if method is not Method.MC])
def test_top_of_the_db_range_answers_or_fails_cleanly(scheme, method, capsys):
    code, out, err = run_cli(["asc", "--scheme", scheme, "--method", method,
                              "--gamma-b-db", "3082", "--gamma-e-db", "0", "-M", "8"],
                             capsys)
    if method == Method.CLOSED.value:
        assert code == 0 and err == ""
        assert float(out.splitlines()[1].split(",")[5]) == pytest.approx(
            TOP_OF_RANGE[scheme], abs=1e-10)
    else:
        assert code == 1 and out == ""
        assert err.startswith("error: quadrature tolerance")
        assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma_e_db", ["0", "3080"])
@pytest.mark.parametrize("scheme", [scheme.value for scheme in TasScheme])
def test_mc_at_the_top_of_the_db_range_fails_cleanly(scheme, gamma_e_db, capsys):
    # gamma_b0 g overflows a double there: one line on stderr, no warning
    code, out, err = run_cli(["asc", "--scheme", scheme, "--method", "mc", "-M", "8",
                              "--trials", "1000", "--gamma-b-db", "3080",
                              "--gamma-e-db", gamma_e_db], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: Monte Carlo: gamma0*g overflows a double")
    assert err.count("\n") == 1


@pytest.mark.parametrize("gamma_e_db", ["0", "3080"])
def test_mc_at_the_top_of_the_db_range_under_w_error(gamma_e_db):
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "tasec", "asc", "--scheme", "otas",
         "--method", "mc", "-M", "8", "--trials", "1000", "--gamma-b-db", "3080",
         "--gamma-e-db", gamma_e_db],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": pythonpath})
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("error: Monte Carlo: gamma0*g overflows a double")
    assert result.stderr.count("\n") == 1


# ----------------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------------

SWEEP_ARGS = ["sweep", "--swept", "gamma-b", "--from-db", "-10", "--to-db", "10",
              "--points", "3", "--gamma-e-db", "10", "-M", "2",
              "--scheme", "btas", "--scheme", "otas", "--trials", "8192",
              "--seed", "5"]


def test_sweep_csv_shape(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(SWEEP_ARGS + ["--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_CSV_HEADER)
    assert len(lines) == 1 + 3 * 2  # 3 points x (btas closed + otas mc)


def test_sweep_byte_identical_across_threads(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(SWEEP_ARGS + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(SWEEP_ARGS + ["--threads", "8", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_normalized_column(tmp_path):
    out = tmp_path / "norm.csv"
    args = ["sweep", "--swept", "ratio", "--from-db", "-6", "--to-db", "6",
            "--points", "2", "--gamma-b-db", "10", "-M", "4",
            "--scheme", "btas", "--scheme", "etas", "--trials", "100000",
            "--normalize-otas", "--out", str(out)]
    assert main(args) == 0
    for line in out.read_text().splitlines()[1:]:
        value = float(line.split(",")[6])
        assert 0.0 <= value <= 1.05


def test_sweep_requires_scheme(capsys):
    code, _, err = run_cli(["sweep", "--swept", "gamma-b", "--from-db", "0",
                            "--to-db", "10", "--points", "2"], capsys)
    assert code == 2
    assert "scheme" in err


def test_sweep_requires_grid(capsys):
    code, _, err = run_cli(["sweep", "--scheme", "btas"], capsys)
    assert code == 2


# ----------------------------------------------------------------------------
# crossover
# ----------------------------------------------------------------------------

def test_crossover_row(capsys):
    code, out, _ = run_cli(["crossover", "--gamma-b-db", "10", "-M", "8"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "gamma_b0_db,M,crossover_ratio_db,residual"
    fields = row.split(",")
    assert abs(float(fields[3])) <= 1e-9
    assert float(fields[2]) == pytest.approx(-1.2306619993821917, abs=1e-6)


def test_crossover_zero_closed_form_is_an_error(capsys):
    # B-TAS cancels to 0 at the bracket's low end, so there is no log ratio
    code, out, err = run_cli(["crossover", "--gamma-b-db", "-300", "-M", "64",
                              "--bracket-db", "-29.7", "30"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: closed-form ASC is 0") and err.count("\n") == 1


def test_crossover_single_antenna_usage_error(capsys):
    code, _, err = run_cli(["crossover", "--gamma-b-db", "10", "-M", "1"], capsys)
    assert code == 2


def test_crossover_empty_bracket_exit_code(capsys):
    code, _, err = run_cli(["crossover", "--gamma-b-db", "10", "-M", "8",
                            "--bracket-db", "25", "30"], capsys)
    assert code == 3
    assert "sign" in err or "crossover" in err


# ----------------------------------------------------------------------------
# computation failures map to exit 1
# ----------------------------------------------------------------------------

def test_computation_error_exit_code(capsys, monkeypatch):
    # The B-TAS sum's error bound reroutes M = 32 to quadrature, which is
    # made to fail here: parsing passes, evaluation fails.
    def fail(f, **kwargs):
        raise ConvergenceError("quadrature tolerance 1.000e-10 not met")

    monkeypatch.setattr(secrecy, "integrate_half_line", fail)
    code, out, err = run_cli(["asc", "--scheme", "btas", "-M", "32",
                              "--gamma-b-db", "2000"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: quadrature tolerance")
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["asc", "--scheme", "etas", "--gamma-b-db", "4000"],
    ["crossover", "--gamma-b-db", "4000", "-M", "8"],
    ["sweep", "--swept", "gamma-b", "--from-db", "0", "--to-db", "4000",
     "--points", "2", "--scheme", "btas"],
])
def test_out_of_range_db_is_an_error(args, capsys):
    code, _, err = run_cli(args, capsys)
    assert code in (1, 2)
    assert "4000" in err


@pytest.mark.parametrize("grid", [["--from-db", "0", "--to-db", "4000"],
                                  ["--from-db", "-4000", "--to-db", "0"]])
@pytest.mark.parametrize("scheme", ["btas", "otas"])
def test_out_of_range_sweep_grid_fails_before_any_row(grid, scheme, capsys):
    code, out, err = run_cli(["sweep", "--swept", "gamma-b", *grid, "--points",
                              "2", "--scheme", scheme, "--trials", "1000"], capsys)
    assert code == 2
    assert out == ""
    assert "4000" in err


@pytest.mark.parametrize("args,expected", [
    (["asc", "--scheme", "etas", "--gamma-e-db", "-3070", "-M", "64"], 2),
    (["crossover", "--gamma-b-db", "-3200", "-M", "8"], 1),
    (["sweep", "--swept", "gamma-b", "--from-db", "-3200", "--to-db", "0",
      "--points", "3", "--scheme", "otas", "--scheme", "etas", "--trials", "1000"], 2),
])
def test_tiny_snr_fails_before_any_work(args, expected, capsys):
    # M/gamma or 1/gamma overflows a closed-form argument; Scenario says so.
    code, out, err = run_cli(args, capsys)
    assert code == expected
    assert out == ""
    assert "too small" in err and "gamma_b0=" in err and "gamma_e0=" in err


def test_degenerate_normalization_exit_code(capsys):
    # a vanishing legitimate SNR drives the O-TAS reference to exactly zero
    code, _, err = run_cli(
        ["sweep", "--swept", "ratio", "--from-db", "-1", "--to-db", "1",
         "--points", "2", "--gamma-b-db", "-200", "-M", "2",
         "--scheme", "btas", "--trials", "512", "--normalize-otas"], capsys)
    assert code == 1
    assert "normalize" in err.lower()


# ----------------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------------

def test_verify_passes_and_prints_table(capsys):
    code, out, _ = run_cli(["verify", "--trials", "20000"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert sum(line.startswith("PASS") for line in lines) == 5
    assert lines[-1].endswith("5/5 checks passed")


def test_verify_detects_injected_sign_fault(monkeypatch, capsys):
    negate_btas_terms(monkeypatch)
    code, out, _ = run_cli(["verify", "--trials", "4096"], capsys)
    assert code == 1
    assert any(line.startswith("FAIL") for line in out.splitlines())


def test_verify_respects_configured_trials(capsys):
    code, out, _ = run_cli(["verify", "--trials", "100"], capsys)
    # tiny budgets stay legal; the 4-sigma bands just get wider
    assert "x 100 trials" in out
    assert code in (0, 1)


# ----------------------------------------------------------------------------
# pinned output
# ----------------------------------------------------------------------------

_ASC_POINT = ["--gamma-b-db", "10", "--gamma-e-db", "10", "-M", "8"]
_ASC_HEADER = ",".join(ASC_CSV_HEADER)
_CROSSOVER_HEADER = "gamma_b0_db,M,crossover_ratio_db,residual"

# The exact stdout of the scalar routes, frozen from version 0.4.0 before
# the E1 coefficient tables and the quadrature node table. Both are meant
# to leave every double as it was, so a speed-up that moves a digit fails.
PINNED_STDOUT = {
    "btas-closed": (["asc", "--scheme", "btas", "--method", "closed", *_ASC_POINT],
                    _ASC_HEADER, "btas,closed,10,10,8,1.8448141502078137,,"),
    "etas-closed": (["asc", "--scheme", "etas", "--method", "closed", *_ASC_POINT],
                    _ASC_HEADER, "etas,closed,10,10,8,1.9832632327215598,,"),
    "random-quad-low": (["asc", "--scheme", "random", "--method", "quad",
                         "--gamma-b-db", "-30", "--gamma-e-db", "40", "-M", "1"],
                        _ASC_HEADER, "random,quad,-30,40,1,1.4398181286864375e-10,,"),
    "btas-quad-top": (["asc", "--scheme", "btas", "--method", "quad",
                       "--gamma-b-db", "3000", "--gamma-e-db", "0", "-M", "64"],
                      _ASC_HEADER, "btas,quad,3000,0,64,997.9161121057773,,"),
    "crossover-low": (["crossover", "--gamma-b-db", "-90", "-M", "64"], _CROSSOVER_HEADER,
                      "-90,64,10.989372123333622,-2.386979502944115e-14"),
    "crossover-10db": (["crossover", "--gamma-b-db", "10", "-M", "8"], _CROSSOVER_HEADER,
                       "10,8,-1.2306619993820851,1.1102230246251559e-15"),
}


@pytest.mark.parametrize("name", sorted(PINNED_STDOUT))
def test_scalar_stdout_is_pinned(name, capsys):
    args, header, row = PINNED_STDOUT[name]
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (0, "")
    assert out == f"{header}\n{row}\n"


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

def test_module_entry_point_from_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "tasec", "--help"],
                            capture_output=True, text=True, timeout=60,
                            env={**os.environ, "PYTHONPATH": pythonpath})
    assert result.returncode == 0
    assert "verify" in result.stdout


def test_console_entry_point():
    exe = shutil.which("tasec")
    if exe:
        cmd = [exe]
    else:
        cmd = [sys.executable, "-m", "tasec.cli"]
    result = subprocess.run(cmd + ["asc", "--scheme", "btas", "-M", "2"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.startswith(",".join(ASC_CSV_HEADER))
