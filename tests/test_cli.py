import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tasec import cli, secrecy, verification
from tasec.channel import RngStream, Scenario
from tasec.cli import (ASC_CSV_HEADER, SWEEP_CSV_HEADER, UsageError, main,
                       parse_config)
from tasec.errors import ConvergenceError, UnsupportedSchemeError
from tasec.experiments import db_to_linear
from tasec.secrecy import (ROUTES, AscEstimate, Method, asc, asc_etas_closed,
                           asc_quadrature)
from tasec.selection import TasScheme
from tasec.verification import run_verification

from faults import negate_btas_terms, scale_otas_ratios


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


def test_config_file_is_utf8_and_may_start_with_a_byte_order_mark(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_bytes("\ufeffgamma_b_db = 25  # γ̄B0 in dB\n".encode("utf-8"))
    cfg = parse_config(["asc", "--scheme", "btas", "--config", str(config)])
    assert cfg.gamma_b_db == 25.0


# Inputs that parsing rejects: the arguments, the bytes of a config file the
# run reads (None for none) and a part of the one error line.
SWEEP_ARGS = ["sweep", "--swept", "ratio", "--from-db", "-6", "--to-db", "6",
              "--points", "2", "--scheme", "btas"]
USAGE_ERRORS = {
    "nan-db": (["asc", "--scheme", "btas", "--gamma-b-db", "nan"], None,
               "not a finite dB value: 'nan'"),
    "underflowing-db": (["asc", "--scheme", "btas", "--gamma-b-db", "-4000"], None,
                        "dB value -4000.0 is out of range: 10^(-4000.0/10) underflows to 0"),
    "zero-threads": (["asc", "--scheme", "btas", "--threads", "0"], None,
                     "threads must be an integer >= 1, got 0"),
    "asc-two-schemes": (["asc", "--scheme", "btas", "--scheme", "etas"], None,
                        "asc needs exactly one --scheme"),
    "asc-two-antenna-counts": (["asc", "--scheme", "btas", "-M", "2", "-M", "4"], None,
                               "asc takes a single -M"),
    "mc-one-trial": (["asc", "--scheme", "otas", "--method", "mc", "--trials", "1"], None,
                     "trials must be an integer >= 2, got 1"),
    "crossover-two-antenna-counts": (["crossover", "-M", "2", "-M", "4"], None,
                                     "crossover takes a single -M"),
    "reversed-bracket": (["crossover", "-M", "4", "--bracket-db", "30", "-30"], None,
                         "--bracket-db needs LO < HI, got 30.0 -30.0"),
    "verify-one-trial": (["verify", "--trials", "1"], None,
                         "trials must be an integer >= 2, got 1"),
    "config-line-without-equals": (["asc", "--scheme", "btas"], b"gamma_b_db 3\n",
                                   ":1: expected 'key = value', got 'gamma_b_db 3'"),
    "config-not-a-boolean": (SWEEP_ARGS, b"mc_overlay = maybe\n",
                             ":1: bad value for 'mc_overlay': 'maybe' "
                             "(not a boolean: 'maybe')"),
    "config-unknown-scheme": (["asc"], b"scheme = foo\n", "invalid choice 'foo'"),
    "config-one-bracket-end": (["crossover", "-M", "4"], b"bracket_db = 1\n",
                               "needs exactly 2 values, got 1"),
    "config-not-utf8": (["asc", "--scheme", "btas"], b"gamma_b_db = 1\xff\n",
                        "'utf-8' codec can't decode byte 0xff"),
    "config-missing": (["asc", "--scheme", "btas", "--config", "no-such-dir/run.cfg"],
                       None, "cannot read config file 'no-such-dir/run.cfg'"),
}


@pytest.mark.parametrize("args, config, expected", list(USAGE_ERRORS.values()),
                         ids=list(USAGE_ERRORS))
def test_bad_input_is_one_usage_error_line(tmp_path, args, config, expected, capsys):
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_bytes(config)
        args = [*args, "--config", str(path)]
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert expected in err


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
    # A value that names no member fails as the enum's conversion does
    for args, message in ((("bogus", method), "'bogus' is not a valid TasScheme"),
                          ((None, method), "None is not a valid TasScheme"),
                          ((scheme.value, "bogus"), "'bogus' is not a valid Method"),
                          ((scheme, 3), "3 is not a valid Method")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            asc(scenario, *args, trials=20, rng=rng)


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


@pytest.mark.parametrize("args", [["--gamma-b-db", "60", "-M", "4"],
                                  ["--gamma-b-db", "60", "-M", "8"],
                                  ["--gamma-b-db", "80", "-M", "2"]],
                         ids=["60dB-M4", "60dB-M8", "80dB-M2"])
def test_crossover_below_the_default_bracket(args, capsys):
    # The default bracket's low end moves down to the root; the explicit
    # bracket of the pinned crossover-60db-wide row finds it too
    code, out, _ = run_cli(["crossover", *args], capsys)
    assert code == 0
    root = float(out.splitlines()[1].split(",")[2])
    code, out, _ = run_cli(["crossover", *args, "--bracket-db", "-120", "30"], capsys)
    assert code == 0
    assert abs(root - float(out.splitlines()[1].split(",")[2])) <= 1e-9


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


def test_out_of_memory_exit_code(capsys, monkeypatch):
    # A Monte Carlo buffer the machine cannot hold, as -M 100000 asks for;
    # the test itself allocates nothing of that size.
    def fail(n):
        raise MemoryError("Unable to allocate 24.4 GiB for an array with shape "
                          "(3276800000,) and data type float64")

    monkeypatch.setattr(secrecy, "_take_buffer", fail)
    code, out, err = run_cli(["asc", "--scheme", "otas", "--method", "mc",
                              "--trials", "1000"], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: Unable to allocate 24.4 GiB for an array with shape "
                   "(3276800000,) and data type float64\n")


@pytest.mark.parametrize("args", [
    ["asc", "--scheme", "etas", "--gamma-b-db", "4000"],
    ["crossover", "--gamma-b-db", "4000", "-M", "8"],
    ["sweep", "--swept", "gamma-b", "--from-db", "0", "--to-db", "4000",
     "--points", "2", "--scheme", "btas"],
    ["asc", "--scheme", "btas", "--gamma-b-db", "-4000"],
    ["crossover", "--gamma-b-db", "-4000", "-M", "4"],
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


def test_mc_overflow_in_a_sweep_names_the_point(capsys):
    code, out, err = run_cli(
        ["sweep", "--swept", "gamma-b", "--from-db", "0", "--to-db", "3080",
         "--points", "2", "-M", "8", "--scheme", "otas", "--trials", "1000"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: Monte Carlo: gamma0*g overflows a double at "
                          "gamma_b0=1e+308, gamma_e0=10;")


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


def test_verify_stdout_is_the_same_at_one_and_two_threads(monkeypatch, capsys):
    # 20,000 trials are two chunks, so both workers run at 2 threads
    monkeypatch.setattr(secrecy, "_usable_cpus", lambda: 2)
    outputs = [run_cli(["verify", "--trials", "20000", "--threads", threads], capsys)
               for threads in ("1", "2")]
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1]


def test_verify_mc_vs_closed_covers_otas_at_one_antenna(monkeypatch):
    # O-TAS at M = 1 meets the B-TAS closed form in mc-vs-closed, the only
    # Monte Carlo comparison of O-TAS with a deterministic route
    assert all(r.passed for r in run_verification(20000, 42))
    scale_otas_ratios(monkeypatch, 1.05)
    results = run_verification(20000, 42)
    assert [r.name for r in results if not r.passed] == ["mc-vs-closed"]
    assert "45 points x 20000 trials" in results[1].detail


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_verify_with_few_trials_never_raises(seed, capsys):
    # At 100 trials every capacity at (0, 20) dB can be 0. No point expects
    # 1,000 positive capacities, so mc-vs-closed compares none of them; a
    # standard error of 0 would otherwise be a named failure, not a
    # division by zero (next test).
    code, out, _ = run_cli(["verify", "--trials", "100", "--seed", str(seed)], capsys)
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 6 and lines[-1].endswith("5/5 checks passed")
    assert "raised" not in out
    assert lines[1].endswith("(limit 4); under-sampled: 45 points")
    for line in lines[:-1]:
        if "inf sigma" in line:
            assert line.startswith("FAIL") and "std_error 0 off the reference at" in line


def test_verify_skips_only_under_sampled_points():
    from tasec.verification import (MC_ANTENNAS, MC_GRID_DB, MC_MIN_POSITIVE,
                                    _positive_share, _scenario)

    # P(C > 0): 1/(1 + rho) at M = 1, and the B-TAS product is 1 minus the
    # alternating sum sum_k C(M, k) (-1)^k / (1 + k rho), here at M = 2
    rho = 10.0
    one = _scenario(0.0, 10.0, 1)
    assert _positive_share(TasScheme.BTAS, one) == pytest.approx(1.0 / (1.0 + rho))
    two = _scenario(0.0, 10.0, 2)
    assert _positive_share(TasScheme.BTAS, two) \
        == pytest.approx(1.0 - (1.0 - 2.0 / (1.0 + rho) + 1.0 / (1.0 + 2.0 * rho)))
    assert _positive_share(TasScheme.ETAS, two) == pytest.approx(2.0 / (2.0 + rho))
    # At the default 1e6 trials the fewest expected is 1e6/101, so no point
    # is skipped and the output is as before the rule
    fewest = min(1_000_000 * _positive_share(scheme, _scenario(gb, ge, m))
                 for gb in MC_GRID_DB for ge in MC_GRID_DB for m in MC_ANTENNAS
                 for scheme in (TasScheme.BTAS, TasScheme.ETAS))
    assert fewest == pytest.approx(1e6 / 101) and fewest > MC_MIN_POSITIVE
    # At 20,000 trials the four points at (0, 20) dB with fewer than 1,000
    # expected positive capacities are skipped; the 41 others are compared
    detail = run_verification(20000, 42)[1].detail
    assert detail.startswith("45 points x 20000 trials")
    assert detail.endswith("; under-sampled: 4 points")


def test_verify_zero_standard_error_counts_as_zero_sigma_on_equal_values():
    from tasec.secrecy import AscEstimate
    from tasec.verification import _sigmas

    exact = AscEstimate(value=0.0, method=Method.MC, trials=100, std_error=0.0)
    assert _sigmas(exact, 0.0) == 0.0
    assert _sigmas(exact, 1e-3) == float("inf")
    spread = AscEstimate(value=1.0, method=Method.MC, trials=100, std_error=0.5)
    assert _sigmas(spread, 2.0) == 2.0


def test_verify_names_each_zero_standard_error_off_the_reference(monkeypatch):
    # Every Monte Carlo estimate is exact and 0, so no point meets its
    # positive closed form: each is infinitely many sigma off, and named.
    # One call runs the curves of M = 1, 2 and 8 on one queue.
    calls = []

    def exact_zeros(curves, trials, threads):
        calls.append([scenarios[0].num_antennas for scenarios, _, _ in curves])
        return [{scheme: [AscEstimate(value=0.0, method=Method.MC, trials=trials,
                                      std_error=0.0) for _ in scenarios]
                 for scheme in schemes} for scenarios, schemes, rng in curves]

    monkeypatch.setattr(verification, "_mc_asc_curves", exact_zeros)
    result = verification.check_mc_vs_closed(1_000_000, 42)
    assert calls == [[1, 2, 8]]
    assert not result.passed
    assert result.detail.startswith(
        "45 points x 1000000 trials, worst deviation = inf sigma (limit 4); "
        "std_error 0 off the reference at otas (0, 0) dB M=1, otas (0, 10) dB M=1, ")
    assert result.detail.endswith(", etas (20, 20) dB M=8")
    assert result.detail.count(" dB M=") == 45


def test_verify_reports_a_check_that_raises_as_failed(monkeypatch):
    def broken():
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(verification, "check_factor_m_identity", broken)
    results = run_verification(trials=100)
    assert [r.name for r in results] == [
        "closed-vs-quadrature", "mc-vs-closed", "otas-dominance",
        "factor-m-identity", "single-antenna-degeneracy"]
    assert results[3] == verification.CheckResult(
        "factor-m-identity", False, "raised ZeroDivisionError: float division by zero")


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
_SWEEP_HEADER = ",".join(SWEEP_CSV_HEADER)

# Closed-form rows of a gamma-e sweep at three antenna counts: its B-TAS and
# E-TAS sums revisit the same E1 arguments across rows.
_GAMMA_E_CLOSED_ROWS = """\
-10,10,-10,2,btas,closed,3.5265067551502858,,
-10,10,-10,2,etas,closed,2.8379990748337733,,
-10,10,-10,8,btas,closed,4.554420020192409,,
-10,10,-10,8,etas,closed,2.8887230789149214,,
-10,10,-10,16,btas,closed,4.9018848648871751,,
-10,10,-10,16,etas,closed,2.8975591910479475,,
-6,10,-6,2,btas,closed,3.3599499520552469,,
-6,10,-6,2,etas,closed,2.7456619267029705,,
-6,10,-6,8,btas,closed,4.3876271492794183,,
-6,10,-6,8,etas,closed,2.8626903640782211,,
-6,10,-6,16,btas,closed,4.7350919936326727,,
-6,10,-6,16,etas,closed,2.8842448661585625,,
-2,10,-2,2,btas,closed,3.0399717522889529,,
-2,10,-2,2,etas,closed,2.5541965524835617,,
-2,10,-2,8,btas,closed,4.0654467421544682,,
-2,10,-2,8,etas,closed,2.8013224591855899,,
-2,10,-2,16,btas,closed,4.4129113344072124,,
-2,10,-2,16,etas,closed,2.8519148113133626,,
2,10,2,2,btas,closed,2.518335996349911,,
2,10,2,2,etas,closed,2.2129461424363521,,
2,10,2,8,btas,closed,3.5282953222018918,,
2,10,2,8,etas,closed,2.6667887316078183,,
2,10,2,16,btas,closed,3.8756980779976709,,
2,10,2,16,etas,closed,2.7767519022848521,,
6,10,6,2,btas,closed,1.8252849740403703,,
6,10,6,2,etas,closed,1.7149280685103256,,
6,10,6,8,btas,closed,2.7606006613900504,,
6,10,6,8,etas,closed,2.4062150418980202,,
6,10,6,16,btas,closed,3.1046926583196983,,
6,10,6,16,etas,closed,2.6161290556842212,,
10,10,10,2,btas,closed,1.1134351770388899,,
10,10,10,2,etas,closed,1.1427687536548559,,
10,10,10,8,btas,closed,1.8448141502078137,,
10,10,10,8,etas,closed,1.9832632327215598,,
10,10,10,16,btas,closed,2.1543987575067831,,
10,10,10,16,etas,closed,2.3169494066332721,,
14,10,14,2,btas,closed,0.57162160949631735,,
14,10,14,2,etas,closed,0.64202876727840141,,
14,10,14,8,btas,closed,1.0183439321086225,,
14,10,14,8,etas,closed,1.4324030235190579,,
14,10,14,16,btas,closed,1.2345519088231558,,
14,10,14,16,etas,closed,1.8553873852027503,,
18,10,18,2,btas,closed,0.2585981172256866,,
18,10,18,2,etas,closed,0.31028191671333144,,
18,10,18,8,btas,closed,0.48017126845928382,,
18,10,18,8,etas,closed,0.87743629388123656,,
18,10,18,16,btas,closed,0.59614355103129446,,
18,10,18,16,etas,closed,1.2894158970538285,,
22,10,22,2,btas,closed,0.1089966236691769,,
22,10,22,2,etas,closed,0.13564990590885406,,
22,10,22,8,btas,closed,0.20636061170713704,,
22,10,22,8,etas,closed,0.45523190293727817,,
22,10,22,16,btas,closed,0.25921271839468463,,
22,10,22,16,etas,closed,0.75687607806044865,,
26,10,26,2,btas,closed,0.044441988887789663,,
26,10,26,2,etas,closed,0.056256902436960618,,
26,10,26,8,btas,closed,0.084842197241413467,,
26,10,26,8,etas,closed,0.20793370309587766,,
26,10,26,16,btas,closed,0.10711399728367864,,
26,10,26,16,etas,closed,0.37868126899587801,,
30,10,30,2,btas,closed,0.017865453818711546,,
30,10,30,2,etas,closed,0.022778988265425428,,
30,10,30,8,btas,closed,0.034222297479326938,,
30,10,30,8,etas,closed,0.08813696800223797,,
30,10,30,16,btas,closed,0.043296514016668994,,
30,10,30,16,etas,closed,0.169011415677015,,"""

# The exact stdout of the scalar routes, frozen from version 0.4.0 before
# the E1 coefficient tables and the quadrature node table. Both are meant
# to leave every double as it was, so a speed-up that moves a digit fails.
# The quadrature rows at (10, 10) dB and the B-TAS hand-over at M = 64 were
# frozen from version 0.8.0, before the in-place link-law kernels. The
# gamma-e sweep and the last two crossovers, which revisit E1 arguments,
# were frozen from version 0.9.0 before the E1 memo.
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
    "etas-quad": (["asc", "--scheme", "etas", "--method", "quad", *_ASC_POINT],
                  _ASC_HEADER, "etas,quad,10,10,8,1.9832632327215598,,"),
    "btas-quad": (["asc", "--scheme", "btas", "--method", "quad", *_ASC_POINT],
                  _ASC_HEADER, "btas,quad,10,10,8,1.8448141502077824,,"),
    "random-quad": (["asc", "--scheme", "random", "--method", "quad", *_ASC_POINT],
                    _ASC_HEADER, "random,quad,10,10,8,0.75206797689791505,,"),
    "btas-closed-hand-over": (["asc", "--scheme", "btas", "--method", "closed", "-M", "64",
                               "--gamma-b-db", "-30", "--gamma-e-db", "10"],
                              _ASC_HEADER, "btas,quad,-30,10,64,1.7342417988177543e-06,,"),
    "crossover-low": (["crossover", "--gamma-b-db", "-90", "-M", "64"], _CROSSOVER_HEADER,
                      "-90,64,10.989372123333624,-2.386979502944115e-14"),
    "crossover-10db": (["crossover", "--gamma-b-db", "10", "-M", "8"], _CROSSOVER_HEADER,
                       "10,8,-1.2306619993820851,1.1102230246251559e-15"),
    "crossover-10db-m16": (["crossover", "--gamma-b-db", "10", "-M", "16"], _CROSSOVER_HEADER,
                           "10,16,-1.040364526693458,-1.6587842210938223e-12"),
    "crossover-60db-wide": (["crossover", "--gamma-b-db", "60", "-M", "4",
                             "--bracket-db", "-120", "30"], _CROSSOVER_HEADER,
                            "60,4,-45.622732517052228,-4.8405723873668538e-13"),
    "gamma-e-closed-sweep": (["sweep", "--swept", "gamma-e", "--from-db", "-10",
                              "--to-db", "30", "--points", "11", "--gamma-b-db", "10",
                              "-M", "2", "-M", "8", "-M", "16", "--scheme", "btas",
                              "--scheme", "etas"],
                             _SWEEP_HEADER, _GAMMA_E_CLOSED_ROWS),
}


@pytest.mark.parametrize("name", sorted(PINNED_STDOUT))
def test_scalar_stdout_is_pinned(name, capsys):
    args, header, row = PINNED_STDOUT[name]
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (0, "")
    assert out == f"{header}\n{row}\n"


_ALL_SCHEMES = ["--scheme", "otas", "--scheme", "btas", "--scheme", "etas",
                "--scheme", "random"]

# The exact stdout of three small Monte Carlo sweeps. A gamma-e or ratio
# sweep shares gamma_b0, whose fold keeps every bit, and is frozen from
# version 0.9.0. A gamma-b sweep shares gamma_e0 (20,000 trials, one full
# chunk and a partial one) and is frozen from 0.19.0, whose ratios
# gamma_b0 (g_B/E) + 1/E moved one row by 1 ulp (4.2380172182666653 before).
PINNED_SWEEP_STDOUT = {
    "gamma-b-otas": (
        ["sweep", "--swept", "gamma-b", "--from-db", "0", "--to-db", "30",
         "--points", "3", "--gamma-e-db", "10", "-M", "2", "-M", "8",
         "--scheme", "otas", "--trials", "20000", "--seed", "7"],
        """\
0,0,10,2,otas,mc,0.10385457122509521,0.0021494704912247099,20000
0,0,10,8,otas,mc,0.37246273357812854,0.0036451672628005122,20000
15,15,10,2,otas,mc,2.6184961957041728,0.010779680905061336,20000
15,15,10,8,otas,mc,4.2380172182666644,0.0076284059647365177,20000
30,30,10,2,otas,mc,7.4843674922785928,0.011845533731376806,20000
30,30,10,8,otas,mc,9.1888029546805718,0.0077149396985868946,20000
"""),
    "gamma-e-overlay": (
        ["sweep", "--swept", "gamma-e", "--from-db", "-10", "--to-db", "20",
         "--points", "2", "--gamma-b-db", "10", "-M", "4", *_ALL_SCHEMES,
         "--mc-overlay", "--trials", "5000", "--seed", "3"],
        """\
-10,10,-10,4,btas,closed,4.1105682457723018,,
-10,10,-10,4,btas,mc,4.1042337502391124,0.011147568717896308,5000
-10,10,-10,4,etas,closed,2.8713928711252796,,
-10,10,-10,4,etas,mc,2.8413843313934826,0.018368065525997037,5000
-10,10,-10,4,otas,mc,4.1108962825804625,0.011079432416721817,5000
-10,10,-10,4,random,mc,2.7722647459011154,0.018612443288887906,5000
20,10,20,4,btas,closed,0.24007975920323688,,
20,10,20,4,btas,mc,0.23106564090434153,0.0097116640904653957,5000
20,10,20,4,etas,closed,0.37720366205837402,,
20,10,20,4,etas,mc,0.37365345226528446,0.011519868854896463,5000
20,10,20,4,otas,mc,0.39689389807881209,0.011636327907218649,5000
20,10,20,4,random,mc,0.11160112672824229,0.0065114210924963004,5000
"""),
    "ratio-normalized-overlay": (
        ["sweep", "--swept", "ratio", "--from-db", "-10", "--to-db", "20",
         "--points", "2", "--gamma-b-db", "5", "-M", "2", "-M", "16", *_ALL_SCHEMES,
         "--mc-overlay", "--normalize-otas", "--trials", "3000", "--seed", "11"],
        """\
-10,5,-5,2,btas,closed,0.97131779356218306,,
-10,5,-5,2,btas,mc,0.98802169312406063,0.0082233495020798842,3000
-10,5,-5,2,etas,closed,0.77236308735027026,,
-10,5,-5,2,etas,mc,0.78181968561810178,0.008996492106115736,3000
-10,5,-5,2,otas,mc,1,0.0080548891882870465,3000
-10,5,-5,2,random,mc,0.72465267880058681,0.0090504358660056933,3000
-10,5,-5,16,btas,closed,0.97745588651823556,,
-10,5,-5,16,btas,mc,0.97954962725982242,0.0031441981960965396,3000
-10,5,-5,16,etas,closed,0.5308960440650331,,
-10,5,-5,16,etas,mc,0.53120780084679542,0.0056630819737909181,3000
-10,5,-5,16,otas,mc,1,0.0027939194508857569,3000
-10,5,-5,16,random,mc,0.43377103572111358,0.0056313351611880095,3000
20,5,25,2,btas,closed,0.77936047135757502,,
20,5,25,2,btas,mc,0.81906465979213416,0.14463133698048897,3000
20,5,25,2,etas,closed,0.96575950270046484,,
20,5,25,2,etas,mc,1,0.15492165720419912,3000
20,5,25,2,otas,mc,1,0.15492165720419912,3000
20,5,25,2,random,mc,0.50145077180032349,0.10621241842631633,3000
20,5,25,16,btas,closed,0.25295137410208896,,
20,5,25,16,btas,mc,0.26849836400521299,0.033111450603662169,3000
20,5,25,16,etas,closed,0.88422438268757431,,
20,5,25,16,etas,mc,0.95783325826413646,0.056051783937512291,3000
20,5,25,16,otas,mc,1,0.056899986946000111,3000
20,5,25,16,random,mc,0.052925519257014102,0.013270636930135448,3000
"""),
}


@pytest.mark.parametrize("name", sorted(PINNED_SWEEP_STDOUT))
def test_monte_carlo_sweep_stdout_is_pinned(name, capsys):
    args, rows = PINNED_SWEEP_STDOUT[name]
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (0, "")
    assert out == ",".join(SWEEP_CSV_HEADER) + "\n" + rows



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
