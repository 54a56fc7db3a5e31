"""Tests of the benchmark itself: its references are right, and its checks
catch faults injected into the program from outside the package.

    python3 -m pytest bench/test_bench.py

Each fault test runs one warm-up pass and one timed pass of a workload in
this process, with the fault patched in, and asserts that the benchmark
reports failed operations for it.
"""

import math
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import reference
import run
import spans
import worker
import workloads

SEED = 5


@pytest.fixture(scope="module")
def tasec():
    return worker.import_program()


def measure_in_process(name: str, seed: int = SEED):
    spec = workloads.make_spec(name, seed)
    result = worker.run(spec, seconds=0.0, min_passes=1)
    return run.tally(spec, result)


# ----------------------------------------------------------------------------
# References, against definitions that share no code with them
# ----------------------------------------------------------------------------

def _product_form(gamma_b, gamma_e, f_eve, sf_bob):
    """(1/ln 2) int_0^inf F_E(x) [1 - F_B(x)] / (1 + x) dx at 40 digits."""
    with mp.workdps(40):
        scale = max(gamma_b, gamma_e)
        nodes = [0, *(scale * s for s in (0.01, 0.1, 1, 10, 100)), mp.inf]
        return mp.quad(lambda x: f_eve(x) * sf_bob(x) / (1 + x), nodes) / mp.log(2)


@pytest.mark.parametrize("gamma_b,gamma_e,m", [
    (10.0, 10.0, 8), (100.0, 0.1, 4), (0.5, 20.0, 16), (1000.0, 1.0, 32)])
def test_closed_form_references_match_product_integral(gamma_b, gamma_e, m):
    gb, ge = mp.mpf(gamma_b), mp.mpf(gamma_e)
    btas = _product_form(gb, ge, lambda x: -mp.expm1(-x / ge),
                         lambda x: 1 - (-mp.expm1(-x / gb)) ** m)
    etas = _product_form(gb, ge, lambda x: -mp.expm1(-m * x / ge),
                         lambda x: mp.exp(-x / gb))
    assert abs(reference.asc_btas(gamma_b, gamma_e, m) - btas) < 1e-20
    assert abs(reference.asc_etas(gamma_b, gamma_e, m) - etas) < 1e-20


@pytest.mark.parametrize("gamma_b,gamma_e", [(10.0, 10.0), (1e4, 1e-3), (1e-3, 1e4)])
def test_otas_reference_reduces_to_single_antenna(gamma_b, gamma_e):
    # With one antenna every criterion picks it, so the single-ratio integral
    # must equal the single-antenna closed form.
    otas = reference.asc_otas(gamma_b, gamma_e, 1)
    single = reference.asc_random(gamma_b, gamma_e)
    assert abs(otas - single) <= 1e-15 * single


def test_otas_reference_matches_plain_monte_carlo():
    rng = np.random.default_rng(2024)
    gamma_b, gamma_e, m, n = 10.0, 3.0, 4, 400_000
    bob = rng.exponential(size=(n, m))
    eve = rng.exponential(size=(n, m))
    cs = np.log2(np.max((1 + gamma_b * bob) / (1 + gamma_e * eve), axis=1).clip(1.0))
    sigma = cs.std(ddof=1) / math.sqrt(n)
    assert abs(cs.mean() - float(reference.asc_otas(gamma_b, gamma_e, m))) < 5 * sigma


def test_crossover_reference_rejects_a_shifted_root():
    gamma_b_db, m = 10.0, 8
    root = mp.findroot(lambda x: reference.crossover_gap(gamma_b_db, x, m), 0.0)
    assert reference.crossover_brackets_root(gamma_b_db, root, m)
    assert not reference.crossover_brackets_root(gamma_b_db, root + 0.01, m)


# ----------------------------------------------------------------------------
# The checks on the unmodified program, and with faults injected
# ----------------------------------------------------------------------------

CLOSED_GRID_KNOWN_FAILURES = 71  # B-TAS closed form, M = 32 (9) and 64 (62)


def test_closed_grid_fails_only_the_known_fault(tasec):
    attempted, failed, correct = measure_in_process("closed_quad_grid")
    assert correct
    assert failed == CLOSED_GRID_KNOWN_FAILURES
    assert attempted == len(workloads.make_spec("closed_quad_grid", SEED)["ops"])


def test_flipped_btas_sign_fails_closed_grid(tasec, monkeypatch):
    if not hasattr(tasec.secrecy, "_BTAS_TERM_SIGN"):
        pytest.skip("the program no longer has the sign constant")
    monkeypatch.setattr(tasec.secrecy, "_BTAS_TERM_SIGN", -1.0)
    _, failed, correct = measure_in_process("closed_quad_grid")
    assert not correct
    assert failed > CLOSED_GRID_KNOWN_FAILURES + 500


def test_perturbed_exponential_integral_fails_closed_grid(tasec, monkeypatch):
    delta_e = tasec.secrecy.delta_e
    monkeypatch.setattr(tasec.secrecy, "delta_e",
                        lambda a, b: delta_e(a, b) * (1 + 1e-5))
    _, failed, correct = measure_in_process("closed_quad_grid")
    assert not correct
    assert failed > CLOSED_GRID_KNOWN_FAILURES


def test_perturbed_quadrature_fails_closed_grid(tasec, monkeypatch):
    integrate = tasec.secrecy.integrate_half_line
    monkeypatch.setattr(tasec.secrecy, "integrate_half_line",
                        lambda f, **kw: integrate(f, **kw) + 1e-5)
    _, failed, correct = measure_in_process("closed_quad_grid")
    assert not correct
    assert failed > CLOSED_GRID_KNOWN_FAILURES


def test_fig_sweep_passes_unmodified(tasec):
    attempted, failed, correct = measure_in_process("fig_sweep_mc")
    assert (correct, failed) == (True, 0)
    assert attempted == workloads.FIG_POINTS * len(workloads.FIG_ANTENNAS) * 3


def test_biased_gains_fail_fig_sweep(tasec, monkeypatch):
    draw = tasec.secrecy.draw_gain_blocks

    def biased(scenario, rng, count):
        bob, eve = draw(scenario, rng, count)
        return 1.05 * bob, eve

    monkeypatch.setattr(tasec.secrecy, "draw_gain_blocks", biased)
    _, failed, correct = measure_in_process("fig_sweep_mc")
    assert not correct
    assert failed >= workloads.FIG_POINTS  # most O-TAS rows


def test_norm_sweep_passes_unmodified(tasec):
    attempted, failed, correct = measure_in_process("norm_sweep_overlay")
    assert (correct, failed) == (True, 0)
    assert attempted == workloads.NORM_POINTS * len(workloads.NORM_ANTENNAS) * 6


def test_wrong_random_selection_fails_norm_sweep(tasec, monkeypatch):
    select = tasec.secrecy.select_indices

    def never_antenna_zero(scheme, scenario, bob, eve, rng=None):
        idx = select(scheme, scenario, bob, eve, rng=rng)
        if scheme is tasec.TasScheme.RANDOM:
            idx = np.where(idx == 0, np.argmax(bob, axis=1), idx)
        return idx

    monkeypatch.setattr(tasec.secrecy, "select_indices", never_antenna_zero)
    _, failed, correct = measure_in_process("norm_sweep_overlay")
    assert not correct
    assert failed > 0


def test_thread_dependent_output_breaks_identity(tasec, monkeypatch):
    mc_asc = tasec.experiments.mc_asc

    def skewed(scenario, scheme, trials, rng, threads=1):
        est = mc_asc(scenario, scheme, trials, rng, threads=threads)
        if threads == 1:
            return est
        return type(est)(value=est.value * (1 + 1e-15), method=est.method,
                         trials=est.trials, std_error=est.std_error)

    monkeypatch.setattr(tasec.experiments, "mc_asc", skewed)
    _, failed, correct = measure_in_process("norm_sweep_overlay")
    assert failed == 0  # every value is still right ...
    assert not correct  # ... but the CSV depends on the thread count


# ----------------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------------

def test_calibration_pieces_run_inside_passes_and_are_undone(tasec, monkeypatch):
    import calibrate
    pieces = []
    monkeypatch.setattr(calibrate, "piece", lambda kind, threads: pieces.append(kind))
    original = tasec.experiments.mc_asc
    mc_calls = []
    monkeypatch.setattr(tasec.experiments, "mc_asc",
                        lambda *a, **k: mc_calls.append(1) or original(*a, **k))
    wrapped = tasec.experiments.mc_asc

    spec = workloads.make_spec("fig_sweep_mc", SEED)
    result = worker.run(spec, seconds=0.0, min_passes=1)
    # One piece to warm up, one at the start of the pass, one per MC call.
    assert pieces == ["array"] * (2 + len(mc_calls) // 2)
    assert tasec.experiments.mc_asc is wrapped
    assert result["passes"][0]["cal_cpu_s"] >= 0.0

    pieces.clear()
    spec = workloads.make_spec("closed_quad_grid", SEED)
    worker.run(spec, seconds=0.0, min_passes=1)
    assert pieces == ["scalar"] * (1 + math.ceil(len(spec["ops"]) / worker.SLICE_OPS))

    pieces.clear()
    worker.run(spec, seconds=0.0, tracer=spans.Tracer(), min_passes=1)
    assert pieces == []


def test_speed_factor_scales_time_metrics():
    spec = workloads.make_spec("closed_quad_grid", SEED)
    nominal = run.calibrate.NOMINAL_CPU_S[tuple(spec["calibration"])]
    passes = [{"wall_s": 2.0, "cpu_s": 1.5, "cal_cpu_s": nominal}]
    at_nominal = run.end_to_end(spec, passes, 0.3, 40.0)
    assert at_nominal["run_s"]["value"] == pytest.approx(2.0)
    assert at_nominal["cpu_s"]["value"] == pytest.approx(1.5)
    passes[0]["cal_cpu_s"] = 2 * nominal  # a machine at half speed
    slow = run.end_to_end(spec, passes, 0.3, 40.0)
    assert slow["run_s"]["value"] == pytest.approx(1.0)
    assert slow["setup_s"]["value"] == 0.3


# ----------------------------------------------------------------------------
# The command
# ----------------------------------------------------------------------------

def test_seed_fixes_inputs_and_failed_share():
    for name in workloads.WORKLOADS:
        assert workloads.make_spec(name, 3) == workloads.make_spec(name, 3)
        assert workloads.make_spec(name, 3) != workloads.make_spec(name, 4)
    sizes = {len(workloads.make_spec("closed_quad_grid", s)["ops"]) for s in range(20)}
    assert len(sizes) == 1


def test_command_fails_without_the_program(tmp_path):
    root = Path(__file__).resolve().parent.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig_sweep_mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_names_what_run_reports():
    declared = run.DECLARED
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in declared["end_to_end"]} == {
        "setup_s", "run_s", "cpu_s", "peak_rss_mb"}
    empty = [defaultdict(int) for _ in range(4)]
    reported = set(spans._layer_metrics(*empty)) | {"trace.pass_s"}
    assert {m["name"] for m in declared["per_layer"]} == reported

