import math
from itertools import product

import numpy as np
import pytest

from tasec.channel import RngStream, Scenario
from tasec.errors import ConvergenceError, UnsupportedSchemeError
from tasec.secrecy import (MC_CHUNK_SIZE, AscEstimate, Method, _chunk_layout,
                           asc_btas_closed, asc_etas_closed, asc_otas_mc,
                           asc_quadrature, mc_asc, secrecy_capacity)
from tasec.selection import TasScheme

from faults import negate_btas_terms
from oracles import asc_integral_oracle

# Single-antenna ASC at unit SNRs, frozen by high-precision evaluation of
# delta_e(1, 2)/ln 2 and cross-checked against the quadrature oracle below.
SINGLE_ANTENNA_UNIT_ASC = 0.33906037855497906
BTAS_M2_UNIT_ASC = 0.5349406657580305
ETAS_M2_UNIT_ASC = 0.4822404699069068

DB_GRID = (-10.0, 0.0, 10.0, 20.0, 30.0)


def scenario_db(gb_db, ge_db, m):
    return Scenario(10.0 ** (gb_db / 10.0), 10.0 ** (ge_db / 10.0), m)


# ----------------------------------------------------------------------------
# Instantaneous secrecy capacity and the estimate container
# ----------------------------------------------------------------------------

def test_secrecy_capacity_values():
    assert secrecy_capacity(5.0, 5.0) == 0.0
    assert secrecy_capacity(3.0, 1.0) == 1.0
    assert secrecy_capacity(1.0, 3.0) == 0.0
    assert secrecy_capacity(0.0, 0.0) == 0.0
    values = secrecy_capacity(np.array([5.0, 3.0, 1.0, 0.0]),
                              np.array([5.0, 1.0, 3.0, 0.0]))
    assert values.tolist() == [0.0, 1.0, 0.0, 0.0]


def test_asc_estimate_invariants():
    with pytest.raises(ValueError):
        AscEstimate(-0.1, Method.CLOSED)
    with pytest.raises(ValueError):
        AscEstimate(1.0, Method.MC)  # missing trials/std_error
    with pytest.raises(ValueError):
        AscEstimate(1.0, Method.MC, trials=10, std_error=-1.0)
    with pytest.raises(ValueError):
        AscEstimate(1.0, Method.CLOSED, trials=10)
    est = AscEstimate(1.0, Method.MC, trials=10, std_error=0.1)
    assert est.method is Method.MC


# ----------------------------------------------------------------------------
# Closed forms
# ----------------------------------------------------------------------------

def test_closed_form_reference_values():
    assert asc_btas_closed(Scenario(1.0, 1.0, 1)).value == pytest.approx(
        SINGLE_ANTENNA_UNIT_ASC, rel=1e-12)
    assert asc_btas_closed(Scenario(1.0, 1.0, 2)).value == pytest.approx(
        BTAS_M2_UNIT_ASC, rel=1e-12)
    assert asc_etas_closed(Scenario(1.0, 1.0, 2)).value == pytest.approx(
        ETAS_M2_UNIT_ASC, rel=1e-12)


def test_closed_forms_coincide_at_single_antenna():
    for gb_db, ge_db in product(DB_GRID, DB_GRID):
        scenario = scenario_db(gb_db, ge_db, 1)
        assert abs(asc_btas_closed(scenario).value
                   - asc_etas_closed(scenario).value) <= 1e-14


def test_etas_factor_m_identity():
    for gb_db, ge_db, m in product(DB_GRID, DB_GRID, (1, 2, 4, 8)):
        scenario = scenario_db(gb_db, ge_db, m)
        folded = Scenario(scenario.gamma_b0, scenario.gamma_e0 / m, 1)
        assert abs(asc_etas_closed(scenario).value
                   - asc_etas_closed(folded).value) <= 1e-14


def test_etas_factor_m_against_unit_reference():
    # M=8 with an 8x stronger eavesdropper folds back onto the unit case
    assert asc_etas_closed(Scenario(1.0, 8.0, 8)).value == pytest.approx(
        SINGLE_ANTENNA_UNIT_ASC, rel=1e-12)


def test_closed_form_monotonicity_on_grid():
    for closed in (asc_btas_closed, asc_etas_closed):
        for m in (1, 2, 4, 8):
            for ge_db in DB_GRID:
                values = [closed(scenario_db(g, ge_db, m)).value for g in DB_GRID]
                assert all(b >= a for a, b in zip(values, values[1:]))
            for gb_db in DB_GRID:
                values = [closed(scenario_db(gb_db, g, m)).value for g in DB_GRID]
                assert all(b <= a for a, b in zip(values, values[1:]))
        for gb_db, ge_db in product(DB_GRID, DB_GRID):
            values = [closed(scenario_db(gb_db, ge_db, m)).value for m in (1, 2, 4, 8)]
            assert all(b >= a for a, b in zip(values, values[1:]))


# 60-digit evaluations of the alternating sum, (gamma_b0 dB, gamma_e0 dB, M).
BTAS_REFERENCES = {
    (10.0, 10.0, 16): 2.154398757509912,
    (10.0, 10.0, 32): 2.420817990796904,
    (10.0, 10.0, 48): 2.559109014272814,
    (10.0, 10.0, 64): 2.650378126830997,
    (30.0, 0.0, 64): 11.303792444111357,
    (20.0, 10.0, 100): 6.074964740104236,
}


def test_btas_large_antenna_counts():
    # past its error bound the sum hands over to quadrature instead of
    # cancelling to noise, and no antenna count is refused
    for (gb_db, ge_db, m), expected in BTAS_REFERENCES.items():
        assert asc_btas_closed(scenario_db(gb_db, ge_db, m)).value == pytest.approx(
            expected, abs=1e-9)
    assert asc_btas_closed(scenario_db(10.0, 10.0, 8)).method is Method.CLOSED
    assert asc_btas_closed(scenario_db(10.0, 10.0, 64)).method is Method.QUAD
    # C(1100, 550) overflows a double, so the bound cannot be formed
    wide = asc_btas_closed(scenario_db(10.0, 10.0, 1100))
    assert wide.method is Method.QUAD
    assert wide.value > BTAS_REFERENCES[(10.0, 10.0, 64)]


def test_closed_forms_match_independent_oracle():
    for gb_db, ge_db, m in product((-10.0, 0.0, 20.0), (-10.0, 0.0, 20.0), (1, 4)):
        scenario = scenario_db(gb_db, ge_db, m)
        gb, ge = scenario.gamma_b0, scenario.gamma_e0
        btas_oracle = asc_integral_oracle(
            lambda x: -math.expm1(-x / ge),
            lambda x: 1.0 - (-math.expm1(-x / gb)) ** m)
        etas_oracle = asc_integral_oracle(
            lambda x: -math.expm1(-(m / ge) * x),
            lambda x: math.exp(-x / gb))
        assert asc_btas_closed(scenario).value == pytest.approx(btas_oracle, abs=1e-9)
        assert asc_etas_closed(scenario).value == pytest.approx(etas_oracle, abs=1e-9)


# ----------------------------------------------------------------------------
# Quadrature route
# ----------------------------------------------------------------------------

def test_quadrature_random_unit_reference():
    est = asc_quadrature(Scenario(1.0, 1.0, 3), TasScheme.RANDOM)
    assert est.method is Method.QUAD and est.trials is None
    assert est.value == pytest.approx(SINGLE_ANTENNA_UNIT_ASC, abs=1e-9)


def test_quadrature_matches_closed_forms():
    scenario = Scenario(1.0, 1.0, 2)
    assert asc_quadrature(scenario, TasScheme.ETAS).value == pytest.approx(
        asc_etas_closed(scenario).value, abs=1e-8)
    assert asc_quadrature(scenario, TasScheme.BTAS).value == pytest.approx(
        asc_btas_closed(scenario).value, abs=1e-8)


def test_quadrature_rejects_otas():
    with pytest.raises(UnsupportedSchemeError):
        asc_quadrature(Scenario(1.0, 1.0, 2), TasScheme.OTAS)


def test_quadrature_dominant_eavesdropper_vanishes():
    est = asc_quadrature(Scenario(1.0, 1e9, 2), TasScheme.BTAS)
    assert est.value < 1e-6


def test_quadrature_random_independent_of_antennas():
    values = [asc_quadrature(Scenario(10.0, 2.0, m), TasScheme.RANDOM).value
              for m in (1, 2, 8)]
    assert abs(values[0] - values[1]) <= 1e-12
    assert abs(values[0] - values[2]) <= 1e-12


# 60-digit mpmath evaluations of the closed forms at these points.
@pytest.mark.parametrize("scheme, gamma_b0, gamma_e0, m, reference", [
    # F_E of E-TAS rises within x ~ gamma_e0/M (3e-5 down to 1.6e-6), far
    # inside the first seed panel; only a seed edge at that scale lets GK15
    # sample the rise
    (TasScheme.ETAS, 10.0, 1e-3, 32, 2.90646972574445),
    (TasScheme.ETAS, 10.0, 1e-3, 64, 2.9064922666922213),
    (TasScheme.ETAS, 10.0, 1e-4, 8, 2.906496774974751),
    (TasScheme.ETAS, 10.0, 1e-4, 64, 2.906512554207678),
    # the tail reaches out to x ~ gamma_b0, beyond 1e10
    (TasScheme.BTAS, 1e8, 1.0, 8, 27.016568495688226),
    (TasScheme.BTAS, 1e10, 1.0, 8, 33.6604246790452),
    (TasScheme.BTAS, 1e20, 1.0, 8, 66.879705627854),
    (TasScheme.RANDOM, 1e20, 1.0, 8, 64.74546833819949),
], ids=["etas-M32", "etas-M64", "etas-40dB-M8", "etas-40dB-M64", "btas-80dB",
        "btas-100dB", "btas-200dB", "random-200dB"])
def test_quadrature_at_the_scale_extremes(scheme, gamma_b0, gamma_e0, m, reference):
    value = asc_quadrature(Scenario(gamma_b0, gamma_e0, m), scheme).value
    assert value == pytest.approx(reference, abs=1e-9)


def test_quadrature_out_of_reach_is_an_error():
    # a tail over 300 decades needs more panels than the cap allows
    with pytest.raises(ConvergenceError, match="tolerance"):
        asc_quadrature(Scenario(1e300, 1.0, 8), TasScheme.BTAS)


# ----------------------------------------------------------------------------
# Monte Carlo route
# ----------------------------------------------------------------------------

def test_mc_trials_validation():
    with pytest.raises(ValueError):
        mc_asc(Scenario(1.0, 1.0, 2), TasScheme.BTAS, 1, RngStream(1))


def test_mc_random_gains_nothing_from_antennas():
    one = mc_asc(Scenario(10.0, 1.0, 1), TasScheme.RANDOM, 1_000_000, RngStream(3, 0))
    many = mc_asc(Scenario(10.0, 1.0, 8), TasScheme.RANDOM, 1_000_000, RngStream(3, 1))
    combined = math.hypot(one.std_error, many.std_error)
    assert abs(one.value - many.value) <= 4.0 * combined


def test_mc_matches_etas_closed_form():
    scenario = Scenario(10.0, 10.0, 2)
    est = mc_asc(scenario, TasScheme.ETAS, 1_000_000, RngStream(42, 5))
    assert est.trials == 1_000_000 and est.std_error > 0.0
    assert abs(est.value - asc_etas_closed(scenario).value) <= 4.0 * est.std_error


def test_mc_no_legitimate_snr_no_secrecy():
    est = mc_asc(Scenario(1e-9, 1.0, 2), TasScheme.OTAS, 10_000, RngStream(9))
    assert est.value < 1e-8


def test_mc_thread_count_does_not_change_result():
    scenario = Scenario(10.0, 3.0, 4)
    serial = mc_asc(scenario, TasScheme.OTAS, 200_000, RngStream(7, 2), threads=1)
    parallel = mc_asc(scenario, TasScheme.OTAS, 200_000, RngStream(7, 2), threads=8)
    assert serial.value == parallel.value
    assert serial.std_error == parallel.std_error


@pytest.mark.parametrize("trials", [2, MC_CHUNK_SIZE, MC_CHUNK_SIZE + 1,
                                    3 * MC_CHUNK_SIZE + 17])
def test_chunk_layout_only_last_chunk_partial(trials):
    layout = _chunk_layout(trials)
    assert sum(size for _, size in layout) == trials
    assert [index for index, _ in layout] == list(range(len(layout)))
    assert all(size == MC_CHUNK_SIZE for _, size in layout[:-1])
    assert 1 <= layout[-1][1] <= MC_CHUNK_SIZE


@pytest.mark.parametrize("scheme", [TasScheme.OTAS, TasScheme.RANDOM])
def test_mc_thread_count_does_not_change_uneven_layout(scheme):
    # four chunks, the last one partial: three workers get unequal shares
    scenario = Scenario(10.0, 3.0, 4)
    trials = 3 * MC_CHUNK_SIZE + 17
    runs = [mc_asc(scenario, scheme, trials, RngStream(7, 3), threads=threads)
            for threads in (1, 2, 3)]
    assert all(r.value == runs[0].value for r in runs)
    assert all(r.std_error == runs[0].std_error for r in runs)


def test_mc_deterministic_for_fixed_stream():
    scenario = Scenario(10.0, 3.0, 4)
    a = mc_asc(scenario, TasScheme.RANDOM, 70_000, RngStream(21, 0))
    b = mc_asc(scenario, TasScheme.RANDOM, 70_000, RngStream(21, 0))
    assert a.value == b.value and a.std_error == b.std_error


def test_otas_mc_single_antenna_matches_closed():
    scenario = Scenario(10.0, 10.0, 1)
    est = asc_otas_mc(scenario, 1_000_000, RngStream(42, 11))
    assert abs(est.value - asc_btas_closed(scenario).value) <= 4.0 * est.std_error


def test_otas_mc_dominates_closed_forms():
    scenario = Scenario(10.0, 10.0, 8)
    est = asc_otas_mc(scenario, 1_000_000, RngStream(42, 12))
    btas = asc_btas_closed(scenario).value
    etas = asc_etas_closed(scenario).value
    assert est.value >= max(btas, etas) - 4.0 * est.std_error
    # at this operating point the optimum is visibly above both
    assert est.value - max(btas, etas) > 4.0 * est.std_error


def test_btas_sign_fault_hook_breaks_agreement(monkeypatch):
    from tasec.verification import check_closed_vs_quadrature

    scenario = Scenario(1.0, 1.0, 2)
    healthy = asc_btas_closed(scenario).value
    negate_btas_terms(monkeypatch)
    assert asc_btas_closed(scenario).value != healthy
    assert not check_closed_vs_quadrature().passed
    monkeypatch.undo()
    assert asc_btas_closed(scenario).value == healthy
