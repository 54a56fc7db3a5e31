import copy
import math
import pickle
import random
import re
import sys
import threading
import time
from dataclasses import FrozenInstanceError, astuple, replace
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tasec
from tasec.channel import RngStream, Scenario, draw_gain_blocks
from tasec.errors import UnsupportedSchemeError
from tasec import secrecy
from tasec.secrecy import (MC_CHUNK_SIZE, AscEstimate, Method, _chunk_layout,
                           _chunk_moments, _fold_link, _ratio_capacities, _snr_ratios,
                           asc, asc_btas_closed, asc_etas_closed, asc_quadrature, mc_asc,
                           mc_asc_curve)
from tasec.quadrature import integrate_half_line
from tasec.selection import TasScheme, asc_integrand, select_indices

from faults import drop_last_antenna, negate_btas_terms, scale_bob_gains, scale_otas_ratios
from oracles import (asc_integral_oracle, btas_closed_sum_rule, folded_snr_ratios,
                     secrecy_capacity, snr_ratios)

# Single-antenna ASC at unit SNRs, frozen by high-precision evaluation of
# delta_e(1, 2)/ln 2 and cross-checked against the quadrature oracle below.
SINGLE_ANTENNA_UNIT_ASC = 0.33906037855497906
BTAS_M2_UNIT_ASC = 0.5349406657580305
ETAS_M2_UNIT_ASC = 0.4822404699069068

DB_GRID = (-10.0, 0.0, 10.0, 20.0, 30.0)


def scenario_db(gb_db, ge_db, m):
    return Scenario(10.0 ** (gb_db / 10.0), 10.0 ** (ge_db / 10.0), m)


def chunk_scratch(scenarios, schemes, size):
    """A new flat scratch of the elements `_drawn_chunk` yields behind the
    gain blocks of a chunk of `size` rows of `schemes` at `scenarios`, as
    `_chunk_buffer` sizes it."""
    elements, _ = secrecy._chunk_buffer(tuple(scenarios), schemes, size)
    return np.empty(elements - 2 * size * scenarios[0].num_antennas)


# ----------------------------------------------------------------------------
# Instantaneous secrecy capacity and the estimate container
# ----------------------------------------------------------------------------

def test_secrecy_capacity_values():
    # The one capacity formula on 1-D gains at unit SNRs, where the gains
    # are the instantaneous SNRs: log2 of the ratio, clamped at 0, a row
    # per scenario
    bob, eve = np.array([5.0, 3.0, 1.0, 0.0]), np.array([5.0, 1.0, 3.0, 0.0])
    out = np.empty((1, 4))
    scenario = Scenario(1.0, 1.0, 1)
    values = _ratio_capacities((scenario,), bob, eve, out,
                               chunk_scratch((scenario,), (TasScheme.BTAS,), 4))
    assert values is out and values.tolist() == [[0.0, 1.0, 0.0, 0.0]]
    assert bob.tolist() == [5.0, 3.0, 1.0, 0.0] and eve.tolist() == [5.0, 1.0, 3.0, 0.0]


def test_snr_ratios_in_place():
    scenario = Scenario(2.0, 4.0, 2)
    bob, eve = np.array([[1.0, 0.5]]), np.array([[0.25, 2.0]])
    out = (np.empty((1, 2)), np.empty((1, 2)))
    assert _snr_ratios(scenario, bob, eve, out=out) is out[0]
    assert bob.tolist() == [[1.0, 0.5]] and eve.tolist() == [[0.25, 2.0]]
    # (1 + 2 g_B) / (1 + 4 g_E)
    assert out[0].tolist() == [[1.5, 2.0 / 9.0]]


def test_snr_ratios_with_a_folded_side():
    # gains folded by `_fold_link` are read as they are, and the ratio lands
    # in the one array given: bit for bit as without the fold for "bob", and
    # gamma_b0 (g_B/E) + 1/E for "eve", a few ulp from the quotient
    scenario = Scenario(3.0, 7.0, 4)
    bob, eve = draw_gain_blocks(scenario, RngStream(29, 0), 64)
    unfolded = _snr_ratios(scenario, bob, eve, out=(np.empty_like(bob), np.empty_like(eve)))
    assert unfolded.tobytes() == snr_ratios(scenario, bob, eve).tobytes()
    for folded, gamma0, expected in (("bob", 3.0, unfolded),
                                     ("eve", 7.0, folded_snr_ratios(scenario, bob, eve))):
        gains = (bob.copy(), eve.copy())
        assert _fold_link(folded, gamma0, *gains) is None
        kept = [g.copy() for g in gains]
        out = np.empty_like(bob)
        assert _snr_ratios(scenario, *gains, out=(out,), folded=folded) is out
        assert out.tobytes() == expected.tobytes()
        assert all(np.array_equal(g, k) for g, k in zip(gains, kept))
        assert np.all(np.abs(out - unfolded) <= 3 * np.spacing(unfolded))
    assert not np.array_equal(expected, unfolded)


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


def test_asc_estimate_keeps_its_dataclass_contract():
    # The same ValueError as before for NaN, +-inf and negative values, and
    # for MC estimates without trials or std_error
    for bad in (float("nan"), float("inf"), -float("inf"), -0.1):
        for method in Method:
            with pytest.raises(ValueError, match=f"^ASC must be finite and >= 0, got {bad!r}$"):
                AscEstimate(bad, method, *((10, 0.1) if method is Method.MC else ()))
    with pytest.raises(ValueError, match="^MC estimates need trials >= 1$"):
        AscEstimate(1.0, Method.MC, std_error=0.1)
    with pytest.raises(ValueError, match="^MC estimates need std_error >= 0$"):
        AscEstimate(1.0, Method.MC, trials=10)
    closed = AscEstimate(1.0, Method.CLOSED)
    mc = AscEstimate(1.0, Method.MC, trials=10, std_error=0.1)
    # dataclasses.replace runs every check
    for estimate, change, text in ((closed, {"value": -1.0}, "ASC must be finite"),
                                   (closed, {"trials": 10}, "closed estimates carry no"),
                                   (mc, {"std_error": None}, "MC estimates need std_error"),
                                   (mc, {"method": Method.QUAD}, "quad estimates carry no")):
        with pytest.raises(ValueError, match=text):
            replace(estimate, **change)
    assert replace(mc, value=2.0) == AscEstimate(2.0, Method.MC, trials=10, std_error=0.1)
    # frozen: no field can be set or deleted
    for name in ("value", "method", "trials", "std_error"):
        with pytest.raises(FrozenInstanceError):
            setattr(closed, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(mc, name)
    assert repr(closed) == ("AscEstimate(value=1.0, method=<Method.CLOSED: 'closed'>, "
                            "trials=None, std_error=None)")
    # copies and pickles are equal values
    for twin in (copy.copy(mc), copy.deepcopy(mc), pickle.loads(pickle.dumps(mc))):
        assert twin == mc and hash(twin) == hash(mc) and repr(twin) == repr(mc)


def test_route_estimates_equal_checked_ones():
    # Each route's estimate equals one built from the same fields, with one
    # hash and one repr
    point = Scenario(10.0, 3.0, 8)
    for estimate in (asc_btas_closed(point), asc_etas_closed(point),
                     asc_quadrature(point, TasScheme.RANDOM),
                     mc_asc(point, TasScheme.OTAS, 1000, RngStream(5))):
        checked = AscEstimate(estimate.value, estimate.method, estimate.trials,
                              estimate.std_error)
        assert estimate == checked and hash(estimate) == hash(checked)
        assert repr(estimate) == repr(checked) and astuple(estimate) == astuple(checked)
        assert type(estimate.value) is float


def _estimate_before_its_fast_path(value, method, trials, std_error):
    """AscEstimate's checks as they were before its fast path."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"ASC must be finite and >= 0, got {value!r}")
    if method is Method.MC:
        if trials is None or trials < 1:
            raise ValueError("MC estimates need trials >= 1")
        if std_error is None or not (std_error >= 0.0):
            raise ValueError("MC estimates need std_error >= 0")
    elif trials is not None or std_error is not None:
        raise ValueError(f"{method.value} estimates carry no trials/std_error")


@pytest.mark.parametrize("method", [Method.CLOSED, Method.QUAD, Method.MC], ids=repr)
def test_asc_estimate_fast_path_accepts_and_rejects_as_before(method):
    values = [0.0, -0.0, 1.5, 5e-324, -5e-324, -0.1, float("nan"), float("inf"),
              -float("inf"), 3, 10**400, True, np.float64(1.5), np.float64("nan"), None]
    for value, trials, std_error in product(values, (None, 0, 10),
                                            (None, -1.0, 0.0, 0.1, float("nan"))):
        args = value, method, trials, std_error
        try:
            _estimate_before_its_fast_path(*args)
        except (ValueError, OverflowError, TypeError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                AscEstimate(*args)
        else:
            assert AscEstimate(*args).value is value


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


# A seeded grid of (gamma_b0 dB, gamma_e0 dB) over -30..40 dB, its corners
# included. At M = 32 and 64 the B-TAS sum hands over to quadrature at some
# of its points.
BIT_GRID = [(-30.0, -30.0), (-30.0, 40.0), (40.0, -30.0), (40.0, 40.0)] + [
    (round(rng.uniform(-30.0, 40.0), 3), round(rng.uniform(-30.0, 40.0), 3))
    for rng in [random.Random(2029)] for _ in range(16)]


def _checked_closed(scenario, scheme):
    """A closed form's value, each term from the public checked
    tasec.delta_e and the B-TAS terms summed by math.fsum."""
    gb, ge, m = scenario.gamma_b0, scenario.gamma_e0, scenario.num_antennas
    inv_gb, inv_ge = 1.0 / gb, 1.0 / ge
    if scheme is TasScheme.ETAS:
        return max(0.0, tasec.delta_e(inv_gb, m / ge + inv_gb) / math.log(2.0))
    terms = ((math.comb(m, k) if k % 2 else -math.comb(m, k))
             * tasec.delta_e(k * inv_gb, inv_ge + k * inv_gb) for k in range(1, m + 1))
    return max(0.0, math.fsum(terms) / math.log(2.0))


def _checked_quadrature(scenario, scheme):
    """integrate_half_line on the integrand asc_integrand returns."""
    integrand, sign, scale = asc_integrand(scheme, scenario)
    return max(0.0, sign * integrate_half_line(integrand, scale=scale) / math.log(2.0))


@pytest.mark.parametrize("m", [1, 2, 8, 16, 32, 64])
def test_scalar_routes_skip_checks_not_arithmetic(m):
    # Every value of the closed forms and of quadrature has the bits of its
    # reference, the B-TAS sum's where it is kept and quadrature's where it
    # hands over
    handed_over = 0
    for gb_db, ge_db in BIT_GRID:
        scenario = scenario_db(gb_db, ge_db, m)
        for scheme in (TasScheme.BTAS, TasScheme.ETAS, TasScheme.RANDOM):
            assert asc_quadrature(scenario, scheme).value.hex() == \
                _checked_quadrature(scenario, scheme).hex(), (gb_db, ge_db, scheme)
        assert asc_etas_closed(scenario).value.hex() == \
            _checked_closed(scenario, TasScheme.ETAS).hex(), (gb_db, ge_db)
        btas = asc_btas_closed(scenario)
        handed_over += btas.method is Method.QUAD
        reference = (_checked_quadrature if btas.method is Method.QUAD else _checked_closed)
        assert btas.value.hex() == reference(scenario, TasScheme.BTAS).hex(), (gb_db, ge_db)
    assert handed_over > 0 or m < 32


def test_btas_terms_past_the_largest_double_read_zero():
    # At gamma_b0 = 3.893879252387603e-308 (about -3,074 dB), M = 7, the
    # Scenario rule 7/gamma_b0 + 1/gamma_e0 rounds to a double, but
    # 7 (1/gamma_b0) rounds past the largest one. Such a term's E1 values
    # are 0, and so is the closed form, within its stated error; the checked
    # tasec.delta_e rejects the argument.
    scenario = Scenario(3.893879252387603e-308, 1e300, 7)
    assert math.isinf(7 * (1.0 / scenario.gamma_b0))
    assert asc_btas_closed(scenario) == AscEstimate(0.0, Method.CLOSED)
    with pytest.raises(ValueError, match="a must be finite and > 0, got inf"):
        tasec.delta_e(7 * (1.0 / scenario.gamma_b0), 1.0)


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
    # past M = 1,029 it hands over before forming any C(M, k), so a huge
    # M answers as fast as quadrature does
    assert secrecy._BTAS_SUM_MAX_M == 1029
    huge = scenario_db(10.0, 10.0, 100_000)
    start = time.perf_counter()
    est = asc_btas_closed(huge)
    assert time.perf_counter() - start < 1.0
    assert est == asc_quadrature(huge, TasScheme.BTAS)
    assert est.method is Method.QUAD


# dB values of both reference SNRs, from the bottom to the top of the range
# the hand-over tests cover
HAND_OVER_DB = (-300.0, -200.0, -100.0, -60.0, -30.0, -10.0, 0.0, 10.0, 30.0,
                60.0, 100.0, 200.0, 300.0)


def assert_sum_rule_decision(gb_db, ge_db, m):
    """asc_btas_closed's O(1) hand-over picks the method and the value that
    summing S picked, to the bit."""
    scenario = scenario_db(gb_db, ge_db, m)
    new, old = asc_btas_closed(scenario), btas_closed_sum_rule(scenario)
    assert (new.method, repr(new.value)) == (old.method, repr(old.value)), (gb_db, ge_db, m)
    return new.method


@pytest.mark.parametrize("antennas", [range(1, 65), (100, 500)], ids=["1-64", "100-500"])
def test_btas_hand_over_decides_as_the_sum_rule(antennas):
    methods = {assert_sum_rule_decision(gb_db, ge_db, m)
               for gb_db, ge_db, m in product(HAND_OVER_DB, HAND_OVER_DB, antennas)}
    assert methods == {Method.CLOSED, Method.QUAD}


def test_btas_hand_over_where_2_to_the_m_overflows():
    # M = 1,024 to 1,029 (_BTAS_SUM_MAX_M): 2^M is past the largest double,
    # yet every C(M, k) fits one, so the old rule formed them all
    for gb_db, ge_db, m in product((-300.0, 0.0, 300.0), (-300.0, 0.0, 300.0),
                                   range(1024, secrecy._BTAS_SUM_MAX_M + 1)):
        assert assert_sum_rule_decision(gb_db, ge_db, m) is Method.QUAD


@settings(max_examples=300, deadline=None)
@given(gb_db=st.floats(-300.0, 300.0), ge_db=st.floats(-300.0, 300.0),
       m=st.integers(1, 64))
def test_btas_hand_over_decides_as_the_sum_rule_at_random(gb_db, ge_db, m):
    assert_sum_rule_decision(gb_db, ge_db, m)


def test_btas_hand_over_scan_across_the_limit(monkeypatch):
    # gamma_e0 = 10 dB and gamma_b0 in 0.25 dB steps: each M crosses from
    # the sum to quadrature, and near the limit S itself is summed
    brackets = []
    bracket = secrecy._bracket
    monkeypatch.setattr(secrecy, "_bracket",
                        lambda a, b: brackets.append(a) or bracket(a, b))
    for m in range(15, 26):
        methods, summed = set(), 0
        for quarter_db in range(-160, 241):
            brackets.clear()
            methods.add(assert_sum_rule_decision(quarter_db / 4.0, 10.0, m))
            summed += len(brackets) > 2
        assert methods == {Method.CLOSED, Method.QUAD} and summed > 0, m


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


@pytest.mark.parametrize("gamma_b0", [1e200, 1e300], ids=["2000dB", "3000dB"])
def test_quadrature_far_beyond_the_old_interval_cap(gamma_b0):
    # a tail over 200-300 decades of x is a shift of 460-690 in t = ln x
    scenario = Scenario(gamma_b0, 1.0, 8)
    btas = asc_btas_closed(scenario)
    assert btas.method is Method.CLOSED
    assert asc_quadrature(scenario, TasScheme.BTAS).value == pytest.approx(
        btas.value, abs=1e-10)
    etas = asc_etas_closed(scenario).value
    assert asc_quadrature(scenario, TasScheme.ETAS).value == pytest.approx(etas, abs=1e-10)
    single = asc_etas_closed(Scenario(gamma_b0, 1.0, 1)).value
    assert asc_quadrature(scenario, TasScheme.RANDOM).value == pytest.approx(
        single, abs=1e-10)


@pytest.mark.parametrize("scheme", [TasScheme.BTAS, TasScheme.ETAS, TasScheme.RANDOM],
                         ids=lambda scheme: scheme.value)
def test_quadrature_at_the_bottom_of_the_db_range(scheme):
    # at (-130, -130) dB both link means are below the quadrature's left
    # end, x = abs_tol/4; the ASC is of order 1e-13, and quadrature must
    # answer near 0 rather than fail on an empty grid
    scenario = scenario_db(-130.0, -130.0, 8)
    closed = (asc_btas_closed(scenario) if scheme is TasScheme.BTAS
              else asc_etas_closed(scenario if scheme is TasScheme.ETAS
                                   else scenario_db(-130.0, -130.0, 1)))
    assert closed.value < 1e-12
    value = asc_quadrature(scenario, scheme).value
    assert value == pytest.approx(closed.value, abs=1e-10)


# ----------------------------------------------------------------------------
# Monte Carlo route
# ----------------------------------------------------------------------------

def test_mc_trials_validation():
    scenario = Scenario(1.0, 1.0, 2)
    with pytest.raises(ValueError):
        mc_asc(scenario, TasScheme.BTAS, 1, RngStream(1))
    for trials in (True, 100.0, 2.5, None):
        with pytest.raises(ValueError, match="trials must be an integer >= 2"):
            mc_asc(scenario, TasScheme.BTAS, trials, RngStream(1))
    est = mc_asc(scenario, TasScheme.BTAS, np.int64(100), RngStream(1))
    assert est.trials == 100 and type(est.trials) is int
    assert est == mc_asc(scenario, TasScheme.BTAS, 100, RngStream(1))


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
    for m in (1, 64):  # up to M = 64 a chunk has MC_CHUNK_SIZE rows
        layout = _chunk_layout(trials, m)
        assert sum(size for _, size in layout) == trials
        assert [index for index, _ in layout] == list(range(len(layout)))
        assert all(size == MC_CHUNK_SIZE for _, size in layout[:-1])
        assert 1 <= layout[-1][1] <= MC_CHUNK_SIZE


@pytest.mark.parametrize("m, rows", [(64, MC_CHUNK_SIZE), (65, 16_131), (5_000, 209),
                                     (100_000, 10), (2 ** 20, 1), (2 ** 21, 1)])
def test_chunk_rows_cap_the_gains_per_link(m, rows):
    # past M = 64 a chunk has 2^20 // M rows, at least one
    assert _chunk_layout(2 * rows + 1, m) == [(0, rows), (1, rows), (2, 1)]


def test_btas_at_a_large_antenna_count_streams_in_small_buffers(monkeypatch):
    # M = 100,000 has chunks of 10 rows: 25 trials run over three chunks,
    # none of whose buffers asks for more than 18 MiB
    monkeypatch.setattr(secrecy, "_idle_buffers", [])
    asked = []
    take = secrecy._take_buffer
    monkeypatch.setattr(secrecy, "_take_buffer", lambda n: asked.append(n) or take(n))
    scenario = Scenario(10.0, 10.0, 100_000)
    est = mc_asc(scenario, TasScheme.BTAS, 25, RngStream(5))
    assert len(asked) == 3 and 8 * max(asked) <= 18 * 2 ** 20
    assert (repr(est.value), repr(est.std_error)) == selected_estimates(
        (TasScheme.BTAS,), (scenario,), 25, RngStream(5))[TasScheme.BTAS][0]


@pytest.mark.parametrize("scheme", [TasScheme.OTAS, TasScheme.RANDOM])
def test_mc_thread_count_does_not_change_uneven_layout(scheme, monkeypatch):
    # four chunks, the last one partial: three workers get unequal shares,
    # each reusing its buffers from chunk to chunk, on any number of CPUs
    monkeypatch.setattr(secrecy, "_usable_cpus", lambda: 3)
    trials = 3 * MC_CHUNK_SIZE + 17
    for m in (4, 16):
        scenario = Scenario(10.0, 3.0, m)
        runs = [mc_asc(scenario, scheme, trials, RngStream(7, 3), threads=threads)
                for threads in (1, 2, 3)]
        assert all(r.value == runs[0].value for r in runs)
        assert all(r.std_error == runs[0].std_error for r in runs)


def record_pool_sizes(monkeypatch, reverse=False):
    """Replace mc_asc's ThreadPoolExecutor by a serial stand-in that starts
    no thread, and with `reverse` runs the queue from its end; returns the
    list of `max_workers` it was asked for."""
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            if reverse:
                return reversed([fn(item) for item in reversed(list(items))])
            return map(fn, items)

    monkeypatch.setattr(secrecy, "ThreadPoolExecutor", SerialPool)
    return workers


@pytest.mark.parametrize("threads, chunks, cpus, workers", [
    (5000, 10, 3, [3]),
    (5000, 2, 64, [2]),
    (2, 10, 64, [2]),
    (5000, 1, 64, []),   # one chunk runs on the calling thread
    (5000, 10, 1, []),
])
def test_mc_worker_count_is_bounded(threads, chunks, cpus, workers, monkeypatch):
    pools = record_pool_sizes(monkeypatch)
    monkeypatch.setattr(secrecy.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    scenario, trials = Scenario(10.0, 3.0, 2), (chunks - 1) * MC_CHUNK_SIZE + 5
    est = mc_asc(scenario, TasScheme.OTAS, trials, RngStream(8), threads=threads)
    assert pools == workers
    assert est == mc_asc(scenario, TasScheme.OTAS, trials, RngStream(8))


@pytest.mark.parametrize("threads, curves, chunks, cpus, workers", [
    (5000, 1, 10, 3, [3]),
    (5000, 2, 1, 64, [2]),  # the bound is the chunk count across curves
    (5000, 3, 4, 64, [12]),
    (2, 3, 1, 64, [2]),
    (5000, 3, 4, 1, []),
])
def test_mc_worker_count_is_bounded_across_curves(threads, curves, chunks, cpus, workers,
                                                  monkeypatch):
    pools = record_pool_sizes(monkeypatch)
    monkeypatch.setattr(secrecy.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    scenario, trials = Scenario(10.0, 3.0, 2), (chunks - 1) * MC_CHUNK_SIZE + 5
    ests = secrecy._mc_asc_curves([((scenario,), (TasScheme.OTAS,), RngStream(8, i))
                                   for i in range(curves)], trials, threads)
    assert pools == workers
    assert ests == [mc_asc_curve((scenario,), (TasScheme.OTAS,), trials, RngStream(8, i))
                    for i in range(curves)]


@pytest.mark.parametrize("cpu_count, workers", [(4, [4]), (None, [])])
def test_mc_worker_bound_without_sched_getaffinity(cpu_count, workers, monkeypatch):
    pools = record_pool_sizes(monkeypatch)
    monkeypatch.delattr(secrecy.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(secrecy.os, "cpu_count", lambda: cpu_count)
    mc_asc(Scenario(10.0, 3.0, 2), TasScheme.OTAS, 10 * MC_CHUNK_SIZE, RngStream(8),
           threads=5000)
    assert pools == workers


@pytest.mark.parametrize("threads", [1, 2])
def test_mc_without_a_stream_fails_before_any_work(threads, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew gains without a stream")
    monkeypatch.setattr(secrecy, "draw_gain_blocks", no_draws)
    scenario = Scenario(10.0, 3.0, 4)
    with pytest.raises(ValueError, match="needs an RngStream as rng, got None"):
        mc_asc(scenario, TasScheme.OTAS, 100_000, None, threads=threads)
    with pytest.raises(ValueError, match="needs an RngStream as rng, got None"):
        asc(scenario, "otas", trials=1000, threads=threads)


def test_mc_deterministic_for_fixed_stream():
    scenario = Scenario(10.0, 3.0, 4)
    a = mc_asc(scenario, TasScheme.RANDOM, 70_000, RngStream(21, 0))
    b = mc_asc(scenario, TasScheme.RANDOM, 70_000, RngStream(21, 0))
    assert a.value == b.value and a.std_error == b.std_error


def test_otas_mc_single_antenna_matches_closed():
    scenario = Scenario(10.0, 10.0, 1)
    est = asc(scenario, TasScheme.OTAS, trials=1_000_000, rng=RngStream(42, 11))
    assert abs(est.value - asc_btas_closed(scenario).value) <= 4.0 * est.std_error


def test_otas_mc_dominates_closed_forms():
    scenario = Scenario(10.0, 10.0, 8)
    est = asc(scenario, TasScheme.OTAS, trials=1_000_000, rng=RngStream(42, 12))
    btas = asc_btas_closed(scenario).value
    etas = asc_etas_closed(scenario).value
    assert est.value >= max(btas, etas) - 4.0 * est.std_error
    # at this operating point the optimum is visibly above both
    assert est.value - max(btas, etas) > 4.0 * est.std_error


# ----------------------------------------------------------------------------
# The O-TAS chunk kernel against argmax -> gather -> secrecy_capacity
# ----------------------------------------------------------------------------

def gathered_capacities(scenario, bob, eve, ratios):
    """Secrecy capacities of gathered 1-D gains: `secrecy_capacity` where
    `ratios` is `snr_ratios`, else the clamped log of the folded ratios."""
    with np.errstate(all="ignore"):
        if ratios is snr_ratios:
            return secrecy_capacity(scenario.gamma_b0 * bob, scenario.gamma_e0 * eve)
        return np.maximum(0.0, np.log2(ratios(scenario, bob, eve)))


def argmax_moments(scenario, bob, eve, ratios=snr_ratios):
    """Chunk moments the way O-TAS was first computed: select the index,
    gather both links there, and take the clamped log of their SNR ratio,
    the quotient or, with `ratios=folded_snr_ratios`, the folded form."""
    with np.errstate(all="ignore"):
        idx = np.argmax(ratios(scenario, bob, eve), axis=1)
        rows = np.arange(bob.shape[0])
        cs = gathered_capacities(scenario, bob[rows, idx], eve[rows, idx], ratios)
        mean = float(cs.mean())
        return bob.shape[0], mean, float(np.sum((cs - mean) ** 2))


@pytest.mark.parametrize("size", [MC_CHUNK_SIZE, 1234], ids=["full", "partial"])
@pytest.mark.parametrize("m", [1, 2, 3, 8, 16, 64])
def test_otas_chunk_moments_match_argmax_reference(m, size):
    rng = RngStream(31, m)
    for gb_db, ge_db in ((-30.0, -30.0), (-30.0, 40.0), (40.0, -30.0),
                         (10.0, 10.0), (40.0, 40.0)):
        scenario = scenario_db(gb_db, ge_db, m)
        bob, eve = draw_gain_blocks(scenario, rng.substream(3), size)
        got, = _chunk_moments((scenario,), (TasScheme.OTAS,), rng, 3, size)
        assert repr(got) == repr(argmax_moments(scenario, bob, eve))


# Rows of (bob, eve) gains at unit SNRs: tied ratios, ratios below one,
# inf ratios (g_B = inf), NaN ratios (inf/inf, or a NaN gain).
INF, NAN = math.inf, math.nan
CRAFTED_ROWS = {
    "ties": [([0.7, 0.7, 0.7], [0.7, 0.7, 0.7]), ([1.0, 3.0, 3.0], [0.0, 1.0, 1.0]),
             ([2.0, 5.0, 2.0], [1.0, 3.0, 1.0])],
    "below-one": [([0.1, 0.2, 0.0], [5.0, 9.0, 3.0])],
    "inf": [([INF, 1.0, 2.0], [1.0, 0.0, 0.0]), ([1.0, INF, INF], [0.0, 1.0, 2.0])],
    "nan": [([INF, INF, 1.0], [INF, 0.0, 0.0]), ([1.0, 2.0, INF], [0.0, NAN, 1.0]),
            ([INF, 1.0, 0.5], [1.0, INF, INF])],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", list(CRAFTED_ROWS))
def test_otas_chunk_moments_on_crafted_blocks(kind, monkeypatch):
    # the crafted rows follow a finite row, so the moments carry their inf or NaN
    rows = [([0.5, 1.5, 1.0], [0.2, 0.3, 2.0])] + CRAFTED_ROWS[kind]
    bob = np.array([b for b, _ in rows])
    eve = np.array([e for _, e in rows])
    scenario = Scenario(1.0, 1.0, 3)
    monkeypatch.setattr(secrecy, "draw_gain_blocks",
                        lambda scenario, stream, count, out=None: (bob.copy(), eve.copy()))
    got, = _chunk_moments((scenario,), (TasScheme.OTAS,), RngStream(1), 0, len(rows))
    assert repr(got) == repr(argmax_moments(scenario, bob, eve))


def argmax_estimate(scenario, trials, rng):
    """O-TAS (value, std_error) from `argmax_moments` on each chunk's draw into
    new arrays, merged in chunk order by Chan's update."""
    moments = [argmax_moments(scenario, *draw_gain_blocks(scenario, rng.substream(i), size))
               for i, size in _chunk_layout(trials, scenario.num_antennas)]
    n, mean, m2 = reduce(secrecy._merge_moments, moments)
    return repr(mean), repr(math.sqrt(m2 / (n - 1)) / math.sqrt(n))


# A wide block first, then a narrow one with a partial chunk, then a middle
# one: each draw reuses a prefix of the buffers the first one grew.
BUFFER_SEQUENCE = [((20.0, 10.0, 64), MC_CHUNK_SIZE),
                   ((-10.0, 0.0, 2), MC_CHUNK_SIZE + 1234),
                   ((40.0, 30.0, 16), 2 * MC_CHUNK_SIZE)]


def test_reused_buffers_match_new_arrays_across_calls(monkeypatch):
    monkeypatch.setattr(secrecy, "_idle_buffers", [])
    for (gb_db, ge_db, m), trials in BUFFER_SEQUENCE:
        scenario = scenario_db(gb_db, ge_db, m)
        est = mc_asc(scenario, TasScheme.OTAS, trials, RngStream(77, m))
        assert (repr(est.value), repr(est.std_error)) == argmax_estimate(
            scenario, trials, RngStream(77, m))
    # one thread drew every chunk into the one buffer the first chunk grew:
    # its two gain blocks, then a row of capacities and two 1 MiB scratch
    # arrays for the tiles of the capacities
    widest = scenario_db(*BUFFER_SEQUENCE[0][0])
    size = secrecy._chunk_buffer((widest,), (TasScheme.OTAS,), MC_CHUNK_SIZE)[0]
    assert size == 2 * 64 * MC_CHUNK_SIZE + MC_CHUNK_SIZE + 2 * 131_072
    assert [b.size for b in secrecy._idle_buffers] == [size]


def test_small_antenna_counts_reserve_only_the_scratch_their_tiles_use(monkeypatch):
    # at M = 2 the scratch is O-TAS's two tile arrays of 16,384 gains and its
    # row of capacities, which also hold the two rows of the 1-D selections
    monkeypatch.setattr(secrecy, "_idle_buffers", [])
    scenarios = [scenario_db(10.0, 0.0, 2)]
    mc_asc_curve(scenarios, list(TasScheme), MC_CHUNK_SIZE, RngStream(3))
    size = secrecy._chunk_buffer(tuple(scenarios), list(TasScheme), MC_CHUNK_SIZE)[0]
    assert size == 2 * 2 * MC_CHUNK_SIZE + 32_768 + MC_CHUNK_SIZE
    assert [b.size for b in secrecy._idle_buffers] == [size]


# Antenna counts for the buffer bound: every count to 256, then each power of
# two to the cap and its neighbours, where the rows a chunk or a tile holds
# change.
BOUND_ANTENNAS = sorted({*range(1, 257), *(2 ** k + d for k in range(9, 18) for d in (-1, 0, 1)
                                          if 2 ** k + d <= 131_072)})


def test_a_chunk_buffer_is_at_most_18_mib_and_a_row_up_to_the_cap():
    # two gain blocks of at most 2^20 gains each, two 1 MiB tile arrays and
    # O-TAS's row of 16,384 capacities: 18 MiB + 128 KiB, which one point
    # at M = 64 meets, for any schemes and curve up to M = 131,072
    bound = 8 * (2 * 2 ** 20 + 2 * secrecy._TILE_ELEMENTS + MC_CHUNK_SIZE)
    assert bound == 18 * 2 ** 20 + 128 * 2 ** 10
    curves = [((10.0, 5.0),), ((10.0, 5.0), (20.0, 5.0)),
              tuple((db, 5.0) for db in range(13)), tuple((5.0, db) for db in range(13)),
              tuple((db, 2.0 * db) for db in range(13))]
    schemes = [c for k in range(1, 5) for c in combinations(TasScheme, k)]
    largest = {}
    for m in BOUND_ANTENNAS:
        size = _chunk_layout(MC_CHUNK_SIZE, m)[0][1]
        for points in curves:
            scenarios = tuple(scenario_db(gb_db, ge_db, m) for gb_db, ge_db in points)
            for chosen in schemes:
                bytes_ = 8 * secrecy._chunk_buffer(scenarios, chosen, size)[0]
                largest[m] = max(largest.get(m, 0), bytes_)
    assert max(largest.values()) == bound and largest[64] == bound


def test_concurrent_mc_calls_match_sequential_calls(monkeypatch):
    # more calling threads than CPUs, each with its own workers, switching often
    monkeypatch.setattr(secrecy, "_usable_cpus", lambda: 2)
    calls = [(scenario_db(gb_db, ge_db, m), scheme, trials, threads)
             for ((gb_db, ge_db, m), trials), scheme, threads in zip(
                 BUFFER_SEQUENCE * 2, [TasScheme.OTAS, TasScheme.RANDOM] * 3,
                 [1, 2, 2, 1, 1, 2])]
    expected = [mc_asc(scenario, scheme, trials, RngStream(5, i), threads=threads)
                for i, (scenario, scheme, trials, threads) in enumerate(calls)]
    got = [None] * len(calls)
    start = threading.Barrier(len(calls))

    def call(i):
        scenario, scheme, trials, threads = calls[i]
        start.wait(timeout=60)
        got[i] = mc_asc(scenario, scheme, trials, RngStream(5, i), threads=threads)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(calls))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert got == expected


def test_biased_legitimate_gains_move_the_otas_estimate(monkeypatch):
    # a fault in the drawn gains must reach the estimate through the reused
    # buffers, not be drawn over by them
    scenario = Scenario(10.0, 10.0, 4)
    healthy = mc_asc(scenario, TasScheme.OTAS, 200_000, RngStream(6), threads=2)
    scale_bob_gains(monkeypatch, 1.05)
    biased = mc_asc(scenario, TasScheme.OTAS, 200_000, RngStream(6), threads=2)
    assert biased.value - healthy.value > 6.0 * healthy.std_error


# ----------------------------------------------------------------------------
# Curves: one draw per chunk serves every scheme and scenario
# ----------------------------------------------------------------------------

# Points of one curve, far apart in both SNRs, in dB.
CURVE_POINTS_DB = ((-10.0, 0.0), (10.0, 5.0), (40.0, 30.0))


def thousand_gain_tiles(width):
    """Rows per tile that split every chunk unevenly, 1-D gains too."""
    return max(1, 1_000 // width)


def curve_reprs(estimates):
    return [(repr(e.value), repr(e.std_error)) for e in estimates]


@pytest.mark.parametrize("m", [1, 2, 16])
@pytest.mark.parametrize("scheme", list(TasScheme))
def test_curve_matches_separate_calls_on_the_same_stream(scheme, m, monkeypatch):
    # three chunks, the last one partial, on up to three workers; tiles of
    # at most 1,000 gains split every chunk unevenly, the default splits it
    # in two at most
    monkeypatch.setattr(secrecy, "_usable_cpus", lambda: 3)
    scenarios = [scenario_db(gb_db, ge_db, m) for gb_db, ge_db in CURVE_POINTS_DB]
    trials = 2 * MC_CHUNK_SIZE + 17
    separate = [mc_asc(scenario, scheme, trials, RngStream(13, m)) for scenario in scenarios]
    for tile_rows in (thousand_gain_tiles, secrecy._tile_rows):
        monkeypatch.setattr(secrecy, "_tile_rows", tile_rows)
        for threads in (1, 2, 3):
            curve = mc_asc_curve(scenarios, (scheme,), trials, RngStream(13, m),
                                 threads=threads)
            assert list(curve) == [scheme]
            assert curve_reprs(curve[scheme]) == curve_reprs(separate)


def folds_eve(scenarios):
    """Whether a curve forms its ratios as gamma_b0 (g_B/E) + 1/E: two or
    more points that share gamma_e0, and every gamma0 below 2^1000."""
    gammas = [g for s in scenarios for g in (s.gamma_b0, s.gamma_e0)]
    return (len(scenarios) > 1 and len({s.gamma_e0 for s in scenarios}) == 1
            and max(gammas) < 2.0 ** 1000)


def selected_estimates(schemes, scenarios, trials, rng):
    """{scheme: [(value, std_error) as repr, one per scenario]}, the scenarios
    of one antenna count: `argmax_moments` for O-TAS, else the plain
    `secrecy_capacity` at the antenna `select_indices` picks, merged in chunk
    order by Chan's update; both take `folded_snr_ratios` where `folds_eve`.
    Each chunk is drawn once into new arrays and serves every scheme and
    scenario; random consumes the chunk's substream once, after the draw, as
    mc_asc_curve does."""
    ratios = folded_snr_ratios if folds_eve(scenarios) else snr_ratios
    moments = {scheme: [[] for _ in scenarios] for scheme in schemes}
    for i, size in _chunk_layout(trials, scenarios[0].num_antennas):
        stream = rng.substream(i)
        bob, eve = draw_gain_blocks(scenarios[0], stream, size)
        rows = np.arange(size)
        for scheme in schemes:
            if scheme is not TasScheme.OTAS:
                idx = select_indices(scheme, scenarios[0], bob, eve, rng=stream)
            for scenario, chunks in zip(scenarios, moments[scheme]):
                if scheme is TasScheme.OTAS:
                    chunks.append(argmax_moments(scenario, bob, eve, ratios))
                    continue
                cs = gathered_capacities(scenario, bob[rows, idx], eve[rows, idx], ratios)
                mean = float(cs.mean())
                chunks.append((size, mean, float(np.sum((cs - mean) ** 2))))

    def estimate(chunks):
        n, mean, m2 = reduce(secrecy._merge_moments, chunks)
        return repr(mean), repr(math.sqrt(m2 / (n - 1)) / math.sqrt(n))

    return {scheme: list(map(estimate, per_scenario))
            for scheme, per_scenario in moments.items()}


# Curves whose points share gamma_e0, gamma_b0, both (one point repeated)
# or neither, in dB. A shared link is folded into the gains once per chunk.
# A shared gamma_e0 is folded below 2^1000 (3,010.3 dB), so the 3,010 dB
# points put that fold near the top of its range; the 3,065 dB points put
# the other side, folded or not, near the top of the dB range, where a
# gamma0 g overflows a double only for g > 56.
SHARED_CURVES_DB = {
    "eve": ((-10.0, 5.0), (10.0, 5.0), (3010.0, 5.0)),
    "eve-top": ((3000.0, 3010.0), (3010.0, 3010.0)),
    "bob": ((3065.0, -10.0), (3065.0, 5.0), (3065.0, 3060.0)),
    "both": ((10.0, 5.0), (10.0, 5.0)),
    "neither": CURVE_POINTS_DB,
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 16, 17, 64])
@pytest.mark.parametrize("shared", list(SHARED_CURVES_DB))
def test_folded_curves_match_unfolded_references(shared, m, monkeypatch):
    # 1,696 trials make one chunk shorter than any default tile; the other
    # count, not a multiple of a tile's 8,192 rows, ends on a 17-row chunk,
    # and at M = 17 every full chunk also ends on a partial tile
    monkeypatch.setattr(secrecy, "_usable_cpus", lambda: 3)
    scenarios = [scenario_db(gb_db, ge_db, m) for gb_db, ge_db in SHARED_CURVES_DB[shared]]
    for trials in (1_696, 2 * MC_CHUNK_SIZE + 17):
        expected = selected_estimates(list(TasScheme), scenarios, trials, RngStream(19, m))
        for tile_rows in (thousand_gain_tiles, secrecy._tile_rows):
            monkeypatch.setattr(secrecy, "_tile_rows", tile_rows)
            for threads in (1, 2, 3):
                curves = mc_asc_curve(scenarios, list(TasScheme), trials,
                                      RngStream(19, m), threads=threads)
                assert {s: curve_reprs(c) for s, c in curves.items()} == expected


@pytest.mark.parametrize("shared", ["eve", "eve-top", "both"])
def test_folded_eavesdropper_capacities_are_within_rounding_of_the_quotient(shared):
    # on a curve that folds gamma_e0, each realization's capacity, O-TAS's
    # and a selected antenna's, is within 1e-15 bits of the quotient's (its
    # ratio's 3 ulp through log2), plus an ulp of each log2's rounding
    scenarios = [scenario_db(gb_db, ge_db, 8) for gb_db, ge_db in SHARED_CURVES_DB[shared]]
    assert folds_eve(scenarios)
    blocks = draw_gain_blocks(scenarios[0], RngStream(59), MC_CHUNK_SIZE)
    selected = tuple(g[:, 3].copy() for g in blocks)
    # the unfolded quotient of 2-D blocks takes two tile arrays, and of 1-D
    # gains a row a point: `_capacities`'s 2 * count * M elements hold either
    scratch = np.empty(2 * blocks[0].size)
    for bob, eve in (blocks, selected):
        quotient, folded = np.empty((2, len(scenarios), MC_CHUNK_SIZE))
        _ratio_capacities(scenarios, bob, eve, quotient, scratch)
        gains = (bob.copy(), eve.copy())
        _fold_link("eve", scenarios[0].gamma_e0, *gains)
        _ratio_capacities(scenarios, *gains, folded, scratch, "eve")
        assert np.all(np.abs(folded - quotient) <= 1e-15 + 2 * np.spacing(quotient))
        assert not np.array_equal(folded, quotient)


# Curves on the edges of the eavesdropper fold, in linear SNRs: one point, a
# shared gamma_e0 or a gamma_b0 at 2^1000, and each past the top of the dB
# range, where a gamma0 g overflows. None folds gamma_e0.
FOLD_EDGE_CURVES = {
    "one point": ((10.0, 3.0),),
    "eve at 2^1000": ((2.0 ** 999, 2.0 ** 1000), (0.75 * 2.0 ** 1000, 2.0 ** 1000)),
    "bob at 2^1000": ((10.0, 3.0), (2.0 ** 1000, 3.0)),
    "one point past the top": ((1e308, 3.0),),
    "eve past the top": ((10.0, 1e308), (100.0, 1e308)),
    "bob past the top": ((10.0, 3.0), (1e308, 3.0)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edge", list(FOLD_EDGE_CURVES))
def test_curves_on_the_edges_of_the_fold_keep_the_quotient(edge, monkeypatch):
    # each curve keeps the quotient's bits, or its error where a mean is not
    # finite. A fold would move the points at 10 dB and 2^1000; 5 trials keep
    # an ulp's shift of a capacity in a mean, where 16,401 average it away
    monkeypatch.setattr(secrecy, "_usable_cpus", lambda: 2)
    scenarios = [Scenario(gamma_b0, gamma_e0, 8) for gamma_b0, gamma_e0 in FOLD_EDGE_CURVES[edge]]
    assert not folds_eve(scenarios)
    if max(s.gamma_b0 for s in scenarios) == 1e308:  # g_B > 1.8 overflows
        with pytest.raises(ValueError, match=r"^Monte Carlo: gamma0\*g overflows a double at "
                                             r"gamma_b0=1e\+308, gamma_e0=3; for otas, use"):
            mc_asc_curve(scenarios, list(TasScheme), MC_CHUNK_SIZE + 17, RngStream(61))
        return
    for trials in (5, MC_CHUNK_SIZE + 17):
        expected = selected_estimates(list(TasScheme), scenarios, trials, RngStream(61))
        for threads in (1, 2):
            curves = mc_asc_curve(scenarios, list(TasScheme), trials, RngStream(61),
                                  threads=threads)
            assert {s: curve_reprs(c) for s, c in curves.items()} == expected


@pytest.mark.filterwarnings("error")
def test_folded_legitimate_overflow_names_the_failing_scenario():
    # gamma_b0 = 1e308 is shared and folded; the first scheme in the order
    # given and its first scenario are named, as without the fold
    scenarios = [Scenario(1e308, 1.0, 8), Scenario(1e308, 1e308, 8)]
    for order, named in ((scenarios, "gamma_e0=1;"), (scenarios[::-1], "gamma_e0=1e\\+308;")):
        with pytest.raises(ValueError, match=r"overflows a double at gamma_b0=1e\+308, "
                                             + named + " for random, use"):
            mc_asc_curve(order, (TasScheme.RANDOM, TasScheme.OTAS), 1000, RngStream(42))


@pytest.mark.parametrize("scheme", [TasScheme.OTAS, TasScheme.ETAS])
def test_antenna_count_past_a_tile(scheme):
    # a row wider than a folded tile takes a tile of its own
    m = 2 * secrecy._TILE_ELEMENTS + 5
    # two points that share gamma_e0 fold it; two that share neither SNR
    # fold nothing
    for points in (((10.0, 5.0), (20.0, 5.0)), ((10.0, 5.0), (20.0, 0.0))):
        scenarios = [scenario_db(gb_db, ge_db, m) for gb_db, ge_db in points]
        curve = mc_asc_curve(scenarios, (scheme,), 3, RngStream(23))
        assert curve_reprs(curve[scheme]) == selected_estimates(
            (scheme,), scenarios, 3, RngStream(23))[scheme]


@pytest.mark.parametrize("m", [1, 2, 16])
def test_all_schemes_in_one_call_match_one_scheme_calls(m, monkeypatch):
    # random consumes each chunk's substream after the draw and the others
    # do not, so no scheme's estimates depend on which schemes share the
    # chunk or in what order
    monkeypatch.setattr(secrecy, "_usable_cpus", lambda: 3)
    scenarios = [scenario_db(gb_db, ge_db, m) for gb_db, ge_db in CURVE_POINTS_DB]
    trials = 2 * MC_CHUNK_SIZE + 17
    alone = {scheme: curve_reprs(mc_asc_curve(scenarios, (scheme,), trials,
                                              RngStream(17, m))[scheme])
             for scheme in TasScheme}
    for order in (list(TasScheme), list(reversed(TasScheme))):
        for threads in (1, 2, 3):
            curves = mc_asc_curve(scenarios, order, trials, RngStream(17, m),
                                  threads=threads)
            assert list(curves) == order
            assert {s: curve_reprs(c) for s, c in curves.items()} == alone


def test_short_chunks_past_64_antennas_do_not_depend_on_threads(monkeypatch):
    # M = 5,000 has chunks of 209 rows, and 435 trials end on a 17-row chunk
    monkeypatch.setattr(secrecy, "_usable_cpus", lambda: 2)
    scenarios = [scenario_db(gb_db, ge_db, 5_000) for gb_db, ge_db in CURVE_POINTS_DB]
    one, two = ({s: curve_reprs(c) for s, c in mc_asc_curve(
        scenarios, list(TasScheme), 2 * 209 + 17, RngStream(29), threads=threads).items()}
        for threads in (1, 2))
    assert one == two


def test_curve_draws_each_chunk_once(monkeypatch):
    draws = []
    draw = secrecy.draw_gain_blocks

    def counted(scenario, rng, count, out=None):
        draws.append(count)
        return draw(scenario, rng, count, out=out)

    monkeypatch.setattr(secrecy, "draw_gain_blocks", counted)
    scenarios = [scenario_db(gb_db, 10.0, 8) for gb_db in (0.0, 10.0, 20.0, 30.0)]
    mc_asc_curve(scenarios, list(TasScheme), MC_CHUNK_SIZE + 5, RngStream(4))
    assert draws == [MC_CHUNK_SIZE, 5]


def test_curve_argument_errors(monkeypatch):
    monkeypatch.setattr(secrecy, "draw_gain_blocks", None)  # no draw is reached
    point = [Scenario(1.0, 1.0, 2)]
    with pytest.raises(ValueError, match="at least one scenario"):
        mc_asc_curve([], (TasScheme.OTAS,), 100, RngStream(1))
    with pytest.raises(ValueError, match="share one antenna count"):
        mc_asc_curve([Scenario(1.0, 1.0, 2), Scenario(1.0, 1.0, 4)],
                     (TasScheme.OTAS,), 100, RngStream(1))
    for schemes in ([], ("btas", TasScheme.OTAS, TasScheme.BTAS), TasScheme.OTAS):
        with pytest.raises(ValueError, match="non-empty sequence of distinct schemes,"
                                             " got ") as info:
            mc_asc_curve(point, schemes, 100, RngStream(1))
        assert "\n" not in str(info.value)


@pytest.mark.filterwarnings("error")
def test_curve_overflow_names_the_failing_scenario():
    scenarios = [Scenario(10.0, 1.0, 8), Scenario(1e308, 1.0, 8)]
    with pytest.raises(ValueError, match=r"overflows a double at gamma_b0=1e\+308, "
                                         r"gamma_e0=1; for etas, use"):
        mc_asc_curve(scenarios, (TasScheme.ETAS, TasScheme.OTAS), 1000, RngStream(42))


# ----------------------------------------------------------------------------
# One queue for the curves of several antenna counts
# ----------------------------------------------------------------------------

# Curves of four antenna counts, each with its own schemes and stream; one
# shares gamma_e0 and is folded. 16,401 trials end every curve on a partial
# chunk; M = 100 has chunks of 10,485 rows, so the queue runs the wide chunks
# first, out of the order given.
QUEUE_CURVES = [(1, CURVE_POINTS_DB, (TasScheme.OTAS, TasScheme.BTAS)),
                (2, SHARED_CURVES_DB["eve"][:2], tuple(TasScheme)),
                (17, CURVE_POINTS_DB, (TasScheme.RANDOM, TasScheme.OTAS)),
                (100, CURVE_POINTS_DB[:2], (TasScheme.ETAS, TasScheme.OTAS))]


def queue_curves():
    return [([scenario_db(gb_db, ge_db, m) for gb_db, ge_db in points], schemes,
             RngStream(37, m)) for m, points, schemes in QUEUE_CURVES]


def all_curve_reprs(curves):
    return [{s: curve_reprs(c) for s, c in curve.items()} for curve in curves]


def test_curve_queue_matches_separate_curve_calls(monkeypatch):
    monkeypatch.setattr(secrecy, "_usable_cpus", lambda: 3)
    trials = MC_CHUNK_SIZE + 17
    separate = all_curve_reprs(mc_asc_curve(points, schemes, trials, rng)
                               for points, schemes, rng in queue_curves())
    for threads in (1, 2, 3):
        got = secrecy._mc_asc_curves(queue_curves(), trials, threads)
        assert all_curve_reprs(got) == separate
    # a stand-in pool that runs the queue from its smallest chunk to its largest
    pools = record_pool_sizes(monkeypatch, reverse=True)
    assert all_curve_reprs(secrecy._mc_asc_curves(queue_curves(), trials, 3)) == separate
    assert pools == [3]


def test_curve_queue_runs_the_largest_chunks_first(monkeypatch):
    # at one thread the wider antenna count, given last, draws first, and its
    # buffer serves every later chunk: none is dropped
    monkeypatch.setattr(secrecy, "_idle_buffers", [])
    asked = []
    take = secrecy._take_buffer
    monkeypatch.setattr(secrecy, "_take_buffer", lambda n: asked.append(n) or take(n))
    curves = [([scenario_db(10.0, 0.0, m)], list(TasScheme), RngStream(2, m)) for m in (2, 16)]
    secrecy._mc_asc_curves(curves, MC_CHUNK_SIZE + 5, 1)
    assert asked == sorted(asked, reverse=True)
    assert [b.size for b in secrecy._idle_buffers] == [asked[0]]


@pytest.mark.parametrize("bad", ["mixed M", "empty", "no stream", "repeated schemes"])
def test_a_malformed_later_curve_fails_before_any_draw(bad, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew gains before every curve was checked")
    monkeypatch.setattr(secrecy, "draw_gain_blocks", no_draws)
    # the first curve's chunks are the widest, so the queue would run them first
    good = ([Scenario(1.0, 1.0, 8)], (TasScheme.OTAS,), RngStream(1))
    later = {"mixed M": ([Scenario(1.0, 1.0, 2), Scenario(1.0, 1.0, 4)],
                         (TasScheme.OTAS,), RngStream(2)),
             "empty": ([], (TasScheme.OTAS,), RngStream(2)),
             "no stream": ([Scenario(1.0, 1.0, 2)], (TasScheme.OTAS,), None),
             "repeated schemes": ([Scenario(1.0, 1.0, 2)], ("btas", TasScheme.BTAS),
                                  RngStream(2))}[bad]
    with pytest.raises(ValueError, match="Monte Carlo|antenna count"):
        secrecy._mc_asc_curves([good, later], 100_000, 2)


@pytest.mark.filterwarnings("error")
def test_curve_queue_overflow_names_the_first_curve_given():
    # both curves overflow; the one given first is named, whichever draws first
    curves = [([Scenario(1e308, 1.0, 8)], (TasScheme.RANDOM,), RngStream(42, 1)),
              ([Scenario(1e308, 1e308, 2)], (TasScheme.ETAS,), RngStream(42, 2))]
    for order, named in ((curves, "gamma_e0=1; for random"),
                         (curves[::-1], "gamma_e0=1e\\+308; for etas")):
        with pytest.raises(ValueError, match=r"overflows a double at gamma_b0=1e\+308, "
                                             + named + ", use"):
            secrecy._mc_asc_curves(order, 1000, 1)


# ----------------------------------------------------------------------------
# The capacities of a selected antenna, for a group of points in one pass
# ----------------------------------------------------------------------------

@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", [17, 1_696, MC_CHUNK_SIZE])
@pytest.mark.parametrize("points", [1, 4, 13])
@pytest.mark.parametrize("folded", ["bob", "eve", None])
def test_grouped_capacities_match_per_point_values(folded, points, rows):
    # each row of the (points, rows) capacities is bit for bit the value of
    # that point alone: for a selected antenna's 1-D gains, of the folded
    # ratios where gamma_e0 is folded, and for O-TAS's 2-D blocks, of a
    # one-point call. The points reach 3,065 dB, where gamma0 g overflows,
    # and the gains are left as they are
    scenarios = [scenario_db(3065.0 if folded == "bob" else db,
                             5.0 if folded == "eve" else 3035.0 - db, 4)
                 for db in np.linspace(-30.0, 3065.0, points).tolist()]
    blocks = draw_gain_blocks(scenarios[0], RngStream(41, rows), rows)
    bob, eve = (g[:, 0].copy() for g in blocks)
    ratios = folded_snr_ratios if folded == "eve" else snr_ratios
    expected = [gathered_capacities(s, bob, eve, ratios) for s in scenarios]
    selected, otas = [bob, eve], [g.copy() for g in blocks]
    for gains in (selected, otas):
        with np.errstate(all="ignore"):
            if folded:
                gamma0 = getattr(scenarios[0], "gamma_b0" if folded == "bob" else "gamma_e0")
                _fold_link(folded, gamma0, *gains)
            kept = [g.copy() for g in gains]
            # a row a point for a 1-D side, or two tile arrays for 2-D gains
            scratch = np.empty(points * rows if gains is selected else 2 * blocks[0].size)
            if gains is otas:
                expected = [_ratio_capacities((s,), *gains, np.empty((1, rows)), scratch,
                                              folded)[0] for s in scenarios]
            out = np.empty((points, rows))
            got = _ratio_capacities(scenarios, *gains, out, scratch, folded)
        assert got is out
        assert [row.tobytes() for row in got] == [c.tobytes() for c in expected]
        assert all(np.array_equal(g, k, equal_nan=True) for g, k in zip(gains, kept))


@pytest.mark.parametrize("scheme", list(TasScheme))
def test_capacities_of_more_rows_than_a_chunk(scheme):
    # the self-checks' kernel takes blocks of any length, though 1-D gains
    # are no longer tiled: 20,000 rows at M = 1, past a 16,384-gain scratch
    scenario = Scenario(3.0, 0.5, 1)
    bob, eve = draw_gain_blocks(scenario, RngStream(53), 20_000)
    got = secrecy._capacities(scenario, scheme, bob, eve, RngStream(54))
    assert got.tobytes() == secrecy_capacity(3.0 * bob[:, 0], 0.5 * eve[:, 0]).tobytes()
    # and a dirty scratch of a chunk's size for the scheme serves as a new one
    scratch = chunk_scratch((scenario,), (scheme,), len(bob))
    scratch.fill(np.nan)
    again = secrecy._capacities(scenario, scheme, bob, eve, RngStream(54), scratch)
    assert again.tobytes() == got.tobytes()


def test_points_past_a_group_match_per_point_references(monkeypatch):
    # 20 points that share neither SNR: a full chunk forms its selected
    # capacities in groups of 8, 8 and 4, in 2 MiB of scratch at most, and
    # its 17-row partial chunk all 20 at once
    asked = []
    take = secrecy._take_buffer
    monkeypatch.setattr(secrecy, "_take_buffer", lambda n: asked.append(n) or take(n))
    scenarios = [scenario_db(db, 25.0 - db, 2) for db in np.linspace(-10.0, 30.0, 20).tolist()]
    trials = MC_CHUNK_SIZE + 17
    curves = mc_asc_curve(scenarios, list(TasScheme), trials, RngStream(47))
    assert {s: curve_reprs(c) for s, c in curves.items()} == selected_estimates(
        list(TasScheme), scenarios, trials, RngStream(47))
    assert asked[0] == 2 * 2 * MC_CHUNK_SIZE + 2 * secrecy._TILE_ELEMENTS


@pytest.mark.parametrize("m, scratch", [(2, 32_768), (8, 131_072)])
def test_otas_alone_takes_only_the_tile_scratch(m, scratch, monkeypatch):
    # O-TAS alone, as the figure sweep runs it, asks for the two gain blocks
    # and two tile arrays, however many points it serves
    asked = []
    take = secrecy._take_buffer
    monkeypatch.setattr(secrecy, "_take_buffer", lambda n: asked.append(n) or take(n))
    mc_asc_curve([scenario_db(db, 10.0, m) for db in range(12)], (TasScheme.OTAS,),
                 MC_CHUNK_SIZE, RngStream(3))
    assert asked == [2 * m * MC_CHUNK_SIZE + scratch]


def test_fault_seams_reach_otas_and_leave_selected_antennas_alone(monkeypatch):
    # the faults patch `_snr_ratios` on 2-D gains: O-TAS moves on curves that
    # fold gamma_e0, gamma_b0 or neither, and no selected antenna's row does
    curves = [([scenario_db(db, 5.0, 4) for db in (0.0, 10.0)], list(TasScheme),
               RngStream(43, 1)),
              ([scenario_db(10.0, db, 4) for db in (0.0, 10.0)], list(TasScheme),
               RngStream(43, 2)),
              ([scenario_db(*point, 4) for point in CURVE_POINTS_DB], list(TasScheme),
               RngStream(43, 3))]
    healthy = all_curve_reprs(secrecy._mc_asc_curves(curves, 4000))
    for fault in (drop_last_antenna, lambda patch: scale_otas_ratios(patch, 1.05)):
        with monkeypatch.context() as patch:
            fault(patch)
            faulty = all_curve_reprs(secrecy._mc_asc_curves(curves, 4000))
        for before, after in zip(healthy, faulty):
            assert all(a != b for a, b in zip(before[TasScheme.OTAS], after[TasScheme.OTAS]))
            assert ({s: c for s, c in after.items() if s is not TasScheme.OTAS}
                    == {s: c for s, c in before.items() if s is not TasScheme.OTAS})


# O-TAS estimates frozen as repr: (gb_db, ge_db, M, trials, stream id) ->
# (value, std_error). Computed by `argmax_moments` on each chunk's SFC64
# draws (SeedSequence(2024, spawn_key=(stream id, chunk index))), merged in
# chunk order by Chan's update, not taken from mc_asc's own output.
OTAS_MC_FROZEN = [
    ((20.0, 10.0, 8, 2 * MC_CHUNK_SIZE, 1),
     (5.868070964498549, 0.005987768956909346)),
    ((-10.0, -20.0, 2, 100_000, 2),
     (0.18133424929739764, 0.00041648763733309884)),
    ((40.0, 30.0, 16, 3 * MC_CHUNK_SIZE + 17, 3),  # uneven chunk layout
     (8.018209225958945, 0.007768201448255447)),
]


@pytest.mark.parametrize("point, frozen", OTAS_MC_FROZEN)
def test_otas_mc_frozen_values(point, frozen):
    gb_db, ge_db, m, trials, stream = point
    est = mc_asc(scenario_db(gb_db, ge_db, m), TasScheme.OTAS, trials,
                 RngStream(2024, stream))
    assert (repr(est.value), repr(est.std_error)) == tuple(map(repr, frozen))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma_e0", [1.0, 1e308])
@pytest.mark.parametrize("scheme", list(TasScheme))
def test_mc_overflow_at_the_top_of_the_db_range_fails_cleanly(scheme, gamma_e0):
    # gamma_b0 * g passes the largest double for every g > 1.8
    with pytest.raises(ValueError, match="overflows a double"):
        mc_asc(Scenario(1e308, gamma_e0, 8), scheme, 1000, RngStream(42))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scheme", list(TasScheme))
def test_mc_eavesdropper_overflow_answers_zero(scheme):
    # a ratio with an overflowing gamma_e0 * g rounds to 0, which is its
    # secrecy capacity to within 1e-300
    est = mc_asc(Scenario(1.0, 1e308, 8), scheme, 1000, RngStream(42))
    assert est.value == 0.0


def test_btas_sign_fault_hook_breaks_agreement(monkeypatch):
    from tasec.verification import check_closed_vs_quadrature

    scenario = Scenario(1.0, 1.0, 2)
    healthy = asc_btas_closed(scenario).value
    negate_btas_terms(monkeypatch)
    assert asc_btas_closed(scenario).value != healthy
    assert not check_closed_vs_quadrature().passed
    monkeypatch.undo()
    assert asc_btas_closed(scenario).value == healthy


def test_dominance_check_runs_the_monte_carlo_kernel(monkeypatch):
    # An O-TAS kernel that never sees the last antenna loses to the rivals
    # that pick it; the self-check must run that kernel to notice.
    from tasec.verification import check_otas_dominance

    assert check_otas_dominance(20000, 42).passed
    drop_last_antenna(monkeypatch)
    result = check_otas_dominance(20000, 42)
    assert not result.passed
    assert int(result.detail.split(", ")[-1].split()[0]) > 1000


def test_dominance_check_draws_through_the_monte_carlo_seam(monkeypatch):
    # each chunk of the check is drawn by `secrecy.draw_gain_blocks`, the
    # seam that fault injection and tracing patch, as a Monte Carlo chunk is
    from tasec.verification import check_otas_dominance

    draws = []
    draw = secrecy.draw_gain_blocks

    def counted(scenario, rng, count, out=None):
        draws.append((scenario.num_antennas, count))
        return draw(scenario, rng, count, out=out)

    monkeypatch.setattr(secrecy, "draw_gain_blocks", counted)
    assert check_otas_dominance(40000, 42).passed
    assert draws == [(8, size) for _, size in _chunk_layout(40000, 8)]


def test_dominance_check_counts_alike_on_any_worker_count(monkeypatch):
    # 40,000 realizations at M = 8 are three chunks on the Monte Carlo queue,
    # each on its own substream: under a fault, so that the count is not 0,
    # it reads the same at 1-3 threads and with the queue run from its end
    from tasec.verification import check_otas_dominance

    drop_last_antenna(monkeypatch)
    monkeypatch.setattr(secrecy, "_usable_cpus", lambda: 3)
    asked = []
    take = secrecy._take_buffer
    monkeypatch.setattr(secrecy, "_take_buffer", lambda n: asked.append(n) or take(n))
    serial = check_otas_dominance(40000, 42)
    assert not serial.passed
    # one pooled buffer a chunk, as a Monte Carlo chunk of the four schemes
    # at the one point sizes it: the two gain blocks, then the kernels' scratch
    schemes = (TasScheme.BTAS, TasScheme.ETAS, TasScheme.RANDOM, TasScheme.OTAS)
    assert asked == [secrecy._chunk_buffer((Scenario(10.0, 10.0, 8),), schemes, size)[0]
                     for _, size in _chunk_layout(40000, 8)]
    assert all(check_otas_dominance(40000, 42, threads) == serial for threads in (2, 3))
    pools = record_pool_sizes(monkeypatch, reverse=True)
    assert check_otas_dominance(40000, 42, 5) == serial
    assert pools == [3]
