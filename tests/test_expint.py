import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasec import expint
from tasec.expint import EULER_GAMMA, delta_e, exp_scaled_e1

from oracles import scaled_e1_oracle

# Frozen against adaptive quadrature of the defining integral (and the small-x
# series for the 1e-10 point); see oracles.scaled_e1_oracle.
E1_AT_1 = 0.21938393439552029
E1_AT_2 = 0.04890051070806112
E1_AT_1E10 = 22.448635265138925
SCALED_AT_1 = 0.5963473623231941
SCALED_AT_2 = 0.3613286168882226
DELTA_1_2 = 0.23501874543497148
# exp(x) E1(x) at the doubles just above 1, by mpmath at 40 digits: the
# continued fraction converges most slowly there.
SCALED_NEAR_1 = {
    1.0000000000000011: 0.5963473623231936261966262,
    1.0001: 0.5963070000409292868529703,
    1.5: 0.4482566692915829539169317,
}


def e1(x):
    return math.exp(-x) * exp_scaled_e1(x)


def test_reference_values():
    assert e1(1.0) == pytest.approx(E1_AT_1, rel=1e-13)
    assert e1(2.0) == pytest.approx(E1_AT_2, rel=1e-13)
    assert exp_scaled_e1(1.0) == pytest.approx(SCALED_AT_1, rel=1e-13)
    assert exp_scaled_e1(2.0) == pytest.approx(SCALED_AT_2, rel=1e-13)


def test_small_argument_series_regime():
    # diverges like -euler_gamma - ln x near zero
    assert e1(1e-10) == pytest.approx(E1_AT_1E10, rel=1e-13)
    series_head = -EULER_GAMMA - math.log(1e-10)
    assert e1(1e-10) == pytest.approx(series_head, rel=1e-9)


@pytest.mark.parametrize("bad", [0.0, -1.0, -1e300, float("nan"), float("inf")])
def test_domain_errors(bad):
    with pytest.raises(ValueError):
        exp_scaled_e1(bad)
    with pytest.raises(ValueError):
        delta_e(bad, 1.0)
    with pytest.raises(ValueError):
        delta_e(1.0, bad)


def test_scaled_large_argument_asymptote():
    x = 1e6
    assert exp_scaled_e1(x) == pytest.approx((1 / x) * (1 - 1 / x), rel=1e-5)


@pytest.mark.parametrize("x", [1e290, 1e300, 1e305, 1.7e308])
def test_scaled_huge_argument_is_reciprocal(x):
    # exp(x) E1(x) = (1/x)(1 - 1/x + ...), so 1/x is exact to rounding
    assert exp_scaled_e1(x) == pytest.approx(1.0 / x, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("x", sorted(SCALED_NEAR_1))
def test_scaled_just_above_one(x):
    assert exp_scaled_e1(x) == pytest.approx(SCALED_NEAR_1[x], rel=1e-15, abs=0.0)


def test_scaled_tiny_argument_limit():
    # exp(x) ~ 1 + x, so the scaled form collapses onto E1 itself, whose
    # series is -euler_gamma - ln x + O(x)
    x = 1e-12
    assert exp_scaled_e1(x) == pytest.approx(-EULER_GAMMA - math.log(x), rel=1e-11)


def test_delta_identities():
    assert delta_e(3.7, 3.7) == 0.0
    assert delta_e(1.0, 2.0) == pytest.approx(DELTA_1_2, rel=1e-13)
    assert delta_e(2.0, 1.0) == -delta_e(1.0, 2.0)
    assert delta_e(1.0, 2.0) > 0.0


def test_scaled_strictly_decreasing_on_log_grid():
    grid = np.logspace(-8, 8, 400)
    values = [exp_scaled_e1(float(x)) for x in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6))
def test_bracketing_bound(x):
    value = exp_scaled_e1(x)
    assert 1.0 / (x + 1.0) < value < 1.0 / x


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.01, max_value=100.0),
       st.floats(min_value=0.01, max_value=100.0),
       st.floats(min_value=0.01, max_value=100.0))
def test_delta_additivity(a, b, c):
    assert delta_e(a, b) + delta_e(b, c) == pytest.approx(delta_e(a, c), abs=1e-12)


def test_matches_quadrature_oracle():
    rng = np.random.default_rng(20240817)
    points = np.exp(rng.uniform(math.log(1e-6), math.log(700.0), size=100))
    for x in points:
        x = float(x)
        assert exp_scaled_e1(x) == pytest.approx(scaled_e1_oracle(x), rel=1e-10)


def test_series_term_table_keeps_every_bit(monkeypatch):
    # A shorter series drops less than 2^-74, far below half an ulp of the
    # result, so it rounds to the same double as the full 20-term sum: at
    # each cut, just past it, and over a log grid of (0, 1].
    edges = [x_max * f for x_max, _ in expint._SERIES_CUTS
             for f in (1.0 - 1e-12, 1.0, 1.0 + 1e-12)]
    points = edges + list(np.logspace(-12.0, 0.0, 4001))
    short = [expint._e1_scaled_series(x) for x in points]
    monkeypatch.setattr(expint, "_SERIES_CUTS", ())
    assert short == [expint._e1_scaled_series(x) for x in points]


def _int_loop_scaled_e1(x):
    """exp(x) E1(x) by both recurrences with every coefficient formed from
    ints inside the loop, the form before the coefficient tables."""
    if x > 1.0:
        depth = 8 + int(120.0 / x)
        tail = x + (2 * depth + 1)
        for k in range(depth, 0, -1):
            tail = x + (2 * k - 1) - k * k / tail
        return 1.0 / tail
    terms = next((n for x_max, n in expint._SERIES_CUTS if x <= x_max),
                 expint._SERIES_TERMS)
    nested = 1.0
    for k in range(terms - 1, 0, -1):
        nested = 1.0 - x * k / ((k + 1) * (k + 1)) * nested
    log_part = -math.log(x)
    rest = x * nested - EULER_GAMMA
    return log_part + (math.expm1(x) * (log_part + rest) + rest)


def test_coefficient_tables_match_the_int_loops_bit_for_bit():
    # The tables hold small integers, exact as doubles, so every step is the
    # same IEEE operation: over the whole domain, more densely over the two
    # decades on each side of 1 where both loops run longest, at and around
    # each series cut, at the branch point 1 and at the deepest fraction.
    rng = np.random.default_rng(20261019)
    top = math.log(sys.float_info.max)
    points = [float(x) for x in np.exp(rng.uniform(math.log(5e-324), top, 100_000))]
    points += [float(x) for x in np.exp(rng.uniform(math.log(0.01), math.log(100.0), 20_000))]
    points += [5e-324, sys.float_info.max, 1.0, math.nextafter(1.0, 2.0)]
    for x_max, _ in expint._SERIES_CUTS:
        points += [float(x) for x in np.linspace(0.999 * x_max, 1.001 * x_max, 201)]
        points.append(x_max)
    assert 8 + int(120.0 / math.nextafter(1.0, 2.0)) == len(expint._CF_TERMS)
    points = [x for x in points if x > 0.0]
    mismatches = [x for x in points if exp_scaled_e1(x) != _int_loop_scaled_e1(x)]
    assert len(points) > 100_000 and mismatches == []
