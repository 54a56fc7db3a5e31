import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasec.channel import Scenario
from tasec.errors import ConvergenceError
from tasec.experiments import db_to_linear
from tasec.quadrature import integrate_half_line
from tasec.secrecy import Method, asc_btas_closed, asc_etas_closed, asc_quadrature
from tasec.selection import TasScheme


def test_half_line_exponential():
    value = integrate_half_line(lambda x: np.exp(-x), abs_tol=1e-12)
    assert value == pytest.approx(1.0, abs=1e-11)


def test_half_line_rational():
    value = integrate_half_line(lambda x: 1.0 / (1.0 + x) ** 2, abs_tol=1e-12)
    assert value == pytest.approx(1.0, abs=1e-11)


def test_half_line_scaled_tail():
    # integrand stretched over three decades, like the wide-SNR sweeps
    beta = 1000.0
    value = integrate_half_line(lambda x: np.exp(-x / beta) / beta, abs_tol=1e-12)
    assert value == pytest.approx(1.0, abs=1e-10)


def test_one_integrand_call_per_round():
    # f vanishes at 0 and falls off past its scale, like the ASC integrand:
    # the guessed ends and the first step pass, so one call takes all nodes
    shapes = []

    def f(x):
        shapes.append(x.shape)
        return x * np.exp(-x / 10.0) / 100.0

    value = integrate_half_line(f, abs_tol=1e-12, scale=10.0)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert len(shapes) == 1 and len(shapes[0]) == 1 and shapes[0][0] > 100


def test_left_end_is_checked_not_assumed():
    # f is 1e4 at 0, so the first left end, x = abs_tol/4, would cut a mass
    # of 2.5e-9; the end check must move it out until the cut is negligible
    rate = 1e4
    value = integrate_half_line(lambda x: rate * np.exp(-rate * x),
                                abs_tol=1e-12, scale=1.0 / rate)
    assert value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("f, exact", [
    (lambda x: 1e-4 / (1e-4 + (x - 0.3) ** 2), 0.01 * (math.pi / 2 + math.atan(30.0))),
    (lambda x: np.sqrt(x) * np.exp(-x), math.sqrt(math.pi) / 2),
    (lambda x: np.exp(-x) * (1.0 + np.sin(20.0 * x)), 1.0 + 20.0 / 401.0),
], ids=["peak", "sqrt", "oscillating"])
def test_accepted_panels_share_the_tolerance(f, exact):
    # both cut tails and the last step's estimate share abs_tol; a narrow
    # peak and a fast oscillation need several halvings of the step
    abs_tol = 1e-12
    assert abs(integrate_half_line(f, abs_tol=abs_tol) - exact) <= abs_tol


def test_subdivision_cap():
    # a jump at x = 1 leaves the trapezoid error of order h, so halving h
    # cannot meet the tolerance before the node cap
    with pytest.raises(ConvergenceError, match="not met within"):
        integrate_half_line(lambda x: (x < 1.0).astype(float))


@pytest.mark.parametrize("f", [
    lambda x: 1.0 / (x - 1.0),  # a pole on the node x = exp(0)
    lambda x: np.full_like(x, np.nan),
    np.exp,  # the right end moves out until exp(x) overflows
], ids=["pole", "nan", "overflow"])
def test_non_finite_integrand(f):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="not finite"):
            integrate_half_line(f)


def test_tail_past_the_largest_double():
    # a tail that has not decayed at x = 1.8e308 cannot be cut anywhere
    with pytest.raises(ConvergenceError, match="range of a double"):
        integrate_half_line(lambda x: np.exp(-x / 1e308) / (1.0 + x), scale=1e308)


@settings(max_examples=150, deadline=None)
@given(gb_db=st.floats(-30.0, 3000.0), ge_db=st.floats(-30.0, 3000.0),
       m=st.integers(1, 64))
def test_quadrature_matches_closed_forms_over_the_range(gb_db, ge_db, m):
    scenario = Scenario(db_to_linear(gb_db), db_to_linear(ge_db), m)
    etas = asc_quadrature(scenario, TasScheme.ETAS).value
    assert etas == pytest.approx(asc_etas_closed(scenario).value, abs=1e-10)
    single = Scenario(scenario.gamma_b0, scenario.gamma_e0, 1)
    random = asc_quadrature(scenario, TasScheme.RANDOM).value
    assert random == pytest.approx(asc_etas_closed(single).value, abs=1e-10)
    closed = asc_btas_closed(scenario)
    if closed.method is Method.CLOSED:  # else it is this quadrature itself
        btas = asc_quadrature(scenario, TasScheme.BTAS).value
        assert btas == pytest.approx(closed.value, abs=1e-10)
