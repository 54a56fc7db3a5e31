import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasec import quadrature, secrecy
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


def _exp_grid_integrate(f, abs_tol=1e-10, scale=1.0):
    """integrate_half_line as it was before the node table: every grid,
    the first one too, is np.exp of its own k * h."""
    share = 0.25 * abs_tol
    lo = math.log(share)
    hi = min(math.log(2.0 * math.log(1.0 / share)) + math.log(scale), quadrature._T_LIMIT)
    hi = max(hi, lo + 2.0 * quadrature._STEP)

    def trapezoid(t, h):
        with np.errstate(all="ignore"):
            x = np.exp(t)
            g = x * np.asarray(f(x), dtype=float)
        return g, h * float(g.sum())

    h = quadrature._STEP
    while True:
        k = np.arange(math.ceil(lo / h), math.floor(hi / h) + 1)
        g, total = trapezoid(k * h, h)
        lo_open, hi_open = abs(g[0]) > share, abs(g[-1]) > share
        if not (lo_open or hi_open):
            break
        widen = 0.5 * (hi - lo)
        lo = max(lo - widen, -quadrature._T_LIMIT) if lo_open else lo
        hi = min(hi + widen, quadrature._T_LIMIT) if hi_open else hi
    coarse = 2.0 * h * float(g[k[0] % 2::2].sum())
    t0, n = k[0] * h, k.size - 1
    while abs(total - coarse) > 0.5 * abs_tol:
        _, mid = trapezoid(t0 + (np.arange(n) + 0.5) * h, 0.5 * h)
        coarse, total = total, 0.5 * total + mid
        h, n = 0.5 * h, 2 * n
    return total


def _recording(f, grids):
    """f, appending each argument it is called with to `grids`."""
    def recorded(x):
        grids.append(x)
        return f(x)
    return recorded


def test_node_table_is_read_only():
    def decay(x):
        return np.exp(-x)

    def writes(x):
        x *= 2.0
        return np.exp(-x)

    before = integrate_half_line(decay)
    with pytest.raises(ValueError, match="read-only"):
        integrate_half_line(writes)
    assert integrate_half_line(decay) == before


@pytest.mark.parametrize("scale", [1e-300, 1e-10, 1.0, 1e10, 1e300])
def test_table_grid_matches_a_per_call_exp_grid(scale):
    def f(x):
        return np.exp(-x / scale) / scale / (1.0 + x)

    grids = []
    value = integrate_half_line(_recording(f, grids), scale=scale)
    assert value == _exp_grid_integrate(f, scale=scale)
    assert np.shares_memory(grids[0], quadrature._NODES)


def test_widened_ends_match_a_per_call_exp_grid():
    # f is 1e4 at 0, so the left end moves out over further table slices
    rate = 1e4

    def f(x):
        return rate * np.exp(-rate * x)

    grids = []
    value = integrate_half_line(_recording(f, grids), abs_tol=1e-12, scale=1.0 / rate)
    assert value == _exp_grid_integrate(f, abs_tol=1e-12, scale=1.0 / rate)
    assert sum(np.shares_memory(x, quadrature._NODES) for x in grids) > 1


# Each of these halves the step; at 3,066 dB the right end clamps to the
# table's last node.
@pytest.mark.parametrize("gb_db, ge_db, m, last_node", [
    (10.0, 10.0, 32, False), (10.0, 10.0, 64, False), (3000.0, 0.0, 64, False),
    (3066.0, 0.0, 64, True),
])
def test_asc_quadrature_matches_a_per_call_exp_grid(monkeypatch, gb_db, ge_db, m,
                                                     last_node):
    scenario = Scenario(db_to_linear(gb_db), db_to_linear(ge_db), m)
    grids = []
    monkeypatch.setattr(secrecy, "integrate_half_line",
                        lambda f, **kw: integrate_half_line(_recording(f, grids), **kw))
    value = asc_quadrature(scenario, TasScheme.BTAS).value
    monkeypatch.setattr(secrecy, "integrate_half_line", _exp_grid_integrate)
    assert value == asc_quadrature(scenario, TasScheme.BTAS).value
    on_table = [np.shares_memory(x, quadrature._NODES) for x in grids]
    assert on_table[0] and not all(on_table)
    assert any(x[-1] == quadrature._NODES[-1] for x in grids) == last_node


def test_tolerance_below_the_smallest_node():
    # abs_tol/4 under exp(-709.75): the left end starts at the table's first
    # node, where the integrand has not vanished
    with pytest.raises(ConvergenceError, match="range of a double"):
        integrate_half_line(lambda x: np.exp(-x), abs_tol=1e-310)
