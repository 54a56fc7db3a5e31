import math
import sys
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasec import quadrature, secrecy, selection
from tasec.channel import Scenario
from tasec.errors import ConvergenceError
from tasec.experiments import db_to_linear
from tasec.expint import exp_scaled_e1
from tasec.quadrature import integrate_half_line
from tasec.secrecy import Method, asc_btas_closed, asc_etas_closed, asc_quadrature
from tasec.selection import TasScheme, asc_integrand, link_laws
from tasec.verification import QUAD_GRID_DB


# integrate_half_line integrates f against dx/(1 + x). The value tests take
# int_0^inf exp(-x/beta)/(1 + x) dx = exp(1/beta) E1(1/beta) from the series
# and continued fraction of `expint`, a route with no quadrature in it.

def test_half_line_exponential():
    value = integrate_half_line(lambda x: np.exp(-x), abs_tol=1e-12)
    assert value == pytest.approx(exp_scaled_e1(1.0), abs=1e-11)


def test_half_line_rational():
    value = integrate_half_line(lambda x: 1.0 / (1.0 + x), abs_tol=1e-12)
    assert value == pytest.approx(1.0, abs=1e-11)


def test_half_line_scaled_tail():
    # integrand stretched over three decades, like the wide-SNR sweeps
    beta = 1000.0
    value = integrate_half_line(lambda x: np.exp(-x / beta), abs_tol=1e-12)
    assert value == pytest.approx(exp_scaled_e1(1.0 / beta), abs=1e-10)


def test_one_integrand_call_per_round():
    # f vanishes at 0 and falls off past its scale, like the ASC integrand:
    # the guessed ends and the first step pass, so one call takes all nodes
    shapes = []

    def f(x):
        shapes.append(x.shape)
        return x * (1.0 + x) * np.exp(-x / 10.0) / 100.0

    value = integrate_half_line(f, abs_tol=1e-12, scale=10.0)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert len(shapes) == 1 and len(shapes[0]) == 1 and shapes[0][0] > 100


def test_left_end_is_checked_not_assumed():
    # f is 1e4 at 0, so the first left end, x = abs_tol/4, would cut a mass
    # of 2.5e-9; the end check must move it out until the cut is negligible
    rate = 1e4
    value = integrate_half_line(lambda x: rate * np.exp(-rate * x),
                                abs_tol=1e-12, scale=1.0 / rate)
    assert value == pytest.approx(rate * exp_scaled_e1(rate), abs=1e-12)


@pytest.mark.parametrize("f, exact", [
    (lambda x: 1e-4 / (1e-4 + (x - 0.3) ** 2), 0.01 * (math.pi / 2 + math.atan(30.0))),
    (lambda x: np.sqrt(x) * np.exp(-x), math.sqrt(math.pi) / 2),
    (lambda x: np.exp(-x) * (1.0 + np.sin(20.0 * x)), 1.0 + 20.0 / 401.0),
], ids=["peak", "sqrt", "oscillating"])
def test_accepted_panels_share_the_tolerance(f, exact):
    # both cut tails and the last step's estimate share abs_tol; a narrow
    # peak and a fast oscillation need several halvings of the step. The
    # factor 1 + x cancels the measure, so each exact value is of f alone.
    abs_tol = 1e-12
    value = integrate_half_line(lambda x: (1.0 + x) * f(x), abs_tol=abs_tol)
    assert abs(value - exact) <= abs_tol


def test_subdivision_cap():
    # a jump at x = 1 leaves the trapezoid error of order h, so halving h
    # cannot meet the tolerance before the node cap
    with pytest.raises(ConvergenceError, match="not met within"):
        integrate_half_line(lambda x: (x < 1.0).astype(float))


def _pole(x):
    return 1.0 / (x - 1.0)  # a pole on the node x = exp(0)


# The integrand owns its floating-point state, so one that divides by zero or
# overflows enters np.errstate itself, as the ASC integrand does.
@pytest.mark.parametrize("f", [
    np.errstate(all="ignore")(_pole),
    lambda x: np.full_like(x, np.nan),
    np.errstate(all="ignore")(np.exp),  # the right end moves out until exp(x) overflows
], ids=["pole", "nan", "overflow"])
def test_non_finite_integrand(f):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="not finite"):
            integrate_half_line(f)


@pytest.mark.parametrize("f, message", [(_pole, "divide by zero"), (np.exp, "overflow")],
                         ids=["pole", "overflow"])
def test_the_integrand_is_not_silenced(f, message):
    # integrate_half_line enters no np.errstate: f runs in the caller's state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match=message):
            integrate_half_line(f)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError, match=message):
        integrate_half_line(f)


def test_tail_past_the_largest_double():
    # a tail that has not decayed at x = 1.8e308 cannot be cut anywhere
    with pytest.raises(ConvergenceError, match="range of a double"):
        integrate_half_line(lambda x: np.exp(-x / 1e308), scale=1e308)


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


def _asc_weights(x, h):
    """h x/(1 + x), the weights of the measure dx/(1 + x) in t = ln x."""
    return x / (1.0 + x) * h


def _plain_weights(x, h):
    """h x, the weights of the plain measure dx in t = ln x."""
    return x * h


def _exp_grid_integrate(f, abs_tol=1e-10, scale=1.0, weights=_asc_weights):
    """integrate_half_line without its tables: every grid, the first one
    too, is np.exp of its own k * h, and its weights are formed per call.
    With `_plain_weights` it integrates f against dx, as integrate_half_line
    did before it took the measure dx/(1 + x)."""
    share = 0.25 * abs_tol
    lo = math.log(share)
    hi = min(math.log(2.0 * math.log(1.0 / share)) + math.log(scale), quadrature._T_LIMIT)
    hi = max(hi, lo + 2.0 * quadrature._STEP)

    def trapezoid(t, h):
        with np.errstate(all="ignore"):
            x = np.exp(t)
            g = np.asarray(f(x), dtype=float) * weights(x, h)
        return g, float(g.sum())

    h = quadrature._STEP
    while True:
        k = np.arange(math.ceil(lo / h), math.floor(hi / h) + 1)
        g, total = trapezoid(k * h, h)
        lo_open, hi_open = abs(g[0]) / h > share, abs(g[-1]) / h > share
        if not (lo_open or hi_open):
            break
        widen = 0.5 * (hi - lo)
        lo = max(lo - widen, -quadrature._T_LIMIT) if lo_open else lo
        hi = min(hi + widen, quadrature._T_LIMIT) if hi_open else hi
    coarse = 2.0 * float(g[k[0] % 2::2].sum())
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


def test_the_result_of_f_is_overwritten_with_x_f():
    # f's result is multiplied by the weights w = h x/(1 + x) in place: the
    # first grid's array holds f(x) w after the call, the doubles of
    # f(x) * (x / (1 + x) * h)
    results = []

    def f(x):
        results.append((x, np.exp(-x)))
        return results[-1][1]

    integrate_half_line(f)
    x, y = results[0]
    assert np.array_equal(y, np.exp(-x) * (x / (1.0 + x) * quadrature._STEP))
    assert not quadrature._WEIGHTS.flags.writeable


def read_only(y):
    y.flags.writeable = False
    return y


@pytest.mark.parametrize("f", [
    lambda x: x,
    lambda x: x[::-1],
    lambda x: quadrature._NODES[:x.size],
    lambda x: quadrature._NODES[:1],
], ids=["x", "reversed-x", "table-slice", "table-element"])
def test_f_may_not_return_the_node_table(f):
    nodes = quadrature._NODES.copy()
    with pytest.raises(ValueError, match="read-only"):
        integrate_half_line(f)
    assert np.array_equal(quadrature._NODES, nodes)
    assert not quadrature._NODES.flags.writeable


@pytest.mark.parametrize("f", [
    lambda x: list(np.exp(-x)),
    lambda x: np.exp(-x).astype(np.float32),
    lambda x: read_only(np.exp(-x)),
], ids=["list", "float32", "read-only"])
def test_any_array_like_result_is_accepted(f):
    # A result that cannot take x in place is converted or multiplied out of
    # place, as before: the doubles of a new array of the same values
    expected = integrate_half_line(lambda x: np.array(f(x), dtype=float))
    assert integrate_half_line(f) == expected


@pytest.mark.parametrize("f", [
    lambda x: 0.0, lambda x: np.float64(0.0), lambda x: np.zeros(()),
    lambda x: np.broadcast_to(0.0, x.shape), lambda x: (x < 0.0).astype(int),
], ids=["float", "numpy-scalar", "0-d", "broadcast", "int-array"])
def test_scalar_and_other_dtype_results_are_accepted(f):
    assert integrate_half_line(f) == 0.0


@pytest.mark.parametrize("scale", [1e-300, 1e-10, 1.0, 1e10, 1e300])
def test_table_grid_matches_a_per_call_exp_grid(scale):
    def f(x):
        return np.exp(-x / scale) / scale

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


def _out_of_place_integrand(scheme, scenario):
    """asc_quadrature's integrand as it was before the in-place link-law
    kernels and the measure dx/(1 + x): each law's expression verbatim, then
    F_E (1 - F_B) / (1 + x), to integrate against dx."""
    gb, ge, m = scenario.gamma_b0, scenario.gamma_e0, scenario.num_antennas

    def cdf_exp(x, beta):
        return -np.expm1(-x / beta)

    def sf_exp(x, beta):
        return np.exp(-x / beta)

    def sf_max(x, beta, m):
        with np.errstate(divide="ignore"):
            return -np.expm1(m * np.log1p(-np.exp(-x / beta)))

    def cdf_min(x, beta, m):
        return -np.expm1(-(m / beta) * x)

    f_eve, sf_bob = {
        TasScheme.BTAS: (lambda x: cdf_exp(x, ge), lambda x: sf_max(x, gb, m)),
        TasScheme.ETAS: (lambda x: cdf_min(x, ge, m), lambda x: sf_exp(x, gb)),
        TasScheme.RANDOM: (lambda x: cdf_exp(x, ge), lambda x: sf_exp(x, gb)),
    }[scheme]
    return lambda x: f_eve(x) * sf_bob(x) / (1.0 + x)


# The measure dx/(1 + x) rounds each term as f (x/(1 + x)) h, where the old
# integrand rounded it as (f/(1 + x)) x h: a few ulp of each positive term,
# and of their sum.
OUT_OF_PLACE_REL_TOL = 16 * sys.float_info.epsilon


@pytest.mark.parametrize("scheme", [TasScheme.BTAS, TasScheme.ETAS, TasScheme.RANDOM])
def test_asc_quadrature_matches_the_out_of_place_integrand(scheme):
    # The whole route against the old integrand on the old integrator, over
    # -30..40 dB and M up to 64, within OUT_OF_PLACE_REL_TOL
    for gb_db, ge_db, m in product(QUAD_GRID_DB, QUAD_GRID_DB, (1, 2, 8, 64)):
        scenario = Scenario(db_to_linear(gb_db), db_to_linear(ge_db), m)
        reference = _exp_grid_integrate(_out_of_place_integrand(scheme, scenario),
                                        scale=link_laws(scheme, scenario)[2],
                                        weights=_plain_weights)
        assert math.isclose(asc_quadrature(scenario, scheme).value,
                            max(0.0, reference / math.log(2.0)),
                            rel_tol=OUT_OF_PLACE_REL_TOL, abs_tol=0.0), (gb_db, ge_db, m)


@pytest.mark.parametrize("state", [{}, {"all": "raise"}, {"over": "warn", "under": "raise"}])
def test_asc_quadrature_leaves_the_floating_point_state(state):
    with np.errstate(**state):
        before = np.geterr()
        asc_quadrature(Scenario(10.0, 10.0, 8), TasScheme.BTAS)
        assert np.geterr() == before
        # a quadrature inside the integrand of another restores the state too
        integrate_half_line(lambda x: np.exp(-x) * integrate_half_line(lambda y: np.exp(-y)))
        assert np.geterr() == before
        # the tail has not vanished at the largest double
        with pytest.raises(ConvergenceError):
            asc_quadrature(Scenario(db_to_linear(3080.0), 1.0, 32), TasScheme.BTAS)
        assert np.geterr() == before


# numpy's default floating-point state: underflow is ignored, and the rest warn
DEFAULT_STATE = {"divide": "warn", "over": "warn", "under": "ignore", "invalid": "warn"}
QUIET_GAMMAS = (1e-300, 1e-30, 1.0, 1e30, 1e300)
QUIET_ANTENNAS = (1, 2, 64, 1029)


def _asc_grids(scale):
    """The first grid integrate_half_line forms at `scale`, the whole node
    table, and that first grid halved as integrate_half_line halves it."""
    grids = []
    integrate_half_line(lambda x: grids.append(x) or np.zeros(x.size), scale=scale)
    first, h = grids[0], quadrature._STEP
    t0 = round(math.log(first[0]) / h) * h
    return first, quadrature._NODES, np.exp(t0 + (np.arange(first.size - 1) + 0.5) * h)


def _unguarded(scheme, scenario):
    """asc_integrand's product of link-law kernels, without its np.errstate."""
    (eve, eve_args), (bob, bob_args), _, _ = selection._kernels(scheme, scenario)
    return lambda x: eve(x, *eve_args) * bob(x, *bob_args)


@pytest.mark.parametrize("scheme", [TasScheme.BTAS, TasScheme.ETAS, TasScheme.RANDOM])
def test_asc_integrand_is_quiet_on_every_grid(scheme):
    # In numpy's default state, with every warning an error, the integrand
    # raises nothing on the quadrature's grids, and its values are the
    # kernels' own, evaluated with every floating-point error ignored
    for gb, ge, m in product(QUIET_GAMMAS, QUIET_GAMMAS, QUIET_ANTENNAS):
        scenario = Scenario(gb, ge, m)
        integrand, _, scale = asc_integrand(scheme, scenario)
        for x in _asc_grids(scale):
            with warnings.catch_warnings(), np.errstate(**DEFAULT_STATE):
                warnings.simplefilter("error")
                y = integrand(x)
            with np.errstate(all="ignore"):
                expected = _unguarded(scheme, scenario)(x)
            assert y.tobytes() == expected.tobytes(), (gb, ge, m)


# A grid past each end of the integrand's quiet range, by that end's margin:
# below gamma_b0 2^-52 by 2^4 for btas, where exp(-x/gamma_b0) rounds to 1;
# past M = 2^1000 by 2^19 at x = gamma_b0 2^-52, where M log1p(-exp(-x/gamma_b0))
# overflows; and above the smaller mean times 2^1000 by 2^25, where x over it
# overflows. The integrand runs each in np.errstate, and raises nothing.
@pytest.mark.parametrize("scheme, scenario, x, message", [
    (TasScheme.BTAS, Scenario(1.0, 1.0, 2), 2.0 ** -56, "divide by zero"),
    (TasScheme.BTAS, Scenario(1e30, 1.0, 64), math.ldexp(1e30, -56), "divide by zero"),
    (TasScheme.BTAS, Scenario(1.0, 1.0, 2 ** 1019), 2.0 ** -52, "overflow"),
    (TasScheme.BTAS, Scenario(1.0, 1e-30, 64), math.ldexp(1e-30, 1025), "overflow"),
    (TasScheme.BTAS, Scenario(1e-30, 1.0, 64), math.ldexp(1e-30, 1025), "overflow"),
    (TasScheme.ETAS, Scenario(1.0, 1e-30, 64), math.ldexp(1e-30 / 64, 1025), "overflow"),
    (TasScheme.ETAS, Scenario(1e-30, 1.0, 64), math.ldexp(1e-30, 1025), "overflow"),
    (TasScheme.RANDOM, Scenario(1.0, 1e-30, 64), math.ldexp(1e-30, 1025), "overflow"),
    (TasScheme.RANDOM, Scenario(1e-30, 1.0, 64), math.ldexp(1e-30, 1025), "overflow"),
], ids=["btas-low", "btas-low-1e30", "btas-huge-m", "btas-high-eve", "btas-high-bob",
        "etas-high-eve", "etas-high-bob", "random-high-eve", "random-high-bob"])
def test_each_end_of_the_quiet_range_is_needed(scheme, scenario, x, message):
    x = np.array([x, x])
    unguarded = _unguarded(scheme, scenario)
    with warnings.catch_warnings(), np.errstate(**DEFAULT_STATE):
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match=message):
            unguarded(x)
        y = asc_integrand(scheme, scenario)[0](x)
    with np.errstate(all="ignore"):
        assert y.tobytes() == unguarded(x).tobytes()
