import math
import sys
import threading
from functools import reduce
from itertools import product

import numpy as np
import pytest

from tasec.channel import RngStream, Scenario, draw_gain_blocks
from tasec.errors import UnsupportedSchemeError
from tasec import secrecy
from tasec.secrecy import (MC_CHUNK_SIZE, AscEstimate, Method, _chunk_layout,
                           _chunk_moments, asc, asc_btas_closed, asc_etas_closed,
                           asc_quadrature, mc_asc, secrecy_capacity)
from tasec.selection import TasScheme, snr_ratios

from faults import drop_last_antenna, negate_btas_terms, scale_bob_gains
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
    layout = _chunk_layout(trials)
    assert sum(size for _, size in layout) == trials
    assert [index for index, _ in layout] == list(range(len(layout)))
    assert all(size == MC_CHUNK_SIZE for _, size in layout[:-1])
    assert 1 <= layout[-1][1] <= MC_CHUNK_SIZE


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


def record_pool_sizes(monkeypatch):
    """Replace mc_asc's ThreadPoolExecutor by a serial stand-in that starts
    no thread; returns the list of `max_workers` it was asked for."""
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
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

def argmax_moments(scenario, bob, eve):
    """Chunk moments the way O-TAS was first computed: select the index,
    gather both links there, and take the clamped log of their SNR ratio."""
    with np.errstate(all="ignore"):
        idx = np.argmax(snr_ratios(scenario, bob.copy(), eve.copy()), axis=1)
        rows = np.arange(bob.shape[0])
        cs = secrecy_capacity(scenario.gamma_b0 * bob[rows, idx],
                              scenario.gamma_e0 * eve[rows, idx])
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
        got = _chunk_moments(scenario, TasScheme.OTAS, rng, 3, size)
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
    got = _chunk_moments(scenario, TasScheme.OTAS, RngStream(1), 0, len(rows))
    assert repr(got) == repr(argmax_moments(scenario, bob, eve))


def argmax_estimate(scenario, trials, rng):
    """O-TAS (value, std_error) from `argmax_moments` on each chunk's draw into
    new arrays, merged in chunk order by Chan's update."""
    moments = [argmax_moments(scenario, *draw_gain_blocks(scenario, rng.substream(i), size))
               for i, size in _chunk_layout(trials)]
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
    # one thread drew every chunk into the one pair the first chunk grew
    assert [(b.size, e.size) for b, e in secrecy._idle_buffers] == [
        (64 * MC_CHUNK_SIZE, 64 * MC_CHUNK_SIZE)]


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
