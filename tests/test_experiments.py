import math

import numpy as np
import pytest

from tasec import experiments, secrecy
from tasec.channel import RngStream, Scenario
from tasec.errors import DegenerateNormalizationError, NoCrossoverError
from tasec.experiments import (DEFAULT_BRACKET_DB, SweepRow, SweepSpec, SweptParameter,
                               adaptive_scheme, db_to_linear, find_crossover,
                               run_sweep)
from tasec.secrecy import MC_CHUNK_SIZE, asc_btas_closed, asc_etas_closed, mc_asc_curve
from tasec.selection import TasScheme

from faults import scale_otas_ratios
from oracles import low_snr_crossover_ratio

# Crossover ratios gamma_e0/gamma_b0 [dB] for M=8, frozen from a bisection
# run over the closed forms (independently confirmed at 30-digit precision).
CROSSOVER_GOLDEN_DB = {
    10.0: -1.2306619993821917,
    20.0: -8.7027045004341913,
    30.0: -18.071917367716731,
}

# Crossover ratios [dB] in the strong-eavesdropper, low-SNR regime, where
# both ASC values are far below 1e-9 bits/s/Hz: roots of the 60-digit
# B-TAS - E-TAS gap (mpmath.findroot), keyed by (gamma_b0 [dB], M).
CROSSOVER_DEEP_DB = {
    (-90.0, 2): 7.30158745659208, (-90.0, 8): 8.48652471792094,
    (-90.0, 16): 9.26480440240237, (-70.0, 2): 7.30158640001782,
    (-70.0, 8): 8.48652355090054, (-70.0, 16): 9.26480315519041,
    (-50.0, 2): 7.30148074559247, (-50.0, 8): 8.48640685216274,
    (-50.0, 16): 9.26467843758036,
}


def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
    assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-15)
    with pytest.raises(ValueError):
        db_to_linear(float("inf"))
    with pytest.raises(ValueError, match=r"4000.0/10\) overflows a float"):
        db_to_linear(4000.0)
    with pytest.raises(ValueError, match=r"^dB value -4000.0 is out of range: "
                                         r"10\^\(-4000.0/10\) underflows to 0$"):
        db_to_linear(-4000.0)
    assert db_to_linear(-3230.0) == 1e-323  # a subnormal ratio is still > 0


# ----------------------------------------------------------------------------
# SweepSpec validation
# ----------------------------------------------------------------------------

def closed_spec(**overrides):
    params = dict(swept=SweptParameter.GAMMA_B_DB, start_db=-10.0, stop_db=10.0,
                  points=3, fixed_gamma_db=10.0, antennas=(2,),
                  schemes=(TasScheme.BTAS,))
    params.update(overrides)
    return SweepSpec(**params)


def test_spec_validation():
    with pytest.raises(ValueError):
        closed_spec(start_db=10.0, stop_db=-10.0)
    with pytest.raises(ValueError):
        closed_spec(points=1)
    with pytest.raises(ValueError):
        closed_spec(antennas=(0,))
    with pytest.raises(ValueError):
        closed_spec(schemes=())
    with pytest.raises(ValueError, match="at least one antenna count"):
        closed_spec(antennas=())
    for bad in (math.nan, math.inf, -math.inf):
        for field in ("start_db", "stop_db", "fixed_gamma_db"):
            with pytest.raises(ValueError):
                closed_spec(**{field: bad})
    with pytest.raises(ValueError):
        closed_spec(schemes=(TasScheme.OTAS,), mc_trials=0)
    with pytest.raises(ValueError):
        closed_spec(normalize_to_otas=True, mc_trials=1)
    spec = closed_spec(schemes=("btas", "etas"))
    assert spec.schemes == (TasScheme.BTAS, TasScheme.ETAS)
    # Counts are integers: no silent truncation of floats or bools.
    for antennas in ((2.7,), (2.0,), (True,), (4, False), ("2",)):
        with pytest.raises(ValueError, match="antenna count must be an integer"):
            closed_spec(antennas=antennas)
    for trials in (2.5, 1e5, True):
        with pytest.raises(ValueError, match="mc_trials must be an integer"):
            closed_spec(schemes=(TasScheme.OTAS,), mc_trials=trials)
    for points in (3.0, 2.5, True):
        with pytest.raises(ValueError, match="points must be an integer"):
            closed_spec(points=points)
    spec = closed_spec(antennas=(np.int64(4), np.int32(2)),
                       schemes=(TasScheme.OTAS,), mc_trials=np.int64(4),
                       points=np.int64(3))
    assert spec.antennas == (4, 2) and type(spec.antennas[0]) is int
    assert spec.mc_trials == 4 and type(spec.mc_trials) is int
    assert spec.points == 3 and type(spec.points) is int
    assert [r.antennas for r in run_sweep(spec)] == [2, 4] * 3


@pytest.mark.parametrize("swept,start_db,stop_db,fixed_db,bad_db,fault", [
    ("gamma-b", 0.0, 4000.0, 10.0, 4000.0, "overflows"),
    ("gamma-b", -4000.0, 0.0, 10.0, -4000.0, "underflows"),
    ("gamma-b", 0.0, 10.0, 4000.0, 4000.0, "overflows"),
    ("gamma-e", 0.0, 4000.0, 10.0, 4000.0, "overflows"),
    ("gamma-e", -4000.0, 0.0, 10.0, -4000.0, "underflows"),
    ("gamma-e", 0.0, 10.0, -4000.0, -4000.0, "underflows"),
    # the eavesdropper sits at fixed + ratio, out of range where the ratio alone is not
    ("ratio", 0.0, 3000.0, 300.0, 3300.0, "overflows"),
    ("ratio", -3000.0, 0.0, -300.0, -3300.0, "underflows"),
    ("ratio", 0.0, 10.0, 4000.0, 4000.0, "overflows"),
])
def test_spec_rejects_out_of_range_grid(swept, start_db, stop_db, fixed_db,
                                        bad_db, fault):
    with pytest.raises(ValueError, match=f"{bad_db!r}.*{fault}"):
        closed_spec(swept=swept, start_db=start_db, stop_db=stop_db,
                    fixed_gamma_db=fixed_db)


@pytest.mark.parametrize("overrides, expected", [
    (dict(schemes=("etas", "btas")), ()),
    (dict(schemes=("random", "btas", "otas")), ("otas", "random")),
    (dict(schemes=("etas", "btas"), mc_overlay=True), ("btas", "etas")),
    (dict(schemes=("random", "etas"), normalize_to_otas=True), ("random", "otas")),
    (dict(schemes=("otas", "btas"), normalize_to_otas=True), ("otas",)),
])
def test_spec_mc_schemes(overrides, expected):
    # one rule for which rows are Monte Carlo; a sweep needs Monte Carlo,
    # and so mc_trials >= 2, exactly where it is not empty
    spec = closed_spec(mc_trials=2, **overrides)
    assert spec.mc_schemes == tuple(map(TasScheme, expected))
    if expected:
        with pytest.raises(ValueError, match="mc_trials >= 2"):
            closed_spec(mc_trials=1, **overrides)
    else:
        assert closed_spec(mc_trials=0, **overrides).mc_schemes == ()


def test_spec_rejects_tiny_snr_at_largest_antenna_count():
    # 64/10^-307 overflows a double; 8/10^-307 does not.
    for swept in ("gamma-b", "gamma-e"):
        with pytest.raises(ValueError, match="gamma_b0=.*gamma_e0=.*too small at M=64"):
            closed_spec(swept=swept, start_db=-3070.0, stop_db=0.0, antennas=(8, 64))
        closed_spec(swept=swept, start_db=-3070.0, stop_db=0.0, antennas=(8,))
    with pytest.raises(ValueError, match="gamma_e0=1e-307"):
        closed_spec(swept="ratio", start_db=-3070.0, stop_db=0.0,
                    fixed_gamma_db=0.0, antennas=(64,))


def test_spec_accepts_grid_edges_in_range():
    for swept in ("gamma-b", "gamma-e", "ratio"):
        closed_spec(swept=swept, start_db=-3000.0, stop_db=3000.0,
                    fixed_gamma_db=0.0)


def test_sweep_cardinality_contract():
    rows = run_sweep(closed_spec(points=2))
    assert len(rows) == 2
    assert [r.swept_value_db for r in rows] == [-10.0, 10.0]
    assert all(r.method == "closed" and r.std_error is None and r.trials is None
               for r in rows)


def test_sweep_row_ordering_and_grid():
    spec = closed_spec(points=3, antennas=(8, 2),
                       schemes=(TasScheme.ETAS, TasScheme.BTAS))
    rows = run_sweep(spec)
    assert len(rows) == 12
    key = [(r.swept_value_db, r.antennas, r.scheme, r.method) for r in rows]
    assert key == sorted(key)
    # swept axis is gamma_b; the fixed reference rides along
    assert all(r.gamma_e0_db == 10.0 for r in rows)
    assert {r.gamma_b0_db for r in rows} == {-10.0, 0.0, 10.0}


def test_sweep_ratio_axis():
    spec = closed_spec(swept=SweptParameter.RATIO_DB, start_db=-5.0, stop_db=5.0,
                       points=3, fixed_gamma_db=20.0)
    rows = run_sweep(spec)
    assert [r.gamma_e0_db for r in rows] == [15.0, 20.0, 25.0]
    assert all(r.gamma_b0_db == 20.0 for r in rows)


def test_sweep_shape_matches_wide_scan():
    # with a 10 dB eavesdropper, the eavesdropper-based criterion wins at low
    # legitimate SNR and loses once the legitimate link dominates
    spec = closed_spec(start_db=0.0, stop_db=40.0, points=2, antennas=(2, 8),
                       schemes=(TasScheme.BTAS, TasScheme.ETAS))
    rows = run_sweep(spec)
    by_key = {(r.swept_value_db, r.antennas, r.scheme): r.asc for r in rows}
    for m in (2, 8):
        assert by_key[(0.0, m, "etas")] > by_key[(0.0, m, "btas")]
        assert by_key[(40.0, m, "btas")] > by_key[(40.0, m, "etas")]


def test_sweep_legitimate_axis_reproduction():
    # 61-point scan of the legitimate SNR with a 10 dB eavesdropper: one row
    # per point/antenna-count/scheme, with the expected winner on each side
    spec = closed_spec(start_db=-10.0, stop_db=40.0, points=61,
                       fixed_gamma_db=10.0, antennas=(2, 8),
                       schemes=(TasScheme.OTAS, TasScheme.BTAS, TasScheme.ETAS),
                       mc_trials=4096, seed=1)
    rows = run_sweep(spec)
    assert len(rows) == 61 * 2 * 3
    by_key = {(r.swept_value_db, r.antennas, r.scheme): r.asc for r in rows}
    for m in (2, 8):
        for swept in (30.0, 35.0, 40.0):
            assert by_key[(swept, m, "btas")] > by_key[(swept, m, "etas")]
        assert by_key[(0.0, m, "etas")] > by_key[(0.0, m, "btas")]


def test_sweep_eavesdropper_axis_reproduction():
    # scanning the eavesdropper SNR at a fixed 10 dB legitimate link: once the
    # eavesdropper is strong, the eavesdropper-based criterion wins
    spec = closed_spec(swept=SweptParameter.GAMMA_E_DB, start_db=-10.0,
                       stop_db=40.0, points=6, fixed_gamma_db=10.0,
                       antennas=(2, 8), schemes=(TasScheme.BTAS, TasScheme.ETAS))
    rows = run_sweep(spec)
    by_key = {(r.swept_value_db, r.antennas, r.scheme): r.asc for r in rows}
    for m in (2, 8):
        assert by_key[(30.0, m, "etas")] > by_key[(30.0, m, "btas")]
    assert all(r.gamma_b0_db == 10.0 for r in rows)


def test_sweep_mc_rows_and_determinism():
    spec = closed_spec(points=2, schemes=(TasScheme.OTAS, TasScheme.BTAS),
                       mc_trials=20_000, seed=7)
    rows_a = run_sweep(spec, threads=1)
    rows_b = run_sweep(spec, threads=4)
    assert rows_a == rows_b
    otas_rows = [r for r in rows_a if r.scheme == "otas"]
    assert all(r.method == "mc" and r.trials == 20_000 and r.std_error > 0.0
               for r in otas_rows)


def test_sweep_mc_overlay_adds_validation_rows():
    spec = closed_spec(points=2, mc_trials=10_000, mc_overlay=True, seed=3)
    rows = run_sweep(spec)
    assert len(rows) == 4
    methods = [(r.swept_value_db, r.method) for r in rows]
    assert methods == [(-10.0, "closed"), (-10.0, "mc"),
                       (10.0, "closed"), (10.0, "mc")]
    closed = {r.swept_value_db: r.asc for r in rows if r.method == "closed"}
    for r in rows:
        if r.method == "mc":
            assert abs(r.asc - closed[r.swept_value_db]) <= 4.0 * r.std_error


def test_sweep_normalization():
    spec = closed_spec(points=2, start_db=5.0, stop_db=15.0,
                       schemes=(TasScheme.OTAS, TasScheme.BTAS, TasScheme.ETAS),
                       mc_trials=200_000, seed=11, normalize_to_otas=True)
    rows = run_sweep(spec)
    for r in rows:
        if r.scheme == "otas":
            assert r.asc == 1.0
        else:
            assert 0.0 <= r.asc <= 1.0 + 0.05


def test_sweep_mc_row_does_not_depend_on_the_rest_of_the_grid():
    # A curve's realizations are drawn per (antenna count, scheme), not per
    # grid point, so a point's Monte Carlo rows are the same in any grid
    # that contains it.
    def rows_at(stop_db, points):
        spec = closed_spec(start_db=0.0, stop_db=stop_db, points=points,
                           antennas=(2, 16), schemes=("otas", "btas", "random"),
                           mc_trials=MC_CHUNK_SIZE + 100, seed=9, mc_overlay=True)
        return [r for r in run_sweep(spec, threads=2)
                if r.swept_value_db in (0.0, 10.0) and r.method == "mc"]

    short = rows_at(10.0, 2)
    assert len(short) == 2 * 2 * 3
    assert short == rows_at(30.0, 4)


def test_sweep_matches_one_mc_asc_curve_per_antenna_count_and_scheme():
    # one call per antenna count serves every scheme, on the substream that
    # O-TAS alone used before schemes shared their realizations
    spec = closed_spec(start_db=0.0, stop_db=20.0, points=3, antennas=(4, 2),
                       schemes=("otas", "etas", "random"), mc_trials=5000, seed=21,
                       mc_overlay=True)
    rows = [r for r in run_sweep(spec) if r.method == "mc"]
    base = RngStream(21)
    for mi, m in enumerate((2, 4)):
        scenarios = [Scenario(db_to_linear(v), db_to_linear(10.0), m)
                     for v in (0.0, 10.0, 20.0)]
        curves = mc_asc_curve(scenarios, (TasScheme.ETAS, TasScheme.OTAS,
                                          TasScheme.RANDOM), 5000, base.substream(mi, 0))
        for scheme, curve in curves.items():
            got = [r for r in rows if r.antennas == m and r.scheme == scheme.value]
            assert [(r.asc, r.std_error) for r in got] == [
                (e.value, e.std_error) for e in curve]


def test_sweep_draws_each_chunk_once_per_antenna_count(monkeypatch):
    draws = []
    draw = secrecy.draw_gain_blocks

    def counted(scenario, rng, count, out=None):
        draws.append((scenario.num_antennas, count))
        return draw(scenario, rng, count, out=out)

    monkeypatch.setattr(secrecy, "draw_gain_blocks", counted)
    calls = []
    curves = experiments._mc_asc_curves
    monkeypatch.setattr(experiments, "_mc_asc_curves",
                        lambda *args: calls.append(len(args[0])) or curves(*args))
    spec = closed_spec(start_db=0.0, stop_db=30.0, points=4, antennas=(16, 2),
                       schemes=tuple(TasScheme), mc_trials=MC_CHUNK_SIZE + 5,
                       mc_overlay=True, normalize_to_otas=True)
    run_sweep(spec, threads=2)
    assert sorted(draws) == [(2, 5), (2, MC_CHUNK_SIZE), (16, 5), (16, MC_CHUNK_SIZE)]
    # one queue for both antenna counts, the largest buffers first: the
    # scratch of M = 2's full chunk, a group of all four points for every
    # scheme, outgrows M = 16's tiles for a chunk of 5 rows
    def buffer(m, count):
        scenarios = tuple(Scenario(db_to_linear(db), db_to_linear(10.0), m)
                          for db in (0.0, 10.0, 20.0, 30.0))
        return secrecy._chunk_buffer(scenarios, tuple(TasScheme), count)[0]

    draws.clear()
    run_sweep(spec, threads=1)
    assert draws == sorted(draws, key=lambda draw: buffer(*draw), reverse=True)
    assert draws == [(16, MC_CHUNK_SIZE), (2, MC_CHUNK_SIZE), (16, 5), (2, 5)]
    assert calls == [2, 2]


@pytest.mark.parametrize("swept, fixed_db", [("gamma-b", 10.0), ("ratio", 5.0)])
def test_sweep_mc_rows_never_exceed_otas_at_their_point(swept, fixed_db):
    # every scheme's capacity is at most O-TAS's on each shared realization,
    # so its mean is too, and a normalized Monte Carlo row is at most 1; a
    # gamma-b sweep folds gamma_e0 into every scheme's ratios alike
    for normalize in (False, True):
        spec = closed_spec(swept=swept, start_db=-20.0, stop_db=30.0, points=6,
                           fixed_gamma_db=fixed_db, antennas=(1, 2, 8, 17),
                           schemes=tuple(TasScheme), mc_trials=MC_CHUNK_SIZE + 100,
                           seed=5, mc_overlay=True, normalize_to_otas=normalize)
        mc = [r for r in run_sweep(spec) if r.method == "mc"]
        otas = {(r.swept_value_db, r.antennas): r.asc for r in mc if r.scheme == "otas"}
        others = [r for r in mc if r.scheme != "otas"]
        assert len(others) == 6 * 4 * 3
        for r in others:
            assert r.asc <= otas[r.swept_value_db, r.antennas]
            assert r.asc <= 1.0 or not normalize


def test_sweep_errors_name_the_failing_point():
    spec = closed_spec(start_db=0.0, stop_db=3080.0, points=2, schemes=("otas",),
                       mc_trials=1000)
    with pytest.raises(ValueError, match=r"overflows a double at gamma_b0=1e\+308"):
        run_sweep(spec)
    spec = closed_spec(swept="ratio", start_db=-1.0, stop_db=1.0, points=2,
                       fixed_gamma_db=-200.0, schemes=("btas",), mc_trials=512,
                       normalize_to_otas=True)
    with pytest.raises(DegenerateNormalizationError, match="swept=-1.0 dB, M=2"):
        run_sweep(spec)


@pytest.mark.parametrize("swept, start_db", [("gamma-b", 0.0), ("ratio", -10.0)])
def test_scaled_otas_ratios_move_the_sweep_rows(swept, start_db, monkeypatch):
    # the fault hook reaches the O-TAS rows of a curve that shares gamma_e0
    # (gamma-b) and of one that shares gamma_b0 (ratio)
    spec = SweepSpec(swept, start_db, start_db + 20.0, 3, 10.0, (4,),
                     (TasScheme.OTAS,), mc_trials=100_000, seed=8)
    healthy = run_sweep(spec)
    scale_otas_ratios(monkeypatch, 1.05)
    for good, bad in zip(healthy, run_sweep(spec), strict=True):
        assert bad.asc - good.asc > 6.0 * good.std_error


# ----------------------------------------------------------------------------
# Crossover search
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("gamma_b0_db", sorted(CROSSOVER_GOLDEN_DB))
def test_crossover_golden_roots(gamma_b0_db):
    result = find_crossover(gamma_b0_db, 8)
    assert abs(result.residual) <= 1e-9
    assert result.crossover_ratio_db == pytest.approx(
        CROSSOVER_GOLDEN_DB[gamma_b0_db], abs=1e-6)


def test_crossover_side_ordering():
    result = find_crossover(10.0, 8)
    root = result.crossover_ratio_db

    def gap(ratio_db):
        scenario = Scenario(db_to_linear(10.0), db_to_linear(10.0 + ratio_db), 8)
        return asc_btas_closed(scenario).value - asc_etas_closed(scenario).value

    assert gap(root - 1.0) > 0.0  # legitimate-based wins below the root
    assert gap(root + 1.0) < 0.0  # eavesdropper-based wins above it


@pytest.mark.parametrize("point", sorted(CROSSOVER_DEEP_DB))
def test_crossover_deep_roots(point):
    # An absolute tolerance on the gap stopped at the first step here.
    result = find_crossover(*point)
    assert result.crossover_ratio_db == pytest.approx(CROSSOVER_DEEP_DB[point], abs=1e-6)
    assert abs(result.residual) <= 1e-12


def low_snr_point(gamma_b0_db, antennas):
    if antennas == 64 and gamma_b0_db <= -90.0:
        return pytest.param(gamma_b0_db, antennas, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 1: the B-TAS sum's relative error "
            "moves the root (-90 dB) or removes it (below)"))
    return pytest.param(gamma_b0_db, antennas)


@pytest.mark.parametrize("gamma_b0_db, antennas", [
    low_snr_point(gamma_b0_db, antennas)
    for gamma_b0_db in (-60.0, -90.0, -120.0, -150.0, -300.0)
    for antennas in (2, 4, 8, 16, 64)])
def test_crossover_low_snr_limit(gamma_b0_db, antennas):
    # At a fixed ratio the root tends to rho*(M) as gamma_b0 -> 0, and the
    # next term is O(gamma_b0).
    result = find_crossover(gamma_b0_db, antennas)
    limit_db = 10.0 * math.log10(low_snr_crossover_ratio(antennas))
    assert (abs(result.crossover_ratio_db - limit_db)
            <= 30.0 * db_to_linear(gamma_b0_db) + 1e-9)


def test_crossover_residual_is_the_log_ratio():
    result = find_crossover(-50.0, 8)
    scenario = Scenario(db_to_linear(-50.0),
                        db_to_linear(-50.0 + result.crossover_ratio_db), 8)
    assert result.residual == math.log(asc_btas_closed(scenario).value
                                       / asc_etas_closed(scenario).value)


def count_closed_forms(monkeypatch) -> dict[str, int]:
    """Count the calls of secrecy's two closed forms, by scheme."""
    calls = {"btas": 0, "etas": 0}
    for scheme, name in (("btas", "asc_btas_closed"), ("etas", "asc_etas_closed")):
        def counted(scenario, scheme=scheme, closed=getattr(secrecy, name)):
            calls[scheme] += 1
            return closed(scenario)
        monkeypatch.setattr(secrecy, name, counted)
    return calls


def test_crossover_gap_evaluations(monkeypatch):
    # Illinois false position on ln(btas / etas) takes 9-11 gap evaluations
    # per golden root; on btas - etas it took 16-20, and bisection about 30.
    calls = count_closed_forms(monkeypatch)
    for gamma_b0_db in sorted(CROSSOVER_GOLDEN_DB):
        find_crossover(gamma_b0_db, 8)
    assert 0 < calls["etas"] <= 36


def test_closed_forms_are_reached_as_attributes_of_secrecy(monkeypatch):
    # The crossover calls secrecy's closed forms directly and the adaptive
    # switch through secrecy.asc; both look them up on secrecy at call
    # time, so a closed form replaced there is seen by them too.
    calls = count_closed_forms(monkeypatch)
    find_crossover(10.0, 8)
    assert calls["btas"] == calls["etas"] > 0
    calls.update(btas=0, etas=0)
    adaptive_scheme(Scenario(db_to_linear(10.0), db_to_linear(10.0), 8))
    assert calls == {"btas": 1, "etas": 1}


def test_crossover_invariant_under_bracket_halving():
    wide = find_crossover(20.0, 8, (-30.0, 30.0))
    root = wide.crossover_ratio_db
    narrow = find_crossover(20.0, 8, (root - 15.0, root + 15.0))
    assert abs(wide.crossover_ratio_db - narrow.crossover_ratio_db) <= 1e-6


@pytest.mark.parametrize("gamma_b0_db, antennas", [(60.0, 4), (60.0, 8), (80.0, 2)])
def test_default_bracket_widens_down_to_the_root(gamma_b0_db, antennas):
    # At a high gamma_b0 the root sits near a fixed gamma_e0, below the
    # default bracket; an explicit bracket is never widened
    with pytest.raises(NoCrossoverError):
        find_crossover(gamma_b0_db, antennas, DEFAULT_BRACKET_DB)
    wide = find_crossover(gamma_b0_db, antennas, (-120.0, 30.0))
    result = find_crossover(gamma_b0_db, antennas)
    assert result.crossover_ratio_db < DEFAULT_BRACKET_DB[0]
    assert abs(result.crossover_ratio_db - wide.crossover_ratio_db) <= 1e-9
    assert abs(result.residual) <= 1e-12


@pytest.mark.parametrize("gamma_b0_db, antennas",
                         [(gb, 8) for gb in sorted(CROSSOVER_GOLDEN_DB)]
                         + sorted(CROSSOVER_DEEP_DB) + [(-90.0, 64), (10.0, 16)])
def test_roots_in_the_default_bracket_are_unchanged(gamma_b0_db, antennas):
    assert find_crossover(gamma_b0_db, antennas) \
        == find_crossover(gamma_b0_db, antennas, DEFAULT_BRACKET_DB)


def test_widening_stops_where_scenario_ends(monkeypatch):
    # With E-TAS scaled down, B-TAS wins at every ratio: the low end moves
    # down until gamma_e0 underflows, and no root is reported
    etas = secrecy.asc_etas_closed
    monkeypatch.setattr(secrecy, "asc_etas_closed",
                        lambda scenario: secrecy.AscEstimate(
                            0.5 * etas(scenario).value, secrecy.Method.CLOSED))
    with pytest.raises(NoCrossoverError, match=r"sign on \[-1890.0, 30.0\] dB"):
        find_crossover(60.0, 4)


def test_single_antenna_has_no_isolated_crossing():
    # at M=1 the two criteria coincide identically, so the gap is zero
    # everywhere and an isolated root does not exist
    for ratio in (-10.0, 0.0, 10.0):
        scenario = Scenario(db_to_linear(10.0), db_to_linear(10.0 + ratio), 1)
        assert asc_btas_closed(scenario).value == asc_etas_closed(scenario).value


def test_crossover_argument_errors():
    with pytest.raises(ValueError):
        find_crossover(10.0, 1)
    for antennas in (8.0, True):
        with pytest.raises(ValueError, match="antennas must be an integer"):
            find_crossover(10.0, antennas)
    assert find_crossover(10.0, np.int64(8)) == find_crossover(10.0, 8)
    with pytest.raises(NoCrossoverError):
        find_crossover(10.0, 8, (25.0, 30.0))
    with pytest.raises(ValueError, match=r"invalid bracket \(5.0, 5.0\)"):
        find_crossover(10.0, 4, (5.0, 5.0))


def test_single_crossing_on_dense_ratio_grid():
    for gb_db in (10.0, 20.0, 30.0):
        for m in (2, 8):
            gaps = []
            for ratio in np.linspace(-30.0, 30.0, 241):
                scenario = Scenario(db_to_linear(gb_db),
                                    db_to_linear(gb_db + ratio), m)
                gaps.append(asc_btas_closed(scenario).value
                            - asc_etas_closed(scenario).value)
            signs = np.sign(gaps)
            changes = int(np.count_nonzero(np.diff(signs) != 0))
            assert changes == 1


# ----------------------------------------------------------------------------
# Adaptive switching
# ----------------------------------------------------------------------------

def test_adaptive_picks_btas_when_legitimate_dominates():
    scheme, est = adaptive_scheme(Scenario(db_to_linear(30.0), db_to_linear(0.0), 4))
    assert scheme is TasScheme.BTAS
    assert est.value == asc_btas_closed(Scenario(db_to_linear(30.0),
                                                 db_to_linear(0.0), 4)).value


def test_adaptive_picks_etas_under_strong_eavesdropper():
    scheme, est = adaptive_scheme(Scenario(db_to_linear(0.0), db_to_linear(30.0), 4))
    assert scheme is TasScheme.ETAS


def test_adaptive_tie_goes_to_btas():
    scenario = Scenario(2.0, 2.0, 1)
    scheme, est = adaptive_scheme(scenario)
    assert scheme is TasScheme.BTAS
    assert est.value == asc_etas_closed(scenario).value


def test_adaptive_reports_exact_max():
    for gb_db, ge_db in ((5.0, 25.0), (25.0, 5.0), (10.0, 10.0)):
        scenario = Scenario(db_to_linear(gb_db), db_to_linear(ge_db), 4)
        _, est = adaptive_scheme(scenario)
        assert est.value == max(asc_btas_closed(scenario).value,
                                asc_etas_closed(scenario).value)
