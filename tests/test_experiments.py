import math

import numpy as np
import pytest

from tasec import experiments
from tasec.channel import Scenario
from tasec.errors import NoCrossoverError
from tasec.experiments import (SweepRow, SweepSpec, SweptParameter,
                               adaptive_scheme, db_to_linear, find_crossover,
                               run_sweep)
from tasec.secrecy import asc_btas_closed, asc_etas_closed
from tasec.selection import TasScheme

# Crossover ratios gamma_e0/gamma_b0 [dB] for M=8, frozen from a bisection
# run over the closed forms (independently confirmed at 30-digit precision).
CROSSOVER_GOLDEN_DB = {
    10.0: -1.2306619993821917,
    20.0: -8.7027045004341913,
    30.0: -18.071917367716731,
}


def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
    assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-15)
    with pytest.raises(ValueError):
        db_to_linear(float("inf"))
    with pytest.raises(ValueError, match="4000"):
        db_to_linear(4000.0)


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


def test_crossover_gap_evaluations(monkeypatch):
    # Illinois false position takes 16-20 gap evaluations per golden root;
    # bisection over the same bracket took about 30 each.
    calls = []

    def counted(scenario):
        calls.append(scenario)
        return asc_etas_closed(scenario)

    monkeypatch.setattr(experiments, "asc_etas_closed", counted)
    for gamma_b0_db in sorted(CROSSOVER_GOLDEN_DB):
        find_crossover(gamma_b0_db, 8)
    assert len(calls) <= 60


def test_crossover_invariant_under_bracket_halving():
    wide = find_crossover(20.0, 8, (-30.0, 30.0))
    root = wide.crossover_ratio_db
    narrow = find_crossover(20.0, 8, (root - 15.0, root + 15.0))
    assert abs(wide.crossover_ratio_db - narrow.crossover_ratio_db) <= 1e-6


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
