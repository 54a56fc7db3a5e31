import math

import numpy as np
import pytest

from tasec.channel import ChannelRealization, RngStream, Scenario, draw_gain_blocks
from tasec.errors import UnsupportedSchemeError
from tasec.selection import (TasScheme, cdf_exponential, cdf_max_order,
                             cdf_min_order, link_laws, select_btas, select_etas,
                             select_indices, select_otas, select_random)

from oracles import ks_statistic

KS_LIMIT = 0.0062

# Frozen by high-precision evaluation of the printed expressions.
EXP_CDF_AT_MEAN = 0.6321205588285577          # 1 - e^-1
MAX2_CDF_AT_MEAN = 0.39957640089372803        # (1 - e^-1)^2
MIN2_CDF_AT_MEAN = 0.8646647167633873         # 1 - e^-2


def realization(bob, eve):
    return ChannelRealization(np.asarray(bob, float), np.asarray(eve, float))


# ----------------------------------------------------------------------------
# Selectors
# ----------------------------------------------------------------------------

def test_otas_direct_evaluation():
    scenario = Scenario(1.0, 1.0, 2)
    sel = select_otas(scenario, realization([2.0, 3.0], [1.0, 4.0]))
    # ratios are [1.5, 0.8]
    assert sel.antenna == 0 and sel.scheme is TasScheme.OTAS


def test_otas_tie_breaks_low():
    scenario = Scenario(1.0, 1.0, 3)
    sel = select_otas(scenario, realization([0.7] * 3, [0.7] * 3))
    assert sel.antenna == 0


def test_otas_returns_index_even_when_all_ratios_below_one():
    scenario = Scenario(1.0, 10.0, 2)
    sel = select_otas(scenario, realization([0.1, 0.2], [5.0, 9.0]))
    assert sel.antenna in (0, 1)


def test_otas_degenerates_to_btas_for_negligible_eavesdropper():
    scenario = Scenario(10.0, 1e-12, 6)
    bob, eve = draw_gain_blocks(scenario, RngStream(99, 0), 1)
    real = ChannelRealization(bob[0], eve[0])
    assert select_otas(scenario, real).antenna == select_btas(real).antenna


def test_btas_examples():
    assert select_btas(realization([0.5, 2.0, 1.0], [1, 1, 1])).antenna == 1
    assert select_btas(realization([4.0], [1.0])).antenna == 0
    assert select_btas(realization([3.0, 3.0], [1, 1])).antenna == 0


def test_etas_examples():
    assert select_etas(realization([1, 1, 1], [0.5, 2.0, 1.0])).antenna == 0
    assert select_etas(realization([1.0], [7.0])).antenna == 0
    assert select_etas(realization([1, 1, 1], [1.0, 1.0, 0.2])).antenna == 2


def test_random_singleton():
    scenario = Scenario(1.0, 1.0, 1)
    rng = RngStream(4, 0)
    assert all(select_random(scenario, rng).antenna == 0 for _ in range(32))


def test_random_uniformity():
    scenario = Scenario(1.0, 1.0, 4)
    draws = RngStream(4, 1).generator.integers(0, 4, size=1_000_000)
    counts = np.bincount(draws, minlength=4) / draws.size
    assert np.all(np.abs(counts - 0.25) < 0.002)


def test_random_reproducible():
    scenario = Scenario(1.0, 1.0, 5)
    rng_a, rng_b = RngStream(8, 3), RngStream(8, 3)
    seq_a = [select_random(scenario, rng_a).antenna for _ in range(20)]
    seq_b = [select_random(scenario, rng_b).antenna for _ in range(20)]
    assert seq_a == seq_b


def test_batch_selectors_match_scalar():
    scenario = Scenario(3.0, 5.0, 4)
    bob, eve = draw_gain_blocks(scenario, RngStream(31, 0), 500)
    otas_idx = select_indices(TasScheme.OTAS, scenario, bob, eve)
    btas_idx = select_indices(TasScheme.BTAS, scenario, bob, eve)
    etas_idx = select_indices(TasScheme.ETAS, scenario, bob, eve)
    for i in range(bob.shape[0]):
        real = ChannelRealization(bob[i], eve[i])
        assert select_otas(scenario, real).antenna == otas_idx[i]
        assert select_btas(real).antenna == btas_idx[i]
        assert select_etas(real).antenna == etas_idx[i]
        # Equal fresh streams: the scalar draw is the one-row batch draw.
        random_idx = select_indices(TasScheme.RANDOM, scenario, bob[i:i + 1],
                                    eve[i:i + 1], rng=RngStream(32, i))
        assert select_random(scenario, RngStream(32, i)).antenna == random_idx[0]


def test_single_antenna_all_schemes_pick_zero():
    scenario = Scenario(2.0, 2.0, 1)
    rng = RngStream(17, 0)
    for _ in range(10):
        bob, eve = draw_gain_blocks(scenario, rng, 1)
        real = ChannelRealization(bob[0], eve[0])
        assert select_otas(scenario, real).antenna == 0
        assert select_btas(real).antenna == 0
        assert select_etas(real).antenna == 0
        assert select_random(scenario, rng).antenna == 0


def test_mismatched_antenna_count_rejected():
    scenario = Scenario(1.0, 1.0, 3)
    with pytest.raises(ValueError):
        select_otas(scenario, realization([1.0, 2.0], [1.0, 2.0]))


# ----------------------------------------------------------------------------
# CDFs
# ----------------------------------------------------------------------------

def test_cdf_exponential_values():
    assert cdf_exponential(0.0, 2.0) == 0.0
    assert cdf_exponential(-3.0, 0.5) == 0.0
    assert cdf_exponential(2.0, 2.0) == pytest.approx(EXP_CDF_AT_MEAN, rel=1e-14)
    assert cdf_exponential(1e6, 1.0) == 1.0


def test_cdf_validation():
    for fn in (cdf_exponential, lambda x, b: cdf_max_order(x, b, 2),
               lambda x, b: cdf_min_order(x, b, 2)):
        with pytest.raises(ValueError):
            fn(1.0, 0.0)
        with pytest.raises(ValueError):
            fn(1.0, -2.0)
    with pytest.raises(ValueError):
        cdf_max_order(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        cdf_min_order(1.0, 1.0, -1)


def test_order_statistic_values():
    beta = 1.7
    assert cdf_max_order(0.4, beta, 1) == cdf_exponential(0.4, beta)
    assert cdf_min_order(0.4, beta, 1) == pytest.approx(
        cdf_exponential(0.4, beta), abs=1e-16)
    assert cdf_max_order(beta, beta, 2) == pytest.approx(MAX2_CDF_AT_MEAN, rel=1e-14)
    assert cdf_min_order(beta, beta, 2) == pytest.approx(MIN2_CDF_AT_MEAN, rel=1e-14)
    assert cdf_max_order(0.0, beta, 5) == 0.0


def test_min_order_equals_rescaled_exponential():
    for beta in (0.3, 1.0, 42.0):
        for m in (1, 2, 3, 8):
            for x in np.linspace(0.01, 8 * beta, 50):
                assert cdf_min_order(float(x), beta, m) == pytest.approx(
                    cdf_exponential(float(x), beta / m), abs=1e-15)


def test_cdfs_monotone_with_unit_range():
    grid = np.linspace(0.0, 60.0, 2000)
    for fn in (lambda x: cdf_exponential(x, 2.0),
               lambda x: cdf_max_order(x, 2.0, 4),
               lambda x: cdf_min_order(x, 2.0, 4)):
        values = [fn(float(x)) for x in grid]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_stochastic_ordering():
    beta = 1.3
    for m in (2, 4, 8):
        for x in np.linspace(0.05, 12.0, 120):
            x = float(x)
            assert cdf_max_order(x, beta, m) <= cdf_exponential(x, beta) \
                <= cdf_min_order(x, beta, m)


# ----------------------------------------------------------------------------
# Link laws: the quadrature integrands evaluate the public CDFs
# ----------------------------------------------------------------------------

LAW_SCENARIOS = [Scenario(1.0, 1.0, 1), Scenario(10.0, 0.1, 4),
                 Scenario(0.5, 100.0, 16), Scenario(0.01, 0.02, 33),
                 Scenario(1000.0, 3.0, 64), Scenario(3.0, 3.0, 64)]
# Multiples of each mean, from far below it to x/beta = 700, where exp(-x/beta)
# is still a normal double but 1 - F(x)^M has long since rounded to 0.
LAW_MULTIPLES = np.logspace(-8, np.log10(700.0), 400)


def law_grid(scenario):
    return np.sort(np.concatenate([scenario.gamma_e0 * LAW_MULTIPLES,
                                   scenario.gamma_b0 * LAW_MULTIPLES]))


@pytest.mark.parametrize("scenario", LAW_SCENARIOS,
                         ids=lambda s: f"{s.gamma_b0:g}-{s.gamma_e0:g}-M{s.num_antennas}")
@pytest.mark.parametrize("scheme", [TasScheme.BTAS, TasScheme.ETAS, TasScheme.RANDOM])
def test_link_laws_are_the_public_cdfs(scheme, scenario):
    gb, ge, m = scenario.gamma_b0, scenario.gamma_e0, scenario.num_antennas
    x = law_grid(scenario)
    f_eve, sf_bob = link_laws(scheme, scenario)
    if scheme is TasScheme.ETAS:
        eve_cdf = [cdf_min_order(float(v), ge, m) for v in x]
        bob_cdf = np.array([cdf_exponential(float(v), gb) for v in x])
    else:
        eve_cdf = [cdf_exponential(float(v), ge) for v in x]
        bob_cdf = np.array([cdf_max_order(float(v), gb, m) if scheme is TasScheme.BTAS
                            else cdf_exponential(float(v), gb) for v in x])
    assert f_eve(x).tolist() == eve_cdf

    sf = sf_bob(x)
    # The scalar F^M carries M times the rounding error of F.
    order = m if scheme is TasScheme.BTAS else 1
    tol = 1e-15 + order * np.finfo(float).eps * bob_cdf
    assert np.all(np.abs(sf - (1.0 - bob_cdf)) <= tol)
    # Where 1 - F rounds to 0 the survival kernel keeps the tail.
    rounded = (bob_cdf == 1.0) & (x <= 700.0 * gb)
    assert rounded.any()
    assert np.all(sf[rounded] > 0.0)


def test_link_laws_reject_otas():
    with pytest.raises(UnsupportedSchemeError, match="'otas'.*dependent"):
        link_laws(TasScheme.OTAS, Scenario(1.0, 1.0, 2))


# ----------------------------------------------------------------------------
# Empirical distribution of selected/non-selected links
# ----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def selection_sample():
    scenario = Scenario(1.0, 1.0, 4)
    bob, eve = draw_gain_blocks(scenario, RngStream(1234, 0), 100_000)
    return scenario, bob, eve


def test_btas_max_gain_distribution(selection_sample):
    scenario, bob, eve = selection_sample
    best = bob.max(axis=1)
    stat = ks_statistic(best, lambda x: cdf_max_order(x, 1.0, scenario.num_antennas))
    assert stat < KS_LIMIT


def test_etas_min_gain_distribution(selection_sample):
    scenario, bob, eve = selection_sample
    worst = eve.min(axis=1)
    stat = ks_statistic(worst, lambda x: cdf_min_order(x, 1.0, scenario.num_antennas))
    assert stat < KS_LIMIT


def test_non_selected_link_unchanged_under_btas(selection_sample):
    scenario, bob, eve = selection_sample
    idx = select_indices(TasScheme.BTAS, scenario, bob, eve)
    eve_at_selected = eve[np.arange(eve.shape[0]), idx]
    stat = ks_statistic(eve_at_selected, lambda x: cdf_exponential(x, 1.0))
    assert stat < KS_LIMIT


def test_non_selected_link_unchanged_under_etas(selection_sample):
    scenario, bob, eve = selection_sample
    idx = select_indices(TasScheme.ETAS, scenario, bob, eve)
    bob_at_selected = bob[np.arange(bob.shape[0]), idx]
    stat = ks_statistic(bob_at_selected, lambda x: cdf_exponential(x, 1.0))
    assert stat < KS_LIMIT


def test_scheme_serialization():
    assert [s.value for s in TasScheme] == ["otas", "btas", "etas", "random"]
    assert TasScheme("btas") is TasScheme.BTAS
