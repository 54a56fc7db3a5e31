import math

import numpy as np
import pytest

from tasec.channel import RngStream, Scenario, draw_gain_blocks
from tasec.errors import UnsupportedSchemeError
from tasec.selection import TasScheme, link_laws, select_indices

from oracles import ks_statistic

KS_LIMIT = 0.0062

# Frozen by high-precision evaluation of the printed expressions.
EXP_CDF_AT_MEAN = 0.6321205588285577          # 1 - e^-1
MAX2_CDF_AT_MEAN = 0.39957640089372803        # (1 - e^-1)^2
MIN2_CDF_AT_MEAN = 0.8646647167633873         # 1 - e^-2


def pick(scheme, bob, eve, scenario=None, rng=None):
    """The antenna `select_indices` picks for one realization."""
    bob = np.asarray(bob, float)[None, :]
    eve = np.asarray(eve, float)[None, :]
    scenario = scenario or Scenario(1.0, 1.0, bob.shape[1])
    return int(select_indices(scheme, scenario, bob, eve, rng=rng)[0])


# ----------------------------------------------------------------------------
# Selectors
# ----------------------------------------------------------------------------

def test_otas_direct_evaluation():
    # ratios are [1.5, 0.8]
    assert pick(TasScheme.OTAS, [2.0, 3.0], [1.0, 4.0]) == 0


def test_otas_tie_breaks_low():
    assert pick(TasScheme.OTAS, [0.7] * 3, [0.7] * 3) == 0


def test_otas_returns_index_even_when_all_ratios_below_one():
    # ratios are [1.1/51, 1.2/91]
    scenario = Scenario(1.0, 10.0, 2)
    assert pick(TasScheme.OTAS, [0.1, 0.2], [5.0, 9.0], scenario) == 0


def test_otas_degenerates_to_btas_for_negligible_eavesdropper():
    scenario = Scenario(10.0, 1e-12, 6)
    bob, eve = draw_gain_blocks(scenario, RngStream(99, 0), 1)
    assert pick(TasScheme.OTAS, bob[0], eve[0], scenario) \
        == pick(TasScheme.BTAS, bob[0], eve[0], scenario)


def test_btas_examples():
    assert pick(TasScheme.BTAS, [0.5, 2.0, 1.0], [1, 1, 1]) == 1
    assert pick(TasScheme.BTAS, [4.0], [1.0]) == 0
    assert pick(TasScheme.BTAS, [3.0, 3.0], [1, 1]) == 0


def test_etas_examples():
    assert pick(TasScheme.ETAS, [1, 1, 1], [0.5, 2.0, 1.0]) == 0
    assert pick(TasScheme.ETAS, [1.0], [7.0]) == 0
    assert pick(TasScheme.ETAS, [1, 1, 1], [1.0, 1.0, 0.2]) == 2


def test_random_singleton():
    rng = RngStream(4, 0)
    assert all(pick(TasScheme.RANDOM, [1.0], [1.0], rng=rng) == 0 for _ in range(32))


def test_random_uniformity():
    scenario = Scenario(1.0, 1.0, 4)
    gains = np.broadcast_to(1.0, (1_000_000, 4))  # random selection ignores them
    draws = select_indices(TasScheme.RANDOM, scenario, gains, gains,
                           rng=RngStream(4, 1))
    counts = np.bincount(draws, minlength=4) / draws.size
    assert np.all(np.abs(counts - 0.25) < 0.002)


def test_random_reproducible():
    rng_a, rng_b = RngStream(8, 3), RngStream(8, 3)
    gains = [1.0] * 5
    seq_a = [pick(TasScheme.RANDOM, gains, gains, rng=rng_a) for _ in range(20)]
    seq_b = [pick(TasScheme.RANDOM, gains, gains, rng=rng_b) for _ in range(20)]
    assert seq_a == seq_b
    assert len(set(seq_a)) > 1


@pytest.mark.parametrize("scheme", [s.value for s in TasScheme])
def test_select_indices_accepts_scheme_names(scheme):
    scenario = Scenario(2.0, 3.0, 5)
    bob, eve = draw_gain_blocks(scenario, RngStream(23, 0), 64)
    by_name = select_indices(scheme, scenario, bob, eve, rng=RngStream(5, 0))
    by_enum = select_indices(TasScheme(scheme), scenario, bob, eve, rng=RngStream(5, 0))
    assert np.array_equal(by_name, by_enum)


def test_select_indices_rejects_unknown_scheme():
    bob = np.ones((1, 2))
    with pytest.raises(ValueError, match="bogus"):
        select_indices("bogus", Scenario(1.0, 1.0, 2), bob, bob)


def test_single_antenna_all_schemes_pick_zero():
    scenario = Scenario(2.0, 2.0, 1)
    rng = RngStream(17, 0)
    for _ in range(10):
        bob, eve = draw_gain_blocks(scenario, rng, 1)
        for scheme in TasScheme:
            assert pick(scheme, bob[0], eve[0], scenario, rng) == 0


# ----------------------------------------------------------------------------
# Link laws: (F_E, 1 - F_B) of the selected antenna
# ----------------------------------------------------------------------------

def test_cdf_exponential_values():
    f_eve, _ = link_laws(TasScheme.RANDOM, Scenario(1.0, 2.0, 1))
    at_zero, at_mean, far = f_eve(np.array([0.0, 2.0, 1e6]))
    assert at_zero == 0.0 and far == 1.0
    assert at_mean == pytest.approx(EXP_CDF_AT_MEAN, rel=1e-14)


def test_order_statistic_values():
    beta = 1.7
    x = np.linspace(0.0, 10.0, 41)
    random_eve, random_bob = link_laws(TasScheme.RANDOM, Scenario(beta, beta, 1))
    btas_eve, btas_bob = link_laws(TasScheme.BTAS, Scenario(beta, beta, 1))
    etas_eve, etas_bob = link_laws(TasScheme.ETAS, Scenario(beta, beta, 1))
    # a single antenna has nothing to select
    assert np.array_equal(btas_eve(x), random_eve(x))
    assert np.array_equal(etas_bob(x), random_bob(x))
    assert btas_bob(x) == pytest.approx(random_bob(x), rel=0.0, abs=1e-16)
    assert etas_eve(x) == pytest.approx(random_eve(x), rel=0.0, abs=1e-16)
    _, btas2_bob = link_laws(TasScheme.BTAS, Scenario(beta, beta, 2))
    etas2_eve, _ = link_laws(TasScheme.ETAS, Scenario(beta, beta, 2))
    assert 1.0 - btas2_bob(beta) == pytest.approx(MAX2_CDF_AT_MEAN, rel=1e-14)
    assert etas2_eve(beta) == pytest.approx(MIN2_CDF_AT_MEAN, rel=1e-14)
    assert btas2_bob(0.0) == 1.0


def test_min_order_equals_rescaled_exponential():
    # The minimum of m exponentials of mean beta is exponential of mean beta/m.
    for beta in (0.3, 1.0, 42.0):
        for m in (1, 2, 3, 8):
            x = np.linspace(0.01, 8 * beta, 50)
            etas_eve, _ = link_laws(TasScheme.ETAS, Scenario(1.0, beta, m))
            random_eve, _ = link_laws(TasScheme.RANDOM, Scenario(1.0, beta / m, 1))
            assert etas_eve(x) == pytest.approx(random_eve(x), rel=0.0, abs=1e-15)


def test_cdfs_monotone_with_unit_range():
    grid = np.linspace(0.0, 60.0, 2000)
    laws = [link_laws(scheme, Scenario(2.0, 2.0, 4))
            for scheme in (TasScheme.BTAS, TasScheme.ETAS, TasScheme.RANDOM)]
    for f_eve, sf_bob in laws:
        for values in (f_eve(grid), 1.0 - sf_bob(grid)):
            assert np.all((0.0 <= values) & (values <= 1.0))
            assert np.all(np.diff(values) >= 0.0)


def test_stochastic_ordering():
    beta = 1.3
    x = np.linspace(0.05, 12.0, 120)
    for m in (2, 4, 8):
        scenario = Scenario(beta, beta, m)
        _, btas_bob = link_laws(TasScheme.BTAS, scenario)
        random_eve, random_bob = link_laws(TasScheme.RANDOM, scenario)
        etas_eve, _ = link_laws(TasScheme.ETAS, scenario)
        # F_max <= F <= F_min, stated on the laws each scheme selects
        assert np.all(btas_bob(x) >= random_bob(x))
        assert np.all(random_eve(x) <= etas_eve(x))


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


def exp_cdf(x, beta):
    return -math.expm1(-x / beta)


@pytest.mark.parametrize("scenario", LAW_SCENARIOS,
                         ids=lambda s: f"{s.gamma_b0:g}-{s.gamma_e0:g}-M{s.num_antennas}")
@pytest.mark.parametrize("scheme", [TasScheme.BTAS, TasScheme.ETAS, TasScheme.RANDOM])
def test_link_laws_are_the_public_cdfs(scheme, scenario):
    gb, ge, m = scenario.gamma_b0, scenario.gamma_e0, scenario.num_antennas
    x = law_grid(scenario)
    f_eve, sf_bob = link_laws(scheme, scenario)
    if scheme is TasScheme.ETAS:
        eve_cdf = np.array([exp_cdf(v, ge / m) for v in x])
        bob_cdf = np.array([exp_cdf(v, gb) for v in x])
    else:
        eve_cdf = np.array([exp_cdf(v, ge) for v in x])
        bob_cdf = np.array([exp_cdf(v, gb) ** m if scheme is TasScheme.BTAS
                            else exp_cdf(v, gb) for v in x])
    assert np.all(np.abs(f_eve(x) - eve_cdf) <= 2 * np.spacing(eve_cdf))

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
    stat = ks_statistic(best, lambda x: exp_cdf(x, 1.0) ** scenario.num_antennas)
    assert stat < KS_LIMIT


def test_etas_min_gain_distribution(selection_sample):
    scenario, bob, eve = selection_sample
    worst = eve.min(axis=1)
    stat = ks_statistic(worst, lambda x: exp_cdf(x, 1.0 / scenario.num_antennas))
    assert stat < KS_LIMIT


def test_non_selected_link_unchanged_under_btas(selection_sample):
    scenario, bob, eve = selection_sample
    idx = select_indices(TasScheme.BTAS, scenario, bob, eve)
    eve_at_selected = eve[np.arange(eve.shape[0]), idx]
    stat = ks_statistic(eve_at_selected, lambda x: exp_cdf(x, 1.0))
    assert stat < KS_LIMIT


def test_non_selected_link_unchanged_under_etas(selection_sample):
    scenario, bob, eve = selection_sample
    idx = select_indices(TasScheme.ETAS, scenario, bob, eve)
    bob_at_selected = bob[np.arange(bob.shape[0]), idx]
    stat = ks_statistic(bob_at_selected, lambda x: exp_cdf(x, 1.0))
    assert stat < KS_LIMIT


def test_scheme_serialization():
    assert [s.value for s in TasScheme] == ["otas", "btas", "etas", "random"]
    assert TasScheme("btas") is TasScheme.BTAS
