import math

import numpy as np
import pytest

from tasec.channel import (ChannelRealization, LinkBudget, RngStream, Scenario,
                           draw_gain_blocks, draw_realization,
                           instantaneous_snrs, reference_snrs)

from oracles import ks_statistic

KS_LIMIT = 0.0062  # 1e5 samples


def test_reference_snrs_identity_budget():
    budget = LinkBudget(1.0, 1.0, 1.0, 2.0, 1.0)
    assert reference_snrs(budget) == (1.0, 1.0)


def test_reference_snrs_direct_substitution():
    budget = LinkBudget(transmit_power=10.0, distance_bob=10.0, distance_eve=1.0,
                        path_loss_exponent=2.0, noise_density=0.01)
    gamma_b0, _ = reference_snrs(budget)
    assert gamma_b0 == pytest.approx(10.0, rel=1e-15)


def test_reference_snrs_eve_distance():
    budget = LinkBudget(1.0, 1.0, 2.0, 3.0, 1.0)
    _, gamma_e0 = reference_snrs(budget)
    assert gamma_e0 == pytest.approx(0.125, rel=1e-15)


@pytest.mark.parametrize("field,value", [
    ("transmit_power", 0.0), ("distance_bob", -1.0), ("distance_eve", 0.0),
    ("path_loss_exponent", float("nan")), ("noise_density", float("inf")),
])
def test_link_budget_validation(field, value):
    kwargs = dict(transmit_power=1.0, distance_bob=1.0, distance_eve=1.0,
                  path_loss_exponent=2.0, noise_density=1.0)
    kwargs[field] = value
    with pytest.raises(ValueError):
        LinkBudget(**kwargs)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        Scenario(1.0, float("inf"), 2)
    with pytest.raises(ValueError):
        Scenario(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        Scenario(1.0, 1.0, 1.5)


def test_realization_validation():
    with pytest.raises(ValueError):
        ChannelRealization(np.ones(3), np.ones(2))
    with pytest.raises(ValueError):
        ChannelRealization(np.array([1.0, -0.5]), np.ones(2))
    with pytest.raises(ValueError):
        ChannelRealization(np.array([1.0, float("nan")]), np.ones(2))


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2 ** 64)
    with pytest.raises(ValueError):
        RngStream(1, stream_id=-2)


def test_rng_reproducibility_bit_exact():
    scenario = Scenario(1.0, 1.0, 3)
    first = draw_realization(scenario, RngStream(123, 7))
    second = draw_realization(scenario, RngStream(123, 7))
    assert np.array_equal(first.bob_gains, second.bob_gains)
    assert np.array_equal(first.eve_gains, second.eve_gains)


def test_rng_distinct_streams_differ():
    scenario = Scenario(1.0, 1.0, 4)
    a = draw_realization(scenario, RngStream(123, 0))
    b = draw_realization(scenario, RngStream(123, 1))
    assert not np.array_equal(a.bob_gains, b.bob_gains)


def test_substream_does_not_disturb_parent():
    scenario = Scenario(1.0, 1.0, 2)
    parent = RngStream(9, 1)
    reference = draw_realization(scenario, RngStream(9, 1))
    parent.substream(0).generator.standard_normal(100)
    mine = draw_realization(scenario, parent)
    assert np.array_equal(mine.bob_gains, reference.bob_gains)


def test_single_draw_matches_block_draw():
    scenario = Scenario(1.0, 1.0, 5)
    single = draw_realization(scenario, RngStream(5, 5))
    bob, eve = draw_gain_blocks(scenario, RngStream(5, 5), 1)
    assert np.array_equal(single.bob_gains, bob[0])
    assert np.array_equal(single.eve_gains, eve[0])


@pytest.mark.parametrize("seed,stream_id,branch,count,m", [
    (0, 0, (), 1, 1),
    (42, 5, (3,), 17, 8),
    (2 ** 64 - 1, 7, (0, 1, 2), 1000, 3),
])
def test_draw_contract_exp1_bob_then_eve(seed, stream_id, branch, count, m):
    # Pins the Monte Carlo stream: a change to it must fail here, not shift
    # every estimate silently.
    rng = RngStream(seed, stream_id).substream(*branch)
    bob, eve = draw_gain_blocks(Scenario(1.0, 1.0, m), rng, count)
    key = np.random.SeedSequence(seed, spawn_key=(stream_id, *branch))
    gen = np.random.Generator(np.random.Philox(key))
    assert np.array_equal(bob, gen.standard_exponential((count, m)))
    assert np.array_equal(eve, gen.standard_exponential((count, m)))


def test_unit_mean_gains():
    scenario = Scenario(1.0, 1.0, 1)
    bob, _ = draw_gain_blocks(scenario, RngStream(2024, 0), 1_000_000)
    # 4 sigma of the mean of Exp(1) over 1e6 draws
    assert abs(float(bob.mean()) - 1.0) < 0.004


def test_empirical_exponential_cdf_at_one():
    scenario = Scenario(1.0, 1.0, 1)
    _, eve = draw_gain_blocks(scenario, RngStream(2025, 0), 1_000_000)
    frac = float(np.mean(eve <= 1.0))
    assert abs(frac - (1.0 - math.exp(-1.0))) < 0.002


def test_gain_distribution_ks():
    scenario = Scenario(1.0, 1.0, 1)
    bob, _ = draw_gain_blocks(scenario, RngStream(7, 0), 100_000)
    stat = ks_statistic(bob.ravel(), lambda x: -math.expm1(-x))
    assert stat < KS_LIMIT


def test_stream_independence_smoke():
    scenario = Scenario(1.0, 1.0, 1)
    a, _ = draw_gain_blocks(scenario, RngStream(11, 0), 100_000)
    b, _ = draw_gain_blocks(scenario, RngStream(11, 1), 100_000)
    rho = float(np.corrcoef(a.ravel(), b.ravel())[0, 1])
    assert abs(rho) < 0.01


def test_instantaneous_snrs_products():
    scenario = Scenario(10.0, 1.0, 2)
    realization = ChannelRealization(np.array([0.5, 1.0]), np.array([0.0, 2.0]))
    assert instantaneous_snrs(scenario, realization, 0) == (5.0, 0.0)
    gamma_b, gamma_e = instantaneous_snrs(scenario, realization, 1)
    assert gamma_b == 10.0 and gamma_e == 2.0


def test_instantaneous_snrs_linear_in_gain():
    scenario = Scenario(3.0, 7.0, 1)
    base = ChannelRealization(np.array([0.3]), np.array([0.9]))
    doubled = ChannelRealization(np.array([0.6]), np.array([1.8]))
    gb1, ge1 = instantaneous_snrs(scenario, base, 0)
    gb2, ge2 = instantaneous_snrs(scenario, doubled, 0)
    assert gb2 == 2.0 * gb1 and ge2 == 2.0 * ge1


def test_instantaneous_snrs_bounds():
    scenario = Scenario(1.0, 1.0, 3)
    realization = draw_realization(scenario, RngStream(0))
    with pytest.raises(IndexError):
        instantaneous_snrs(scenario, realization, 3)
    with pytest.raises(IndexError):
        instantaneous_snrs(scenario, realization, -1)
