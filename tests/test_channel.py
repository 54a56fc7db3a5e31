import math

import numpy as np
import pytest

from tasec import secrecy
from tasec.channel import RngStream, Scenario, draw_gain_blocks

from oracles import ks_statistic

KS_LIMIT = 0.0062  # 1e5 samples


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        Scenario(1.0, float("inf"), 2)
    with pytest.raises(ValueError):
        Scenario(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        Scenario(1.0, 1.0, 1.5)
    # Antenna counts are integers: numpy integers pass, bools and floats do not.
    for m in (True, 4.0, np.float64(4.0), "4"):
        with pytest.raises(ValueError, match="num_antennas must be an integer >= 1"):
            Scenario(1.0, 1.0, m)
    for m in (np.int64(4), np.int32(4), np.uint8(4)):
        scenario = Scenario(1.0, 1.0, m)
        assert scenario == Scenario(1.0, 1.0, 4) and type(scenario.num_antennas) is int
    # A closed-form argument M/gamma_b0 + 1/gamma_e0 or M/gamma_e0 + 1/gamma_b0
    # that overflows is rejected by name: 64/1e-307 overflows, 8/1e-307 does not.
    for gamma_b0, gamma_e0, m in ((1e-307, 1.0, 64), (1.0, 1e-307, 64),
                                  (1e-320, 10.0, 2), (10.0, 5e-324, 1)):
        with pytest.raises(ValueError, match="gamma_b0=.*gamma_e0=.*too small"):
            Scenario(gamma_b0, gamma_e0, m)
    Scenario(1e-300, 1e-300, 64)
    Scenario(1e-307, 1.0, 8)


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2 ** 64)
    with pytest.raises(ValueError):
        RngStream(1, stream_id=-2)


def test_rng_reproducibility_bit_exact():
    scenario = Scenario(1.0, 1.0, 3)
    first = draw_gain_blocks(scenario, RngStream(123, 7), 1)
    second = draw_gain_blocks(scenario, RngStream(123, 7), 1)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_rng_distinct_streams_differ():
    scenario = Scenario(1.0, 1.0, 4)
    a, _ = draw_gain_blocks(scenario, RngStream(123, 0), 1)
    b, _ = draw_gain_blocks(scenario, RngStream(123, 1), 1)
    assert not np.array_equal(a, b)


def test_substream_does_not_disturb_parent():
    scenario = Scenario(1.0, 1.0, 2)
    parent = RngStream(9, 1)
    reference, _ = draw_gain_blocks(scenario, RngStream(9, 1), 1)
    parent.substream(0).generator.standard_normal(100)
    mine, _ = draw_gain_blocks(scenario, parent, 1)
    assert np.array_equal(mine, reference)


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
    gen = np.random.Generator(np.random.SFC64(key))
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


@pytest.mark.parametrize("branch", [(0, 0, 0), (3, 1, 2)])
def test_sibling_chunk_substreams_are_independent_exp1(branch):
    # Chunk substreams are SFC64 seeded from neighbouring spawn keys; their
    # first gains must still be Exp(1), and neighbours' blocks uncorrelated.
    scenario, base = Scenario(1.0, 1.0, 1), RngStream(2026).substream(*branch)
    blocks = np.stack([draw_gain_blocks(scenario, base.substream(i), 100)[0].ravel()
                       for i in range(1000)])  # 1e5 gains, one row per chunk
    assert ks_statistic(blocks.ravel(), lambda x: -math.expm1(-x)) < KS_LIMIT
    # the very first gain of each chunk, at KS_LIMIT's level for 1e3 samples
    assert ks_statistic(blocks[:, 0], lambda x: -math.expm1(-x)) < 0.062
    rho = float(np.corrcoef(blocks[:-1].ravel(), blocks[1:].ravel())[0, 1])
    assert abs(rho) < 0.01
    rho_first = float(np.corrcoef(blocks[:-1, 0], blocks[1:, 0])[0, 1])
    assert abs(rho_first) < 0.13  # 4 sigma at 999 pairs


@pytest.mark.parametrize("count", [secrecy.MC_CHUNK_SIZE, 1234], ids=["full", "partial"])
@pytest.mark.parametrize("m", [1, 2, 8, 64])
def test_draw_into_out_matches_allocating_draw(m, count):
    # `out` as Monte Carlo passes it: prefix views of larger flat buffers
    # that still hold an earlier chunk's values
    scenario = Scenario(1.0, 1.0, m)
    fresh = draw_gain_blocks(scenario, RngStream(5, m).substream(count), count)
    flat = [np.full(count * m + 7, np.nan) for _ in range(2)]
    out = tuple(buf[:count * m].reshape(count, m) for buf in flat)
    drawn = draw_gain_blocks(scenario, RngStream(5, m).substream(count), count, out=out)
    assert drawn[0] is out[0] and drawn[1] is out[1]
    assert np.array_equal(drawn[0], fresh[0]) and np.array_equal(drawn[1], fresh[1])
    assert np.isnan(flat[0][count * m:]).all() and np.isnan(flat[1][count * m:]).all()


def _read_only(shape):
    block = np.empty(shape)
    block.flags.writeable = False
    return block


@pytest.mark.parametrize("make_bob", [
    lambda shape: np.empty(shape[::-1]).T,         # Fortran order
    lambda shape: np.empty((shape[0], 2 * shape[1]))[:, ::2],  # strided
    _read_only,
    lambda shape: np.empty(shape, dtype=np.float32),
    lambda shape: np.empty((shape[0] + 1, shape[1])),
    lambda shape: np.empty((shape[0], shape[1] + 1)),
    lambda shape: np.empty(shape[0] * shape[1]),
    lambda shape: np.empty(shape).tolist(),
], ids=["fortran", "strided", "read-only", "float32", "rows", "columns", "flat",
        "list"])
def test_draw_rejects_malformed_out(make_bob):
    scenario, shape = Scenario(1.0, 1.0, 3), (5, 3)
    with pytest.raises(ValueError, match="out bob block must be"):
        draw_gain_blocks(scenario, RngStream(1), 5, out=(make_bob(shape), np.empty(shape)))
    with pytest.raises(ValueError, match="out eve block must be"):
        draw_gain_blocks(scenario, RngStream(1), 5, out=(np.empty(shape), make_bob(shape)))


def test_draw_rejects_overlapping_out():
    scenario, block = Scenario(1.0, 1.0, 3), np.empty((5, 3))
    with pytest.raises(ValueError, match="must not overlap"):
        draw_gain_blocks(scenario, RngStream(1), 5, out=(block, block))
    flat = np.empty(18)
    with pytest.raises(ValueError, match="must not overlap"):
        draw_gain_blocks(scenario, RngStream(1), 5,
                         out=(flat[:15].reshape(5, 3), flat[3:].reshape(5, 3)))


def test_draw_without_out_returns_new_arrays():
    scenario = Scenario(1.0, 1.0, 4)
    secrecy.mc_asc(scenario, "otas", 1000, RngStream(3))  # fills this thread's buffers
    blocks = [*draw_gain_blocks(scenario, RngStream(3).substream(0), 1000),
              *draw_gain_blocks(scenario, RngStream(3).substream(0), 1000)]
    assert np.array_equal(blocks[0], blocks[2])
    buffers = [b for pair in secrecy._idle_buffers for b in pair]
    assert buffers
    for i, block in enumerate(blocks):
        assert block.base is None and block.flags.owndata
        assert not any(np.shares_memory(block, other)
                       for other in (*blocks[i + 1:], *buffers))
