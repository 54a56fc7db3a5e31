import copy
import math
import operator
import pickle
import re
from dataclasses import FrozenInstanceError, astuple, replace
from itertools import product

import numpy as np
import pytest

from tasec import secrecy
from tasec.channel import (RngStream, Scenario, draw_gain_blocks, require_int,
                           require_positive)
from tasec.expint import exp_scaled_e1

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


def test_scenario_keeps_its_dataclass_contract():
    # The same ValueError as before for NaN, +-inf, negative and bool inputs
    for bad, text in ((float("nan"), "finite and > 0, got nan"),
                      (float("inf"), "finite and > 0, got inf"),
                      (-float("inf"), "finite and > 0, got -inf"),
                      (-1.0, "finite and > 0, got -1.0"),
                      (True, "a real number, got True")):
        for args, name in (((bad, 1.0, 2), "gamma_b0"), ((1.0, bad, 2), "gamma_e0")):
            with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {text}')}$"):
                Scenario(*args)
    for bad in (float("nan"), float("inf"), -1, False):
        with pytest.raises(ValueError,
                           match=f"^num_antennas must be an integer >= 1, got {bad!r}$"):
            Scenario(1.0, 1.0, bad)
    point = Scenario(10.0, 2.0, 4)
    # dataclasses.replace runs every check, and converts a numpy integer count
    with pytest.raises(ValueError, match="gamma_e0 must be finite and > 0"):
        replace(point, gamma_e0=-1.0)
    with pytest.raises(ValueError, match="too small at M=64"):
        replace(point, gamma_b0=1e-307, num_antennas=64)
    moved = replace(point, num_antennas=np.int64(8))
    assert type(moved.num_antennas) is int and moved == Scenario(10.0, 2.0, 8)
    # frozen: no field can be set or deleted
    for name in ("gamma_b0", "gamma_e0", "num_antennas"):
        with pytest.raises(FrozenInstanceError):
            setattr(point, name, 1.0)
        with pytest.raises(FrozenInstanceError):
            delattr(point, name)
    # equal values are equal, with one hash and one repr, whatever type the
    # antenna count came in
    twin = Scenario(10.0, 2.0, np.uint16(4))
    assert type(twin.num_antennas) is int
    assert twin == point and hash(twin) == hash(point) and repr(twin) == repr(point)
    assert repr(point) == "Scenario(gamma_b0=10.0, gamma_e0=2.0, num_antennas=4)"
    assert point != Scenario(10.0, 2.0, 5) and astuple(point) == (10.0, 2.0, 4)
    # copies and pickles are equal values
    for twin in (copy.copy(point), copy.deepcopy(point), pickle.loads(pickle.dumps(point))):
        assert twin == point and repr(twin) == repr(point)


def test_an_int_past_the_largest_double_is_not_finite():
    # math.isfinite(10**400) raises OverflowError; the check names the rule
    with pytest.raises(ValueError, match="gamma_b0 must be finite and > 0"):
        Scenario(10**400, 1.0, 1)
    with pytest.raises(ValueError, match="x must be finite and > 0"):
        exp_scaled_e1(10**400)
    # an int that rounds to the largest double is still accepted
    require_positive(int(np.finfo(float).max) + 1, "x")


def _checks_before_fast_paths():
    """require_positive and require_int as they were before their fast paths."""
    def positive(value, name):
        if not (isinstance(value, (int, float)) and not isinstance(value, bool)):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        if not math.isfinite(value) or value <= 0:
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    def integer(value, name, low):
        if isinstance(value, bool) or not hasattr(value, "__index__") \
                or operator.index(value) < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        return operator.index(value)

    return positive, integer


def _outcome(check, *args):
    try:
        result = check(*args)
    except ValueError as exc:
        return "ValueError", str(exc)
    return type(result), result


CHECKED_INPUTS = [2.5, 1e-300, 1.7976931348623157e308, 3, 0, -1, 10**30,
                  np.float64(2.5), np.float64(0.0), np.float32(2.5), np.int64(3),
                  np.int64(0), np.uint8(1), True, False, float("nan"),
                  float("inf"), -float("inf"), 0.0, -0.0, 5e-324, -5e-324, "1.0",
                  None, 1 + 0j]


@pytest.mark.parametrize("value", CHECKED_INPUTS, ids=repr)
def test_fast_paths_accept_and_reject_as_before(value):
    positive, integer = _checks_before_fast_paths()
    assert _outcome(require_positive, value, "v") == _outcome(positive, value, "v")
    for low in (0, 1, 2):
        assert _outcome(require_int, value, "v", low) == _outcome(integer, value, "v", low)


def _scenario_before_its_fast_path(gamma_b0, gamma_e0, m):
    """Scenario's checks as they were before its fast path."""
    require_positive(gamma_b0, "gamma_b0")
    require_positive(gamma_e0, "gamma_e0")
    m = require_int(m, "num_antennas", 1)
    if not (math.isfinite(m / gamma_b0 + 1 / gamma_e0)
            and math.isfinite(m / gamma_e0 + 1 / gamma_b0)):
        raise ValueError(
            f"gamma_b0={gamma_b0!r}, gamma_e0={gamma_e0!r} are too small at M={m}: "
            "M/gamma_b0 + 1/gamma_e0 or M/gamma_e0 + 1/gamma_b0 overflows a float")
    return gamma_b0, gamma_e0, m


def _fields(check, *args):
    """The error check(*args) raises, or the type and repr of each value it keeps."""
    try:
        values = check(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return [(type(v), repr(v)) for v in values]


SCENARIO_SNRS = [1.0, 2.5, 1e-300, 1e-307, 1e300, 5e-324, -5e-324, 0.0, -0.0, -1.0, 0,
                 3, 10**30, 10**400, True, False, np.float64(2.5), np.int64(3),
                 float("nan"), float("inf"), -float("inf")]
SCENARIO_ANTENNAS = [1, 2, 64, 10**307, 10**400, True, 2.0, 0, np.int64(3)]


@pytest.mark.parametrize("m", SCENARIO_ANTENNAS, ids=repr)
def test_scenario_fast_path_accepts_and_rejects_as_before(m):
    # Every pair of reference SNRs, the M/gamma_b0 + 1/gamma_e0 overflow rule
    # among them (1e-307 and 5e-324 at M = 64)
    for gamma_b0, gamma_e0 in product(SCENARIO_SNRS, repeat=2):
        kept = _fields(lambda *a: astuple(Scenario(*a)), gamma_b0, gamma_e0, m)
        assert kept == _fields(_scenario_before_its_fast_path, gamma_b0, gamma_e0, m)


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2 ** 64)
    with pytest.raises(ValueError):
        RngStream(1, stream_id=-2)
    # Each identifier is checked when the stream is built, not at its first
    # draw, and none is converted: a bool, float or string is no index.
    for bad in (True, np.True_, 1.0, 1.5, "2", -1, np.int64(-1)):
        for name, build in (("seed", lambda: RngStream(bad)),
                            ("stream_id", lambda: RngStream(1, bad)),
                            ("branch index", lambda: RngStream(1).substream(0, bad))):
            with pytest.raises(ValueError, match=name):
                build()
    for name, build in (("seed", lambda: RngStream(2 ** 64)),
                        ("stream_id", lambda: RngStream(1, 2 ** 64))):
        with pytest.raises(ValueError, match=f"{name} must be an unsigned 64-bit integer"):
            build()
    # numpy integers pass and are kept as ints, so the spawn key is the same
    numpy_ints = RngStream(np.int64(5), np.uint32(3)).substream(np.int64(2), np.uint8(7))
    python_ints = RngStream(5, 3).substream(2, 7)
    assert repr(numpy_ints) == repr(python_ints) == "RngStream(seed=5, stream_id=3, branch=(2, 7))"
    assert type(numpy_ints.seed) is type(numpy_ints.stream_id) is int
    assert all(type(b) is int for b in numpy_ints._branch)
    assert np.array_equal(numpy_ints.generator.standard_exponential(8),
                          python_ints.generator.standard_exponential(8))
    assert RngStream(np.uint64(2 ** 64 - 1)).seed == 2 ** 64 - 1


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


@pytest.mark.parametrize("count", [0, -3, 2.5, 2.0, True, "3", None], ids=repr)
def test_draw_rejects_a_count_that_is_no_positive_integer(count):
    with pytest.raises(ValueError, match="count must be an integer >= 1"):
        draw_gain_blocks(Scenario(1.0, 1.0, 3), RngStream(1), count)


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
    buffers = list(secrecy._idle_buffers)
    assert buffers
    for i, block in enumerate(blocks):
        assert block.base is None and block.flags.owndata
        assert not any(np.shares_memory(block, other)
                       for other in (*blocks[i + 1:], *buffers))
