"""Link-budget bookkeeping and reproducible Rayleigh channel draws.

Fading gains are the squared magnitudes of unit-mean complex Gaussian
coefficients, which are Exponential(1). They are drawn as Exp(1) directly
(numpy's ziggurat sampler) rather than as u^2 + v^2 from two Gaussians; the
law is the same. Phases are never materialized; nothing downstream needs them.
"""

import math
from dataclasses import dataclass

import numpy as np

_UINT64_MAX = 2**64 - 1


def _require_positive(value: float, name: str) -> None:
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class LinkBudget:
    """Physical parameters that collapse into the two reference SNRs.

    transmit_power and noise_density in watts, distances in meters,
    path_loss_exponent dimensionless. All strictly positive.
    """

    transmit_power: float
    distance_bob: float
    distance_eve: float
    path_loss_exponent: float
    noise_density: float

    def __post_init__(self):
        for name in ("transmit_power", "distance_bob", "distance_eve",
                     "path_loss_exponent", "noise_density"):
            _require_positive(getattr(self, name), name)


@dataclass(frozen=True)
class Scenario:
    """One operating point: linear reference SNRs of both links plus the
    transmit antenna count."""

    gamma_b0: float
    gamma_e0: float
    num_antennas: int

    def __post_init__(self):
        _require_positive(self.gamma_b0, "gamma_b0")
        _require_positive(self.gamma_e0, "gamma_e0")
        m = self.num_antennas
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ValueError(f"num_antennas must be an integer >= 1, got {m!r}")


@dataclass(frozen=True)
class ChannelRealization:
    """One fading draw: M gains toward Bob and M toward Eve."""

    bob_gains: np.ndarray
    eve_gains: np.ndarray

    def __post_init__(self):
        bob = np.asarray(self.bob_gains, dtype=float)
        eve = np.asarray(self.eve_gains, dtype=float)
        object.__setattr__(self, "bob_gains", bob)
        object.__setattr__(self, "eve_gains", eve)
        if bob.ndim != 1 or eve.ndim != 1 or bob.shape != eve.shape:
            raise ValueError("bob_gains and eve_gains must be 1-d and equally long")
        if bob.size < 1:
            raise ValueError("need at least one antenna")
        for name, gains in (("bob_gains", bob), ("eve_gains", eve)):
            if not np.all(np.isfinite(gains)) or np.any(gains < 0):
                raise ValueError(f"{name} must be finite and >= 0")

    @property
    def num_antennas(self) -> int:
        return self.bob_gains.size


class RngStream:
    """A single-owner, reproducible random substream.

    The sequence is a pure function of (seed, stream_id) plus any substream
    branch indices, realized as Philox keyed through numpy's SeedSequence
    spawn mechanism. Identical identifiers reproduce identical draws
    bit-exactly; `substream` derives statistically independent children from
    the identifiers alone (never from consumed state), which is what makes
    chunked Monte Carlo independent of worker count.
    """

    def __init__(self, seed: int, stream_id: int = 0, _branch: tuple = ()):
        for name, value in (("seed", seed), ("stream_id", stream_id)):
            if not isinstance(value, int) or isinstance(value, bool) \
                    or not 0 <= value <= _UINT64_MAX:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
        self.seed = seed
        self.stream_id = stream_id
        self._branch = tuple(int(b) for b in _branch)
        self._generator = None

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            key = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(self.stream_id, *self._branch))
            self._generator = np.random.Generator(np.random.Philox(key))
        return self._generator

    def substream(self, *branch: int) -> "RngStream":
        """Derive an independent child stream; does not touch this stream's state."""
        return RngStream(self.seed, self.stream_id, self._branch + branch)

    def __repr__(self):
        return (f"RngStream(seed={self.seed}, stream_id={self.stream_id}"
                + (f", branch={self._branch}" if self._branch else "") + ")")


def reference_snrs(budget: LinkBudget) -> tuple[float, float]:
    """Single-antenna average SNRs (gamma_b0, gamma_e0) of the two links:
    transmit power over noise, attenuated by distance^(-path_loss_exponent)."""
    alpha = budget.path_loss_exponent
    gamma_b0 = budget.transmit_power * budget.distance_bob ** -alpha / budget.noise_density
    gamma_e0 = budget.transmit_power * budget.distance_eve ** -alpha / budget.noise_density
    return gamma_b0, gamma_e0


def draw_gain_blocks(scenario: Scenario, rng: RngStream,
                     count: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw `count` realizations at once; returns (bob, eve) arrays of shape
    (count, M) of Exp(1) gains, drawn directly with `standard_exponential`.
    Consumes the stream in a fixed order: Bob's block first, then Eve's."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    gen = rng.generator
    m = scenario.num_antennas
    shape = (count, m)
    bob = gen.standard_exponential(shape)
    eve = gen.standard_exponential(shape)
    return bob, eve


def draw_realization(scenario: Scenario, rng: RngStream) -> ChannelRealization:
    """Draw one quasi-static fading realization (2M independent gains)."""
    bob, eve = draw_gain_blocks(scenario, rng, 1)
    return ChannelRealization(bob[0], eve[0])


def instantaneous_snrs(scenario: Scenario, realization: ChannelRealization,
                       antenna: int) -> tuple[float, float]:
    """Per-antenna instantaneous SNRs (gamma_b, gamma_e); unit-power symbols,
    so the SNR is just reference SNR times the fading gain."""
    m = realization.num_antennas
    if not isinstance(antenna, int) or isinstance(antenna, bool) \
            or not 0 <= antenna < m:
        raise IndexError(f"antenna index {antenna!r} out of range [0, {m})")
    return (scenario.gamma_b0 * float(realization.bob_gains[antenna]),
            scenario.gamma_e0 * float(realization.eve_gains[antenna]))
