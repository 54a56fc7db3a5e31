"""Operating points and reproducible Rayleigh channel draws.

Fading gains are the squared magnitudes of unit-mean complex Gaussian
coefficients, which are Exponential(1). They are drawn as Exp(1) directly
(numpy's ziggurat sampler) rather than as u^2 + v^2 from two Gaussians; the
law is the same. Phases are never materialized; nothing downstream needs them.
"""

import math
import operator
from dataclasses import dataclass, fields

import numpy as np

_UINT64_MAX = 2**64 - 1


def require_positive(value: float, name: str) -> None:
    """Reject all but a finite real `value` > 0; bools are not real here."""
    if type(value) is float and 0.0 < value < math.inf:  # NaN fails too
        return
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int that rounds past the largest double
        finite = False
    if not finite or value <= 0:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def require_int(value, name: str, low: int) -> int:
    """`value` as an int >= `low`: numpy integers pass, bools and floats do not."""
    if type(value) is int and value >= low:
        return value
    if isinstance(value, bool) or not hasattr(value, "__index__") \
            or operator.index(value) < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True, init=False, slots=True)
class Scenario:
    """One operating point: linear reference SNRs of both links plus the
    transmit antenna count.

    A frozen, slotted dataclass whose `__init__` checks its arguments and
    stores them through the slots' own setters."""

    gamma_b0: float
    gamma_e0: float
    num_antennas: int

    def __init__(self, gamma_b0: float, gamma_e0: float, num_antennas: int):
        gb, ge, m = gamma_b0, gamma_e0, num_antennas
        if not (type(gb) is float and type(ge) is float and type(m) is int
                and 0.0 < gb < math.inf and 0.0 < ge < math.inf and m >= 1):
            require_positive(gb, "gamma_b0")
            require_positive(ge, "gamma_e0")
            m = require_int(m, "num_antennas", 1)
        # The closed forms take E1 at k/gamma_b0 + 1/gamma_e0 (k <= M) and at
        # M/gamma_e0 + 1/gamma_b0; a point where those overflow is rejected.
        if not (math.isfinite(m / gb + 1 / ge) and math.isfinite(m / ge + 1 / gb)):
            raise ValueError(
                f"gamma_b0={gb!r}, gamma_e0={ge!r} are too small at M={m}: "
                "M/gamma_b0 + 1/gamma_e0 or M/gamma_e0 + 1/gamma_b0 overflows a float")
        _set_gamma_b0(self, gb)
        _set_gamma_e0(self, ge)
        _set_num_antennas(self, m)


def slot_setters(cls) -> tuple:
    """The `__set__` of each field slot of a frozen dataclass `cls`, in field
    order: they store a field without the frozen `__setattr__`."""
    return tuple(getattr(cls, field.name).__set__ for field in fields(cls))


_set_gamma_b0, _set_gamma_e0, _set_num_antennas = slot_setters(Scenario)


class RngStream:
    """A single-owner, reproducible random substream.

    The sequence is a pure function of (seed, stream_id) plus any substream
    branch indices: SFC64 seeded by numpy's SeedSequence with those
    identifiers as its spawn key. `substream` derives independently seeded
    children from the identifiers alone (never from consumed state), which
    is what makes chunked Monte Carlo independent of worker count. Every
    identifier is checked here as `require_int` checks an integer, and the
    seed and stream_id must be below 2^64.
    """

    def __init__(self, seed: int, stream_id: int = 0, _branch: tuple = ()):
        for name, value in (("seed", seed), ("stream_id", stream_id)):
            if isinstance(value, bool) or not hasattr(value, "__index__") \
                    or not 0 <= operator.index(value) <= _UINT64_MAX:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
        self.seed, self.stream_id = operator.index(seed), operator.index(stream_id)
        self._branch = tuple(require_int(b, "branch index", 0) for b in _branch)
        self._generator = None

    @property
    def generator(self) -> "np.random.Generator":
        if self._generator is None:
            key = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(self.stream_id, *self._branch))
            self._generator = np.random.Generator(np.random.SFC64(key))
        return self._generator

    def substream(self, *branch: int) -> "RngStream":
        """Derive an independent child stream; does not touch this stream's state."""
        return RngStream(self.seed, self.stream_id, self._branch + branch)

    def __repr__(self):
        return (f"RngStream(seed={self.seed}, stream_id={self.stream_id}"
                + (f", branch={self._branch}" if self._branch else "") + ")")


def draw_gain_blocks(scenario: Scenario, rng: RngStream, count: int,
                     out: tuple[np.ndarray, np.ndarray] | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Draw `count` realizations at once; returns (bob, eve) arrays of shape
    (count, M) of Exp(1) gains, drawn directly with `standard_exponential`.
    Consumes the stream in a fixed order: Bob's block first, then Eve's.

    Without `out` both arrays are new. With `out=(bob, eve)`, two
    non-overlapping, writeable, C-contiguous float64 arrays of shape
    (count, M), it fills them with the same values and returns them; any
    other `out` raises ValueError."""
    count = require_int(count, "count", 1)
    shape = (count, scenario.num_antennas)
    bob, eve = (np.empty(shape), np.empty(shape)) if out is None else out
    for name, block in (("bob", bob), ("eve", eve)):
        if not (isinstance(block, np.ndarray) and block.dtype == np.float64
                and block.shape == shape and block.flags.c_contiguous
                and block.flags.writeable):
            raise ValueError(f"out {name} block must be a writeable C-contiguous "
                             f"float64 array of shape {shape}")
    if np.may_share_memory(bob, eve):
        raise ValueError("out bob and eve blocks must not overlap")
    gen = rng.generator
    gen.standard_exponential(out=bob)
    gen.standard_exponential(out=eve)
    return bob, eve
