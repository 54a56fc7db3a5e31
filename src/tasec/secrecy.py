"""Instantaneous and average secrecy capacity, by three routes.

For the sub-optimal schemes the average secrecy capacity (ASC) is available
in closed form through the scaled exponential-integral difference

    asc_btas = (1/ln 2) sum_{k=1..M} C(M,k) (-1)^(k+1)
               delta_e(k/gamma_b0, 1/gamma_e0 + k/gamma_b0)
    asc_etas = (1/ln 2) delta_e(1/gamma_b0, M/gamma_e0 + 1/gamma_b0)

and, independently, through numerical quadrature of

    asc = (1/ln 2) int_0^inf F_E(x) [1 - F_B(x)] dx/(1 + x)

with the link CDFs of `selection.link_laws`. The optimal scheme couples the
two links; this package has no closed form or product-form quadrature for it
and evaluates it by Monte Carlo (ROUTES; `asc` runs a scheme's routes). MC
runs are chunked onto derived substreams so the estimate is a pure function
of (scenario, scheme, trials, seed, stream) for any worker count. A chunk is
drawn once, into a pooled buffer (`_drawn_chunk`), for every scheme and every
scenario of one antenna count (`mc_asc_curve`; `mc_asc` is its one-scheme,
one-scenario case), and each scheme reduces a group of points at once. One
kernel, `_ratio_capacities`, is the one secrecy-capacity formula, for MC
and, through `_capacities`, the self-checks; O-TAS takes
log2 max(1, max_i R_i) over the per-antenna SNR ratios R_i, with no index.
"""

import math
import os
import sys
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import count, product, repeat
from types import SimpleNamespace

import numpy as np

from .channel import RngStream, Scenario, draw_gain_blocks, require_int, slot_setters
from .errors import UnsupportedSchemeError
# Every closed-form term goes through this module's name `delta_e`, which
# tracing and fault injection wrap. Its arguments are positive and finite by
# Scenario's rules, so it is the E1-memo difference without the checks of
# the public tasec.delta_e.
from .expint import delta_e_unchecked as delta_e
from .quadrature import integrate_half_line
from .selection import TasScheme, asc_integrand, select_indices

_LN2 = math.log(2.0)

# Trials per substream chunk; fixed so that results never depend on how the
# chunks are scheduled across workers. A (chunk, M) float64 gain block stays
# in cache, and short runs still split into several chunks for the workers.
MC_CHUNK_SIZE = 16_384
MC_CHUNK_GAINS = 1 << 20  # gains per link past which a chunk has fewer rows

# `_ratio_capacities` takes 2-D gains a tile of rows (`_tile_rows`) at a
# time, one numpy call per antenna and tile, each a GIL hand-off at two
# threads. _TILE_ROWS caps a tile's rows, _TILE_ELEMENTS each scratch array's
# gains (1 MiB). A group of points (`_chunk_buffer`) takes, beside its
# kernel, a row a point, within the gains of two such arrays.
_TILE_ROWS = 8_192
_TILE_ELEMENTS = 131_072

# Largest rounding-error bound a B-TAS closed-form value may carry; past it
# the value comes from quadrature (see asc_btas_closed).
BTAS_CLOSED_TOL = 1e-9


# The largest M whose every C(M, k) fits a double, past which the B-TAS sum
# is not formed. C(M, M // 2) is the largest C(M, k), grows with M and is at
# most 2^M, so the search starts at the largest M whose 2^M fits.
_BTAS_SUM_MAX_M = next(m for m in count(sys.float_info.max_exp - 1)
                       if math.comb(m + 1, (m + 1) // 2) > sys.float_info.max)


def _bracket(a: float, b: float) -> float:
    """ln(1 + 1/a) + ln(1 + 1/b), a bracket of S (see asc_btas_closed)."""
    return math.log1p(1.0 / a) + math.log1p(1.0 / b)


class Method(str, Enum):
    CLOSED = "closed"
    QUAD = "quad"
    MC = "mc"


# The routes each scheme offers: only btas/etas have closed forms, and otas
# couples the two links, so it has no product-form quadrature either.
ROUTES = {
    TasScheme.OTAS: (Method.MC,),
    TasScheme.BTAS: (Method.CLOSED, Method.QUAD, Method.MC),
    TasScheme.ETAS: (Method.CLOSED, Method.QUAD, Method.MC),
    TasScheme.RANDOM: (Method.QUAD, Method.MC),
}


@dataclass(frozen=True, init=False, slots=True)
class AscEstimate:
    """An ASC value in bits/s/Hz; MC estimates also carry their trial count
    and standard error.

    A frozen, slotted dataclass whose `__init__` checks its arguments; a
    closed or quad float value takes one range test."""

    value: float
    method: Method
    trials: int | None = None
    std_error: float | None = None

    def __init__(self, value: float, method: Method, trials: int | None = None,
                 std_error: float | None = None):
        if not (type(value) is float and 0.0 <= value < math.inf and trials is None
                and std_error is None and method is not Method.MC):
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"ASC must be finite and >= 0, got {value!r}")
            if method is Method.MC:
                if trials is None or trials < 1:
                    raise ValueError("MC estimates need trials >= 1")
                if std_error is None or not (std_error >= 0.0):
                    raise ValueError("MC estimates need std_error >= 0")
            elif trials is not None or std_error is not None:
                raise ValueError(f"{method.value} estimates carry no trials/std_error")
        _set_value(self, value)
        _set_method(self, method)
        _set_trials(self, trials)
        _set_std_error(self, std_error)


_set_value, _set_method, _set_trials, _set_std_error = slot_setters(AscEstimate)


def asc(scenario: Scenario, scheme: TasScheme, method: Method | None = None, *,
        trials: int | None = None, rng: RngStream | None = None,
        threads: int = 1) -> AscEstimate:
    """ASC of `scheme` by `method`, or by the scheme's first route in ROUTES;
    a pair that ROUTES lacks raises UnsupportedSchemeError. Monte Carlo takes
    `trials`, `rng` and `threads` as mc_asc does."""
    scheme = scheme if isinstance(scheme, TasScheme) else TasScheme(scheme)
    if not isinstance(method, Method):
        method = ROUTES[scheme][0] if method is None else Method(method)
    if method not in ROUTES[scheme]:
        raise UnsupportedSchemeError(f"no {method.value} route for {scheme.value}")
    if method is Method.MC:
        return mc_asc(scenario, scheme, trials, rng, threads=threads)
    if method is Method.QUAD:
        return asc_quadrature(scenario, scheme)
    if scheme is TasScheme.BTAS:
        return asc_btas_closed(scenario)
    return asc_etas_closed(scenario)


# ----------------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------------

def _chunk_layout(trials: int, m: int) -> list[tuple[int, int]]:
    """(chunk_index, chunk_size) pairs at M = m; full chunks, then a partial one."""
    rows = min(MC_CHUNK_SIZE, max(1, MC_CHUNK_GAINS // m))
    return [(i, min(rows, trials - start))
            for i, start in enumerate(range(0, trials, rows))]


def _selected_gains(scheme: TasScheme, scenario: Scenario, bob: np.ndarray,
                    eve: np.ndarray, stream: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """The gains each realization's capacity is taken at, from (count, M)
    blocks: the blocks themselves for O-TAS, whose capacity is the largest
    over the antennas, else new 1-D copies of the gains at the antenna
    `scheme` selects (random consumes `stream`)."""
    if scheme is TasScheme.OTAS:
        return bob, eve
    idx = select_indices(scheme, scenario, bob, eve, rng=stream)
    idx += np.arange(0, bob.size, bob.shape[1])  # flat positions, no row array
    return bob.take(idx), eve.take(idx)


# A curve that shares gamma_e0 is folded as g_B/E and 1/E (`_fold_link`)
# only while every gamma0 of it is below this. There no gamma0 g overflows
# (g would pass 2^24, and an Exp(1) draw stays below 45), so each ratio is
# finite wherever the quotient (1 + gamma_b0 g_B)/E is; at the top of the dB
# range the quotient's overflow, and its error, are kept.
_FOLD_LIMIT = 2.0 ** 1000


def _shared_side(scenarios: tuple[Scenario, ...]) -> tuple[str | None, float | None]:
    """The link a curve of two or more scenarios folds once a chunk, and its
    shared reference SNR: "eve" where every scenario shares gamma_e0 and
    every gamma0 is below _FOLD_LIMIT, else "bob" where every scenario
    shares gamma_b0; (None, None) for one scenario, which gains nothing from
    a fold, or where neither rule holds."""
    if len(scenarios) > 1:
        gamma_bs = {s.gamma_b0 for s in scenarios}
        gamma_es = {s.gamma_e0 for s in scenarios}
        if len(gamma_es) == 1 and max(gamma_bs | gamma_es) < _FOLD_LIMIT:
            return "eve", gamma_es.pop()
        if len(gamma_bs) == 1:
            return "bob", gamma_bs.pop()
    return None, None


def _fold_gains(gains: np.ndarray, gamma0: float, out: np.ndarray) -> np.ndarray:
    """1 + gamma0 g, a link's SNR term, written to and returned as `out`,
    which may be `gains` itself: the unfolded sides of `_snr_ratios`, and the
    first step of `_fold_link`."""
    np.multiply(gains, gamma0, out=out)
    out += 1.0
    return out


def _fold_link(folded: str, gamma0: float, bob: np.ndarray, eve: np.ndarray) -> None:
    """Fold the link `folded` of (bob, eve) gains, its reference SNR
    `gamma0`, in place, for `_snr_ratios(..., folded=folded)`: "bob" holds
    1 + gamma0 g_B; for "eve", with E = 1 + gamma0 g_E, bob holds g_B/E and
    eve 1/E."""
    if folded == "bob":
        _fold_gains(bob, gamma0, out=bob)
        return
    _fold_gains(eve, gamma0, out=eve)
    np.divide(bob, eve, out=bob)
    np.divide(1.0, eve, out=eve)


def _snr_ratios(scenario: Scenario, bob_gains: np.ndarray, eve_gains: np.ndarray,
                out: tuple[np.ndarray, ...], folded: str | None = None) -> np.ndarray:
    """Per-antenna SNR ratio (1 + gamma_b0 g_B) / (1 + gamma_e0 g_E), whose
    log2 is the instantaneous secrecy capacity before its clamp at 0.

    Computed without temporaries in `out=(bob_out, eve_out)`, arrays of the
    gains' shape (or (S, count) for 1-D gains and (S, 1) gamma0 columns),
    and returned as `out[0]`; the gains are left untouched. Gains `folded`
    by `_fold_link` take only `out[0]`: a "bob" fold forms the quotient over
    the eavesdropper's term, bit for bit as without the fold, and an "eve"
    fold forms gamma_b0 (g_B/E) + 1/E, one multiply and one add. The two
    forms differ in their last bits, each within about 3 ulp of the exact
    ratio. A gamma0 g that overflows a double gives an inf or NaN
    ratio, or a ratio of 0.
    """
    if folded == "eve":
        ratios = np.multiply(bob_gains, scenario.gamma_b0, out=out[0])
        ratios += eve_gains
        return ratios
    tiles = iter(out)
    bob = (bob_gains if folded == "bob"
           else _fold_gains(bob_gains, scenario.gamma_b0, next(tiles)))
    eve = _fold_gains(eve_gains, scenario.gamma_e0, next(tiles))
    return np.divide(bob, eve, out=out[0])


def _ratio_arrays(folded: str | None) -> int:
    """Arrays `_snr_ratios` fills: the ratios and, unfolded, the eavesdropper's term."""
    return 1 if folded else 2


def _ratio_capacities(scenarios: Sequence[Scenario], bob: np.ndarray, eve: np.ndarray,
                      out: np.ndarray, scratch: np.ndarray,
                      folded: str | None = None) -> np.ndarray:
    """Each realization's secrecy capacity at each of `scenarios`, a row of
    `out` (S, count) each, from the gains `_selected_gains` returns, with
    the link `folded` already folded (`_fold_link`): log2 of the largest of
    1 and the SNR ratios in a row of 2-D gains (the one ratio of 1-D gains).
    The gains are left as they are. 1-D gains take every scenario at once,
    each unfolded side folded with a column of the S gamma0s into `out`,
    then the flat `scratch`. 2-D gains go a scenario and a tile of rows at a
    time, the ratios out of place in `scratch` (`_ratio_arrays` tile
    arrays), and a row's largest is a running maximum over the tile's
    columns from 1 (an axis-1 reduce is slow on rows this short): the ratio
    at the argmax, with the same float operations, or 1 where log2 would
    clamp at 0; a NaN wins it. Tiles and groups only split the work, so no
    value depends on their size.
    """
    arrays = _ratio_arrays(folded)
    if bob.ndim == 1:
        gammas = np.array([(s.gamma_b0, s.gamma_e0) for s in scenarios])
        columns = SimpleNamespace(gamma_b0=gammas[:, :1], gamma_e0=gammas[:, 1:])
        terms = (out, *scratch[:(arrays - 1) * out.size].reshape(arrays - 1, *out.shape))
        np.maximum(_snr_ratios(columns, bob, eve, terms, folded), 1.0, out=out)
        return np.log2(out, out=out)
    count, width = bob.shape
    step = _tile_rows(width)
    for scenario, capacities in zip(scenarios, out):
        for start in range(0, count, step):
            rows = slice(start, start + step)
            part = bob[rows]
            tiles = scratch[:arrays * part.size].reshape(arrays, *part.shape)
            ratios = _snr_ratios(scenario, part, eve[rows], out=tuple(tiles), folded=folded)
            ratio = capacities[rows]
            np.maximum(ratios[:, 0], 1.0, out=ratio)
            for column in ratios.T[1:]:
                np.maximum(ratio, column, out=ratio)
    return np.log2(out, out=out)


def _tile_rows(width: int) -> int:
    """Rows per tile of `_ratio_capacities` for 2-D gains `width` to a row."""
    return max(1, min(_TILE_ROWS, _TILE_ELEMENTS // width))


def _capacities(scenario: Scenario, scheme: TasScheme, bob: np.ndarray,
                eve: np.ndarray, stream: RngStream, scratch: np.ndarray | None = None
                ) -> np.ndarray:
    """Each realization's secrecy capacity at the antenna `scheme` selects,
    from (count, M) gain blocks, left untouched, as a new array: a Monte
    Carlo chunk's kernels at one scenario (random consumes `stream`). The
    flat `scratch` that `_drawn_chunk` yields for `scheme` at `scenario` is
    used in place of a new one of 2 * count * M elements."""
    gains = _selected_gains(scheme, scenario, bob, eve, stream)
    if scratch is None:
        scratch = np.empty(2 * bob.size)
    return _ratio_capacities((scenario,), *gains, np.empty((1, len(bob))), scratch)[0]


def _chunk_buffer(scenarios: tuple[Scenario, ...], schemes: Sequence[TasScheme],
                  size: int) -> tuple[int, dict[TasScheme, int]]:
    """(elements, groups): the buffer a chunk of `size` rows takes, two gain
    blocks and a scratch, and the points each scheme reduces at once. A
    group takes a row of capacities a point at the scratch's head, and the
    scheme's kernel the rest: O-TAS's tile arrays, or a second row a point
    for an unfolded 1-D side. It holds as many points as fit beside the
    kernel in 2 * _TILE_ELEMENTS, or for O-TAS alone in two tile arrays."""
    m, points = scenarios[0].num_antennas, len(scenarios)
    arrays = _ratio_arrays(_shared_side(scenarios)[0])
    tiles = m * _tile_rows(m)
    budget = 2 * (_TILE_ELEMENTS if set(schemes) - {TasScheme.OTAS} else tiles)
    # each scheme's (kernel, elements a point) in the scratch
    takes = {s: (arrays * tiles, size) if s is TasScheme.OTAS else (0, arrays * size)
             for s in schemes}
    groups = {s: min(points, max(1, (budget - kernel) // row))
              for s, (kernel, row) in takes.items()}
    scratch = max(kernel + row * groups[s] for s, (kernel, row) in takes.items())
    return 2 * size * m + scratch, groups


# Flat buffers that no chunk is using, as many as chunks that ever ran at
# once, each of the largest buffer a chunk took from it. They outlive the
# chunks, the calls and so the worker threads. list.pop and list.append are
# atomic, so no two chunks use the same buffer.
_idle_buffers: list[np.ndarray] = []


def _take_buffer(n: int) -> np.ndarray:
    """An idle flat buffer of at least `n` elements; a smaller one is dropped."""
    try:
        buffer = _idle_buffers.pop()
    except IndexError:
        buffer = None
    if buffer is None or buffer.size < n:
        buffer = np.empty(n)
    return buffer


@contextmanager
def _drawn_chunk(scenarios: tuple[Scenario, ...], schemes: Sequence[TasScheme],
                 stream: RngStream, size: int):
    """(bob, eve, scratch, groups): the blocks `draw_gain_blocks` returns for
    a chunk of `size` rows drawn from `stream` into the head of an idle
    buffer, the flat scratch behind them, and each scheme's group, all as
    `_chunk_buffer` lays them out. The buffer is made idle again when the
    block ends without an error."""
    m = scenarios[0].num_antennas
    elements, groups = _chunk_buffer(scenarios, schemes, size)
    buffer = _take_buffer(elements)
    blocks = buffer[:2 * size * m].reshape(2, size, m)
    bob, eve = draw_gain_blocks(scenarios[0], stream, size, out=tuple(blocks))
    yield bob, eve, buffer[blocks.size:], groups
    _idle_buffers.append(buffer)


def _chunk_moments(scenarios: tuple[Scenario, ...], schemes: tuple[TasScheme, ...],
                   rng: RngStream, index: int, size: int
                   ) -> list[tuple[int, float, float]]:
    """Secrecy-capacity sample moments (n, mean, sum of squared deviations)
    of one chunk at each (scheme, scenario) pair of `schemes` x `scenarios`,
    scheme-major; the scenarios share one antenna count. The chunk is drawn
    once, from the substream derived for `index` (`_drawn_chunk`), then
    selected once per scheme; only random consumes the substream, after the
    draw. The link `_shared_side` names is folded in place by `_fold_link`,
    once a scheme: in its 1-D copies, or in the drawn blocks for O-TAS,
    which runs last. So every scheme's capacity at a point comes from the
    same operations on the same doubles, and O-TAS's is at least each
    selected antenna's. Every scheme forms its capacities a group of points
    at a time (`_chunk_buffer`) in the scratch's head, and reduces them in
    place as np.mean(cs) and np.sum((cs - mean) ** 2) would per point: an
    axis-1 reduce sums a row pairwise, as a 1-D one does. An overflowing
    gamma0 g gives an inf or NaN mean, and no warning."""
    stream = rng.substream(index)
    folded, gamma0 = _shared_side(scenarios)
    moments = {}
    drawn = _drawn_chunk(scenarios, schemes, stream, size)
    with np.errstate(all="ignore"), drawn as (bob, eve, scratch, groups):
        for scheme in sorted(schemes, key=lambda s: s is TasScheme.OTAS):
            gains = _selected_gains(scheme, scenarios[0], bob, eve, stream)
            if folded:
                _fold_link(folded, gamma0, *gains)
            step = groups[scheme]
            moments[scheme] = []
            for start in range(0, len(scenarios), step):
                part = scenarios[start:start + step]
                cs = scratch[:len(part) * size].reshape(len(part), size)
                _ratio_capacities(part, *gains, cs, scratch[cs.size:], folded)
                means = np.add.reduce(cs, axis=1) / size
                cs -= means[:, None]
                cs *= cs
                moments[scheme] += zip(repeat(size), means.tolist(),
                                       np.add.reduce(cs, axis=1).tolist())
            del gains  # freed before the next scheme selects
    return [moment for scheme in schemes for moment in moments[scheme]]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _run_queue(job, queue: Sequence, threads: int) -> dict:
    """{entry: job(entry)} over the distinct entries of `queue`, run in queue
    order on at most `threads` workers, never more than there are entries or
    CPUs this process may use; one worker runs them on the calling thread."""
    workers = min(require_int(threads, "threads", 1), len(queue), _usable_cpus())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return dict(zip(queue, pool.map(job, queue)))
    return {entry: job(entry) for entry in queue}


def _merge_moments(a: tuple[int, float, float],
                   b: tuple[int, float, float]) -> tuple[int, float, float]:
    """Chan's parallel update of (n, mean, m2); exact merge of two chunks."""
    na, mean_a, m2a = a
    nb, mean_b, m2b = b
    n = na + nb
    delta = mean_b - mean_a
    mean = mean_a + delta * nb / n
    m2 = m2a + m2b + delta * delta * na * nb / n
    return n, mean, m2


def _mc_asc_curves(curves: Sequence[tuple[Sequence[Scenario], Sequence[TasScheme], RngStream]],
                   trials: int, threads: int = 1) -> list[dict[TasScheme, list[AscEstimate]]]:
    """mc_asc_curve of each (scenarios, schemes, rng) curve, all checked
    before any draw, on one queue; an overflow names the first such curve."""
    checked = []
    for scenarios, schemes, rng in curves:
        scenarios = tuple(scenarios)
        if not scenarios:
            raise ValueError("Monte Carlo needs at least one scenario")
        if len({s.num_antennas for s in scenarios}) > 1:
            raise ValueError("the scenarios of one Monte Carlo curve must share "
                             "one antenna count")
        named = () if isinstance(schemes, str) else tuple(map(TasScheme, schemes))
        if not named or len(set(named)) < len(named):
            raise ValueError("Monte Carlo needs a non-empty sequence of distinct "
                             f"schemes, got {schemes!r}")
        if not isinstance(rng, RngStream):
            raise ValueError(f"Monte Carlo needs an RngStream as rng, got {rng!r}")
        checked.append((scenarios, named, rng))
    trials = require_int(trials, "trials", 2)

    jobs = [(curve, index, size) for curve, (scenarios, _, _) in enumerate(checked)
            for index, size in _chunk_layout(trials, scenarios[0].num_antennas)]
    queue = sorted(jobs, key=lambda job: _chunk_buffer(*checked[job[0]][:2], job[2])[0],
                   reverse=True)
    done = _run_queue(lambda job: _chunk_moments(*checked[job[0]], *job[1:]), queue, threads)

    estimates = []
    for curve, (scenarios, schemes, _) in enumerate(checked):
        results = [done[entry] for entry in jobs if entry[0] == curve]  # in chunk order
        estimates.append({scheme: [] for scheme in schemes})
        for (scheme, scenario), moments in zip(product(schemes, scenarios), zip(*results)):
            n, mean, m2 = reduce(_merge_moments, moments)
            if not math.isfinite(mean):
                raise ValueError(
                    f"Monte Carlo: gamma0*g overflows a double at gamma_b0="
                    f"{scenario.gamma_b0:.6g}, gamma_e0={scenario.gamma_e0:.6g}; for "
                    f"{scheme.value}, use method closed or quad where the scheme has them")
            std_error = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
            estimates[-1][scheme].append(AscEstimate(mean, Method.MC, trials, std_error))
    return estimates


def mc_asc_curve(scenarios: Sequence[Scenario], schemes: Sequence[TasScheme],
                 trials: int, rng: RngStream, threads: int = 1
                 ) -> dict[TasScheme, list[AscEstimate]]:
    """Monte Carlo ASC of each of the distinct `schemes` at each of
    `scenarios`, which share one antenna count, as a list per scheme in the
    order given. Every chunk is drawn once and serves every scheme and
    scenario (common random numbers). Each estimate has its own std_error;
    the estimates of one call are correlated, positively wherever measured.
    Each is bit-identical to mc_asc's on the same stream unless two or more
    points share gamma_e0: there, while every gamma0 is below 2^1000, each
    chunk folds the eavesdropper's link into the gains once (_fold_link),
    and each ratio is gamma_b0 (g_B/E) + 1/E, within a few ulp of mc_asc's
    quotient.

    Chunks of MC_CHUNK_SIZE rows, or MC_CHUNK_GAINS // M past M = 64, run
    on substreams derived from the chunk index, and each estimate's moments
    merge in chunk order, so no estimate depends on `threads` or on the
    order the chunks run in: this is the one-curve case of _mc_asc_curves,
    whose one queue for several curves (a sweep's antenna counts) runs the
    largest buffer first (_chunk_buffer), so no worker drops a pooled
    buffer mid-call. At most `threads` workers run, never more than there
    are chunks in all or CPUs this process may use; their buffers stay
    pooled for the life of the process, each at most 18 MiB and 128 KiB
    (M <= 131,072): two gain blocks, two tile arrays and a row of capacities.
    A gamma_b0 that every scenario shares is folded once a chunk too, bit
    for bit as without the fold.
    ValueError is raised at the top of the dB range, where a drawn gamma0*g
    overflows a double and a mean is not finite; it names the first such
    scheme, in the order given, and its first such scenario.
    """
    return _mc_asc_curves([(scenarios, schemes, rng)], trials, threads)[0]


def mc_asc(scenario: Scenario, scheme: TasScheme, trials: int,
           rng: RngStream, threads: int = 1) -> AscEstimate:
    """Monte Carlo ASC: average the clamped secrecy capacity at the selected
    antenna over `trials` independent fading realizations. The one-scenario,
    one-scheme case of mc_asc_curve, with its chunks, workers and errors."""
    return mc_asc_curve((scenario,), (scheme,), trials, rng, threads)[TasScheme(scheme)][0]


# ----------------------------------------------------------------------------
# Quadrature of the general ASC integral
# ----------------------------------------------------------------------------

def asc_quadrature(scenario: Scenario, scheme: TasScheme) -> AscEstimate:
    """ASC by trapezoid quadrature in ln x of the scheme's `asc_integrand`,
    with its right end guessed from the laws' scale; otas raises
    UnsupportedSchemeError. The integral meets an absolute tolerance of
    1e-10 across the dB range, save its top: above a reference SNR of about
    3,067 dB the tail does not vanish below the largest double, and
    ConvergenceError is raised."""
    integrand, sign, scale = asc_integrand(scheme, scenario)
    value = sign * integrate_half_line(integrand, scale=scale) / _LN2
    return AscEstimate(max(0.0, value), Method.QUAD)


# ----------------------------------------------------------------------------
# Closed forms
# ----------------------------------------------------------------------------

def asc_btas_closed(scenario: Scenario) -> AscEstimate:
    """ASC of legitimate-based selection by the alternating binomial sum over
    delta_e terms, or by asc_quadrature (method quad) where the sum's error
    bound 8 eps S exceeds BTAS_CLOSED_TOL (always past M = 1,029,
    _BTAS_SUM_MAX_M). Quadrature raises ConvergenceError only where its tail
    passes the largest double, above a gamma_b0 of about 3,067 dB.

    S = sum_k C(M,k) (ln(1 + 1/a_k) + ln(1 + 1/b_k)) / ln 2 over the term
    arguments, and f(x) = exp(x) E1(x) < ln(1 + 1/x) (A&S 5.1.20). Each f is
    computed within 3.2 eps (see expint). Rounding its argument adds 1.5 eps
    of f, as |x f'(x)| = 1 - x f(x) < f(x). The subtraction in delta_e, the
    rounded C(M,k) and their product add 1.5 eps of C(M,k) (f(a_k) + f(b_k)).
    fsum and the division by ln 2 add 1.5 eps of the result, which is at
    most S. That is 7.7 eps S in all. At (10, 10) dB the sum is kept up to
    M = 18. The bracket L_k of C(M,k) in S falls with k, and the C(M,k) sum to
    2^M - 1, so (2^M - 1) L_M <= S ln 2 <= (2^M - 1) L_1. S is summed only
    where these bounds, widened by 1% for its rounding, straddle the limit
    BTAS_CLOSED_TOL / (8 eps); there L_1 <= M L_M keeps it finite.
    """
    m = scenario.num_antennas
    if m > _BTAS_SUM_MAX_M:
        return asc_quadrature(scenario, TasScheme.BTAS)
    inv_gb = 1.0 / scenario.gamma_b0
    inv_ge = 1.0 / scenario.gamma_e0
    # The L at which (2^M - 1) L / ln 2 meets the limit; ldexp, as 2^M overflows
    cap = (math.ldexp(BTAS_CLOSED_TOL * _LN2 / (8.0 * sys.float_info.epsilon), -m)
           / (1.0 - math.ldexp(1.0, -m)))
    if _bracket(m * inv_gb, inv_ge + m * inv_gb) > 1.01 * cap:
        return asc_quadrature(scenario, TasScheme.BTAS)
    if _bracket(inv_gb, inv_ge + inv_gb) >= 0.99 * cap:
        scale = math.fsum(math.comb(m, k) * _bracket(k * inv_gb, inv_ge + k * inv_gb)
                          for k in range(1, m + 1)) / _LN2
        if 8.0 * sys.float_info.epsilon * scale > BTAS_CLOSED_TOL:
            return asc_quadrature(scenario, TasScheme.BTAS)
    terms = []
    for k in range(1, m + 1):
        binom, a = math.comb(m, k), k * inv_gb
        terms.append((binom if k % 2 else -binom) * delta_e(a, inv_ge + a))
    # Clamp: for near-degenerate SNRs the sum of correctly-rounded terms can
    # land an ulp below zero.
    return AscEstimate(max(0.0, math.fsum(terms) / _LN2), Method.CLOSED)


def asc_etas_closed(scenario: Scenario) -> AscEstimate:
    """Closed-form ASC of eavesdropper-based selection.

    Same shape as the single-antenna expression with the eavesdropper's
    average SNR cut by the antenna count M.
    """
    inv_gb = 1.0 / scenario.gamma_b0
    value = delta_e(inv_gb, scenario.num_antennas / scenario.gamma_e0 + inv_gb) / _LN2
    return AscEstimate(max(0.0, value), Method.CLOSED)
