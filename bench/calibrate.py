"""A fixed reference kernel that tracks the speed of the shared machine.

The machine's speed drifts by 10-20% over tens of seconds, because other
tenants share its cores and its L3. Run-to-run medians of a pass follow
that drift. So the worker runs small calibration pieces inside every timed
pass, at the same moments as the program's work, and times them apart from
it. A piece does the same kind of work as the workload, but none of it is
the program's code, so a change to the program never moves it:

- `scalar`: pure-Python scalar work (exp, calls, an adaptive Simpson rule
  kept on a heap), like the closed-form and quadrature path;
- `array`: numpy Philox exponentials, a ratio argmax and log2 over a
  32,768 x 8 block, like the Monte Carlo path, in as many threads as the
  workload's Monte Carlo runs.

`run.py` divides each time metric by the run's speed factor: the median
over the passes of the mean CPU time of a piece, over its nominal CPU time
below. The metrics then read as seconds at the nominal speed. CPU time
rather than wall time, because the wall time of a two-thread piece also
holds thread start-up and join, which are noisier than the work.
"""

import heapq
import math
import threading

import numpy as np

# Nominal CPU seconds of one piece, near the medians measured on the machine
# described in README.md. They only set the scale of the metrics; the
# spread comes from the measured pieces.
NOMINAL_CPU_S = {("scalar", 1): 0.0110, ("array", 1): 0.0108, ("array", 2): 0.0212}

_SCALAR_INTERVALS = 2_400
_ARRAY_ROWS, _ARRAY_COLS = 32_768, 8


def _integrand(x: float) -> float:
    return math.exp(-x) / (1.0 + x)


def _simpson(a: float, b: float) -> tuple[float, float]:
    """Simpson's rule on [a, b] and its error against the two halves."""
    m = 0.5 * (a + b)
    fa, fm, fb = _integrand(a), _integrand(m), _integrand(b)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    left = (m - a) * (fa + 4.0 * _integrand(0.5 * (a + m)) + fm) / 6.0
    right = (b - m) * (fm + 4.0 * _integrand(0.5 * (m + b)) + fb) / 6.0
    return left + right, abs(left + right - whole)


def scalar_kernel() -> float:
    """Adaptive Simpson over [0, 40], splitting the worst interval first."""
    value, error = _simpson(0.0, 40.0)
    heap = [(-error, 0.0, 40.0, value)]
    total = value
    for _ in range(_SCALAR_INTERVALS):
        _, a, b, value = heapq.heappop(heap)
        total -= value
        m = 0.5 * (a + b)
        for lo, hi in ((a, m), (m, b)):
            part, part_error = _simpson(lo, hi)
            total += part
            heapq.heappush(heap, (-part_error, lo, hi, part))
    return total


def array_kernel(key: int) -> float:
    generator = np.random.Generator(np.random.Philox(key=key))
    bob = generator.standard_exponential((_ARRAY_ROWS, _ARRAY_COLS))
    eve = generator.standard_exponential((_ARRAY_ROWS, _ARRAY_COLS))
    pick = np.argmax(bob / (1.0 + eve), axis=1)
    rows = np.arange(_ARRAY_ROWS)
    return float(np.log2((1.0 + bob[rows, pick]) / (1.0 + eve[rows, pick])).mean())


def piece(kind: str, threads: int) -> None:
    """One calibration piece, 10-25 ms, in `threads` threads."""
    if kind == "scalar":
        scalar_kernel()
        return
    workers = [threading.Thread(target=array_kernel, args=(key,))
               for key in range(1, threads)]
    for w in workers:
        w.start()
    array_kernel(0)
    for w in workers:
        w.join()
