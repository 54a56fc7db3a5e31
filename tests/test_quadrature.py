import math

import numpy as np
import pytest

from tasec.errors import ConvergenceError
from tasec.quadrature import (_GK_NODES, _W_GAUSS, _W_KRONROD, integrate_adaptive,
                              integrate_half_line)


def test_polynomial_exact():
    value = integrate_adaptive(lambda x: x ** 2, 0.0, 1.0, abs_tol=1e-12)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_oscillatory_interval():
    value = integrate_adaptive(np.sin, 0.0, 2.0 * math.pi, abs_tol=1e-12)
    assert value == pytest.approx(0.0, abs=1e-10)


def test_half_line_exponential():
    value = integrate_half_line(lambda x: np.exp(-x), abs_tol=1e-12)
    assert value == pytest.approx(1.0, abs=1e-11)


def test_half_line_rational():
    value = integrate_half_line(lambda x: 1.0 / (1.0 + x) ** 2, abs_tol=1e-12)
    assert value == pytest.approx(1.0, abs=1e-11)


def test_half_line_scaled_tail():
    # integrand stretched over three decades, like the wide-SNR sweeps
    beta = 1000.0
    value = integrate_half_line(lambda x: np.exp(-x / beta) / beta, abs_tol=1e-12)
    assert value == pytest.approx(1.0, abs=1e-10)


def test_invalid_interval():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 1.0, 0.0)


def test_subdivision_cap():
    # the endpoint singularity keeps error estimates alive, so the interval
    # cap must trip before the impossible tolerance is reached
    with pytest.raises(ConvergenceError):
        integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0,
                           abs_tol=1e-14, max_intervals=4, seed_intervals=1)


def test_one_integrand_call_per_round():
    # every pending panel of a round is evaluated in one call on an (n, 15)
    # array; a per-panel loop would call f once per panel (about 20 times)
    shapes = []

    def f(x):
        shapes.append(x.shape)
        return np.exp(-x)

    assert integrate_half_line(f, abs_tol=1e-12) == pytest.approx(1.0, abs=1e-12)
    assert len(shapes) <= 3
    assert all(len(shape) == 2 and shape[1] == 15 for shape in shapes)


def gk_error(f, lo, hi):
    """The GK15/G7 error estimate of each panel [lo, hi], by QUADPACK's
    formula, from the module's nodes and weights."""
    half = 0.5 * (hi - lo)
    y = f(0.5 * (lo + hi)[:, None] + half[:, None] * _GK_NODES)
    k15 = y @ _W_KRONROD
    g7 = y[:, 1::2] @ _W_GAUSS
    resasc = half * (np.abs(y - 0.5 * k15[:, None]) @ _W_KRONROD)
    return resasc * np.minimum(1.0, (200.0 * half * np.abs(k15 - g7) / resasc) ** 1.5)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0),
    (np.sqrt, 0.0, 1.0),
    (lambda x: np.exp(-x) * (1.0 + np.sin(20.0 * x)), 0.0, 5.0),
], ids=["peak", "sqrt", "oscillating"])
def test_accepted_panels_share_the_tolerance(f, a, b):
    # Panels are read back from the abscissas of each round: a panel is
    # final when the next round evaluates nothing inside it.
    rounds = []

    def recorded(x):
        rounds.append(x.copy())
        return f(x)

    abs_tol = 1e-12
    integrate_adaptive(recorded, a, b, abs_tol=abs_tol)
    assert len(rounds) >= 2
    total_err, final_panels = 0.0, 0
    for i, x in enumerate(rounds):
        half = (x[:, -1] - x[:, 0]) / (2.0 * _GK_NODES[-1])
        lo, hi = x[:, 7] - half, x[:, 7] + half
        later = rounds[i + 1][:, 7] if i + 1 < len(rounds) else np.array([])
        final = ~np.any((later[None, :] > lo[:, None]) & (later[None, :] < hi[:, None]), axis=1)
        total_err += gk_error(f, lo[final], hi[final]).sum()
        final_panels += int(final.sum())
    assert final_panels <= 2000
    assert total_err <= abs_tol
