"""Faults injected into the package, to show that its self-checks catch them."""

import sys

import tasec.secrecy as secrecy


def negate_btas_terms(monkeypatch):
    """Negate every term of the B-TAS alternating sum. E-TAS also calls
    `delta_e`, so only calls made from `asc_btas_closed` are negated."""
    delta_e = secrecy.delta_e

    def faulty_delta_e(a, b):
        value = delta_e(a, b)
        if sys._getframe(1).f_code is secrecy.asc_btas_closed.__code__:
            return -value
        return value

    monkeypatch.setattr(secrecy, "delta_e", faulty_delta_e)


def drop_last_antenna(monkeypatch):
    """Make `secrecy.snr_ratios` drop the last column of 2-D gain blocks, so
    the O-TAS running max never sees the last antenna. The 1-D ratios of
    the gathered gains the other schemes select are left as they are."""
    snr_ratios = secrecy.snr_ratios

    def faulty_snr_ratios(scenario, bob, eve):
        if bob.ndim == 2:
            return snr_ratios(scenario, bob[:, :-1], eve[:, :-1])
        return snr_ratios(scenario, bob, eve)

    monkeypatch.setattr(secrecy, "snr_ratios", faulty_snr_ratios)


def scale_bob_gains(monkeypatch, factor):
    """Scale every drawn legitimate-link gain by `factor`. The scaled block is
    a new array, not the `out` buffer it was drawn into, so only a caller
    that uses the blocks the draw returns sees the fault."""
    draw = secrecy.draw_gain_blocks

    def biased_draw(scenario, rng, count, out=None):
        bob, eve = draw(scenario, rng, count, out=out)
        return factor * bob, eve

    monkeypatch.setattr(secrecy, "draw_gain_blocks", biased_draw)
