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
