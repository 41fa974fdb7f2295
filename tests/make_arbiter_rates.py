#!/usr/bin/env python3
"""Regenerate ``data/arbiter_rates.json``: the ergodic secrecy sum-rate at
every point of the arbiter grid, by 40-digit mpmath quadrature.

The grid spans n_t 2-256, bits 0-16, alpha 1e-3-1 and -60-80 dB, 270
points.  The tests hold the closed form and the quadrature oracle to the
file and re-derive a sample of it with the functions below.  It takes
about half a minute:

    PYTHONPATH=src python3 tests/make_arbiter_rates.py
"""

import json
import pathlib

from zfsecrecy.params import SystemParams

RATES_FILE = pathlib.Path(__file__).resolve().parent / "data" / "arbiter_rates.json"

ARBITER_GRID = [(n_t, bits, alpha, snr_db)
                for n_t in (2, 5, 16, 64, 128, 256) for bits in (0, 4, 16)
                for alpha in (1e-3, 0.5, 1.0)
                for snr_db in (-60, -20, 0, 20, 80)]


def mpmath_half_line(mpmath, integrand):
    """integral_0^inf integrand(x) dx at 40 digits, by Gauss-Legendre in
    u = ln x on intervals of width 8 over u in [-48, 48] (x from 1e-21 to
    1e21): an independent rule, and one that resolves every scale there."""
    with mpmath.workdps(40):
        return mpmath.quad(lambda u: integrand(mpmath.exp(u)) * mpmath.exp(u),
                           mpmath.linspace(-48, 48, 13),
                           method="gauss-legendre")


def mpmath_rate(mpmath, n_t, bits, alpha, snr_db) -> float:
    """The rate at 40 digits: n_t log2(e) times the integral of the two
    links' survival functions' difference over 1 + x."""
    p = SystemParams(n_t=n_t, bits=bits, alpha=alpha, snr_db=snr_db)
    with mpmath.workdps(40):
        s = mpmath.mpf(p.noise_over_power)
        s_eav = mpmath.mpf(p.eav_noise_over_power)
        d = mpmath.mpf(2) ** (-mpmath.mpf(bits) / (n_t - 1))
        return float(n_t / mpmath.log(2) * mpmath_half_line(
            mpmath, lambda x: (mpmath.exp(-x * s) / (1 + d * x) ** (n_t - 1)
                               - mpmath.exp(-x * s_eav) / (1 + x) ** (n_t - 1))
            / (1 + x)))


def load_rates() -> dict:
    """{(n_t, bits, alpha, snr_db): rate} of the committed file."""
    rows = json.loads(RATES_FILE.read_text())
    return {tuple(row[:4]): row[4] for row in rows}


def main() -> None:
    import mpmath
    rows = [[*point, mpmath_rate(mpmath, *point)] for point in ARBITER_GRID]
    RATES_FILE.parent.mkdir(exist_ok=True)
    RATES_FILE.write_text(
        "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")


if __name__ == "__main__":
    main()
