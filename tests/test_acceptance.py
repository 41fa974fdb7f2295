"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -v -s to watch them stream).

Two checks encode target claims that the mathematics demonstrably does not
satisfy; they are implemented faithfully and left to fail rather than being
loosened (full analysis in the assertion messages and in the repository
notes):

* the alpha = 1 closed-form curve is monotone increasing on [-10, 40] dB
  (it approaches its interference-limited ceiling from below), so it has no
  interior maximum — the interior-peak threshold at n_t=5, B=4 is
  alpha ~= 0.586;
* FULL Monte Carlo, the exact-RVQ sampler, departs from the closed form
  by up to ~10% at low and middle SNR, which exceeds the 5% envelope.  The
  closed form models the users' interference with the quantization-cell
  approximation and the eavesdropper's with orthonormal beams; FULL makes
  neither simplification.  At n_t=5, B=4, 0 dB the legitimate term's gap
  splits into -0.094 from the RVQ error law (E[sin^2] = 0.449 exact vs
  0.40 modeled) and -0.087 from beam non-orthogonality, and the
  eavesdropper term's error cancels about 70% of it.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from zfsecrecy import cli
from zfsecrecy.analytic import (Link, exp_integral_e1, gauss_2f1,
                                laplace_pole_integral, Regime,
                                rates_from_cdf_quadrature,
                                secrecy_rate_closed_form,
                                secrecy_rate_interference_limited,
                                secrecy_rate_noise_limited, sinr_cdf)
from zfsecrecy.linalg import RngStream
from zfsecrecy.params import SystemParams
from zfsecrecy.simulate import (SimMode, collect_sinr_samples,
                                estimate_secrecy_rates, ks_statistic,
                                max_zf_residual)

SEED = 20250
GRID = [(n_t, bits, alpha, snr_db)
        for n_t in (2, 3, 5)
        for bits in (0, 1, 4, 8)
        for alpha in (0.25, 0.5, 1.0)
        for snr_db in (-10.0, 0.0, 10.0, 20.0)]
FIG_SNRS = [float(s) for s in range(-10, 41, 2)]


def _report(line: str):
    print(f"[acceptance] {line}")


# --------------------------------------------------------------------------
# 1. Correctness triangle
# --------------------------------------------------------------------------

def test_criterion_1_correctness_triangle():
    worst_rel = 0.0
    worst_sigma = 0.0
    points = [SystemParams(n_t=n_t, bits=bits, alpha=alpha, snr_db=snr_db)
              for n_t, bits, alpha, snr_db in GRID]
    estimates = estimate_secrecy_rates(points, SimMode.QCA, 200_000,
                                       seed=SEED)
    for p, est in zip(points, estimates):
        closed = secrecy_rate_closed_form(p)
        quad = rates_from_cdf_quadrature([p])[0]
        rel = abs(closed - quad) / max(abs(quad), 1e-6)
        worst_rel = max(worst_rel, rel)
        assert rel < 1e-8, (p, closed, quad, rel)
        gap = abs(est.mean - closed)
        if est.std_err == 0.0:
            # Both links share one draw and one law (bits 0, alpha 1): every
            # trial's rate is exactly 0, and so is the closed form.
            assert gap == 0.0, (p, est, closed)
            continue
        worst_sigma = max(worst_sigma, gap / est.std_err)
        assert gap < 3.0 * est.std_err, (p, est, closed)
    _report(f"criterion 1 triangle over {len(GRID)} grid points: "
            f"worst closed-vs-quad rel {worst_rel:.2e}, "
            f"worst MC deviation {worst_sigma:.2f} sigma: PASS")


# --------------------------------------------------------------------------
# 2. Rate-curve shape
# --------------------------------------------------------------------------

def test_criterion_2a_curves_converge_at_high_snr():
    at_40 = [secrecy_rate_closed_form(SystemParams(5, 4, a, 40.0))
             for a in (0.25, 0.5, 1.0)]
    ceiling = secrecy_rate_interference_limited(
        SystemParams(5, 4, 1.0, 40.0))
    spread = max(at_40) - min(at_40)
    worst = max(abs(r - ceiling) for r in at_40)
    assert spread < 1e-2, at_40
    assert worst < 1e-2, (at_40, ceiling)
    # and they do separate at low SNR
    at_low = [secrecy_rate_closed_form(SystemParams(5, 4, a, -10.0))
              for a in (0.25, 0.5, 1.0)]
    assert max(at_low) - min(at_low) > 0.1, at_low
    _report(f"criterion 2a high-SNR convergence: spread {spread:.2e}, "
            f"worst gap to ceiling {worst:.2e}: PASS")


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
def test_criterion_2b_interior_maximum(alpha):
    values = [secrecy_rate_closed_form(SystemParams(5, 4, alpha, s))
              for s in FIG_SNRS]
    peak = values.index(max(values))
    assert 0 < peak < len(values) - 1, (
        f"alpha={alpha}: curve maximum sits at the grid edge "
        f"(snr={FIG_SNRS[peak]} dB, R={values[peak]:.6f}); for alpha above "
        f"~0.586 the curve approaches its interference-limited ceiling "
        f"monotonically from below (verified against 50-digit quadrature), "
        f"so no interior optimum exists there")
    _report(f"criterion 2b interior maximum alpha={alpha}: "
            f"peak at {FIG_SNRS[peak]} dB: PASS")


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
def test_criterion_2c_full_mode_tracks_closed_form(alpha):
    gaps = []
    points = [SystemParams(5, 4, alpha, snr_db) for snr_db in FIG_SNRS]
    estimates = estimate_secrecy_rates(points, SimMode.FULL, 20_000, seed=SEED)
    for p, est in zip(points, estimates):
        closed = secrecy_rate_closed_form(p)
        gaps.append((p.snr_db, abs(est.mean - closed), closed, est.std_err))
    bad = [(s, g, c, se) for s, g, c, se in gaps
           if g >= max(0.05 * abs(c), 4.0 * se)]
    assert not bad, (
        f"alpha={alpha}: FULL MC (the exact-RVQ sampler) leaves the "
        f"5%/4-sigma envelope at "
        f"{[(s, f'{100 * g / abs(c):.1f}%') for s, g, c, _ in bad]}; the "
        f"closed form models the users' interference with the "
        f"quantization-cell approximation and the eavesdropper's with "
        f"orthonormal beams.  At n_t=5, B=4, 0 dB the legitimate term's gap "
        f"splits into -0.094 from the RVQ error law (E[sin^2] 0.449 exact vs "
        f"0.40 modeled) and -0.087 from beam non-orthogonality, and the "
        f"eavesdropper term's error cancels about 70% of it: an intrinsic "
        f"model gap")
    worst = max(g / abs(c) for _, g, c, _ in gaps)
    _report(f"criterion 2c FULL tracking alpha={alpha}: worst relative gap "
            f"{100 * worst:.2f}%: PASS")


# --------------------------------------------------------------------------
# 3. Asymptote agreement
# --------------------------------------------------------------------------

def test_criterion_3_asymptotes():
    for alpha in (0.25, 0.5):
        p = SystemParams(5, 4, alpha, -40.0)
        ratio = (secrecy_rate_closed_form(p)
                 / secrecy_rate_noise_limited(p))
        assert abs(ratio - 1.0) < 0.01, (alpha, ratio)
    nl_values = {bits: secrecy_rate_noise_limited(
        SystemParams(5, bits, 0.5, 0.0)) for bits in (0, 10)}
    assert nl_values[0] == nl_values[10]
    assert secrecy_rate_interference_limited(
        SystemParams(5, 0, 0.5, 0.0)) == 0.0
    assert secrecy_rate_noise_limited(SystemParams(5, 4, 1.0, 0.0)) == 0.0
    _report("criterion 3 asymptotes (low-SNR ratio, feedback independence, "
            "exact zeros): PASS")


# --------------------------------------------------------------------------
# 4. Distribution suite
# --------------------------------------------------------------------------

def test_criterion_4_distributions():
    crit = 1.63 / math.sqrt(10_000)
    points = [SystemParams(5, 4, alpha, 10.0) for alpha in (0.5, 1.0)]
    checked = 0
    for row, link, samples in collect_sinr_samples(points, SimMode.QCA,
                                                   10_000, seed=SEED):
        p = points[row]
        stat = ks_statistic(samples, lambda x: sinr_cdf(x, p, link))
        assert stat < crit, (p.alpha, link, stat)
        checked += 1
    assert checked == 2 * len(points)
    # Gamma x Beta product collapses to a scaled exponential (n_t >= 3;
    # the beta factor is degenerate at n_t = 2).
    for n_t in (3, 5):
        d = SystemParams(n_t=n_t, bits=4, alpha=1.0, snr_db=0.0).distortion
        gen = RngStream(33, 0).generator()
        product = (gen.gamma(shape=n_t - 1, scale=d, size=10_000)
                   * gen.beta(1, n_t - 2, size=10_000))
        stat = ks_statistic(product, lambda x: 1.0 - np.exp(-x / d))
        assert stat < crit, (n_t, stat)
    _report(f"criterion 4 KS suite at the 1% level (crit {crit:.4f}): PASS")


# --------------------------------------------------------------------------
# 5. Special-function oracles
# --------------------------------------------------------------------------

def test_criterion_5_special_functions():
    # exponential integral against direct quadrature
    worst_e1 = 0.0
    for x in np.logspace(-3, math.log10(50.0), 20):
        head, _ = integrate.quad(lambda t: math.exp(-t) / t, float(x),
                                 float(x) + 30.0, epsabs=1e-13, epsrel=1e-13,
                                 limit=500)
        tail, _ = integrate.quad(lambda t: math.exp(-t) / t, float(x) + 30.0,
                                 math.inf, epsabs=1e-13, epsrel=1e-13,
                                 limit=500)
        ref = head + tail
        worst_e1 = max(worst_e1, abs(exp_integral_e1(float(x)) - ref) / ref)
    assert worst_e1 < 1e-10

    # hypergeometric family against the two-antenna logarithmic closed form
    worst_2f1 = 0.0
    for z in np.linspace(0.0, 0.99, 100):
        want = 1.0 if z == 0.0 else -math.log1p(-z) / z
        worst_2f1 = max(worst_2f1,
                        abs(gauss_2f1(2, float(z)) - want) / want)
    assert worst_2f1 < 1e-10

    # pole integral against adaptive quadrature up to order 10
    worst_j = 0.0
    for p in (0.1, 1.0, 10.0, 100.0):
        for a in (0.5, 1.0, 2.0):
            split = 1.0 / max(p, 1.0)
            for n in range(1, 11):
                head, _ = integrate.quad(
                    lambda t: math.exp(-p * t) * (t + a) ** (-n),
                    0.0, split, epsabs=1e-15, epsrel=1e-13, limit=400)
                tail, _ = integrate.quad(
                    lambda t: math.exp(-p * t) * (t + a) ** (-n),
                    split, math.inf, epsabs=1e-15, epsrel=1e-13, limit=400)
                ref = head + tail
                worst_j = max(worst_j,
                              abs(laplace_pole_integral(p, a, n) - ref)
                              / abs(ref))
    assert worst_j < 1e-9
    _report(f"criterion 5 special functions: E1 worst {worst_e1:.2e}, "
            f"2F1 worst {worst_2f1:.2e}, pole integral worst {worst_j:.2e}: "
            f"PASS")


# --------------------------------------------------------------------------
# 6. Engineering determinism
# --------------------------------------------------------------------------

def test_criterion_6_determinism(tmp_path):
    outputs = []
    for workers in ("1", "4"):
        out = tmp_path / f"workers{workers}.csv"
        code = cli.main(["rate-curve", "--nt", "5", "--bits", "4",
                         "--alpha", "0.5,1", "--snr", "-10:30:10",
                         "--trials", "20000", "--seed", str(SEED),
                         "--workers", workers, "--out", str(out)])
        assert code == cli.EXIT_OK
        with open(out, "rb") as fh:
            outputs.append(fh.read())
    assert outputs[0] == outputs[1]

    p = SystemParams(5, 4, 1.0, 10.0)
    residual, rejected = max_zf_residual(p, 10_000, seed=SEED)
    assert residual < 1e-10
    assert rejected == 0
    _report(f"criterion 6 determinism: identical CSV bytes across workers, "
            f"zero-forcing residual {residual:.2e} over 1e4 draws: PASS")
