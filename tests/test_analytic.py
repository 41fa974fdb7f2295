import math

import numpy as np
import pytest
from scipy import integrate

from zfsecrecy.analytic import (Link, Regime, exp_integral_e1,
                                exp_integral_e1_scaled,
                                gauss_2f1, integrate_half_line,
                                laplace_pole_integral,
                                laplace_two_pole_integral,
                                rate_from_cdf_quadrature,
                                secrecy_rate_closed_form,
                                secrecy_rate_interference_limited,
                                secrecy_rate_noise_limited, sinr_cdf)
from zfsecrecy.params import SystemParams
from zfsecrecy.simulate import SimMode, estimate_secrecy_rate

LOG2_E = math.log2(math.e)


def quad_e1(x: float) -> float:
    """Independent oracle: high-order quadrature of the defining integral."""
    head, _ = integrate.quad(lambda t: math.exp(-t) / t, x, x + 30.0,
                             epsabs=1e-13, epsrel=1e-13, limit=500)
    tail, _ = integrate.quad(lambda t: math.exp(-t) / t, x + 30.0, math.inf,
                             epsabs=1e-13, epsrel=1e-13, limit=500)
    return head + tail


def quad_pole(p: float, a: float, n: int) -> float:
    """Independent oracle for the one-pole Laplace integral, split so the
    exponential scale is resolved even for large p."""
    split = 1.0 / max(p, 1.0)
    head, _ = integrate.quad(lambda t: math.exp(-p * t) * (t + a) ** (-n),
                             0.0, split, epsabs=1e-15, epsrel=1e-13, limit=400)
    tail, _ = integrate.quad(lambda t: math.exp(-p * t) * (t + a) ** (-n),
                             split, math.inf, epsabs=1e-15, epsrel=1e-13,
                             limit=400)
    return head + tail


def quad_two_pole(x: float, y: float, z: int) -> float:
    split = 1.0 / max(x, 1.0)
    f = lambda t: math.exp(-x * t) / ((t + 1.0) * (t + y) ** z)
    head, _ = integrate.quad(f, 0.0, split, epsabs=1e-15, epsrel=1e-13,
                             limit=400)
    tail, _ = integrate.quad(f, split, math.inf, epsabs=1e-15, epsrel=1e-13,
                             limit=400)
    return head + tail


# --------------------------------------------------------------------------
# Exponential integral
# --------------------------------------------------------------------------

def test_e1_reference_value():
    # Frozen from the alternating series summed to machine precision.
    assert exp_integral_e1(1.0) == pytest.approx(0.21938393439552027,
                                                 abs=1e-10)


def test_e1_matches_quadrature_on_log_grid():
    for x in np.logspace(-3, math.log10(50.0), 20):
        ref = quad_e1(float(x))
        assert abs(exp_integral_e1(float(x)) - ref) / ref < 1e-10


def test_e1_asymptotic_normalization():
    assert 0.98 < 50.0 * exp_integral_e1_scaled(50.0) < 1.0


@pytest.mark.parametrize("x", [0.5, 1.0, 5.0])
def test_e1_sandwich_bounds(x):
    val = exp_integral_e1(x)
    assert math.exp(-x) / (x + 1.0) < val < math.exp(-x) / x


def test_e1_scaled_survives_huge_arguments():
    val = exp_integral_e1_scaled(2e5)
    assert val == pytest.approx(1.0 / 2e5, rel=1e-4)


def test_e1_domain():
    with pytest.raises(ValueError):
        exp_integral_e1(0.0)
    with pytest.raises(ValueError):
        exp_integral_e1(-1.0)


# --------------------------------------------------------------------------
# One-pole Laplace integral
# --------------------------------------------------------------------------

def test_pole_integral_elementary_case():
    assert laplace_pole_integral(0.0, 2.0, 3) == pytest.approx(0.125,
                                                               abs=1e-15)


def test_pole_integral_base_case_vs_quadrature():
    assert laplace_pole_integral(1.0, 1.0, 1) == pytest.approx(
        quad_pole(1.0, 1.0, 1), abs=1e-8)
    assert laplace_pole_integral(1.0, 1.0, 1) == pytest.approx(0.596347,
                                                               abs=1e-6)


def test_pole_integral_first_step_identity():
    j1 = laplace_pole_integral(1.0, 1.0, 1)
    j2 = laplace_pole_integral(1.0, 1.0, 2)
    assert j2 == pytest.approx(1.0 - j1, abs=1e-12)
    assert j2 == pytest.approx(0.403653, abs=1e-6)


def test_pole_integral_order_recurrence_identity():
    for p in (0.1, 1.0, 5.0):
        for a in (0.5, 1.0, 2.0):
            for n in range(2, 11):
                lhs = laplace_pole_integral(p, a, n)
                rhs = (a ** (1 - n)
                       - p * laplace_pole_integral(p, a, n - 1)) / (n - 1)
                assert lhs == pytest.approx(rhs, rel=1e-9)


def test_pole_integral_matches_quadrature_up_to_order_ten():
    for p in (0.1, 1.0, 10.0, 100.0):
        for a in (0.5, 1.0, 2.0):
            for n in range(1, 11):
                ref = quad_pole(p, a, n)
                got = laplace_pole_integral(p, a, n)
                assert abs(got - ref) / abs(ref) < 1e-9, (p, a, n)


def test_pole_integral_divergence_and_domain():
    with pytest.raises(ValueError):
        laplace_pole_integral(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        laplace_pole_integral(1.0, 0.0, 1)
    with pytest.raises(ValueError):
        laplace_pole_integral(-1.0, 1.0, 1)


# --------------------------------------------------------------------------
# Two-pole Laplace integral
# --------------------------------------------------------------------------

def test_two_pole_merged_identity():
    # y = 1 merges the poles: the integral becomes the one-pole case of
    # order z+1.  At x = 0, z = 1 that value is exactly 1.
    assert laplace_two_pole_integral(0.0, 1.0, 1) == pytest.approx(1.0,
                                                                   abs=1e-14)
    for x in (0.0, 0.5, 2.0):
        for z in (1, 2, 4):
            assert laplace_two_pole_integral(x, 1.0, z) == (
                laplace_pole_integral(x, 1.0, z + 1))


def test_two_pole_log_case():
    assert laplace_two_pole_integral(0.0, 2.0, 1) == pytest.approx(
        math.log(2.0), abs=1e-14)


def test_two_pole_vs_quadrature():
    cases = [(1.0, 0.5, 4), (0.1, 2.0, 4), (0.0, 2.0, 4), (2.0, 8.0, 1),
             (0.01, 1.0001, 3), (10.0, 3.0, 7),
             (0.5, 1 + 5e-5, 3)]  # the last inside the 1e-4 guard band
    for x, y, z in cases:
        ref = quad_two_pole(x, y, z)
        got = laplace_two_pole_integral(x, y, z)
        assert abs(got - ref) / abs(ref) < 1e-8, (x, y, z)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_integrate_half_line_raises_when_it_cannot_converge():
    # sin has no integral over the half line; the error estimate is huge.
    with pytest.raises(ArithmeticError, match="did not converge"):
        integrate_half_line(math.sin, 1.0)


def test_two_pole_domain():
    with pytest.raises(ValueError):
        laplace_two_pole_integral(-1.0, 2.0, 1)
    with pytest.raises(ValueError):
        laplace_two_pole_integral(0.0, -2.0, 1)
    with pytest.raises(ValueError):
        laplace_two_pole_integral(0.0, 2.0, 0)


# --------------------------------------------------------------------------
# Hypergeometric rate family
# --------------------------------------------------------------------------

def brute_series_2f1(n_t: int, z: float) -> float:
    """Direct Pochhammer-ratio series summed to a 1e-14 tail."""
    m = n_t - 1
    total, power = 0.0, 1.0
    for j in range(1_000_000):
        add = power * m / (m + j)
        total += add
        if add < 1e-14 * max(total, 1e-300) and j > 2:
            return total
        power *= z
    raise AssertionError("series did not converge")


def test_2f1_at_zero():
    assert gauss_2f1(5, 0.0) == 1.0


def test_2f1_two_antenna_log_identity():
    # 2F1(1, 1; 2; z) = -ln(1-z)/z
    for z in np.linspace(0.01, 0.99, 40):
        want = -math.log1p(-z) / z
        assert abs(gauss_2f1(2, float(z)) - want) / want < 1e-10
    assert gauss_2f1(2, 0.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-10)


def test_2f1_matches_brute_series():
    for n_t in (3, 5, 8):
        for z in (0.1, 0.5, 0.85, 0.95):
            assert gauss_2f1(n_t, z) == pytest.approx(
                brute_series_2f1(n_t, z), rel=1e-10)


def test_2f1_domain():
    with pytest.raises(ValueError):
        gauss_2f1(5, 1.0)
    with pytest.raises(ValueError):
        gauss_2f1(5, -0.1)


# --------------------------------------------------------------------------
# SINR CDFs
# --------------------------------------------------------------------------

PARAMS_55 = SystemParams(n_t=5, bits=4, alpha=1.0, snr_db=10.0)


def test_cdf_is_zero_at_origin():
    for link in Link:
        for regime in Regime:
            assert sinr_cdf(0.0, PARAMS_55, link, regime) == 0.0


def test_cdf_rejects_negative_argument():
    with pytest.raises(ValueError):
        sinr_cdf(-1.0, PARAMS_55, Link.LEGITIMATE)


def test_cdf_example_value():
    # 1 - exp(-0.1)/1.5^4 at x = 1 for the five-antenna, four-bit setup.
    want = 1.0 - math.exp(-0.1) / 1.5 ** 4
    assert sinr_cdf(1.0, PARAMS_55, Link.LEGITIMATE) == pytest.approx(
        want, abs=1e-15)
    assert want == pytest.approx(0.8212667, abs=1e-6)


def test_interference_limited_links_coincide_at_zero_feedback():
    p = SystemParams(n_t=5, bits=0, alpha=1.0, snr_db=10.0)
    for x in np.logspace(-3, 4, 200):
        f = sinr_cdf(float(x), p, Link.LEGITIMATE, Regime.INTERFERENCE_LIMITED)
        g = sinr_cdf(float(x), p, Link.EAVESDROPPER, Regime.INTERFERENCE_LIMITED)
        assert abs(f - g) < 1e-14


def test_general_law_reduces_to_eavesdropper_law():
    # Zero feedback and equal path loss make the served-user law identical
    # to the eavesdropper law at every point.
    p = SystemParams(n_t=5, bits=0, alpha=1.0, snr_db=10.0)
    for x in np.logspace(-3, 4, 200):
        f = sinr_cdf(float(x), p, Link.LEGITIMATE, Regime.GENERAL)
        g = sinr_cdf(float(x), p, Link.EAVESDROPPER, Regime.GENERAL)
        assert abs(f - g) < 1e-14


def test_cdf_sanity_grid():
    grid = np.logspace(-3, 4, 1000)
    for n_t in (2, 3, 5):
        for bits in (0, 1, 4, 8):
            for snr_db in (-10.0, 0.0, 10.0, 20.0):
                p = SystemParams(n_t=n_t, bits=bits, alpha=0.5, snr_db=snr_db)
                for link in Link:
                    vals = np.array([sinr_cdf(float(x), p, link) for x in grid])
                    assert (np.diff(vals) >= -1e-16).all()
                    assert vals[-1] >= 0.999


# --------------------------------------------------------------------------
# Rates: closed form, asymptotes, quadrature oracle
# --------------------------------------------------------------------------

def test_rate_vanishes_at_very_low_snr():
    p = SystemParams(n_t=5, bits=4, alpha=0.5, snr_db=-60.0)
    assert abs(secrecy_rate_closed_form(p)) < 1e-3


def test_rate_triangle_at_reference_point():
    # Closed form pinned by the quadrature oracle, then MC-confirmed.
    p = PARAMS_55
    closed = secrecy_rate_closed_form(p)
    quad = rate_from_cdf_quadrature(p)
    assert abs(closed - quad) / abs(quad) < 1e-8
    est = estimate_secrecy_rate(p, SimMode.QCA, 200_000, seed=11)
    assert abs(est.mean - closed) < 3.0 * est.std_err


def test_rate_increases_for_weaker_eavesdropper():
    strong = SystemParams(n_t=5, bits=4, alpha=1.0, snr_db=0.0)
    weak = SystemParams(n_t=5, bits=4, alpha=0.25, snr_db=0.0)
    assert secrecy_rate_closed_form(weak) > secrecy_rate_closed_form(strong)
    assert rate_from_cdf_quadrature(weak) > rate_from_cdf_quadrature(strong)


def test_rate_nondecreasing_in_feedback():
    for n_t in (2, 3, 5):
        for alpha in (0.25, 1.0):
            for snr_db in (0.0, 10.0):
                rates = [secrecy_rate_closed_form(
                    SystemParams(n_t, b, alpha, snr_db))
                    for b in (0, 1, 4, 8)]
                assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


def test_interference_limited_zero_feedback_is_zero():
    assert secrecy_rate_interference_limited(
        SystemParams(n_t=5, bits=0, alpha=0.3, snr_db=7.0)) == 0.0


def test_interference_limited_two_antenna_value():
    p = SystemParams(n_t=2, bits=1, alpha=1.0, snr_db=0.0)
    want = 2.0 * LOG2_E * (2.0 * math.log(2.0) - 1.0)
    assert secrecy_rate_interference_limited(p) == pytest.approx(want,
                                                                 rel=1e-12)
    assert want == pytest.approx(1.114610, abs=1e-5)
    quad = rate_from_cdf_quadrature(p, Regime.INTERFERENCE_LIMITED)
    assert secrecy_rate_interference_limited(p) == pytest.approx(quad,
                                                                 rel=1e-8)


def test_interference_limited_increases_in_feedback():
    vals = []
    for bits in (0, 2, 4, 8):
        p = SystemParams(n_t=5, bits=bits, alpha=1.0, snr_db=0.0)
        val = secrecy_rate_interference_limited(p)
        assert val == pytest.approx(
            rate_from_cdf_quadrature(p, Regime.INTERFERENCE_LIMITED), abs=1e-8)
        vals.append(val)
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("n_t,bits", [(2, 53), (2, 54), (2, 64), (5, 200),
                                      (3, 49), (3, 53)])
def test_interference_limited_matches_mpmath_at_tiny_distortion(n_t, bits):
    # From bits/(n_t-1) = 54 on, 1 - distortion rounds to 1 in float64.
    # Below that, where the distortion is not a power of two, taking the
    # logarithm of the rounded 1 - distortion would cost up to 2e-10
    # relative (n_t=3, bits=53).
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        d = mpmath.mpf(2) ** (-mpmath.mpf(bits) / (n_t - 1))
        hyp = mpmath.hyp2f1(n_t - 1, 1, n_t, 1 - d)
        want = float(n_t * (hyp - 1) / ((n_t - 1) * mpmath.log(2)))
    got = secrecy_rate_interference_limited(
        SystemParams(n_t=n_t, bits=bits, alpha=1.0, snr_db=0.0))
    assert got == pytest.approx(want, rel=1e-14)


def test_interference_limited_rejects_underflowing_distortion():
    with pytest.raises(OverflowError, match="underflows"):
        secrecy_rate_interference_limited(
            SystemParams(n_t=2, bits=1075, alpha=1.0, snr_db=0.0))


def test_noise_limited_zero_at_equal_path_loss():
    assert secrecy_rate_noise_limited(
        SystemParams(n_t=5, bits=4, alpha=1.0, snr_db=3.0)) == 0.0


def test_noise_limited_reference_value():
    p = SystemParams(n_t=5, bits=4, alpha=0.5, snr_db=0.0)
    val = secrecy_rate_noise_limited(p)
    assert val == pytest.approx(2.813, abs=1e-3)
    assert val == pytest.approx(
        rate_from_cdf_quadrature(p, Regime.NOISE_LIMITED), abs=1e-8)


def test_noise_limited_ignores_feedback():
    lo = SystemParams(n_t=5, bits=0, alpha=0.5, snr_db=0.0)
    hi = SystemParams(n_t=5, bits=10, alpha=0.5, snr_db=0.0)
    assert secrecy_rate_noise_limited(lo) == secrecy_rate_noise_limited(hi)


def test_quadrature_zero_when_laws_coincide():
    p = SystemParams(n_t=5, bits=0, alpha=1.0, snr_db=10.0)
    assert abs(rate_from_cdf_quadrature(p)) < 1e-9


@pytest.mark.parametrize("n_t,bits", [(2, 1), (2, 4), (3, 1), (3, 4),
                                      (5, 1), (5, 4)])
def test_quadrature_cross_checks_interference_limited(n_t, bits):
    p = SystemParams(n_t=n_t, bits=bits, alpha=1.0, snr_db=0.0)
    closed = secrecy_rate_interference_limited(p)
    quad = rate_from_cdf_quadrature(p, Regime.INTERFERENCE_LIMITED)
    assert abs(closed - quad) / abs(quad) < 1e-8


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
def test_high_snr_limit_reaches_interference_limited(alpha):
    p = SystemParams(n_t=5, bits=4, alpha=alpha, snr_db=50.0)
    il = secrecy_rate_interference_limited(p)
    assert abs(secrecy_rate_closed_form(p) - il) < 1e-3


@pytest.mark.parametrize("alpha", [0.25, 0.5])
def test_low_snr_limit_reaches_noise_limited(alpha):
    # Both rates vanish at -40 dB, so the criterion is a ratio.
    p = SystemParams(n_t=5, bits=4, alpha=alpha, snr_db=-40.0)
    ratio = secrecy_rate_closed_form(p) / secrecy_rate_noise_limited(p)
    assert abs(ratio - 1.0) < 0.01
