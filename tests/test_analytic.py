import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from make_arbiter_rates import (ARBITER_GRID, load_rates, mpmath_half_line,
                                mpmath_rate)
from zfsecrecy import analytic
from zfsecrecy.analytic import (Link, Regime, exp_integral_e1,
                                exp_integral_e1_scaled,
                                gauss_2f1, integrate_half_line,
                                laplace_pole_integral,
                                rates_from_cdf_quadrature,
                                secrecy_rate_closed_form,
                                secrecy_rate_interference_limited,
                                secrecy_rate_noise_limited, sinr_cdf)
from zfsecrecy.params import SystemParams
from zfsecrecy.simulate import SimMode, estimate_secrecy_rates

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
    with pytest.raises(ValueError):  # before exp(-x) could overflow
        exp_integral_e1(-1e300)


def test_special_functions_take_their_limit_zero_at_infinity():
    # exp(x) E1(x) ~ 1/x, and J(p, a, 2) = exp(ap) E_2(ap) / a with a p
    # past float64: each value's limit is 0, not an error.
    assert exp_integral_e1(math.inf) == 0.0
    assert exp_integral_e1_scaled(math.inf) == 0.0
    assert laplace_pole_integral(1e308, 10.0, 2) == 0.0


# Where E1 is a normal float64: E1(700) is about 1.4e-307.
E1_GRID = [float(x) for x in np.logspace(-300, math.log10(700.0), 400)]


def test_e1_is_exp_times_the_scaled_e1():
    # Both functions are views of the E_n run's first term.
    for x in E1_GRID:
        assert exp_integral_e1(x) == math.exp(-x) * exp_integral_e1_scaled(x)


def test_e1_matches_mpmath_from_1e_minus_300_to_700():
    # 40-digit mpmath; the worst seen is 3.3e-16 for each function.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for x in E1_GRID:
            e1 = mpmath.e1(x)
            for got, want in ((exp_integral_e1(x), e1),
                              (exp_integral_e1_scaled(x),
                               mpmath.exp(x) * e1)):
                assert abs(got - want) <= 1e-15 * want, (x, got, want)


def _mpmath_en_scaled(mpmath, n: int, x: float) -> float:
    """exp(x) E_n(x) = int_1^inf exp(-x (t - 1)) t^-n dt by 40-digit
    quadrature, in the variable s = x (t - 1), which resolves the
    integrand's 1/x width at any x: (1/x) int_0^inf e^-s (1 + s/x)^-n ds."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        return float(mpmath.quad(lambda s: mpmath.exp(-s) * (1 + s / x) ** -n,
                                 [0, 1, 10, 50, mpmath.inf]) / x)


@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_scaled_continued_fraction_matches_mpmath(n):
    # From moderate x to the edge of float64; past x ~ 7e16 the fraction's
    # b + 2 rounds to b.  Near x = 1 the fraction's rounding reaches about
    # 6e-15; from x = 1e4 on, 4e-16.  (40-digit mpmath.expint is itself
    # wrong at large n, so the reference is the defining integral.)
    mpmath = pytest.importorskip("mpmath")
    for x in (1.5, 10.0, 141.42, 1e4, 7e16, 1e17, 3.7e100, 1.4e200, 7.1e307):
        want = _mpmath_en_scaled(mpmath, n, x)
        got = analytic._en_scaled_cf(n, x)
        assert abs(got - want) <= (8e-15 if x < 1e4 else 1e-15) * want, (
            n, x, got, want)


# exp(0) E_1(0) diverges: no run from lo = 1 at w = 0.
@pytest.mark.parametrize("w,lo", [(w, lo) for w in (0.0, 0.5, 1.0, 1.5, 40.0)
                                  for lo in (1, 2, 65) if w or lo > 1])
def test_en_scaled_run_matches_mpmath(w, lo):
    # The run climbs from E1 for w <= 1 and starts at the continued
    # fraction otherwise (at w = 40 it runs down to lo = 1 and 2 and up to
    # lo = 65's orders); at w = 0 each term is exactly 1/(n-1).
    mpmath = pytest.importorskip("mpmath")
    got = analytic._en_scaled_run(lo, lo + 7, w)
    assert len(got) == 8
    for n, value in enumerate(got, lo):
        want = 1.0 / (n - 1) if w == 0.0 else _mpmath_en_scaled(mpmath, n, w)
        assert abs(value - want) <= 1e-14 * want, (n, value, want)


def test_scaled_continued_fraction_converges_up_to_the_float64_limit():
    # Once x + n + 2i rounds to x + n, each step's delta settles at
    # 1 - 2**-53 or 1 + 2**-52: a stopping test of delta == 1.0 alone never
    # held there, and 476 points of this grid raised ArithmeticError.
    # Every value lies between the bounds 1 / (x + n) and 1 / (x + n - 1),
    # up to the fraction's rounding: at most 1.5e-15 below, 4.5e-16 above.
    for m in (1.0, math.sqrt(2.0), 3.7, 7.1):
        for e in range(1, 308):
            x = m * 10.0 ** e
            for n in (1, 2, 5):
                got = analytic._en_scaled_cf(n, x)
                assert (1.0 - 2e-15) / (x + n) <= got, (n, x)
                assert got <= (1.0 + 1e-15) / (x + n - 1), (n, x)


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


def test_pole_integral_is_the_merged_two_pole_kernel():
    # t = a u merges the poles: at criterion 5's (p, a, n) the integral is
    # a^(1-n) times the two-pole kernel at d = 1, bit for bit.
    for p in (0.1, 1.0, 10.0, 100.0):
        for a in (0.5, 1.0, 2.0):
            for n in range(1, 11):
                assert laplace_pole_integral(p, a, n) == (
                    a ** (1 - n) * analytic._two_pole(a * p, 1.0, n - 1))


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

def _two_pole_integral(x, y, z):
    """integral_0^inf exp(-x t) / ((t + 1)(t + y)^z) dt for x >= 0, y > 0:
    the two-pole kernel at d = 1/y, times y^-z."""
    return analytic._two_pole(x, 1.0 / y, z) * y ** -z


def test_two_pole_merged_identity():
    # y = 1 merges the poles: the integral becomes the one-pole case of
    # order z+1, the series' one term.  At x = 0, z = 1 that value is
    # exactly 1.
    assert _two_pole_integral(0.0, 1.0, 1) == pytest.approx(1.0,
                                                                   abs=1e-14)
    for x in (0.0, 0.5, 2.0):
        for z in (1, 2, 4):
            assert _two_pole_integral(x, 1.0, z) == (
                laplace_pole_integral(x, 1.0, z + 1))


def test_two_pole_log_case():
    assert _two_pole_integral(0.0, 2.0, 1) == pytest.approx(
        math.log(2.0), abs=1e-14)


def test_two_pole_vs_quadrature():
    cases = [(1.0, 0.5, 4), (0.1, 2.0, 4), (0.0, 2.0, 4), (2.0, 8.0, 1),
             (0.01, 1.0001, 3), (10.0, 3.0, 7),
             (0.5, 1 + 5e-5, 3)]  # the last with nearly merged poles
    for x, y, z in cases:
        ref = quad_two_pole(x, y, z)
        got = _two_pole_integral(x, y, z)
        assert abs(got - ref) / abs(ref) < 1e-8, (x, y, z)


def test_integrate_half_line_raises_when_it_cannot_converge():
    # sin has no integral over the half line; the error estimate is huge.
    with pytest.raises(ArithmeticError, match="did not converge"):
        integrate_half_line(np.sin)
    with pytest.raises(ArithmeticError, match="did not converge"):
        analytic._exp_sinh(lambda t, rows: np.sin(t) * (rows[:, None] + 1), 3)


def test_rows_of_one_pass_are_each_the_one_row_rule(monkeypatch):
    # Row 0 converges at a coarse level and row 1 at a finer one: each is
    # the one-row rule's value bit for bit, and once row 0 has converged
    # its integrand is not called again.  Blocks of one row change nothing.
    def integrand(t, rows):
        return np.exp(-t * np.array([1.0, 1e-3])[rows, None]) / (1.0 + t)

    singles = [integrate_half_line(lambda t, c=c: np.exp(-t * c) / (1.0 + t))
               for c in (1.0, 1e-3)]
    calls = []

    def recorded(t, rows):
        calls.append(rows.tolist())
        return integrand(t, rows)

    assert analytic._exp_sinh(recorded, 2).tolist() == singles
    assert calls[0] == [0, 1] and calls[-1] == [1]
    monkeypatch.setattr(analytic, "_QUAD_BLOCK_VALUES", 1)
    assert analytic._exp_sinh(integrand, 2).tolist() == singles


def _per_point_quadrature(p, regime, clip):
    """The quadrature rule at one point, as its own scalar integrand of
    the links' survival laws: the grid function's reference."""
    def law(link):
        noise, interference = analytic._link_law(p, link, regime)
        return lambda x: analytic._survival(x, noise, interference, p.n_t - 1)

    legit, eav = law(Link.LEGITIMATE), law(Link.EAVESDROPPER)
    if clip:
        def integrand(x):
            return legit(x) * (1.0 - eav(x)) / (1.0 + x)
    else:
        def integrand(x):
            return (legit(x) - eav(x)) / (1.0 + x)
    return p.n_t * LOG2_E * integrate_half_line(integrand)


VALIDATE_GRID = [SystemParams(n_t=n_t, bits=bits, alpha=alpha, snr_db=snr_db)
                 for n_t in (2, 3, 5) for bits in (0, 1, 4, 8)
                 for alpha in (0.25, 0.5, 1.0)
                 for snr_db in (-10.0, 0.0, 10.0, 20.0)]


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("clip", [False, True])
def test_grid_quadrature_is_the_per_point_rule(regime, clip):
    # validate's 144 points in one pass, each within 1e-13 relative of the
    # rule run on that point alone (exactly 0 where both laws are one).
    got = rates_from_cdf_quadrature(VALIDATE_GRID, regime, clip)
    assert len(got) == len(VALIDATE_GRID)
    for p, rate in zip(VALIDATE_GRID, got):
        want = _per_point_quadrature(p, regime, clip)
        assert abs(rate - want) <= 1e-13 * abs(want), (p, rate, want)


@pytest.mark.parametrize("x,y,z", [
    (0.5, 1 + 5e-5, 3), (0.0, 1 - 3e-5, 5), (2.0, 1 + 2e-6, 1),
    (1e-3, 1 - 9e-5, 20), (10.0, 1 + 1e-5, 60), (1e-6, 1 - 1.5e-6, 127)])
def test_two_pole_guard_band_matches_mpmath(x, y, z):
    # 1e-6 <= |y - 1| < 1e-4, where partial fractions would cancel to a few
    # digits: the series serves these nearly merged poles.
    mpmath = pytest.importorskip("mpmath")
    want = float(mpmath_half_line(mpmath, lambda t: mpmath.exp(-x * t) / (
        (t + 1) * (t + mpmath.mpf(y)) ** z)))
    assert abs(_two_pole_integral(x, y, z) - want) <= 1e-9 * want


@pytest.mark.parametrize("d", [0.0, 2.0 ** -1070, 1e-300])
@pytest.mark.parametrize("x,z", [(1e-3, 2), (0.1, 4), (1.0, 199), (10.0, 2)])
def test_two_pole_limit_where_the_poles_part_past_float64(x, d, z):
    # At d = 0, and at d = 2**-1070 where x / d passes float64 for every x
    # here, the kernel returns the d -> 0 limit exp(x) E_1(x), within
    # z d / x of the integral, which 40-digit mpmath takes with the factor
    # (1 + d t)^-z; d = 1e-300 keeps the partial fractions.
    mpmath = pytest.importorskip("mpmath")
    want = float(mpmath_half_line(mpmath, lambda t: mpmath.exp(-x * t) / (
        (1 + t) * (1 + mpmath.mpf(d) * t) ** z)))
    got = analytic._two_pole(x, d, z)
    assert abs(got - want) <= 1e-14 * want, (got, want)
    if d == 0.0 or x / d == math.inf:
        assert got == analytic.exp_integral_e1_scaled(x)
    # At x = 0 the integral diverges as d -> 0.
    with pytest.raises(OverflowError, match="underflows"):
        analytic._two_pole(0.0, 0.0, z)


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
            # and 1 at infinity: a regime's law leaves the part it drops
            # out, where exp(-inf * 0) or (1 + 0 * inf) would be nan.
            got = sinr_cdf(np.array([0.0, np.inf]), PARAMS_55, link, regime)
            assert got.tolist() == [0.0, 1.0], (link, regime)


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
    quad = rates_from_cdf_quadrature([p])[0]
    assert abs(closed - quad) / abs(quad) < 1e-8
    est = estimate_secrecy_rates([p], SimMode.QCA, 200_000, seed=11)[0]
    assert abs(est.mean - closed) < 3.0 * est.std_err


def test_rate_increases_for_weaker_eavesdropper():
    strong = SystemParams(n_t=5, bits=4, alpha=1.0, snr_db=0.0)
    weak = SystemParams(n_t=5, bits=4, alpha=0.25, snr_db=0.0)
    assert secrecy_rate_closed_form(weak) > secrecy_rate_closed_form(strong)
    weak_rate, strong_rate = rates_from_cdf_quadrature([weak, strong])
    assert weak_rate > strong_rate


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
    quad = rates_from_cdf_quadrature([p], Regime.INTERFERENCE_LIMITED)[0]
    assert secrecy_rate_interference_limited(p) == pytest.approx(quad,
                                                                 rel=1e-8)


def test_interference_limited_increases_in_feedback():
    vals = []
    for bits in (0, 2, 4, 8):
        p = SystemParams(n_t=5, bits=bits, alpha=1.0, snr_db=0.0)
        val = secrecy_rate_interference_limited(p)
        assert val == pytest.approx(
            rates_from_cdf_quadrature([p], Regime.INTERFERENCE_LIMITED)[0],
            abs=1e-8)
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


def _assert_rates_match_mpmath(mpmath, n_t, bits, alpha, snr_db):
    """Quadrature oracle and closed form within 1e-9 * max(1, |R|) of the
    rate at 40 digits; neither may raise."""
    want = mpmath_rate(mpmath, n_t, bits, alpha, snr_db)
    p = SystemParams(n_t=n_t, bits=bits, alpha=alpha, snr_db=snr_db)
    for name, got in (("quadrature", rates_from_cdf_quadrature([p])[0]),
                      ("closed form", secrecy_rate_closed_form(p))):
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (name, got, want)


@pytest.mark.parametrize("n_t,bits,alpha,snr_db", [
    (5, 4, 0.5, -60), (2, 0, 1e-3, 20), (16, 16, 1e-3, 0),
    (64, 4, 1e-3, -20), (128, 16, 0.5, -60), (256, 16, 1.0, 80)])
def test_rates_match_mpmath(n_t, bits, alpha, snr_db):
    # The first point's mass lies a few multiples past 1e-6, where a split
    # QUADPACK rule read 4.557e-7 for 5.410e-6 and reported no error.
    _assert_rates_match_mpmath(pytest.importorskip("mpmath"),
                               n_t, bits, alpha, snr_db)


# Points where partial fractions alone cancel: at (64, 64, 1, -60 dB) they
# read -6.18e-7 for 2.94e-9, at (200, 64, 0.3103, -54.8 dB) 8.710e-4 for
# 8.629e-4, and at validate's (5, 1, alpha, 0 dB) they were 2.1e-11 off.
@pytest.mark.parametrize("n_t,bits,alpha,snr_db", [
    (64, 64, 1.0, -60), (200, 64, 0.3103, -54.8), (5, 1, 0.25, 0),
    (5, 1, 0.5, 0), (5, 1, 1.0, 0)])
def test_closed_form_matches_mpmath_where_partial_fractions_cancel(
        n_t, bits, alpha, snr_db):
    want = mpmath_rate(pytest.importorskip("mpmath"), n_t, bits, alpha, snr_db)
    got = secrecy_rate_closed_form(SystemParams(n_t, bits, alpha, snr_db))
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (got, want)


def _mpmath_clipped_rate(mpmath, p):
    """The clipped rate at 40 digits: n_t log2(e) times the integral of
    S_L (1 - S_E) / (1 + x), the links' survival functions S_L and S_E."""
    with mpmath.workdps(40):
        s = mpmath.mpf(p.noise_over_power)
        s_eav = mpmath.mpf(p.eav_noise_over_power)
        d = mpmath.mpf(2) ** (-mpmath.mpf(p.bits) / (p.n_t - 1))
        return float(p.n_t / mpmath.log(2) * mpmath_half_line(
            mpmath, lambda x: mpmath.exp(-x * s) / (1 + d * x) ** (p.n_t - 1)
            * (1 - mpmath.exp(-x * s_eav) / (1 + x) ** (p.n_t - 1))
            / (1 + x)))


# A sample of the arbiter grid: every n_t, bits and alpha, SNRs from
# noise- to interference-limited.
@pytest.mark.parametrize("n_t,bits,alpha,snr_db", [
    (2, 0, 1.0, -20), (2, 16, 1e-3, 80), (5, 4, 0.5, 0), (16, 4, 1e-3, 20),
    (64, 0, 0.5, -60), (64, 16, 1.0, 0), (128, 4, 1.0, 20),
    (256, 16, 0.5, 80)])
def test_clipped_quadrature_matches_mpmath(n_t, bits, alpha, snr_db):
    mpmath = pytest.importorskip("mpmath")
    p = SystemParams(n_t=n_t, bits=bits, alpha=alpha, snr_db=snr_db)
    want = _mpmath_clipped_rate(mpmath, p)
    got = rates_from_cdf_quadrature([p], clip=True)[0]
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (got, want)
    # Clipping drops only negative per-user parts.
    plain = rates_from_cdf_quadrature([p])[0]
    assert got >= plain - 1e-9 * max(1.0, abs(want))


def test_rates_match_mpmath_on_the_wide_grid():
    # The 40-digit rates of tests/make_arbiter_rates.py, at all 270 points.
    # The quadrature oracle runs as validate runs it, one pass over all.
    want = load_rates()
    assert list(want) == ARBITER_GRID
    points = [SystemParams(*point) for point in want]
    for p, quad, rate in zip(points, rates_from_cdf_quadrature(points),
                             want.values()):
        for got in (quad, secrecy_rate_closed_form(p)):
            assert abs(got - rate) <= 1e-9 * max(1.0, abs(rate)), (
                p, got, rate)


@pytest.mark.slow
def test_arbiter_rates_file_matches_mpmath():
    # Every ninth point re-derived: 30 points that cover every n_t, bits,
    # alpha and SNR of the grid.
    mpmath = pytest.importorskip("mpmath")
    want = load_rates()
    for point in ARBITER_GRID[::9]:
        got = mpmath_rate(mpmath, *point)
        assert abs(got - want[point]) <= 1e-14 * max(1.0, abs(got)), point


def test_closed_form_and_limit_never_call_the_quadrature(monkeypatch):
    # _exp_sinh is the one rule under both quadrature entry points.
    def no_quadrature(integrand, n_rows):
        raise AssertionError("the exp-sinh quadrature called")

    monkeypatch.setattr(analytic, "_exp_sinh", no_quadrature)
    mpmath = pytest.importorskip("mpmath")
    for point, rate in load_rates().items():
        p = SystemParams(*point)
        got = secrecy_rate_closed_form(p)
        assert abs(got - rate) <= 1e-9 * max(1.0, abs(rate)), (point, got)
    for n_t, bits in {point[:2] for point in ARBITER_GRID}:
        with mpmath.workdps(40):
            z = 1 - mpmath.mpf(2) ** (-mpmath.mpf(bits) / (n_t - 1))
            want = float(n_t * (mpmath.hyp2f1(n_t - 1, 1, n_t, z) - 1)
                         / ((n_t - 1) * mpmath.log(2)))
        got = secrecy_rate_interference_limited(
            SystemParams(n_t=n_t, bits=bits, alpha=1.0, snr_db=0.0))
        assert got == pytest.approx(want, rel=1e-13, abs=1e-15), (n_t, bits)


# In the model the rate rises with the feedback budget and falls as the
# path-loss ratio alpha grows; a few ulp of rounding aside, so must the
# closed form.
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n_t=st.integers(2, 256), bits=st.integers(0, 300),
       more_bits=st.integers(0, 300),
       alpha=st.floats(1e-3, 10.0), alpha_factor=st.floats(1.0, 1e4),
       snr_db=st.floats(-60.0, 80.0))
def test_closed_form_matches_the_oracle_and_is_monotone(
        n_t, bits, more_bits, alpha, alpha_factor, snr_db):
    p = SystemParams(n_t=n_t, bits=bits, alpha=alpha, snr_db=snr_db)
    rate = secrecy_rate_closed_form(p)
    tol = max(1.0, abs(rate))
    assert abs(rate - rates_from_cdf_quadrature([p])[0]) <= 1e-9 * tol
    more = SystemParams(n_t, min(300, bits + more_bits), alpha, snr_db)
    assert secrecy_rate_closed_form(more) >= rate - 1e-15 * tol
    weaker = SystemParams(n_t, bits, min(10.0, alpha * alpha_factor), snr_db)
    assert secrecy_rate_closed_form(weaker) <= rate + 1e-15 * tol


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
        rates_from_cdf_quadrature([p], Regime.NOISE_LIMITED)[0], abs=1e-8)


def test_noise_limited_ignores_feedback():
    lo = SystemParams(n_t=5, bits=0, alpha=0.5, snr_db=0.0)
    hi = SystemParams(n_t=5, bits=10, alpha=0.5, snr_db=0.0)
    assert secrecy_rate_noise_limited(lo) == secrecy_rate_noise_limited(hi)


def test_quadrature_zero_when_laws_coincide():
    p = SystemParams(n_t=5, bits=0, alpha=1.0, snr_db=10.0)
    assert abs(rates_from_cdf_quadrature([p])[0]) < 1e-9


@pytest.mark.parametrize("n_t,bits", [(2, 1), (2, 4), (3, 1), (3, 4),
                                      (5, 1), (5, 4)])
def test_quadrature_cross_checks_interference_limited(n_t, bits):
    p = SystemParams(n_t=n_t, bits=bits, alpha=1.0, snr_db=0.0)
    closed = secrecy_rate_interference_limited(p)
    quad = rates_from_cdf_quadrature([p], Regime.INTERFERENCE_LIMITED)[0]
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
