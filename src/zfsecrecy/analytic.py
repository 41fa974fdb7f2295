"""Closed-form ergodic secrecy sum-rate, its asymptotes, and the special
functions they need.

The SINR of a served user, with quantized feedback, has survival function

    P(sinr > x) = exp(-x * s) / (1 + d*x)**(n_t - 1),      s = sigma^2/P,

where d is the quantization-distortion scale; the eavesdropper's SINR obeys
the same law with d = 1 and its own noise level.  Every rate here is the
difference of the two expected log terms, evaluated either exactly (one
two-pole kernel over scaled exponential integrals), in the
interference-limited limit (drop the exponential: the same kernel at s = 0),
in the noise-limited limit (drop the polynomial), or by double-exponential
quadrature as an independent oracle.

All chi-square-style variates follow the complex-variate convention: the
two-degree case is Exp(1) with density exp(-x), and the 2k-degree case is
Gamma(k, 1).  Standard chi-square tables differ by a factor of 2.

A series, continued fraction or quadrature that fails to converge raises
ArithmeticError, as float64 overflow and division by zero do.
"""

import enum
import math

import numpy as np

from .params import SystemParams

EULER_GAMMA = 0.5772156649015328606
LOG2_E = math.log2(math.e)

_CF_MAX_ITER = 10_000


class Regime(enum.Enum):
    """Which limit of the SINR law applies."""

    GENERAL = "general"
    INTERFERENCE_LIMITED = "il"
    NOISE_LIMITED = "nl"


class Link(enum.Enum):
    """Whose SINR: a served user or the eavesdropper."""

    LEGITIMATE = "legitimate"
    EAVESDROPPER = "eavesdropper"


# ---------------------------------------------------------------------------
# Exponential integrals
# ---------------------------------------------------------------------------

def _e1_series(x: float) -> float:
    # E1(x) = -euler_gamma - ln(x) + sum_{k>=1} (-1)^(k+1) x^k / (k * k!),
    # alternating and rapidly convergent for x <= 1.
    total = -EULER_GAMMA - math.log(x)
    term = 1.0
    for k in range(1, 200):
        term *= -x / k
        add = -term / k
        total += add
        if abs(add) < 1e-18 * max(abs(total), 1e-300):
            return total
    raise ArithmeticError(f"E1 series failed to converge at x={x}")


def _en_scaled_cf(n: int, x: float) -> float:
    """exp(x) * E_n(x) by the Stieltjes continued fraction (modified Lentz).

    E_n(x) = e^-x / (x+n - 1*n/(x+n+2 - 2*(n+1)/(x+n+4 - ...))); converges
    quickly for x >= 1.  It stops once a step's factor is 1.0, or, where
    b + 2 rounds to b (x past about 3.6e16), within one ulp of 1: there d
    and c are 1/b and b at every step, and their product can settle at
    1 - 2**-53 or 1 + 2**-52 for good.
    """
    tiny = 1e-300
    b = x + n
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAX_ITER):
        a = -i * (n - 1 + i)
        b += 2.0
        d = a * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16 or (b + 2.0 == b
                                         and abs(delta - 1.0) <= 2.0 ** -52):
            return h
    raise ArithmeticError(
        f"continued fraction failed to converge at n={n}, x={x}")


def exp_integral_e1(x: float) -> float:
    """E1(x) = integral_x^inf exp(-t)/t dt, for x > 0.

    Power series for x <= 1, continued fraction for x > 1; relative error
    below 1e-12 across the positive axis.
    """
    if not x > 0:
        raise ValueError(f"E1 requires x > 0, got {x}")
    if x <= 1.0:
        return _e1_series(x)
    return math.exp(-x) * _en_scaled_cf(1, x)


def exp_integral_e1_scaled(x: float) -> float:
    """exp(x) * E1(x), stable for arbitrarily large x (~ 1/x as x -> inf)."""
    if not x > 0:
        raise ValueError(f"E1 requires x > 0, got {x}")
    if x <= 1.0:
        return math.exp(x) * _e1_series(x)
    return _en_scaled_cf(1, x)


def _en_scaled(n: int, x: float) -> float:
    """exp(x) * E_n(x) for integer n >= 1 and x >= 0 (x > 0 when n == 1).

    For x <= 1 the upward recurrence from E1 is stable (errors shrink by
    x/k per step); for x > 1 the continued fraction is used directly, since
    upward recurrence amplifies roundoff by roughly x/k per step.
    """
    if n == 1:
        return exp_integral_e1_scaled(x)
    if x == 0.0:
        return 1.0 / (n - 1)
    if x <= 1.0:
        val = exp_integral_e1_scaled(x)
        for k in range(2, n + 1):
            val = (1.0 - x * val) / (k - 1)
        return val
    return _en_scaled_cf(n, x)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def integrate_half_line(integrand) -> float:
    """integral_0^inf integrand(t) dt by the exp-sinh rule (Takahasi and
    Mori, 1974), to an absolute error of 1e-9 or ArithmeticError.

    t = exp(pi/2 sinh u) maps u in [-4, 4] onto t in about [1e-19, 1e19],
    so no scale hint or split is needed.  The trapezoid rule in u halves
    its step from 1/2 to 2^-12, calling ``integrand`` on each level's new
    nodes as one array (a non-finite value counts as 0); from the third
    level on it stops once two levels agree to 1e-13, well inside 1e-9: a
    level difference can understate the coarser level's error.
    """
    total, estimate = 0.0, math.inf
    for level in range(12):
        h = 0.5 / 2 ** level
        u = np.arange(h - 4.0, 4.0, 2.0 * h if level else h)  # new at step h
        t = np.exp(math.pi / 2.0 * np.sinh(u))
        with np.errstate(all="ignore"):
            f = integrand(t) * t * np.cosh(u)
        total += math.fsum(f[np.isfinite(f)])
        previous, estimate = estimate, math.pi / 2.0 * h * total
        if level >= 2 and abs(estimate - previous) < 1e-13:
            return estimate
    raise ArithmeticError(f"quadrature did not converge (last two levels "
                          f"differ by {abs(estimate - previous):.2e})")


# ---------------------------------------------------------------------------
# Laplace-type pole integrals
# ---------------------------------------------------------------------------

def laplace_pole_integral(p: float, a: float, n: int) -> float:
    """J(p, a, n) = integral_0^inf exp(-p t) (t + a)^(-n) dt.

    Satisfies J(p,a,1) = exp(a p) E1(a p) and the downward-in-order identity
    J(p,a,n) = (a^(1-n) - p J(p,a,n-1)) / (n-1); evaluated through the scaled
    exponential integral exp(ap) E_n(ap), which keeps full precision even
    for a*p far beyond the overflow point of exp.
    """
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    if not a > 0:
        raise ValueError(f"a must be > 0, got {a}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if p == 0.0:
        if n == 1:
            raise ValueError("integral diverges for p = 0, n = 1")
        return a ** (1.0 - n) / (n - 1)
    return a ** (1.0 - n) * _en_scaled(n, a * p)


def _en_scaled_run(lo: int, hi: int, w: float) -> list:
    """[exp(w) E_n(w) for n = lo..hi], from one :func:`_en_scaled` call at
    the order nearest w: f_{n+1} = (1 - w f_n) / n scales errors by w/n,
    so it runs upward above that order and downward below it."""
    n0 = min(max(round(w), lo), hi)
    f = [0.0] * (hi - lo + 1)
    f[n0 - lo] = _en_scaled(n0, w)
    for n in range(n0, hi):
        f[n + 1 - lo] = (1.0 - w * f[n - lo]) / n
    for n in range(n0 - 1, lo - 1, -1):
        f[n - lo] = (1.0 - n * f[n + 1 - lo]) / w
    return f


def _two_pole(x: float, d: float, z: int) -> float:
    """integral_0^inf exp(-x t) / ((1 + t)(1 + d t)^z) dt for x >= 0, d > 0.

    With r = 1 - d and w = x/d, and f_n = exp(w) E_n(w):
    - close poles: the series sum_j r^j f_{z+1+j}, its terms positive for
      d <= 1, summed to the J = 1 + ceil(38 / ln(1/|r|)) terms after which
      |r|^j < e^-38; taken when |r| < 1 and J <= 8z + 64;
    - distant poles otherwise: partial fractions
      r^-z exp(x) E_1(x) - sum_{n=1..z} r^(n-z-1) f_n, at x = 0
      r^-z ln(1/d) - sum_{n=2..z} r^(n-z-1) / (n-1).  Their coefficients
      |r|^(n-z-1) stay below e^(38z / (8z+63)) < 116 for |r| < 1 (J past
      8z + 64), and at most 1 for |r| >= 1.
    For x > 0, where d is 0 or x/d passes float64, the integral is its
    d -> 0 limit exp(x) E_1(x): the factor (1 + d t)^-z moves it by less
    than z d/x relative, below 2**-900 there.  At x = 0 it grows like
    ln(1/d), and d = 0 raises ZeroDivisionError.
    ln(1/d) is taken from d itself, exact where 1 - d rounds to 1.
    """
    if x > 0.0 and (d == 0.0 or x / d == math.inf):
        return exp_integral_e1_scaled(x)
    w = x / d
    r = 1.0 - d
    log_r = math.log(abs(r)) if r else -math.inf
    terms = 1 + math.ceil(-38.0 / log_r) if log_r < 0.0 else math.inf
    if terms <= 8 * z + 64:
        f = _en_scaled_run(z + 1, z + terms, w)
        return math.fsum(r ** j * v for j, v in enumerate(f))
    if x == 0.0:
        return (-math.log(d) * r ** -z
                - math.fsum(r ** (n - z - 1) / (n - 1) for n in range(2, z + 1)))
    f = _en_scaled_run(1, z, w)
    return (exp_integral_e1_scaled(x) * r ** -z
            - math.fsum(r ** (n - z - 1) * v for n, v in enumerate(f, 1)))


# ---------------------------------------------------------------------------
# Gauss hypergeometric function, rate family only
# ---------------------------------------------------------------------------

def gauss_2f1(n_t: int, z: float) -> float:
    """2F1(n_t - 1, 1; n_t; z) for z in [0, 1).

    Pochhammer cancellation collapses this family to
    (n_t-1) * sum_j z^j / (n_t-1+j) = (n_t-1) * integral_0^inf
    dt / ((1 + t)(1 + (1-z) t)^(n_t-1)), the two-pole kernel at x = 0.
    """
    if n_t < 2:
        raise ValueError(f"n_t must be >= 2, got {n_t}")
    if not 0.0 <= z < 1.0:
        raise ValueError(f"z must lie in [0, 1), got {z}")
    return (n_t - 1) * _two_pole(0.0, 1.0 - z, n_t - 1)


# ---------------------------------------------------------------------------
# SINR distributions
# ---------------------------------------------------------------------------

def _survival_law(params: SystemParams, link: Link, regime: Regime):
    """x -> P(sinr > x) for the requested link and regime, its constants
    bound once: the one survival formula, for x >= 0."""
    if link is Link.LEGITIMATE:
        noise = params.noise_over_power
        interference = params.distortion
    else:
        noise = params.eav_noise_over_power
        interference = 1.0
    k = params.n_t - 1
    if regime is Regime.GENERAL:
        return lambda x: np.exp(-x * noise) / (1.0 + interference * x) ** k
    if regime is Regime.INTERFERENCE_LIMITED:
        return lambda x: 1.0 / (1.0 + interference * x) ** k
    if regime is Regime.NOISE_LIMITED:
        return lambda x: np.exp(-x * noise)
    raise ValueError(f"unknown regime {regime!r}")


def sinr_cdf(x, params: SystemParams, link: Link,
             regime: Regime = Regime.GENERAL):
    """CDF of a served user's (or the eavesdropper's) SINR; x a float or an
    array.

    Monotone non-decreasing, 0 at x = 0, tending to 1 as x grows.
    """
    negative = (x < 0).any() if isinstance(x, np.ndarray) else x < 0
    if negative:
        raise ValueError(f"x must be >= 0, got {x}")
    return 1.0 - _survival_law(params, link, regime)(x)


# ---------------------------------------------------------------------------
# Ergodic secrecy sum-rate
# ---------------------------------------------------------------------------

def secrecy_rate_closed_form(params: SystemParams) -> float:
    """Exact ergodic secrecy sum-rate, bits/s/Hz.

    n_t * log2(e) * [ TwoPole(s, d, n_t-1) - J(s_e, 1, n_t) ]
    with TwoPole the integral of exp(-s t) / ((1+t)(1+d t)^(n_t-1)), d the
    distortion scale, s = sigma^2/P and s_e = sigma^2/(alpha^2 P).
    May be negative: the definition keeps the difference of logs without a
    positive-part clip.
    """
    n_t = params.n_t
    legit = _two_pole(params.noise_over_power, params.distortion, n_t - 1)
    eav = laplace_pole_integral(params.eav_noise_over_power, 1.0, n_t)
    return n_t * LOG2_E * (legit - eav)


def secrecy_rate_interference_limited(params: SystemParams) -> float:
    """High-SNR limit of the rate; depends only on (n_t, bits).

    n_t * log2(e) * [ B(1, n_t-1) * 2F1(n_t-1, 1; n_t; 1-d) - 1/(n_t-1) ]
    where B(1, n_t-1) = 1/(n_t-1): the closed form's kernel at s = 0.
    Exactly zero for zero feedback.
    """
    n_t = params.n_t
    d = params.distortion
    if d == 0.0:
        raise OverflowError(f"the distortion 2**(-bits/(n_t-1)) underflows "
                            f"to 0 at n_t={n_t}, bits={params.bits}, and the "
                            f"rate grows like -log(distortion)")
    return n_t * LOG2_E * (_two_pole(0.0, d, n_t - 1) - 1.0 / (n_t - 1))


def secrecy_rate_noise_limited(params: SystemParams) -> float:
    """Low-SNR limit of the rate; independent of the feedback budget.

    n_t * log2(e) * [ e^s E1(s) - e^s' E1(s') ] with s = sigma^2/P and
    s' = sigma^2/(alpha^2 P).  Exactly zero at alpha = 1.
    """
    s_legit = params.noise_over_power
    s_eav = params.eav_noise_over_power
    if s_legit == s_eav:
        return 0.0
    return params.n_t * LOG2_E * (exp_integral_e1_scaled(s_legit)
                                  - exp_integral_e1_scaled(s_eav))


def secrecy_rate_for_regime(params: SystemParams, regime: Regime) -> float:
    if regime is Regime.GENERAL:
        return secrecy_rate_closed_form(params)
    if regime is Regime.INTERFERENCE_LIMITED:
        return secrecy_rate_interference_limited(params)
    if regime is Regime.NOISE_LIMITED:
        return secrecy_rate_noise_limited(params)
    raise ValueError(f"unknown regime {regime!r}")


def rate_from_cdf_quadrature(params: SystemParams,
                             regime: Regime = Regime.GENERAL,
                             clip: bool = False) -> float:
    """Independent oracle: the rate by quadrature of the SINR laws.

    Integrates n_t * log2(e) * [(1-F) - (1-G)] / (1+x) over x >= 0, where F
    and G are the two links' CDFs for the given regime.  Serves as ground
    truth for all three closed forms; error below 1e-9 * max(1, |rate|) or
    it raises.

    With ``clip``, the rate of per-user positive parts,
    E sum_k [log2(1+sinr_k) - log2(1+eav_sinr_k)]^+, for independent links
    as in QCA: E[(A-B)^+] = integral of P(A > t) P(B <= t) dt, so the
    integrand is (1-F) * G / (1+x).
    """
    legit = _survival_law(params, Link.LEGITIMATE, regime)
    eav = _survival_law(params, Link.EAVESDROPPER, regime)
    if clip:
        def integrand(x):
            return legit(x) * (1.0 - eav(x)) / (1.0 + x)
    else:
        def integrand(x):
            return (legit(x) - eav(x)) / (1.0 + x)
    return params.n_t * LOG2_E * integrate_half_line(integrand)
