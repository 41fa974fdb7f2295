"""Closed-form ergodic secrecy sum-rate, its asymptotes, and the special
functions they need.

The SINR of a served user, with quantized feedback, has survival function

    P(sinr > x) = exp(-x * s) / (1 + d*x)**(n_t - 1),      s = sigma^2/P,

where d is the quantization-distortion scale; the eavesdropper's SINR obeys
the same law with d = 1 and its own noise level.  Every rate here is the
difference of the two expected log terms, evaluated either exactly (via
exponential-integral machinery), in the interference-limited limit (drop the
exponential), in the noise-limited limit (drop the polynomial), or by
adaptive quadrature as an independent oracle.

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
# gauss_2f1 sums its series up to this z and uses the logarithmic form above.
_2F1_SERIES_MAX_Z = 0.9
_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=300)


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
    quickly for x >= 1.
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
        if abs(delta - 1.0) < 1e-16:
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

def integrate_half_line(integrand, scale: float) -> float:
    """integral_0^inf integrand(t) dt by adaptive quadrature, to an absolute
    error of 1e-9 or ArithmeticError.

    ``scale`` is the sharpest exponential decay rate of the integrand: the
    range splits at 1/max(1, scale), so an integrand whose support collapses
    toward 0 is still resolved.
    """
    from scipy import integrate  # lazy: it more than triples CLI start-up

    split = 1.0 / max(1.0, scale)
    head, err_h = integrate.quad(integrand, 0.0, split, **_QUAD_OPTS)
    tail, err_t = integrate.quad(integrand, split, math.inf, **_QUAD_OPTS)
    if err_h + err_t > 1e-9:
        raise ArithmeticError(
            f"quadrature did not converge (split {split:.6g}, "
            f"error estimate {err_h + err_t:.2e})")
    return head + tail


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


def laplace_two_pole_integral(x: float, y: float, z: int) -> float:
    """integral_0^inf exp(-x t) / ((t + 1)(t + y)^z) dt for x >= 0, y > 0.

    Evaluated by partial fractions over :func:`laplace_pole_integral`: a
    (y-1)^(-z) coefficient on the simple pole plus descending powers on the
    order-z pole.  The two would-be divergent single-pole pieces at x = 0
    combine into (y-1)^(-z) ln(y).  Near the pole confluence y -> 1 the
    coefficients blow up, so |y-1| < 1e-6 switches to the exact merged form
    and a thin guard band falls back to quadrature; the same fallback fires
    whenever the summed terms cancel by more than six digits.
    """
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if not y > 0:
        raise ValueError(f"y must be > 0, got {y}")
    if z < 1:
        raise ValueError(f"z must be >= 1, got {z}")

    if abs(y - 1.0) < 1e-6:
        return laplace_pole_integral(x, 1.0, z + 1)
    if abs(y - 1.0) >= 1e-4:
        terms = []
        if x == 0.0:
            terms.append((y - 1.0) ** (-z) * math.log(y))
            for i in range(1, z):
                terms.append((-1.0) ** (i - 1) * (1.0 - y) ** (-i)
                             * laplace_pole_integral(0.0, y, z - i + 1))
        else:
            terms.append((y - 1.0) ** (-z) * laplace_pole_integral(x, 1.0, 1))
            for i in range(1, z + 1):
                terms.append((-1.0) ** (i - 1) * (1.0 - y) ** (-i)
                             * laplace_pole_integral(x, y, z - i + 1))
        total = math.fsum(terms)
        largest = max(abs(t) for t in terms)
        if not largest > 1e6 * max(abs(total), 1e-300):
            return total
    return integrate_half_line(
        lambda t: math.exp(-x * t) / ((t + 1.0) * (t + y) ** z), x)


# ---------------------------------------------------------------------------
# Gauss hypergeometric function, rate family only
# ---------------------------------------------------------------------------

def gauss_2f1(n_t: int, z: float) -> float:
    """2F1(n_t - 1, 1; n_t; z) for z in [0, 1).

    Pochhammer cancellation collapses this family to
    (n_t-1) * sum_j z^j / (n_t-1+j).  The series is summed directly for
    z <= 0.9; closer to 1 the exact logarithmic form
    m z^(-m) (-ln(1-z) - sum_{k<m} z^k/k), m = n_t-1, avoids the slow tail.
    """
    if n_t < 2:
        raise ValueError(f"n_t must be >= 2, got {n_t}")
    if not 0.0 <= z < 1.0:
        raise ValueError(f"z must lie in [0, 1), got {z}")
    m = n_t - 1
    if z == 0.0:
        return 1.0
    if z <= _2F1_SERIES_MAX_Z:
        total = 0.0
        power = 1.0
        for j in range(100_000):
            add = power * m / (m + j)
            total += add
            if add < 1e-17 * total:
                return total
            power *= z
        raise ArithmeticError(f"2F1 series failed to converge at z={z}")
    return _2f1_log_form(m, z, -math.log1p(-z))


def _2f1_log_form(m: int, z: float, neg_log_d: float) -> float:
    """The logarithmic form m z^(-m) (-ln(d) - sum_{k<m} z^k/k) of
    2F1(m, 1; m+1; z), with d = 1 - z passed as -ln(d), so that a caller
    holding d itself keeps it exact where 1 - d would round to 1."""
    partial = 0.0
    power = 1.0
    for k in range(1, m):
        power *= z
        partial += power / k
    return m * (neg_log_d - partial) / z ** m


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

    n_t * log2(e) * [ d^-(n_t-1) * TwoPole(s, 1/d, n_t-1) - J(s_e, 1, n_t) ]
    with d the distortion scale, s = sigma^2/P and s_e = sigma^2/(alpha^2 P).
    May be negative: the definition keeps the difference of logs without a
    positive-part clip.
    """
    n_t = params.n_t
    d = params.distortion
    legit = d ** (-(n_t - 1)) * laplace_two_pole_integral(
        params.noise_over_power, 1.0 / d, n_t - 1)
    eav = laplace_pole_integral(params.eav_noise_over_power, 1.0, n_t)
    return n_t * LOG2_E * (legit - eav)


def secrecy_rate_interference_limited(params: SystemParams) -> float:
    """High-SNR limit of the rate; depends only on (n_t, bits).

    n_t * log2(e) * [ B(1, n_t-1) * 2F1(n_t-1, 1; n_t; 1-d) - 1/(n_t-1) ]
    where B(1, n_t-1) = 1/(n_t-1).  Exactly zero for zero feedback.
    """
    n_t = params.n_t
    d = params.distortion
    if d == 0.0:
        raise OverflowError(f"the distortion 2**(-bits/(n_t-1)) underflows "
                            f"to 0 at n_t={n_t}, bits={params.bits}, and the "
                            f"rate grows like -log(distortion)")
    z = 1.0 - d
    if z <= _2F1_SERIES_MAX_Z:
        hyp = gauss_2f1(n_t, z)
    else:
        # ln(d) from d itself: 1 - d rounds to 1 once d < 2**-53.
        hyp = _2f1_log_form(n_t - 1, z, -math.log(d))
    return n_t * LOG2_E * (hyp - 1.0) / (n_t - 1)


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
                             regime: Regime = Regime.GENERAL) -> float:
    """Independent oracle: the rate by adaptive quadrature of the SINR laws.

    Integrates n_t * log2(e) * [(1-F) - (1-G)] / (1+x) over x >= 0, where F
    and G are the two links' CDFs for the given regime.  Serves as ground
    truth for all three closed forms; absolute error below 1e-9 or it
    raises.
    """
    legit = _survival_law(params, Link.LEGITIMATE, regime)
    eav = _survival_law(params, Link.EAVESDROPPER, regime)
    return params.n_t * LOG2_E * integrate_half_line(
        lambda x: (legit(x) - eav(x)) / (1.0 + x),
        max(params.noise_over_power, params.eav_noise_over_power))
