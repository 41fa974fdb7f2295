"""Closed-form ergodic secrecy sum-rate, its asymptotes, and the special
functions they need.

The SINR of a served user, with quantized feedback, has survival function

    P(sinr > x) = exp(-x * s) / (1 + d*x)**(n_t - 1),      s = sigma^2/P,

where d is the quantization-distortion scale; the eavesdropper's SINR obeys
the same law with d = 1 and its own noise level.  Every rate here is the
difference of the two links' expected log terms.  The exact rate and its
interference-limited limit (drop the exponential: s = 0) and noise-limited
limit (drop the polynomial: d = 0) take both terms from one two-pole kernel
over scaled exponential integrals; double-exponential quadrature of the
same laws is an independent oracle.

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
    """E1(x) = integral_x^inf exp(-t)/t dt, for x > 0: exp(-x) times
    :func:`exp_integral_e1_scaled`, within 1e-15 relative wherever E1 is a
    normal float64 (x up to about 701).  The domain check comes first:
    exp(-x) overflows at x below about -709."""
    return exp_integral_e1_scaled(x) * math.exp(-x)


def exp_integral_e1_scaled(x: float) -> float:
    """exp(x) * E1(x), stable for arbitrarily large x (~ 1/x as x -> inf):
    the first term of the E_n run (:func:`_en_scaled_run`)."""
    if not x > 0:
        raise ValueError(f"E1 requires x > 0, got {x}")
    return _en_scaled_run(1, 1, x)[0]


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

# Most (row, node) values one integrand call of :func:`_exp_sinh` makes:
# each of its temporaries stays within 32 KiB, or one row's new nodes
# where a level has more (8,192 and 16,384 at levels 10 and 11).
_QUAD_BLOCK_VALUES = 2 ** 12


def integrate_half_line(integrand) -> float:
    """integral_0^inf integrand(t) dt by the exp-sinh rule (Takahasi and
    Mori, 1974), to an absolute error of 1e-9 or ArithmeticError: the
    one-row view of :func:`_exp_sinh`, which states the rule."""
    return float(_exp_sinh(lambda t, rows: integrand(t), 1)[0])


def _exp_sinh(integrand, n_rows: int) -> np.ndarray:
    """The integrals over t in [0, inf) of ``n_rows`` integrands at once,
    each by the exp-sinh rule (Takahasi and Mori, 1974), to an absolute
    error of 1e-9 or ArithmeticError.

    t = exp(pi/2 sinh u) maps u in [-4, 4] onto t in about [1e-19, 1e19],
    so no scale hint or split is needed.  The trapezoid rule in u halves
    its step from 1/2 to 2^-12.  At each level ``integrand(t, rows)``
    returns the values of the integrands ``rows`` (an index array) at that
    level's new nodes ``t``, as a (len(rows), len(t)) array, in blocks of
    rows that keep it within _QUAD_BLOCK_VALUES values (a non-finite
    value counts as 0); each row's nodes are summed with math.fsum.  From
    the third level on, a row stops once its own two levels agree to
    1e-13, well inside 1e-9 (a level difference can understate the
    coarser level's error), and its integrand is not called again: each
    row is the one-row rule, whatever the others do.
    """
    totals = np.zeros(n_rows)
    estimates = np.full(n_rows, math.inf)
    active = np.arange(n_rows)
    for level in range(12):
        h = 0.5 / 2 ** level
        u = np.arange(h - 4.0, 4.0, 2.0 * h if level else h)  # new at step h
        t = np.exp(math.pi / 2.0 * np.sinh(u))
        cosh = np.cosh(u)
        step = max(1, _QUAD_BLOCK_VALUES // len(t))
        for start in range(0, len(active), step):
            rows = active[start:start + step]
            with np.errstate(all="ignore"):
                f = np.reshape(integrand(t, rows) * t * cosh, (len(rows), -1))
            f[~np.isfinite(f)] = 0.0
            totals[rows] += [math.fsum(row) for row in f.tolist()]
        previous = estimates[active]
        estimates[active] = math.pi / 2.0 * h * totals[active]
        if level >= 2:
            gaps = np.abs(estimates[active] - previous)
            active = active[~(gaps < 1e-13)]
            if not len(active):
                return estimates
    raise ArithmeticError(f"quadrature did not converge (last two levels "
                          f"differ by {gaps.max():.2e})")


# ---------------------------------------------------------------------------
# Laplace-type pole integrals
# ---------------------------------------------------------------------------

def laplace_pole_integral(p: float, a: float, n: int) -> float:
    """J(p, a, n) = integral_0^inf exp(-p t) (t + a)^(-n) dt.

    Satisfies J(p,a,1) = exp(a p) E1(a p) and the downward-in-order identity
    J(p,a,n) = (a^(1-n) - p J(p,a,n-1)) / (n-1).  t = a u merges it into
    the two-pole kernel at d = 1, a^(1-n) TwoPole(a p, 1, n-1), whose one
    term is the scaled exponential integral exp(ap) E_n(ap): full precision
    even for a*p far beyond the overflow point of exp.
    """
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    if not a > 0:
        raise ValueError(f"a must be > 0, got {a}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if p == 0.0 and n == 1:
        raise ValueError("integral diverges for p = 0, n = 1")
    return a ** (1.0 - n) * _two_pole(a * p, 1.0, n - 1)


def _en_scaled_run(lo: int, hi: int, w: float) -> list:
    """[exp(w) E_n(w) for n = lo..hi], for w >= 0 (w > 0 when lo = 1): the
    one E_n evaluator, E1 included.

    f_{n+1} = (1 - w f_n) / n scales errors by w/n.  For w <= 1 the run
    climbs from exp(w) times the E_1 power series; for w > 1 it starts
    from the continued fraction at the order nearest w and runs upward
    above that order and downward below it.  At w = 0, f_n = 1/(n-1)
    exactly, and at w = inf its limit 0 (f_n ~ 1/w).
    """
    if w == 0.0:
        return [1.0 / (n - 1) for n in range(lo, hi + 1)]
    if w == math.inf:  # every f_n ~ 1/w
        return [0.0] * (hi - lo + 1)
    if w <= 1.0:
        n0, start = 1, math.exp(w) * _e1_series(w)
    else:
        n0 = min(max(round(w), lo), hi)
        start = _en_scaled_cf(n0, w)
    base = min(n0, lo)
    f = [0.0] * (hi - base + 1)
    f[n0 - base] = start
    for n in range(n0, hi):
        f[n + 1 - base] = (1.0 - w * f[n - base]) / n
    for n in range(n0 - 1, base - 1, -1):
        f[n - base] = (1.0 - n * f[n + 1 - base]) / w
    return f[lo - base:]


def _two_pole(x: float, d: float, z: int) -> float:
    """integral_0^inf exp(-x t) / ((1 + t)(1 + d t)^z) dt for x, d >= 0:
    E ln(1 + sinr) of a link whose SINR law (:func:`_link_law`) has noise
    level x, interference scale d and z = n_t - 1.

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
    ln(1/d), and x = 0, d = 0, its one divergence, raises OverflowError.
    ln(1/d) is taken from d itself, exact where 1 - d rounds to 1.
    """
    if x > 0.0 and (d == 0.0 or x / d == math.inf):
        return exp_integral_e1_scaled(x)
    if d == 0.0:
        raise OverflowError(
            "the rate's integral diverges: a link's noise level and its "
            "interference scale are both 0, each because it underflows to "
            "0 or the regime drops it")
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

def _link_law(params: SystemParams, link: Link, regime: Regime) -> tuple:
    """(noise, interference) of a link's SINR law in ``regime``, the one
    place each law's constants are stated; :func:`_survival` states its
    form, P(sinr > x) = exp(-x noise) / (1 + interference x)**(n_t - 1).

    A served user has noise sigma^2/P and interference the distortion
    scale; the eavesdropper has noise sigma^2/(alpha^2 P) and
    interference 1.  The interference-limited regime drops the noise and
    the noise-limited regime the interference: a dropped part is 0, and
    is never computed.
    """
    if not isinstance(regime, Regime):
        raise ValueError(f"unknown regime {regime!r}")
    legit = link is Link.LEGITIMATE
    noise = interference = 0.0
    if regime is not Regime.INTERFERENCE_LIMITED:
        noise = (params.noise_over_power if legit
                 else params.eav_noise_over_power)
    if regime is not Regime.NOISE_LIMITED:
        interference = params.distortion if legit else 1.0
    return noise, interference


def _survival(x, noise, interference, k):
    """P(sinr > x) = exp(-x noise) / (1 + interference x)**k for finite
    x >= 0, k = n_t - 1: the law of :func:`_link_law`, stated once.  The
    constants broadcast against x.  A part that is 0 multiplies in as
    exp(-0) or 1 + 0 x, both exactly 1; at x = inf it would be 0 * inf,
    nan."""
    return np.exp(-x * noise) / (1.0 + interference * x) ** k


def sinr_cdf(x, params: SystemParams, link: Link,
             regime: Regime = Regime.GENERAL):
    """CDF of a served user's (or the eavesdropper's) SINR; x a float or an
    array.

    Monotone non-decreasing, 0 at x = 0, tending to 1 as x grows, and 1 at
    x = inf, where :func:`_survival` leaves a law's part that is 0 as nan.
    """
    if np.any(np.less(x, 0)):
        raise ValueError(f"x must be >= 0, got {x}")
    with np.errstate(invalid="ignore"):
        survival = _survival(x, *_link_law(params, link, regime),
                             params.n_t - 1)
    return 1.0 - np.where(x == math.inf, 0.0, survival)


# ---------------------------------------------------------------------------
# Ergodic secrecy sum-rate
# ---------------------------------------------------------------------------

def _rate(params: SystemParams, regime: Regime) -> float:
    """n_t * log2(e) * [K(legit) - K(eav)], K the two-pole kernel of each
    link's law in ``regime``: exactly 0 where the two laws are equal."""
    z = params.n_t - 1
    legit = _two_pole(*_link_law(params, Link.LEGITIMATE, regime), z)
    eav = _two_pole(*_link_law(params, Link.EAVESDROPPER, regime), z)
    return params.n_t * LOG2_E * (legit - eav)


def secrecy_rate_closed_form(params: SystemParams) -> float:
    """Exact ergodic secrecy sum-rate, bits/s/Hz.

    n_t * log2(e) * [ TwoPole(s, d) - TwoPole(s_e, 1) ]
    with TwoPole(x, d) the integral of exp(-x t) / ((1+t)(1+d t)^(n_t-1)),
    d the distortion scale, s = sigma^2/P and s_e = sigma^2/(alpha^2 P).
    May be negative: the definition keeps the difference of logs without a
    positive-part clip.
    """
    return _rate(params, Regime.GENERAL)


def secrecy_rate_interference_limited(params: SystemParams) -> float:
    """High-SNR limit of the rate; depends only on (n_t, bits).

    n_t * log2(e) * [ B(1, n_t-1) * 2F1(n_t-1, 1; n_t; 1-d) - 1/(n_t-1) ]
    where B(1, n_t-1) = 1/(n_t-1): the closed form's kernels at s = s_e = 0.
    Exactly zero for zero feedback.  Where the distortion underflows to 0
    the rate, which grows like -log(distortion), raises OverflowError.
    """
    return _rate(params, Regime.INTERFERENCE_LIMITED)


def secrecy_rate_noise_limited(params: SystemParams) -> float:
    """Low-SNR limit of the rate; independent of the feedback budget.

    n_t * log2(e) * [ e^s E1(s) - e^s' E1(s') ] with s = sigma^2/P and
    s' = sigma^2/(alpha^2 P): the closed form's kernels at d = 0.  Exactly
    zero at alpha = 1.  Where a noise level underflows to 0 its term, which
    grows like -log(s), raises OverflowError.
    """
    return _rate(params, Regime.NOISE_LIMITED)


def rates_from_cdf_quadrature(points, regime: Regime = Regime.GENERAL,
                              clip: bool = False) -> list:
    """Independent oracle: the rate at each of ``points`` (a list of
    SystemParams) by quadrature of the SINR laws.

    Integrates n_t * log2(e) * [(1-F) - (1-G)] / (1+x) over x >= 0, where F
    and G are the two links' CDFs for the given regime.  Serves as ground
    truth for all three closed forms; error below 1e-9 * max(1, |rate|) or
    it raises.

    With ``clip``, the rate of per-user positive parts,
    E sum_k [log2(1+sinr_k) - log2(1+eav_sinr_k)]^+, for independent links
    as in QCA: E[(A-B)^+] = integral of P(A > t) P(B <= t) dt, so the
    integrand is (1-F) * G / (1+x).

    One :func:`_exp_sinh` pass serves every point: row i integrates point
    i's laws (:func:`_link_law`), and each row is the one-point rule.  The
    nodes t stay finite, so a part of a law that is 0 multiplies in as
    exactly 1 (:func:`_survival`).
    """
    laws = np.array([(*_link_law(p, Link.LEGITIMATE, regime),
                      *_link_law(p, Link.EAVESDROPPER, regime), p.n_t - 1)
                     for p in points]).T

    def integrand(x, rows):
        noise, interference, eav_noise, eav_interference, k = (
            laws[:, rows, None])
        legit = _survival(x, noise, interference, k)
        eav = _survival(x, eav_noise, eav_interference, k)
        return (legit * (1.0 - eav) if clip else legit - eav) / (1.0 + x)

    values = _exp_sinh(integrand, len(points)).tolist()
    return [p.n_t * LOG2_E * v for p, v in zip(points, values)]
