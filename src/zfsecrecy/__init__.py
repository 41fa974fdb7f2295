"""Secrecy-rate analysis of a zero-forcing downlink with quantized feedback.

A Monte Carlo link simulator (explicit channels, RVQ codeword selection and
beams, or the faster quantization-cell approximation) and a closed-form
analytic engine for the ergodic secrecy sum-rate and its interference- and
noise-limited limits, each cross-validating the other.
"""

from .analytic import (Link, Regime, exp_integral_e1, exp_integral_e1_scaled,
                       gauss_2f1, laplace_pole_integral,
                       rates_from_cdf_quadrature, secrecy_rate_closed_form,
                       secrecy_rate_interference_limited,
                       secrecy_rate_noise_limited, sinr_cdf)
from .linalg import RngStream
from .params import SystemParams, quantization_distortion
from .simulate import (RateEstimate, SimMode, collect_sinr_samples,
                       estimate_secrecy_rates, ks_statistic)

__all__ = [
    "Link", "RateEstimate", "Regime", "RngStream", "SimMode", "SystemParams",
    "collect_sinr_samples", "estimate_secrecy_rates", "exp_integral_e1",
    "exp_integral_e1_scaled", "gauss_2f1", "ks_statistic",
    "laplace_pole_integral", "quantization_distortion",
    "rates_from_cdf_quadrature", "secrecy_rate_closed_form",
    "secrecy_rate_interference_limited", "secrecy_rate_noise_limited",
    "sinr_cdf",
]

__version__ = "0.1.0"
