"""Scenario configuration for the quantized-feedback downlink."""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SystemParams:
    """One downlink scenario: antennas/users, feedback budget, path loss, SNR.

    The number of served users equals the antenna count ``n_t``.  ``alpha``
    is the eavesdropper's amplitude gain relative to the legitimate links
    (alpha < 1 means the eavesdropper receives a weaker signal).  ``snr_db``
    is the transmit SNR 10*log10(P/sigma^2); the noise power sigma^2 is
    fixed to 1 so only the ratio matters.
    """

    n_t: int
    bits: int
    alpha: float
    snr_db: float

    def __post_init__(self):
        if self.n_t < 2:
            raise ValueError(f"n_t must be >= 2, got {self.n_t}")
        if self.bits < 0:
            raise ValueError(f"bits must be >= 0, got {self.bits}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")

    @property
    def distortion(self) -> float:
        """Expected quantization-distortion scale 2**(-bits/(n_t-1)), in
        (0, 1].

        This is the factor by which random-vector-quantization feedback
        with ``bits`` bits per user shrinks the residual inter-user
        interference in an ``n_t``-antenna zero-forcing downlink.  It is 1
        for zero feedback and decays toward 0 as the feedback budget grows.
        """
        return 2.0 ** (-self.bits / (self.n_t - 1))

    @property
    def noise_over_power(self) -> float:
        """sigma^2 / P = 10**(-snr_db/10) seen by the legitimate users."""
        return 10.0 ** (-self.snr_db / 10.0)

    @property
    def eav_noise_over_power(self) -> float:
        """sigma^2 / (alpha^2 P), the effective noise level at the eavesdropper.

        Raises OverflowError where it is not a finite float."""
        level = self.noise_over_power / (self.alpha * self.alpha)
        if math.isinf(level):
            raise OverflowError(f"eavesdropper noise level overflows at "
                                f"alpha={self.alpha!r}, snr_db={self.snr_db!r}")
        return level
