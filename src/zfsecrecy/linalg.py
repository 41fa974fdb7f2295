"""Seeded random streams and batched complex Gaussian draws.

Randomness is always drawn through :class:`RngStream` handles or the
``numpy.random.Generator`` objects they produce, so every sampled quantity
is a pure function of (seed, stream_id, draw sequence).
"""

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream handle.

    The same (seed, stream_id) pair always reproduces the same draw
    sequence, independent of host, thread count, or interleaving with other
    streams.  Distinct stream_ids under one seed give statistically
    independent streams, so parallel workers can own disjoint substreams.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def complex_gaussian_batch(gen: np.random.Generator, shape) -> np.ndarray:
    """Array of i.i.d. circularly-symmetric complex Gaussians with the
    given shape: mean 0, unit variance (real and imaginary parts each carry
    variance 1/2).

    Consumes exactly 2*prod(shape) underlying normal draws in a fixed
    layout, all real parts then all imaginary parts, bit for bit those of
    ``(re + 1j*im) / sqrt(2)``.
    """
    part = gen.standard_normal(tuple(shape))  # real parts, then imaginary
    out = np.empty(part.shape, dtype=complex)
    np.multiply(part, 1.0 / np.sqrt(2.0), out=out.real)
    gen.standard_normal(out=part)
    np.multiply(part, 1.0 / np.sqrt(2.0), out=out.imag)
    return out
