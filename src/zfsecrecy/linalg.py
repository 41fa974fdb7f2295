"""Seeded random streams and batched complex Gaussian draws.

Randomness is always drawn through :class:`RngStream` handles or the
``numpy.random.Generator`` objects they produce, so every sampled quantity
is a pure function of (seed, stream_id, draw sequence).
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngStream:
    """Keyed random stream handle.

    ``stream_id`` is an int or a tuple of ints, the key under ``seed``: the
    same (seed, stream_id) pair always reproduces the same draw sequence,
    independent of host, thread count, or interleaving with other streams.
    An int id is the one-element key, so ``RngStream(s, 3)`` and
    ``RngStream(s, (3,))`` are one stream.  Distinct keys under one seed
    give statistically independent streams, so parallel workers can own
    disjoint substreams: the key is the SeedSequence spawn key that seeds
    an SFC64 generator, which draws normals and gammas about 1.45x as fast
    as Philox (numpy 2.4).  Each key element must lie in [0, 2**32):
    SeedSequence spreads a larger one over several 32-bit words, so
    ``(2**32,)`` would be the key ``(0, 1)``.  The seed must lie in
    [0, 2**64), the range the streams are keyed on.
    """

    seed: int
    stream_id: int | tuple = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = (self.stream_id if isinstance(self.stream_id, tuple)
               else (self.stream_id,))
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed!r}")
        if not all(0 <= i < 2 ** 32 for i in key):
            raise ValueError(f"stream key elements must lie in [0, 2**32), "
                             f"got {self.stream_id!r}")
        seeds = np.random.SeedSequence(self.seed, spawn_key=key)
        return np.random.Generator(np.random.SFC64(seeds))


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
