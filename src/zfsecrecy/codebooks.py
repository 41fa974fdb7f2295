"""Random-vector-quantization codebooks, codeword selection, ZF beams.

Each user quantizes its channel direction onto the best codeword of a
private random codebook and feeds back only the codeword index; the
transmitter then points each user's beam into the null space of everyone
else's quantized direction, so the only residual inter-user interference
comes from the quantization error.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (DegenerateInputError, as_generator, complex_gaussian_batch,
                     orthonormal_complement, unit_direction)

# Exhaustive codeword search is O(2**bits * n_t) per draw, so no codebook
# past this cap is materialized.  Fresh-codebook FULL mode never builds one:
# it samples each user's selection from its law.
MAX_CODEBOOK_BITS = 16


class CodebookSizeError(ValueError):
    """Codebook would be too large to search exhaustively."""


@dataclass(frozen=True)
class Codebook:
    """2**bits unit-norm codeword directions, one per row."""

    codewords: np.ndarray  # (2**bits, dim) complex, unit rows
    bits: int

    @property
    def dim(self) -> int:
        return self.codewords.shape[1]


@dataclass(frozen=True)
class QuantizationOutcome:
    """Selected codeword plus the orthogonal decomposition of the direction.

    ``error`` is sin^2 of the angle between the channel direction and the
    chosen codeword; ``error_direction`` is the unit vector along the
    residual, orthogonal to the codeword.  The direction reconstructs as

        sqrt(1 - error) * e^{i phase} * codeword + sqrt(error) * error_direction
    """

    index: int
    error: float
    error_direction: np.ndarray
    codeword: np.ndarray
    phase: float  # phase rotation absorbed into the codeword coefficient


def generate_codebook(n_t: int, bits: int, rng) -> Codebook:
    """Draw 2**bits i.i.d. isotropic unit vectors on the complex sphere."""
    if n_t < 2:
        raise ValueError(f"n_t must be >= 2, got {n_t}")
    if bits < 0:
        raise ValueError(f"bits must be >= 0, got {bits}")
    if bits > MAX_CODEBOOK_BITS:
        raise CodebookSizeError(
            f"bits={bits} exceeds the exhaustive-search cap of "
            f"{MAX_CODEBOOK_BITS}; use fresh-codebook FULL or QCA mode "
            f"instead")
    gen = as_generator(rng)
    cw = complex_gaussian_batch(gen, (2 ** bits, n_t))
    cw /= np.linalg.norm(cw, axis=1, keepdims=True)
    return Codebook(codewords=cw, bits=bits)


def quantize(h: np.ndarray, codebook: Codebook) -> QuantizationOutcome:
    """Select the codeword with the largest squared direction correlation.

    Ties break to the lowest index (a probability-zero event for
    continuous draws; pinned for reproducibility).
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 1 or h.shape[0] != codebook.dim:
        raise ValueError(
            f"channel has shape {h.shape}, codebook dimension is {codebook.dim}")
    direction = unit_direction(h)  # raises DegenerateInputError on zero input

    ips = codebook.codewords @ np.conj(direction)  # element i = direction^H cw_i
    index = int(np.argmax(np.abs(ips) ** 2))
    cw = codebook.codewords[index]
    coeff = np.conj(ips[index])  # cw_index^H direction: projection coefficient
    error = float(min(max(1.0 - abs(coeff) ** 2, 0.0), 1.0))

    # Residual of the direction against the codeword; one extra
    # orthogonalization pass pins error_direction^H codeword to roundoff.
    if error > 1e-12:
        resid = direction - coeff * cw
        resid = resid - cw * np.vdot(cw, resid)
        error_direction = resid / np.linalg.norm(resid)
    else:
        # Direction coincides with the codeword; any unit vector orthogonal
        # to it closes the decomposition.
        error_direction = orthonormal_complement([cw], codebook.dim)[0]
    phase = float(np.angle(coeff)) if abs(coeff) > 0 else 0.0
    return QuantizationOutcome(index=index, error=error,
                               error_direction=error_direction,
                               codeword=cw, phase=phase)


def zfbf_beams(quantized_directions) -> np.ndarray:
    """Zero-forcing beams for K = n_t users, one unit-norm beam per row.

    Beam k spans the orthogonal complement of all other users' quantized
    directions, so row k is orthogonal (to 1e-10) to every direction but
    its own.  Raises DegenerateInputError when the directions are
    numerically rank deficient (coincident quantized directions); the
    simulation layer resamples such draws.
    """
    dirs = [np.asarray(v, dtype=complex) for v in quantized_directions]
    k = len(dirs)
    if k < 2:
        raise ValueError("need at least two directions")
    dim = dirs[0].shape[0]
    if k != dim:
        raise ValueError(f"expected n_t = {dim} directions, got {k}")
    beams = np.empty((k, dim), dtype=complex)
    for i in range(k):
        others = [dirs[j] for j in range(k) if j != i]
        beams[i] = orthonormal_complement(others, dim)[0]
    return beams
