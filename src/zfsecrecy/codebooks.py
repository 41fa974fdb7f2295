"""Random-vector-quantization (RVQ) codebooks.

Each user quantizes its channel direction onto the best codeword of a
private random codebook and feeds back only the codeword index; the
transmitter then points each user's beam into the null space of everyone
else's quantized direction, so the only residual inter-user interference
comes from the quantization error.  The simulator never builds a
codebook: FULL mode samples each user's selection from its law, and
``generate_codebook`` draws an explicit one for studies of the search.
"""

import numpy as np

from .linalg import complex_gaussian_batch

# Exhaustive codeword search is O(2**bits * n_t) per draw, so no codebook
# past this cap is materialized.
MAX_CODEBOOK_BITS = 16


class CodebookSizeError(ValueError):
    """Codebook would be too large to search exhaustively."""


def generate_codebook(n_t: int, bits: int,
                      gen: np.random.Generator) -> np.ndarray:
    """Draw 2**bits i.i.d. isotropic unit vectors on the complex sphere,
    one codeword per row of the returned (2**bits, n_t) array."""
    if n_t < 2:
        raise ValueError(f"n_t must be >= 2, got {n_t}")
    if bits < 0:
        raise ValueError(f"bits must be >= 0, got {bits}")
    if bits > MAX_CODEBOOK_BITS:
        raise CodebookSizeError(
            f"bits={bits} exceeds the exhaustive-search cap of "
            f"{MAX_CODEBOOK_BITS}; use FULL or QCA mode instead")
    cw = complex_gaussian_batch(gen, (2 ** bits, n_t))
    cw /= np.linalg.norm(cw, axis=1, keepdims=True)
    return cw
