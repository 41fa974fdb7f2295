"""Complex vector arithmetic, seeded random streams, orthonormal complements.

Vectors are plain 1-D complex ``numpy`` arrays throughout the package.
Randomness is always drawn through :class:`RngStream` handles or the
``numpy.random.Generator`` objects they produce, so every sampled quantity
is a pure function of (seed, stream_id, draw sequence).
"""

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

# Residual norm below this fraction of the input norm counts as rank deficient.
RANK_TOL = 1e-8


class DegenerateInputError(ValueError):
    """Raised when an input is numerically rank deficient or zero where a
    direction is required (e.g. coincident quantized directions)."""


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


def as_generator(rng) -> np.random.Generator:
    """Accept either an RngStream (fresh stream) or a Generator (stateful)."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


def sample_complex_gaussian(dim: int, rng) -> np.ndarray:
    """Draw a circularly-symmetric complex Gaussian vector.

    Entries are i.i.d. with mean 0 and unit variance (real and imaginary
    parts each carry variance 1/2).
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return complex_gaussian_batch(as_generator(rng), (dim,))


def complex_gaussian_batch(gen: np.random.Generator, shape) -> np.ndarray:
    """Array of i.i.d. unit-variance complex Gaussians with the given shape.

    Consumes exactly 2*prod(shape) underlying normal draws in a fixed
    layout, so batched and single-vector callers sharing a stream see the
    same values, bit for bit those of ``(re + 1j*im) / sqrt(2)``.
    """
    part = gen.standard_normal(tuple(shape))  # real parts, then imaginary
    out = np.empty(part.shape, dtype=complex)
    np.multiply(part, 1.0 / np.sqrt(2.0), out=out.real)
    gen.standard_normal(out=part)
    np.multiply(part, 1.0 / np.sqrt(2.0), out=out.imag)
    return out


def inner_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product a^H b, conjugate-linear in the first argument."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("inner_product expects 1-D vectors")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return complex(np.vdot(a, b))


def unit_direction(v: np.ndarray) -> np.ndarray:
    """v / ||v||.  Raises DegenerateInputError on a zero vector."""
    v = np.asarray(v, dtype=complex)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise DegenerateInputError("cannot normalize a zero vector")
    return v / nrm


def _fix_phase(u: np.ndarray) -> np.ndarray:
    """Deterministic representative of a unit vector's phase class.

    Rotates so the first coordinate of non-negligible magnitude is real
    and positive.  A unit vector always has a coordinate of magnitude at
    least 1/sqrt(dim), so the threshold below cannot skip all of them.
    """
    idx = int(np.argmax(np.abs(u) > 1e-8))
    c = u[idx]
    return u * (np.conj(c) / abs(c))


def _project_out(v: np.ndarray, basis: list) -> np.ndarray:
    out = v
    for q in basis:
        out = out - q * np.vdot(q, out)
    return out


def orthonormal_complement(vectors, dim: int) -> list:
    """Orthonormal basis of the orthogonal complement of span(vectors).

    Uses modified Gram-Schmidt with a re-orthogonalization pass, extending
    the orthonormalized inputs by the best-aligned standard basis vectors.
    Every returned vector u satisfies |v^H u| < 1e-10 against all inputs,
    and the returned set has Gram matrix equal to identity within 1e-10.

    Raises
    ------
    ValueError
        If len(vectors) >= dim or an input has the wrong length.
    DegenerateInputError
        If the inputs are numerically rank deficient (residual norm below
        RANK_TOL times the input norm).
    """
    vectors = [np.asarray(v, dtype=complex) for v in vectors]
    m = len(vectors)
    if m >= dim:
        raise ValueError(f"need fewer input vectors ({m}) than dim ({dim})")
    for v in vectors:
        if v.shape != (dim,):
            raise ValueError(f"input vector has shape {v.shape}, expected ({dim},)")

    basis = []
    for v in vectors:
        q = _project_out(_project_out(v, basis), basis)
        nrm = np.linalg.norm(q)
        if nrm < RANK_TOL * max(np.linalg.norm(v), 1.0):
            raise DegenerateInputError(
                "input vectors are numerically rank deficient")
        basis.append(q / nrm)

    complement = []
    unused = list(range(dim))
    for _ in range(dim - m):
        # Greedy pick: the standard basis vector with the largest residual.
        best_j, best_norm = -1, -1.0
        for j in unused:
            e = np.zeros(dim, dtype=complex)
            e[j] = 1.0
            nrm = np.linalg.norm(_project_out(e, basis))
            if nrm > best_norm:
                best_j, best_norm = j, nrm
        unused.remove(best_j)
        e = np.zeros(dim, dtype=complex)
        e[best_j] = 1.0
        q = _project_out(_project_out(e, basis), basis)
        q = _fix_phase(q / np.linalg.norm(q))
        basis.append(q)
        complement.append(q)
    return complement
