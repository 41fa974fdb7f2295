"""Monte Carlo estimation of per-user and eavesdropper SINRs and the
ergodic secrecy sum-rate.

Every SINR, of a served user or of the eavesdropper tapping a stream, is
num / (den + noise): received signal power over interference plus the
link's noise level, all relative to the transmit power.  The three
simulation modes differ only in how they draw num and den:

FULL     draws channels and ZF beams explicitly; num and den are the beam
         gains.  The physical ground truth.  Each user's quantized
         direction is the codeword it selects from a fresh random codebook,
         drawn from that codeword's exact RVQ law rather than by searching
         2**bits codewords, so the cost does not grow with bits.
QCA      draws them from the quantization-cell-approximation law: num
         Exp(1), den Gamma(n_t-1, distortion) for the users and
         Gamma(n_t-1, 1) for the eavesdropper.  Much faster, and exactly
         the model the closed forms integrate.  For the unclipped rate
         the eavesdropper reuses the users' draws (below).
PERFECT  as FULL with beams built from the true channel directions: zero
         inter-user interference (den = 0), a degenerate sanity check.

One function, ``_map_chunks``, partitions the trials into fixed-size chunks,
gives each its own generator, a substream keyed under the seed by the draw
key (below) and the chunk index (:func:`_chunk_stream`), and yields the
caller's function of each chunk's generator and trial count: each caller
makes its own draw.  Chunk results come back in index order, so the worker
count can never change a result bit, and two draw keys never read one
stream: their chunks' draws are independent.  Below n_t = 5 a chunk holds
more trials than its usual 8,192, as many (trial, user) pairs as an n_t = 5
chunk: numpy calls on fewer elements lose more to two threads handing over
the interpreter lock than the second thread gains (:func:`chunk_trials`).

A FULL or PERFECT draw forms the zero-forcing residual, the largest
|d_k^H w_i| over i != k of its kept trials, only where
:func:`max_zf_residual` asks :func:`_geometry_draw` for it: the rate and
sample reductions draw through :func:`_draw_parts`, which never asks, so
their draws skip its (n, K, K) product and hand on None, never a
perfect-looking 0.0.  The draws' row and column norms are sums of squares
over float64 views (:func:`_squared_norms`), not np.linalg.norm.

The draws never depend on the SNR or alpha, which enter only through the
noise levels, and a point's draw key names all they do depend on: (n_t,
bits) in FULL, n_t alone in QCA and PERFECT.  PERFECT beams ignore bits,
and QCA's feedback enters only as the distortion d scaling the users'
Gamma(n_t-1, d) interference, which is d times the unit-scale draw bit for
bit.  So one draw per chunk serves every point of a key:
``estimate_secrecy_rates`` evaluates all of them from it, and
``collect_sinr_samples`` takes every point's samples from it, each point's
result bit-identical to the one-point call.

The unclipped rate is E[users' sum] - E[eavesdropper's sum], which reads
each link's law alone, so in QCA its two links share one draw (common
random numbers): the eavesdropper takes the users' Exp(1) numerators and
unit-scale Gamma(n_t-1, 1) interference, the first two draws of the
4-part stream.  That halves the draw and, the links' errors cancelling
in the difference, cuts the standard error 1.08-86x on validate's
default grid (to 0 where the links coincide, at distortion 1 and alpha
1, where every trial's rate is exactly 0); tests/calibrate_validate.py
holds each point's z over many seeds to its bands.  The clipped rate
reads the links' joint law, and ``collect_sinr_samples`` hands each
link's samples to a test of its own, so both keep independent links;
FULL and PERFECT draw both links from one geometry, whose joint law is
the physics.

Within a chunk, ``estimate_secrecy_rates`` computes the users' factors
1 + SINR once per (distortion, SNR) and the eavesdropper's once per
distinct eavesdropper noise level, which does not depend on bits: points
that differ only in their distortion share it.  Every factor is at least
1, so a link's sum over the users of log2(1 + SINR) is the log2 of the
product of its factors: one log2 per trial, not one per (trial, user).

The reduction follows a plan, built once per draw key and set of kinds
(:func:`_block_plan`).  A term's key is (part, scale, noise): the drawn
pair it reads (the users', the eavesdropper's, or for the shared draw the
one pair both links read), its interference scale (the eavesdropper's
is 1) and its noise level.  One rule, :func:`_term_kind`, gives each key
its kind.  A term is float32, all K users in one product, where its
factors stay inside float32's normal range: K log2(1 + top / noise)
below 120, top the chunk's largest numerator, and the noise and the
parts within 2**+-100 (at n_t = 5 the users' terms up to about 60 dB).
Any other term is float64, in products of G users that cannot overflow,
G = K unless K log2(1 + top / noise) reaches 1000, the groups' logs
added.  Either moves a result by rounding only (tests/test_simulate.py
derives both bounds).  A chunk whose largest numerator moves a kind
follows a plan of its own.

The points, in order of the users' noise, are cut into blocks: runs of
points with the same users' noise, taken whole while the block's
distinct terms fit a byte budget, and a run larger than that split
point by point.  A block computes each distinct term once, in stacks of
one part and kind, one numpy call per stage: (S, K, n) factors in the
scratch and (S, n) log2 sums out, widened to float64, S up to
_STACK_LEVELS float32 levels or 2 float64 ones, the keys at scale 1
first, so that their stacks skip the interference multiply.  Then it
reduces its points and drops its terms: no term outlives its block.  A
chunk holds float32 copies of each pair of parts a float32 term reads,
and keeps the draw's float64 parts only where a float64 term needs them.
A point's per-trial rates are one float64 difference of (n,) rows, the
users' sum minus the eavesdropper's, and its sum and sum of squares are
float64.  ``clip`` keeps the (K, n) factors as terms instead, and takes
sum_k max(log2 a_k - log2 b_k, 0) as log2 prod_k max(a_k / b_k, 1) in
the users' groups: a ratio is at most its factor a_k.

Stacks exist for the two worker threads: a numpy call of 10-30 us costs
about as much in handing over the interpreter lock as in work.  On one
default rate-curve chunk replayed 12 times (2 shared cores, medians), one
float64 term per call took 132 ms on one thread and 123 ms on two; float32
stacks take 95 ms and 80 ms.
"""

import contextlib
import math
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analytic import Link
from .linalg import RngStream, complex_gaussian_batch
from .params import SystemParams

# A direction this close to the span of the others makes a degenerate draw
# (coincident quantized directions), which is resampled.
_BEAM_RANK_TOL = 1e-8

# Most worker threads; twice as many chunks of up to 48 MiB are in flight.
MAX_WORKERS = 256

# Fixed chunking so worker count cannot influence the sample sequence.
_CHUNK_TRIALS = 8192
# Fewest (trial, user) pairs in a chunk, those of an n_t = 5 chunk.
_CHUNK_PAIRS = 5 * _CHUNK_TRIALS
_CHUNK_TARGET_BYTES = 48 * 2 ** 20
# Bytes per trial of one block's terms in the rate reduction, in (K,)
# float64 rows: their (n,) sums, or under clip the (K, n) factors
# themselves; below n_t = 6, three float32 stacks' (n,) sums if more
# (:func:`_block_plan`).  No grid (hundreds of alphas at one SNR, say)
# grows a chunk's arrays beyond that.
_BLOCK_TERM_ROWS = 2
# A product of factors 1 + SINR stays below 2**_PRODUCT_BITS, inside
# float64's 2**1024 with room for the rounding of the factors and their
# bound (:func:`_term_kind`).
_PRODUCT_BITS = 1000
# Noise levels per float32 stack: one numpy call per stage takes
# (_STACK_LEVELS, K, n) factors to (_STACK_LEVELS, n) sums.
_STACK_LEVELS = 4
# A float32 term's product of K factors stays below 2**_F32_PRODUCT_BITS,
# inside float32's 2**128, and its noise level and parts within
# 2**-_F32_EXPONENT .. 2**_F32_EXPONENT, inside float32's normal range
# (:func:`_term_kind`).
_F32_PRODUCT_BITS = 120
_F32_EXPONENT = 100
# Bytes of one K x K complex array over a block of trials: each per-trial
# step of a geometry draw runs on blocks this size, not on the whole chunk.
_BLOCK_TARGET_BYTES = 2 ** 18


class SimMode(Enum):
    FULL = "full"
    QCA = "qca"
    PERFECT = "perfect"


# Each mode's first element of a chunk's stream key (:func:`_chunk_stream`).
_MODE_IDS = {SimMode.FULL: 0, SimMode.QCA: 1, SimMode.PERFECT: 2}


@dataclass(frozen=True)
class RateEstimate:
    """Monte Carlo mean of an ergodic rate with its standard error."""

    mean: float
    std_err: float
    n_trials: int
    rejected: int


def chunk_trials(params: SystemParams, mode: SimMode) -> int:
    """Trials per chunk (deterministic in params): _CHUNK_TRIALS, or more
    below n_t = 5, as many as hold _CHUNK_PAIRS (trial, user) pairs; then
    at most as many as keep one chunk's arrays within _CHUNK_TARGET_BYTES.

    The pair floor sizes the rate reduction's numpy calls, each over a
    chunk's (K, n) pairs or its n trials, for two worker threads: a bare
    np.add loop on two threads (2 shared cores) reaches about 0.5x, 0.6x,
    1.0x and 1.6x one thread's throughput at 2,048, 8,192, 16,384 and
    40,960 elements per call.  So chunks hold 20,480, 13,653 and 10,240
    trials at n_t = 2, 3 and 4.

    Per trial, the rate reduction holds at most the bytes of 11 (K,)
    float64 rows: the draw's 4 parts (freed once cast unless a float64
    term needs them), their float32 copies (2), a scratch of 2 (a stack's
    factors; under clip one, for the ratios), _BLOCK_TERM_ROWS of a
    block's terms, and one row for small objects and (n,) rows: the
    per-trial sums and the float32 products, 3 in all, within it from
    n_t = 3 on.  Below n_t = 6 a block may hold 12 (n,) rows, more than
    its 2 (K,) rows, in chunks far below the target.  The unclipped QCA
    rate's shared draw has 2 parts and 1 row of float32 copies, 3 rows
    under the rule, which stays as it is.  A FULL
    or PERFECT draw holds K x K complex arrays on top, budgeted at 4.5: h,
    the sampler's draw and one block's temporaries (tracemalloc, numpy
    2.4, rows included: 2.6-4.4 in FULL, 1.6-3.3 in PERFECT, the most at
    n_t = 2; no zero-forcing residual is formed).  Every mode gets
    _CHUNK_TRIALS from n_t = 5 to 7."""
    k = params.n_t
    per_trial = (8 * k * (9 + _BLOCK_TERM_ROWS)
                 + (0 if mode is SimMode.QCA else 72 * k * k))
    return max(1, min(max(_CHUNK_TRIALS, _CHUNK_PAIRS // k),
                      _CHUNK_TARGET_BYTES // per_trial))


def _trial_blocks(n: int, k: int) -> list:
    """Consecutive slices that cover range(n), each of as many trials as
    fill _BLOCK_TARGET_BYTES with one K x K complex array (at least one)."""
    step = max(1, _BLOCK_TARGET_BYTES // (16 * k * k))
    return [slice(start, start + step) for start in range(0, n, step)]


def _zf_inverse(directions: np.ndarray):
    """The zero-forcing beams of a batch of direction sets, as the sets'
    inverses.

    ``directions`` has shape (n, K, K), rows = unit directions.  Beam i is
    column a_i of the set's inverse A, conjugated and scaled to unit norm:
    orthogonal to every direction but the i-th, and 1 / |a_i| is the
    distance of direction i from the others' span.  No beam is formed: a
    row x's gain |x^H w_i|^2 is |(x A)_i|^2 / |a_i|^2.  Returns (A (n, K, K),
    gain (n, K) the squared distances 1 / |a_i|^2, ok (n,) mask, each
    distance above _BEAM_RANK_TOL).  Each set's inverse depends on that set
    alone, so :func:`_geometry_draw` calls this on one block of trials at
    a time, and the inverse and its gains are temporaries of that block.
    """
    try:
        inv = np.linalg.inv(directions)
    except np.linalg.LinAlgError:  # one exactly singular set fails the stack
        inv = np.full_like(directions, np.nan)  # NaN sets are not ok
        for t, matrix in enumerate(directions):
            with contextlib.suppress(np.linalg.LinAlgError):
                inv[t] = np.linalg.inv(matrix)
    gain = 1.0 / _squared_norms(inv, axis=1)  # (n, K), one per column
    return inv, gain, (gain > _BEAM_RANK_TOL ** 2).all(axis=1)


def _geometry_draw(params: SystemParams, gen: np.random.Generator, n: int,
                   perfect: bool = False, residual: bool = False):
    """n FULL- or PERFECT-mode draws, resampling degenerate beam sets.

    Returns the noise-free SINR parts (legit_num, legit_den, eav_num,
    eav_den), each C-ordered user-major (K, n), then the rejected count
    and, if ``residual``, the largest zero-forcing residual over kept
    draws (:func:`_zf_residual`), else None: only :func:`max_zf_residual`
    reads it, and the rate and sample paths skip its (n, K, K) product.
    The parts do not depend on ``residual``, bit for bit.  PERFECT beams
    leave no inter-user interference, so its legit_den is zero.  FULL
    users select from fresh codebooks, sampled by :func:`_rvq_directions`.

    Each round draws h and g, then the sampler's draws, for all its trials
    at once in the stream's order, and the sampler sees the round's whole
    stack of channels.  Every other step (directions, beams, gains,
    residual, rejection) runs in one pass over :func:`_trial_blocks`, and
    each block's kept trials are copied into the parts after the last ones.
    No trial's arithmetic depends on its block, so the bits are those of a
    whole-round computation, and beyond one block's temporaries a chunk
    holds only the parts, h, g and the sampler's draw.
    """
    k = params.n_t
    parts = np.empty((4, k, n))
    filled, rejected = 0, 0
    worst = 0.0 if residual else None
    while filled < n:
        m = n - filled
        h = complex_gaussian_batch(gen, (m, k, k))  # rows: user channels
        g = complex_gaussian_batch(gen, (m, k))     # eavesdropper fading
        if not perfect:
            selected = _rvq_directions(h, params.bits, gen)
        for b in _trial_blocks(m, k):
            dirs = _unit_rows(h[b]) if perfect else selected[b]
            pieces, n_bad, block_worst = _block_parts(h[b], g[b], dirs,
                                                      perfect, residual)
            kept = len(pieces[0])
            parts[:, :, filled:filled + kept] = np.swapaxes(pieces, 1, 2)
            del pieces  # not alive while the next block's are made
            filled += kept
            rejected += n_bad
            if residual:
                worst = max(worst, block_worst)
    return (*parts, rejected, worst)


def _squared_norms(x: np.ndarray, axis: int) -> np.ndarray:
    """Squared Euclidean norms of the rows (``axis`` 2) or columns (1) of
    the complex (n, K, K) ``x``: sums of squares over its float64 view,
    where np.linalg.norm on complex input takes about 8x as long.  A
    column's real and imaginary parts are summed apart, then added.  Only
    a unit-stride last axis has such a view: an ``x`` without one (a
    swapped-axes view, say) is copied first."""
    if x.strides[-1] != x.itemsize:
        x = np.ascontiguousarray(x)
    flat = x.view(float)
    if axis == 2:
        return np.einsum("tkn,tkn->tk", flat, flat)
    squares = np.einsum("tkn,tkn->tn", flat, flat)
    return squares[:, 0::2] + squares[:, 1::2]


def _squared_moduli(z: np.ndarray) -> np.ndarray:
    """|z|^2 of the complex ``z``, a temporary with a unit-stride last axis,
    from the squares of its float64 view, which it overwrites: no square
    root, as np.abs takes."""
    flat = z.view(float)
    np.square(flat, out=flat)
    return flat[..., 0::2] + flat[..., 1::2]


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """The (n, K, K) ``x`` with each row (last axis) scaled to unit norm."""
    return x / np.sqrt(_squared_norms(x, axis=2))[..., None]


def _block_parts(h, g, point_dirs, perfect: bool, residual: bool):
    """One block's pieces of :func:`_geometry_draw`: its kept trials'
    (signal, interference, eav_amps, eav_den), each (n, K), then the
    block's rejected count and, if ``residual``, its largest zero-forcing
    residual (:func:`_zf_residual`), else None.

    Every gain comes from the inverse (:func:`_zf_inverse`): power[t, k, i]
    = |h_k^H w_i|^2 = |(h A)[t, k, i]|^2 gain[t, i], one batched matmul,
    and the eavesdropper's |g^H w_i|^2 likewise from g A."""
    inv, gain, ok = _zf_inverse(point_dirs)
    n_bad = int(np.count_nonzero(~ok))
    if n_bad:
        h, g, inv, gain, point_dirs = (arr[ok] for arr in
                                       (h, g, inv, gain, point_dirs))

    power = _squared_moduli(h @ inv)
    power *= gain[:, None, :]
    signal = np.diagonal(power, axis1=1, axis2=2).copy()
    if perfect:
        interference = np.zeros_like(signal)
    else:
        interference = power.sum(axis=2) - signal
    del power  # not alive while the eavesdropper's gains are made

    eav_amps = _squared_moduli(g[:, None, :] @ inv)[:, 0]
    eav_amps *= gain
    eav_den = eav_amps.sum(axis=1, keepdims=True) - eav_amps
    worst = _zf_residual(point_dirs, inv, gain) if residual else None
    return (signal, interference, eav_amps, eav_den), n_bad, worst


def _zf_residual(dirs, inv, gain) -> float:
    """Largest |d_k^H w_i| over i != k and the trials of (n, K, K) ``dirs``,
    for the beams of their inverses ``inv`` and squared distances ``gain``
    (:func:`_zf_inverse`): how far the beams are from zero-forcing the
    directions they were built from (0 for exact ones).  |d_k^H w_i|^2 is
    |(d A)[k, i]|^2 gain[i], and d A is the identity up to rounding."""
    k = dirs.shape[1]
    zf = _squared_moduli(dirs @ inv) * gain[:, None, :]
    zf[:, np.arange(k), np.arange(k)] = 0.0
    return math.sqrt(zf.max(initial=0.0))


def _rvq_directions(h: np.ndarray, bits: int,
                    gen: np.random.Generator) -> np.ndarray:
    """The codeword each (trial, user) selects from a fresh codebook of
    2**bits isotropic codewords, drawn from its exact law, not by search.

    With ``h`` (n, K, K) the channels (rows) and h_dir their unit
    directions, the selection is sqrt(1-z) h_dir + sqrt(z) e up to a
    phase, with e isotropic in the complement of h_dir and
    P(z <= x) = 1 - (1 - x**(K-1))**(2**bits) (Jindal, IEEE Trans. IT 2006;
    Au-Yeung & Love, IEEE Trans. WC 2007).  No SINR part depends on a
    direction's phase, so none is drawn.  The inverse CDF goes through
    log1p/expm1, which keeps z accurate when 2**-bits is below epsilon.
    The draws of u and e cover the whole stack; the directions, the
    projection and the scaling, which are per trial, run on
    :func:`_trial_blocks` and write only into e, which is returned.
    ``h`` is not modified.
    """
    n, k, _ = h.shape
    u = gen.random((n, k))
    e = complex_gaussian_batch(gen, (n, k, k))
    z = -np.expm1(2.0 ** -bits * np.log1p(-u))
    del u  # not alive through the block loop
    z **= 1.0 / (k - 1)
    for b in _trial_blocks(n, k):
        h_b, e_b, z_b = _unit_rows(h[b]), e[b], z[b]
        e_b -= h_b * np.einsum("tkn,tkn->tk", np.conj(h_b), e_b)[..., None]
        flat = e_b.view(float)
        e_b *= np.sqrt(z_b / np.einsum("tkn,tkn->tk", flat, flat))[..., None]
        e_b += np.sqrt(1.0 - z_b)[..., None] * h_b
    return e


def _qca_draw(params: SystemParams, gen: np.random.Generator, n: int,
              shared: bool = False):
    """n QCA-mode draws of the noise-free SINR parts, as :func:`_geometry_draw`
    returns them: Exp(1) numerators over Gamma(n_t-1, distortion) (users)
    and Gamma(n_t-1, 1) (eavesdropper) interference.

    With ``shared`` only the users' two parts are drawn, the stream's first
    two draws and so bit for bit the users' parts of a 4-part draw, and the
    eavesdropper's parts are the same two arrays: common random numbers,
    each link with its own law wherever the distortion is 1, as at every
    draw key (:func:`_by_draw_key`).

    Each part is drawn straight into its C-ordered user-major (K, n)
    layout, row k user k's n trials: no (n, K) draw is copied."""
    k = params.n_t
    legit_num = gen.exponential(size=(k, n))
    legit_den = gen.gamma(shape=k - 1, scale=params.distortion, size=(k, n))
    if shared:
        return legit_num, legit_den, legit_num, legit_den, 0, None
    eav_num = gen.exponential(size=(k, n))
    eav_den = gen.gamma(shape=k - 1, scale=1.0, size=(k, n))
    return legit_num, legit_den, eav_num, eav_den, 0, None


def _draw_parts(params: SystemParams, mode: SimMode, gen, n: int,
                shared: bool = False):
    """n draws of both links' noise-free SINR parts in any mode.

    Returns (legit_num, legit_den, eav_num, eav_den), each C-ordered
    user-major (K, n): row k is user k's (or stream k's) n trials, so a
    sum over axis 0 adds the users one after another.  Then the rejected
    count and None, where :func:`_geometry_draw` hands on the zero-forcing
    residual it forms only for :func:`max_zf_residual`.  They depend on
    ``params`` only through (n_t, bits).  ``shared`` QCA draws hand the
    users' parts to both links (:func:`_qca_draw`).
    """
    if mode is SimMode.QCA:
        return _qca_draw(params, gen, n, shared)
    if mode is SimMode.FULL:
        return _geometry_draw(params, gen, n)
    if mode is SimMode.PERFECT:
        return _geometry_draw(params, gen, n, perfect=True)
    raise ValueError(f"unknown mode {mode!r}")


def _sinr(num, den, noise: float, out=None):
    """The one SINR formula: signal over interference plus the link's
    noise level, all relative to the transmit power (into ``out`` if given)."""
    out = np.add(den, noise, out)
    return np.divide(num, out, out)


def _factors(num, den, noise, out):
    """1 + SINR, the factor whose log2 is the link's rate per trial and
    user, into ``out``.  ``noise`` is one level, or an (S, 1, 1) column of
    levels for an (S, K, n) stack ``out``."""
    _sinr(num, den, noise, out)
    out += 1.0
    return out


def _term_kind(k: int, top: float, bound: float, noise: float) -> tuple:
    """(dtype, users per product) of a link's term at ``noise``, for a
    chunk whose numerators are at most ``top`` and whose parts at most
    ``bound``: its kind.

    Each factor 1 + num / (den + noise) is at most 1 + top / noise.  The
    term is float32, all K users in one product, where the noise and the
    parts lie within 2**+-_F32_EXPONENT and K such factors multiply to
    below 2**_F32_PRODUCT_BITS: every cast to float32 is then finite,
    every sum den + noise normal and the product finite.  Any other term
    is float64, in products of G users that stay below 2**_PRODUCT_BITS:
    G = K where all K users' do, otherwise as many as do, and at least 1,
    where a product is one factor.  A zero or subnormal noise bounds
    nothing and gets G = 1."""
    if not noise >= sys.float_info.min:
        return np.float64, 1
    factor_bits = math.log2(top + noise) - math.log2(noise)
    limit = 2.0 ** _F32_EXPONENT
    if (k * factor_bits < _F32_PRODUCT_BITS and 1.0 / limit <= noise <= limit
            and bound <= limit):
        return np.float32, k
    if k * factor_bits < _PRODUCT_BITS:
        return np.float64, k
    return np.float64, max(1, int(_PRODUCT_BITS // factor_bits))


def _part_bounds(num, den) -> tuple:
    """(top, bound) of one pair of parts for :func:`_term_kind`: its
    largest numerator and its largest part."""
    top = float(num.max())
    return top, max(top, float(den.max()))


def _log2_products(factors, g: int, out, product=None):
    """sum_k log2(factors[..., k, :]) of the (..., K, n) ``factors``,
    every factor >= 1, into ``out`` (..., n): the log2 of the product of
    each g consecutive users' rows, the logs added group after group.

    ``prod`` over the users multiplies C-ordered rows one after another.
    The first group's product is formed in ``product``, which has the
    factors' dtype (``out`` itself if None), and its log2 written to
    ``out``.  Every later group's product is formed in the row before the
    group, the previous group's last, which its own product no longer
    needs: no array is allocated, and for g < K ``factors`` is
    overwritten."""
    first = out if product is None else product
    np.prod(factors[..., :g, :], axis=-2, out=first)
    np.log2(first, out=out)
    for start in range(g, factors.shape[-2], g):
        row = factors[..., start - 1, :]
        np.prod(factors[..., start:start + g, :], axis=-2, out=row)
        out += np.log2(row, out=row)
    return out


def _block_plan(members: list, eav_part: int, kinds: dict, k: int,
                clip: bool) -> tuple:
    """The reduction of a chunk of K users at the points of ``members``
    (:func:`_estimates_of_one_draw`), whose terms have ``kinds``: (casts,
    blocks), built once per draw key and kinds.

    A term's key is (part, scale, noise), its factors 1 + num / (den *
    scale + noise) from pair ``part`` of the draw's parts: each point has
    the users' (0, its distortion or 1, its noise) and the eavesdropper's
    (``eav_part``, 1, its noise).  ``kinds`` maps a key's (part, noise) to
    its :func:`_term_kind`.  A term is an (n,) float64 sum, or under
    ``clip`` its (K, n) factors.

    Points are visited by (scale, users' noise), in order of the users'
    noise, and cut into blocks: runs of points with the same users' noise,
    taken whole while the block's distinct terms fit the budget, the
    larger of _BLOCK_TERM_ROWS (K, n) float64 arrays and three float32
    stacks' (n,) sums, and a run larger than that split point by point.
    Each block is (stacks, reductions): its distinct terms in stacks of
    one part and kind, up to _STACK_LEVELS float32 levels or 2 float64
    ones, scale-1 keys first, each stack (part, dtype, users per product,
    scales, noises) with (S, 1, 1) columns of the dtype, the scales None
    where all are 1; then per point (row in ``members``, the indices of
    its two terms in the block's stacks, the users' term's users per
    product).  ``casts`` holds the (part, dtype) copies of the parts that
    the stacks read."""
    budget = 8 * max(_BLOCK_TERM_ROWS * k, 3 * _STACK_LEVELS)

    def fits(keys):
        # Bytes per trial of the terms at ``keys`` within the budget.
        return budget >= sum(
            k * np.dtype(kinds[part, noise][0]).itemsize if clip else 8
            for part, _, noise in keys)

    runs = {}
    for i, (_, p, scale) in enumerate(members):
        runs.setdefault(p.noise_over_power, {}).setdefault(scale, []).append(
            (i, (0, scale, p.noise_over_power),
             (eav_part, 1.0, p.eav_noise_over_power)))
    blocks = []
    for noise in sorted(runs):
        run = [visit for group in runs[noise].values() for visit in group]
        for unit in [run] if fits(_term_keys(run)) else [[v] for v in run]:
            keys = _term_keys(unit)
            if blocks and fits({**blocks[-1][1], **keys}):
                blocks[-1][0].extend(unit)
                blocks[-1][1].update(keys)
            else:
                blocks.append((unit, keys))
    plan = [_block_stacks(*block, kinds) for block in blocks]
    return {stack[:2] for stacks, _ in plan for stack in stacks}, plan


def _term_keys(visits: list) -> dict:
    """The distinct term keys of ``visits``, in order of first use."""
    return dict.fromkeys(key for _, *pair in visits for key in pair)


def _block_stacks(visits: list, keys: dict, kinds: dict) -> tuple:
    """One block of :func:`_block_plan`: (stacks, reductions) of
    ``visits``, whose distinct term keys are ``keys``."""
    groups = {}
    for key in sorted(keys, key=lambda key: key[1] != 1.0):
        groups.setdefault((key[0], kinds[key[0], key[2]]), []).append(key)
    stacks, index = [], {}
    for (part, (dtype, group)), same in groups.items():
        size = _STACK_LEVELS if dtype is np.float32 else min(_STACK_LEVELS, 2)
        for start in range(0, len(same), size):
            stack = same[start:start + size]
            index.update((key, len(index)) for key in stack)
            _, scales, noises = (np.array(column, dtype)[:, None, None]
                                 for column in zip(*stack))
            stacks.append((part, dtype, group,
                           None if (scales == 1.0).all() else scales, noises))
    reductions = [(row, index[legit], index[eav], kinds[legit[0], legit[2]][1])
                  for row, legit, eav in visits]
    return stacks, reductions


def _reduce_block(parts: dict, stacks: list, reductions: list, scratch,
                  out: np.ndarray, clip: bool) -> None:
    """One block of a chunk's reduction (:func:`_block_plan`): computes its
    terms from ``parts`` ((part, dtype) -> (num, den)), stack by stack, one
    numpy call per stage, then writes each visit's (sum, sum of squares)
    of the per-trial rate to its row of ``out``.  Its terms are freed on
    return.

    ``scratch`` is (work, product, per_trial): the bytes of a stack's
    factors, or under ``clip`` of the ratios, a float32 (_STACK_LEVELS, n)
    array for float32 products and an (n,) float64 row for the rates."""
    work, product, per_trial = scratch
    terms = []
    for part, dtype, group, scales, noises in stacks:
        num, den = parts[part, dtype]
        (k, n), s = num.shape, len(noises)
        factors = (np.empty((s, k, n), dtype) if clip else
                   work[:s * num.nbytes].view(dtype).reshape(s, k, n))
        if scales is not None:
            den = np.multiply(den, scales, out=factors)
        _factors(num, den, noises, factors)
        if not clip:
            factors = _log2_products(
                factors, group, np.empty((s, n)),
                product[:s] if dtype is np.float32 else None)
        terms.extend(factors)
    for row, legit, eav, group in reductions:
        a, b = terms[legit], terms[eav]
        if clip:
            # sum_k max(log2 a_k - log2 b_k, 0) = log2 prod_k max(a_k / b_k, 1)
            dtype = np.result_type(a, b)
            ratios = work[:dtype.itemsize * a.size].view(dtype).reshape(a.shape)
            np.maximum(np.divide(a, b, out=ratios), 1.0, out=ratios)
            _log2_products(ratios, group, per_trial,
                           product[0] if dtype == np.float32 else None)
        else:
            np.subtract(a, b, out=per_trial)
        # The sum of squares is numpy's pairwise sum of the squared row, not
        # BLAS's dot, whose partial sums follow OpenBLAS's thread count and
        # kernel.  The row is scratch, so it is squared in place.
        total = per_trial.sum()
        out[row] = total, np.square(per_trial, out=per_trial).sum()


def _check_counts(n: int, workers: int) -> None:
    """Raises ValueError unless n >= 1 and workers lies in [1, MAX_WORKERS]."""
    if n < 1:
        raise ValueError(f"trial count must be >= 1, got {n}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must lie in [1, {MAX_WORKERS}], got {workers}")


def _map_chunks(params: SystemParams, mode: SimMode, n: int, seed: int,
                workers: int, fn):
    """Yields ``fn(gen, m)`` of each chunk of n trials, in chunk order:
    ``gen`` the chunk's own generator and ``m`` its trial count.  Chunk i
    holds :func:`chunk_trials` trials (the last chunk the rest) and draws
    from its own substream, :func:`_chunk_stream`, keyed by the draw key
    and i, so neither the worker count nor thread scheduling can change a
    result bit, and no two draw keys share a stream.  At most
    ``2 * workers`` chunks are in flight, so memory does not grow with n.
    """
    _check_counts(n, workers)
    chunk = chunk_trials(params, mode)
    n_chunks = (n + chunk - 1) // chunk

    def run_chunk(index: int):
        return fn(_chunk_stream(seed, params, mode, index).generator(),
                  min(chunk, n - index * chunk))

    if workers == 1 or n_chunks == 1:
        yield from map(run_chunk, range(n_chunks))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for index in range(n_chunks):
            pending.append(pool.submit(run_chunk, index))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _chunk_stream(seed: int, params: SystemParams, mode: SimMode,
                  index: int) -> RngStream:
    """The substream of chunk ``index`` of the draws that serve ``params``:
    keyed under ``seed`` by (mode, n_t, bits in FULL else 0, index), its
    draw key (:func:`draw_key`) and the chunk, so that the chunks of two
    keys, whose trial counts and layouts differ, never read one stream."""
    return RngStream(seed, (_MODE_IDS[mode], *draw_key(params, mode), index))


def _rate_estimate(total: float, total_sq: float, n_trials: int,
                   rejected: int) -> RateEstimate:
    """Mean and standard error from the sum and sum of squares of the
    per-trial rates."""
    mean = total / n_trials
    if n_trials > 1:
        var = max(total_sq - n_trials * mean * mean, 0.0) / (n_trials - 1)
        std_err = math.sqrt(var / n_trials)
    else:
        std_err = 0.0
    return RateEstimate(mean=mean, std_err=std_err, n_trials=n_trials,
                        rejected=rejected)


def draw_key(params: SystemParams, mode: SimMode) -> tuple:
    """(n_t, bits) of the draw that serves ``params``: QCA and PERFECT
    draws do not depend on bits and are keyed at bits = 0."""
    return params.n_t, params.bits if mode is SimMode.FULL else 0


def _by_draw_key(points, mode: SimMode) -> list:
    """``points`` grouped by the draw that serves them, in order of first
    appearance: [(draw, [(row, point, scale), ...]), ...].

    ``draw`` is the SystemParams of the group's :func:`draw_key`.  In QCA
    it has bits = 0, so distortion 1: its users'
    interference is the unit-scale draw that ``scale``, the point's
    distortion (1 outside QCA), turns into the point's own, bit for bit.
    ``row`` is the point's index in ``points``.
    """
    if not points:
        raise ValueError("points must be a non-empty list of SystemParams")
    keys = {}
    for row, p in enumerate(points):
        keys.setdefault(draw_key(p, mode), []).append(
            (row, p, p.distortion if mode is SimMode.QCA else 1.0))
    return [(SystemParams(n_t=n_t, bits=bits, alpha=1.0, snr_db=0.0), members)
            for (n_t, bits), members in keys.items()]


def estimate_secrecy_rates(points, mode: SimMode, n_trials: int, seed: int,
                           workers: int = 1, clip: bool = False) -> list:
    """Monte Carlo ergodic secrecy sum-rates at ``points`` (any non-empty
    list of SystemParams), each over the same ``n_trials`` channel draws.

    Points are grouped by draw key (:func:`_by_draw_key`); each chunk of a
    key is drawn once and every point of the key evaluated from it, so each
    point's RateEstimate is bit-identical to the one-point call, whatever
    the point order or the worker count.  Each trial contributes
    sum_k [log2(1+sinr_k) - log2(1+eav_sinr_k)]; negative per-user terms
    are kept unless ``clip`` applies a per-user positive part.
    """
    points = list(points)
    estimates = [None] * len(points)
    for draw, members in _by_draw_key(points, mode):
        for (row, _, _), est in zip(members, _estimates_of_one_draw(
                draw, members, mode, n_trials, seed, workers, clip)):
            estimates[row] = est
    return estimates


def _float64_error(what: str, p: SystemParams) -> OverflowError:
    """The error for Monte Carlo values ``what`` at ``p`` that leave
    float64."""
    return OverflowError(
        f"{what} at n_t={p.n_t}, bits={p.bits}, alpha={p.alpha!r}, "
        f"snr_db={p.snr_db!r} leave float64: the sinr overflows where a "
        f"link's noise level is subnormal or 0 and it meets no interference")


def _estimates_of_one_draw(draw: SystemParams, members: list, mode: SimMode,
                           n_trials: int, seed: int, workers: int,
                           clip: bool) -> list:
    """:func:`estimate_secrecy_rates` at the points of ``members``, one
    draw key's (row, point, scale) triples, all served by the draws of
    ``draw``.

    The unclipped QCA rate, E[users' sum] - E[eavesdropper's], reads each
    link's law alone, so its draws are shared: the eavesdropper's keys
    read the users' Exp(1) numerators and unit-scale interference (common
    random numbers: half the draw, and a key both links visit, as at
    distortion 1 and alpha 1, is computed once).  The clipped rate reads
    the links' joint law, independent in QCA, and FULL and PERFECT draw
    both links from one geometry: these read the 4-part draw's two pairs.
    Each chunk follows the :func:`_block_plan` of its kinds."""
    shared = mode is SimMode.QCA and not clip
    eav_part = 0 if shared else 1
    levels = list(dict.fromkeys(
        level for _, p, _ in members
        for level in ((0, p.noise_over_power),
                      (eav_part, p.eav_noise_over_power))))
    plans = {}

    def moments(gen, n):
        # (sum, sum of squares) of the per-trial rate, one row per point.
        # The scratch is per call: chunks run concurrently on threads.
        *parts, rejected, _ = _draw_parts(draw, mode, gen, n, shared)
        k = draw.n_t
        pairs = [parts[2 * part:2 * part + 2] for part in range(eav_part + 1)]
        del parts
        bounds = [_part_bounds(*pair) for pair in pairs]
        kinds = {level: _term_kind(k, *bounds[level[0]], level[1])
                 for level in levels}
        # Two threads may both build a missing plan; the two are equal.
        plan_key = tuple(kinds.values())
        if plan_key not in plans:
            plans[plan_key] = _block_plan(members, eav_part, kinds, k, clip)
        casts, blocks = plans[plan_key]
        arrays = {(part, dtype): tuple(x.astype(dtype, copy=False)
                                       for x in pairs[part])
                  for part, dtype in casts}
        del pairs  # the draw's float64 parts, unless a float64 term reads them
        # Two (K, n) float64 arrays' bytes for a stack's factors; under
        # clip one, for the ratios.
        scratch = (np.empty((8 if clip else 16) * k * n, np.uint8),
                   np.empty((_STACK_LEVELS, n), np.float32), np.empty(n))
        out = np.empty((len(members), 2))
        # A factor past float64 makes its point's sums non-finite, and that
        # raises below: no warning on the way.
        with np.errstate(all="ignore"):
            for stacks, reductions in blocks:
                _reduce_block(arrays, stacks, reductions, scratch, out, clip)
        return out, rejected

    sums = np.zeros((len(members), 2))
    rejected = 0
    for chunk_sums, chunk_rejected in _map_chunks(
            draw, mode, n_trials, seed, workers, moments):
        sums += chunk_sums
        rejected += chunk_rejected
    finite = np.isfinite(sums).all(axis=1)
    if not finite.all():
        raise _float64_error("the per-trial rates",
                             members[int(finite.argmin())][1])
    return [_rate_estimate(total, total_sq, n_trials, rejected)
            for total, total_sq in sums.tolist()]


def collect_sinr_samples(points, mode: SimMode, n: int, seed: int,
                         workers: int = 1):
    """n i.i.d. samples of the first user's and of the eavesdropper's
    first-stream SINR at each of ``points`` (a non-empty list of
    SystemParams).

    Returns an iterator of (row, link, samples), ``row`` the point's index
    in ``points`` and ``link`` a :class:`Link`: a point's legitimate
    samples, then its eavesdropper's, key by key (:func:`_by_draw_key`)
    and in order within a key.  The arguments are checked at the call.
    Each chunk of a key is drawn once, chunked as in
    :func:`estimate_secrecy_rates`, and the first user's four parts are
    kept: 32 bytes per trial.  Each sample array is made only as it is
    handed out, so memory does not grow with the points per key, and a
    caller that drops each array before taking the next holds one link's
    samples at a time.  Each point's samples are bit-identical to a
    one-point collection, whatever the worker count.  Samples that leave
    float64 raise OverflowError as their array is made, as the rates do.
    """
    keys = _by_draw_key(list(points), mode)
    _check_counts(n, workers)
    return _keyed_samples(keys, mode, n, seed, workers)


def _keyed_samples(keys: list, mode: SimMode, n: int, seed: int,
                   workers: int):
    """The iterator :func:`collect_sinr_samples` returns, over the
    :func:`_by_draw_key` groups ``keys``."""
    for draw, members in keys:
        first, start = np.empty((4, n)), 0
        for block in _map_chunks(draw, mode, n, seed, workers, lambda gen, m:
                                 np.array([part[0] for part in _draw_parts(
                                     draw, mode, gen, m)[:4]])):
            first[:, start:start + block.shape[1]] = block
            start += block.shape[1]
        legit_num, legit_den, eav_num, eav_den = first
        for row, p, scale in members:
            yield row, Link.LEGITIMATE, _finite_sinr(
                p, legit_num, legit_den * scale, p.noise_over_power)
            yield row, Link.EAVESDROPPER, _finite_sinr(
                p, eav_num, eav_den, p.eav_noise_over_power)


def _finite_sinr(p: SystemParams, num, den, noise: float):
    """:func:`_sinr` samples of the point ``p``, or OverflowError where one
    is not finite; the check allocates nothing."""
    with np.errstate(all="ignore"):
        samples = _sinr(num, den, noise)
    if not math.isfinite(samples.max()):
        raise _float64_error("the SINR samples", p)
    return samples


def max_zf_residual(params: SystemParams, n: int, seed: int,
                    workers: int = 1) -> tuple:
    """(max zero-forcing residual, rejected count) over n FULL-mode draws."""
    worst, rejected = 0.0, 0
    for chunk_rejected, resid in _map_chunks(
            params, SimMode.FULL, n, seed, workers, lambda gen, m:
            _geometry_draw(params, gen, m, residual=True)[4:]):
        worst = max(worst, resid)
        rejected += chunk_rejected
    return worst, rejected


def ks_statistic(samples, cdf) -> float:
    """Kolmogorov-Smirnov sup distance between the empirical CDF and ``cdf``.

    ``cdf`` is called once, on the sorted sample array, and must be
    monotone on the sample range.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.shape[0]
    if n == 0:
        raise ValueError("samples must be non-empty")
    f = np.asarray(cdf(x), dtype=float)
    # Steps in place: at most four n-arrays are live, x and f included.
    steps = np.arange(1, n + 1, dtype=float)
    steps /= n
    d_plus = (steps - f).max()
    steps -= 1.0 / n
    return float(max(d_plus, np.subtract(f, steps, out=steps).max()))
