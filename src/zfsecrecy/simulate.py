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
         the model the closed forms integrate.
PERFECT  as FULL with beams built from the true channel directions: zero
         inter-user interference (den = 0), a degenerate sanity check.

One function, ``_map_chunks``, partitions the trials into fixed-size chunks,
each drawn from its own counter-based substream keyed by (seed, chunk
index), and hands every chunk's noise-free parts to a reduction.  Chunk
results come back in index order, so the worker count can never change a
result bit.

The draws never depend on the SNR or alpha, which enter only through the
noise levels, and a point's draw key names all they do depend on: (n_t,
bits) in FULL, n_t alone in QCA and PERFECT.  PERFECT beams ignore bits,
and QCA's feedback enters only as the distortion d scaling the users'
Gamma(n_t-1, d) interference, which is d times the unit-scale draw bit for
bit.  So one draw per chunk serves every point of a key:
``estimate_secrecy_rates`` evaluates all of them from it, and
``collect_sinr_samples`` takes every point's samples from it, each point's
result bit-identical to the one-point call.
"""

import contextlib
import math
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
_CHUNK_TARGET_BYTES = 48 * 2 ** 20
# K x K complex arrays one FULL or PERFECT chunk holds at its peak, per
# trial: tracemalloc measured 6.5 of them plus four (n, K) reals in FULL
# (h, g, sampler scratch, inverse, beams, gains), 5 in PERFECT.
_PEAK_ARRAYS = 7


class SimMode(Enum):
    FULL = "full"
    QCA = "qca"
    PERFECT = "perfect"


@dataclass(frozen=True)
class RateEstimate:
    """Monte Carlo mean of an ergodic rate with its standard error."""

    mean: float
    std_err: float
    n_trials: int
    rejected: int


def chunk_trials(params: SystemParams, mode: SimMode) -> int:
    """Chunk size used for a given configuration (deterministic in params).

    FULL and PERFECT chunks are sized so that the arrays one chunk holds at
    its peak stay within _CHUNK_TARGET_BYTES: _PEAK_ARRAYS K x K complex
    arrays per trial."""
    if mode is SimMode.QCA:
        return _CHUNK_TRIALS
    per_trial = 16 * params.n_t ** 2 * _PEAK_ARRAYS
    return max(1, min(_CHUNK_TRIALS, _CHUNK_TARGET_BYTES // per_trial))


def _zf_beams_batch(directions: np.ndarray):
    """Vectorized zero-forcing beams for a batch of direction sets.

    ``directions`` has shape (n, K, K), rows = unit directions.  Beam i is
    column i of the set's inverse, conjugated and normalized: orthogonal to
    every direction but the i-th, its norm is 1 / (distance of direction i
    from the others' span).  Returns (beams (n, K, K), ok (n,) mask).
    """
    try:
        inv = np.linalg.inv(directions)
    except np.linalg.LinAlgError:  # one exactly singular set fails the stack
        inv = np.full_like(directions, np.nan)  # NaN sets are not ok
        for t, matrix in enumerate(directions):
            with contextlib.suppress(np.linalg.LinAlgError):
                inv[t] = np.linalg.inv(matrix)
    distance = 1.0 / np.linalg.norm(inv, axis=1)  # (n, K), one per column
    beams = np.conj(np.swapaxes(inv, 1, 2)) * distance[:, :, None]
    return beams, (distance > _BEAM_RANK_TOL).all(axis=1)


def _geometry_draw(params: SystemParams, gen: np.random.Generator, n: int,
                   perfect: bool = False):
    """n FULL- or PERFECT-mode draws, resampling degenerate beam sets.

    Returns the noise-free SINR parts (legit_num, legit_den, eav_num,
    eav_den), each user-major (K, n), then the rejected count and the
    largest zero-forcing residual over kept draws.  A part is a transposed
    view of the (n, K) concatenation of its pieces, so its rows are
    strided.  PERFECT beams leave no inter-user interference, so its
    legit_den is zero.  FULL users select from fresh codebooks, sampled by
    :func:`_rvq_directions`.
    """
    k = params.n_t
    parts = []
    rejected = 0
    zf_residual = 0.0
    remaining = n
    while remaining > 0:
        h = complex_gaussian_batch(gen, (remaining, k, k))      # rows: user channels
        g = complex_gaussian_batch(gen, (remaining, k))         # eavesdropper fading
        point_dirs = h / np.linalg.norm(h, axis=2, keepdims=True)
        if not perfect:
            point_dirs = _rvq_directions(point_dirs, params.bits, gen)

        beams, ok = _zf_beams_batch(point_dirs)
        n_bad = int(np.count_nonzero(~ok))
        if n_bad:
            rejected += n_bad
            h, g, beams, point_dirs = (arr[ok] for arr in (h, g, beams, point_dirs))

        # cross[t, k, i] = h_k^H w_i;  eav[t, i] = g^H w_i
        cross = np.einsum("tkn,tin->tki", np.conj(h), beams)
        power = np.abs(cross) ** 2
        signal = np.einsum("tkk->tk", power).copy()
        if perfect:
            interference = np.zeros_like(signal)
        else:
            interference = power.sum(axis=2) - signal
            zf = np.abs(np.einsum("tkn,tin->tki", np.conj(point_dirs), beams))
            zf[:, np.arange(k), np.arange(k)] = 0.0
            zf_residual = max(zf_residual, float(zf.max(initial=0.0)))

        eav_amps = np.abs(np.einsum("tn,tin->ti", np.conj(g), beams)) ** 2
        eav_den = eav_amps.sum(axis=1, keepdims=True) - eav_amps
        parts.append((signal, interference, eav_amps, eav_den))
        remaining -= signal.shape[0]

    return (*(np.concatenate(p).T for p in zip(*parts)), rejected,
            zf_residual)


def _rvq_directions(h_dir: np.ndarray, bits: int,
                    gen: np.random.Generator) -> np.ndarray:
    """The codeword each (trial, user) selects from a fresh codebook of
    2**bits isotropic codewords, drawn from its exact law, not by search.

    With ``h_dir`` (n, K, K) the unit channel directions (rows), the
    selection is sqrt(1-z) h_dir + sqrt(z) e up to a phase, with e
    isotropic in the complement of h_dir and
    P(z <= x) = 1 - (1 - x**(K-1))**(2**bits) (Jindal, IEEE Trans. IT 2006;
    Au-Yeung & Love, IEEE Trans. WC 2007).  No SINR part depends on a
    direction's phase, so none is drawn.  The inverse CDF goes through
    log1p/expm1, which keeps z accurate when 2**-bits is below epsilon.
    """
    n, k, _ = h_dir.shape
    u = gen.random((n, k))
    e = complex_gaussian_batch(gen, (n, k, k))
    e -= h_dir * np.einsum("tkn,tkn->tk", np.conj(h_dir), e)[..., None]
    z = -np.expm1(2.0 ** -bits * np.log1p(-u))
    z **= 1.0 / (k - 1)
    flat = e.view(float)
    e *= np.sqrt(z / np.einsum("tkn,tkn->tk", flat, flat))[..., None]
    e += np.sqrt(1.0 - z)[..., None] * h_dir
    return e


def _qca_draw(params: SystemParams, gen: np.random.Generator, n: int):
    """n QCA-mode draws of the noise-free SINR parts, as :func:`_geometry_draw`
    returns them: Exp(1) numerators over Gamma(n_t-1, distortion) (users)
    and Gamma(n_t-1, 1) (eavesdropper) interference.

    Each part is drawn (n, K), the stream's order, and copied to contiguous
    (K, n) rows as it is drawn, so the (n, K) original is freed at once."""
    def part(draw):
        return np.ascontiguousarray(draw.T)

    k = params.n_t
    legit_num = part(gen.exponential(size=(n, k)))
    legit_den = part(gen.gamma(shape=k - 1, scale=params.distortion,
                               size=(n, k)))
    eav_num = part(gen.exponential(size=(n, k)))
    eav_den = part(gen.gamma(shape=k - 1, scale=1.0, size=(n, k)))
    return legit_num, legit_den, eav_num, eav_den, 0, 0.0


def _draw_parts(params: SystemParams, mode: SimMode, gen, n: int):
    """n draws of both links' noise-free SINR parts in any mode.

    Returns (legit_num, legit_den, eav_num, eav_den), each user-major
    (K, n): row k is user k's (or stream k's) n trials.  Then the rejected
    count and the largest zero-forcing residual.  They depend on ``params``
    only through (n_t, bits).
    """
    if mode is SimMode.QCA:
        return _qca_draw(params, gen, n)
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


def _check_counts(n: int, workers: int) -> None:
    """Raises ValueError unless n >= 1 and workers lies in [1, MAX_WORKERS]."""
    if n < 1:
        raise ValueError(f"trial count must be >= 1, got {n}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must lie in [1, {MAX_WORKERS}], got {workers}")


def _map_chunks(params: SystemParams, mode: SimMode, n: int, seed: int,
                workers: int, fn):
    """Yields ``fn(legit_num, legit_den, eav_num, eav_den, rejected,
    zf_residual)`` of each chunk of n draws, in chunk order, the parts laid
    out as :func:`_draw_parts` returns them.

    Chunk i holds :func:`chunk_trials` draws (the last chunk the rest),
    all from substream ``RngStream(seed, i)``, so neither the worker count
    nor thread scheduling can change a result bit.  At most
    ``2 * workers`` chunks are in flight, so memory does not grow with n.
    """
    _check_counts(n, workers)
    chunk = chunk_trials(params, mode)
    n_chunks = (n + chunk - 1) // chunk

    def run_chunk(index: int):
        gen = RngStream(seed, index).generator()
        m = min(chunk, n - index * chunk)
        return fn(*_draw_parts(params, mode, gen, m))

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


def _by_draw_key(points, mode: SimMode) -> list:
    """``points`` grouped by the draw that serves them, in order of first
    appearance: [(draw, [(row, point, scale), ...]), ...].

    ``draw`` is the SystemParams of the group's draw key: (n_t, bits) in
    FULL, n_t in QCA and PERFECT, whose draws do not depend on bits and are
    keyed at bits = 0.  There the QCA draw has distortion 1: its users'
    interference is the unit-scale draw that ``scale``, the point's
    distortion (1 outside QCA), turns into the point's own, bit for bit.
    ``row`` is the point's index in ``points``.
    """
    if not points:
        raise ValueError("points must be a non-empty list of SystemParams")
    keys = {}
    for row, p in enumerate(points):
        keys.setdefault((p.n_t, p.bits if mode is SimMode.FULL else 0),
                        []).append(
            (row, p, p.distortion if mode is SimMode.QCA else 1.0))
    return [(SystemParams(n_t=n_t, bits=bits, alpha=1.0, snr_db=0.0), members)
            for (n_t, bits), members in keys.items()]


def _row_sums(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sums over the K rows of ``rows`` (K, n) into ``out`` (n,), bit
    for bit as ``rows.T.sum(axis=1)`` on a C-ordered (n, K) copy.

    numpy adds each trial's K terms to 0 in pairwise order: fewer than 8 in
    sequence; up to 128 in eight accumulators, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the leftover terms in
    sequence; more than 128 by halves, the first rounded down to a multiple
    of 8.  Here each step adds whole rows, so the cost is per term, not per
    trial.
    """
    k = rows.shape[0]
    if k < 8:
        np.add(rows[0], 0.0, out=out)
        for row in rows[1:]:
            out += row
        return out
    if k > 128:
        half = k // 2 - k // 2 % 8
        _row_sums(rows[:half], out)
        out += _row_sums(rows[half:], np.empty_like(out))
        return out
    acc = rows[:8].copy()
    tail = k - k % 8
    for i in range(8, tail, 8):
        acc += rows[i:i + 8]
    pairs = acc[0::2] + acc[1::2]
    np.add(pairs[0] + pairs[1], pairs[2] + pairs[3], out=out)
    for row in rows[tail:]:
        out += row
    out += 0.0  # the sum's start: turns an all -0.0 sum into 0.0
    return out


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


def _estimates_of_one_draw(draw: SystemParams, members: list, mode: SimMode,
                           n_trials: int, seed: int, workers: int,
                           clip: bool) -> list:
    """:func:`estimate_secrecy_rates` at the points of ``members``, one
    draw key's (row, point, scale) triples, all served by the draws of
    ``draw``."""
    # Only the users' interference scale and noise, and the eavesdropper
    # noise, tell points apart: group them by (scale, SNR).
    groups = {}
    for i, (_, p, scale) in enumerate(members):
        groups.setdefault((scale, p.noise_over_power), []).append(
            (i, p.eav_noise_over_power))

    def moments(legit_num, legit_den, eav_num, eav_den, rejected, _):
        # (sum, sum of squares) of the per-trial rate, one row per point.
        # The scratch is per call: chunks run concurrently on threads.
        out = np.empty((len(members), 2))
        legit, per_user = np.empty_like(legit_num), np.empty_like(eav_num)
        per_trial = np.empty(legit_num.shape[1])
        for (scale, legit_noise), rows in groups.items():
            den = (legit_den if scale == 1.0
                   else np.multiply(legit_den, scale, out=legit))
            _sinr(legit_num, den, legit_noise, legit)
            legit += 1.0
            np.log2(legit, out=legit)
            for i, eav_noise in rows:
                _sinr(eav_num, eav_den, eav_noise, per_user)
                per_user += 1.0
                np.log2(per_user, out=per_user)
                np.subtract(legit, per_user, out=per_user)
                if clip:
                    np.maximum(per_user, 0.0, out=per_user)
                # Users are rows; the sum keeps numpy's order, and bits.
                _row_sums(per_user, per_trial)
                out[i] = per_trial.sum(), per_trial @ per_trial
        return out, rejected

    sums = np.zeros((len(members), 2))
    rejected = 0
    for chunk_sums, chunk_rejected in _map_chunks(
            draw, mode, n_trials, seed, workers, moments):
        sums += chunk_sums
        rejected += chunk_rejected
    return [_rate_estimate(total, total_sq, n_trials, rejected)
            for total, total_sq in sums.tolist()]


def estimate_secrecy_rate(params: SystemParams, mode: SimMode, n_trials: int,
                          seed: int, workers: int = 1,
                          clip: bool = False) -> RateEstimate:
    """Monte Carlo ergodic secrecy sum-rate over ``n_trials`` channel draws:
    :func:`estimate_secrecy_rates` at one point.  For a fixed seed the
    result is bit-identical across worker counts."""
    return estimate_secrecy_rates([params], mode, n_trials, seed, workers,
                                  clip)[0]


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
    one-point collection, whatever the worker count.
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
        for block in _map_chunks(draw, mode, n, seed, workers, lambda *parts:
                                 np.array([part[0] for part in parts[:4]])):
            first[:, start:start + block.shape[1]] = block
            start += block.shape[1]
        legit_num, legit_den, eav_num, eav_den = first
        for row, p, scale in members:
            yield row, Link.LEGITIMATE, _sinr(legit_num, legit_den * scale,
                                              p.noise_over_power)
            yield row, Link.EAVESDROPPER, _sinr(eav_num, eav_den,
                                                p.eav_noise_over_power)


def max_zf_residual(params: SystemParams, n: int, seed: int,
                    workers: int = 1) -> tuple:
    """(max zero-forcing residual, rejected count) over n FULL-mode draws."""
    worst, rejected = 0.0, 0
    for chunk_rejected, resid in _map_chunks(
            params, SimMode.FULL, n, seed, workers, lambda *parts: parts[4:]):
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
