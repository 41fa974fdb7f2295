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

Within a chunk, ``estimate_secrecy_rates`` computes the users'
log2(1 + SINR) once per (distortion, SNR) and the eavesdropper's once per
distinct eavesdropper noise level, which does not depend on bits: points
that differ only in their distortion share it.  Each term is summed over
the users once, so a point's per-trial rates are one difference of (n,)
rows, the users' sum minus the eavesdropper's.  An eavesdropper sum with
uses still to come is kept until its last one, at most _LIVE_EAV_TERMS * K
(the bytes of _LIVE_EAV_TERMS (K, n) terms) at a time; past that bound it
is recomputed for its point.  ``clip`` keeps (K, n) terms instead.
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
# Most (K, n) eavesdropper log terms one chunk's rate reduction holds for
# later points, as many as the draw has parts, or K times as many (n,)
# sums over the users without clip: no grid (hundreds of alphas at one
# SNR, say) grows a chunk's memory beyond that.
_LIVE_EAV_TERMS = 4
# Bytes of one K x K complex array over a block of trials: each per-trial
# step of a geometry draw runs on blocks this size, not on the whole chunk.
_BLOCK_TARGET_BYTES = 2 ** 18


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
    """Trials per chunk (deterministic in params): as many as keep one
    chunk's arrays within _CHUNK_TARGET_BYTES, at most _CHUNK_TRIALS.

    Per trial, the rate reduction holds (K,) float64 rows, at most as
    many as under clip: the draw's 4 parts, 2 scratch rows and up to
    _LIVE_EAV_TERMS eavesdropper terms, plus one row for the per-trial
    sums and small objects (without clip, 9 rows and 2 scalars).  A FULL
    or PERFECT draw holds K x K complex arrays on top, budgeted at 4.5: h,
    the sampler's draw and one block's temporaries (tracemalloc, numpy
    2.4, rows included: 2.6-4.3 in FULL, 1.6-3.2 in PERFECT at n_t >= 3,
    the most at n_t = 3).  Every mode gets _CHUNK_TRIALS up to n_t = 7."""
    k = params.n_t
    per_trial = (8 * k * (7 + _LIVE_EAV_TERMS)
                 + (0 if mode is SimMode.QCA else 72 * k * k))
    return max(1, min(_CHUNK_TRIALS, _CHUNK_TARGET_BYTES // per_trial))


def _trial_blocks(n: int, k: int) -> list:
    """Consecutive slices that cover range(n), each of as many trials as
    fill _BLOCK_TARGET_BYTES with one K x K complex array (at least one)."""
    step = max(1, _BLOCK_TARGET_BYTES // (16 * k * k))
    return [slice(start, start + step) for start in range(0, n, step)]


def _zf_beams_batch(directions: np.ndarray):
    """Vectorized zero-forcing beams for a batch of direction sets.

    ``directions`` has shape (n, K, K), rows = unit directions.  Beam i is
    column i of the set's inverse, conjugated and normalized: orthogonal to
    every direction but the i-th, its norm is 1 / (distance of direction i
    from the others' span).  Returns (beams (n, K, K), ok (n,) mask).  Each
    set's beams depend on that set alone, so :func:`_geometry_draw` calls
    this on one block of trials at a time, and the inverse, its norms and
    the beams are temporaries of that block.
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
    eav_den), each C-ordered user-major (K, n), then the rejected count
    and the largest zero-forcing residual over kept draws.  PERFECT beams
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
    filled, rejected, zf_residual = 0, 0, 0.0
    while filled < n:
        m = n - filled
        h = complex_gaussian_batch(gen, (m, k, k))  # rows: user channels
        g = complex_gaussian_batch(gen, (m, k))     # eavesdropper fading
        if not perfect:
            selected = _rvq_directions(h, params.bits, gen)
        for b in _trial_blocks(m, k):
            dirs = _unit_rows(h[b]) if perfect else selected[b]
            pieces, n_bad, residual = _block_parts(h[b], g[b], dirs, perfect)
            kept = len(pieces[0])
            parts[:, :, filled:filled + kept] = np.swapaxes(pieces, 1, 2)
            filled += kept
            rejected += n_bad
            zf_residual = max(zf_residual, residual)
    return (*parts, rejected, zf_residual)


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """``x`` with each row (last axis) scaled to unit norm."""
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _block_parts(h, g, point_dirs, perfect: bool):
    """One block's pieces of :func:`_geometry_draw`: its kept trials'
    (signal, interference, eav_amps, eav_den), each (n, K), then the
    block's rejected count and its largest zero-forcing residual."""
    k = h.shape[1]
    beams, ok = _zf_beams_batch(point_dirs)
    n_bad = int(np.count_nonzero(~ok))
    if n_bad:
        h, g, beams, point_dirs = (arr[ok] for arr in (h, g, beams, point_dirs))

    # cross[t, k, i] = h_k^H w_i;  eav[t, i] = g^H w_i
    cross = np.einsum("tkn,tin->tki", np.conj(h), beams)
    power = np.abs(cross) ** 2
    signal = np.einsum("tkk->tk", power).copy()
    zf_residual = 0.0
    if perfect:
        interference = np.zeros_like(signal)
    else:
        interference = power.sum(axis=2) - signal
        zf = np.abs(np.einsum("tkn,tin->tki", np.conj(point_dirs), beams))
        zf[:, np.arange(k), np.arange(k)] = 0.0
        zf_residual = float(zf.max(initial=0.0))

    eav_amps = np.abs(np.einsum("tn,tin->ti", np.conj(g), beams)) ** 2
    eav_den = eav_amps.sum(axis=1, keepdims=True) - eav_amps
    return (signal, interference, eav_amps, eav_den), n_bad, zf_residual


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
    z **= 1.0 / (k - 1)
    for b in _trial_blocks(n, k):
        h_b, e_b, z_b = _unit_rows(h[b]), e[b], z[b]
        e_b -= h_b * np.einsum("tkn,tkn->tk", np.conj(h_b), e_b)[..., None]
        flat = e_b.view(float)
        e_b *= np.sqrt(z_b / np.einsum("tkn,tkn->tk", flat, flat))[..., None]
        e_b += np.sqrt(1.0 - z_b)[..., None] * h_b
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

    Returns (legit_num, legit_den, eav_num, eav_den), each C-ordered
    user-major (K, n): row k is user k's (or stream k's) n trials, so a
    sum over axis 0 adds the users one after another.  Then the rejected
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


def _log_rate(num, den, noise: float, out):
    """log2(1 + SINR), the link's rate per trial and user, into ``out``."""
    _sinr(num, den, noise, out)
    out += 1.0
    return np.log2(out, out=out)


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


def _estimates_of_one_draw(draw: SystemParams, members: list, mode: SimMode,
                           n_trials: int, seed: int, workers: int,
                           clip: bool) -> list:
    """:func:`estimate_secrecy_rates` at the points of ``members``, one
    draw key's (row, point, scale) triples, all served by the draws of
    ``draw``."""
    # Only the users' interference scale and noise, and the eavesdropper
    # noise, tell points apart: group them by (scale, SNR), visited in
    # order of the users' noise, so that the points of one SNR and alpha,
    # which share an eavesdropper noise level, come close together.
    groups, uses = {}, {}
    for i, (_, p, scale) in enumerate(members):
        eav_noise = p.eav_noise_over_power
        groups.setdefault((scale, p.noise_over_power), []).append(
            (i, eav_noise))
        uses[eav_noise] = uses.get(eav_noise, 0) + 1
    groups = sorted(groups.items(), key=lambda group: group[0][1])

    def moments(legit_num, legit_den, eav_num, eav_den, rejected, _):
        # (sum, sum of squares) of the per-trial rate, one row per point.
        # The scratch is per call: chunks run concurrently on threads.
        out = np.empty((len(members), 2))
        terms = np.empty_like(legit_num)
        per_trial = np.empty(legit_num.shape[1])
        if clip:
            per_user = np.empty_like(terms)
        else:
            legit_sum = np.empty_like(per_trial)
        # Eavesdropper terms with uses still to come in this chunk, by
        # noise level, each freed after its last use: (n,) sums over the
        # users, or under clip the (K, n) terms themselves.
        left, live = dict(uses), {}
        for (scale, legit_noise), rows in groups:
            den = (legit_den if scale == 1.0
                   else np.multiply(legit_den, scale, out=terms))
            legit = _log_rate(legit_num, den, legit_noise, terms)
            if not clip:  # from here on terms is scratch
                legit = terms.sum(axis=0, out=legit_sum)
            for i, eav_noise in rows:
                eav = live.get(eav_noise)
                if eav is None:
                    # Kept for later points while a live slot is free;
                    # otherwise computed into the point's own scratch.
                    keep = left[eav_noise] > 1 and len(live) < (
                        _LIVE_EAV_TERMS * (1 if clip else len(terms)))
                    if clip:
                        eav = _log_rate(eav_num, eav_den, eav_noise,
                                        np.empty_like(terms) if keep
                                        else per_user)
                    else:
                        eav = _log_rate(eav_num, eav_den, eav_noise,
                                        terms).sum(
                            axis=0, out=np.empty_like(per_trial) if keep
                            else per_trial)
                    if keep:
                        live[eav_noise] = eav
                left[eav_noise] -= 1
                if not left[eav_noise]:
                    live.pop(eav_noise, None)
                np.subtract(legit, eav, out=per_user if clip else per_trial)
                if clip:
                    np.maximum(per_user, 0.0, out=per_user).sum(
                        axis=0, out=per_trial)
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
