import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats

from oracles import assembled_parts, explicit_directions, one_link_samples
from zfsecrecy import simulate
from zfsecrecy.analytic import Link, secrecy_rate_closed_form, sinr_cdf
from zfsecrecy.linalg import RngStream, complex_gaussian_batch
from zfsecrecy.params import SystemParams
from zfsecrecy.simulate import (SimMode, _draw_parts, _rvq_directions, _sinr,
                                _zf_beams_batch, chunk_trials,
                                collect_sinr_samples, estimate_secrecy_rate,
                                estimate_secrecy_rates, ks_statistic,
                                max_zf_residual)

P55 = SystemParams(n_t=5, bits=4, alpha=1.0, snr_db=10.0)


def _samples(params, mode, n, seed):
    """(legitimate, eavesdropper) SINR samples at one point."""
    (_, legit_link, legit), (_, eav_link, eav) = collect_sinr_samples(
        [params], mode, n, seed)
    assert (legit_link, eav_link) == (Link.LEGITIMATE, Link.EAVESDROPPER)
    return legit, eav


def _explicit_draw(params, gen, n):
    """n FULL draws with each user's codeword found by explicit search,
    their four SINR parts trial-major, (n, K)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_rvq_directions", explicit_directions)
        return [part.T for part in _draw_parts(params, SimMode.FULL, gen, n)[:4]]


# --------------------------------------------------------------------------
# Draws of the SINR parts
# --------------------------------------------------------------------------

def test_realizations_are_finite_and_nonnegative():
    for mode in SimMode:
        parts = _draw_parts(P55, mode, RngStream(1, 0).generator(), 200)
        for arr in parts[:4]:
            assert arr.shape == (5, 200)  # user-major
            assert np.isfinite(arr).all()
            assert (arr >= 0).all()


def test_vanishing_eavesdropper_gain_kills_its_sinr():
    p = SystemParams(n_t=5, bits=4, alpha=1e-9, snr_db=0.0)
    _, samples = _samples(p, SimMode.FULL, 1_000, seed=5)
    assert samples.max() < 1e-12


def test_perfect_mode_mean_signal_power():
    # With beams independent of the user's own channel, |h^H w|^2 is unit
    # exponential, so at 0 dB the perfect-feedback SINR has mean 1.
    p = SystemParams(n_t=2, bits=0, alpha=1.0, snr_db=0.0)
    samples, _ = _samples(p, SimMode.PERFECT, 100_000, seed=4)
    assert samples.mean() == pytest.approx(1.0, abs=0.02)


def test_realization_determinism():
    a = _draw_parts(P55, SimMode.FULL, RngStream(2, 3).generator(), 50)
    b = _draw_parts(P55, SimMode.FULL, RngStream(2, 3).generator(), 50)
    for ours, theirs in zip(a, b):
        np.testing.assert_array_equal(ours, theirs)


def _draw_digest(params, mode, n, seed=11):
    """sha256 of one _draw_parts call: its four parts' bytes, then the
    rejected count and the repr of the zero-forcing residual."""
    out = _draw_parts(params, mode, RngStream(seed, 0).generator(), n)
    digest = hashlib.sha256()
    for part in out[:4]:
        digest.update(np.ascontiguousarray(part).tobytes())
    digest.update(f"{out[4]}|{out[5]!r}".encode())
    return digest.hexdigest(), out[4]


# One chunk per (mode, n_t) at bits = 4, outside the golden grid's
# n_t in {2, 3}.  Each chunk spans many blocks of the draw's per-trial
# steps (28 trials each at n_t = 24); the digests pin their bits.
DRAW_DIGESTS = {
    (SimMode.FULL, 5):
        "a526d23a0bdaf3549b2d92f0007b8eb23be04e8ffd7920e2cddd447a013cbca7",
    (SimMode.FULL, 8):
        "fbfa64007733cffd624b57f96eb90f8148c46a656571f064a601ba1790f4817a",
    (SimMode.FULL, 24):
        "0b35aa08d86a989eed2bb887b6cdfcac32170573f26d8733f381bc6e2e3f556b",
    (SimMode.PERFECT, 5):
        "92347191cf9c67916137385808f4af6e90b91275dcb9664fe4461fd43fe5c446",
    (SimMode.PERFECT, 8):
        "49f99b593818555cf4bd7ce8627906b9545ecefabe8e1c79b7a448b12e5d2aff",
    (SimMode.PERFECT, 24):
        "054e2b465272a7f7a9aab6e09da52d4835aef80ac6ae477123e4f4551798f847",
}


# The chunk lengths the digests were recorded at, fixed here so that a
# change of chunk size cannot move them.
DRAW_TRIALS = {5: 8_192, 8: 7_021, 24: 780}


@pytest.mark.parametrize("mode,n_t", list(DRAW_DIGESTS))
def test_chunk_draw_bits_are_pinned(mode, n_t):
    params = SystemParams(n_t=n_t, bits=4, alpha=1.0, snr_db=10.0)
    digest, rejected = _draw_digest(params, mode, DRAW_TRIALS[n_t])
    assert rejected == 0
    assert digest == DRAW_DIGESTS[mode, n_t]


# A rank tolerance of 0.2 rejects about a quarter of the n_t = 5 sets, so
# 3,000 trials take several resample rounds, each over several blocks.
FORCED_REJECTION_TOL = 0.2
REJECTION_DIGESTS = {
    SimMode.FULL: (
        "7c98fce322ef49522262b174eb80502c0a3aa171fce99ee20c53e6462c5c2fc9",
        1177),
    SimMode.PERFECT: (
        "c88c3e17b7a864c1269a01a8798d9cb5d56b22638d2aed2229f7a1878d205625",
        1133),
}


@pytest.mark.parametrize("mode", list(REJECTION_DIGESTS))
def test_resampled_draw_bits_are_pinned(mode, monkeypatch):
    monkeypatch.setattr(simulate, "_BEAM_RANK_TOL", FORCED_REJECTION_TOL)
    params = SystemParams(n_t=5, bits=2, alpha=1.0, snr_db=10.0)
    assert _draw_digest(params, mode, 3_000) == REJECTION_DIGESTS[mode]


def test_sampler_sees_each_round_whole(monkeypatch):
    # The explicit-search oracle and the phase test replace the sampler
    # hook; they test nothing unless every round calls it once, on the
    # round's whole stack of raw channels, and uses its result.  A replay
    # of the stream (h, g, u, e per round) redraws each round's channels.
    monkeypatch.setattr(simulate, "_BEAM_RANK_TOL", FORCED_REJECTION_TOL)
    params = SystemParams(n_t=5, bits=2, alpha=1.0, snr_db=10.0)
    n = 3_000
    replay = RngStream(11, 0).generator()
    rounds = []  # (trials, sets the round's directions leave degenerate)

    def recorded(h, bits, gen):
        m = h.shape[0]
        np.testing.assert_array_equal(
            h, complex_gaussian_batch(replay, (m, 5, 5)))
        complex_gaussian_batch(replay, (m, 5))
        replay.random((m, 5))
        complex_gaussian_batch(replay, (m, 5, 5))
        before = h.copy()
        cw = _rvq_directions(h, bits, gen)
        np.testing.assert_array_equal(h, before)
        rounds.append((m, int((~_zf_beams_batch(cw)[1]).sum())))
        return cw

    monkeypatch.setattr(simulate, "_rvq_directions", recorded)
    rejected = _draw_parts(params, SimMode.FULL,
                           RngStream(11, 0).generator(), n)[4]
    trials, degenerate = zip(*rounds)
    assert len(rounds) > 2
    assert trials == (n, *degenerate[:-1]) and degenerate[-1] == 0
    assert rejected == sum(degenerate) == REJECTION_DIGESTS[SimMode.FULL][1]


@pytest.mark.parametrize("mode,n_t,bits", [
    *((SimMode.FULL, n_t, bits) for n_t in (3, 5) for bits in (1, 4, 8)),
    (SimMode.PERFECT, 3, 0),
    (SimMode.PERFECT, 5, 0),
])
def test_chunk_matches_qr_beam_oracle(mode, n_t, bits):
    # One whole chunk from one stream, drawn by the engine and again by the
    # per-trial oracle: QR beams and every gain summed term by term.  The
    # codewords are sampled, not searched, the same in both draws.
    params = SystemParams(n_t=n_t, bits=bits, alpha=1.0, snr_db=10.0)
    n = chunk_trials(params, mode)
    engine = _draw_parts(params, mode, RngStream(5, 0).generator(), n)
    oracle = assembled_parts(params, RngStream(5, 0).generator(), n,
                             mode is SimMode.PERFECT)
    for ours, theirs in zip((part.T for part in engine[:4]), oracle):
        assert ours.shape == theirs.shape == (n, n_t)
        assert np.abs(ours - theirs).max() <= 1e-12 * np.abs(theirs).max()
    assert engine[4] == 0


def _sampled_errors(n_t, bits, n, seed, directions=_rvq_directions):
    """sin^2 between each unit channel direction and its codeword from
    ``directions``, read off the orthogonal residual: exact even where it
    is below epsilon."""
    gen = RngStream(seed, 0).generator()
    h = complex_gaussian_batch(gen, (n, n_t, n_t))
    h_dir = h / np.linalg.norm(h, axis=2, keepdims=True)
    cw = directions(h_dir, bits, gen)
    np.testing.assert_allclose(np.linalg.norm(cw, axis=2), 1.0, atol=1e-12)
    along = np.einsum("tkn,tkn->tk", np.conj(h_dir), cw)[..., None] * h_dir
    return (np.linalg.norm(cw - along, axis=2) ** 2).ravel()


@pytest.mark.parametrize("n_t", [2, 3, 5, 8])
@pytest.mark.parametrize("bits", [0, 1, 4, 8, 24, 60])
def test_sampled_quantization_error_follows_the_rvq_law(n_t, bits):
    # P(z <= x) = 1 - (1 - x^(n_t-1))^(2^bits); every (trial, user) draw is
    # independent, so all users' errors enter one one-sample KS test.  The
    # explicit search, the sampler's oracle, must obey the law too; its
    # codebooks are materialized, so it runs at small bits only.
    def cdf(x):
        return -np.expm1(2.0 ** bits * np.log1p(-x ** (n_t - 1)))

    samplers = [_rvq_directions] + ([explicit_directions] if bits <= 4 else [])
    for directions in samplers:
        z = _sampled_errors(n_t, bits, 2_000, 23, directions)
        assert ks_statistic(z, cdf) < 1.63 / math.sqrt(z.size), directions


def test_mean_quantization_error_is_the_readme_value():
    # E[z] = 2^B Beta(2^B, n_t/(n_t-1)) (Jindal 2006): 0.449 at n_t=5, B=4.
    exact = 16 * special.beta(16, 5 / 4)
    assert round(exact, 3) == 0.449
    z = _sampled_errors(5, 4, 20_000, seed=24)
    assert abs(z.mean() - exact) < 4.0 * z.std() / math.sqrt(z.size)


def test_codeword_phase_changes_no_sinr_part(monkeypatch):
    # The sampler omits the codeword's phase: rotating every sampled
    # direction by a random phase must leave every output as it was.
    base = _draw_parts(P55, SimMode.FULL, RngStream(27, 0).generator(), 2_000)
    phases = RngStream(27, 1).generator()

    def rotated(h_dir, bits, gen):
        cw = _rvq_directions(h_dir, bits, gen)
        return cw * np.exp(2j * np.pi * phases.random(cw.shape[:2]))[..., None]

    monkeypatch.setattr(simulate, "_rvq_directions", rotated)
    turned = _draw_parts(P55, SimMode.FULL, RngStream(27, 0).generator(), 2_000)
    for ours, theirs in zip(base[:4], turned[:4]):
        assert np.abs(ours - theirs).max() <= 1e-12 * np.abs(ours).max()
    assert base[4] == turned[4] == 0
    assert turned[5] == pytest.approx(base[5], abs=1e-13)


# Explicit draws per geometry: the search costs ~2**bits per trial, and
# these counts keep the six cases to about 7 s.
@pytest.mark.parametrize("n_t", [3, 5])
@pytest.mark.parametrize("bits,n_explicit", [(1, 20_000), (4, 20_000),
                                             (8, 6_000)])
def test_sampler_matches_explicit_codebook_search(n_t, bits, n_explicit):
    # Two-sample KS per SINR part on the first user's column only: the
    # users of one trial share beams and eavesdropper, so their columns are
    # dependent and pooling them would void the test.
    params = SystemParams(n_t=n_t, bits=bits, alpha=1.0, snr_db=10.0)
    sampled = [np.concatenate(c) for c in zip(*simulate._map_chunks(
        params, SimMode.FULL, 40_000, 25, 1,
        lambda *parts: [part.T for part in parts[:4]]))]
    explicit = [np.concatenate(c) for c in zip(*(
        _explicit_draw(params, RngStream(26, i).generator(), 500)
        for i in range(n_explicit // 500)))]
    names = ("legit_num", "legit_den", "eav_num", "eav_den")
    for name, ours, theirs in zip(names, sampled, explicit):
        pvalue = stats.ks_2samp(ours[:, 0], theirs[:, 0]).pvalue
        assert pvalue > 1e-3, f"{name}: two-sample KS p = {pvalue:.2g}"
    # Each link's mean per-trial sum of log2(1 + SINR), at 4 combined sigma.
    for link, num, noise in (("legitimate", 0, params.noise_over_power),
                             ("eavesdropper", 2, params.eav_noise_over_power)):
        ours, theirs = (np.log2(1.0 + _sinr(parts[num], parts[num + 1],
                                            noise)).sum(axis=1)
                        for parts in (sampled, explicit))
        combined = math.hypot(stats.sem(ours), stats.sem(theirs))
        gap = ours.mean() - theirs.mean()
        assert abs(gap) < 4.0 * combined, (
            f"{link}: sampled {ours.mean():.4f} explicit {theirs.mean():.4f} "
            f"gap {gap:.4f} > 4 x {combined:.4f}")


def test_singular_direction_set_is_rejected_not_raised():
    # Trials 1 and 3 repeat a direction.  Trial 1's set (unit basis rows)
    # is exactly singular, so a stacked inverse raises for the whole batch;
    # trial 3's is singular up to rounding.
    gen = RngStream(19, 0).generator()
    dirs = gen.standard_normal((5, 5, 5)) + 1j * gen.standard_normal((5, 5, 5))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    dirs[1] = np.eye(5)
    dirs[1, 3] = dirs[1, 0]
    dirs[3, 4] = dirs[3, 2]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(dirs)
    beams, ok = _zf_beams_batch(dirs)
    assert ok.tolist() == [True, False, True, False, True]
    kept_dirs, kept = dirs[ok], beams[ok]
    assert np.isfinite(kept).all()
    np.testing.assert_allclose(np.linalg.norm(kept, axis=2), 1.0, atol=1e-12)
    gains = np.abs(np.einsum("tkn,tin->tki", np.conj(kept_dirs), kept))
    off_diagonal = gains[:, ~np.eye(5, dtype=bool)]
    assert off_diagonal.max() < 1e-10


# --------------------------------------------------------------------------
# Ergodic rate estimation
# --------------------------------------------------------------------------

def test_rate_is_zero_for_symmetric_links():
    # Zero feedback and equal path loss: both links have the same SINR law.
    p = SystemParams(n_t=5, bits=0, alpha=1.0, snr_db=10.0)
    est = estimate_secrecy_rate(p, SimMode.QCA, 100_000, seed=6)
    assert abs(est.mean) <= 3.0 * est.std_err


def test_qca_estimate_matches_closed_form():
    est = estimate_secrecy_rate(P55, SimMode.QCA, 200_000, seed=11)
    assert abs(est.mean - secrecy_rate_closed_form(P55)) < 3.0 * est.std_err


def test_worker_count_never_changes_results():
    for mode in (SimMode.QCA, SimMode.FULL):
        one = estimate_secrecy_rate(P55, mode, 30_000, seed=6, workers=1)
        four = estimate_secrecy_rate(P55, mode, 30_000, seed=6, workers=4)
        assert one.mean == four.mean
        assert one.std_err == four.std_err


def test_std_err_scales_as_inverse_root_n():
    small = estimate_secrecy_rate(P55, SimMode.QCA, 20_000, seed=30)
    large = estimate_secrecy_rate(P55, SimMode.QCA, 80_000, seed=31)
    assert small.std_err / large.std_err == pytest.approx(2.0, rel=0.2)


def test_clip_only_raises_the_mean():
    plain = estimate_secrecy_rate(P55, SimMode.QCA, 50_000, seed=32)
    clipped = estimate_secrecy_rate(P55, SimMode.QCA, 50_000, seed=32,
                                    clip=True)
    assert clipped.mean >= plain.mean


# Two alphas x three SNRs of one geometry; 8,192 + 808 trials, two chunks.
GRID6 = [SystemParams(n_t=3, bits=2, alpha=a, snr_db=s)
         for a in (0.5, 1.0) for s in (-10.0, 5.0, 30.0)]


@pytest.mark.parametrize("mode,options", [
    (SimMode.QCA, {}),
    (SimMode.FULL, {}),
    (SimMode.PERFECT, {}),
    (SimMode.QCA, {"clip": True}),
])
def test_shared_draws_reproduce_each_single_point_estimate(mode, options):
    single = [estimate_secrecy_rate(p, mode, 9_000, seed=12, **options)
              for p in GRID6]
    assert len(set(single)) == len(GRID6)  # the points really differ
    for workers in (1, 2, 4):
        assert estimate_secrecy_rates(GRID6, mode, 9_000, seed=12,
                                      workers=workers, **options) == single
    shuffled = [GRID6[i] for i in (4, 0, 5, 2, 1, 3)]
    assert estimate_secrecy_rates(shuffled, mode, 9_000, seed=12, workers=2,
                                  **options) == [single[i]
                                                 for i in (4, 0, 5, 2, 1, 3)]


def _user_sums(terms):
    """Each trial's sum over the K columns of ``terms`` (n, K), user by user
    from 0.0: the order of numpy's ``sum(axis=0)`` over C-ordered (K, n)
    rows, which the engine runs."""
    total = np.zeros(terms.shape[0])
    for column in terms.T:
        total += column
    return total


def _link_sums(legit, eav, clip):
    """The engine's per-trial rate from both links' (n, K) log terms: the
    users' sum minus the eavesdropper's, or under ``clip`` the sum of the
    per-user positive parts."""
    if clip:
        return _user_sums(np.maximum(legit - eav, 0.0))
    return _user_sums(legit) - _user_sums(eav)


def _pairwise_sums(legit, eav, clip):
    """The per-trial rate summed as before per-link sums: each trial's K
    differences (positive parts under ``clip``) by numpy's pairwise
    ``sum(axis=1)``."""
    per_user = legit - eav
    if clip:
        per_user = np.maximum(per_user, 0.0)
    return per_user.sum(axis=1)


def _per_point_moments(points, clip, rates):
    """The plain per-point reduction, two fresh log passes per point: the
    oracle for the engine's grouped, in-place one.  It copies the engine's
    user-major parts to C-ordered (n, K) arrays and forms each trial's rate
    with ``rates`` (:func:`_link_sums` or :func:`_pairwise_sums`)."""
    noise = [(p.noise_over_power, p.eav_noise_over_power) for p in points]

    def moments(*parts):
        legit_num, legit_den, eav_num, eav_den = (
            np.ascontiguousarray(part.T) for part in parts[:4])
        rejected = parts[4]
        out = np.empty((len(noise), 2))
        for row, (legit_noise, eav_noise) in zip(out, noise):
            per_trial = rates(
                np.log2(1.0 + legit_num / (legit_den + legit_noise)),
                np.log2(1.0 + eav_num / (eav_den + eav_noise)), clip)
            row[:] = per_trial.sum(), per_trial @ per_trial
        return out, rejected

    return moments


def _oracle_estimates(points, mode, n, seed, clip, rates=_link_sums):
    """RateEstimates of :func:`_per_point_moments` at ``points``: one chunk
    loop per feedback budget, each drawn at that budget's own params, so a
    QCA draw holds the points' own Gamma(n_t-1, distortion) interference."""
    by_bits = {}
    for row, p in enumerate(points):
        by_bits.setdefault(p.bits, []).append(row)
    estimates = [None] * len(points)
    for rows in by_bits.values():
        group = [points[row] for row in rows]
        sums, rejected = np.zeros((len(group), 2)), 0
        for chunk_sums, chunk_rejected in simulate._map_chunks(
                group[0], mode, n, seed, 1,
                _per_point_moments(group, clip, rates)):
            sums += chunk_sums
            rejected += chunk_rejected
        for row, (total, total_sq) in zip(rows, sums.tolist()):
            estimates[row] = simulate._rate_estimate(total, total_sq, n,
                                                     rejected)
    return estimates


def _reduction_grid(n_t):
    """Three alphas (1 among them) per SNR, and two duplicated points."""
    points = [SystemParams(n_t=n_t, bits=2, alpha=a, snr_db=s)
              for s in (-10.0, 4.0, 25.0) for a in (0.3, 1.0, 2.5)]
    return points + [points[4], points[0]]


# n_t >= 8 pins the order in which the per-user terms are summed.
@pytest.mark.parametrize("n_t", [2, 5, 8, 16])
@pytest.mark.parametrize("mode", list(SimMode))
@pytest.mark.parametrize("clip", [False, True])
def test_reduction_matches_per_point_oracle(n_t, mode, clip):
    points = _reduction_grid(n_t)
    n = 9_000 if mode is SimMode.QCA else 1_500
    assert estimate_secrecy_rates(points, mode, n, seed=14, workers=2,
                                  clip=clip) == _oracle_estimates(
        points, mode, n, 14, clip)


@pytest.mark.parametrize("n_t", [2, 5, 8, 16])
@pytest.mark.parametrize("mode", list(SimMode))
@pytest.mark.parametrize("clip", [False, True])
def test_per_link_sums_change_only_rounding(n_t, mode, clip):
    # The engine sums each link's terms over the users and subtracts the
    # sums; before, it summed each trial's K differences pairwise.  The
    # two orders may differ in the last bits of a sum, never beyond.
    points = _reduction_grid(n_t)
    n = 9_000 if mode is SimMode.QCA else 1_500
    engine = estimate_secrecy_rates(points, mode, n, seed=14, clip=clip)
    pairwise = _oracle_estimates(points, mode, n, 14, clip, _pairwise_sums)
    for got, old in zip(engine, pairwise):
        assert (got.n_trials, got.rejected) == (old.n_trials, old.rejected)
        assert math.isclose(got.mean, old.mean, rel_tol=1e-13), (got, old)
        assert math.isclose(got.std_err, old.std_err, rel_tol=1e-13), (
            got, old)


def _shared_noise_grid(n_t):
    """Three feedback budgets (distortion 1 among them) x three alphas x
    three SNRs, and three duplicated points.  Every eavesdropper noise
    level serves one (distortion, SNR) group per budget, and one of them
    serves two SNRs: -20 dB at alpha 1 and -18 dB at alpha 10**-0.1."""
    points = [SystemParams(n_t=n_t, bits=b, alpha=a, snr_db=s)
              for b in (0, 2, 6) for a in (0.3, 1.0, 10 ** -0.1)
              for s in (-20.0, -18.0, 25.0)]
    return points + [points[13], points[0], points[26]]


@pytest.mark.parametrize("n_t", [3, 8])
@pytest.mark.parametrize("mode", list(SimMode))
@pytest.mark.parametrize("clip", [False, True])
@pytest.mark.parametrize("workers", [1, 2])
def test_shared_eavesdropper_terms_match_per_point_oracle(n_t, mode, clip,
                                                          workers):
    points = _shared_noise_grid(n_t)
    levels = {}
    for p in points:
        levels.setdefault(p.eav_noise_over_power, set()).add(p.snr_db)
    assert len(levels) == 8 and max(map(len, levels.values())) == 2
    n = 9_000 if mode is SimMode.QCA else 1_500
    assert estimate_secrecy_rates(points, mode, n, seed=15, workers=workers,
                                  clip=clip) == _oracle_estimates(
        points, mode, n, 15, clip)


def _count_sinr_calls(monkeypatch, points, n):
    """simulate._sinr calls of one estimate_secrecy_rates run."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return _sinr(*args, **kwargs)

    monkeypatch.setattr(simulate, "_sinr", counted)
    estimate_secrecy_rates(points, SimMode.QCA, n, seed=16)
    return len(calls)


def test_each_eavesdropper_noise_level_is_computed_once_per_chunk(
        monkeypatch):
    # Two chunks of one QCA key shaped like the default validate's:
    # 4 budgets x 3 alphas x 4 SNRs.  Each chunk computes the users' term
    # once per (distortion, SNR), 16, and the eavesdropper's once per
    # noise level, 12: 28, where one eavesdropper term per point makes 64.
    n = chunk_trials(P55, SimMode.QCA) + 8
    verify = [SystemParams(n_t=5, bits=b, alpha=a, snr_db=s)
              for b in (0, 1, 4, 8) for a in (0.25, 0.5, 1.0)
              for s in (-10.0, 0.0, 10.0, 20.0)]
    assert _count_sinr_calls(monkeypatch, verify, n) == 2 * (16 + 12)
    # The default rate-curve's key shares no noise level: 21 SNRs, one
    # users' term each, and one eavesdropper term per point, 63.
    curve = [SystemParams(n_t=5, bits=4, alpha=a, snr_db=s)
             for a in (0.25, 0.5, 1.0) for s in range(-10, 31, 2)]
    assert len({p.eav_noise_over_power for p in curve}) == 63
    assert _count_sinr_calls(monkeypatch, curve, n) == 2 * (21 + 63)


def test_live_eavesdropper_terms_stay_within_their_bound(monkeypatch):
    # 40 alphas x 3 budgets at one SNR: each of 40 eavesdropper terms
    # serves three groups, but a chunk holds at most 4 (K, n) terms, or
    # without clip 4 * K = 20 (n,) sums, at a time.
    points = [SystemParams(n_t=5, bits=b, alpha=0.1 + 0.05 * i, snr_db=0.0)
              for b in (0, 1, 3) for i in range(40)]
    n = chunk_trials(P55, SimMode.QCA)  # one chunk
    key = SystemParams(n_t=5, bits=0, alpha=1.0, snr_db=0.0)
    parts = _draw_parts(key, SimMode.QCA, RngStream(17, 0).generator(), n)
    array = parts[0].nbytes
    # Beyond the drawn parts the reduction holds one (K, n) scratch array
    # and (n,) rows, 1/K of one each: the users' sum, the per-trial sums
    # and at most 4 * K eavesdropper sums.  Under clip it holds two scratch
    # arrays, the per-trial sums and at most 4 (K, n) eavesdropper terms.
    # 128 KiB covers the small objects.  Measured, in arrays of 320 KiB:
    # 5.51, and 6.25 under clip.
    # SINR passes: 3 for the users' groups, and for the eavesdropper 40 in
    # the first group, then 20 in each of the other two without clip; under
    # clip 36 in each of those two, as 4 of the 40 terms stay live.
    sinr, calls = simulate._sinr, []

    def counted(*args, **kwargs):
        calls.append(1)
        return sinr(*args, **kwargs)

    for clip, arrays, passes in ((False, 1 + 2 / 5 + 4, 83),
                                 (True, 2 + 1 / 5 + 4, 115)):
        oracle = _oracle_estimates(points, SimMode.QCA, n, 17, clip)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_draw_parts", lambda *args: parts)
            patch.setattr(simulate, "_sinr", counted)
            tracemalloc.start()
            try:
                shared = estimate_secrecy_rates(points, SimMode.QCA, n,
                                                seed=17, clip=clip)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert shared == oracle
        assert len(calls) == passes, clip
        assert peak <= arrays * array + 2 ** 17, (clip, peak / array)


def test_worker_cap_is_checked_before_any_pool_exists(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was created")

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_pool)
    # Three chunks: even without the cap at most three threads could start.
    n = 3 * chunk_trials(P55, SimMode.QCA)
    with pytest.raises(ValueError, match="workers"):
        estimate_secrecy_rate(P55, SimMode.QCA, n, seed=1,
                              workers=simulate.MAX_WORKERS + 1)


def test_full_chunks_are_sized_by_the_arrays_they_hold():
    # Sampled codewords add no codebook bytes, so bits never moves a chunk.
    # PERFECT holds the same K x K arrays as FULL.
    for n_t in range(2, 8):
        small = SystemParams(n_t=n_t, bits=4, alpha=1.0, snr_db=10.0)
        for mode in SimMode:
            assert chunk_trials(small, mode) == simulate._CHUNK_TRIALS
    wide = SystemParams(n_t=64, bits=30, alpha=1.0, snr_db=10.0)
    for mode in (SimMode.FULL, SimMode.PERFECT):
        geometry_bytes = 16 * 64 ** 2 * chunk_trials(wide, mode)
        assert geometry_bytes <= simulate._CHUNK_TARGET_BYTES
    assert chunk_trials(wide, SimMode.QCA) == simulate._CHUNK_TRIALS
    # Past n_t = 69 the (K,) rows of a QCA chunk (4 parts, 2 scratch rows
    # and the live terms) outgrow the target at _CHUNK_TRIALS trials.
    rows = 6 + simulate._LIVE_EAV_TERMS
    for n_t in (128, 256):
        qca = chunk_trials(SystemParams(n_t=n_t, bits=4, alpha=1.0,
                                        snr_db=10.0), SimMode.QCA)
        assert qca < simulate._CHUNK_TRIALS
        assert 8 * n_t * rows * qca <= simulate._CHUNK_TARGET_BYTES


@pytest.mark.parametrize("mode,n_t", [
    *((mode, n_t) for mode in (SimMode.FULL, SimMode.PERFECT)
      for n_t in (3, 5, 8, 24)),
    *((SimMode.QCA, n_t) for n_t in (5, 64, 128, 256)),
])
def test_one_chunk_stays_within_the_chunk_memory_target(mode, n_t):
    # One whole chunk, draw and rate reduction.  Each of 5 eavesdropper
    # noise levels serves two points, so the reduction keeps as many live
    # terms as it may.
    points = [SystemParams(n_t=n_t, bits=4, alpha=a, snr_db=10.0)
              for a in (0.25, 0.5, 0.75, 1.0, 1.5)] * 2
    n = chunk_trials(points[0], mode)
    tracemalloc.start()
    try:
        estimate_secrecy_rates(points, mode, n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= simulate._CHUNK_TARGET_BYTES, (n, peak)
    # chunk_trials budgets 4.5 K x K complex arrays per trial in FULL and
    # PERFECT.  The draw's per-trial steps run in one pass over blocks, so
    # beyond one block's temporaries a chunk holds the (K, n) parts, h, g
    # and, in FULL, the sampler's draw.  Measured with numpy 2.4: FULL 4.23
    # at n_t = 3, 3.20 at 5, 2.94 at 8, 2.65 at 24; PERFECT 3.19, 2.00,
    # 1.75, 1.58.  At n_t = 3 the (K, n) rows dominate.  A failure here
    # means some step again spans the whole chunk; a whole-round array of
    # unit directions reads 3.80 (FULL) and 2.84 (PERFECT) at n_t = 5.
    if mode is not SimMode.QCA:
        arrays_per_trial = peak / (16 * n_t ** 2 * n)
        assert arrays_per_trial <= 4.5, arrays_per_trial
        if n_t >= 5:
            assert arrays_per_trial <= (3.4 if mode is SimMode.FULL
                                        else 2.2), arrays_per_trial


# Four (n_t, bits) geometries, two alphas x two SNRs each, in grid order.
MIXED = [SystemParams(n_t=n_t, bits=b, alpha=a, snr_db=s)
         for n_t in (2, 3) for b in (0, 2) for a in (0.5, 1.0)
         for s in (-10.0, 10.0)]


@pytest.mark.parametrize("mode,options", [
    (SimMode.QCA, {}),
    (SimMode.FULL, {}),
    (SimMode.PERFECT, {}),
    (SimMode.QCA, {"clip": True}),
])
def test_mixed_draw_keys_match_per_geometry_calls(mode, options):
    # One call over several draw keys equals one call per (n_t, bits)
    # geometry, point for point, in any order and at any worker count.
    per_geometry = []
    for i in range(0, len(MIXED), 4):
        per_geometry += estimate_secrecy_rates(MIXED[i:i + 4], mode, 9_000,
                                               seed=12, **options)
    for workers in (1, 2, 4):
        assert estimate_secrecy_rates(MIXED, mode, 9_000, seed=12,
                                      workers=workers, **options) == per_geometry
    order = np.random.default_rng(3).permutation(len(MIXED)).tolist()
    assert estimate_secrecy_rates([MIXED[i] for i in order], mode, 9_000,
                                  seed=12, workers=2, **options) == [
        per_geometry[i] for i in order]
    with pytest.raises(ValueError, match="non-empty"):
        estimate_secrecy_rates([], mode, 100, seed=1, **options)


def test_gamma_scale_is_a_product_with_the_unit_draw():
    # QCA shares one unit-scale interference draw across every distortion
    # d of an n_t: numpy's gamma(k, scale=d) must be d * gamma(k, 1.0) bit
    # for bit, and consume the stream alike.
    for k in (1, 2, 4, 15):
        for d in (1.0, 0.5, 2.0 ** (-8 / 3), 2.0 ** -60, 3.7):
            scaled, unit = (RngStream(4, k).generator() for _ in range(2))
            assert np.array_equal(scaled.gamma(k, scale=d, size=(500, 3)),
                                  d * unit.gamma(k, 1.0, size=(500, 3)))
            np.testing.assert_equal(scaled.bit_generator.state,
                                    unit.bit_generator.state)


def test_trial_count_validation():
    with pytest.raises(ValueError):
        estimate_secrecy_rate(P55, SimMode.QCA, 0, seed=1)
    with pytest.raises(ValueError):
        estimate_secrecy_rate(P55, SimMode.QCA, 10, seed=1, workers=0)


@pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0])
def test_full_and_qca_modes_agree_loosely(snr_db):
    # QCA samples the closed form's law: quantization-cell interference for
    # the users, orthonormal beams for the eavesdropper.  FULL, the
    # exact-RVQ sampler, makes neither simplification, so the documented
    # tolerance is loose.
    p = SystemParams(n_t=5, bits=4, alpha=1.0, snr_db=snr_db)
    qca = estimate_secrecy_rate(p, SimMode.QCA, 200_000, seed=11)
    full = estimate_secrecy_rate(p, SimMode.FULL, 30_000, seed=11)
    combined = math.hypot(qca.std_err, full.std_err)
    gap = abs(qca.mean - full.mean)
    assert gap < max(0.05 * abs(qca.mean), 4.0 * combined), (
        f"snr={snr_db}: qca={qca.mean:.4f} full={full.mean:.4f} "
        f"gap={gap:.4f} (= {100 * gap / abs(qca.mean):.1f}% of the QCA mean); "
        f"at 0 dB the legitimate term's gap splits into -0.094 from the RVQ "
        f"error law (E[sin^2] 0.449 true vs 0.40 modeled at n_t=5, B=4) and "
        f"-0.087 from beam non-orthogonality, and the eavesdropper term's "
        f"error cancels about 70% of it, so the documented 5% envelope is "
        f"exceeded here")


# --------------------------------------------------------------------------
# Sample collection and distribution checks
# --------------------------------------------------------------------------

def test_samples_are_nonnegative_and_deterministic():
    a = _samples(P55, SimMode.QCA, 5_000, seed=8)
    b = _samples(P55, SimMode.QCA, 5_000, seed=8)
    for ours, theirs in zip(a, b):
        np.testing.assert_array_equal(ours, theirs)
        assert (ours >= 0).all()



def test_sample_collection_checks_its_arguments_at_the_call():
    # No iteration: the errors come from the call itself.
    with pytest.raises(ValueError, match="non-empty"):
        collect_sinr_samples([], SimMode.QCA, 10, seed=8)
    with pytest.raises(ValueError, match="trial count"):
        collect_sinr_samples([P55], SimMode.QCA, 0, seed=8)
    for workers in (0, simulate.MAX_WORKERS + 1):
        with pytest.raises(ValueError, match="workers"):
            collect_sinr_samples([P55], SimMode.QCA, 10, seed=8,
                                 workers=workers)


def test_qca_legitimate_samples_match_their_cdf():
    samples, _ = _samples(P55, SimMode.QCA, 10_000, seed=9)
    stat = ks_statistic(samples, lambda x: sinr_cdf(x, P55, Link.LEGITIMATE))
    assert stat < 0.0163


def test_qca_eavesdropper_samples_match_their_cdf():
    _, samples = _samples(P55, SimMode.QCA, 10_000, seed=10)
    stat = ks_statistic(samples, lambda x: sinr_cdf(x, P55, Link.EAVESDROPPER))
    assert stat < 0.0163


def test_zero_feedback_equal_path_links_identically_distributed():
    # Two-sample KS at the 1% critical value for n = m = 1e4.
    p = SystemParams(n_t=5, bits=0, alpha=1.0, snr_db=10.0)
    legit, _ = _samples(p, SimMode.QCA, 10_000, seed=21)
    _, eav = _samples(p, SimMode.QCA, 10_000, seed=22)
    assert stats.ks_2samp(legit, eav).statistic < 0.023


@pytest.mark.parametrize("mode", list(SimMode))
def test_keyed_collection_matches_per_link_oracle(mode):
    # One draw per key serves every point: each point's samples equal its
    # own per-link collection, in any point order and at any worker count.
    oracle = [{link: one_link_samples(p, mode, link.value, 9_000, 12)
               for link in Link} for p in MIXED]
    order = np.random.default_rng(4).permutation(len(MIXED)).tolist()
    for workers, rows in ((1, range(len(MIXED))), (2, range(len(MIXED))),
                          (4, range(len(MIXED))), (2, order)):
        points = [MIXED[i] for i in rows]
        seen = []
        for row, link, ours in collect_sinr_samples(points, mode, 9_000,
                                                    seed=12, workers=workers):
            seen.append((row, link))
            assert np.array_equal(ours, oracle[rows[row]][link]), (
                workers, points[row], link)
        # Every point once: its legitimate samples, then its eavesdropper's.
        assert seen == [(row, link) for row, _ in seen[::2] for link in Link]
        assert sorted(row for row, _ in seen[::2]) == list(range(len(points)))


def test_collection_memory_does_not_grow_with_points_per_key():
    # The key's four first-user parts are held once, 32 B per trial, and
    # each link's samples are made only as they are handed out: a caller
    # holding one array at a time holds 40 B per trial in all.
    n = 50_000

    def peaks(n_points):
        points = [SystemParams(n_t=5, bits=4, alpha=1.0, snr_db=float(s))
                  for s in range(n_points)]
        tracemalloc.start()
        try:
            held = 0
            for _ in collect_sinr_samples(points, SimMode.QCA, n, seed=3):
                held = max(held, tracemalloc.get_traced_memory()[0])
            return held, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (few_held, few), (many_held, many) = peaks(2), peaks(16)
    for held in (few_held, many_held):
        assert 40 * n <= held <= 41 * n, held / n
    assert many <= few + 2 * n, (few / n, many / n)


@pytest.mark.parametrize("k", [*range(2, 18), 64, 127, 128, 129, 256])
def test_row_sums_follow_numpy_summation_order(k):
    # The engine sums each link's user-major rows with sum(axis=0), which
    # adds C-ordered rows one after another (on strided rows numpy would
    # sum each trial pairwise, ten times slower).  If a numpy release
    # changes that order, or a draw its layout, this fails by name instead
    # of every digest drifting.
    params = SystemParams(n_t=k, bits=4, alpha=1.0, snr_db=0.0)
    for mode in SimMode:
        parts = _draw_parts(params, mode, RngStream(40, k).generator(), 3)
        for part in parts[:4]:
            assert part.shape == (k, 3) and part.flags.c_contiguous
    gen = RngStream(40, k).generator()
    terms = (gen.standard_normal((1_000, k))
             * np.exp(gen.uniform(-30.0, 30.0, (1_000, k))))
    terms[0] = -0.0  # a sum of negative zeros is 0.0
    expected = _user_sums(terms)
    got = np.ascontiguousarray(terms.T).sum(axis=0)
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
    if k >= 8:  # the data tell sequential from pairwise order apart
        assert not np.array_equal(got, terms.sum(axis=1))


def test_rejection_free_and_zero_forcing_residual():
    worst, rejected = max_zf_residual(P55, 10_000, seed=7, workers=2)
    assert rejected == 0
    assert worst < 1e-10


def test_zero_forcing_residual_needs_draws():
    # Zero draws would pass any residual check vacuously.
    with pytest.raises(ValueError):
        max_zf_residual(P55, 0, seed=7)


@pytest.mark.slow
def test_degenerate_draws_have_probability_zero():
    # One million FULL-mode draws without a single degenerate
    # beam set.
    worst, rejected = max_zf_residual(P55, 1_000_000, seed=17, workers=2)
    assert rejected == 0
    assert worst < 1e-10


# --------------------------------------------------------------------------
# KS statistic helper
# --------------------------------------------------------------------------

def test_ks_plugin_quantiles_are_tight():
    n = 1000
    cdf = lambda x: 1.0 - np.exp(-x)
    quantiles = [-math.log(1.0 - (i - 0.5) / n) for i in range(1, n + 1)]
    assert ks_statistic(quantiles, cdf) <= 1.0 / n


def test_ks_detects_gross_mismatch():
    gen = RngStream(14, 0).generator()
    samples = gen.exponential(size=10_000)
    assert ks_statistic(samples, lambda x: 1.0 - np.exp(-10.0 * x)) > 0.5


def test_ks_rejects_empty_input():
    with pytest.raises(ValueError):
        ks_statistic([], lambda x: x)


def test_ks_agrees_with_scipy():
    gen = RngStream(15, 0).generator()
    samples = gen.exponential(size=2_000)
    ours = ks_statistic(samples, lambda x: 1.0 - np.exp(-x))
    theirs = stats.kstest(samples, stats.expon.cdf).statistic
    assert ours == pytest.approx(theirs, abs=1e-12)
    # A CDF that hands back the sorted array itself must survive the
    # statistic's in-place work; these samples make the lower side decide.
    samples = np.sqrt(gen.random(size=2_000))
    ours = ks_statistic(samples, lambda x: x)
    theirs = stats.kstest(samples, stats.uniform.cdf).statistic
    assert ours == pytest.approx(theirs, abs=1e-12)
