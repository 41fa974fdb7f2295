import functools
import hashlib
import math
import os
import pathlib
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats

from dispatch import AVX512, BASELINE, recorded, simd_target
from oracles import (assembled_parts, explicit_directions, inverse_beams,
                     one_link_samples)
from zfsecrecy import simulate
from zfsecrecy.analytic import (Link, rates_from_cdf_quadrature,
                                secrecy_rate_closed_form, sinr_cdf)
from zfsecrecy.cli import MAX_NT
from zfsecrecy.linalg import RngStream, complex_gaussian_batch
from zfsecrecy.params import SystemParams
from zfsecrecy.simulate import (SimMode, _draw_parts, _geometry_draw,
                                _rvq_directions, _sinr, _zf_inverse,
                                chunk_trials,
                                collect_sinr_samples, estimate_secrecy_rates,
                                ks_statistic,
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


def test_chunk_streams_are_keyed_by_draw_key_and_chunk():
    # Each chunk of a draw key replays from _chunk_stream, whatever the
    # worker count.  An n_t = 3 and an n_t = 5 QCA chunk hold 40,959 and
    # 40,960 (trial, user) pairs: keyed by (seed, chunk) alone they drew
    # the same Exp(1) numerators, and keyed by their draw keys too they
    # share not one.
    p3, p5 = (SystemParams(n_t=k, bits=0, alpha=1.0, snr_db=0.0)
              for k in (3, 5))
    n = chunk_trials(p5, SimMode.QCA) + 100
    chunks = list(simulate._map_chunks(
        p5, SimMode.QCA, n, 9, 2,
        lambda gen, m: _draw_parts(p5, SimMode.QCA, gen, m)[:4]))
    assert len(chunks) == 2
    for i, chunk in enumerate(chunks):
        replay = _draw_parts(p5, SimMode.QCA, simulate._chunk_stream(
            9, p5, SimMode.QCA, i).generator(), chunk[0].shape[1])
        for ours, theirs in zip(chunk, replay[:4]):
            assert np.array_equal(ours, theirs)
    first3 = next(simulate._map_chunks(
        p3, SimMode.QCA, chunk_trials(p3, SimMode.QCA), 9, 1,
        lambda gen, m: _draw_parts(p3, SimMode.QCA, gen, m)[0]))
    assert np.intersect1d(first3, chunks[0][0]).size == 0
    # Every mode, every FULL budget, every chunk: a stream of its own.
    keys = [(mode, SystemParams(n_t=5, bits=bits, alpha=1.0, snr_db=0.0), i)
            for mode in SimMode for bits in (2, 4) for i in (0, 1)]
    firsts = {tuple(simulate._chunk_stream(9, p, mode, i).generator()
                    .random(2)) for mode, p, i in keys}
    assert len(firsts) == len(keys) - 4  # QCA and PERFECT ignore bits


@pytest.mark.parametrize("workers", [1, 2])
def test_map_chunks_calls_fn_with_each_chunks_stream_and_size(workers):
    # The driver draws nothing: per chunk, in chunk order, it calls fn with
    # the chunk's own generator and its trial count, the remainder last.
    p = SystemParams(n_t=5, bits=0, alpha=1.0, snr_db=0.0)
    chunk = chunk_trials(p, SimMode.QCA)
    got = list(simulate._map_chunks(p, SimMode.QCA, 2 * chunk + 100, 9,
                                    workers, lambda gen, m: (gen.random(), m)))
    assert [m for _, m in got] == [chunk, chunk, 100]
    assert [u for u, _ in got] == [
        simulate._chunk_stream(9, p, SimMode.QCA, i).generator().random()
        for i in range(3)]


def _draw_digest(params, mode, n, seed=11):
    """sha256 of one geometry draw with the residual computed: its four
    parts' bytes, then the rejected count and the repr of the zero-forcing
    residual."""
    out = _geometry_draw(params, RngStream(seed, 0).generator(), n,
                         perfect=mode is SimMode.PERFECT, residual=True)
    digest = hashlib.sha256()
    for part in out[:4]:
        digest.update(np.ascontiguousarray(part).tobytes())
    digest.update(f"{out[4]}|{out[5]!r}".encode())
    return digest.hexdigest(), out[4]


# One chunk per (mode, n_t) at bits = 4, outside the golden grid's
# n_t in {2, 3}.  Each chunk spans many blocks of the draw's per-trial
# steps (28 trials each at n_t = 24); the digests pin their bits, per SIMD
# target (tests/dispatch.py): FULL's sampler runs log1p, expm1 and power.
# The beams come through OpenBLAS's matmul and inverse, whose last bits
# follow its CPU kernel: the baseline entries are recorded under
# OPENBLAS_CORETYPE=Haswell, as CI's baseline step runs them.
DRAW_DIGESTS = {
    (SimMode.FULL, 5): {
        AVX512:
        "5decd7ecd74068d18952ea8129b99a09d3f868b1890cb2e6ab76cd7c700f006c",
        BASELINE:
        "b27832017c427e7fe37ec197f741c4509a4c9a61c1ac7c99bc295397298334f0"},
    (SimMode.FULL, 8): {
        AVX512:
        "59f304c47c1f009c3dfa9a19d0a8162feb7147f9f071c80d5160914c6acf351b",
        BASELINE:
        "4503313916dddce66994a00fdb9b1014afa0f1b27f3bea31491de189058f9fa2"},
    (SimMode.FULL, 24): {
        AVX512:
        "b8eb1b3b759d0ce4cf3c8a9081b52f98c4b3634bef901edd60bc6be2d43a8063",
        BASELINE:
        "2a41b2c734cdf6b5f0369efef11eb26f44d9380a72af210a4d5af076bf94ddce"},
    (SimMode.PERFECT, 5): {
        AVX512:
        "17baf3a89e979013b75447401b631e73b4107f8387992b9e8becc53ea01ea020",
        BASELINE:
        "4da43d37e3d0ba587c975e74ea5d0b4b532a749aa968e9f3f24879c6e8dcec3c"},
    (SimMode.PERFECT, 8): {
        AVX512:
        "b03d92361d028ef777195821e27a72cf5e1b99d4b20e2a981ef12303cfbc6b70",
        BASELINE:
        "394e0918f96fed47ad5676c5cd7d89530617458be214d954c240047708fcea76"},
    (SimMode.PERFECT, 24): {
        AVX512:
        "b2c89b46ea1709342b4066b908f2e51ef9a035123c14c1c4f317f74cf4878075",
        BASELINE:
        "7eb050a422aab3614449898c45deda1c7fd868c3a4fba00a73dedb5f413d453d"},
}


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the digests are recorded for x86-64's targets")
def test_simd_target_names_a_recorded_path():
    # In this process numpy runs one of the two recorded targets; with the
    # AVX-512 features disabled it takes the baseline loops.
    assert simd_target() in (AVX512, BASELINE)
    env = {**os.environ,
           "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    script = "import dispatch; print(dispatch.simd_target())"
    out = subprocess.run([sys.executable, "-c", script],
                         cwd=pathlib.Path(__file__).parent, env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == BASELINE


# The chunk lengths the digests were recorded at, fixed here so that a
# change of chunk size cannot move them.
DRAW_TRIALS = {5: 8_192, 8: 7_021, 24: 780}


@pytest.mark.digest
@pytest.mark.parametrize("mode,n_t", list(DRAW_DIGESTS))
def test_chunk_draw_bits_are_pinned(mode, n_t):
    params = SystemParams(n_t=n_t, bits=4, alpha=1.0, snr_db=10.0)
    digest, rejected = _draw_digest(params, mode, DRAW_TRIALS[n_t])
    assert rejected == 0
    assert digest == recorded(DRAW_DIGESTS[mode, n_t])


# A rank tolerance of 0.2 rejects about a quarter of the n_t = 5 sets, so
# 3,000 trials take several resample rounds, each over several blocks.
# Both SIMD targets reject the same sets; the digests are recorded as
# DRAW_DIGESTS' are.
FORCED_REJECTION_TOL = 0.2
REJECTION_DIGESTS = {
    SimMode.FULL: ({
        AVX512:
        "13dc95a54e257768577541936a0a874fcdc154c2f154bb2314a5843e28ab374e",
        BASELINE:
        "8b70067c09196fbeab16b7d3c11b8aa8de480b33786091e0cdacfc3926f931ba"},
        1147),
    SimMode.PERFECT: ({
        AVX512:
        "ee62f86b6a5d926f7140b5c9639edc82a2ba801dd5fa6c2232d65adc03e11ba7",
        BASELINE:
        "a37b021cf88c448d8cc5c1365bd18d49d989d758d1e694b2b6e05b0328cd20a6"},
        1207),
}


@pytest.mark.digest
@pytest.mark.parametrize("mode", list(REJECTION_DIGESTS))
def test_resampled_draw_bits_are_pinned(mode, monkeypatch):
    monkeypatch.setattr(simulate, "_BEAM_RANK_TOL", FORCED_REJECTION_TOL)
    params = SystemParams(n_t=5, bits=2, alpha=1.0, snr_db=10.0)
    digests, rejected = REJECTION_DIGESTS[mode]
    assert _draw_digest(params, mode, 3_000) == (recorded(digests), rejected)


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
        rounds.append((m, int((~_zf_inverse(cw)[2]).sum())))
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
    base = _geometry_draw(P55, RngStream(27, 0).generator(), 2_000,
                          residual=True)
    phases = RngStream(27, 1).generator()

    def rotated(h_dir, bits, gen):
        cw = _rvq_directions(h_dir, bits, gen)
        return cw * np.exp(2j * np.pi * phases.random(cw.shape[:2]))[..., None]

    monkeypatch.setattr(simulate, "_rvq_directions", rotated)
    turned = _geometry_draw(P55, RngStream(27, 0).generator(), 2_000,
                            residual=True)
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
        lambda gen, m: [part.T for part in
                        _draw_parts(params, SimMode.FULL, gen, m)[:4]]))]
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
    beams, ok = inverse_beams(dirs)
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
    est = estimate_secrecy_rates([p], SimMode.QCA, 100_000, seed=6)[0]
    assert abs(est.mean) <= 3.0 * est.std_err


def test_qca_estimate_matches_closed_form():
    est = estimate_secrecy_rates([P55], SimMode.QCA, 200_000, seed=11)[0]
    assert abs(est.mean - secrecy_rate_closed_form(P55)) < 3.0 * est.std_err


@pytest.mark.parametrize("seed", [20250, 7])
@pytest.mark.parametrize("n_t", [2, 3, 4])
def test_pair_floor_moves_estimates_only_statistically(n_t, seed,
                                                       monkeypatch):
    # Below n_t = 5 the pair floor moved the chunk boundaries, and with them
    # the substreams.  QCA estimates still meet the closed form at 4 sigma.
    # FULL and PERFECT have no closed form they meet, so they meet, at 4
    # combined sigma, their estimates under the 8,192-trial rule.
    points = [SystemParams(n_t=n_t, bits=4, alpha=a, snr_db=s)
              for a in (0.5, 1.0) for s in (0.0, 10.0)]
    qca = estimate_secrecy_rates(points, SimMode.QCA, 60_000, seed)
    for p, est in zip(points, qca):
        closed = secrecy_rate_closed_form(p)
        assert abs(est.mean - closed) < 4.0 * est.std_err, (p, est, closed)
    modes = (SimMode.FULL, SimMode.PERFECT)
    new = [estimate_secrecy_rates(points, mode, 24_000, seed)
           for mode in modes]
    monkeypatch.setattr(simulate, "_CHUNK_PAIRS", 0)
    assert chunk_trials(points[0], SimMode.FULL) == 8_192
    for mode, ours in zip(modes, new):
        old = estimate_secrecy_rates(points, mode, 24_000, seed)
        for p, a, b in zip(points, ours, old):
            assert a.mean != b.mean  # the substreams really moved
            assert abs(a.mean - b.mean) < 4.0 * math.hypot(
                a.std_err, b.std_err), (mode, p, a, b)


def test_worker_count_never_changes_results():
    for mode in (SimMode.QCA, SimMode.FULL):
        one = estimate_secrecy_rates([P55], mode, 30_000, seed=6,
                                     workers=1)[0]
        four = estimate_secrecy_rates([P55], mode, 30_000, seed=6,
                                      workers=4)[0]
        assert one.mean == four.mean
        assert one.std_err == four.std_err


def test_openblas_threads_and_kernel_never_change_results():
    # BLAS's dot sums a long row in per-thread parts, split by OpenBLAS's
    # thread count and kernel; the reduction's sums of squares take none.
    # n_t = 2 chunks hold 20,480 trials, long enough for OpenBLAS to
    # thread a dot over them.
    src = pathlib.Path(__file__).parent.parent / "src"
    script = (f"import sys; sys.path.insert(0, {str(src)!r}); "
              f"from zfsecrecy.params import SystemParams as P; "
              f"from zfsecrecy.simulate import SimMode, estimate_secrecy_rates; "
              f"print(estimate_secrecy_rates([P(n_t=2, bits=4, alpha=a, "
              f"snr_db=s) for a in (0.5, 1.0) for s in (0.0, 20.0)], "
              f"SimMode.QCA, 30_000, seed=3))")
    base = {k: v for k, v in os.environ.items()
            if not k.startswith("OPENBLAS_")}
    settings = [{"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"},
                {}]
    if platform.machine() in ("x86_64", "AMD64"):
        settings.append({"OPENBLAS_CORETYPE": "Haswell"})
    outputs = {subprocess.run([sys.executable, "-c", script],
                              env={**base, **extra}, capture_output=True,
                              text=True, check=True).stdout
               for extra in settings}
    assert len(outputs) == 1, outputs


def test_one_trial_has_zero_std_err():
    # One trial gives no spread to estimate: the standard error is 0.
    for mode in SimMode:
        est = estimate_secrecy_rates([P55], mode, 1, seed=4)[0]
        assert est.n_trials == 1 and math.isfinite(est.mean)
        assert est.std_err == 0.0


def test_std_err_scales_as_inverse_root_n():
    small = estimate_secrecy_rates([P55], SimMode.QCA, 20_000, seed=30)[0]
    large = estimate_secrecy_rates([P55], SimMode.QCA, 80_000, seed=31)[0]
    assert small.std_err / large.std_err == pytest.approx(2.0, rel=0.2)


@pytest.mark.parametrize("seed", [20250, 7])
@pytest.mark.parametrize("n_t", [2, 3, 5, 8])
def test_clipped_qca_estimates_match_the_clipped_quadrature(n_t, seed):
    # QCA draws each user's two SINRs independently, which the clipped
    # oracle assumes; FULL users' SINRs share their beams.
    points = [SystemParams(n_t=n_t, bits=b, alpha=a, snr_db=s)
              for b in (1, 4) for a in (0.5, 1.0) for s in (0.0, 10.0)]
    for p, est in zip(points, estimate_secrecy_rates(
            points, SimMode.QCA, 60_000, seed, clip=True)):
        want = rates_from_cdf_quadrature([p], clip=True)[0]
        assert abs(est.mean - want) < 4.0 * est.std_err, (p, est, want)


def test_clip_only_raises_the_mean():
    plain = estimate_secrecy_rates([P55], SimMode.QCA, 50_000, seed=32)[0]
    clipped = estimate_secrecy_rates([P55], SimMode.QCA, 50_000, seed=32,
                                     clip=True)[0]
    assert clipped.mean >= plain.mean


# Two alphas x three SNRs of one geometry; 13,653 + 347 trials, two chunks.
GRID6 = [SystemParams(n_t=3, bits=2, alpha=a, snr_db=s)
         for a in (0.5, 1.0) for s in (-10.0, 5.0, 30.0)]


@pytest.mark.parametrize("mode,options", [
    (SimMode.QCA, {}),
    (SimMode.FULL, {}),
    (SimMode.PERFECT, {}),
    (SimMode.QCA, {"clip": True}),
])
def test_shared_draws_reproduce_each_single_point_estimate(mode, options):
    single = [estimate_secrecy_rates([p], mode, 14_000, seed=12,
                                     **options)[0] for p in GRID6]
    assert len(set(single)) == len(GRID6)  # the points really differ
    for workers in (1, 2, 4):
        assert estimate_secrecy_rates(GRID6, mode, 14_000, seed=12,
                                      workers=workers, **options) == single
    shuffled = [GRID6[i] for i in (4, 0, 5, 2, 1, 3)]
    assert estimate_secrecy_rates(shuffled, mode, 14_000, seed=12, workers=2,
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


def _log2_group_sums(factors, g):
    """Each trial's sum of log2 over the K columns of ``factors`` (n, K) as
    the engine forms it: the product of each g consecutive columns,
    multiplied column by column from the group's first in the factors'
    dtype, then the groups' log2, widened to float64, added one after
    another."""
    total = None
    for start in range(0, factors.shape[1], g):
        product = factors[:, start].copy()
        for column in factors[:, start + 1:start + g].T:
            product *= column
        log = np.log2(product).astype(float)
        total = log if total is None else total + log
    return total


def _product_sums(legit, eav, clip, groups):
    """The engine's per-trial rate from both links' (n, K) factors
    1 + SINR, multiplied in groups of ``groups`` = (legitimate,
    eavesdropper) users: the difference of the links' log2 sums, or under
    ``clip`` the log2 sum of the per-user ratios, each at least 1, in the
    legitimate link's groups."""
    g_legit, g_eav = groups
    if clip:
        return _log2_group_sums(np.maximum(legit / eav, 1.0), g_legit)
    return _log2_group_sums(legit, g_legit) - _log2_group_sums(eav, g_eav)


def _link_sums(legit, eav, clip, groups=None):
    """The per-trial rate of the per-user log-sum reduction the product
    form replaced: the users' log2 terms summed user by user, minus the
    eavesdropper's, or under ``clip`` the sum of the per-user positive
    parts.  ``groups`` is ignored."""
    legit, eav = np.log2(legit), np.log2(eav)
    if clip:
        return _user_sums(np.maximum(legit - eav, 0.0))
    return _user_sums(legit) - _user_sums(eav)


def _pairwise_sums(legit, eav, clip, groups=None):
    """The per-trial rate summed as before per-link sums: each trial's K
    log2 differences (positive parts under ``clip``) by numpy's pairwise
    ``sum(axis=1)``.  ``groups`` is ignored."""
    per_user = np.log2(legit) - np.log2(eav)
    if clip:
        per_user = np.maximum(per_user, 0.0)
    return per_user.sum(axis=1)


def _oracle_factors(num, den, noise, scale, float32):
    """One link's (n, K) factors 1 + num / (den * scale + noise) and the
    users per product, as the engine takes them: of the kind
    :func:`simulate._term_kind` gives the link's term for the chunk's
    largest numerator and part.  With ``float32``, a float32 kind rounds
    the parts, the scale and the noise to float32 and does the arithmetic
    there (all K users in one product); every other term is float64."""
    k, top = num.shape[1], num.max()
    dtype, group = simulate._term_kind(k, top, max(top, den.max()), noise)
    if float32 and dtype is np.float32:
        f32 = np.float32
        return (1.0 + num.astype(f32) / (den.astype(f32) * f32(scale)
                                         + f32(noise)), group)
    return 1.0 + num / (den * scale + noise), group


def _per_point_moments(points, scales, clip, rates, float32):
    """The plain per-point reduction, two fresh factor passes per point:
    the oracle for the engine's grouped, stacked, in-place one.  It copies
    the engine's user-major parts to C-ordered (n, K) arrays, scales the
    users' interference by each point's ``scales`` entry and forms each
    trial's rate with ``rates`` (:func:`_product_sums`, :func:`_link_sums`
    or :func:`_pairwise_sums`) from :func:`_oracle_factors`."""

    def moments(parts):
        legit_num, legit_den, eav_num, eav_den = (
            np.ascontiguousarray(part.T) for part in parts[:4])
        rejected = parts[4]
        out = np.empty((len(points), 2))
        for row, p, scale in zip(out, points, scales):
            (legit, g_legit), (eav, g_eav) = (
                _oracle_factors(legit_num, legit_den, p.noise_over_power,
                                scale, float32),
                _oracle_factors(eav_num, eav_den, p.eav_noise_over_power,
                                1.0, float32))
            per_trial = rates(legit, eav, clip, (g_legit, g_eav))
            row[:] = per_trial.sum(), np.square(per_trial).sum()
        return out, rejected

    return moments


def _oracle_estimates(points, mode, n, seed, clip, rates=_product_sums,
                      float32=True):
    """RateEstimates of :func:`_per_point_moments` at ``points``: one chunk
    loop per draw, FULL's at each feedback budget's own params, QCA's and
    PERFECT's at bits 0, and in QCA each point scales the unit-scale
    interference by its own distortion, bit for bit its own draw's
    (test_gamma_scale_is_a_product_with_the_unit_draw).  The unclipped
    QCA rate takes the shared draw, whose eavesdropper parts are the
    users' unit-scale ones.  ``float32`` False takes every factor in
    float64."""
    by_bits = {}
    for row, p in enumerate(points):
        by_bits.setdefault(p.bits if mode is SimMode.FULL else 0,
                           []).append(row)
    estimates = [None] * len(points)
    for bits, rows in by_bits.items():
        group = [points[row] for row in rows]
        scales = [p.distortion if mode is SimMode.QCA else 1.0
                  for p in group]
        draw = SystemParams(n_t=group[0].n_t, bits=bits, alpha=1.0,
                            snr_db=0.0)
        moments = _per_point_moments(group, scales, clip, rates, float32)
        shared = mode is SimMode.QCA and not clip
        sums, rejected = np.zeros((len(group), 2)), 0
        for chunk_sums, chunk_rejected in simulate._map_chunks(
                draw, mode, n, seed, 1, lambda gen, m: moments(
                    simulate._draw_parts(draw, mode, gen, m, shared))):
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
def test_per_link_sums_change_only_rounding(n_t, mode, clip, monkeypatch):
    # The engine's float64 terms sum each link's terms over the users and
    # subtract the sums; before, it summed each trial's K differences
    # pairwise.  The two orders may differ in the last bits of a sum, never
    # beyond.  A product bound of 0 bits leaves no term to float32.
    points = _reduction_grid(n_t)
    n = 9_000 if mode is SimMode.QCA else 1_500
    monkeypatch.setattr(simulate, "_F32_PRODUCT_BITS", 0)
    engine = estimate_secrecy_rates(points, mode, n, seed=14, clip=clip)
    assert engine == _oracle_estimates(points, mode, n, 14, clip,
                                       float32=False)
    pairwise = _oracle_estimates(points, mode, n, 14, clip, _pairwise_sums,
                                 float32=False)
    for got, old in zip(engine, pairwise):
        assert (got.n_trials, got.rejected) == (old.n_trials, old.rejected)
        assert math.isclose(got.mean, old.mean, rel_tol=1e-13), (got, old)
        assert math.isclose(got.std_err, old.std_err, rel_tol=1e-13), (
            got, old)


# The product reduction moves a per-trial rate by rounding only.  Take T =
# sum_k log2 f_k >= 0 for each link, f_k = 1 + SINR_k >= 1, u a precision's
# unit roundoff (2**-53 in float64, 2**-24 in float32), and log2 within
# 8 u T + u of its result (4 ulp; an ulp of T is at most 2 u T):
# - per-user log sum: K logs, added in order: within (K + 8) u T + K u;
# - product: K / G products of G factors, each within (G - 1) u relative,
#   (G - 1) u / ln 2 in its log, then K / G logs added in order: within
#   (K + 8) u T + 1.45 K u.
# With both links, the final difference, or under clip the ratios (u / ln 2
# each in the log) and positive parts, a trial's rate moves by at most
# 3 (K + 5) u (2 + T_legit + T_eav) when both reductions take the same
# factors.  A float32 term takes them from float32 casts of the parts, the
# scale and the noise (each within u, or 2**-150 absolute below 2**-126),
# then rounds den * scale, + noise, the quotient q and + 1: q moves by at
# most 6.01 u q plus 2**-49 (every denominator is at least the noise,
# 2**-100), 1 + q by u more, so log2 f_k by (7.02 u + 2**-48) / ln 2, and
# the float64 factor it is held to by 3.01 u / ln 2 of float64's u.  So
# delta, the float32 u in the first part, plus 2K of these casts, bounds
# every term of either arithmetic (_reduction_delta).  A mean moves by at
# most the mean delta, plus the rounding of numpy's pairwise sum over the
# trials, (24 + log2 n) u of sum |r|, in each reduction; a sum of squares
# by sum delta (2 |r| + delta), plus n u of itself in each (any order),
# all in float64 (u = _U).
_U = 2.0 ** -53
_U32 = 2.0 ** -24


def _reduction_delta(k, log_sums):
    """The per-trial bound above for K users and ``log_sums`` (n,), each
    trial's T_legit + T_eav."""
    casts = 2 * k * (7.02 * _U32 + 2.0 ** -48 + 3.01 * _U) / math.log(2.0)
    return 3 * (k + 5) * _U32 * (2.0 + log_sums) + casts


def _assert_moved_by_rounding_only(got, old, r, delta, n):
    """``got`` within the bound above of ``old``, the RateEstimate of the
    log-sum per-trial rates ``r`` (n,) with per-trial bounds ``delta``."""
    assert (got.n_trials, got.rejected) == (old.n_trials, old.rejected)
    assert math.isfinite(got.mean) and math.isfinite(got.std_err), got
    abs_r = np.abs(r).sum() + delta.sum()  # bounds both reductions' sum |r|
    mean_bound = ((delta.sum() + 2.0 * (24 + math.log2(n)) * _U * abs_r) / n
                  + 3.0 * _U * abs(old.mean))
    assert abs(got.mean - old.mean) <= mean_bound, (got, old, mean_bound)
    moved_sq = (delta * (2.0 * np.abs(r) + delta)).sum()
    sum_sq = r @ r + moved_sq
    var_bound = (moved_sq + 2.1 * n * _U * sum_sq
                 + n * (2.0 * abs(old.mean) + mean_bound) * mean_bound
                 + 8.0 * _U * (sum_sq + n * old.mean ** 2)) / (n - 1)
    # sqrt(a / n) - sqrt(b / n) = (a - b) / (n (sqrt(a / n) + sqrt(b / n)))
    spread = got.std_err + old.std_err
    se_bound = var_bound / (n * spread) + 4.0 * _U * old.std_err
    assert abs(got.std_err - old.std_err) <= se_bound, (got, old, se_bound)


def _assert_rounding_only_reduction(points, mode, n, seed):
    """Every estimate at ``points``, one chunk of n trials, against the
    per-user log-sum reduction of the same chunk, with and without clip.
    The unclipped QCA rate takes the shared draw: the 4-part draw's users'
    parts (its first two draws) for both links.  Returns the chunk's
    4-part draws, by draw key (:func:`simulate.draw_key`)."""
    assert n <= chunk_trials(points[0], mode)
    k = points[0].n_t
    by_key = {}
    for row, p in enumerate(points):
        by_key.setdefault(simulate.draw_key(p, mode), []).append(row)
    draws = {key: SystemParams(n_t=key[0], bits=key[1], alpha=1.0, snr_db=0.0)
             for key in by_key}
    drawn = {key: _draw_parts(draw, mode, simulate._chunk_stream(
                 seed, draw, mode, 0).generator(), n)
             for key, draw in draws.items()}
    for clip in (False, True):
        engine = estimate_secrecy_rates(points, mode, n, seed, clip=clip)
        for key, rows in by_key.items():
            parts = drawn[key]
            legit_num, legit_den, eav_num, eav_den = (
                np.ascontiguousarray(part.T) for part in parts[:4])
            if mode is SimMode.QCA and not clip:
                eav_num, eav_den = legit_num, legit_den
            for row in rows:
                p = points[row]
                scale = p.distortion if mode is SimMode.QCA else 1.0
                legit = 1.0 + legit_num / (legit_den * scale
                                           + p.noise_over_power)
                eav = 1.0 + eav_num / (eav_den + p.eav_noise_over_power)
                r = _link_sums(legit, eav, clip)
                old = simulate._rate_estimate(r.sum(), r @ r, n, parts[4])
                log_sums = (_user_sums(np.log2(legit))
                            + _user_sums(np.log2(eav)))
                _assert_moved_by_rounding_only(
                    engine[row], old, r, _reduction_delta(k, log_sums), n)
    return drawn


@pytest.mark.parametrize("n_t", [2, 5, 8, 16, 64])
@pytest.mark.parametrize("mode", list(SimMode))
def test_product_reduction_changes_only_rounding(n_t, mode):
    # Feedback budgets, alphas and SNRs from noise- to interference-limited
    # and beyond, where products of K factors would overflow (3000 dB
    # makes every group one user).
    points = [SystemParams(n_t=n_t, bits=b, alpha=a, snr_db=s)
              for b in (2, 12) for a in (0.3, 1.0, 3.0)
              for s in (-40.0, 0.0, 30.0, 100.0, 300.0, 3000.0)]
    n = min(chunk_trials(points[0], mode), 2_000)
    _assert_rounding_only_reduction(points, mode, n, seed=18)


def test_products_split_into_groups_where_they_would_overflow():
    # A factor is at most 1 + top / noise, so K factors overflow float64
    # once K log2(1 + top / noise) nears 1024: groups of G < K users then.
    # PERFECT leaves the users no interference, so its factors reach that
    # bound: at 30 dB, n_t = 64 still takes all its users in one product
    # (64 x 13.5 bits), n_t = 256 does not (77 x 12.9); at 100 dB n_t = 64
    # does not (27 x 36.8), and at 3000 dB no product holds two factors.
    cases = [(SimMode.PERFECT, 64, {30.0: 64, 100.0: 27}),
             (SimMode.PERFECT, 256, {30.0: 77})]
    cases += [(mode, 5, {3000.0: 1}) for mode in SimMode]
    for mode, n_t, groups in cases:
        points = [SystemParams(n_t=n_t, bits=4, alpha=a, snr_db=snr_db)
                  for snr_db in groups for a in (0.5, 1.0)]
        n = min(chunk_trials(points[0], mode), 2_000)
        num, den = _assert_rounding_only_reduction(points, mode, n, 19)[
            simulate.draw_key(points[0], mode)][:2]
        top = num.max()
        for snr_db, g in groups.items():
            noise = 10.0 ** (-snr_db / 10.0)
            assert simulate._term_kind(n_t, top, max(top, den.max()),
                                       noise) == (np.float64, g), (
                mode, n_t, snr_db)

    # The rule itself: no product of K factors whose bound stays below
    # 2**1000, else the most that do, and one factor at a zero or
    # subnormal noise.
    def group(k, top, noise):
        return simulate._term_kind(k, top, top, noise)[1]

    assert group(5, 10.0, 1e-3) == 5
    assert group(249, 15.0, 1.0) == 249  # 4 bits a factor
    assert group(250, 15.0, 1.0) == 250
    assert group(251, 15.0, 1.0) == 250
    assert group(8, 1.0, 1e-300) == 1
    assert group(8, 0.0, 1e-300) == 8
    assert group(8, 1.0, 5e-324) == 1
    assert group(8, 1.0, 0.0) == 1


def test_float32_terms_stay_inside_float32s_normal_range():
    # A float32 term's K factors, each at most 1 + top / noise, multiply to
    # below 2**120 (float32 ends at 2**128), and its noise and parts lie
    # within 2**-100 .. 2**100: 5 x 23.9 bits a factor is float32, 5 x 24
    # is not.  A float32 term takes all K users in one product.
    def term(*args):
        return simulate._term_kind(*args)[0] is np.float32

    assert simulate._term_kind(5, 2.0 ** 23.9 - 1.0, 1.0, 1.0) == (
        np.float32, 5)
    assert term(5, 2.0 ** 23.9 - 1.0, 1.0, 1.0)
    assert not term(5, 2.0 ** 24 - 1.0, 1.0, 1.0)
    assert term(120, 0.0, 0.0, 2.0 ** -100) and term(1, 0.0, 0.0, 2.0 ** 100)
    assert not term(1, 0.0, 0.0, 2.0 ** -101)
    assert not term(1, 0.0, 0.0, 2.0 ** 101)
    assert term(1, 1.0, 2.0 ** 100, 1.0) and not term(1, 1.0, 2.0 ** 101, 1.0)
    assert not term(1, 0.0, 0.0, 0.0)
    # The default rate-curve's numerators reach about 11, so at n_t = 5
    # its users' terms are float32 up to about 60 dB.
    assert term(5, 11.0, 11.0, 10.0 ** -6.0)
    assert not term(5, 11.0, 11.0, 10.0 ** -6.2)


def _recorded_kinds(monkeypatch):
    """The list that each simulate._term_kind result is appended to from
    now on."""
    kinds, term_kind = [], simulate._term_kind

    def recorded(*args):
        kinds.append(term_kind(*args))
        return kinds[-1]

    monkeypatch.setattr(simulate, "_term_kind", recorded)
    return kinds


# Terms outside float32's range keep the float64 arithmetic: at 3000 dB no
# term of any mode is float32, nor at 100 dB any of PERFECT at n_t = 64.
# Every estimate equals the float64 reduction's (the oracle) bit for bit,
# and these are its values, recorded on both SIMD targets
# (tests/dispatch.py) with each chunk's stream keyed by its draw key
# (simulate._chunk_stream), the baseline ones under OPENBLAS_CORETYPE=
# Haswell.  FULL's differ between the targets in their last digit (its
# sampler's log1p, expm1 and power, and OpenBLAS's kernel), and so does
# PERFECT's clipped one at n_t = 64 (OpenBLAS's kernel: the float64 parts
# come through its matmul and inverse); the others are one value for both.
FLOAT64_ESTIMATES = {
    (SimMode.FULL, 5, 3000.0, False):
        {AVX512: [(1.2045899424041893, 0.021027552509101207)] * 2,
         BASELINE: [(1.2045899424041893, 0.021027552509101204)] * 2},
    (SimMode.FULL, 5, 3000.0, True):
        {AVX512: [(1.637573026366365, 0.018726613593793715)] * 2,
         BASELINE: [(1.637573026366365, 0.01872661359379371)] * 2},
    (SimMode.QCA, 5, 3000.0, False):
        [(1.250921203264531, 0.007690205580159046)] * 2,
    (SimMode.QCA, 5, 3000.0, True):
        [(1.8981433903313378, 0.02086603586232053)] * 2,
    (SimMode.PERFECT, 5, 3000.0, False):
        [(4977.075961485756, 0.1346546800347689)] * 2,
    (SimMode.PERFECT, 5, 3000.0, True):
        [(4977.075961485756, 0.1346546800347689)] * 2,
    (SimMode.PERFECT, 64, 100.0, False):
        [(2067.066908811419, 6.745011699642865),
         (2067.0669088114078, 6.745011699643309)],
    (SimMode.PERFECT, 64, 100.0, True):
        {AVX512: [(2067.066908811419, 6.745011699642643),
                  (2067.0669088114078, 6.745011699643309)],
         BASELINE: [(2067.066908811419, 6.745011699643087),
                    (2067.0669088114078, 6.745011699643309)]},
}
# Trials per case: two n_t = 64 chunks, of 167 and 33 trials.
FLOAT64_TRIALS = {5: 3_000, 64: 200}


@pytest.mark.digest
@pytest.mark.parametrize("case", list(FLOAT64_ESTIMATES),
                         ids=lambda c: f"{c[0].name}-{c[1]}-{c[2]:g}dB-{c[3]}")
def test_float64_terms_are_bit_identical_to_the_float64_reduction(
        case, monkeypatch):
    mode, n_t, snr_db, clip = case
    points = [SystemParams(n_t=n_t, bits=4, alpha=a, snr_db=snr_db)
              for a in (0.5, 1.0)]
    n = FLOAT64_TRIALS[n_t]
    oracle = _oracle_estimates(points, mode, n, 21, clip, float32=False)
    kinds = _recorded_kinds(monkeypatch)
    got = estimate_secrecy_rates(points, mode, n, seed=21, workers=2,
                                 clip=clip)
    assert kinds and all(dtype is np.float64 for dtype, _ in kinds)
    assert got == oracle
    want = FLOAT64_ESTIMATES[case]
    assert [(e.mean, e.std_err) for e in got] == recorded(
        want if isinstance(want, dict) else dict.fromkeys((AVX512, BASELINE),
                                                          want))


@pytest.mark.parametrize("mode", list(SimMode))
@pytest.mark.parametrize("clip", [False, True])
def test_stack_size_and_workers_move_no_bit(mode, clip, monkeypatch):
    # Every stage is elementwise, or a product over one level's own users,
    # so a term's bits do not depend on the levels stacked with it; and
    # chunks come back in order whatever the worker count.  Stacks of 1, 2
    # and _STACK_LEVELS, over two QCA chunks on one and two workers (one
    # chunk in FULL and PERFECT), on the shared-noise grid, whose terms are
    # float32, and at 2990 and 3000 dB, where every kind is float64 and
    # stacks hold at most 2 levels.
    high = [SystemParams(n_t=5, bits=b, alpha=a, snr_db=s)
            for b in (0, 2, 6) for a in (0.3, 1.0, 3.0)
            for s in (2990.0, 3000.0)]
    kinds = _recorded_kinds(monkeypatch)
    estimate_secrecy_rates(high, mode, 100, seed=23, clip=clip)
    assert kinds and all(dtype is np.float64 for dtype, _ in kinds)
    qca = mode is SimMode.QCA
    n = chunk_trials(P55, mode) + 700 if qca else 1_500
    for points in (_shared_noise_grid(5), high):
        runs = []
        for levels in (1, 2, simulate._STACK_LEVELS):
            monkeypatch.setattr(simulate, "_STACK_LEVELS", levels)
            for workers in (1, 2) if qca else (1,):
                runs.append(estimate_secrecy_rates(
                    points, mode, n, seed=23, workers=workers, clip=clip))
        assert all(run == runs[0] for run in runs[1:])


# --------------------------------------------------------------------------
# Row and column norms over float64 views
# --------------------------------------------------------------------------

def _linalg_squared_norms(x, axis):
    """Oracle for ``simulate._squared_norms``: np.linalg.norm of the complex
    array, squared."""
    return np.linalg.norm(x, axis=axis) ** 2


def test_norms_accept_any_layout():
    # Each way a norm is within (2K + 1) u of the exact one: 2K squares and
    # 2K - 1 additions of non-negative terms, in any order, then a sqrt.
    x = complex_gaussian_batch(RngStream(41, 0).generator(), (9, 4, 4))
    swapped = np.swapaxes(x, 1, 2)  # strided last axis: no float64 view
    with pytest.raises(ValueError):
        swapped.view(float)
    for axis in (1, 2):
        got = simulate._squared_norms(x, axis)
        np.testing.assert_allclose(np.sqrt(got), np.linalg.norm(x, axis=axis),
                                   rtol=2 * 9 * _U, atol=0)
        assert np.array_equal(
            simulate._squared_norms(swapped, axis),
            simulate._squared_norms(np.ascontiguousarray(swapped), axis))
        assert np.array_equal(simulate._squared_norms(x[::2], axis),
                              got[::2])


def _norm_gate_bounds(params, mode, seed, n, dirs):
    """Bounds on how far each SINR part of one rejection-free chunk moves
    when only the draw's norms change by rounding: (users' parts,
    eavesdropper's parts), each (n, K).  They are computed from the
    chunk's replayed draws and ``dirs`` (n, K, K), the direction sets the
    oracle built its beams from.  u is float64's unit roundoff.

    - A norm either way is within nu = (2K + 1) u of the exact one, so a
      unit row moves by at most delta = 2 nu + 2 u, in norm.
    - PERFECT: each direction moves by delta.  FULL: the projection of e
      off the unit channel moves by at most (2 delta + (4K + 8) u) |e|,
      twice that relative to |e_perp| once scaled to sqrt(z), and the rest
      by delta: eta = 2 sqrt(z) (2 delta + (4K + 8) u) |e| / |e_perp|
      + 2 delta per direction.
    - The inverse A of the set D moves by at most
      |A|_F^2 eta_F / (1 - |A|_F eta_F) (eta_F = |dD|_F), plus each
      inverse's own rounding, taken as K^2 kappa_F u |A|_F with
      kappa_F = |D|_F |A|_F = sqrt(K) |A|_F (LU with partial pivoting;
      the K^2 covers its growth factor at these sizes).
    - A beam, column i of A normalized, moves by eps = 2 |dA|_F / |a_i|
      + 2 nu + 4 u; a gain |x^H w|^2 by (2 + eps) eps |x|^2, plus
      (4K + 6) u |x|^2 of rounding in each draw; a part is at most K
      gains and their sum, within (K + 1) K u |x|^2 each way (the K gains
      of x add to at most K |x|^2: the beams are unit rows).
    So a part moves by at most K ((2 + eps) eps + (10K + 14) u) |x|^2,
    x the user's channel h_k or the eavesdropper's g.
    """
    k = params.n_t
    nu = (2 * k + 1) * _U
    delta = 2 * nu + 2 * _U
    gen = simulate._chunk_stream(seed, params, mode, 0).generator()
    h = complex_gaussian_batch(gen, (n, k, k))
    g = complex_gaussian_batch(gen, (n, k))
    if mode is SimMode.PERFECT:
        eta = np.full((n, k), delta)
    else:
        z = -np.expm1(2.0 ** -params.bits * np.log1p(-gen.random((n, k))))
        z **= 1.0 / (k - 1)
        e = complex_gaussian_batch(gen, (n, k, k))
        h_dir = h / np.linalg.norm(h, axis=2, keepdims=True)
        along = np.einsum("tkn,tkn->tk", np.conj(h_dir), e)[..., None] * h_dir
        lean = np.linalg.norm(e, axis=2) / np.linalg.norm(e - along, axis=2)
        eta = (2.0 * np.sqrt(z) * (2 * delta + (4 * k + 8) * _U) * lean
               + 2 * delta)
    eta_f = np.sqrt((eta ** 2).sum(axis=1))
    inv = np.linalg.inv(dirs)
    inv_f = np.linalg.norm(inv, axis=(1, 2))
    assert (inv_f * eta_f < 0.5).all()
    moved_inv = (inv_f ** 2 * eta_f / (1.0 - inv_f * eta_f)
                 + 2 * k ** 2.5 * inv_f ** 2 * _U)
    eps = (2.0 * moved_inv / np.linalg.norm(inv, axis=1).min(axis=1)
           + 2 * nu + 4 * _U)
    per_gain = (k * ((2.0 + eps) * eps + (10 * k + 14) * _U))[:, None]
    return (per_gain * np.linalg.norm(h, axis=2) ** 2,
            per_gain * np.linalg.norm(g, axis=1)[:, None] ** 2)


def _log2_factor_moved(num, den, noise, moved):
    """Bound on |log2 f' - log2 f| for f = 1 + num / (den + noise) >= 1
    when num and den each move by at most ``moved``: |f' - f| / ln 2."""
    floor = den + noise - moved
    assert (floor > 0).all()
    return ((moved * (den + noise) + (num + moved) * moved)
            / ((den + noise) * floor * math.log(2.0)))


@pytest.mark.parametrize("n_t", [2, 5, 8])
@pytest.mark.parametrize("mode,bits", [(SimMode.FULL, 2), (SimMode.FULL, 12),
                                       (SimMode.PERFECT, 0)])
def test_real_view_norms_change_only_rounding(n_t, mode, bits, monkeypatch):
    # The engine takes row and column norms as sums of squares over float64
    # views; the oracle is the same engine with np.linalg.norm.  Every part
    # stays within _norm_gate_bounds of the oracle's, and every estimate,
    # with and without clip, within the rounding gate of the per-user
    # log-sum reduction of the oracle's parts, each trial's rate allowed
    # the reduction's own delta plus what its parts' bounds move it by.
    points = [SystemParams(n_t=n_t, bits=bits, alpha=a, snr_db=s)
              for a in (0.5, 1.0) for s in (-10.0, 10.0, 30.0)]
    params, seed = points[0], 33
    n = min(chunk_trials(params, mode), 2_000)
    stream = simulate._chunk_stream(seed, params, mode, 0)
    engine = _draw_parts(params, mode, stream.generator(), n)
    rates = {clip: estimate_secrecy_rates(points, mode, n, seed, clip=clip)
             for clip in (False, True)}
    dirs, zf_inverse = [], simulate._zf_inverse

    def recorded(point_dirs):
        dirs.append(point_dirs.copy())
        return zf_inverse(point_dirs)

    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_squared_norms", _linalg_squared_norms)
        patch.setattr(simulate, "_zf_inverse", recorded)
        oracle = _draw_parts(params, mode, stream.generator(), n)
    assert engine[4] == oracle[4] == 0
    legit_moved, eav_moved = _norm_gate_bounds(params, mode, seed, n,
                                               np.concatenate(dirs))
    moved = False
    for ours, theirs, bound in zip(engine[:4], oracle[:4], (
            legit_moved, legit_moved, eav_moved, eav_moved)):
        gap = np.abs(ours - theirs).T
        assert (gap <= bound).all(), (gap / bound).max()
        moved |= not np.array_equal(ours, theirs)
    assert moved  # the gate holds something

    k = n_t
    legit_num, legit_den, eav_num, eav_den = (
        np.ascontiguousarray(part.T) for part in oracle[:4])
    for clip, estimates in rates.items():
        for p, got in zip(points, estimates):
            legit = 1.0 + legit_num / (legit_den + p.noise_over_power)
            eav = 1.0 + eav_num / (eav_den + p.eav_noise_over_power)
            r = _link_sums(legit, eav, clip)
            old = simulate._rate_estimate(r.sum(), r @ r, n, 0)
            parts_moved = _user_sums(
                _log2_factor_moved(legit_num, legit_den, p.noise_over_power,
                                   legit_moved)
                + _log2_factor_moved(eav_num, eav_den,
                                     p.eav_noise_over_power, eav_moved))
            reduction = _reduction_delta(k, _user_sums(np.log2(legit))
                                         + _user_sums(np.log2(eav)))
            _assert_moved_by_rounding_only(got, old, r,
                                           parts_moved + reduction, n)


@pytest.mark.parametrize("mode", list(REJECTION_DIGESTS))
def test_real_view_norms_move_no_rejected_count(mode, monkeypatch):
    # The beam rank test reads the column norms: at a tolerance that
    # rejects about a quarter of the sets, the engine and the
    # np.linalg.norm oracle still reject the same ones, round after round.
    monkeypatch.setattr(simulate, "_BEAM_RANK_TOL", FORCED_REJECTION_TOL)
    params = SystemParams(n_t=5, bits=2, alpha=1.0, snr_db=10.0)
    counts = []
    for norms in (simulate._squared_norms, _linalg_squared_norms):
        monkeypatch.setattr(simulate, "_squared_norms", norms)
        counts.append([_draw_parts(params, mode, RngStream(seed, 0).generator(),
                                   3_000)[4] for seed in (11, 12, 13)])
    assert counts[0] == counts[1]
    assert counts[0][0] == REJECTION_DIGESTS[mode][1]


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


@pytest.mark.parametrize("mode", list(SimMode))
@pytest.mark.parametrize("clip", [False, True])
def test_mixed_float32_and_float64_terms_match_per_point_oracle(mode, clip):
    # At 150 dB the users' terms leave float32's range, and at 10 dB they
    # stay in it; alpha 1e-5 and 1e5 put the eavesdropper's on the other
    # side, so points pair a float64 term with a float32 one both ways.
    points = [SystemParams(n_t=5, bits=2, alpha=a, snr_db=s)
              for s in (10.0, 150.0) for a in (1e-5, 1.0, 1e5)]
    n = 9_000 if mode is SimMode.QCA else 1_500
    parts = _draw_parts(points[0], mode, simulate._chunk_stream(
        24, points[0], mode, 0).generator(), min(n, chunk_trials(points[0],
                                                                 mode)))
    sides = set()
    for p in points:
        sides.add(tuple(
            simulate._term_kind(5, num.max(), max(num.max(), den.max()),
                                noise)[0] is np.float32
            for num, den, noise in ((parts[0], parts[1], p.noise_over_power),
                                    (parts[2], parts[3],
                                     p.eav_noise_over_power))))
    assert {(True, False), (False, True)} <= sides
    assert estimate_secrecy_rates(points, mode, n, seed=24, workers=2,
                                  clip=clip) == _oracle_estimates(
        points, mode, n, 24, clip)


def _count_sinr_calls(monkeypatch, points, n, clip=False):
    """(calls, noise levels) of simulate._sinr in one estimate_secrecy_rates
    run: a float32 stack passes a column of levels, a float64 term one."""
    calls = []

    def counted(num, den, noise, out=None):
        calls.append(np.size(noise))
        return _sinr(num, den, noise, out)

    monkeypatch.setattr(simulate, "_sinr", counted)
    estimate_secrecy_rates(points, SimMode.QCA, n, seed=16, clip=clip)
    return len(calls), sum(calls)


def test_each_eavesdropper_noise_level_is_computed_once_per_chunk(
        monkeypatch):
    # Two chunks of one QCA key shaped like the default validate's:
    # 4 budgets x 3 alphas x 4 SNRs.  Each chunk computes the users' term
    # once per (distortion, SNR), 16, and the eavesdropper's once per
    # noise level, 12, where one eavesdropper term per point makes 64.
    # Both links take the shared draw, and at alpha 1 the eavesdropper's
    # level is the users' term at distortion 1 of its SNR, computed once:
    # 16 + 8 = 24 terms, 6 an SNR.  A block takes two SNRs' 12 terms, the
    # 6 at scale 1 first, in 3 stacks of 4.
    n = chunk_trials(P55, SimMode.QCA) + 8
    verify = [SystemParams(n_t=5, bits=b, alpha=a, snr_db=s)
              for b in (0, 1, 4, 8) for a in (0.25, 0.5, 1.0)
              for s in (-10.0, 0.0, 10.0, 20.0)]
    assert _count_sinr_calls(monkeypatch, verify, n) == (
        2 * (4 + 2), 2 * (16 + 8))
    # The default rate-curve's key shares no noise level: 21 SNRs, one
    # users' term each, and one eavesdropper term per point, 63.  A block
    # takes three SNRs' 12 terms, the 9 eavesdropper ones first, in 3
    # stacks of 4: 21 stacks.  Both chunks follow one plan, built once.
    curve = [SystemParams(n_t=5, bits=4, alpha=a, snr_db=s)
             for a in (0.25, 0.5, 1.0) for s in range(-10, 31, 2)]
    assert len({p.eav_noise_over_power for p in curve}) == 63
    plans = _recorded_plans(monkeypatch)
    assert _count_sinr_calls(monkeypatch, curve, n) == (
        2 * 21, 2 * (21 + 63))
    assert len(plans) == 1


def _recorded_plans(monkeypatch):
    """The list that the kinds of each plan simulate._block_plan builds are
    appended to from now on."""
    plans, block_plan = [], simulate._block_plan

    def recorded(members, eav_part, kinds, k, clip):
        plans.append(tuple(kinds.values()))
        return block_plan(members, eav_part, kinds, k, clip)

    monkeypatch.setattr(simulate, "_block_plan", recorded)
    return plans


@pytest.mark.parametrize("clip", [False, True])
def test_chunks_of_other_kinds_follow_plans_of_their_own(clip, monkeypatch):
    # Near 62 dB at n_t = 5 a term is float32 or float64 as its chunk's
    # largest numerator falls: the four chunks of seed 25 take 4 kinds of
    # plan, with and without clip, each built once, and every estimate is
    # the oracle's bit for bit.  (The chunks' streams decide the count:
    # keyed by (seed, chunk) alone they took 2, and 3 under clip.)
    points = [SystemParams(n_t=5, bits=2, alpha=a, snr_db=s)
              for s in (61.5, 62.0, 62.5) for a in (0.5, 1.0)]
    n = 3 * chunk_trials(P55, SimMode.QCA) + 100
    oracle = _oracle_estimates(points, SimMode.QCA, n, 25, clip)
    plans = _recorded_plans(monkeypatch)
    assert estimate_secrecy_rates(points, SimMode.QCA, n, seed=25,
                                  clip=clip) == oracle
    assert len(plans) == 4 == len(set(plans))


def _held_in_arrays(monkeypatch, run) -> int:
    """The most bytes numpy's arrays hold (its own tracemalloc domain)
    while run() reduces a chunk, read after every log2 stage
    (simulate._log2_products) at which the traced total reaches a new
    high: a stack's, and under clip a point's, when a block's terms, the
    scratch and the parts' copies are all alive.  tracemalloc must be
    tracing."""
    held, total, log2_products = [0], [0], simulate._log2_products

    def sampled(*args):
        out = log2_products(*args)
        if tracemalloc.get_traced_memory()[0] > total[0]:
            total[0] = tracemalloc.get_traced_memory()[0]
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
            held[0] = max(held[0], sum(t.size for t in snapshot.traces))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_log2_products", sampled)
        run()
    return held[0]


def test_live_eavesdropper_terms_stay_within_their_bound(monkeypatch):
    # 40 alphas x 3 budgets at one SNR: each of 40 eavesdropper terms
    # serves three groups, but a block holds at most the bytes of the
    # larger of _BLOCK_TERM_ROWS = 2 (K, n) float64 arrays and three
    # float32 stacks' sums: 12 (n,) sums, or under clip 4 (K, n) float32
    # factors (5 would take 100 of the 96 bytes a trial).
    points = [SystemParams(n_t=5, bits=b, alpha=0.1 + 0.05 * i, snr_db=0.0)
              for b in (0, 1, 3) for i in range(40)]
    n = chunk_trials(P55, SimMode.QCA)  # one chunk
    key = SystemParams(n_t=5, bits=0, alpha=1.0, snr_db=0.0)
    drawn = {shared: _draw_parts(key, SimMode.QCA, simulate._chunk_stream(
                 17, key, SimMode.QCA, 0).generator(), n, shared=shared)
             for shared in (False, True)}
    array = drawn[False][0].nbytes
    # Beyond the drawn parts, which the patched draw keeps alive, the
    # reduction holds float32 copies of the parts, its scratch, a block's
    # terms and (n,) rows, 1/K of an array each: the per-trial sums and
    # the float32 products (3 rows).  Without clip both links take the
    # shared draw's one pair of copies (1 array), the scratch holds a
    # stack's factors (2) and a block its 12 sums (2.4): 6.0.  Under clip
    # each link has its copies (2), the scratch the ratios (1) and a block
    # 4 float32 factors (2): 5.6.  The bounds are those of the layout
    # before blocks, kept: 6.4 and 6.6, and 128 KiB for small objects.
    # Measured, in arrays of 320 KiB: 6.36, and 5.88 under clip.
    # SINR passes: the grid is one run of 120 points, whose 42 distinct
    # terms (the level of alpha 1, i = 18, is the users' term at bits 0
    # without clip) overflow a block, so it is cut point by point.
    # Without clip into 11 blocks of 12 terms, 3 stacks of 4 each; under
    # clip into 41 blocks of at most 4 terms, two stacks each, one of the
    # users' factors and one of the eavesdropper's.
    for clip, arrays, passes in ((False, 6.4, (33, 132)),
                                 (True, 6.6, (82, 162))):
        oracle = _oracle_estimates(points, SimMode.QCA, n, 17, clip)
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_draw_parts",
                          lambda params, mode, gen, m, shared: drawn[shared])
            tracemalloc.start()
            try:
                shared = estimate_secrecy_rates(points, SimMode.QCA, n,
                                                seed=17, clip=clip)
                peak = tracemalloc.get_traced_memory()[1]
                # Ten times the alphas hold no more in arrays: the plan
                # cuts the wider run into more blocks of the same budget.
                # Its 1,200 points' Python objects (their members, plan
                # entries and output rows, about 500 B a point, as before
                # blocks) are no array a block holds.  Measured: 6.14, and
                # 5.74 under clip.
                wide = _held_in_arrays(patch, lambda: estimate_secrecy_rates(
                    [SystemParams(n_t=5, bits=b, alpha=0.1 + 0.005 * i,
                                  snr_db=0.0)
                     for b in (0, 1, 3) for i in range(400)],
                    SimMode.QCA, n, seed=17, clip=clip))
            finally:
                tracemalloc.stop()
            assert _count_sinr_calls(patch, points, n, clip) == passes, clip
        assert shared == oracle
        assert peak <= arrays * array + 2 ** 17, (clip, peak / array)
        assert wide <= arrays * array + 2 ** 17, (clip, wide / array)


def test_worker_cap_is_checked_before_any_pool_exists(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was created")

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_pool)
    # Three chunks: even without the cap at most three threads could start.
    n = 3 * chunk_trials(P55, SimMode.QCA)
    with pytest.raises(ValueError, match="workers"):
        estimate_secrecy_rates([P55], SimMode.QCA, n, seed=1,
                               workers=simulate.MAX_WORKERS + 1)


def test_full_chunks_are_sized_by_the_arrays_they_hold():
    # Sampled codewords add no codebook bytes, so bits never moves a chunk.
    # PERFECT holds the same K x K arrays as FULL.  Below n_t = 5 a chunk
    # holds the (trial, user) pairs of an n_t = 5 chunk, 40,960.
    for n_t, trials in ((2, 20_480), (3, 13_653), (4, 10_240), (5, 8_192),
                        (6, 8_192), (7, 8_192)):
        small = SystemParams(n_t=n_t, bits=4, alpha=1.0, snr_db=10.0)
        for mode in SimMode:
            assert chunk_trials(small, mode) == trials
    wide = SystemParams(n_t=64, bits=30, alpha=1.0, snr_db=10.0)
    for mode in (SimMode.FULL, SimMode.PERFECT):
        geometry_bytes = 16 * 64 ** 2 * chunk_trials(wide, mode)
        assert geometry_bytes <= simulate._CHUNK_TARGET_BYTES
    assert chunk_trials(wide, SimMode.QCA) == simulate._CHUNK_TRIALS
    # Past n_t = 69 the (K,) rows of a QCA chunk (4 parts, their float32
    # copies, 2 scratch rows and a block's terms) outgrow the target at
    # _CHUNK_TRIALS trials.
    rows = 8 + simulate._BLOCK_TERM_ROWS
    for n_t in (128, 256):
        qca = chunk_trials(SystemParams(n_t=n_t, bits=4, alpha=1.0,
                                        snr_db=10.0), SimMode.QCA)
        assert qca < simulate._CHUNK_TRIALS
        assert 8 * n_t * rows * qca <= simulate._CHUNK_TARGET_BYTES


def test_chunks_from_five_antennas_on_keep_the_byte_rule():
    # The pair floor binds below n_t = 5 only: from there on every mode's
    # chunk is the byte rule's, at most 8,192 trials of 11 (K,) float64
    # rows, plus 4.5 K x K complex arrays outside QCA, within 48 MiB.
    for n_t in range(5, MAX_NT + 1):
        params = SystemParams(n_t=n_t, bits=4, alpha=1.0, snr_db=10.0)
        for mode in SimMode:
            per_trial = 88 * n_t + (0 if mode is SimMode.QCA
                                    else 72 * n_t * n_t)
            assert chunk_trials(params, mode) == max(
                1, min(8_192, 48 * 2 ** 20 // per_trial)), (n_t, mode)


@pytest.mark.parametrize("mode,n_t", [
    *((mode, n_t) for mode in (SimMode.FULL, SimMode.PERFECT)
      for n_t in (2, 3, 5, 8, 24)),
    *((SimMode.QCA, n_t) for n_t in (2, 3, 5, 64, 128, 256)),
])
def test_one_chunk_stays_within_the_chunk_memory_target(mode, n_t):
    # One whole chunk, draw and rate reduction, and in QCA also under clip.
    # Each of 5 eavesdropper noise levels serves two points, so a block
    # holds as many terms as its budget takes.
    points = [SystemParams(n_t=n_t, bits=4, alpha=a, snr_db=10.0)
              for a in (0.25, 0.5, 0.75, 1.0, 1.5)] * 2
    n = chunk_trials(points[0], mode)
    for clip in (False, True) if mode is SimMode.QCA else (False,):
        tracemalloc.start()
        try:
            estimate_secrecy_rates(points, mode, n, seed=1, clip=clip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= simulate._CHUNK_TARGET_BYTES, (n, clip, peak)
        # A QCA chunk at n_t = 5 holds only (K, n) float64 rows' worth of
        # arrays: the float32 parts, the scratch, a block's terms and the
        # (n,) rows.  Measured with numpy 2.4 before the reduction took one
        # term path: 6.53, and 6.73 under clip; with it, 5.93 and 6.23.
        # The unclipped rate's shared draw holds one pair of parts and one
        # of float32 copies: 4.93; with block plans 4.94, and 6.03 under
        # clip.  More means some array is again made while the draw's
        # float64 parts are alive (7.62 with two links).
        if mode is SimMode.QCA and n_t == 5:
            rows = peak / (8 * n_t * n)
            assert rows <= (6.73 if clip else 4.93) + 0.1, (clip, rows)
    # chunk_trials budgets 4.5 K x K complex arrays per trial in FULL and
    # PERFECT on top of the (K,) rows.  The draw's per-trial steps run in
    # one pass over blocks, so beyond one block's temporaries a chunk holds
    # the (K, n) parts, h, g and, in FULL, the sampler's draw.  Measured
    # with numpy 2.4, rows included: FULL 4.36 at n_t = 2, 3.67 at 3, 3.20
    # at 5, 2.94 at 8, 2.65 at 24; PERFECT 3.26, 2.49, 1.90, 1.75, 1.58
    # (3.46, 2.63 and 1.97 at n_t 2, 3 and 5 while the gains came from
    # formed beams, not from the inverse).
    # The smaller n_t, the more the rows weigh: at n_t = 2 the parts alone
    # are one array.  A failure here means some step again spans the whole
    # chunk; a whole-round array of unit directions reads 3.80 (FULL) and
    # 2.84 (PERFECT) at n_t = 5, a block's pieces alive through the next
    # block 4.71 at n_t = 2, and the zero-forcing residual's temporaries
    # 4.51 there.
    if mode is not SimMode.QCA:
        arrays_per_trial = peak / (16 * n_t ** 2 * n)
        assert arrays_per_trial <= (4.4 if n_t == 2 else 4.5), (
            arrays_per_trial)
        if n_t >= 5:
            assert arrays_per_trial <= (3.4 if mode is SimMode.FULL
                                        else 2.2), arrays_per_trial


# Four (n_t, bits) geometries, two alphas x two SNRs each, in grid order,
# over two chunks at each n_t: 20,480 + 520 and 13,653 + 7,347 trials.
MIXED = [SystemParams(n_t=n_t, bits=b, alpha=a, snr_db=s)
         for n_t in (2, 3) for b in (0, 2) for a in (0.5, 1.0)
         for s in (-10.0, 10.0)]
MIXED_TRIALS = 21_000


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
        per_geometry += estimate_secrecy_rates(
            MIXED[i:i + 4], mode, MIXED_TRIALS, seed=12, **options)
    for workers in (1, 2, 4):
        assert estimate_secrecy_rates(MIXED, mode, MIXED_TRIALS, seed=12,
                                      workers=workers, **options) == per_geometry
    order = np.random.default_rng(3).permutation(len(MIXED)).tolist()
    assert estimate_secrecy_rates([MIXED[i] for i in order], mode,
                                  MIXED_TRIALS, seed=12, workers=2,
                                  **options) == [
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
        estimate_secrecy_rates([P55], SimMode.QCA, 0, seed=1)
    with pytest.raises(ValueError):
        estimate_secrecy_rates([P55], SimMode.QCA, 10, seed=1, workers=0)


AGREEMENT_SNRS_DB = (0.0, 10.0, 20.0)


@functools.lru_cache(maxsize=None)
def _agreement_estimates() -> dict:
    """Each mode's estimates at the agreement test's three SNRs, from one
    draw per mode (each bit-identical to its one-point call)."""
    points = [SystemParams(n_t=5, bits=4, alpha=1.0, snr_db=s)
              for s in AGREEMENT_SNRS_DB]
    qca = estimate_secrecy_rates(points, SimMode.QCA, 2_000_000, seed=11,
                                 workers=2)
    full = estimate_secrecy_rates(points, SimMode.FULL, 2_500_000, seed=11,
                                  workers=2)
    return dict(zip(AGREEMENT_SNRS_DB, zip(qca, full)))


@pytest.mark.parametrize("snr_db", AGREEMENT_SNRS_DB)
def test_full_and_qca_modes_agree_loosely(snr_db):
    # QCA samples the closed form's law: quantization-cell interference for
    # the users, orthonormal beams for the eavesdropper.  FULL, the
    # exact-RVQ sampler, makes neither simplification, so the documented
    # tolerance is loose.  At 10 dB the true gap, 4.93% (the mean over
    # seeds 0-99 of this test's gap), sits just inside the 5% envelope, so
    # the trial counts hold the gap's standard error to about 0.06%: 12 of
    # those seeds fail.  With 30,000 FULL and 200,000 QCA trials it was
    # 0.53%, and 44 failed.
    qca, full = _agreement_estimates()[snr_db]
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
    oracle = [{link: one_link_samples(p, mode, link.value, MIXED_TRIALS,
                                      12) for link in Link} for p in MIXED]
    order = np.random.default_rng(4).permutation(len(MIXED)).tolist()
    for workers, rows in ((1, range(len(MIXED))), (2, range(len(MIXED))),
                          (4, range(len(MIXED))), (2, order)):
        points = [MIXED[i] for i in rows]
        seen = []
        for row, link, ours in collect_sinr_samples(
                points, mode, MIXED_TRIALS, seed=12, workers=workers):
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
    # The engine multiplies each link's user-major factor rows with
    # prod(axis=0), which takes C-ordered rows one after another, as
    # sum(axis=0) adds them (on strided rows numpy would sum each trial
    # pairwise, ten times slower); the oracles rely on both orders.
    # If a numpy release changes it, or a draw its layout, this fails by
    # name instead of every digest drifting.
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
    factors = 1.0 + gen.exponential(size=(1_000, k))
    got = np.ascontiguousarray(factors.T).prod(axis=0)
    expected = factors[:, 0].copy()
    for column in factors[:, 1:].T:
        expected *= column
    assert np.array_equal(got, expected)
    assert np.array_equal(np.log2(got), _log2_group_sums(factors, k))


def test_rejection_free_and_zero_forcing_residual():
    worst, rejected = max_zf_residual(P55, 10_000, seed=7, workers=2)
    assert rejected == 0
    assert worst < 1e-10


def test_zero_forcing_residual_needs_draws():
    # Zero draws would pass any residual check vacuously.
    with pytest.raises(ValueError):
        max_zf_residual(P55, 0, seed=7)


def test_rates_and_samples_never_compute_the_residual(monkeypatch):
    # Only max_zf_residual reads the zero-forcing residual; the rate and
    # sample paths report None for it, never a perfect-looking 0.0.
    def refused(*args):
        raise AssertionError("the zero-forcing residual was computed")

    monkeypatch.setattr(simulate, "_zf_residual", refused)
    for mode in (SimMode.FULL, SimMode.PERFECT):
        for clip in (False, True):
            estimate_secrecy_rates(GRID6, mode, 14_000, seed=12, workers=2,
                                   clip=clip)
        for _ in collect_sinr_samples(GRID6, mode, 14_000, seed=12,
                                      workers=2):
            pass
    for mode in SimMode:
        assert _draw_parts(P55, mode, RngStream(1, 0).generator(),
                           100)[5] is None
    with pytest.raises(AssertionError, match="residual was computed"):
        max_zf_residual(P55, 100, seed=1)


@pytest.mark.parametrize("mode", [SimMode.FULL, SimMode.PERFECT])
@pytest.mark.parametrize("tol", [simulate._BEAM_RANK_TOL,
                                 FORCED_REJECTION_TOL])
def test_residual_leaves_the_draw_bit_identical(mode, tol, monkeypatch):
    monkeypatch.setattr(simulate, "_BEAM_RANK_TOL", tol)
    params = SystemParams(n_t=5, bits=2, alpha=1.0, snr_db=10.0)
    plain, with_residual = (
        _geometry_draw(params, RngStream(11, 0).generator(), 3_000,
                       perfect=mode is SimMode.PERFECT, residual=residual)
        for residual in (False, True))
    for ours, theirs in zip(plain[:4], with_residual[:4]):
        assert ours.tobytes() == theirs.tobytes()
    assert plain[4] == with_residual[4]
    assert plain[5] is None and 0.0 <= with_residual[5] < 1e-10


def test_largest_residual_covers_every_kept_draw(monkeypatch):
    # Beams tilted toward another direction by a per-trial 1e-3 |d_00| give
    # every kept set a residual of about that size, and rejected sets one
    # above 1e-2.  The engine reads the beams from the inverse, so the tilt
    # goes into the inverse: column i of the tilted inverse is the tilted
    # beam i conjugated, its gain 1 / |w_i|^2.  Over two chunks of several
    # resample rounds, each of many blocks, the engine's largest residual
    # must be the largest over every kept set of |d_k^H w_i| / |w_i|,
    # computed here on its own with a matrix product.
    monkeypatch.setattr(simulate, "_BEAM_RANK_TOL", FORCED_REJECTION_TOL)
    zf_inverse, zf_residual = simulate._zf_inverse, simulate._zf_residual
    kept_sets, residual_trials = [], []

    def tilted(dirs):
        inv, gain, ok = zf_inverse(dirs)
        beams = np.conj(np.swapaxes(inv, 1, 2)) * np.sqrt(gain)[:, :, None]
        tilt = 1e-3 * np.abs(dirs[:, 0, 0]) + 1e-2 * ~ok
        beams = beams + tilt[:, None, None] * np.roll(dirs, 1, axis=1)
        beams /= np.linalg.norm(beams, axis=2, keepdims=True)
        kept_sets.append((dirs[ok].copy(), beams[ok]))
        inv = np.ascontiguousarray(np.conj(np.swapaxes(beams, 1, 2)))
        return inv, np.ones(ok.shape + (5,)), ok

    def counted(dirs, inv, gain):
        residual_trials.append(len(dirs))
        return zf_residual(dirs, inv, gain)

    monkeypatch.setattr(simulate, "_zf_inverse", tilted)
    monkeypatch.setattr(simulate, "_zf_residual", counted)
    params = SystemParams(n_t=5, bits=2, alpha=1.0, snr_db=10.0)
    n = chunk_trials(params, SimMode.FULL) + 3_000
    worst, rejected = max_zf_residual(params, n, seed=13, workers=2)
    kept = sum(len(dirs) for dirs, _ in kept_sets)
    assert kept == sum(residual_trials) == n and rejected > n // 10
    off_diagonal = ~np.eye(5, dtype=bool)
    independent = max(
        np.abs(np.conj(dirs) @ np.swapaxes(beams, 1, 2))[:, off_diagonal]
        .max(initial=0.0)
        for dirs, beams in kept_sets)
    assert 1e-4 < independent < 2e-3
    assert worst == pytest.approx(independent, rel=1e-12)


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
