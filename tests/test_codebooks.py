import numpy as np
import pytest
from scipy import stats

import zfsecrecy
from oracles import inverse_beams, select_codewords
from zfsecrecy.linalg import RngStream, complex_gaussian_batch
from zfsecrecy.params import SystemParams
from zfsecrecy.codebooks import CodebookSizeError, generate_codebook
from zfsecrecy.simulate import _qca_draw, ks_statistic


def test_every_public_name_resolves():
    # ``from zfsecrecy import *`` needs every listed name to exist.
    for name in zfsecrecy.__all__:
        assert hasattr(zfsecrecy, name), name


# --------------------------------------------------------------------------
# Distortion scale and params
# --------------------------------------------------------------------------

def test_distortion_scale_values():
    def distortion(bits, n_t):
        return SystemParams(n_t=n_t, bits=bits, alpha=1.0,
                            snr_db=0.0).distortion
    assert distortion(4, 5) == pytest.approx(0.5)
    assert distortion(0, 3) == 1.0
    assert distortion(8, 3) == pytest.approx(0.0625)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(n_t=1, bits=4, alpha=1.0, snr_db=0.0)
    with pytest.raises(ValueError):
        SystemParams(n_t=5, bits=-1, alpha=1.0, snr_db=0.0)
    with pytest.raises(ValueError):
        SystemParams(n_t=5, bits=4, alpha=0.0, snr_db=0.0)
    p = SystemParams(n_t=5, bits=0, alpha=1.0, snr_db=10.0)
    assert p.distortion == 1.0
    assert p.noise_over_power == pytest.approx(0.1)


# --------------------------------------------------------------------------
# Codebooks
# --------------------------------------------------------------------------

def test_zero_bit_codebook_has_one_codeword():
    assert generate_codebook(5, 0, RngStream(1, 0).generator()).shape == (1, 5)


def test_codebook_determinism_and_unit_norms():
    cb1 = generate_codebook(5, 4, RngStream(9, 0).generator())
    cb2 = generate_codebook(5, 4, RngStream(9, 0).generator())
    assert cb1.shape == (16, 5)
    np.testing.assert_array_equal(cb1, cb2)
    assert np.abs(np.linalg.norm(cb1, axis=1) - 1.0).max() < 1e-12


def test_codebook_bit_cap_points_to_qca():
    with pytest.raises(CodebookSizeError, match="QCA"):
        generate_codebook(5, 17, RngStream(1, 0).generator())


def test_codeword_pairwise_isotropy():
    # For independent isotropic unit vectors, E|<c_i, c_j>|^2 = 1/n_t.
    gen = RngStream(10, 0).generator()
    vals = []
    for _ in range(10_000):
        cb = generate_codebook(5, 1, gen)
        vals.append(abs(np.vdot(cb[0], cb[1])) ** 2)
    assert np.mean(vals) == pytest.approx(0.2, abs=0.01)


# --------------------------------------------------------------------------
# Codeword selection by explicit search (the tests' oracle)
# --------------------------------------------------------------------------

def test_quantize_picks_exact_match():
    # The codeword a channel points along wins, whatever the channel's
    # scale and phase or the codewords' norms, and comes back normalized.
    book = generate_codebook(4, 3, RngStream(3, 0).generator())
    scaled = book * np.arange(1.0, 9.0)[:, None]
    chosen = select_codewords(2j * book[None, 5:6], scaled[None, None])
    np.testing.assert_allclose(chosen[0, 0], book[5], atol=1e-15)


def test_quantize_zero_bits_always_index_zero():
    gen = RngStream(4, 0).generator()
    book = generate_codebook(4, 0, gen)
    h = complex_gaussian_batch(gen, (10, 1, 4))
    chosen = select_codewords(h, np.broadcast_to(book, (10, 1, 1, 4)))
    np.testing.assert_allclose(chosen[:, 0], np.broadcast_to(book, (10, 4)),
                               atol=1e-15)


# --------------------------------------------------------------------------
# QCA interference draws (the simulation engine's users' denominators)
# --------------------------------------------------------------------------

def qca_interference(p, gen, n):
    """n draws of the first user's QCA interference term."""
    _, legit_den, _, _, _, _ = _qca_draw(p, gen, n)
    return legit_den[0]


def test_qca_gain_mean_matches_gamma_law():
    p = SystemParams(n_t=5, bits=4, alpha=1.0, snr_db=10.0)
    draws = qca_interference(p, RngStream(8, 0).generator(), 100_000)
    assert draws.mean() == pytest.approx(2.0, abs=0.03)


def test_qca_gain_mean_zero_feedback():
    p = SystemParams(n_t=5, bits=0, alpha=1.0, snr_db=10.0)
    draws = qca_interference(p, RngStream(9, 0).generator(), 100_000)
    assert draws.mean() == pytest.approx(4.0, abs=0.05)


def test_qca_gain_distribution_ks():
    p = SystemParams(n_t=5, bits=4, alpha=1.0, snr_db=10.0)
    draws = qca_interference(p, RngStream(10, 0).generator(), 10_000)
    cdf = stats.gamma(a=4, scale=0.5).cdf
    assert ks_statistic(draws, cdf) < 0.0163


@pytest.mark.parametrize("n_t", [3, 5])
def test_gamma_beta_product_is_scaled_exponential(n_t):
    # Gamma(n_t-1, d) times an independent Beta(1, n_t-2) collapses to an
    # exponential with scale d (needs n_t >= 3: Beta(1, 0) is degenerate).
    d = SystemParams(n_t=n_t, bits=4, alpha=1.0, snr_db=0.0).distortion
    gen = RngStream(33, 0).generator()
    product = (gen.gamma(shape=n_t - 1, scale=d, size=10_000)
               * gen.beta(1, n_t - 2, size=10_000))
    assert ks_statistic(product, lambda x: 1.0 - np.exp(-x / d)) < 0.0163


# --------------------------------------------------------------------------
# Zero-forcing beams
# --------------------------------------------------------------------------

def test_beams_for_orthonormal_directions_are_the_same_lines():
    beams, ok = inverse_beams(np.eye(2, dtype=complex)[None])
    assert ok.all()
    assert abs(beams[0, 0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(beams[0, 1, 1]) == pytest.approx(1.0, abs=1e-12)


def test_beams_null_all_other_directions():
    dirs = complex_gaussian_batch(RngStream(12, 0).generator(), (1, 5, 5))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    beams, ok = inverse_beams(dirs)
    assert ok.all()
    cross = np.abs(dirs[0].conj() @ beams[0].T)  # [i, k] = |dir_i^H w_k|
    np.fill_diagonal(cross, 0.0)
    assert cross.max() < 1e-10
    assert np.abs(np.linalg.norm(beams[0], axis=1) - 1.0).max() < 1e-12


def test_beams_reject_duplicate_directions():
    dirs = complex_gaussian_batch(RngStream(13, 0).generator(), (1, 3, 3))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    dirs[0, 1] = dirs[0, 0]
    _, ok = inverse_beams(dirs)
    assert not ok.any()
