import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from zfsecrecy.linalg import (DegenerateInputError, RngStream,
                              sample_complex_gaussian, unit_direction)
from zfsecrecy.params import SystemParams, quantization_distortion
from zfsecrecy.codebooks import (CodebookSizeError, generate_codebook,
                                quantize, zfbf_beams)
from zfsecrecy.simulate import _qca_draw, ks_statistic


# --------------------------------------------------------------------------
# Distortion scale and params
# --------------------------------------------------------------------------

def test_distortion_scale_values():
    assert quantization_distortion(4, 5) == pytest.approx(0.5)
    assert quantization_distortion(0, 3) == 1.0
    assert quantization_distortion(8, 3) == pytest.approx(0.0625)


def test_distortion_scale_rejects_single_antenna():
    with pytest.raises(ValueError):
        quantization_distortion(4, 1)


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
    cb = generate_codebook(5, 0, RngStream(1, 0))
    assert cb.codewords.shape == (1, 5)


def test_codebook_determinism_and_unit_norms():
    cb1 = generate_codebook(5, 4, RngStream(9, 0))
    cb2 = generate_codebook(5, 4, RngStream(9, 0))
    assert cb1.codewords.shape == (16, 5)
    np.testing.assert_array_equal(cb1.codewords, cb2.codewords)
    norms = np.linalg.norm(cb1.codewords, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_codebook_bit_cap_points_to_qca():
    with pytest.raises(CodebookSizeError, match="QCA"):
        generate_codebook(5, 17, RngStream(1, 0))


def test_codeword_pairwise_isotropy():
    # For independent isotropic unit vectors, E|<c_i, c_j>|^2 = 1/n_t.
    gen = RngStream(10, 0).generator()
    vals = []
    for _ in range(10_000):
        cb = generate_codebook(5, 1, gen).codewords
        vals.append(abs(np.vdot(cb[0], cb[1])) ** 2)
    assert np.mean(vals) == pytest.approx(0.2, abs=0.01)


# --------------------------------------------------------------------------
# Quantization
# --------------------------------------------------------------------------

def test_quantize_picks_exact_match():
    gen = RngStream(3, 0).generator()
    cb = generate_codebook(4, 3, gen)
    direction = unit_direction(cb.codewords[5])
    out = quantize(direction * 2.0, cb)  # scale must not matter
    assert out.index == 5
    assert out.error < 1e-12


def test_quantize_zero_bits_always_index_zero():
    gen = RngStream(4, 0).generator()
    cb = generate_codebook(4, 0, gen)
    for _ in range(10):
        out = quantize(sample_complex_gaussian(4, gen), cb)
        assert out.index == 0


def test_quantize_rejects_zero_channel_and_mismatch():
    cb = generate_codebook(4, 2, RngStream(5, 0))
    with pytest.raises(DegenerateInputError):
        quantize(np.zeros(4, dtype=complex), cb)
    with pytest.raises(ValueError):
        quantize(np.ones(3, dtype=complex), cb)


def test_mean_error_two_antennas_one_bit():
    # For n_t = 2 the squared correlation against one random codeword is
    # uniform on [0, 1], so the error is 1 - max of 2^bits uniforms with
    # mean 1/(2^bits + 1); brute-forced here next to the quantizer run.
    n = 100_000
    gen = RngStream(6, 0).generator()
    errors = np.empty(n)
    for i in range(n):
        cb = generate_codebook(2, 1, gen)
        errors[i] = quantize(sample_complex_gaussian(2, gen), cb).error
    oracle = 1.0 - np.max(gen.random(size=(n, 2)), axis=1)
    assert errors.mean() == pytest.approx(1.0 / 3.0, abs=0.01)
    assert oracle.mean() == pytest.approx(1.0 / 3.0, abs=0.01)


def test_median_error_decreases_with_feedback():
    gen = RngStream(7, 0).generator()
    medians = []
    for bits in (0, 2, 4, 6):
        errors = [quantize(sample_complex_gaussian(5, gen),
                           generate_codebook(5, bits, gen)).error
                  for _ in range(10_000)]
        medians.append(np.median(errors))
    assert all(b <= a for a, b in zip(medians, medians[1:]))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(2, 6),
       st.integers(0, 4))
def test_quantization_decomposition_invariants(seed, dim, bits):
    gen = RngStream(seed, 0).generator()
    cb = generate_codebook(dim, bits, gen)
    h = sample_complex_gaussian(dim, gen)
    out = quantize(h, cb)
    direction = unit_direction(h)
    # error is exactly 1 - squared correlation with the winner
    corr = abs(np.vdot(direction, out.codeword)) ** 2
    assert abs((1.0 - out.error) - corr) < 1e-12
    # the error direction lies in the codeword's null space
    assert abs(np.vdot(out.codeword, out.error_direction)) < 1e-10
    # the two components rebuild the original direction
    rebuilt = (math.sqrt(1.0 - out.error) * np.exp(1j * out.phase) * out.codeword
               + math.sqrt(out.error) * out.error_direction)
    assert np.linalg.norm(direction - rebuilt) < 1e-10
    # the winner is the argmax over the whole codebook
    corrs = np.abs(cb.codewords @ np.conj(direction)) ** 2
    assert corrs[out.index] >= corrs.max() - 1e-12


# --------------------------------------------------------------------------
# QCA interference draws (the simulation engine's users' denominators)
# --------------------------------------------------------------------------

def qca_interference(p, gen, n):
    """n draws of the first user's QCA interference term."""
    _, legit_den, _, _, _, _ = _qca_draw(p, gen, n)
    return legit_den[:, 0]


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
    d = quantization_distortion(4, n_t)
    gen = RngStream(33, 0).generator()
    product = (gen.gamma(shape=n_t - 1, scale=d, size=10_000)
               * gen.beta(1, n_t - 2, size=10_000))
    assert ks_statistic(product, lambda x: 1.0 - np.exp(-x / d)) < 0.0163


# --------------------------------------------------------------------------
# Zero-forcing beams
# --------------------------------------------------------------------------

def test_beams_for_orthonormal_directions_are_the_same_lines():
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    beams = zfbf_beams([e1, e2])
    assert abs(np.vdot(beams[0], e1)) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(beams[1], e2)) == pytest.approx(1.0, abs=1e-12)


def test_beams_null_all_other_directions():
    gen = RngStream(12, 0).generator()
    dirs = [unit_direction(sample_complex_gaussian(5, gen)) for _ in range(5)]
    beams = zfbf_beams(dirs)
    cross = np.abs(np.stack(dirs).conj() @ beams.T)  # [i, k] = |dir_i^H w_k|
    np.fill_diagonal(cross, 0.0)
    assert cross.max() < 1e-10
    assert np.abs(np.linalg.norm(beams, axis=1) - 1.0).max() < 1e-12


def test_beams_reject_duplicate_directions():
    gen = RngStream(13, 0).generator()
    d = unit_direction(sample_complex_gaussian(3, gen))
    other = unit_direction(sample_complex_gaussian(3, gen))
    with pytest.raises(DegenerateInputError):
        zfbf_beams([d, d, other])
