import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfsecrecy.linalg import (DegenerateInputError, RngStream,
                              complex_gaussian_batch, inner_product,
                              orthonormal_complement, sample_complex_gaussian,
                              unit_direction)
from zfsecrecy.simulate import ks_statistic


def test_sampling_is_deterministic_per_stream():
    a = sample_complex_gaussian(4, RngStream(seed=7, stream_id=0))
    b = sample_complex_gaussian(4, RngStream(seed=7, stream_id=0))
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_differ():
    a = sample_complex_gaussian(4, RngStream(seed=7, stream_id=0))
    b = sample_complex_gaussian(4, RngStream(seed=7, stream_id=1))
    c = sample_complex_gaussian(4, RngStream(seed=8, stream_id=0))
    assert np.abs(a - b).max() > 1e-6
    assert np.abs(a - c).max() > 1e-6


def test_generator_input_continues_the_stream():
    gen = RngStream(7, 0).generator()
    first = sample_complex_gaussian(4, gen)
    second = sample_complex_gaussian(4, gen)
    assert np.abs(first - second).max() > 1e-6


def test_zero_dim_rejected():
    with pytest.raises(ValueError):
        sample_complex_gaussian(0, RngStream(1))


def test_sample_mean_is_near_zero():
    # CLT bound: the complex sample mean over 1e5 draws stays within 0.02.
    gen = RngStream(11, 0).generator()
    draws = np.concatenate(
        [sample_complex_gaussian(1000, gen) for _ in range(100)])
    assert abs(draws.mean()) < 0.02


def test_mean_square_norm_matches_dimension():
    gen = RngStream(12, 0).generator()
    norms = [np.linalg.norm(sample_complex_gaussian(5, gen)) ** 2
             for _ in range(100_000)]
    assert np.mean(norms) == pytest.approx(5.0, abs=0.1)


# 1-D, a channel matrix stack, and a FULL codebook stack (n, K, 2**B, K).
@pytest.mark.parametrize("shape", [(1,), (9,), (4, 3), (6, 5, 5),
                                   (3, 5, 16, 5)])
def test_complex_draw_is_all_real_parts_then_all_imaginary(shape):
    gen, twin = RngStream(21, 4).generator(), RngStream(21, 4).generator()
    draw = complex_gaussian_batch(gen, shape)
    re, im = twin.standard_normal((2,) + shape)
    expected = (re + 1j * im) / np.sqrt(2.0)
    assert draw.shape == shape
    assert draw.tobytes() == expected.tobytes()
    np.testing.assert_equal(gen.bit_generator.state, twin.bit_generator.state)


def test_entry_power_is_unit_exponential():
    # |entry|^2 of a unit-variance complex Gaussian is Exp(1); KS at the 1%
    # critical value 1.63/sqrt(n).
    gen = RngStream(13, 0).generator()
    power = np.abs(sample_complex_gaussian(10_000, gen)) ** 2
    assert ks_statistic(power, lambda x: 1.0 - np.exp(-x)) < 0.0163


def test_inner_product_identity_and_orthogonality():
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    assert inner_product(e1, e1) == pytest.approx(1.0)
    assert inner_product(e1, e2) == pytest.approx(0.0)


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError):
        inner_product(np.ones(2, dtype=complex), np.ones(3, dtype=complex))


def test_inner_product_is_conjugate_linear_in_first_argument():
    a = np.array([1.0 + 1.0j, 0.0])
    b = np.array([2.0, 0.0], dtype=complex)
    assert inner_product(a, b) == pytest.approx((1 - 1j) * 2)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(2, 8))
def test_inner_product_hermitian_symmetry(seed, dim):
    gen = RngStream(seed, 0).generator()
    a = sample_complex_gaussian(dim, gen)
    b = sample_complex_gaussian(dim, gen)
    assert abs(inner_product(a, b) - np.conj(inner_product(b, a))) < 1e-14


def test_unit_direction_examples():
    v = unit_direction(np.array([2.0, 0.0], dtype=complex))
    np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-15)
    with pytest.raises(DegenerateInputError):
        unit_direction(np.zeros(2, dtype=complex))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(1, 8))
def test_unit_direction_norm_is_one(seed, dim):
    v = sample_complex_gaussian(dim, RngStream(seed, 0))
    assert abs(np.linalg.norm(unit_direction(v)) - 1.0) < 1e-12


def test_complement_of_e1_in_dim2_spans_e2():
    e1 = np.array([1.0, 0.0], dtype=complex)
    (u,) = orthonormal_complement([e1], 2)
    assert abs(inner_product(e1, u)) < 1e-10
    assert abs(np.linalg.norm(u) - 1.0) < 1e-10
    assert abs(inner_product(np.array([0.0, 1.0], dtype=complex), u)) == (
        pytest.approx(1.0, abs=1e-10))


def test_complement_rejects_rank_deficient_inputs():
    e1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(DegenerateInputError):
        orthonormal_complement([e1, e1], 3)


def test_complement_rejects_too_many_vectors():
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    with pytest.raises(ValueError):
        orthonormal_complement([e1, e2], 2)


def test_complement_of_four_random_directions_in_dim5():
    gen = RngStream(21, 0).generator()
    dirs = [unit_direction(sample_complex_gaussian(5, gen)) for _ in range(4)]
    complement = orthonormal_complement(dirs, 5)
    assert len(complement) == 1
    u = complement[0]
    assert max(abs(inner_product(d, u)) for d in dirs) < 1e-10
    assert abs(np.linalg.norm(u) - 1.0) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32),
       st.integers(2, 7), st.data())
def test_complement_invariants(seed, dim, data):
    m = data.draw(st.integers(1, dim - 1))
    gen = RngStream(seed, 0).generator()
    dirs = [unit_direction(sample_complex_gaussian(dim, gen))
            for _ in range(m)]
    complement = orthonormal_complement(dirs, dim)
    assert len(complement) == dim - m
    stacked = np.stack(complement)
    gram = stacked @ stacked.conj().T
    assert np.abs(gram - np.eye(dim - m)).max() < 1e-10
    cross = np.abs(np.stack(dirs).conj() @ stacked.T)
    assert cross.max() < 1e-10


def test_complement_phase_representative_is_deterministic():
    gen = RngStream(22, 0).generator()
    dirs = [unit_direction(sample_complex_gaussian(4, gen)) for _ in range(2)]
    for u in orthonormal_complement(dirs, 4):
        lead = u[np.argmax(np.abs(u) > 1e-8)]
        assert abs(lead.imag) < 1e-12 and lead.real > 0
