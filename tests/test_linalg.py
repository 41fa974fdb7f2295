import numpy as np
import pytest

from zfsecrecy.linalg import RngStream, complex_gaussian_batch
from zfsecrecy.simulate import ks_statistic


def test_sampling_is_deterministic_per_stream():
    a, b = (complex_gaussian_batch(RngStream(seed=7, stream_id=0).generator(),
                                   (4,)) for _ in range(2))
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_differ():
    a, b, c = (complex_gaussian_batch(stream.generator(), (4,))
               for stream in (RngStream(seed=7, stream_id=0),
                              RngStream(seed=7, stream_id=1),
                              RngStream(seed=8, stream_id=0)))
    assert np.abs(a - b).max() > 1e-6
    assert np.abs(a - c).max() > 1e-6


def test_an_int_id_is_the_one_element_key():
    # Chunk streams are keyed by tuples (draw key and chunk); an int id is
    # the key of one element, and keys that differ anywhere differ.
    a, b, c, d = (stream.generator().random(4)
                  for stream in (RngStream(7, 3), RngStream(7, (3,)),
                                 RngStream(7, (3, 0)), RngStream(7, (1, 3))))
    assert a.tobytes() == b.tobytes()
    assert len({a.tobytes(), c.tobytes(), d.tobytes()}) == 3


@pytest.mark.parametrize("stream_id", [2 ** 32, (0, 2 ** 32), -1, (3, -1)])
def test_key_elements_outside_32_bits_are_rejected(stream_id):
    # SeedSequence spreads an element past 32 bits over several words, so
    # (2**32,) would draw the stream of (0, 1).
    with pytest.raises(ValueError, match="2\\*\\*32"):
        RngStream(7, stream_id).generator()
    RngStream(7, (2 ** 32 - 1, 0)).generator()


def test_generator_input_continues_the_stream():
    gen = RngStream(7, 0).generator()
    first = complex_gaussian_batch(gen, (4,))
    second = complex_gaussian_batch(gen, (4,))
    assert np.abs(first - second).max() > 1e-6


def test_sample_mean_is_near_zero():
    # CLT bound: the complex sample mean over 1e5 draws stays within 0.02.
    gen = RngStream(11, 0).generator()
    draws = np.concatenate([complex_gaussian_batch(gen, (1000,))
                            for _ in range(100)])
    assert abs(draws.mean()) < 0.02


def test_mean_square_norm_matches_dimension():
    gen = RngStream(12, 0).generator()
    norms = np.linalg.norm(complex_gaussian_batch(gen, (100_000, 5)),
                           axis=1) ** 2
    assert np.mean(norms) == pytest.approx(5.0, abs=0.1)


# 1-D, a channel matrix stack, and the codebook stack (n, K, 2**B, K) that
# the tests' explicit-search oracle draws.
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
    power = np.abs(complex_gaussian_batch(gen, (10_000,))) ** 2
    assert ks_statistic(power, lambda x: 1.0 - np.exp(-x)) < 0.0163
