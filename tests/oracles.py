"""Reference constructions the engine's batched stages are tested against:
explicit fresh-codebook search, QR zero-forcing beams, a gain-by-gain
assembly of the SINR parts, and one sample collection per (point, link)."""

import numpy as np

from zfsecrecy import simulate
from zfsecrecy.linalg import complex_gaussian_batch


def select_codewords(h_dir, codewords):
    """Codeword of largest |h^H c|^2 / |c|^2 per (trial, user), normalized."""
    gain = np.abs(np.einsum("tkn,tkbn->tkb", np.conj(h_dir), codewords)) ** 2
    flat = codewords.view(float)
    idx = np.argmax(gain / np.einsum("tkbn,tkbn->tkb", flat, flat), axis=2)
    best = np.take_along_axis(codewords, idx[..., None, None], axis=2)[:, :, 0]
    return best / np.linalg.norm(best, axis=2, keepdims=True)


def explicit_directions(h_dir, bits, gen):
    """Oracle for ``simulate._rvq_directions``: draw a fresh codebook of
    2**bits codewords per (trial, user) and search it."""
    n, k, _ = h_dir.shape
    return select_codewords(
        h_dir, complex_gaussian_batch(gen, (n, k, 2 ** bits, k)))


def qr_zf_beams(directions):
    """Oracle ZF beams: for each user, the trailing column of a complete
    Householder QR of the other K-1 directions, with a set rejected when a
    diagonal of R falls below the engine's rank tolerance."""
    n, k, dim = directions.shape
    others = np.empty((n, k, k - 1, dim), dtype=complex)
    for i in range(k):
        others[:, i] = directions[:, [j for j in range(k) if j != i], :]
    q, r = np.linalg.qr(np.swapaxes(others, -1, -2), mode="complete")
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    return q[..., -1], diag.min(axis=(1, 2)) > simulate._BEAM_RANK_TOL


def inverse_beams(directions):
    """The engine's zero-forcing beams made explicit: (beams (n, K, K), ok
    (n,) mask), beam i, row i, column i of ``simulate._zf_inverse``'s
    inverse conjugated and scaled by its distance.  The engine never forms
    them; its gains read the inverse."""
    inv, gain, ok = simulate._zf_inverse(directions)
    return np.conj(np.swapaxes(inv, 1, 2)) * np.sqrt(gain)[:, :, None], ok


def assembled_parts(params, gen, n, perfect=False):
    """Oracle for ``simulate._draw_parts`` in FULL and PERFECT mode.

    Draws the channels h and the eavesdropper fading g from ``gen`` in the
    engine's order, then each user's direction: its own (PERFECT) or the
    RVQ sampler's.  Beams come from :func:`qr_zf_beams`, and every gain
    |h_k^H w_i|^2 and |g^H w_i|^2 is computed on its own, over all trials
    at once, and summed term by term.  Returns (legit_num, legit_den,
    eav_num, eav_den), each (n, K).  Rejected beam sets have probability
    zero, so none may occur here.
    """
    k = params.n_t
    h = complex_gaussian_batch(gen, (n, k, k))
    g = complex_gaussian_batch(gen, (n, k))
    dirs = h / np.linalg.norm(h, axis=2, keepdims=True)
    if not perfect:
        dirs = simulate._rvq_directions(dirs, params.bits, gen)
    beams, ok = qr_zf_beams(dirs)
    assert ok.all(), "a beam set was rejected"

    def gain(x, w):  # |x^H w|^2 per trial
        return np.abs(np.sum(np.conj(x) * w, axis=1)) ** 2

    parts = np.zeros((4, n, k))
    for user in range(k):
        for i in range(k):
            if i == user:
                parts[0, :, user] = gain(h[:, user], beams[:, i])
                parts[2, :, user] = gain(g, beams[:, i])
                continue
            if not perfect:  # PERFECT beams leave no interference
                parts[1, :, user] += gain(h[:, user], beams[:, i])
            parts[3, :, user] += gain(g, beams[:, i])
    return tuple(parts)


def one_link_samples(params, mode, link, n, seed, workers=1):
    """Oracle for ``simulate.collect_sinr_samples``: n samples of the first
    user's (or eavesdropper's) SINR at one point, each point and link drawn
    on its own from the engine's chunks, at the point's own distortion.

    ``link`` is "legitimate" or "eavesdropper".
    """
    # Position of the link's numerator among the parts, and its noise level.
    num, noise = {"legitimate": (0, params.noise_over_power),
                  "eavesdropper": (2, params.eav_noise_over_power)}[link]

    def first_user(gen, m):
        parts = simulate._draw_parts(params, mode, gen, m)
        return simulate._sinr(parts[num][0], parts[num + 1][0], noise)

    return np.concatenate(list(simulate._map_chunks(params, mode, n, seed,
                                                    workers, first_user)))
