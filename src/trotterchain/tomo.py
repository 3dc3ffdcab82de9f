"""Pauli-basis quantum state tomography.

The full basis of 3^N words is measured (or evaluated exactly).  Linear
inversion pools every Pauli expectation over all the words that measure it,
since the word basis is over-complete.  Pooled that way, the estimate
factorises over sites: with f_w(b) the frequency of outcome b in word w,

    rho* = sum_(w, b) f_w(b) (x)_j A[w_j, b_j],   A[s, b] = (I/3 + (-1)^b s) / 2,

the classical-shadow inverse for Pauli measurements averaged over all 3^N
bases (Huang, Kueng and Preskill, Nat. Phys. 16, 1050 (2020)).  The table
f_w(b) is all that passes between the steps: :func:`collect` returns it as
one float array, the exact distributions or each word's counts over its
shots, and :func:`linear_inversion` reads it as it is.  The
linear-inversion matrix can have small negative eigenvalues at finite shots;
the positive projection is the closest density matrix in Frobenius norm,
obtained by projecting the spectrum onto the probability simplex while
keeping eigenvectors.
"""

from __future__ import annotations

from itertools import product as iproduct

import numpy as np

from .pauli import MATRICES
from .sim import (
    IDEAL,
    DensityMatrix,
    NoiseModel,
    hermiticity_deviation,
    rotated_probabilities,
    sample,
)

TOMO_MAX_SITES = 6


def all_words(n_sites: int):
    """The 3^N Pauli words in lexicographic order."""
    return ["".join(w) for w in iproduct("XYZ", repeat=n_sites)]


def collect(state, shots: int | None, seed: int = 0, noise: NoiseModel = IDEAL) -> np.ndarray:
    """Outcome frequencies of all 3^N bases of ``state`` read out through ``noise``.

    Returns a ``(3^N, 2^N)`` table, one row per word ordered as
    :func:`all_words`: the exact distributions for ``shots=None`` (exact and
    ideal), otherwise each word's counts of ``shots`` draws over ``shots``.
    All 3^N words are read out in one call (:func:`sim.rotated_probabilities`),
    which for a density matrix is one Walsh pass over its Pauli spectrum;
    word k draws its shots with the key ``(seed, k)``.
    """
    n = state.n_sites
    if n > TOMO_MAX_SITES:
        raise ValueError(f"tomography budget is N <= {TOMO_MAX_SITES}")
    words = all_words(n)
    if shots is None:
        return rotated_probabilities(state, words)
    keys = [(seed, k) for k in range(len(words))]
    return sample(state, words, [shots] * len(words), keys, noise) / shots


def linear_inversion(freqs: np.ndarray) -> np.ndarray:
    """Hermitian unit-trace reconstruction rho* = 2^-N sum_P m_P P.

    ``freqs`` is a frequency table as :func:`collect` returns it.  m_P is
    pooled over the 3^(number of identity sites) words that measure P, which
    factorises into one contraction per site: the frequencies, shaped
    ``(3,)*N + (2,)*N`` (site 1's letter first, as in :func:`all_words`;
    site N's bit first, as site j sits on bit j-1), meet ``A[letter, bit]``
    on each site's pair of axes.  No Pauli is enumerated; the result needs
    no clipping and may be non-PSD.
    """
    n = freqs.shape[-1].bit_length() - 1
    if freqs.shape != (3**n, 1 << n):
        raise ValueError(f"frequency table must have shape {(3**n, 1 << n)}, got {freqs.shape}")
    # site_inverse[letter, bit] = A[sigma, b], letters in all_words' order
    site_inverse = np.array([[(np.eye(2) / 3 + s * MATRICES[c]) / 2 for s in (1, -1)] for c in "XYZ"])
    t = freqs.reshape((3,) * n + (2,) * n)
    for j in range(n):  # site j+1: its letter is axis 0, its bit the last bit axis
        t = np.tensordot(t, site_inverse, axes=([0, 2 * (n - j) - 1], [0, 1]))
    # axes are now (row, column) of site 1, site 2, ...; site N is the high bit
    order = list(range(2 * n - 2, -1, -2)) + list(range(2 * n - 1, 0, -2))
    return t.transpose(order).reshape(1 << n, 1 << n)


def simplex_project(values: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex; a 2-D
    input is projected row by row, each row with the arithmetic of a 1-D call."""
    v = np.asarray(values, dtype=float)
    srt = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(srt, axis=-1) - 1.0
    idx = np.arange(1, v.shape[-1] + 1)
    # rho: one past the last sorted entry that stays positive after the shift
    rho = v.shape[-1] - np.argmax((srt - css / idx > 0)[..., ::-1], axis=-1, keepdims=True)
    theta = np.take_along_axis(css, rho - 1, axis=-1) / rho
    return np.maximum(v - theta, 0.0)


def psd_project(hermitian: np.ndarray) -> DensityMatrix:
    """Closest density matrix in Frobenius norm to a Hermitian unit-trace input.

    Eigenvalues are projected onto the simplex (truncation plus uniform
    redistribution); eigenvectors are kept.
    """
    if hermiticity_deviation(hermitian) > 1e-9:
        raise ValueError("input must be Hermitian")
    if abs(np.trace(hermitian).real - 1.0) > 1e-9:
        raise ValueError("input must have unit trace")
    vals, vecs = np.linalg.eigh(hermitian)
    fixed = simplex_project(vals)
    rho = (vecs * fixed) @ vecs.conj().T
    out = DensityMatrix(int(np.log2(hermitian.shape[0])), rho)
    out.check()
    return out


def _sqrt_psd(entries: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(entries)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def fidelities(pairs) -> list:
    """:func:`fidelity` of each ``(rho, sigma)`` in ``pairs``, in order.

    Each distinct state, by identity, is checked and rooted once, however
    many pairs it is in; each pair then costs one product and one SVD.
    """
    pairs = list(pairs)
    if any(rho.n_sites != sigma.n_sites for rho, sigma in pairs):
        raise ValueError("state sizes differ")
    roots = {}  # id(state) -> sqrt(state); ``pairs`` keeps every id alive
    for state in (s for pair in pairs for s in pair):
        if id(state) not in roots:
            state.check()
            roots[id(state)] = _sqrt_psd(state.entries)
    out = []
    for rho, sigma in pairs:
        singular = np.linalg.svd(roots[id(sigma)] @ roots[id(rho)], compute_uv=False)
        f = float(np.sum(singular) ** 2)
        out.append(min(max(f, 0.0), 1.0))
    return out


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """State fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clipped to [0, 1].

    Evaluated as the squared nuclear norm of sqrt(sigma) sqrt(rho), which is
    the same quantity and symmetric under exchange by construction.  Near
    rank-deficient arguments F is resolved only to about sqrt(eps): round-off
    eigenvalues of order 1e-16 enter the norm through their 1e-8 roots.  The
    one-pair case of :func:`fidelities`.
    """
    return fidelities([(rho, sigma)])[0]


def reconstruct(
    state, shots: int | None, seed: int = 0, noise: NoiseModel = IDEAL
) -> DensityMatrix:
    """collect -> linear inversion -> positive projection; ``noise`` as in :func:`collect`."""
    return psd_project(linear_inversion(collect(state, shots, seed, noise)))
