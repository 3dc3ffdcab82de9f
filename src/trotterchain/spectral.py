"""One-step quantum channel as a superoperator; spectra, fixed point, decay rate.

Row-major vectorization throughout: ``|rho> = sum rho_{ab} |a> (x) |b>``,
i.e. ``rho.reshape(-1)`` for C-ordered arrays.  The superoperator comes from
the density-matrix engine itself, through the Choi state: ``evolve_noisy``
runs the step on sites 1..N of the 2N-site state ``|Omega><Omega|`` with
``|Omega> = sum_i |i>_A |i>_B``, and the evolved matrix, reshuffled, is the
4^N x 4^N superoperator.  Spectra therefore see exactly the gates and
channels of the noisy engine.

Spectra and fixed points are computed in the Pauli basis.  Every channel here
preserves Hermiticity, so in the basis of the 4^N Pauli strings P its matrix,
the Pauli transfer matrix ``R[P, Q] = 2^-N tr(P E(Q))``, is real and has the
superoperator's eigenvalues.  One real ``np.linalg.eig`` of R, made at most
once per :class:`SuperOperator`, serves both :func:`spectrum` and
:func:`fixed_point`; an eigenvector r of R is the operator ``sum_P r_P P``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import Circuit
from .pauli import _I_POW
from .sim import HERMITICITY_TOL, DensityMatrix, NoiseModel, evolve_noisy

SUPEROP_MAX_SITES = 4
UNIT_EIGENVALUE_TOL = 1e-8


class DegenerateFixedPointError(RuntimeError):
    """The channel has multiple steady states; no fixed point is singled out."""


@dataclass
class SuperOperator:
    """Row-major superoperator ``matrix`` of an N-site channel."""

    n_sites: int
    matrix: np.ndarray

    @cached_property
    def pauli_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (complex) and right eigenvectors (columns) of the Pauli
        transfer matrix, computed on first use."""
        vals, vecs = np.linalg.eig(pauli_transfer_matrix(self))
        return vals.astype(complex, copy=False), vecs


def _pauli_basis(n: int) -> np.ndarray:
    """Row ``x * 2^N + z`` is ``P(x, z).reshape(-1)`` for the Pauli string with
    masks (x, z) of :mod:`pauli`: ``P(x, z)[c ^ x, c] = i^|x & z| (-1)^|c & z|``."""
    dim = 1 << n
    c = np.arange(dim)
    x = c[:, None, None]
    z = c[None, :, None]
    power = np.bitwise_count(x & z) + 2 * np.bitwise_count(c & z)
    basis = np.zeros((dim, dim, dim * dim), dtype=complex)
    basis[x, z, (c ^ x) * dim + c] = np.array(_I_POW)[power & 3]
    return basis.reshape(dim * dim, dim * dim)


def pauli_transfer_matrix(op: SuperOperator) -> np.ndarray:
    """The real 4^N x 4^N matrix ``R = 2^-N B* S B^T`` with the rows of B the
    vectorized Pauli strings (:func:`_pauli_basis`).

    Raises ValueError when R has an imaginary part above round-off: then ``op``
    does not map Hermitian matrices to Hermitian matrices.
    """
    basis = _pauli_basis(op.n_sites)
    r = (basis.conj() @ op.matrix @ basis.T) / (1 << op.n_sites)
    imag = np.abs(r.imag).max()
    if imag > HERMITICITY_TOL:
        raise ValueError(f"superoperator does not preserve Hermiticity: Im R up to {imag:.2e}")
    return r.real


def vectorize_step(circuit: Circuit, noise: NoiseModel) -> SuperOperator:
    """Superoperator of one noisy step (all circuit gates, channels included).

    Site j of the Choi state sits on bit j-1, so the register A (sites 1..N)
    holds the low bits: entry ``[a + d b, c + d e]`` of the evolved state is
    ``E(|b><e|)[a, c]``, which the reshape moves to row ``(a, c)``, column
    ``(b, e)``.
    """
    n = circuit.n_sites
    if n > SUPEROP_MAX_SITES:
        raise ValueError(f"dense superoperator budget is N <= {SUPEROP_MAX_SITES}")
    dim = 1 << n
    omega = np.zeros(dim * dim, dtype=complex)
    omega[np.arange(dim) * (dim + 1)] = 1.0
    choi = DensityMatrix(2 * n, np.outer(omega, omega))
    j = evolve_noisy(Circuit(2 * n, circuit.gates), choi, noise).entries
    matrix = j.reshape(dim, dim, dim, dim).transpose(1, 3, 0, 2).reshape(dim * dim, dim * dim)
    return SuperOperator(n, matrix)


def spectrum(op: SuperOperator) -> np.ndarray:
    """All eigenvalues, sorted by descending modulus."""
    vals, _ = op.pauli_eig
    return vals[np.argsort(-np.abs(vals))]


def fixed_point(op: SuperOperator) -> DensityMatrix:
    """The unique eigenvector at eigenvalue 1, as a density matrix."""
    vals, vecs = op.pauli_eig
    at_one = np.where(np.abs(vals - 1.0) < UNIT_EIGENVALUE_TOL)[0]
    if len(at_one) == 0:
        raise ValueError("no eigenvalue within tolerance of 1")
    if len(at_one) > 1:
        raise DegenerateFixedPointError(
            f"multiple steady states: {len(at_one)} eigenvalues within "
            f"{UNIT_EIGENVALUE_TOL} of 1"
        )
    dim = 1 << op.n_sites
    rho = (_pauli_basis(op.n_sites).T @ vecs[:, at_one[0]]).reshape(dim, dim)
    rho = (rho + rho.conj().T) / 2.0
    rho /= np.trace(rho).real
    out = DensityMatrix(op.n_sites, rho)
    out.check()
    return out


def decay_rate(vals: np.ndarray) -> float | None:
    """-ln of the largest modulus strictly below 1 among eigenvalues ``vals``.

    ``vals`` is a superoperator's spectrum, as :func:`spectrum` returns it.
    Returns None for a noiseless (unitary) step, where no eigenvalue sits
    strictly inside the unit circle.
    """
    mods = np.abs(vals)
    inside = mods[mods < 1.0 - UNIT_EIGENVALUE_TOL]
    if len(inside) == 0:
        return None
    return float(-np.log(inside.max()))


def spectrum_csv_rows(vals: np.ndarray):
    """(Re, Im) pairs for plotting eigenvalue clouds."""
    return [(float(v.real), float(v.imag)) for v in vals]
