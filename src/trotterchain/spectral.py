"""One-step quantum channel as a Pauli transfer matrix; spectra, fixed point, decay rate.

A step E is held as its Pauli transfer matrix ``R[P, Q] = 2^-N tr(P E(Q))``,
row and column ``x * 2^N + z`` for the Pauli string P(x, z).  Every channel
here preserves Hermiticity, so R is real and has the superoperator's
eigenvalues; an eigenvector r of R is the operator ``sum_P r_P P``.  R is
read off the Choi state: ``evolve_noisy`` runs the step on sites 1..N of the
2N-site state ``J = |Omega><Omega|``, ``|Omega> = sum_i |i>_A |i>_B``, and
``tr(J (P (x) Q)) = tr(P E(Q^T))`` with ``Q^T = (-1)^popcount(x_Q & z_Q) Q``.
So R is J's Pauli spectrum (:func:`sim.pauli_spectrum`), signed and divided
by 2^N: spectra see exactly the gates and channels of the noisy engine, and
the Pauli-string convention lives in :mod:`sim` alone.  One real
``np.linalg.eig`` of R, made at most once per :class:`SuperOperator`, serves
:func:`spectrum`, :func:`fixed_point` and :func:`fixed_point_gap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import Circuit
from .pauli import parity_sign
from .sim import (
    HERMITICITY_TOL,
    DensityMatrix,
    NoiseModel,
    evolve_noisy,
    from_pauli_spectrum,
    hermiticity_deviation,
    pauli_spectrum,
)

SUPEROP_MAX_SITES = 4
UNIT_EIGENVALUE_TOL = 1e-8


class DegenerateFixedPointError(RuntimeError):
    """The channel has multiple steady states; no fixed point is singled out."""


@dataclass
class SuperOperator:
    """Real Pauli transfer matrix ``matrix`` of an N-site channel (module docstring)."""

    n_sites: int
    matrix: np.ndarray

    @cached_property
    def pauli_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (complex) and right eigenvectors (columns) of ``matrix``,
        computed on first use; ValueError if ``matrix`` is complex."""
        if np.iscomplexobj(self.matrix):
            raise ValueError("a complex Pauli transfer matrix does not preserve Hermiticity")
        vals, vecs = np.linalg.eig(self.matrix)
        return vals.astype(complex, copy=False), vecs


def vectorize_step(circuit: Circuit, noise: NoiseModel) -> SuperOperator:
    """Pauli transfer matrix of one noisy step (all circuit gates, channels included).

    Site j of the Choi state sits on bit j-1, so the register A (sites 1..N)
    holds the low bits of J's masks: J's Pauli spectrum at
    ``(x_A + 2^N x_B, z_A + 2^N z_B)`` goes to row ``(x_A, z_A)``, column
    ``(x_B, z_B)``.

    Raises ValueError when J is not Hermitian: then the step does not map
    Hermitian matrices to Hermitian matrices.
    """
    n = circuit.n_sites
    if n > SUPEROP_MAX_SITES:
        raise ValueError(f"dense superoperator budget is N <= {SUPEROP_MAX_SITES}")
    dim = 1 << n
    omega = np.zeros(dim * dim, dtype=complex)
    omega[np.arange(dim) * (dim + 1)] = 1.0
    choi = DensityMatrix(2 * n, np.outer(omega, omega))
    choi = evolve_noisy(Circuit(2 * n, circuit.gates), choi, noise)
    h = hermiticity_deviation(choi.entries)
    if h > HERMITICITY_TOL:
        raise ValueError(f"step does not preserve Hermiticity: Choi state deviation {h:.2e}")
    r = pauli_spectrum(choi).reshape(dim, dim, dim, dim)  # [x_B, x_A, z_B, z_A]
    masks = np.arange(dim)
    sign = parity_sign(masks[:, None], masks)  # [x_B, z_B]
    r *= sign[:, None, :, None] / dim
    return SuperOperator(n, r.transpose(1, 3, 0, 2).reshape(dim * dim, dim * dim))


def spectrum(op: SuperOperator) -> np.ndarray:
    """All eigenvalues, sorted by descending modulus, then by descending imaginary part.

    ``eig`` of a real matrix gives both members of a conjugate pair bit-equal
    moduli, so the second key orders each pair, positive imaginary part
    first, whatever order round-off left them in.
    """
    vals, _ = op.pauli_eig
    return vals[np.lexsort((-vals.imag, -np.abs(vals)))]


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
    rho = from_pauli_spectrum(vecs[:, at_one[0]].real.reshape(dim, dim)).entries
    rho = (rho + rho.conj().T) / 2.0
    rho /= np.trace(rho).real
    out = DensityMatrix(op.n_sites, rho)
    out.check()
    return out


def fixed_point_gap(op: SuperOperator) -> float:
    """Smallest |lambda - 1| over the eigenvalues other than the one nearest 1.

    The fixed point's eigenvector has an error of about eps / gap, and
    :func:`fixed_point` calls it unique when the gap exceeds
    ``UNIT_EIGENVALUE_TOL``.  Read off the cached ``pauli_eig``.
    """
    vals, _ = op.pauli_eig
    dist = np.abs(vals - 1.0)
    return float(np.delete(dist, dist.argmin()).min())


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
