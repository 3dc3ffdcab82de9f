"""One-step quantum channel as a superoperator; spectra, fixed point, decay rate.

Row-major vectorization throughout: ``|rho> = sum rho_{ab} |a> (x) |b>``,
i.e. ``rho.reshape(-1)`` for C-ordered arrays.  The superoperator comes from
the density-matrix engine itself, through the Choi state: ``evolve_noisy``
runs the step on sites 1..N of the 2N-site state ``|Omega><Omega|`` with
``|Omega> = sum_i |i>_A |i>_B``, and the evolved matrix, reshuffled, is the
4^N x 4^N superoperator.  Spectra therefore see exactly the gates and
channels of the noisy engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .sim import DensityMatrix, NoiseModel, evolve_noisy

SUPEROP_MAX_SITES = 4
UNIT_EIGENVALUE_TOL = 1e-8


class DegenerateFixedPointError(RuntimeError):
    """The channel has multiple steady states; no fixed point is singled out."""


@dataclass
class SuperOperator:
    n_sites: int
    matrix: np.ndarray


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
    vals = np.linalg.eigvals(op.matrix)
    return vals[np.argsort(-np.abs(vals))]


def fixed_point(op: SuperOperator) -> DensityMatrix:
    """The unique eigenvector at eigenvalue 1, as a density matrix."""
    vals, vecs = np.linalg.eig(op.matrix)
    at_one = np.where(np.abs(vals - 1.0) < UNIT_EIGENVALUE_TOL)[0]
    if len(at_one) == 0:
        raise ValueError("no eigenvalue within tolerance of 1")
    if len(at_one) > 1:
        raise DegenerateFixedPointError(
            f"multiple steady states: {len(at_one)} eigenvalues within "
            f"{UNIT_EIGENVALUE_TOL} of 1"
        )
    dim = 1 << op.n_sites
    rho = vecs[:, at_one[0]].reshape(dim, dim)
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
