"""Kraus-operator noise channels.

Two channels are provided: single-qubit depolarizing and combined
amplitude-and-phase damping.  Every constructed channel is validated against
the CPTP completeness condition sum(D^dag D) = I to 1e-12; a violation is a
constructor error, never a silent state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pauli import MATRICES

COMPLETENESS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A one-site CPTP map given by its 2x2 Kraus operators.

    ``superop[a, c, b, d] = sum_k D_k[a, b] conj(D_k[c, d])`` is the channel
    on one (row, column) bit pair of a density matrix, computed once here.
    Instances compare by identity.
    """

    operators: tuple
    superop: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        acc = np.zeros((2, 2), dtype=complex)
        chi = np.zeros((2, 2, 2, 2), dtype=complex)
        for op in self.operators:
            if op.shape != (2, 2):
                raise ValueError(f"Kraus operator shape {op.shape} != (2,2)")
            acc += op.conj().T @ op
            chi += np.einsum("ab,cd->acbd", op, op.conj())
        if not np.abs(acc - np.eye(2)).max() <= COMPLETENESS_TOL:  # NaN fails too
            raise ValueError("Kraus completeness violated beyond 1e-12")
        object.__setattr__(self, "superop", chi)


def depolarizing(p: float) -> KrausChannel:
    """Single-qubit depolarizing channel: (1-p) rho + p I/2 for unit trace."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing rate must be in [0, 1], got {p}")
    weights = (1 - 3 * p / 4, p / 4, p / 4, p / 4)
    return KrausChannel(tuple(np.sqrt(w) * MATRICES[c] for w, c in zip(weights, "IXYZ")))


def amp_phase_damping(lambda_a: float, lambda_p: float) -> KrausChannel:
    """Combined amplitude-and-phase damping with rates (lambda_a, lambda_p)."""
    if not (lambda_a >= 0 and lambda_p >= 0 and lambda_a + lambda_p <= 1):  # NaN fails too
        raise ValueError("need lambda_a, lambda_p >= 0 and lambda_a + lambda_p <= 1")
    d1 = np.array([[1, 0], [0, np.sqrt(1 - lambda_a - lambda_p)]], dtype=complex)
    d2 = np.array([[0, np.sqrt(lambda_a)], [0, 0]], dtype=complex)
    d3 = np.array([[0, 0], [0, np.sqrt(lambda_p)]], dtype=complex)
    return KrausChannel((d1, d2, d3))
