"""Readout-error mitigation and zero-noise extrapolation.

Readout correction: a column-stochastic calibration matrix is measured by
reading out every computational basis state through the simulator; observed
distributions are unfolded by least squares constrained to the probability
simplex (projected gradient), which cannot emit negative probabilities.
:func:`correct` unfolds a whole stack of distributions, one per row, in one
call: one ``lstsq`` and one gradient loop serve every row.

ZNE: noise is amplified by replacing every CNOT with an odd power, and the
expectation value is extrapolated linearly from amplification factors 1 and 3
back to 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .sim import NoiseModel, StateVector, outcome_distribution, sample
from .tomo import simplex_project

CALIB_MAX_SITES = 6
CORRECT_MAX_ITER = 1000
CORRECT_TOL = 1e-10


@dataclass
class CalibrationMatrix:
    """Column j holds the measured distribution when basis state j is prepared."""

    n_sites: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = 1 << self.n_sites
        if self.matrix.shape != (dim, dim):
            raise ValueError("calibration matrix has wrong shape")
        if np.abs(self.matrix.sum(axis=0) - 1.0).max() > 1e-10:
            raise ValueError("calibration columns must sum to 1")
        if self.matrix.min() < -1e-12 or self.matrix.max() > 1.0 + 1e-12:
            raise ValueError("calibration entries must lie in [0, 1]")


def calibrate(noise: NoiseModel, n_sites: int, shots: int | None, seed: int = 0) -> CalibrationMatrix:
    """Column j reads out basis state j in the all-Z word; ``shots=None`` is exact."""
    if n_sites > CALIB_MAX_SITES:
        raise ValueError(f"calibration budget is N <= {CALIB_MAX_SITES}")
    dim = 1 << n_sites
    word = "Z" * n_sites
    cols = np.zeros((dim, dim))
    for j in range(dim):
        state = StateVector.basis(n_sites, j)
        if shots is None:
            cols[:, j] = outcome_distribution(state, [word], noise)[0]
        else:
            cols[:, j] = sample(state, [word], [shots], [(seed, j)], noise)[0] / shots
    return CalibrationMatrix(n_sites, cols)


def correct(observed: np.ndarray, calib: CalibrationMatrix) -> np.ndarray:
    """Solve A x = f by simplex-constrained least squares (projected gradient).

    ``observed`` is one distribution or a stack of them, one per row, and the
    result has its shape; each row is normalised and unfolded on its own.
    One ``lstsq`` starts every row, then the rows step together, each frozen
    once it moves less than ``CORRECT_TOL``.  Deterministic: fixed step from
    the spectral norm of A^T A, at most ``CORRECT_MAX_ITER`` iterations.
    """
    a = calib.matrix
    f = np.asarray(observed, dtype=float)
    if f.ndim not in (1, 2) or f.shape[-1] != a.shape[0]:
        raise ValueError("observed distribution has wrong length")
    rows = np.atleast_2d(f)
    total = rows.sum(axis=1, keepdims=True)
    if (total <= 0).any():
        raise ValueError("observed counts are empty")
    rows = rows / total
    ata = a.T @ a
    eigs = np.linalg.eigvalsh(ata)
    if eigs.min() < 1e-12:
        raise ValueError("calibration matrix is singular beyond tolerance")
    step = 1.0 / float(eigs.max())
    atf = rows @ a  # row i is A^T f_i
    x = simplex_project(np.linalg.lstsq(a, rows.T, rcond=None)[0].T)
    live = np.arange(len(x))
    for _ in range(CORRECT_MAX_ITER):
        if not live.size:
            break
        old = x[live]
        nxt = simplex_project(old - step * (old @ ata.T - atf[live]))
        x[live] = nxt
        live = live[np.abs(nxt - old).max(axis=1) >= CORRECT_TOL]
    return x.reshape(f.shape)


def zne_fold(circuit: Circuit, k: int) -> Circuit:
    """Replace every CNOT with 2k+1 copies; k = 0 returns an identical circuit."""
    if k < 0:
        raise ValueError("fold index must be nonnegative")
    reps = 2 * k + 1

    def expand(gates):
        out = []
        for g in gates:
            if g.kind == "CNOT":
                out.extend([g] * reps)
            else:
                out.append(g)
        return out

    init = expand(circuit.init_gates)
    evo = expand(circuit.evolution_gates)
    return Circuit(circuit.n_sites, init + evo, len(init), len(init) + len(evo), circuit.depth)


def zne_extrapolate(e1: float, e3: float) -> float:
    """Linear fit through (1, e1) and (3, e3), evaluated at amplification 0."""
    return (3.0 * e1 - e3) / 2.0


def zne_sigma(s1: float, s3: float) -> float:
    """Uncertainty of the linear extrapolation from independent runs."""
    return float(np.sqrt((1.5 * s1) ** 2 + (0.5 * s3) ** 2))
