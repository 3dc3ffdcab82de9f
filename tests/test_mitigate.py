import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_oracle
from dense_oracle import circuit_unitary
from trotterchain.charges import ChargeSpec
from trotterchain.circuit import InitialStateSpec, build_circuit
from trotterchain.mitigate import (
    CalibrationMatrix,
    calibrate,
    correct,
    zne_extrapolate,
    zne_fold,
    zne_sigma,
)
from trotterchain.sim import NoiseModel, StateVector, evolve_pure, exact_expectation

ALPHA = 0.3
DELTA = float(np.tan(ALPHA))


def test_calibrate_identity_without_flips():
    a = calibrate(NoiseModel(), 3, shots=None)
    assert np.allclose(a.matrix, np.eye(8))


def test_calibrate_tensor_structure_exact():
    q = 0.07
    a = calibrate(NoiseModel(readout_flip=q), 3, shots=None)
    single = np.array([[1 - q, q], [q, 1 - q]])
    want = np.kron(np.kron(single, single), single)
    assert np.abs(a.matrix - want).max() < 1e-12
    assert np.abs(a.matrix.sum(axis=0) - 1.0).max() < 1e-12


def test_calibrate_sampled_columns_stochastic():
    a = calibrate(NoiseModel(readout_flip=0.1), 2, shots=5000, seed=4)
    assert np.abs(a.matrix.sum(axis=0) - 1.0).max() < 1e-12
    assert a.matrix.min() >= 0.0


def test_correct_identity():
    a = CalibrationMatrix(2, np.eye(4))
    f = np.array([0.5, 0.25, 0.25, 0.0])
    assert np.abs(correct(f, a) - f).max() < 1e-9


def test_correct_inverts_flip_model():
    q = 0.08
    a = calibrate(NoiseModel(readout_flip=q), 3, shots=None)
    rng = np.random.default_rng(0)
    p = rng.random(8)
    p /= p.sum()
    observed = a.matrix @ p
    rec = correct(observed, a)
    assert np.abs(rec - p).max() < 1e-8
    assert rec.min() >= 0.0 and rec.sum() == pytest.approx(1.0, abs=1e-12)


def test_correct_rejects_singular():
    bad = CalibrationMatrix(1, np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="singular"):
        correct(np.array([0.6, 0.4]), bad)
    with pytest.raises(ValueError, match="singular"):
        correct(np.array([[0.6, 0.4], [0.5, 0.5]]), bad)


def test_correct_rejects_empty_rows_and_wrong_shapes():
    a = calibrate(NoiseModel(readout_flip=0.05), 2, shots=None)
    with pytest.raises(ValueError, match="empty"):
        correct(np.zeros(4), a)
    with pytest.raises(ValueError, match="empty"):
        correct(np.array([[0.2, 0.3, 0.4, 0.1], [0.0, 0.0, 0.0, 0.0]]), a)
    for shape in ((3,), (2, 3), (1, 2, 4)):
        with pytest.raises(ValueError, match="length"):
            correct(np.ones(shape), a)


@st.composite
def unfold_cases(draw):
    """A calibration on 1..4 sites, flip model or a random column-stochastic
    matrix near the identity, and a stack of unnormalised observed rows:
    images of simplex points, which one step fixes, mixed with sparse rows
    outside the calibration's image, which take tens to hundreds of steps."""
    n = draw(st.integers(1, 4))
    dim = 1 << n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        calib = calibrate(NoiseModel(readout_flip=draw(st.floats(0.0, 0.3))), n, shots=None)
    else:
        mix = draw(st.floats(0.0, 0.4))
        columns = rng.dirichlet(np.ones(dim), size=dim).T
        calib = CalibrationMatrix(n, (1.0 - mix) * np.eye(dim) + mix * columns)
        assume(np.linalg.eigvalsh(calib.matrix.T @ calib.matrix).min() > 1e-6)
    rows = [
        calib.matrix @ rng.dirichlet(np.ones(dim)) if inside else rng.dirichlet(np.full(dim, 0.1))
        for inside in draw(st.lists(st.booleans(), min_size=1, max_size=6))
    ]
    return calib, np.array(rows) * draw(st.floats(0.5, 1000.0))


@settings(deadline=None, max_examples=80)
@given(unfold_cases())
def test_stacked_correct_matches_the_row_by_row_oracle(case):
    calib, rows = case
    got = correct(rows, calib)
    assert got.shape == rows.shape
    for row, x in zip(rows, got):
        assert np.abs(x - dense_oracle.correct(row, calib)).max() <= 1e-12
        assert x.min() >= 0.0 and abs(x.sum() - 1.0) <= 1e-12
    assert np.array_equal(correct(rows[0], calib), correct(rows[:1], calib)[0])


def test_zne_fold_counts_and_identity():
    circ = build_circuit(InitialStateSpec.neel(4), ALPHA, 2)
    assert zne_fold(circ, 0).gates == circ.gates
    folded = zne_fold(circ, 1)
    assert folded.cnot_count() == 3 * circ.cnot_count()
    assert folded.depth == circ.depth
    with pytest.raises(ValueError):
        zne_fold(circ, -1)


def test_zne_fold_preserves_unitary():
    circ = build_circuit(InitialStateSpec.neel(4), ALPHA, 1)
    u0 = circuit_unitary(circ.gates, 4)
    u1 = circuit_unitary(zne_fold(circ, 1).gates, 4)
    assert np.abs(u0 - u1).max() < 1e-12


def test_folding_keeps_noiseless_charge_values():
    n = 4
    q = ChargeSpec(1, "plus", n)
    for depth in (1, 2, 3):
        circ = build_circuit(InitialStateSpec.neel(n), ALPHA, depth)
        psi0 = evolve_pure(circ, StateVector.zero(n))
        psi1 = evolve_pure(zne_fold(circ, 1), StateVector.zero(n))
        (a,) = exact_expectation(psi0, [q], DELTA)
        (b,) = exact_expectation(psi1, [q], DELTA)
        assert abs(a - b) < 1e-9


def test_zne_extrapolation_values():
    assert zne_extrapolate(2.0, 2.0) == 2.0
    assert zne_extrapolate(-3.0, -1.0) == -4.0
    assert zne_sigma(0.1, 0.2) == pytest.approx(np.hypot(0.15, 0.1))
