import numpy as np
import pytest

from dense_oracle import gate_unitary, kraus_apply
from trotterchain.circuit import Circuit, Gate
from trotterchain.noise import KrausChannel, amp_phase_damping, depolarizing
from trotterchain.sim import DensityMatrix, NoiseModel, evolve_noisy

ZERO = np.array([[1, 0], [0, 0]], dtype=complex)
ONE = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def test_depolarizing_identity_at_zero():
    chan = depolarizing(0.0)
    rho = np.array([[0.7, 0.2j], [-0.2j, 0.3]])
    assert np.abs(kraus_apply(chan.operators, rho) - rho).max() < 1e-15


def test_depolarizing_fixed_point_and_action():
    for p in (0.1, 0.5, 1.0):
        chan = depolarizing(p)
        assert np.abs(kraus_apply(chan.operators, np.eye(2) / 2) - np.eye(2) / 2).max() < 1e-15
    out = kraus_apply(depolarizing(0.013).operators, ZERO)
    assert np.allclose(np.diag(out).real, [0.9935, 0.0065])
    # (1-p) rho + p I/2 for unit-trace input
    p = 0.2
    rho = np.array([[0.6, 0.1 - 0.05j], [0.1 + 0.05j, 0.4]])
    want = (1 - p) * rho + p * np.eye(2) / 2
    assert np.abs(kraus_apply(depolarizing(p).operators, rho) - want).max() < 1e-15


def test_depolarizing_rate_range():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            depolarizing(bad)


def test_damping_operators():
    chan = amp_phase_damping(0.018, 0.018)
    assert np.abs(kraus_apply(chan.operators, ZERO) - ZERO).max() < 1e-15
    out = kraus_apply(chan.operators, ONE)
    assert np.allclose(np.diag(out).real, [0.018, 0.982])
    out = kraus_apply(chan.operators, PLUS)
    assert out[0, 1] == pytest.approx(0.5 * np.sqrt(1 - 0.036))


def test_damping_rate_range():
    with pytest.raises(ValueError):
        amp_phase_damping(-0.1, 0.0)
    with pytest.raises(ValueError):
        amp_phase_damping(0.6, 0.6)


def test_nan_channels_are_rejected():
    # a NaN compares False with every bound, so a check written as "> tol" would pass it
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel((np.full((2, 2), np.nan),))
    for rates in ((np.nan, 0.01), (0.01, np.nan), (np.nan, np.nan)):
        with pytest.raises(ValueError):
            amp_phase_damping(*rates)


def test_unitality():
    assert np.abs(kraus_apply(depolarizing(0.3).operators, np.eye(2)) - np.eye(2)).max() < 1e-12
    moved = kraus_apply(amp_phase_damping(0.2, 0.1).operators, np.eye(2))
    assert np.abs(moved - np.eye(2)).max() > 1e-3


def test_completeness_enforced():
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2) * 0.9,))


def test_two_site_tensor_channel():
    base = depolarizing(0.1)
    # site 1 is the low-order factor of the Kronecker product
    pair_ops = [np.kron(b, a) for a in base.operators for b in base.operators]
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho1 = a @ a.conj().T
    rho1 /= np.trace(rho1)
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho2 = b @ b.conj().T
    rho2 /= np.trace(rho2)
    joint = np.kron(rho2, rho1)
    want = np.kron(kraus_apply(base.operators, rho2), kraus_apply(base.operators, rho1))
    assert np.abs(kraus_apply(pair_ops, joint) - want).max() < 1e-12
    # the engine's CNOT noise is this product channel on the two sites
    cnot = Gate("CNOT", (1, 2))
    u = gate_unitary(cnot, 2)
    got = evolve_noisy(Circuit(2, [cnot]), DensityMatrix(2, joint), NoiseModel(after_two_qubit=base))
    assert np.abs(got.entries - kraus_apply(pair_ops, u @ joint @ u.conj().T)).max() < 1e-12
    with pytest.raises(ValueError):
        KrausChannel(tuple(pair_ops))
