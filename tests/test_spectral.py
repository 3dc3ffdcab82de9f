from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_oracle import pauli_transfer_matrix, step_superoperator
from strategies import gate_lists
from trotterchain import cli, sim
from trotterchain.charges import ChargeSpec
from trotterchain.circuit import Circuit, Gate, InitialStateSpec, build_step
from trotterchain.noise import amp_phase_damping, depolarizing
from trotterchain.sim import (
    DensityMatrix,
    NoiseModel,
    evolve_noisy,
    exact_expectation,
    from_pauli_spectrum,
    pauli_spectrum,
)
from trotterchain.spectral import (
    UNIT_EIGENVALUE_TOL,
    DegenerateFixedPointError,
    SuperOperator,
    decay_rate,
    fixed_point,
    fixed_point_gap,
    spectrum,
    vectorize_step,
)

ALPHA = 0.3
DELTA = float(np.tan(ALPHA))
N = 4


def depol_model(p1, p2):
    return NoiseModel(after_one_qubit=depolarizing(p1), after_two_qubit=depolarizing(p2))


@pytest.fixture(scope="module")
def noiseless_op():
    return vectorize_step(build_step(N, ALPHA), sim.IDEAL)


@pytest.fixture(scope="module")
def depol_op():
    return vectorize_step(build_step(N, ALPHA), depol_model(0.018, 0.018))


def test_identity_circuit_identity_noise():
    op = vectorize_step(Circuit(2, []), sim.IDEAL)
    assert np.abs(op.matrix - np.eye(16)).max() < 1e-14


def test_noiseless_spectrum_on_unit_circle(noiseless_op):
    vals = spectrum(noiseless_op)
    assert len(vals) == 256
    assert np.abs(np.abs(vals) - 1.0).max() < 1e-8


def test_superoperator_matches_density_engine(depol_op):
    # R maps the Pauli spectrum of rho to that of E(rho)
    rng = np.random.default_rng(0)
    model = depol_model(0.018, 0.018)
    circ = build_step(N, ALPHA)
    for _ in range(20):
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        via_op = depol_op.matrix @ pauli_spectrum(DensityMatrix(N, rho)).reshape(-1)
        via_engine = pauli_spectrum(evolve_noisy(circ, DensityMatrix(N, rho), model)).reshape(-1)
        assert np.abs(via_op - via_engine).max() < 1e-10


def test_noisy_spectrum_structure(depol_op):
    vals = spectrum(depol_op)
    assert len(vals) == 256
    assert np.sum(np.abs(vals - 1.0) < 1e-8) == 1
    mods = np.abs(vals)
    assert np.all(mods <= 1.0 + 1e-8)
    assert np.sort(mods)[-2] < 1.0
    # conjugation symmetry: the eigenvalue multiset equals its conjugate
    srt = np.sort_complex(np.round(vals, 8))
    srt_conj = np.sort_complex(np.round(vals.conj(), 8))
    assert np.abs(srt - srt_conj).max() < 1e-6


@pytest.mark.parametrize("kind", ["depolarizing", "damping"])
def test_spectrum_order_survives_round_off(kind):
    # every modulus tie at N=4 is a conjugate pair, ordered by its imaginary
    # part: a 1e-14 relative move of the transfer matrix moves no row
    damping = amp_phase_damping(0.018, 0.018)
    model = {
        "depolarizing": depol_model(0.0013, 0.013),
        "damping": NoiseModel(damping, damping),
    }[kind]
    op = vectorize_step(build_step(N, ALPHA), model)
    rng = np.random.default_rng(0)
    moved = SuperOperator(N, op.matrix * (1 + 1e-14 * rng.standard_normal(op.matrix.shape)))
    vals = spectrum(op)
    assert np.sum(vals.imag > 1e-8) >= 90  # conjugate pairs, each a modulus tie to order
    assert np.abs(spectrum(moved) - vals).max() < 1e-12


def test_fixed_point_depolarizing_is_mixed(depol_op):
    fp = fixed_point(depol_op)
    assert np.abs(fp.entries - np.eye(16) / 16).max() < 1e-8
    assert abs(exact_expectation(fp, [ChargeSpec(1, "plus", N)], DELTA)[0]) < 1e-8  # c2 = 0


def test_fixed_point_damping_is_not_mixed():
    model = NoiseModel(after_two_qubit=amp_phase_damping(0.018, 0.018))
    op = vectorize_step(build_step(N, ALPHA), model)
    fp = fixed_point(op)
    dist = np.abs(fp.entries - np.eye(16) / 16).max()
    assert dist > 1e-3
    assert abs(exact_expectation(fp, [ChargeSpec(1, "plus", N)], DELTA)[0]) > 1e-3  # nonzero c2


@pytest.mark.parametrize("kind", ["depolarizing", "damping"])
def test_fixed_point_gap_is_the_distance_of_the_second_eigenvalue_from_one(depol_op, kind):
    if kind == "depolarizing":
        op = depol_op
    else:
        model = NoiseModel(after_two_qubit=amp_phase_damping(0.018, 0.018))
        op = vectorize_step(build_step(N, ALPHA), model)
    dist = np.sort(np.abs(spectrum(op) - 1.0))
    assert dist[0] < UNIT_EIGENVALUE_TOL < dist[1]  # one unit eigenvalue
    assert fixed_point_gap(op) == dist[1]
    fixed_point(op)  # unique: the gap exceeds the tolerance


def test_fixed_point_degenerate_noiseless(noiseless_op):
    with pytest.raises(DegenerateFixedPointError):
        fixed_point(noiseless_op)


def test_decay_rate(noiseless_op, depol_op):
    assert decay_rate(spectrum(noiseless_op)) is None
    g1 = decay_rate(spectrum(depol_op))
    g2 = decay_rate(spectrum(vectorize_step(build_step(N, ALPHA), depol_model(0.036, 0.036))))
    assert g1 > 0
    assert g2 > g1  # more noise decays faster


def test_powers_match_engine_trajectory(depol_op):
    model = depol_model(0.018, 0.018)
    circ = build_step(N, ALPHA)
    rho = DensityMatrix.from_spec(InitialStateSpec.neel(N))
    q = ChargeSpec(1, "plus", N)
    paulis = pauli_spectrum(rho).reshape(-1)
    for _ in range(10):
        paulis = depol_op.matrix @ paulis
        rho = evolve_noisy(circ, rho, model)
        (a,) = exact_expectation(from_pauli_spectrum(paulis.reshape(16, 16)), [q], DELTA)
        (b,) = exact_expectation(rho, [q], DELTA)
        assert abs(a - b) < 1e-9


def test_identity_left_fixed_point(depol_op):
    # trace preservation: tr E(Q) = tr Q, so the identity's row of R is e_0
    assert np.abs(depol_op.matrix[0] - np.eye(256)[0]).max() < 1e-10


def test_budget():
    with pytest.raises(ValueError):
        vectorize_step(build_step(6, ALPHA), sim.IDEAL)


def test_vectorize_step_refuses_non_hermiticity_preserving_channel():
    # a stand-in channel rho -> i rho after each one-qubit gate: the Choi state
    # comes out anti-Hermitian, and no real Pauli transfer matrix describes it
    channel = SimpleNamespace(superop=1j * np.eye(4).reshape(2, 2, 2, 2))
    with pytest.raises(ValueError, match="Hermiticity"):
        vectorize_step(Circuit(1, [Gate("H", (1,))]), NoiseModel(after_one_qubit=channel))


@st.composite
def channels(draw):
    kind = draw(st.sampled_from(["none", "depolarizing", "damping"]))
    if kind == "depolarizing":
        return depolarizing(draw(st.floats(0.0, 1.0)))
    if kind == "damping":
        return amp_phase_damping(draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.5)))
    return None


@settings(deadline=None)
@given(gate_lists(), channels(), channels())
def test_choi_superoperator_matches_dense_oracle(circuit, one_qubit, two_qubit):
    noise = NoiseModel(after_one_qubit=one_qubit, after_two_qubit=two_qubit)
    got = vectorize_step(circuit, noise).matrix
    assert np.abs(got - pauli_transfer_matrix(circuit, noise)).max() < 1e-12


def _cluster_distance(a, b, radius=1e-3):
    """Largest distance between the means of ``a`` and of ``b`` over the clusters
    of their union, the eigenvalues linked by steps shorter than ``radius``.

    The eigenvalues of a Jordan block are fixed by the matrix only to about
    sqrt(machine epsilon), so two solvers may split a defective eigenvalue
    differently by 1e-8; the mean of the cluster is fixed to round-off.  A
    simple eigenvalue is its own cluster.  Clustering the union once, not
    each side on its own, keeps two eigenvalues about one radius apart in the
    same clusters on both sides.  Each cluster must hold as many of ``a`` as
    of ``b``.
    """
    vals = np.concatenate([a, b])
    link = (np.abs(vals[:, None] - vals[None, :]) < radius).astype(float)
    while True:
        wider = ((link @ link) > 0).astype(float)
        if (wider == link).all():
            break
        link = wider
    in_a = np.arange(len(vals)) < len(a)
    worst = 0.0
    for first in np.unique(np.argmax(link, axis=1)):  # one row per cluster
        members = link[first] > 0
        from_a, from_b = vals[members & in_a], vals[members & ~in_a]
        assert len(from_a) == len(from_b), f"cluster at {vals[first]:.6f} splits unevenly"
        worst = max(worst, abs(from_a.mean() - from_b.mean()))
    return worst


@settings(deadline=None)
@given(gate_lists(), channels(), channels())
@example(Circuit(2, [Gate("CNOT", (1, 2))]), None, depolarizing(0.001))  # eigenvalues 1 and 0.999
# damping after H and S: the fixed point has <Y> != 0, a string with an odd
# number of Y letters, the only kind where i^|x & z| and its conjugate differ
@example(Circuit(1, [Gate("H", (1,)), Gate("S", (1,))]), amp_phase_damping(0.3, 0.1), None)
def test_pauli_basis_spectrum_and_fixed_point_match_dense_oracle(circuit, one_qubit, two_qubit):
    noise = NoiseModel(after_one_qubit=one_qubit, after_two_qubit=two_qubit)
    oracle = step_superoperator(circuit, noise)
    op = vectorize_step(circuit, noise)
    want, vecs = np.linalg.eig(oracle)
    assert _cluster_distance(spectrum(op), want) < 1e-10
    # An eigenvector's round-off error grows as 1/gap, so the fixed point is
    # compared where it is unique and isolated from the rest of the spectrum.
    order = np.argsort(np.abs(want - 1.0))
    if abs(want[order[0]] - 1.0) < UNIT_EIGENVALUE_TOL and abs(want[order[1]] - 1.0) > 1e-4:
        dim = 1 << circuit.n_sites
        rho = vecs[:, order[0]].reshape(dim, dim)
        rho = (rho + rho.conj().T) / 2.0
        rho /= np.trace(rho).real
        assert np.abs(fixed_point(op).entries - rho).max() < 1e-10


def test_spectrum_report_diagonalizes_once(monkeypatch):
    calls = []
    for name in ("eig", "eigvals"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    config = cli.ExperimentConfig(n_sites=N, noise={"kind": "depolarizing", "p1": 0.018, "p2": 0.018})
    report = cli.spectrum_report(config)
    assert len(report["eigenvalues"]) == 256 and "fixed_point_c2" in report
    assert report["fixed_point_gap"] > UNIT_EIGENVALUE_TOL
    assert calls == ["eig"]


def test_non_hermiticity_preserving_superoperator_raises():
    # rho -> i rho: its Pauli transfer matrix is i times the identity
    op = SuperOperator(2, 1j * np.eye(16))
    with pytest.raises(ValueError, match="Hermiticity"):
        spectrum(op)
    with pytest.raises(ValueError, match="Hermiticity"):
        fixed_point(op)
