import numpy as np
import pytest

from dense_oracle import circuit_unitary, gate_unitary, matrix, step_block
from trotterchain.charges import r_check, step_unitary
from trotterchain.circuit import (
    Gate,
    InitialStateSpec,
    build_circuit,
    build_evolution,
    build_init,
    build_measurement_rotation,
    build_rcheck,
    build_step,
)
from trotterchain.pauli import PauliString

ALPHA = 0.3
DELTA = float(np.tan(ALPHA))


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1))
    with pytest.raises(ValueError):
        Gate("H", (1, 2))
    with pytest.raises(ValueError):
        Gate("H", (1,), angle=0.5)
    with pytest.raises(ValueError):
        Gate("RZ", (1,))
    with pytest.raises(ValueError):
        Gate("Q", (1,))


def test_init_mixed_letter_layout():
    gates = build_init(InitialStateSpec("YZXY", (0, 1, 0, 1)))
    assert gates == [
        Gate("H", (1,)),
        Gate("S", (1,)),
        Gate("X", (2,)),
        Gate("H", (3,)),
        Gate("X", (4,)),
        Gate("H", (4,)),
        Gate("S", (4,)),
    ]


def test_init_trivial_for_all_zeros():
    assert build_init(InitialStateSpec.zeros(4)) == []


def test_init_prepares_eigenstates():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = 3
        letters = "".join(rng.choice(list("XYZ")) for _ in range(n))
        bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
        spec = InitialStateSpec(letters, bits)
        psi = circuit_unitary(build_init(spec), n)[:, 0]
        op = matrix(PauliString.from_letters(letters))
        sign = (-1) ** sum(bits)
        assert np.abs(op @ psi - sign * psi).max() < 1e-12


def test_rcheck_block_matches_r_matrix():
    block = circuit_unitary(build_rcheck((1, 2), ALPHA), 2)
    target = np.exp(1j * ALPHA / 2) * r_check(DELTA, 2, 1, 2)
    assert np.abs(block - target).max() < 1e-12


def test_rcheck_identity_at_zero():
    block = circuit_unitary(build_rcheck((1, 2), 0.0), 2)
    assert np.abs(block - np.eye(4)).max() < 1e-12


def test_rcheck_spin_flip_symmetry():
    block = circuit_unitary(build_rcheck((1, 2), ALPHA), 2)
    xx = matrix(PauliString.from_letters("XX"))
    assert np.abs(block @ xx - xx @ block).max() < 1e-12


def test_evolution_layout():
    assert build_evolution(4, ALPHA, 0) == []
    step = build_evolution(4, ALPHA, 1)
    blocks = [g for g in step if g.kind == "CNOT"]
    assert len(step) == 4 * 9 and len(blocks) == 16  # 4 blocks, cyclic bond included
    pairs = [step[i].sites for i in range(0, len(step), 9)]
    assert pairs == [(2, 3), (4, 1), (1, 2), (3, 4)]


def test_step_circuit_matches_dense_unitary():
    n = 4
    step = build_step(n, ALPHA)
    assert (step.init_gates, step.evolution_end, step.depth) == ([], len(step.gates), 1)
    assert step_block(step) == build_evolution(n, ALPHA, 1)
    got = circuit_unitary(step.gates, n)
    want = step_unitary(DELTA, n)
    phase = got[0, 0] / want[0, 0]
    assert abs(abs(phase) - 1) < 1e-12
    assert np.abs(got - phase * want).max() < 1e-10


def test_measurement_rotation_layout():
    gates = build_measurement_rotation("ZXXY")
    assert gates == [Gate("H", (2,)), Gate("H", (3,)), Gate("SDG", (4,)), Gate("H", (4,))]
    assert build_measurement_rotation("ZZZZ") == []
    with pytest.raises(ValueError):
        build_measurement_rotation("ZIZ")


def test_rotation_conjugates_word_to_z_basis():
    word = "XYZ"
    r = circuit_unitary(build_measurement_rotation(word), 3)
    w = matrix(PauliString.from_letters(word))
    z_all = matrix(PauliString.from_letters("ZZZ"))
    assert np.abs(r @ w @ r.conj().T - z_all).max() < 1e-12


def test_full_circuit_sections_and_unitarity():
    spec = InitialStateSpec.neel(6)
    circ = build_circuit(spec, ALPHA, 2)
    assert circ.init_gates == build_init(spec)
    assert len(circ.evolution_gates) == 2 * len(step_block(circ))
    assert circ.evolution_end == len(circ.gates)
    u = circuit_unitary(circ.gates, 6)
    assert np.abs(u @ u.conj().T - np.eye(64)).max() < 1e-10


def test_cnot_count_per_step():
    for n in (4, 6, 8):
        circ = build_circuit(InitialStateSpec.zeros(n), ALPHA, 1)
        assert circ.cnot_count() == 4 * n


def test_gate_unitary_cnot_direction():
    cnot = gate_unitary(Gate("CNOT", (1, 2)), 2)
    # control site 1 (low bit): |1> -> |11>
    v = np.zeros(4)
    v[1] = 1.0
    assert np.argmax(np.abs(cnot @ v)) == 3

