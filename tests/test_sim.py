import gc
import hashlib
import re
import subprocess
import sys
import warnings
import weakref
from dataclasses import replace
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from dense_oracle import circuit_unitary, items
from strategies import gate_lists
from trotterchain import charges, pauli, sim
from trotterchain.charges import (
    VARIANTS,
    ChargeSpec,
    PauliPolynomial,
    assemble,
    assemble_cached,
    periodic_density,
    step_unitary,
)
from trotterchain.circuit import Circuit, Gate, InitialStateSpec, build_circuit, build_step
from trotterchain.mitigate import calibrate, zne_fold
from trotterchain.noise import amp_phase_damping, depolarizing
from trotterchain.sim import (
    DensityMatrix,
    NoiseModel,
    StateVector,
    evolve_noisy,
    evolve_pure,
    exact_expectation,
    from_pauli_spectrum,
    pauli_spectrum,
    sample,
)
from trotterchain.tomo import collect

ALPHA = 0.3
DELTA = float(np.tan(ALPHA))


def test_empty_circuit_is_identity():
    psi = StateVector.from_spec(InitialStateSpec.neel(4))
    out = evolve_pure(Circuit(4, []), psi)
    assert np.array_equal(out.amplitudes, psi.amplitudes)


def test_one_step_matches_dense_unitary():
    n = 4
    psi = StateVector.from_spec(InitialStateSpec.neel(n))
    out = evolve_pure(build_step(n, ALPHA), psi)
    want = step_unitary(DELTA, n) @ psi.amplitudes
    phase = want.conj() @ out.amplitudes
    assert abs(abs(phase) - 1) < 1e-12
    assert np.abs(out.amplitudes - phase * want).max() < 1e-10


def test_charge_conserved_under_pure_evolution():
    n = 6
    q = ChargeSpec(1, "plus", n)
    psi = StateVector.from_spec(InitialStateSpec.neel(n))
    (v0,) = exact_expectation(psi, [q], DELTA)
    circ = build_step(n, ALPHA)
    for _ in range(30):
        psi = evolve_pure(circ, psi)
        assert abs(exact_expectation(psi, [q], DELTA)[0] - v0) < 1e-9
    assert abs(psi.norm() - 1.0) < 1e-10


def test_zero_rate_noise_reduces_to_pure():
    n = 4
    circ = build_circuit(InitialStateSpec.neel(n), ALPHA, 2)
    zero = NoiseModel(after_one_qubit=depolarizing(0.0), after_two_qubit=depolarizing(0.0))
    rho = evolve_noisy(circ, DensityMatrix(n, _basis_dm(n, 0)), zero)
    psi = evolve_pure(circ, StateVector.zero(n))
    assert np.abs(rho.entries - np.outer(psi.amplitudes, psi.amplitudes.conj())).max() < 1e-10


def _basis_dm(n, index):
    m = np.zeros((1 << n, 1 << n), dtype=complex)
    m[index, index] = 1.0
    return m


def test_single_gate_depolarizing_channel_action():
    # diagonal gate leaves |0><0| alone, so the inserted channel acts alone
    p = 0.15
    circ = Circuit(1, [Gate("RZ", (1,), 0.4)])
    model = NoiseModel(after_one_qubit=depolarizing(p))
    rho = evolve_noisy(circ, DensityMatrix(1, _basis_dm(1, 0)), model)
    assert np.allclose(np.diag(rho.entries).real, [1 - p / 2, p / 2])


shipped_channels = st.one_of(
    st.builds(depolarizing, st.floats(0.0, 1.0)),
    st.builds(amp_phase_damping, st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 12), st.data(), st.integers(0, 2**32 - 1))
def test_pair_kernel_matches_einsum_oracle_on_complex_operators(n_bits, data, seed):
    # a (2,2,2,2) operator op[a, c, b, d] taking bits (hi, lo) = (b, d) to
    # (a, c) is the block op.transpose(2, 3, 0, 1) on bits [lo, hi], as a
    # channel's superoperator is applied
    hi = data.draw(st.integers(1, n_bits - 1))
    lo = data.draw(st.integers(0, hi - 1))
    rng = np.random.default_rng(seed)
    op = rng.normal(size=(2, 2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2, 2))
    vec = rng.normal(size=1 << n_bits) + 1j * rng.normal(size=1 << n_bits)
    want = vec.copy()
    dense_oracle.apply_pair(want, op, hi, lo)
    sim._apply_block(vec, n_bits, op.transpose(2, 3, 0, 1), [lo, hi])
    assert np.abs(vec - want).max() < 1e-13


@settings(deadline=None, max_examples=80)
@given(gate_lists(max_sites=5, max_gates=1).filter(lambda c: c.gates), st.data())
def test_gate_kernel_matches_dense_unitary(circuit, data):
    # one gate as a block on its bits: m.T for a one-qubit gate (conjugated
    # on request), the fixed CNOT block for either orientation, on any pair
    # of sites; ``offset`` moves the gate up the register
    (gate,) = circuit.gates
    offset = data.draw(st.integers(0, 3))
    conj = data.draw(st.booleans())
    n_bits = circuit.n_sites + offset + data.draw(st.integers(0, 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vec = rng.normal(size=1 << n_bits) + 1j * rng.normal(size=1 << n_bits)
    moved = Gate(gate.kind, tuple(s + offset for s in gate.sites), gate.angle)
    u = dense_oracle.gate_unitary(moved, n_bits)
    want = (u.conj() if conj else u) @ vec
    sim._apply_gate(vec, n_bits, gate, offset, conj)
    assert np.abs(vec - want).max() < 1e-13


def test_noisy_invariants_along_trajectory():
    n = 4
    model = NoiseModel(
        after_one_qubit=depolarizing(0.0013), after_two_qubit=depolarizing(0.013)
    )
    rho = DensityMatrix.from_spec(InitialStateSpec.neel(n))
    circ = build_step(n, ALPHA)
    for _ in range(10):
        rho = evolve_noisy(circ, rho, model)
        rho.check()  # hermitian, unit trace, PSD floor


def test_purity_preserved_without_noise():
    n = 4
    rho = DensityMatrix.from_spec(InitialStateSpec.neel(n))
    rho = evolve_noisy(build_step(n, ALPHA), rho, sim.IDEAL)
    assert abs(dense_oracle.purity(rho) - 1.0) < 1e-9


def test_engines_agree_on_pauli_expectations():
    n = 6
    q = ChargeSpec(2, "plus", n)
    circ = build_circuit(InitialStateSpec("YZXYZX", (0, 0, 0, 0, 0, 0)), ALPHA, 3)
    psi = evolve_pure(circ, StateVector.zero(n))
    rho = evolve_noisy(circ, DensityMatrix(n, _basis_dm(n, 0)), sim.IDEAL)
    (a,) = exact_expectation(psi, [q], DELTA)
    (b,) = exact_expectation(rho, [q], DELTA)
    assert abs(a - b) < 1e-9


@settings(deadline=None)
@given(gate_lists(max_sites=4, max_gates=12), st.integers(0, 2**32 - 1), st.data())
def test_engines_agree_on_random_circuits(circuit, seed, data):
    n = circuit.n_sites
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi = StateVector(n, amp / np.linalg.norm(amp))
    pure = evolve_pure(circuit, psi)
    rho = evolve_noisy(circuit, psi.density_matrix(), sim.IDEAL)
    assert np.abs(rho.entries - pure.density_matrix().entries).max() < 1e-12
    want = circuit_unitary(circuit.gates, n) @ psi.amplitudes
    assert np.abs(pure.amplitudes - want).max() < 1e-12
    word = data.draw(st.text("XYZ", min_size=n, max_size=n))
    p_pure = sim.rotated_probabilities(pure, [word])
    p_rho = sim.rotated_probabilities(rho, [word])
    assert np.abs(p_pure - p_rho).max() < 1e-12


@st.composite
def folded_circuits(draw):
    """``zne_fold(build_circuit(...), k)`` for k = 1 or 2: a random product state's
    preparation, then one or two steps, every CNOT repeated 2k+1 times."""
    n = draw(st.sampled_from([2, 4, 6]))
    letters = draw(st.text("XYZ", min_size=n, max_size=n))
    bits = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    alpha = draw(st.floats(-np.pi, np.pi))
    circuit = build_circuit(InitialStateSpec(letters, bits), alpha, draw(st.integers(1, 2)))
    return zne_fold(circuit, draw(st.integers(1, 2)))


noise_slots = st.none() | shipped_channels


@settings(deadline=None, max_examples=80)
@given(
    gate_lists(max_sites=6, max_gates=24) | folded_circuits(),
    st.builds(NoiseModel, noise_slots, noise_slots),
    st.integers(0, 2**32 - 1),
    st.sampled_from([None, 4, 64]),
)
def test_block_engine_matches_per_gate_oracle(circuit, noise, seed, chunk):
    # each run of gates on one pair is one compiled superoperator (one
    # unitary on the pure engine); the gate-by-gate oracles apply each gate
    # to the state itself.  ``chunk`` (if set) shrinks the chunks a block is
    # applied in, so small chains cross chunk edges too
    n = circuit.n_sites
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    rho = DensityMatrix(n, a @ a.conj().T / np.linalg.norm(a) ** 2)
    psi = StateVector(n, a[0] / np.linalg.norm(a[0]))
    before = _bits(rho.entries), _bits(psi.amplitudes)
    with mock.patch.object(sim, "_CHUNK", chunk or sim._CHUNK):
        got = evolve_noisy(circuit, rho, noise).entries
        got_pure = evolve_pure(circuit, psi).amplitudes
    want = dense_oracle.evolve_noisy(circuit, rho, noise).entries
    assert np.abs(got - want).max() < 1e-12
    want_pure = psi.copy()
    dense_oracle.apply_pure(want_pure, circuit.gates)
    assert np.abs(got_pure - want_pure.amplitudes).max() < 1e-12
    assert (_bits(rho.entries), _bits(psi.amplitudes)) == before


def test_every_bond_of_a_step_shares_one_compiled_block():
    # sites relabelled by first appearance: the cyclic bond (N, 1) compiles
    # to the same block as (2, 3) and every odd bond, on both engines
    noise = NoiseModel(depolarizing(0.0013), depolarizing(0.013))
    rho = DensityMatrix.from_spec(InitialStateSpec.neel(8))
    psi = StateVector.from_spec(InitialStateSpec.neel(8))
    with mock.patch.object(sim, "_compile", wraps=sim._compile) as compile_:
        evolve_noisy(build_step(8, ALPHA), rho, noise)
        assert compile_.call_count == 1
        evolve_pure(build_step(8, ALPHA), psi)
    assert compile_.call_count == 2


def test_a_noise_model_compiles_each_block_once():
    # the second step with the same model compiles nothing; a new model with
    # the same channels keeps its own blocks and compiles again
    one, two = depolarizing(0.0013), depolarizing(0.013)
    noise = NoiseModel(one, two)
    step = build_step(4, ALPHA)
    rho = DensityMatrix.from_spec(InitialStateSpec.neel(4))
    with mock.patch.object(sim, "_compile", wraps=sim._compile) as compile_:
        once = evolve_noisy(step, rho, noise)
        assert compile_.call_count == 1
        twice = evolve_noisy(step, once, noise)
        assert compile_.call_count == 1
        again = evolve_noisy(step, evolve_noisy(step, rho, NoiseModel(one, two)), noise)
        assert compile_.call_count == 2
    assert _bits(again.entries) == _bits(twice.entries)


def test_cached_blocks_are_read_only():
    noise = NoiseModel(depolarizing(0.0013), depolarizing(0.013))
    evolve_noisy(build_step(4, ALPHA), DensityMatrix.from_spec(InitialStateSpec.neel(4)), noise)
    (block,) = noise._blocks.values()
    with pytest.raises(ValueError, match="read-only"):
        block[(0,) * block.ndim] = 0.0


def test_the_block_memo_leaves_equality_hashing_and_replace_alone():
    one, two = depolarizing(0.0013), depolarizing(0.013)
    a, b = NoiseModel(one, two, 0.02), NoiseModel(one, two, 0.02)
    evolve_noisy(build_step(4, ALPHA), DensityMatrix.from_spec(InitialStateSpec.neel(4)), a)
    assert a._blocks and not b._blocks
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    c = replace(a, readout_flip=0.03)
    assert c != a and not c._blocks
    assert replace(a) == a and not replace(a)._blocks


@st.composite
def word_lists(draw, n):
    """Up to 12 words on n sites, drawn around a pool so prefixes and whole words repeat."""
    pool = draw(st.lists(st.text("XYZ", min_size=n, max_size=n), min_size=1, max_size=4))
    words = []
    for _ in range(draw(st.integers(0, 12))):
        k = draw(st.integers(0, n))  # the length of the prefix shared with a pool word
        tail = draw(st.text("XYZ", min_size=n - k, max_size=n - k))
        words.append(draw(st.sampled_from(pool))[:k] + tail)
    return words


def _random_state(n: int, kind: str, seed: int):
    """A product eigenstate, a random statevector, or a mixture of three plus a
    Hermitian part large enough that rotated diagonal entries fall below zero."""
    rng = np.random.default_rng(seed)
    if kind == "product":
        letters = "".join(rng.choice(list("XYZ"), size=n))
        return DensityMatrix.from_spec(InitialStateSpec(letters, tuple(rng.integers(0, 2, n))))
    amps = rng.normal(size=(3, 1 << n)) + 1j * rng.normal(size=(3, 1 << n))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    if kind == "vector":
        return StateVector(n, amps[0])
    h = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    rho = sum(w * np.outer(a, a.conj()) for w, a in zip(rng.dirichlet(np.ones(3)), amps))
    return DensityMatrix(n, rho + 0.1 * (h + h.conj().T) / (1 << n))


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 6),
    st.sampled_from(["product", "vector", "mixture"]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_batched_readout_matches_per_word_oracle(n, kind, seed, data):
    # a statevector's prefix-tree read-out rotates each letter with one fused
    # 2x2 block, the oracle with its gates one at a time; a density matrix is
    # read from its Pauli spectrum, another summation.  So both agree with the
    # oracle's full copy-rotate-square pass to round-off.  The per-row clip
    # and normalise, the readout flips and the draws follow from the engine's
    # own rows bit for bit
    state = _random_state(n, kind, seed)
    pure = isinstance(state, StateVector)
    before = _bits(state.amplitudes if pure else state.entries)
    words = data.draw(word_lists(n))
    flips = data.draw(st.none() | st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n))
    noise = NoiseModel(readout_flip=None if flips is None else tuple(flips))

    rows = sim.rotated_probabilities(state, words)
    dists = sim.outcome_distribution(state, words, noise)
    keys = [(seed, k) for k in range(len(words))]
    counts = sample(state, words, [500] * len(words), keys, noise)

    assert rows.shape == dists.shape == counts.shape == (len(words), 1 << n)
    assert counts.dtype == np.int64
    for k, w in enumerate(words):
        oracle = dense_oracle.rotated_probabilities(state, w)
        assert np.abs(rows[k] - oracle).max() <= (1e-14 if pure else 1e-12)
        want = dense_oracle.read_out(rows[k], noise)
        assert _bits(dists[k]) == _bits(want)
        assert np.array_equal(counts[k], sim.shot_rng(seed, k).multinomial(500, want))
    assert _bits(state.amplitudes if pure else state.entries) == before


def test_density_readout_of_each_word_eigenstate_is_a_point_mass():
    # the eigenstate of a word with outcome bits b, read out in that word, is
    # certain to give b: a slipped Y phase or bit order shows without the
    # oracle.  The statevector is prepared gate by gate, not from the basis
    # table its read-out uses, so a wrong table entry cannot cancel out
    for n in range(1, 5):
        specs = [
            InitialStateSpec("".join(w), bits)
            for w in product("XYZ", repeat=n)
            for bits in product((0, 1), repeat=n)
        ]
        for spec in specs:
            want = np.zeros(1 << n)
            want[sum(b << j for j, b in enumerate(spec.bits))] = 1.0
            for state in (DensityMatrix.from_spec(spec), dense_oracle.prepare(spec)):
                data = state.amplitudes if isinstance(state, StateVector) else state.entries
                before = _bits(data)
                (row,) = sim.rotated_probabilities(state, [spec.letters])
                assert np.abs(row - want).max() <= 1e-14, (spec.label(), type(state))
                assert _bits(data) == before
                assert sim.rotated_probabilities(state, []).shape == (0, 1 << n)


def test_from_spec_matches_gate_by_gate_preparation():
    # the Kronecker product of one-site eigenvectors has the floats of running
    # the preparation gates on |0..0>: every three-site spec, random specs to N=12
    rng = np.random.default_rng(12)
    specs = [
        InitialStateSpec("".join(w), bits)
        for w in product("XYZ", repeat=3)
        for bits in product((0, 1), repeat=3)
    ]
    for n in range(1, 13):
        for _ in range(8):
            letters = "".join(rng.choice(list("XYZ"), size=n))
            specs.append(InitialStateSpec(letters, tuple(int(b) for b in rng.integers(0, 2, n))))
    for spec in specs:
        got = StateVector.from_spec(spec)
        assert got.n_sites == spec.n_sites
        assert np.array_equal(got.amplitudes, dense_oracle.prepare(spec).amplitudes), spec.label()


@settings(deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_from_pauli_spectrum_inverts_pauli_spectrum(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    rho = DensityMatrix(n, a + a.conj().T)
    back = from_pauli_spectrum(pauli_spectrum(rho))
    assert back.n_sites == n
    assert np.abs(back.entries - rho.entries).max() < 1e-12


@pytest.mark.parametrize("word", ["ZIZ", "XY", "XYZZ", "xyz"])
def test_readout_rejects_malformed_words(word):
    # the error names the first malformed word
    with pytest.raises(ValueError, match=re.escape(repr(word))):
        sim.rotated_probabilities(StateVector.zero(3), ["XYZ", word, "QQQ"])


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 5), st.data())
def test_sample_count_table_rows_are_each_words_own_draws(n, data):
    # a basis state read out in a word with a Z letter has outcomes of
    # probability exactly 0, which no row may draw; each row sums to its
    # word's shots and is the row its word draws when sampled alone, so the
    # one re-keyed generator carries nothing from word to word
    state = StateVector.basis(n, data.draw(st.integers(0, (1 << n) - 1)))
    words = data.draw(word_lists(n))
    shots = data.draw(st.lists(st.integers(1, 60), min_size=len(words), max_size=len(words)))
    key = st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**20))
    keys = data.draw(st.lists(key, min_size=len(words), max_size=len(words)))
    counts = sample(state, words, shots, keys)
    assert counts.dtype == np.int64 and counts.shape == (len(words), 1 << n)
    assert counts.sum(axis=1).tolist() == shots
    assert not counts[sim.outcome_distribution(state, words) == 0.0].any()
    for row, word, k, key in zip(counts, words, shots, keys):
        assert np.array_equal(row, sample(state, [word], [k], [key])[0])


def test_shot_rng_keys_on_all_64_seed_bits():
    # a key list holding a seed above 2^63 - 1 went through float64: 2^63 + 1
    # and 2^63 + 2 drew alike, and 2^64 - 1 cast to key 0 with a RuntimeWarning
    p = np.full(16, 1 / 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = {
            key: sim.shot_rng(*key).multinomial(1000, p).tolist()
            for key in ((2**63 + 1, 0), (2**63 + 2, 0), (2**64 - 1, 7), (0, 7))
        }
        for key in ((2**63 + 1, 0), (2**64 - 1, 7)):
            (row,) = sample(StateVector.basis(4, 0), ["XXXX"], [1000], [key])
            assert row.tolist() == draws[key]
    assert draws[2**63 + 1, 0] != draws[2**63 + 2, 0]
    assert draws[2**64 - 1, 7] != draws[0, 7]
    # below 2^63 every key draws as the list-keyed generator it replaced
    for seed, word in ((0, 7), (5, 3), (2**32 + 5, 1), (2**63 - 1, 2)):
        old = np.random.Generator(np.random.Philox(key=[seed, word << 20])).multinomial(1000, p)
        assert np.array_equal(sim.shot_rng(seed, word).multinomial(1000, p), old)


def test_sample_needs_one_key_per_word():
    with pytest.raises(ValueError, match="key per word"):
        sample(StateVector.zero(2), ["ZZ", "XX"], [10, 10], [(1, 0)])
    with pytest.raises(ValueError, match="one shot count"):
        sample(StateVector.zero(2), ["ZZ", "XX"], [10], [(1, 0), (1, 1)])
    with pytest.raises(ValueError, match="shots must be >= 1"):
        sample(StateVector.zero(2), ["ZZ", "XX"], [10, 0], [(1, 0), (1, 1)])


def test_noisy_evolution_keeps_no_reference_to_its_channels():
    channel = depolarizing(0.013)
    ref = weakref.ref(channel)
    noise = NoiseModel(after_one_qubit=channel, after_two_qubit=channel)
    evolve_noisy(build_step(4, ALPHA), DensityMatrix.from_spec(InitialStateSpec.neel(4)), noise)
    del channel, noise
    gc.collect()
    assert ref() is None


def test_density_budget():
    with pytest.raises(sim.BudgetError):
        evolve_noisy(build_step(12, ALPHA), DensityMatrix(12, _basis_dm(12, 0)), sim.IDEAL)


def test_exact_expectation_neel_at_zero_delta():
    n = 6
    q = ChargeSpec(1, "plus", n)
    psi = StateVector.from_spec(InitialStateSpec.neel(n))
    assert exact_expectation(psi, [q], 0.0)[0] == pytest.approx(-2 * n / 2 + -n / 2 * 0)
    # every bond contributes -1 at delta = 0
    assert exact_expectation(psi, [q], 0.0)[0] == pytest.approx(-n)


def test_traceless_charge_on_mixed_state():
    n = 4
    q = ChargeSpec(1, "dif", n)
    rho = dense_oracle.completely_mixed(n)
    assert abs(exact_expectation(rho, [q], DELTA)[0]) < 1e-12


def test_exact_expectation_rejects_a_non_hermitian_density_matrix():
    # rho = I/2^N + 1e-3 i P with P a string of Q1+: the half-row evaluation
    # assumes rho = rho^H, so rho must be refused rather than read half
    n = 4
    spec = ChargeSpec(1, "plus", n)
    string = next(periodic_density(spec).terms)
    rho = np.eye(1 << n, dtype=complex) / (1 << n) + 1e-3j * dense_oracle.matrix(string)
    with pytest.raises(ValueError):
        exact_expectation(DensityMatrix(n, rho), [spec], DELTA)


def test_hermiticity_deviation_is_the_largest_entry_of_rho_minus_its_adjoint():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    before = m.copy()
    assert sim.hermiticity_deviation(m) == np.abs(m - m.conj().T).max()
    assert np.array_equal(m, before)  # read only
    assert sim.hermiticity_deviation(m + m.conj().T) == 0.0


def test_sample_deterministic_z_word():
    psi = StateVector.zero(4)
    ((*row,),) = sample(psi, ["ZZZZ"], [500], [(9, 0)])
    assert row == [500] + [0] * 15  # {"0000": 500}


def test_sample_seed_reproducible_and_sums():
    psi = StateVector.from_spec(InitialStateSpec("XYZX", (0, 1, 0, 1)))
    c1, c2, c3 = (sample(psi, ["ZZZZ"], [1000], [(s, 0)])[0].tolist() for s in (3, 3, 4))
    assert c1 == c2
    assert sum(c1) == 1000
    assert c1 != c3


def test_sample_uniform_on_mixed_state():
    n = 3
    rho = dense_oracle.completely_mixed(n)
    shots = 80_000
    (counts,) = sample(rho, ["XYZ"], [shots], [(1, 0)])
    expect = shots / (1 << n)
    sigma = np.sqrt(shots * (1 / 8) * (7 / 8))
    for v in counts:
        assert abs(v - expect) < 5 * sigma


def test_sample_chi_square_against_exact():
    rng = np.random.default_rng(11)
    n = 4
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi = StateVector(n, amp / np.linalg.norm(amp))
    word = "XZYX"
    (p,) = sim.rotated_probabilities(psi, [word])
    shots = 100_000
    (obs,) = sample(psi, [word], [shots], [(2, 0)])
    chi2 = float(np.sum((obs - shots * p) ** 2 / (shots * p)))
    # 0.999 quantile of chi-square with 15 degrees of freedom
    assert chi2 < 37.697


def test_readout_flip_changes_distribution():
    psi = StateVector.zero(2)
    noisy = NoiseModel(readout_flip=0.25)
    (counts,) = sample(psi, ["ZZ"], [40_000], [(5, 0)], noise=noisy)
    freq10 = counts[1] / 40_000  # "10": site 1 reads 1
    assert freq10 == pytest.approx(0.25 * 0.75, abs=0.01)


@pytest.mark.parametrize("flip", [1.5, -0.1, float("nan"), (0.1, 1.2), (0.1, 0.1, 0.1)])
def test_readout_flip_probabilities_checked(flip):
    with pytest.raises(ValueError):
        NoiseModel(readout_flip=flip).flip_probs(2)


def test_expectation_cross_checks_sampling():
    n = 4
    q = assemble(ChargeSpec(1, "plus", n))
    psi = StateVector.from_spec(InitialStateSpec.neel(n))
    (exact,) = exact_expectation(psi, [ChargeSpec(1, "plus", n)], DELTA)
    # direct resampling of each term through its own word
    total = 0.0
    for s, poly in items(q):
        word = s.letters().replace("I", "Z")
        (p,) = sim.rotated_probabilities(psi, [word])
        idx = np.arange(1 << n)
        par = 1 - 2 * (np.bitwise_count(idx & np.int64(s.support_mask)).astype(int) & 1)
        total += poly(DELTA) * float(p @ par)
    assert total == pytest.approx(exact, abs=1e-10)


def _expectation_state(n: int, kind: str, seed: int):
    """A product state or a random statevector; on the density engine a random
    rank-2 mixture, or a product state after a damped H-and-CNOT chain."""
    rng = np.random.default_rng(seed)
    letters = "".join(rng.choice(list("XYZ"), size=n))
    spec = InitialStateSpec(letters, tuple(int(b) for b in rng.integers(0, 2, n)))
    engine, kind = kind.split("-")
    if kind == "product":
        return (StateVector if engine == "pure" else DensityMatrix).from_spec(spec)
    if kind == "damped":
        gates = [Gate("H", (1,))] + [Gate("CNOT", (j, j + 1)) for j in range(1, n)]
        damping = amp_phase_damping(0.05, 0.03)
        rho = DensityMatrix.from_spec(spec)
        return evolve_noisy(Circuit(n, gates), rho, NoiseModel(damping, damping))
    amps = rng.normal(size=(2, 1 << n)) + 1j * rng.normal(size=(2, 1 << n))
    if engine == "pure":
        return StateVector(n, amps[0] / np.linalg.norm(amps[0]))
    rho = amps.T @ amps.conj()
    return DensityMatrix(n, rho / np.trace(rho).real)


def _specs(n: int) -> list:
    """Every charge on n sites: each order up to (n-2)/2, each variant."""
    return [ChargeSpec(o, v, n) for o in range(1, (n - 2) // 2 + 1) for v in VARIANTS]


def _assert_matches_oracle(state, specs, got):
    # the assembled charge summed term by term, to round-off on its own scale
    for spec, value in zip(specs, got):
        q = assemble_cached(spec)
        bound = 1e-13 * np.abs(q.coefficients(DELTA)).sum()
        assert abs(value - dense_oracle.exact_expectation(state, q, DELTA)) <= bound, spec


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([4, 6, 8, 10, 12]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([None, 1, 2, 3, 5]),
    st.data(),
)
def test_exact_expectation_matches_oracle_on_random_states(n, seed, rows, data):
    # the periodic densities, summed over the state's two-site rotations, give
    # the assembled charges' values; ``rows`` (if set) shrinks the block to that
    # many x masks (half rows of 2^(N-1) entries) so every density crosses
    # block edges; density matrices up to N = 8
    kinds = ["pure-product", "pure-random"] + ["dm-product", "dm-random", "dm-damped"] * (n <= 8)
    state = _expectation_state(n, data.draw(st.sampled_from(kinds)), seed)
    specs = data.draw(st.lists(st.sampled_from(_specs(n)), min_size=1, max_size=6))
    block = sim._CHUNK if rows is None else rows << (n - 1)
    with mock.patch.object(sim, "_CHUNK", block):
        got = exact_expectation(state, specs, DELTA)
    _assert_matches_oracle(state, specs, got)


@settings(deadline=None, max_examples=25)
@given(
    st.sampled_from([4, 6, 8, 10]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([None, 1, 3]),
    st.data(),
)
def test_each_value_is_independent_of_the_charges_sharing_the_call(n, seed, rows, data):
    # one pass over the union of the densities' x masks serves every charge of
    # the call: a charge's value must not depend on which others share it
    kinds = ["pure-random"] + ["dm-random"] * (n <= 8)
    state = _expectation_state(n, data.draw(st.sampled_from(kinds)), seed)
    specs = data.draw(st.lists(st.sampled_from(_specs(n)), min_size=2, max_size=6))
    block = sim._CHUNK if rows is None else rows << (n - 1)
    with mock.patch.object(sim, "_CHUNK", block):
        together = exact_expectation(state, specs, DELTA)
        alone = [exact_expectation(state, [spec], DELTA)[0] for spec in specs]
    for spec, a, b in zip(specs, alone, together):
        bound = 1e-13 * np.abs(assemble_cached(spec).coefficients(DELTA)).sum()
        assert abs(a - b) <= bound, spec


@pytest.mark.parametrize("kind", ["pure-random", "dm-damped"])
def test_exact_expectation_across_blocks_matches_oracle(kind):
    # every charge at the module's own block size, in one call; the x masks of
    # the largest density fill several blocks of half rows
    n = 12 if kind == "pure-random" else 10
    specs = _specs(n)
    assert len(set(periodic_density(specs[-1]).x.tolist())) > 2 * (sim._CHUNK >> (n - 1))
    state = _expectation_state(n, kind, 5)
    _assert_matches_oracle(state, specs, exact_expectation(state, specs, DELTA))


def _edge_density(n: int, seed: int) -> PauliPolynomial:
    """Random integer strings on n sites whose x masks include 0, masks with
    top bit 0 (x = 1) and masks with top bit N-1, beside random ones."""
    rng = np.random.default_rng(seed)
    top = 1 << (n - 1)
    xs = np.array([0, 0, 1, 1, top, top | 1, top | 2, 3] + rng.integers(0, 1 << n, 8).tolist())
    zs = rng.integers(0, 1 << n, len(xs))
    zs[xs == 0] |= 1  # no identity string
    keys = np.unique(pauli.key(xs, zs, n))
    coeffs = rng.integers(-3, 4, (len(keys), 2))
    coeffs[:, 0] = rng.choice([-2, -1, 1, 2], len(keys))
    return PauliPolynomial.from_arrays(n, *pauli.unkey(keys, n), coeffs)


@pytest.mark.parametrize("rows", [None, 1, 3])
@pytest.mark.parametrize("kind", ["pure-random", "dm-random"])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_half_rows_match_oracle_at_pair_bit_edges(n, kind, rows):
    # a statevector's half-row blocks are cut where the pair bit (the top bit
    # of x) changes, as well as every ``rows`` masks, and its x = 0 strings
    # read the transform of the populations instead: densities with x = 0, top
    # bit 0 and top bit N-1, patched in for two charges, against the oracle on
    # their sums over the two-site rotations (a density matrix reads them off
    # its Pauli rows)
    specs = [ChargeSpec(1, "plus", n), ChargeSpec(1, "minus", n)]
    fake = {spec: _edge_density(n, seed) for seed, spec in enumerate(specs)}
    for q in fake.values():
        tops = {n - 1 if x == 0 else x.bit_length() - 1 for x in q.x.tolist()}
        assert {0, n - 1} <= tops and 0 in q.x
    state = _expectation_state(n, kind, n)
    block = sim._CHUNK if rows is None else rows << (n - 1)
    with (
        mock.patch.object(sim, "_CHUNK", block),
        mock.patch.object(sim, "periodic_density", fake.__getitem__),
        mock.patch.object(charges, "periodic_density", fake.__getitem__),
    ):
        got = exact_expectation(state, specs, DELTA)
        for spec, value in zip(specs, got):
            q = assemble(spec)
            bound = 1e-13 * np.abs(q.coefficients(DELTA)).sum()
            assert abs(value - dense_oracle.exact_expectation(state, q, DELTA)) <= bound, spec


@pytest.mark.parametrize("n", [8, 10])
def test_density_matrix_reads_one_set_of_pauli_rows(n):
    # every charge of a call is read off one request for rows of rho's Pauli
    # spectrum, exactly the sorted union of the densities' rotated x masks
    # (43 of 256 rows for Q1+ and Q2+ at N=8, 56 of 1,024 at N=10); a
    # statevector never asks for any
    q1, q2 = ChargeSpec(1, "plus", n), ChargeSpec(2, "plus", n)
    rho = _expectation_state(n, "dm-random", n)
    for specs in ([q1], [q1, q2], [q1, q2, ChargeSpec(1, "minus", n), ChargeSpec(2, "dif", n)]):
        want = set()
        for spec in specs:
            want.update(pauli.rotations(periodic_density(spec).x, n).reshape(-1).tolist())
        with mock.patch.object(sim, "_pauli_rows", wraps=sim._pauli_rows) as spy:
            exact_expectation(rho, specs, DELTA)
        assert spy.call_count == 1
        state, xs = spy.call_args.args
        assert state is rho and xs.tolist() == sorted(want)
        if specs == [q1, q2]:
            assert len(xs) == {8: 43, 10: 56}[n]
    with mock.patch.object(sim, "_pauli_rows", wraps=sim._pauli_rows) as spy:
        exact_expectation(_expectation_state(n, "pure-random", n), [q1, q2], DELTA)
    assert spy.call_count == 0


def test_exact_expectation_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma, several MB of resident memory for one
    # evaluation or one boosted density (built from cold here)
    code = (
        "import sys\n"
        "from trotterchain.charges import ChargeSpec, window_density\n"
        "from trotterchain.circuit import InitialStateSpec\n"
        "from trotterchain.sim import DensityMatrix, exact_expectation\n"
        "rho = DensityMatrix.from_spec(InitialStateSpec.neel(6))\n"
        "exact_expectation(rho, [ChargeSpec(k, 'dif', 6) for k in (2, 1, 2)], 0.3)\n"
        "window_density(4, 'plus')\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = Path(sim.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src), "PATH": ""},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _float_digest(values):
    return hashlib.sha256("\n".join(float.hex(v) for v in values).encode()).hexdigest()


def test_exact_expectations_match_pinned_digest():
    # exact_expectation of Q1+..Q4+, Q1dif and Q2dif at N=10 on one product
    # state at d = 0..2; any change to the floats of the charge evaluation shows
    n = 10
    specs = [ChargeSpec(k, "plus", n) for k in (1, 2, 3, 4)] + [
        ChargeSpec(k, "dif", n) for k in (1, 2)
    ]
    psi = StateVector.from_spec(InitialStateSpec("XYZZYXZYXZ", (0, 1, 1, 0, 1, 0, 0, 1, 1, 0)))
    step = build_step(n, ALPHA)
    values = []
    for _ in range(3):
        values += exact_expectation(psi, specs, DELTA)
        psi = evolve_pure(step, psi)
    assert _float_digest(values) == (
        "e5b978ef55ea643e6def96614bad487b97e62dc1dead572c66a869b2b0205c14"
    )


def test_finite_shot_readout_matches_pinned_digest():
    # sha256 of the raw bytes of a sampled calibration matrix (per-site flips,
    # 500 shots per column) and of the counts of a 700-shot tomography table
    # of a damped N=4 state: any change to how shots are drawn or read out shows
    calib = calibrate(NoiseModel(readout_flip=(0.05, 0.2, 0.0)), 3, shots=500, seed=3)
    damping = amp_phase_damping(0.018, 0.018)
    rho = DensityMatrix.from_spec(InitialStateSpec.neel(4))
    for _ in range(2):
        rho = evolve_noisy(build_step(4, ALPHA), rho, NoiseModel(damping, damping))
    freqs = np.rint(collect(rho, 700, seed=5) * 700)
    assert [hashlib.sha256(a.tobytes()).hexdigest() for a in (calib.matrix, freqs)] == [
        "d2809a187cc4a6f3929ca61d645f4200e6f054c5e29f7170dd829a4b5a91febb",
        "174850ac2f088ae77e0a321aea9269b2cbb588871fb5ccc0aa1ac7e45b09c257",
    ]
