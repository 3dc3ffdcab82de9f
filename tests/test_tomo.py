import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from trotterchain import cli, tomo
from trotterchain.circuit import Circuit, Gate, InitialStateSpec
from trotterchain.noise import amp_phase_damping
from trotterchain.sim import DensityMatrix, NoiseModel, StateVector, evolve_noisy
from trotterchain.tomo import (
    all_words,
    collect,
    fidelities,
    fidelity,
    linear_inversion,
    psd_project,
    reconstruct,
    simplex_project,
)


def test_collect_single_qubit_exact():
    rho = DensityMatrix(1, np.array([[1, 0], [0, 0]], dtype=complex))
    freqs = collect(rho, None)
    z_row = all_words(1).index("Z")
    assert np.allclose(freqs[z_row], [1.0, 0.0])


def test_collect_counts_sum_to_shots():
    rho = DensityMatrix.from_spec(InitialStateSpec("XY", (0, 1)))
    freqs = collect(rho, 300, seed=1)
    assert freqs.shape == (9, 4)
    assert np.all(np.rint(freqs * 300).sum(axis=1) == 300)
    with pytest.raises(ValueError, match="must have shape"):
        linear_inversion(freqs[:-1])


def test_frequencies_converge_at_sqrt_rate():
    rho = DensityMatrix.from_spec(InitialStateSpec("YZ", (0, 0)))
    exact = collect(rho, None)
    errs = {}
    for shots in (1000, 100_000):
        errs[shots] = np.abs(collect(rho, shots, seed=3) - exact).mean()
    ratio = errs[1000] / errs[100_000]
    assert 3.0 < ratio < 33.0  # ~ sqrt(100) = 10


def test_linear_inversion_exact_mode():
    spec = InitialStateSpec("XYZ", (1, 0, 1))
    rho = DensityMatrix.from_spec(spec)
    rec = linear_inversion(collect(rho, None))
    assert np.abs(rec - rho.entries).max() < 1e-10
    assert np.trace(rec).real == pytest.approx(1.0, abs=1e-12)


def test_linear_inversion_can_go_negative():
    rho = DensityMatrix.from_spec(InitialStateSpec("XY", (0, 0)))
    found = False
    for seed in range(8):
        rec = linear_inversion(collect(rho, 50, seed=seed))
        assert np.trace(rec).real == pytest.approx(1.0, abs=1e-12)
        if np.linalg.eigvalsh(rec).min() < -1e-6:
            found = True
    assert found


@st.composite
def tomography_states(draw):
    """A product, random mixed or damped entangled state on 1..6 sites."""
    n = draw(st.integers(1, 6))
    spec = InitialStateSpec(
        "".join(draw(st.lists(st.sampled_from("XYZ"), min_size=n, max_size=n))),
        tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))),
    )
    kind = draw(st.sampled_from(["product", "mixed", "damped"]))
    if kind == "product":
        return DensityMatrix.from_spec(spec)
    if kind == "mixed":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        m = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
        return DensityMatrix(n, m @ m.conj().T / np.trace(m @ m.conj().T).real)
    gates = [Gate("H", (j,)) for j in range(1, n + 1)]
    gates += [Gate("CNOT", (j, j + 1)) for j in range(1, n)]
    rates = draw(st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)))
    damping = amp_phase_damping(*rates)
    noise = NoiseModel(after_one_qubit=damping, after_two_qubit=damping)
    return evolve_noisy(Circuit(n, gates), DensityMatrix.from_spec(spec), noise)


@settings(deadline=None, max_examples=40)
@given(tomography_states(), st.one_of(st.none(), st.integers(1, 2000)), st.integers(0, 2**32 - 1))
def test_linear_inversion_matches_pauli_by_pauli_oracle(rho, shots, seed):
    freqs = collect(rho, shots, seed=seed)
    rec = linear_inversion(freqs)
    assert np.abs(rec - dense_oracle.linear_inversion(freqs)).max() < 1e-12
    assert np.abs(rec - rec.conj().T).max() < 1e-12
    assert abs(np.trace(rec) - 1.0) < 1e-12
    if shots is None:
        assert np.abs(rec - rho.entries).max() < 1e-12


def test_simplex_projection_values():
    assert np.allclose(simplex_project(np.array([1.2, -0.2])), [1.0, 0.0])
    out = simplex_project(np.array([0.4, 0.4, 0.2]))
    assert np.allclose(out, [0.4, 0.4, 0.2])


def test_simplex_projection_of_a_stack_is_each_row_alone_bit_for_bit():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(30, 9)) * rng.choice([1e-3, 1.0, 30.0], size=(30, 1))
    rows[0] = 1.0 / 9  # on the simplex
    rows[1] = [0.5, 0.5, 0.5, -1.0, -1.0, 0.2, 0.2, 0.0, -0.0]  # ties and signed zeros
    got = simplex_project(rows)
    assert got.shape == rows.shape
    for row, x in zip(rows, got):
        assert x.tobytes() == simplex_project(row).tobytes()


def test_psd_project_identity_on_feasible():
    rho = DensityMatrix.from_spec(InitialStateSpec("ZZ", (0, 1))).entries
    mixed = 0.7 * rho + 0.3 * np.eye(4) / 4
    out = psd_project(mixed)
    assert np.abs(out.entries - mixed).max() < 1e-12


def test_psd_project_one_parameter_family():
    bad = np.diag([1.2, -0.2]).astype(complex)
    out = psd_project(bad)
    assert np.allclose(out.entries, np.diag([1.0, 0.0]))
    # brute force over the diagonal feasible family (a, 1-a)
    grid = np.linspace(0, 1, 20001)
    dist = (grid - 1.2) ** 2 + (1 - grid + 0.2) ** 2
    best = grid[np.argmin(dist)]
    assert best == pytest.approx(1.0, abs=1e-4)


def test_psd_project_is_closest_among_candidates():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    herm = (a + a.conj().T) / 2
    herm -= np.eye(4) * (np.trace(herm).real - 1) / 4  # unit trace
    out = psd_project(herm)
    d_out = np.linalg.norm(out.entries - herm)
    for _ in range(100):
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        cand = b @ b.conj().T
        cand /= np.trace(cand).real
        assert np.linalg.norm(cand - herm) >= d_out - 1e-12


def test_fidelity_properties():
    rho = DensityMatrix.from_spec(InitialStateSpec("XY", (0, 1)))
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    psi = StateVector.from_spec(InitialStateSpec("ZZ", (0, 0)))
    phi = StateVector.from_spec(InitialStateSpec("XZ", (0, 0)))
    overlap = abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2
    f = fidelity(psi.density_matrix(), phi.density_matrix())
    assert f == pytest.approx(overlap, abs=1e-10)
    mixed = dense_oracle.completely_mixed(1)
    zero = DensityMatrix(1, np.array([[1, 0], [0, 0]], dtype=complex))
    assert fidelity(mixed, zero) == pytest.approx(0.5, abs=1e-10)
    # symmetry
    a = DensityMatrix.from_spec(InitialStateSpec("XY", (0, 0)))
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = DensityMatrix(2, (m @ m.conj().T) / np.trace(m @ m.conj().T).real)
    assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)


def _random_density(n: int, rng, rank: int) -> DensityMatrix:
    m = rng.normal(size=(1 << n, rank)) + 1j * rng.normal(size=(1 << n, rank))
    rho = m @ m.conj().T
    return DensityMatrix(n, rho / np.trace(rho).real)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_fidelities_equal_fidelity_pair_by_pair(n, seed, data):
    # each state rooted once gives the floats of rooting it anew in each pair,
    # repeated states and self pairs included
    rng = np.random.default_rng(seed)
    states = [_random_density(n, rng, int(rng.integers(1, 1 << n, endpoint=True))) for _ in range(3)]
    index = st.integers(0, len(states) - 1)
    picks = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=8))
    pairs = [(states[i], states[j]) for i, j in picks] + [(states[0], states[0])]
    assert fidelities(pairs) == [fidelity(a, b) for a, b in pairs]


@pytest.mark.parametrize("exact", [True, False], ids=["exact_reference", "finite_shots"])
def test_tomo_report_roots_each_state_once(monkeypatch, exact):
    # three kinds at d = 0, 1, 2; the exact reconstruction at d = 0 is the
    # ideal reference itself, a finite-shot one is a fourth state per kind
    rooted = []
    real = tomo._sqrt_psd

    def spy(entries):
        rooted.append(entries)
        return real(entries)

    monkeypatch.setattr(tomo, "_sqrt_psd", spy)
    doc = {"n_sites": 4, "depth_max": 2, "shots_total": 810, "exact_reference": exact}
    report = cli.tomo_report(cli.ExperimentConfig.from_dict(doc))
    assert len(rooted) == len({id(e) for e in rooted}) == (9 if exact else 12)
    assert sum(map(len, report["self_fidelity"].values())) == 9


_NON_HERMITIAN = np.eye(4, dtype=complex) / 4 + 1e-3j * np.eye(4, k=1)
_NOT_PSD = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)


@pytest.mark.parametrize("where", range(5))
@pytest.mark.parametrize(
    "entries, message",
    [(_NON_HERMITIAN, "not Hermitian"), (_NOT_PSD, "below floor")],
    ids=["non_hermitian", "not_psd"],
)
def test_fidelities_reject_a_bad_state_in_any_pair(where, entries, message):
    # the bad state is the first of pair ``where`` and the second of the pair before
    rng = np.random.default_rng(where)
    states = [_random_density(2, rng, 2) for _ in range(4)]
    states.insert(where, DensityMatrix(2, entries))
    pairs = [(states[i], states[(i + 1) % 5]) for i in range(5)]
    with pytest.raises(ValueError, match=message):
        fidelities(pairs)
    with pytest.raises(ValueError, match=message):
        fidelity(*pairs[where])
    with pytest.raises(ValueError, match=message):
        fidelities(pairs[where - 1 :][:1])


def test_reconstruct_round_trip_finite_shots():
    rho = DensityMatrix.from_spec(InitialStateSpec("XZY", (0, 1, 0)))
    rec = reconstruct(rho, 20_000, seed=2)
    assert fidelity(rec, rho) > 0.99


def test_budget():
    with pytest.raises(ValueError):
        collect(dense_oracle.completely_mixed(7), None)
