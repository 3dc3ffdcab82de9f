"""Dense reference implementations of gates, circuits, channels and Pauli traces.

Full 2^N unitaries and 4^N superoperators built from Kronecker products,
Pauli transfer matrices from them in the basis of vectorized Pauli strings,
site 1 on the lowest-order bit, dense Pauli strings from their column
action and dense charges summed from them, the evolution step multiplied
out of its R-matrices, a bit-pair operator applied by ``einsum``,
plus Kraus sums and Pauli expectations written out as matrix products,
charge expectations one charge and one Walsh transform per x mask at a time,
preparation and read-out gate by gate (the read-out one word at a time on a
full copy of the state), noisy evolution gate by gate on the engine's gate
kernel with ``einsum`` channels, tomography's linear inversion summed Pauli
by Pauli, the two charge estimators pooling term pairs one pair at a
time, the readout unfold one distribution at a time and the fixed point
as an eigenvector of a full ``np.linalg.eig``.
They cost exponentially more than the engines in ``trotterchain`` and serve
only as the oracle the tests compare those engines against.

The exact algebra the library runs only in bulk, on packed arrays, is here
one object at a time: the single-string product :func:`mul`, integer
polynomials in delta (:class:`DeltaPoly`) and a charge read term by term
(:func:`items`, :func:`coefficient`).
"""

import numpy as np

from trotterchain.charges import PauliPolynomial, r_check, window_density
from trotterchain.circuit import Gate, build_init
from trotterchain.measure import ChargeEstimate, contains
from trotterchain.mitigate import CORRECT_MAX_ITER, CORRECT_TOL
from trotterchain.pauli import PauliString, parity_sign
from trotterchain.sim import (
    IDEAL,
    DensityMatrix,
    StateVector,
    _apply_gate,
    apply_readout_flips,
    from_pauli_spectrum,
)
from trotterchain.spectral import UNIT_EIGENVALUE_TOL
from trotterchain.tomo import all_words, simplex_project


I_POWERS = np.array([1, 1j, -1, -1j])  # i**k at k


class SizeMismatchError(ValueError):
    """Two strings of different lengths were combined."""


def _check_sizes(a: PauliString, b: PauliString):
    if a.n_sites != b.n_sites:
        raise SizeMismatchError(f"size mismatch: {a.n_sites} vs {b.n_sites}")


def mul(a: PauliString, b: PauliString) -> PauliString:
    """Exact operator product ``a * b`` with accumulated phase."""
    _check_sizes(a, b)
    x = a.x_mask ^ b.x_mask
    z = a.z_mask ^ b.z_mask
    # Convert each factor to X^x Z^z form (Y = i XZ), commute Z past X,
    # convert the result back; every step is a popcount.
    k = (
        a.phase_power
        + b.phase_power
        + (a.x_mask & a.z_mask).bit_count()
        + (b.x_mask & b.z_mask).bit_count()
        + 2 * (a.z_mask & b.x_mask).bit_count()
        - (x & z).bit_count()
    )
    return PauliString(a.n_sites, x, z, k % 4)


class DeltaPoly:
    """Integer polynomial in delta; index m holds the coefficient of delta^m.

    Immutable; trailing zeros are trimmed so the zero polynomial is ().
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, *a):
        raise AttributeError("DeltaPoly is immutable")

    @classmethod
    def delta_power(cls, m: int, c: int = 1) -> "DeltaPoly":
        return cls((0,) * m + (c,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, DeltaPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "DeltaPoly") -> "DeltaPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return DeltaPoly(out)

    def __neg__(self) -> "DeltaPoly":
        return DeltaPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "DeltaPoly") -> "DeltaPoly":
        return self + (-other)

    def __mul__(self, other) -> "DeltaPoly":
        if isinstance(other, int):
            return DeltaPoly(tuple(c * other for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return DeltaPoly(out)

    __rmul__ = __mul__

    def shift(self, m: int) -> "DeltaPoly":
        """Multiply by delta^m."""
        if not self.coeffs:
            return self
        return DeltaPoly((0,) * m + self.coeffs)

    def divexact_delta(self) -> "DeltaPoly":
        """Exact division by delta; raises if the constant term survives."""
        if self.coeffs and self.coeffs[0] != 0:
            raise ValueError("polynomial not divisible by delta")
        return DeltaPoly(self.coeffs[1:])

    def __call__(self, delta: float) -> float:
        out = 0.0
        for c in reversed(self.coeffs):
            out = out * delta + c
        return out

    def __repr__(self):
        return f"DeltaPoly({self.coeffs})"


def items(q):
    """(PauliString, DeltaPoly) pairs of a charge, in (x, z) order."""
    return zip(q.terms, map(DeltaPoly, q.coeffs.tolist()))


def coefficient(q, string: PauliString) -> DeltaPoly:
    """The coefficient of ``string`` in charge ``q`` whatever its phase; zero when absent."""
    lo = np.searchsorted(q.x, string.x_mask, side="left")
    hi = np.searchsorted(q.x, string.x_mask, side="right")
    i = lo + np.searchsorted(q.z[lo:hi], string.z_mask)
    if string.n_sites == q.n_sites and i < hi and q.z[i] == string.z_mask:
        return DeltaPoly(q.coeffs[i].tolist())
    return DeltaPoly()


def window_sum(spec, orbit_keys_only: bool = False) -> PauliPolynomial:
    """The periodic charge of ``spec`` as its window density placed on every window.

    Window site 1 goes to each even chain site for ``plus`` (bits 1, 3, ...)
    and to each odd one for ``minus``; equal strings add up one placement at
    a time, and ``dif`` is (plus - minus)/delta with its constant term
    checked to vanish.  With ``orbit_keys_only`` only the strings whose
    (x, z) key is the smallest of their two-site rotations are kept.
    """
    n = spec.n_sites
    full = (1 << n) - 1
    shifts = np.arange(0, n, 2)[:, None]
    variants = ("plus", "minus") if spec.variant == "dif" else (spec.variant,)
    placed = []  # (keys, signed coefficient rows) per variant and window start
    for sign, variant in zip((1, -1), variants):
        q = window_density(spec.order, variant)
        for k in range(1 if variant == "plus" else 0, n, 2):
            x, z = ((m << k | m >> (n - k)) & full for m in (q.x, q.z))
            keep = slice(None)
            if orbit_keys_only:
                rx, rz = ((m << shifts | m >> (n - shifts)) & full for m in (x, z))
                keep = (x << n | z) == (rx << n | rz).min(axis=0)
            placed.append(((x << n | z)[keep], sign * q.coeffs[keep]))
    keys, which = np.unique(np.concatenate([k for k, _ in placed]), return_inverse=True)
    out = np.zeros((len(keys), max(rows.shape[1] for _, rows in placed)), dtype=np.int64)
    start = 0
    for _, rows in placed:
        np.add.at(out[:, : rows.shape[1]], which[start : start + len(rows)], rows)
        start += len(rows)
    if spec.variant == "dif":
        assert not out[:, 0].any(), "plus and minus charges differ at delta = 0"
        out = out[:, 1:]
    return PauliPolynomial.from_arrays(n, keys >> n, keys & full, out)


def completely_mixed(n_sites: int) -> DensityMatrix:
    """I / 2^N."""
    dim = 1 << n_sites
    return DensityMatrix(n_sites, np.eye(dim, dtype=complex) / dim)


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2)."""
    return float(np.real(np.sum(rho.entries * rho.entries.T)))


def step_block(circuit):
    """The gate block of one evolution step (empty when depth is 0)."""
    if circuit.depth == 0:
        return []
    block = circuit.evolution_gates
    return block[: len(block) // circuit.depth]


def kraus_apply(operators, rho: np.ndarray) -> np.ndarray:
    """sum_k D_k rho D_k^dag for Kraus operators of the same dimension as rho."""
    out = np.zeros(rho.shape, dtype=complex)
    for op in operators:
        out += op @ rho @ op.conj().T
    return out


def column_action(s):
    """``(rows, vals)``: the only nonzero entries of the matrix M of Pauli
    string ``s`` are ``M[rows[b], b] = vals[b]``, with ``rows[b] = b ^ x_mask``."""
    cols = np.arange(1 << s.n_sites, dtype=np.uint32)
    rows = cols ^ np.uint32(s.x_mask)
    par = np.bitwise_count(cols & np.uint32(s.z_mask)).astype(np.int64) & 1
    scale = I_POWERS[(s.phase_power + (s.x_mask & s.z_mask).bit_count()) % 4]
    return rows, np.where(par, -scale, scale)


def matrix(s, c=1.0, out=None) -> np.ndarray:
    """Dense 2^N matrix of a Pauli string, phase included, times ``c``;
    added in place to ``out`` when one is given, at the string's 2^N entries."""
    rows, vals = column_action(s)
    if out is None:
        out = np.zeros((1 << s.n_sites,) * 2, dtype=complex)
    out[rows, np.arange(len(rows))] += c * vals
    return out


MAX_DENSE_SITES = 14


def to_matrix(p: PauliPolynomial, delta: float) -> np.ndarray:
    """Dense Hermitian matrix of a charge at a numeric delta: the sum of
    c * :func:`matrix` over its terms, added in place."""
    if p.n_sites > MAX_DENSE_SITES:
        raise ValueError(f"dense budget exceeded: N={p.n_sites} > {MAX_DENSE_SITES}")
    out = np.zeros((1 << p.n_sites,) * 2, dtype=complex)
    for s, c in zip(p.terms, p.coefficients(delta).tolist()):
        matrix(s, c, out)
    return out


def step_unitary(delta: float, n_sites: int) -> np.ndarray:
    """Dense one-step evolution from the R-matrices of :func:`r_check`: the
    odd-bond layer times the even-bond layer, the even one acting first."""
    if n_sites % 2:
        raise ValueError("chain length must be even")
    u = np.eye(1 << n_sites, dtype=complex)
    for j in range(1, n_sites // 2 + 1):  # even bonds (2j, 2j+1), cyclic
        u = r_check(delta, n_sites, 2 * j, (2 * j) % n_sites + 1) @ u
    for j in range(1, n_sites // 2 + 1):  # odd bonds (2j-1, 2j)
        u = r_check(delta, n_sites, 2 * j - 1, 2 * j) @ u
    return u


def commutes(a, b) -> bool:
    """True iff the symplectic form x_a.z_b + z_a.x_b is even."""
    if a.n_sites != b.n_sites:
        raise SizeMismatchError(f"size mismatch: {a.n_sites} vs {b.n_sites}")
    return ((a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()) % 2 == 0


def trace_pair(a, b) -> complex:
    """tr(a b) / 2^N of two Pauli strings; nonzero iff they share masks."""
    if a.n_sites != b.n_sites:
        raise SizeMismatchError(f"size mismatch: {a.n_sites} vs {b.n_sites}")
    if a.x_mask != b.x_mask or a.z_mask != b.z_mask:
        return 0.0 + 0.0j
    return I_POWERS[mul(a, b).phase_power]


def pauli_expectation_statevector(s, psi: np.ndarray) -> complex:
    """<psi| P |psi> from the sparse column action of P."""
    rows, vals = column_action(s)
    return complex(np.vdot(psi[rows], vals * psi))


def pauli_expectation_density(s, rho: np.ndarray) -> complex:
    """tr(rho P) from the sparse column action of P."""
    rows, vals = column_action(s)
    cols = np.arange(rho.shape[0])
    return complex(np.sum(vals * rho[cols, rows]))


def gate_unitary(gate: Gate, n_sites: int) -> np.ndarray:
    """Dense 2^N unitary of one gate (site 1 = lowest-order bit)."""
    dim = 1 << n_sites
    if gate.kind == "CNOT":
        c, t = gate.sites
        idx = np.arange(dim)
        flips = ((idx >> (c - 1)) & 1) << (t - 1)
        m = np.zeros((dim, dim), dtype=complex)
        m[idx ^ flips, idx] = 1.0
        return m
    (j,) = gate.sites
    m1 = gate.matrix_1q()
    out = np.eye(1, dtype=complex)
    for k in range(n_sites, 0, -1):
        out = np.kron(out, m1 if k == j else np.eye(2, dtype=complex))
    return out


def circuit_unitary(gates, n_sites: int) -> np.ndarray:
    """Dense product of a gate list (first gate acts first)."""
    u = np.eye(1 << n_sites, dtype=complex)
    for g in gates:
        u = gate_unitary(g, n_sites) @ u
    return u


def site_kraus_factor(channel, site: int, n_sites: int) -> np.ndarray:
    """Vectorized one-site channel embedded on the full register."""
    dim = 1 << n_sites
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for op in channel.operators:
        emb = np.eye(1, dtype=complex)
        for k in range(n_sites, 0, -1):
            emb = np.kron(emb, op if k == site else np.eye(2, dtype=complex))
        out += np.kron(emb, emb.conj())
    return out


def apply_pair(vec: np.ndarray, op: np.ndarray, hi: int, lo: int):
    """``op[a, c, b, d]`` taking bits (hi, lo) = (b, d) to (a, c), in place, as one ``einsum``."""
    view = vec.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    view[:] = np.einsum("acbd,xbydz->xaycz", op, view)


def step_superoperator(circuit, noise) -> np.ndarray:
    """Row-major superoperator of a noisy circuit: a gate U is ``U (x) U*``,
    followed by the noise model's channel on every site the gate touched."""
    n = circuit.n_sites
    total = np.eye(1 << (2 * n), dtype=complex)
    for g in circuit.gates:
        u = gate_unitary(g, n)
        total = np.kron(u, u.conj()) @ total
        channel = noise.after_two_qubit if g.kind == "CNOT" else noise.after_one_qubit
        if channel is not None:
            for s in g.sites:
                total = site_kraus_factor(channel, s, n) @ total
    return total


def pauli_transfer_matrix(circuit, noise) -> np.ndarray:
    """``R = 2^-N B* S B^T`` of :func:`step_superoperator` S, row ``x * 2^N + z`` of
    B the vectorized dense matrix of the Pauli string with masks (x, z)."""
    n = circuit.n_sites
    dim = 1 << n
    basis = np.array(
        [matrix(PauliString(n, x, z)).reshape(-1) for x in range(dim) for z in range(dim)]
    )
    return (basis.conj() @ step_superoperator(circuit, noise) @ basis.T) / dim


def apply(rho: DensityMatrix, gate: Gate, channel=None):
    """rho -> U rho U^dag in place, then ``channel`` on every site ``gate`` touches."""
    n = rho.n_sites
    vec = rho.entries.reshape(-1, copy=False)
    _apply_gate(vec, 2 * n, gate, n)
    _apply_gate(vec, 2 * n, gate, 0, conj=True)
    if channel is not None:
        for s in gate.sites:
            apply_pair(vec, channel.superop, s - 1 + n, s - 1)


def evolve_noisy(circuit, init: DensityMatrix, noise) -> DensityMatrix:
    """Gate-by-gate conjugation of a copy of ``init`` through the engine's gate
    kernel, with one ``einsum`` channel application per touched site: no fusion."""
    rho = init.copy()
    for g in circuit.gates:
        apply(rho, g, noise.after_two_qubit if g.kind == "CNOT" else noise.after_one_qubit)
    return rho


def apply_pure(psi: StateVector, gates):
    """``gates`` on ``psi`` in place, one at a time through the engine's gate kernel."""
    for g in gates:
        _apply_gate(psi.amplitudes, psi.n_sites, g)


def prepare(spec) -> StateVector:
    """|0..0> through the preparation gates ``build_init(spec)``, one at a time."""
    psi = StateVector.zero(spec.n_sites)
    apply_pure(psi, build_init(spec))
    return psi


def build_measurement_rotation(word: str) -> list:
    """Rotation mapping the word basis to the computational basis.

    Per site: H for X, S-dagger then H for Y, nothing for Z.  Identity
    letters are rejected; a word fixes a basis for every site.
    """
    gates = []
    for j, letter in enumerate(word, start=1):
        if letter == "X":
            gates.append(Gate("H", (j,)))
        elif letter == "Y":
            gates.append(Gate("SDG", (j,)))
            gates.append(Gate("H", (j,)))
        elif letter != "Z":
            raise ValueError(f"measurement word letter must be X, Y or Z, got {letter!r}")
    return gates


def rotated_probabilities(state, word: str) -> np.ndarray:
    """Outcome distribution of one word: copy the state, apply all of the word's
    rotation gates, then read the squared amplitudes or the diagonal."""
    tmp = state.copy()
    gates = build_measurement_rotation(word)
    if isinstance(tmp, StateVector):
        apply_pure(tmp, gates)
        return np.abs(tmp.amplitudes) ** 2
    for g in gates:
        apply(tmp, g)
    return np.real(np.diag(tmp.entries)).copy()


def read_out(probs: np.ndarray, noise=IDEAL) -> np.ndarray:
    """One word's distribution clipped at zero, normalised, then through readout flips."""
    n_sites = len(probs).bit_length() - 1
    p = np.clip(probs, 0.0, None)
    p /= p.sum()
    flips = noise.flip_probs(n_sites)
    if flips is not None:
        p = apply_readout_flips(p, flips, n_sites)
    return p


def walsh_transform(vec: np.ndarray) -> np.ndarray:
    """t[m] = sum_b (-1)^{popcount(b & m)} vec[b] via in-place butterflies."""
    t = vec.copy()
    n = len(t)
    h = 1
    while h < n:
        t = t.reshape(-1, 2, h)
        a = t[:, 0, :].copy()
        t[:, 0, :] = a + t[:, 1, :]
        t[:, 1, :] = a - t[:, 1, :]
        t = t.reshape(n)
        h *= 2
    return t


def exact_expectation(state, charge, delta: float) -> float:
    """tr(rho Q) or <psi|Q|psi> of one charge: one gather and one Walsh transform per x mask.

    For a fixed flip mask x the term expectations are signed sums of the same
    overlap vector, i.e. Walsh-transform components indexed by z.
    """
    if state.n_sites != charge.n_sites:
        raise ValueError("state and charge sizes differ")
    units = I_POWERS[np.bitwise_count(charge.x & charge.z) & 3]
    coeffs = charge.coefficients(delta) * units
    cols = np.arange(1 << state.n_sites, dtype=np.int64)
    if isinstance(state, StateVector):
        left = state.amplitudes.conj()
        psi = state.amplitudes
    val = 0.0 + 0.0j
    starts = np.flatnonzero(np.diff(charge.x, prepend=-1)).tolist()  # one group per x mask
    for a, b in zip(starts, starts[1:] + [len(charge)]):
        x = int(charge.x[a])
        if isinstance(state, StateVector):
            overlap = left[cols ^ x] * psi
        else:
            overlap = state.entries[cols, cols ^ x]
        val += coeffs[a:b] @ walsh_transform(overlap)[charge.z[a:b]]
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary part {val.imag:.2e}")
    return float(val.real)


def linear_inversion(freqs) -> np.ndarray:
    """rho* = 2^-N sum_P m_P P, with m_P pooled over every word that measures P.

    On the sites of subset m, word k measures the Pauli keyed ``(x << N) | z``,
    whose expectation is component m of the Walsh transform of the word's
    frequencies; the running sums are then written out one Pauli at a time.
    """
    dim = freqs.shape[1]
    n = dim.bit_length() - 1
    cols = np.arange(dim)
    words = [PauliString.from_letters(w) for w in all_words(n)]
    keys = np.concatenate([((w.x_mask & cols) << n) | (w.z_mask & cols) for w in words])
    parities = np.concatenate([walsh_transform(row) for row in freqs])
    paulis, first, which, hits = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    sums = np.zeros(len(paulis))
    np.add.at(sums, which, parities)  # a running sum per Pauli, in word order

    rho = np.zeros((dim, dim), dtype=complex)
    for i in np.argsort(first).tolist():  # Paulis in order of first appearance
        key = int(paulis[i])
        matrix(PauliString(n, key >> n, key & (dim - 1)), sums[i] / hits[i], rho)
    return rho / dim


def _coverage(plan, charge, n_w) -> tuple:
    """Per word, the ascending indices of the terms it contains, by ``contains``;
    per term, its pooled shot count n_P, the sum of ``n_w`` over the words
    containing it.  ValueError when a term is in no word."""
    word_cover = [[i for i, s in enumerate(charge.terms) if contains(w, s)] for w in plan.words]
    n_words = [sum(i in cov for cov in word_cover) for i in range(len(charge))]
    if 0 in n_words:
        raise ValueError("a term is not covered by any word")
    n_p = [sum(k for cov, k in zip(word_cover, n_w) if i in cov) for i in range(len(charge))]
    return word_cover, n_p


def estimate(counts, plan, charge, delta: float) -> ChargeEstimate:
    """The pooled estimator with each term pair's statistics in a dict, pair by pair.

    ``counts`` is a count table, one row per plan word; each row is read as
    its nonzero outcomes and their counts."""
    if len(counts) != len(plan.words):
        raise ValueError(f"{len(counts)} count rows for {len(plan.words)} plan words")
    coeffs = charge.coefficients(delta).tolist()  # Python floats, as the artifacts print them
    n_w = [int(row.sum()) for row in counts]  # each word's n_W is its count sum
    masks = charge.x | charge.z
    word_cover, n_p = _coverage(plan, charge, n_w)

    # per word: parity-sum vector over its covered terms and the full
    # cross-sum matrix sum_i Pi_a Pi_b, each as one matrix product
    s_p = [0.0] * len(charge)
    pair_stats: dict = {}  # (a, b) a <= b -> [n_PP', cross, sum_a, sum_b]
    for row, cov, k in zip(counts, word_cover, n_w):
        if not cov:
            continue
        idx = np.flatnonzero(row)
        cnt = row[idx].astype(np.float64)
        signs = parity_sign(idx[None, :], masks[cov, None])
        sums = signs @ cnt
        cross = (signs * cnt) @ signs.T
        for i, a in enumerate(cov):
            s_p[a] += float(sums[i])
            for j in range(i, len(cov)):  # cov ascends, so (a, b) has a <= b
                b = cov[j]
                stat = pair_stats.get((a, b))
                if stat is None:  # no zero start: 0.0 + -0.0 would drop the sign
                    pair_stats[a, b] = [k, float(cross[i, j]), float(sums[i]), float(sums[j])]
                else:
                    stat[0] += k
                    stat[1] += float(cross[i, j])
                    stat[2] += float(sums[i])
                    stat[3] += float(sums[j])
    value = sum(c * s_p[ti] / n_p[ti] for ti, c in enumerate(coeffs))

    diagnostics = []
    terms = {}
    skipped_pairs = 0
    for (a, b), (n_ab, cross, sum_a, sum_b) in pair_stats.items():
        if n_ab <= 1:
            skipped_pairs += 1
            continue
        inner = cross - sum_a * sum_b / n_ab
        contrib = (n_ab / (n_p[a] * n_p[b])) * (coeffs[a] * coeffs[b] / (n_ab - 1)) * inner
        terms[a, b] = contrib if a == b else 2.0 * contrib
    # folded in (a, b) order by numpy's pairwise sum, as measure.estimate
    # folds its pairs, so sigma compares bit for bit
    var = float(np.sum([terms[pair] for pair in sorted(terms)], dtype=np.float64))
    if skipped_pairs:
        diagnostics.append(f"skipped {skipped_pairs} term pairs with n_PP' = 1")
    if var < 0.0:
        diagnostics.append(f"variance estimate {var:.3e} clamped at 0")
        var = 0.0

    return ChargeEstimate(value, float(np.sqrt(var)), tuple(diagnostics))


def exact_estimator_variance(distributions, plan, charge, delta: float) -> tuple:
    """Expected value and estimator sigma, one 2^N dot per term pair per word."""
    coeffs = charge.coefficients(delta).tolist()
    n_w = plan.shots_per_word
    if len(distributions) != len(plan.words):
        raise ValueError(f"{len(distributions)} distributions for {len(plan.words)} plan words")
    idx = np.arange(1 << charge.n_sites, dtype=np.int64)
    masks = (charge.x | charge.z).tolist()
    word_cover, n_p = _coverage(plan, charge, [n_w] * len(plan.words))

    s_p = [0.0] * len(charge)
    var = 0.0
    for p, cov in zip(distributions, word_cover):
        single = [float(p @ parity_sign(idx, masks[a])) for a in cov]
        cross = {}  # symmetric in (a, b): one pass over the outcomes per unordered pair
        for i, a in enumerate(cov):
            s_p[a] += single[i]
            for b in cov[i:]:
                cross[a, b] = cross[b, a] = float(p @ parity_sign(idx, masks[a] ^ masks[b]))
        for a, e_a in zip(cov, single):
            for b, e_b in zip(cov, single):
                var += coeffs[a] * coeffs[b] * n_w * (cross[a, b] - e_a * e_b) / (n_p[a] * n_p[b])
    mean = sum(c * (s_p[ti] / (n_p[ti] // n_w)) for ti, c in enumerate(coeffs))
    return mean, float(np.sqrt(max(var, 0.0)))


def correct(observed: np.ndarray, calib) -> np.ndarray:
    """Simplex-constrained least squares for one distribution: its own ``lstsq``
    start, then projected gradient until it moves less than ``CORRECT_TOL``."""
    a = calib.matrix
    f = np.asarray(observed, dtype=float)
    if f.shape != (a.shape[0],):
        raise ValueError("observed distribution has wrong length")
    total = f.sum()
    if total <= 0:
        raise ValueError("observed counts are empty")
    f = f / total
    ata = a.T @ a
    eigs = np.linalg.eigvalsh(ata)
    if eigs.min() < 1e-12:
        raise ValueError("calibration matrix is singular beyond tolerance")
    step = 1.0 / eigs.max()
    atf = a.T @ f
    x = simplex_project(np.linalg.lstsq(a, f, rcond=None)[0])
    for _ in range(CORRECT_MAX_ITER):
        nxt = simplex_project(x - step * (ata @ x - atf))
        if np.abs(nxt - x).max() < CORRECT_TOL:
            return nxt
        x = nxt
    return x


def fixed_point(op) -> np.ndarray:
    """The unit-trace fixed point of a Pauli transfer matrix, as a density
    matrix's entries, from the eigenvector at 1 of a full ``np.linalg.eig``."""
    vals, vecs = np.linalg.eig(op.matrix)
    at_one = np.flatnonzero(np.abs(vals - 1.0) < UNIT_EIGENVALUE_TOL)
    assert len(at_one) == 1, "no unique eigenvalue at 1"
    dim = 1 << op.n_sites
    rho = from_pauli_spectrum(vecs[:, at_one[0]].real.reshape(dim, dim)).entries
    return rho / np.trace(rho).real
