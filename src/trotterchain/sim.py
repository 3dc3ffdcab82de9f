"""Numerical state engines: pure statevector and noisy density matrix.

Gates are applied in place as small blocks on a few bits (no full 2^N gate
matrices).  Site ``j`` lives on bit ``j-1``; a computational basis index
``b`` has site-j outcome ``(b >> (j-1)) & 1``.  :func:`sample` takes one
shot count and one key per word and returns an int64 count table,
:func:`outcome_distribution` a table of probabilities: one row per word, in
the order of the words given, one column per basis outcome.  The estimators
of :mod:`measure` read each plan's rows as they are, and n_W off a row's
sum.  Outcomes stay basis indices; no bitstring is written.

Both engines move a state through one kernel, ``_apply_block``: a block is
an operator on a few bits of a vector, applied as one matrix product over
those bits in chunks of at most ``_CHUNK`` entries.  The density matrix is a
vector on 2N bits, ``rho.entries.reshape(-1)``: the row index is bits
N..2N-1 and the column index bits 0..N-1.  A one-qubit gate ``m`` is the
block ``m.T`` (``m.conj().T`` on a column bit), the CNOT is one fixed
(2,2,2,2) block on bits [control, target], and a one-site channel is its
superoperator ``superop.transpose(2, 3, 0, 1)`` on the bit pair
(j-1, j-1+N).

Both engines run one evolution loop.  It splits the circuit into maximal
runs of consecutive gates whose sites fit in one pair: an R-check, the
preparation gates of one or two sites, a folded CNOT's copies.  Each run
is compiled into one block on its k = 1 or 2 sites by running the gate
blocks above on the basis vectors of a k-site register (``_compile``): the
2^k x 2^k unitary for :func:`evolve_pure`, or for :func:`evolve_noisy` the
4^k x 4^k superoperator, each gate on both sides, then the configured
channel once per site it touches.  The block is then applied to the state
over the bits of those sites, their row and column bits for rho.  Sites
are relabelled by first appearance, so every bond of a layer, the cyclic
bond (N, 1) included, shares one compiled block.  A noise model keeps
the superoperator blocks compiled with its channels for as long as it
lives, read-only, so each noisy step after a model's first compiles
nothing; the pure engine's unitaries live for one call only.  Setting a
channel to ``None`` exempts the corresponding gate class.  Only those gates
are noisy.

Preparation and read-out run no gates: both read one table, ``_BASIS``,
the one-site unitary per letter that takes its eigenbasis to Z's (H for X,
H S^dagger for Y, I for Z).  ``StateVector.from_spec`` is the Kronecker
product of the eigenvectors its rows conjugate, and ``DensityMatrix.from_spec``
is its outer product, so preparation is ideal, and read-out is ideal: decay
and tomography run noisy evolution steps between ideal preparation and an
ideal measurement rotation.  Mitigation's folded circuits start from |0..0>
with the preparation gates, so there preparation is noisy as well.

Read-out (:func:`rotated_probabilities`) takes a list of words.  A word's
outcome b, with bit j-1 = 0 for the +1 eigenvalue of letter j, has
probability 2^-N sum_S (-1)^popcount(b & S) tr(rho P_S), where S runs over
the subsets of sites and P_S is the word's letters on S: a Walsh transform
of the Pauli expectations of its sub-strings.  So a density matrix is read
from its Pauli spectrum, ``paulis[x, z] = Re tr(rho P(x, z))`` for all 4^N
strings, built once per call in blocks of real rows (:func:`pauli_spectrum`;
:func:`from_pauli_spectrum` inverts it with one more Walsh pass).  Each word
with masks (wx, wz) gathers ``paulis[wx & S, wz & S]`` over S, and one Walsh
pass over all the gathered rows gives every distribution.  A statevector
has no 4^N spectrum within reach.  It is read word by word instead: a copy
of the amplitudes per word, each X or Y letter's ``_BASIS`` entry applied in
site order as one block, and the amplitudes squared.  Both agree with
rotating a copy of the state gate by gate (``dense_oracle.rotated_probabilities``
in the tests) to round-off, not bit for bit.  No word's row depends on the
other words of the call, so ``cli.decay_table`` reads each state once.

Exact expectations (:func:`exact_expectation`) take charge specs, not
assembled charges.  A charge is its memoized integer
:func:`charges.periodic_density`, one string per two-site translation orbit,
summed over the N/2 two-site rotations of the chain.  A density matrix reads
every rotated string off its Pauli spectrum, built for one call at the
rotated x masks only, by the helper that builds all of :func:`pauli_spectrum`.
A statevector has no spectrum within reach.  Per nonzero x mask of the union
of the call's densities, it sums the overlap rows of the N/2 rotated copies of
psi, gathered through the rotations' index tables, and every string with that
x mask reads its term off one Walsh pass over the sum.  Only the half of each
row with the top bit of x clear is gathered and transformed, on N-1 bits: the
other half is its conjugate.  The Z strings read one transform of the summed
rotated populations.  The values agree with summing the assembled charge term
by term (``dense_oracle.exact_expectation`` in the tests) to round-off, not
bit for bit: they are sums in another order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .charges import ChargeSpec, periodic_density
from .circuit import Circuit, Gate, InitialStateSpec
from .noise import KrausChannel
from .pauli import i_power, rotations, walsh_rows, word_masks

DM_MAX_SITES = 10

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_EIG_FLOOR = -1e-8

# complex entries per chunk of a pass over a state (a block's
# application, a block of Walsh-transformed overlap rows): 2^14 x 16 B = 256 KB,
# so each pass's temporaries stay cache-sized
_CHUNK = 1 << 14


class BudgetError(ValueError):
    """A dense state exceeds the configured size budget."""


def hermiticity_deviation(m: np.ndarray) -> float:
    """The largest entry of |m - m^H|, subtracted into one conjugated copy of ``m``.

    The copy is m^H laid out in row order, so the subtraction runs over
    contiguous memory: half the time of writing into a transposed view.
    """
    dev = np.conjugate(m.T, order="C")
    return float(np.abs(np.subtract(m, dev, out=dev)).max())


# ---------------------------------------------------------------------------
# the state kernel on a vector of 2^n_bits amplitudes, shared by both engines
# ---------------------------------------------------------------------------

# the CNOT as a block on bits [control, target]: it swaps (t, c) = (0, 1) and (1, 1)
_CNOT = np.eye(4, dtype=complex)[[0, 3, 2, 1]].reshape(2, 2, 2, 2)

# per letter: the one-site unitary taking its eigenbasis to Z's, H for X, H S^dagger
# for Y: row b is the conjugate of the eigenvector with outcome b
_SQ2 = 1.0 / np.sqrt(2.0)
_BASIS = {
    "X": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "Y": np.array([[_SQ2, -1j * _SQ2], [_SQ2, 1j * _SQ2]]),
    "Z": np.eye(2, dtype=complex),
}


def _apply_gate(vec: np.ndarray, n_bits: int, gate: Gate, offset: int = 0, conj: bool = False):
    """``gate`` with its sites on bits ``offset..``; ``conj`` conjugates its matrix.

    A one-qubit gate ``m`` is the block ``m.T``; the CNOT is ``_CNOT`` on
    bits [control, target].
    """
    block = _CNOT if gate.kind == "CNOT" else gate.matrix_1q().T
    _apply_block(vec, n_bits, block.conj() if conj else block, [s - 1 + offset for s in gate.sites])


def _apply_block(vec: np.ndarray, n_bits: int, block: np.ndarray, bits: list):
    """A block on ``bits`` of ``vec``, in place: block bit i is ``bits[i]``.

    The one function that writes into a state or a compile batch.  ``block``
    has shape ``[2] * 2m`` for m bits: the input bits, then the output bits,
    each most significant first, so an operator M is the block ``M.T``.  A
    one-qubit gate is ``m.T`` on its bit; the CNOT is ``_CNOT``; a one-site
    channel is ``superop.transpose(2, 3, 0, 1)`` on its (column, row) bits;
    a compiled run is the tensor :func:`_compile` returns.  The vector is
    viewed with the block's bits first, as a 2^m x rest matrix that the
    block's 2^m x 2^m matrix multiplies, in chunks of at most ``_CHUNK``
    entries, one per value of its most significant bits outside ``bits``, so
    the temporaries of each product stay cache-sized rather than copies of
    the whole vector.
    """
    m = len(bits)
    axes = [n_bits - 1 - b for b in reversed(bits)]  # most significant block bit first
    rest = [a for a in range(n_bits) if a not in axes]
    lead = rest[: max(0, n_bits - (_CHUNK.bit_length() - 1))]  # one chunk per value
    v = vec.reshape([2] * n_bits).transpose(lead + axes + rest[len(lead) :])
    mat = block.reshape(1 << m, 1 << m).T
    for values in np.ndindex(v.shape[: len(lead)]):
        sub = v[values]
        sub[...] = (mat @ sub.reshape(1 << m, -1)).reshape(sub.shape)


# ---------------------------------------------------------------------------
# statevector engine
# ---------------------------------------------------------------------------


@dataclass
class StateVector:
    n_sites: int
    amplitudes: np.ndarray

    @classmethod
    def zero(cls, n_sites: int) -> "StateVector":
        amp = np.zeros(1 << n_sites, dtype=complex)
        amp[0] = 1.0
        return cls(n_sites, amp)

    @classmethod
    def basis(cls, n_sites: int, index: int) -> "StateVector":
        amp = np.zeros(1 << n_sites, dtype=complex)
        amp[index] = 1.0
        return cls(n_sites, amp)

    @classmethod
    def from_spec(cls, spec: InitialStateSpec) -> "StateVector":
        """The product of each site's eigenvector ``_BASIS[letter][bit].conj()``, site N
        most significant."""
        amp = np.ones(1, dtype=complex)
        for letter, bit in zip(reversed(spec.letters), reversed(spec.bits)):
            amp = np.kron(amp, _BASIS[letter][bit].conj())
        return cls(spec.n_sites, amp)

    def copy(self) -> "StateVector":
        return StateVector(self.n_sites, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def density_matrix(self) -> "DensityMatrix":
        amp = self.amplitudes
        return DensityMatrix(self.n_sites, np.outer(amp, amp.conj()))


# ---------------------------------------------------------------------------
# density-matrix engine
# ---------------------------------------------------------------------------


@dataclass
class DensityMatrix:
    n_sites: int
    entries: np.ndarray

    @classmethod
    def from_spec(cls, spec: InitialStateSpec) -> "DensityMatrix":
        return StateVector.from_spec(spec).density_matrix()

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.n_sites, self.entries.copy())

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def check(self):
        """Validate Hermiticity, unit trace and the PSD eigenvalue floor."""
        h = hermiticity_deviation(self.entries)
        if h > HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian: deviation {h:.2e}")
        t = abs(self.trace() - 1.0)
        if t > TRACE_TOL:
            raise ValueError(f"density matrix trace off by {t:.2e}")
        lo = float(np.linalg.eigvalsh(self.entries).min())
        if lo < PSD_EIG_FLOOR:
            raise ValueError(f"density matrix eigenvalue {lo:.2e} below floor")


@dataclass(frozen=True)
class NoiseModel:
    """Where channels are inserted during evolution.

    ``after_one_qubit`` follows every one-qubit gate; ``after_two_qubit`` is
    a one-site channel applied independently to both sites of every CNOT;
    ``readout_flip`` is a classical per-site bit-flip probability applied by
    :func:`outcome_distribution`.  ``None`` disables the corresponding insertion.
    ``_blocks`` holds the superoperators :func:`_evolve` compiled with these
    channels, keyed by relabelled run; it takes no part in equality, hashing,
    ``repr`` or :func:`dataclasses.replace`.
    """

    after_one_qubit: KrausChannel | None = None
    after_two_qubit: KrausChannel | None = None
    readout_flip: float | tuple | None = None
    _blocks: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def flip_probs(self, n_sites: int) -> np.ndarray | None:
        if self.readout_flip is None:
            return None
        if np.isscalar(self.readout_flip):
            q = np.full(n_sites, float(self.readout_flip))
        else:
            q = np.asarray(self.readout_flip, dtype=float)
        if q.shape != (n_sites,):
            raise ValueError("per-site flip probabilities must have length N")
        if not ((q >= 0.0) & (q <= 1.0)).all():
            raise ValueError("readout flip probabilities must lie in [0, 1]")
        return q


IDEAL = NoiseModel()


# ---------------------------------------------------------------------------
# one evolution loop for both engines: runs, compiled blocks, one pass each
# ---------------------------------------------------------------------------


def _runs(gates) -> list:
    """Maximal runs of consecutive gates whose sites fit in one pair.

    One ``(sites, run)`` per run, its sites in order of first appearance.
    """
    runs = []
    for g in gates:
        if runs:
            sites, run = runs[-1]
            new = [s for s in g.sites if s not in sites]
            if len(sites) + len(new) <= 2:
                sites += new
                run.append(g)
                continue
        runs.append((list(g.sites), [g]))
    return runs


def _compile(gates, k: int, noise: NoiseModel | None) -> np.ndarray:
    """The block of ``gates`` on sites 1..k: their unitary if ``noise`` is None,
    else their superoperator with the channels of ``noise``.

    The gates run on the basis vectors of the operator's space at once, as a
    batch: row r is basis vector r at the start and its image at the end.
    The unitary's rows are k-bit vectors.  The superoperator's are 2k-bit
    vectors, k-site density matrices: each gate conjugates, then its channel
    acts once per site it touches.  Returned as a ``[2] * 2m`` tensor on its
    m = k or 2k bits, input bits first (:func:`_apply_block`).
    """
    m = k if noise is None else 2 * k
    batch = np.eye(1 << m, dtype=complex).reshape(-1)
    for g in gates:
        if noise is None:
            _apply_gate(batch, 2 * m, g)
            continue
        _apply_gate(batch, 2 * m, g, k)
        _apply_gate(batch, 2 * m, g, 0, conj=True)
        channel = noise.after_two_qubit if g.kind == "CNOT" else noise.after_one_qubit
        if channel is not None:
            block = channel.superop.transpose(2, 3, 0, 1)  # on bits [column, row]
            for s in g.sites:
                _apply_block(batch, 2 * m, block, [s - 1, s - 1 + k])
    return batch.reshape([2] * (2 * m))


def _evolve(vec: np.ndarray, circuit: Circuit, noise: NoiseModel | None):
    """``circuit`` on ``vec`` in place, one compiled block per run of :func:`_runs`.

    ``vec`` is a statevector if ``noise`` is None, else the density matrix
    as a vector on 2N bits.  Runs that are equal once their sites are
    relabelled by first appearance share one block: a unitary compiled once
    per call, a superoperator once per noise model, kept read-only in the
    model's ``_blocks``.
    """
    n = circuit.n_sites
    sides = 1 if noise is None else 2  # rho's column bits, then its row bits
    blocks = {} if noise is None else noise._blocks
    for sites, run in _runs(circuit.gates):
        label = {s: i for i, s in enumerate(sites, start=1)}
        key = tuple(Gate(g.kind, tuple(label[s] for s in g.sites), g.angle) for g in run)
        if key not in blocks:
            block = _compile(key, len(sites), noise)
            block.flags.writeable = False
            blocks[key] = block
        bits = [s - 1 + side * n for side in range(sides) for s in sites]
        _apply_block(vec, sides * n, blocks[key], bits)


def evolve_pure(circuit: Circuit, init: StateVector) -> StateVector:
    """``circuit`` on a copy of ``init``, one compiled unitary per run of gates on a pair."""
    if circuit.n_sites != init.n_sites:
        raise ValueError("circuit and state sizes differ")
    state = init.copy()
    _evolve(state.amplitudes, circuit, None)
    return state


def evolve_noisy(circuit: Circuit, init: DensityMatrix, noise: NoiseModel) -> DensityMatrix:
    """``circuit`` on a copy of ``init``, each gate followed by its channel on every site it touches.

    Each maximal run of gates on one pair of sites is one compiled
    superoperator, applied in one pass over rho (see the module docstring).
    """
    if circuit.n_sites != init.n_sites:
        raise ValueError("circuit and state sizes differ")
    if circuit.n_sites > DM_MAX_SITES:
        raise BudgetError(f"density-matrix budget is N <= {DM_MAX_SITES}")
    rho = init.copy()
    _evolve(rho.entries.reshape(-1, copy=False), circuit, noise)
    return rho


# ---------------------------------------------------------------------------
# expectations and sampling
# ---------------------------------------------------------------------------


def exact_expectation(state, specs: Sequence[ChargeSpec], delta: float) -> list:
    """tr(rho Q) or <psi|Q|psi> of the charge of each spec in ``specs`` at ``delta``, in order.

    A charge is its :func:`charges.periodic_density` D summed over the N/2
    two-site rotations R^(2j), so each string P(x, z) of D stands for the N/2
    strings P(R^(2j) x, R^(2j) z).  A density matrix reads them off the rows
    of its Pauli spectrum at the union of the rotated x masks, one
    :func:`_pauli_rows` call for the whole call; each charge dots its
    coefficients with the sums of its rotated strings' entries.  A density
    matrix further than ``HERMITICITY_TOL`` from Hermitian raises ValueError.

    A statevector's overlap row for a flip mask x, O_x(b) = sum_j
    psi-bar[R^(2j)(b ^ x)] psi[R^(2j) b], has the Walsh transform W_x(z) =
    sum_b (-1)^popcount(z & b) O_x(b), and the string (x, z) of D adds
    c_z(delta) i^popcount(x & z) W_x(z) to its charge.  A density's strings
    sort by x, so its Z strings come first: they read the one transform of
    the summed rotated populations.  For x != 0, O_x(b ^ x) = conj O_x(b), so
    with h the top bit of x, H the Walsh transform on N-1 bits of the half
    row over the b with bit h clear and z' the mask z with bit h removed,
    each term is Re(2 c i^popcount(x & z) H(z')).  The nonzero x masks of
    the union of the densities are walked once, ascending, in blocks of one
    pair bit and at most ``_CHUNK`` complex entries (at least one half row).
    The b-half is a strided view of each rotated copy of psi, the partner
    half a gather through index tables; both live for one call.  Each charge
    does one dot per block, whichever charges share it.
    """
    n = state.n_sites
    if any(spec.n_sites != n for spec in specs):
        raise ValueError("state and charge sizes differ")
    qs = [periodic_density(spec) for spec in specs]
    coeffs = [q.coefficients(delta) for q in qs]
    if isinstance(state, DensityMatrix):
        dev = hermiticity_deviation(state.entries)
        if dev > HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian: deviation {dev:.2e}")
        rx = [rotations(q.x, n) for q in qs]
        xs = np.sort(np.concatenate([np.zeros(0, np.int64)] + [r.reshape(-1) for r in rx]))
        xs = xs[np.diff(xs, prepend=-1) != 0]  # the union of the rotated x masks, ascending
        rows = _pauli_rows(state, xs)
        sums = [rows[np.searchsorted(xs, r), rotations(q.z, n)].sum(axis=0) for q, r in zip(qs, rx)]
        return [float(np.dot(c, t)) for c, t in zip(coeffs, sums)]
    dim, half = 1 << n, 1 << (n - 1)
    cols = np.arange(dim, dtype=np.int64)
    perms = rotations(cols, n)  # perms[j, b] = R^(2j) b
    rotated = state.amplitudes[perms]  # rotated[j, b] = psi[R^(2j) b]
    probs = state.amplitudes.real**2 + state.amplitudes.imag**2
    w0 = walsh_rows(probs[perms].sum(axis=0)[None], np.empty((1, dim)))[0]
    zs = [int(np.searchsorted(q.x, 1)) for q in qs]  # the number of Z strings
    vals = [float(np.dot(c[:k], w0[q.z[:k]])) for q, c, k in zip(qs, coeffs, zs)]
    xs = np.sort(np.concatenate([np.zeros(0, np.int64)] + [q.x[k:] for q, k in zip(qs, zs)]))
    xs = xs[np.diff(xs, prepend=0) != 0]  # the union of the nonzero x masks, ascending
    per = max(1, _CHUNK >> (n - 1))  # x masks per block
    # blocks of at most ``per`` masks with one pair bit each, the top bit of x
    edges = np.searchsorted(xs, [1 << k for k in range(n + 1)]).tolist()
    starts = [s for a, b in zip(edges, edges[1:]) for s in range(a, b, per)]
    pair = np.array([int(xs[a]).bit_length() - 1 for a in starts], dtype=np.int64)
    starts.append(len(xs))
    terms = []  # per charge: weighted coefficients, positions in a block's H, block cuts
    for q, c, k in zip(qs, coeffs, zs):
        x, z = q.x[k:], q.z[k:]
        row = np.searchsorted(xs, x)
        block = np.searchsorted(starts, row, side="right") - 1
        low = (np.int64(1) << pair[block]) - 1  # the bits below the pair bit
        pos = (row - np.take(starts, block)) * half + (z & low | z >> 1 & ~low)
        terms.append((2 * c[k:] * i_power(x, z), pos, np.searchsorted(row, starts).tolist()))
    for i, (a, b) in enumerate(zip(starts, starts[1:])):
        h = int(pair[i])
        o, g = np.zeros((2, b - a, half), dtype=complex)
        lo = (cols[:half] >> h << (h + 1)) | (cols[:half] & ((1 << h) - 1))  # bit h clear
        flips = lo ^ xs[a:b, None]  # their partners b ^ x
        gb = g.reshape(b - a, -1, 1 << h)  # g with bit h of b spelt out, as a view
        for r in rotated:
            np.take(r, flips, out=g, mode="clip")
            np.conjugate(g, out=g)
            gb *= r.reshape(-1, 2, 1 << h)[:, 0]
            o += g
        w = walsh_rows(o, g).reshape(-1)
        for k, (c, pos, cuts) in enumerate(terms):
            t0, t1 = cuts[i], cuts[i + 1]
            vals[k] += float(np.dot(c[t0:t1], w[pos[t0:t1]]).real)
    return vals


def _pauli_rows(rho: DensityMatrix, xs: np.ndarray) -> np.ndarray:
    """Rows ``xs`` (int64 x masks) of :func:`pauli_spectrum`, ``Re tr(rho P(xs[i], z))`` at [i, z].

    P(x, z) has X on the sites of x, Z on those of z and Y on both, so it is
    i^popcount(x & z) X^x Z^z, and tr(rho X^x Z^z) is the Walsh transform at
    z of the overlap row ``rho[b, b^x]``.  Rows are gathered and transformed
    in blocks of at most ``_CHUNK`` complex entries (one row per x, at least
    one row), so no complex 4^N array is held.
    """
    dim = 1 << rho.n_sites
    cols = np.arange(dim, dtype=np.int64)
    flat = rho.entries.reshape(-1)
    row_start = cols * dim  # rho[b, b^x] is flat[row_start[b] + (b^x)]
    per = max(1, _CHUNK >> rho.n_sites)  # rows per block
    buf = np.empty((2, min(per, len(xs)), dim), dtype=complex)
    out = np.empty((len(xs), dim))
    for start in range(0, len(xs), per):
        x = xs[start : start + per]
        cur = buf[0, : len(x)]
        np.take(flat, (cols ^ x[:, None]) + row_start, out=cur)
        w = walsh_rows(cur, buf[1, : len(x)])
        out[start : start + len(x)] = (w * i_power(x[:, None], cols)).real
    return out


def pauli_spectrum(rho: DensityMatrix) -> np.ndarray:
    """``paulis[x, z] = Re tr(rho P(x, z))`` for every Pauli string, a real 2^N x 2^N array:
    every row of :func:`_pauli_rows`."""
    return _pauli_rows(rho, np.arange(1 << rho.n_sites, dtype=np.int64))


def from_pauli_spectrum(paulis: np.ndarray) -> DensityMatrix:
    """The matrix ``2^-N sum_{x,z} paulis[x, z] P(x, z)``, inverse of :func:`pauli_spectrum`
    on Hermitian matrices.

    Row x of ``paulis`` times conj(i^popcount(x & z)) is the Walsh transform
    of the overlap row ``rho[b, b^x]`` (:func:`pauli_spectrum`), so one
    :func:`pauli.walsh_rows` pass over all rows, divided by 2^N, gives every entry.
    """
    dim = len(paulis)
    cols = np.arange(dim, dtype=np.int64)
    w = paulis * i_power(cols[:, None], cols).conj()
    rows = walsh_rows(w, np.empty_like(w))
    rho = np.empty((dim, dim), dtype=complex)
    rho.reshape(-1)[cols * dim + (cols ^ cols[:, None])] = rows / dim
    return DensityMatrix(dim.bit_length() - 1, rho)


def rotated_probabilities(state, words) -> np.ndarray:
    """Outcome distributions after the measurement rotation of each word, one row per word.

    Outcome bit j-1 is 0 for the +1 eigenvalue of word letter j.  A density
    matrix is read from its Pauli spectrum (:func:`pauli_spectrum`), built
    once per call; a statevector rotates a copy of its amplitudes per word.
    See the module docstring.  The state is only read.
    """
    n = state.n_sites
    wx, wz = word_masks(words, n)
    dim = 1 << n
    if isinstance(state, DensityMatrix):
        # p_w(b) = 2^-N sum_S (-1)^popcount(b & S) paulis[wx & S, wz & S]
        cols = np.arange(dim, dtype=np.int64)
        g = pauli_spectrum(state).reshape(-1)[(wx[:, None] & cols) * dim + (wz[:, None] & cols)]
        out = walsh_rows(g, np.empty_like(g))
        out /= dim
        return out

    out = np.empty((len(words), dim))
    for row, word in zip(out, words):
        amp = state.amplitudes.copy()
        for k, letter in enumerate(word):
            if letter != "Z":
                _apply_block(amp, n, _BASIS[letter].T, [k])
        row[:] = np.abs(amp) ** 2
    return out


def apply_readout_flips(probs: np.ndarray, flip: np.ndarray, n_sites: int) -> np.ndarray:
    """Push distributions (along the last axis) through independent per-site classical bit flips."""
    p = probs.copy()
    for j in range(n_sites):
        q = flip[j]
        if q == 0.0:
            continue
        swapped = p.reshape(-1, 2, 1 << j)[:, ::-1, :].reshape(p.shape)
        p = (1.0 - q) * p + q * swapped
    return p


def _philox_key(seed: int, word_index: int) -> np.ndarray:
    """The Philox key of (seed, word index): the seed's 64 low bits and
    ``word_index << 20``, as an explicit uint64 pair.  A list holding an int
    above 2^63 - 1 would pass through float64 and lose the seed's low bits."""
    return np.array([seed & 0xFFFFFFFFFFFFFFFF, word_index << 20], dtype=np.uint64)


def shot_rng(seed: int, word_index: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, word index)."""
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, word_index)))


def outcome_distribution(state, words, noise: NoiseModel = IDEAL) -> np.ndarray:
    """Outcome distributions in the bases of ``words`` (all Z: computational) as read out.

    One row per word, clipped at zero and normalised, then pushed through the
    readout flips of ``noise``.
    """
    p = np.clip(rotated_probabilities(state, words), 0.0, None)
    for row in p:  # a 1-D sum per row adds in the order of a single distribution's
        row /= row.sum()
    flips = noise.flip_probs(state.n_sites)
    if flips is not None:
        p = apply_readout_flips(p, flips, state.n_sites)
    return p


def sample(state, words, shots, keys, noise: NoiseModel = IDEAL) -> np.ndarray:
    """Multinomial outcome counts of :func:`outcome_distribution`, ``shots[i]`` for word i.

    The only place shots are drawn.  Word i draws ``shots[i]`` outcomes with
    ``keys[i] = (seed, word_index)``, the key of its :func:`shot_rng`, so its
    draws do not depend on the other words.  One Philox generator is re-keyed
    for each word through its ``state``, with the counter and buffer of a new
    one, so it draws what a fresh :func:`shot_rng` draws.  Returns an int64
    count table of shape ``(words, 2^N)``: row i counts each basis outcome of
    word i.  Raises ValueError unless every shot count is an integer >= 1
    (a bool is not one).
    """
    if len(shots) != len(words) or len(keys) != len(words):
        raise ValueError("sample needs one shot count and one (seed, word_index) key per word")
    bad = [n for n in shots if not isinstance(n, Integral) or isinstance(n, bool) or n < 1]
    if bad:
        raise ValueError(f"shots must be >= 1, each an integer: got {bad[0]!r}")
    dists = outcome_distribution(state, words, noise)
    counts = np.empty(dists.shape, dtype=np.int64)
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    fresh = bits.state  # counter 0 and buffer spent, as a new generator's; only the key changes
    for row, p, n_w, (seed, word_index) in zip(counts, dists, shots, keys):
        fresh["state"]["key"] = _philox_key(seed, word_index)
        bits.state = fresh
        row[:] = gen.multinomial(n_w, p)
    return counts
