"""Gate-level circuits: initialization and brickwork evolution.

A circuit is an ordered gate list over sites 1..N (cyclic) split into two
sections, init | evolution.  The evolution section is ``depth`` repetitions
of one identical step block; each step applies the even-bond layer
(2j, 2j+1) to the state first, then the odd-bond layer (2j-1, 2j).  No
circuit carries a measurement rotation: :mod:`sim` rotates each word's
basis with one 2x2 unitary per letter, and prepares ideal product states
without gates; the init gates serve circuits whose preparation is noisy.

Gate conventions: ``RZ(a) = exp(-i a Z / 2)``; each two-site block realizes
the R-matrix at ``delta = tan(alpha)`` up to the dropped global phase
``exp(-i alpha / 2)``, in the fused form with four CNOTs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

GATE_KINDS = ("X", "H", "S", "SDG", "RZ", "CNOT")

_SQ2 = 1.0 / math.sqrt(2.0)
_FIXED_1Q = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
}


@dataclass(frozen=True)
class Gate:
    kind: str
    sites: tuple
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "CNOT":
            if len(self.sites) != 2 or self.sites[0] == self.sites[1]:
                raise ValueError("CNOT needs two distinct sites")
        elif len(self.sites) != 1:
            raise ValueError(f"{self.kind} acts on one site")
        if (self.kind == "RZ") != (self.angle is not None):
            raise ValueError("angle is for RZ gates only")

    def matrix_1q(self) -> np.ndarray:
        if self.kind == "RZ":
            h = self.angle / 2.0
            return np.array([[np.exp(-1j * h), 0], [0, np.exp(1j * h)]])
        return _FIXED_1Q[self.kind]


@dataclass(frozen=True)
class InitialStateSpec:
    """Per-site basis letters P_j in {X, Y, Z} and eigenvalue bits s_j."""

    letters: str
    bits: tuple

    def __post_init__(self):
        if len(self.letters) != len(self.bits):
            raise ValueError("letters and bits must have equal length")
        if any(ch not in "XYZ" for ch in self.letters):
            raise ValueError("initial-state letters must be X, Y or Z")
        if not all(isinstance(b, Integral) and not isinstance(b, bool) for b in self.bits):
            raise ValueError("bits must be integers, not bools or floats")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    @property
    def n_sites(self) -> int:
        return len(self.letters)

    @classmethod
    def zeros(cls, n: int) -> "InitialStateSpec":
        return cls("Z" * n, (0,) * n)

    @classmethod
    def neel(cls, n: int) -> "InitialStateSpec":
        return cls("Z" * n, tuple(j % 2 for j in range(n)))

    def label(self) -> str:
        bits = "".join(str(b) for b in self.bits)
        return f"|{bits}>_{self.letters}"


@dataclass
class Circuit:
    """Ordered gates with section markers (init | evolution)."""

    n_sites: int
    gates: list = field(default_factory=list)
    init_end: int = 0
    evolution_end: int = 0
    depth: int = 0

    def __post_init__(self):
        for g in self.gates:
            for s in g.sites:
                if not 1 <= s <= self.n_sites:
                    raise ValueError(f"site {s} outside 1..{self.n_sites}")

    @property
    def init_gates(self):
        return self.gates[: self.init_end]

    @property
    def evolution_gates(self):
        return self.gates[self.init_end : self.evolution_end]

    def cnot_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "CNOT")


def build_init(spec: InitialStateSpec) -> list:
    """One-qubit preparation of the product eigenstate |s1 s2 ...>_{P1 P2 ...}.

    Per site: X^{s_j}, then H for letter X, or H followed by S for letter Y.
    """
    gates = []
    for j, (letter, bit) in enumerate(zip(spec.letters, spec.bits), start=1):
        if bit:
            gates.append(Gate("X", (j,)))
        if letter == "X":
            gates.append(Gate("H", (j,)))
        elif letter == "Y":
            gates.append(Gate("H", (j,)))
            gates.append(Gate("S", (j,)))
    return gates


def build_rcheck(site_pair: tuple, alpha: float) -> list:
    """Fused two-site evolution block (XX+YY then ZZ), four CNOTs total."""
    a, b = site_pair
    return [
        Gate("CNOT", (a, b)),
        Gate("H", (a,)),
        Gate("CNOT", (a, b)),
        Gate("RZ", (a,), -alpha),
        Gate("RZ", (b,), alpha),
        Gate("CNOT", (a, b)),
        Gate("H", (a,)),
        Gate("RZ", (b,), -alpha),
        Gate("CNOT", (a, b)),
    ]


def build_evolution(n_sites: int, alpha: float, depth: int) -> list:
    """``depth`` repetitions of one brickwork step, even-bond layer first."""
    if n_sites % 2:
        raise ValueError("chain length must be even")
    step = []
    for j in range(1, n_sites // 2 + 1):  # even bonds (2j, 2j+1), cyclic
        step.extend(build_rcheck((2 * j, (2 * j) % n_sites + 1), alpha))
    for j in range(1, n_sites // 2 + 1):  # odd bonds (2j-1, 2j)
        step.extend(build_rcheck((2 * j - 1, 2 * j), alpha))
    return step * depth


def build_step(n_sites: int, alpha: float) -> Circuit:
    """One evolution step as a circuit of its own (no init gates)."""
    gates = build_evolution(n_sites, alpha, 1)
    return Circuit(n_sites, gates, 0, len(gates), 1)


def build_circuit(init: InitialStateSpec, alpha: float, depth: int) -> Circuit:
    """Initialization then ``depth`` evolution steps; read-out rotates inside :mod:`sim`."""
    gates = build_init(init)
    init_end = len(gates)
    gates += build_evolution(init.n_sites, alpha, depth)
    return Circuit(init.n_sites, gates, init_end, len(gates), depth)
