"""Hypothesis strategies shared by the engine property tests."""

import numpy as np
from hypothesis import strategies as st

from trotterchain.circuit import GATE_KINDS, Circuit, Gate


@st.composite
def gate_lists(draw, max_sites: int = 3, max_gates: int = 8):
    """A circuit on 1..max_sites sites drawing every GATE_KINDS kind.

    CNOT sites are an ordered pair of distinct sites, so the control falls
    above and below the target and, from three sites on, on non-adjacent
    sites.
    """
    n = draw(st.integers(1, max_sites))
    kinds = GATE_KINDS if n > 1 else tuple(k for k in GATE_KINDS if k != "CNOT")
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=max_gates)):
        if kind == "CNOT":
            sites = tuple(draw(st.permutations(range(1, n + 1)))[:2])
        else:
            sites = (draw(st.integers(1, n)),)
        angle = draw(st.floats(-np.pi, np.pi)) if kind == "RZ" else None
        gates.append(Gate(kind, sites, angle))
    return Circuit(n, gates)
