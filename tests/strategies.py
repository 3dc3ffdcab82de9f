"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from trotterchain.charges import PauliPolynomial
from trotterchain.circuit import GATE_KINDS, Circuit, Gate
from trotterchain.pauli import PauliString


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


@st.composite
def polynomials(draw, max_terms=40, n_sites=None):
    """A charge on ``n_sites`` sites (drawn from 2..8 if not given) with distinct
    strings and constant coefficients 1..3."""
    n = draw(st.integers(2, 8)) if n_sites is None else n_sites
    masks = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
    pairs = draw(
        st.lists(masks.filter(lambda xz: xz != (0, 0)), min_size=1, max_size=max_terms, unique=True)
    )
    terms = [(PauliString(n, x, z), (draw(st.integers(1, 3)),)) for x, z in pairs]
    return PauliPolynomial.from_terms(n, terms)


@st.composite
def term_lists(draw, max_sites: int = 8, max_terms: int = 12):
    """``(n, [(PauliString, coefficients), ...])`` on 1..max_sites sites.

    Strings come from a pool of at most four, so they repeat; each has phase
    +1 or -1; a term may be followed by its negative, so sums cancel to zero.
    Coefficient lists may be empty or end in zeros.
    """
    n = draw(st.integers(1, max_sites))
    mask = st.integers(0, (1 << n) - 1)
    pool = draw(st.lists(st.tuples(mask, mask).filter(any), min_size=1, max_size=4))
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        x, z = draw(st.sampled_from(pool))
        phase = draw(st.sampled_from([0, 2]))
        coeffs = draw(st.lists(st.integers(-3, 3), max_size=4))
        terms.append((PauliString(n, x, z, phase), coeffs))
        if draw(st.booleans()):
            terms.append((PauliString(n, x, z, 2 - phase), coeffs))
    return n, terms
