"""Conserved charges of the Trotterized XXX chain, from scratch.

The discrete evolution step U(delta) is built from two-site R-matrices; its
conserved charges come in a hierarchy Q_n generated by a boost recursion.
This script generates the first few charge densities, assembles them on a
periodic chain, and verifies exact conservation against dense matrices.
"""

import numpy as np

from trotterchain.charges import (
    ChargeSpec,
    assemble,
    step_unitary,
    to_matrix,
    window_density,
)
from trotterchain.circuit import InitialStateSpec
from trotterchain.sim import StateVector, exact_expectation

alpha = 0.3
delta = float(np.tan(alpha))
print(f"Trotter angle alpha = {alpha}, delta = tan(alpha) = {delta:.6f}\n")

# --- windows -----------------------------------------------------------------
# A charge of order n lives on windows of 2n+1 sites.  The order-1 window is
# the deformed two-bond energy density; the boost recursion produces the rest.
for n in (1, 2, 3, 4):
    q = window_density(n, "plus")
    degree = q.coeffs.shape[1] - 1  # column m holds the delta^m coefficients
    print(f"q[{n},+]: {len(q):5d} Pauli terms, delta-degree {degree}")

# --- assembly and conservation ------------------------------------------------
n_sites = 8
u = step_unitary(delta, n_sites)
print(f"\nperiodic chain with N = {n_sites}:")
for order in (1, 2, 3):
    for variant in ("plus", "dif"):
        spec = ChargeSpec(order, variant, n_sites)
        qm = to_matrix(assemble(spec), delta)
        comm = np.abs(u @ qm - qm @ u).max()
        print(f"  [U, {spec.label:6s}] max entry = {comm:.2e}")

# --- known product-state values -----------------------------------------------
# On the Neel state the order-1 charge evaluates in closed form.
print("\nNeel-state expectation of Q1+:")
for n_sites in (4, 6, 8, 10, 12):
    psi = StateVector.from_spec(InitialStateSpec.neel(n_sites))
    (val,) = exact_expectation(psi, [ChargeSpec(1, "plus", n_sites)], delta)
    print(f"  N={n_sites:2d}: {val:+.4f}   (formula -(N/2)(2-delta^2) = {-(n_sites/2)*(2-delta**2):+.4f})")
