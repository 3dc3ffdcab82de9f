"""Conserved charges of the Trotterized XXX chain, from scratch.

The discrete evolution step U(delta) is built from two-site R-matrices; its
conserved charges come in a hierarchy Q_n generated by a boost recursion.
This script generates the first few charge densities, evolves a product
state on a periodic chain step by step with the pure engine, and shows that
every charge's expectation stays where it started.
"""

import numpy as np

from trotterchain.charges import ChargeSpec, window_density
from trotterchain.circuit import InitialStateSpec, build_step
from trotterchain.sim import StateVector, evolve_pure, exact_expectation

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

# --- conservation under the circuit -------------------------------------------
# A product state on which all six charges are nonzero, so a drift of zero
# is not a charge that vanishes identically.
n_sites, depth = 12, 10
init = InitialStateSpec("XXYZ" * 3, (0, 0, 1, 1) * 3)
specs = [ChargeSpec(order, variant, n_sites) for order in (1, 2, 3) for variant in ("plus", "dif")]
step = build_step(n_sites, alpha)
psi = StateVector.from_spec(init)
values = [exact_expectation(psi, specs, delta)]
for _ in range(depth):
    psi = evolve_pure(step, psi)
    values.append(exact_expectation(psi, specs, delta))
drift = np.abs(np.array(values) - values[0]).max(axis=0)
print(f"\n{init.label()} on N = {n_sites}, d = 0..{depth} steps:")
print("  charge       <Q>(0)   max_d |<Q>(d) - <Q>(0)|")
for spec, start, moved in zip(specs, values[0], drift):
    print(f"  {spec.label:6s} {start:+12.6f}   {moved:.1e}")

# --- known product-state values -----------------------------------------------
# On the Neel state the order-1 charge evaluates in closed form.
print("\nNeel-state expectation of Q1+:")
for n_sites in (4, 6, 8, 10, 12):
    psi = StateVector.from_spec(InitialStateSpec.neel(n_sites))
    (val,) = exact_expectation(psi, [ChargeSpec(1, "plus", n_sites)], delta)
    print(f"  N={n_sites:2d}: {val:+.4f}   (formula -(N/2)(2-delta^2) = {-(n_sites/2)*(2-delta**2):+.4f})")
