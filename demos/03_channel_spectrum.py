"""Spectrum of the one-step quantum channel.

Vectorizing the noisy step gives a 4^N x 4^N matrix whose eigenvalues govern
the long-time dynamics: a unitary step puts all of them on the unit circle,
noise pulls everything except the fixed point inside, and the late-time decay
rate is -ln of the largest subunit modulus.
"""

import numpy as np

from trotterchain.charges import ChargeSpec
from trotterchain.circuit import build_step
from trotterchain.noise import amp_phase_damping, depolarizing
from trotterchain.sim import IDEAL, NoiseModel, exact_expectation
from trotterchain.spectral import decay_rate, fixed_point, spectrum, vectorize_step

n_sites = 4
alpha = 0.3
delta = float(np.tan(alpha))
step = build_step(n_sites, alpha)

for label, model in (
    ("noiseless", IDEAL),
    ("depolarizing p=0.018", NoiseModel(depolarizing(0.018), depolarizing(0.018))),
    ("damping 0.018/0.018", NoiseModel(after_two_qubit=amp_phase_damping(0.018, 0.018))),
):
    op = vectorize_step(step, model)
    vals = spectrum(op)
    mods = np.abs(vals)
    print(f"{label}:")
    print(f"  {len(vals)} eigenvalues; largest two moduli {mods[0]:.6f}, {mods[1]:.6f}")
    rate = decay_rate(vals)
    print(f"  decay rate: {'none (unitary)' if rate is None else f'{rate:.4f}'}")
    if rate is None:
        print()
        continue
    rho_star = fixed_point(op)
    (c2,) = exact_expectation(rho_star, [ChargeSpec(1, "plus", n_sites)], delta)
    mixed_dist = np.abs(rho_star.entries - np.eye(1 << n_sites) / (1 << n_sites)).max()
    print(f"  fixed point: distance from completely mixed {mixed_dist:.2e}; c2(Q1+) = {c2:+.4f}\n")
