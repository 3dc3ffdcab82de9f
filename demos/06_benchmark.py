"""Early-time charge decay as a device benchmark.

At small noise rates the first few Trotter steps obey
value(d)/value(0) = 1 - beta d; the slope beta quantifies how noisy the
evolution is.  Higher and more nonlocal charges pick up noise faster, so a
family of (width, depth, order, state) verdicts against a threshold beta*
makes a multi-dimensional benchmark surface.
"""

import numpy as np

from trotterchain.analysis import DecaySeries, benchmark_verdict, fit_early_linear
from trotterchain.circuit import InitialStateSpec
from trotterchain.cli import ExperimentConfig, exact_decay_series

noise = {"kind": "depolarizing", "p1": 0.00013, "p2": 0.0013}
beta_star = 0.03

neel = ExperimentConfig(
    n_sites=8, depth_max=8, charges=((1, "plus"), (2, "plus")), noise=noise
)
yzx_state = ExperimentConfig(
    n_sites=8,
    depth_max=8,
    charges=((1, "dif"),),
    initial_state=InitialStateSpec("YZXYZXYX", (0,) * 8),
    noise=noise,
)

series = exact_decay_series(neel)
series.update(exact_decay_series(yzx_state))
d = np.arange(9.0)

print(f"threshold beta* = {beta_star}")
for label, values in series.items():
    fit = fit_early_linear(DecaySeries(d, values), window=6)
    beta = fit.parameters["beta"]
    order = int(label[1])
    verdict = benchmark_verdict(beta, beta_star, 8, 8, order, "neel" if "+" in label else "yzx")
    print(
        f"  {label:6s} beta = {beta:.4f} +- {fit.std_errors['beta']:.4f}"
        f"   -> {'pass' if verdict['pass'] else 'fail'}"
    )
print("\nhigher / more nonlocal charges decay faster, as the orderings show")
