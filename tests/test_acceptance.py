"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
summary lines).  The slower criteria share session-scoped trajectories.
"""

import numpy as np
import pytest

import test_charges as golden
from dense_oracle import coefficient
from trotterchain import analysis as an
from trotterchain import sim, spectral
from trotterchain.charges import (
    ChargeSpec,
    assemble,
    boost_step,
    step_unitary,
    transfer_matrix,
    window_density,
)
from trotterchain.circuit import InitialStateSpec, build_step
from trotterchain.cli import (
    ExperimentConfig,
    decay_table,
    exact_decay_series,
    mitigation_table,
    tomo_report,
)
from trotterchain.measure import MeasurementPlan, build_cover, estimate
from trotterchain.pauli import PauliString

ALPHA = 0.3
DELTA = float(np.tan(ALPHA))

DEPOL_RATES = {"kind": "depolarizing", "p1": 0.0013, "p2": 0.013}
DAMP_RATES = {"kind": "damping", "lambda_a": 0.018, "lambda_p": 0.018}


def report(num, detail):
    print(f"ACCEPTANCE {num}: PASS - {detail}")


# -- criterion 1: golden charges -------------------------------------------


def test_c01_golden_charges():
    q1 = window_density(1, "plus")
    assert coefficient(q1, PauliString.from_letters("ZZI")).coeffs == (1,)
    assert coefficient(q1, PauliString.from_letters("XYZ")).coeffs == (0, -1)
    assert coefficient(q1, PauliString.from_letters("ZIZ")).coeffs == (0, 0, 1)
    assert len(q1) == 15  # two bond dots, six triples, three edge-pair dots
    for variant in ("plus", "minus"):
        assert boost_step(window_density(1, variant), 1, variant) == golden.q2_reference(variant)
    got3 = boost_step(golden.q2_reference("plus"), 2, "plus")
    want3 = golden.build_window(7, golden.Q3_REFERENCE_GROUPS)
    assert got3 == want3
    report(1, "q1/q2/q3 densities match the golden expansions with exact integers")


# -- criterion 2: integrability identities ----------------------------------


def test_c02_integrability_identities():
    n = 4
    rng = np.random.default_rng(42)
    for _ in range(10):
        lam, mu = rng.normal(size=2) + 1j * 0.3 * rng.normal(size=2)
        t1 = transfer_matrix(lam, DELTA, n)
        t2 = transfer_matrix(mu, DELTA, n)
        assert np.abs(t1 @ t2 - t2 @ t1).max() < 1e-10
    u = np.linalg.inv(transfer_matrix(-DELTA / 2, DELTA, n)) @ transfer_matrix(
        DELTA / 2, DELTA, n
    )
    assert np.abs(u - step_unitary(DELTA, n)).max() < 1e-10
    report(2, "[T,T] = 0 and U = T(-d/2)^-1 T(d/2) at 1e-10")


# -- criterion 3: exact conservation ----------------------------------------


@pytest.mark.parametrize("n_sites,max_order", [(8, 3), (10, 4)])
def test_c03_exact_conservation(n_sites, max_order):
    variants = ("plus", "dif") if n_sites == 8 else ("plus",)
    charges = [ChargeSpec(order, v, n_sites) for order in range(1, max_order + 1) for v in variants]
    circ = build_step(n_sites, ALPHA)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        letters = "".join(rng.choice(list("XYZ")) for _ in range(n_sites))
        bits = tuple(int(b) for b in rng.integers(0, 2, size=n_sites))
        psi = sim.StateVector.from_spec(InitialStateSpec(letters, bits))
        start = sim.exact_expectation(psi, charges, DELTA)
        for _ in range(30):
            psi = sim.evolve_pure(circ, psi)
            now = sim.exact_expectation(psi, charges, DELTA)
            worst = max([worst] + [abs(a - b) for a, b in zip(now, start)])
    assert worst < 1e-9
    report(3, f"N={n_sites}, n<={max_order}: max drift {worst:.2e} over d<=30, 5 states")


# -- criterion 4: noiseless anchors -----------------------------------------


def test_c04_noiseless_neel_anchors():
    anchors = {4: -3.8, 6: -5.7, 8: -7.6, 10: -9.5, 12: -11.4}
    for n, anchor in anchors.items():
        psi = sim.StateVector.from_spec(InitialStateSpec.neel(n))
        (val,) = sim.exact_expectation(psi, [ChargeSpec(1, "plus", n)], DELTA)
        assert abs(val - anchor) / abs(anchor) < 0.015
        # resolved convention: no rescaling; the exact value is -(N/2)(2-d^2)
        assert val == pytest.approx(-(n / 2) * (2 - DELTA**2), abs=1e-10)
    report(4, "Neel <Q1+> matches -3.8 ... -11.4 within 1.5% (no rescaling)")


# -- criterion 5: depolarizing decay rates -----------------------------------


@pytest.fixture(scope="module")
def depol_decay_series():
    neel = ExperimentConfig(
        n_sites=8, depth_max=30, charges=((1, "plus"),), noise=DEPOL_RATES
    )
    yzx_state = ExperimentConfig(
        n_sites=8,
        depth_max=30,
        charges=((1, "dif"),),
        initial_state=InitialStateSpec("YZXYZXYX", (0,) * 8),
        noise=DEPOL_RATES,
    )
    return exact_decay_series(neel)["Q1+"], exact_decay_series(yzx_state)["Q1dif"]


def test_c05_depolarizing_decay_rates(depol_decay_series):
    plus, dif = depol_decay_series
    d = np.arange(31.0)
    fit_plus = an.fit_exp(an.DecaySeries(d, plus))
    fit_dif = an.fit_exp(an.DecaySeries(d, dif))
    assert fit_plus.converged and fit_dif.converged
    g_plus = fit_plus.parameters["gamma"]
    g_dif = fit_dif.parameters["gamma"]
    assert 0.20 <= g_plus <= 0.32
    assert 0.30 <= g_dif <= 0.46
    assert abs(fit_plus.parameters["c2"]) < 0.05 * abs(plus[0])
    assert abs(fit_dif.parameters["c2"]) < 0.05 * abs(dif[0])
    report(5, f"gamma(Q1+)={g_plus:.3f} in [0.20,0.32]; gamma(Q1dif)={g_dif:.3f} in [0.30,0.46]; c2~0")


# -- criterion 6: damping asymptotes -----------------------------------------


def test_c06_damping_asymptote_state_independent():
    # sampled pipeline (the reference data carries shot noise); late-time window
    # because the c1 e^{-gamma d} + c2 form is the large-d asymptote
    base = dict(
        n_sites=8,
        depth_max=40,
        charges=((1, "plus"),),
        noise=DAMP_RATES,
        shots_total=100_000,
        exact_reference=False,
    )
    rows_n = decay_table(ExperimentConfig(**base, seed=21))
    rows_z = decay_table(
        ExperimentConfig(**base, seed=22, initial_state=InitialStateSpec.zeros(8))
    )

    def tail_series(rows, skip=12):
        d = np.array([r[0] for r in rows], float)[skip:]
        v = np.array([r[3] for r in rows])[skip:]
        s = np.array([r[4] for r in rows])[skip:]
        return an.DecaySeries(d, v, s)

    fit_n = an.fit_exp(tail_series(rows_n))
    fit_z = an.fit_exp(tail_series(rows_z))
    c2_n, c2_z = fit_n.parameters["c2"], fit_z.parameters["c2"]
    err_n, err_z = fit_n.std_errors["c2"], fit_z.std_errors["c2"]
    combined = float(np.hypot(err_n, err_z))
    assert abs(c2_n - c2_z) < 3 * combined
    assert abs(c2_n) > 5 * err_n  # significantly nonzero asymptote
    report(
        6,
        f"c2(Neel)={c2_n:.3f}, c2(zeros)={c2_z:.3f}, |diff|={abs(c2_n-c2_z)/combined:.2f} "
        f"combined sigma; significance {abs(c2_n)/err_n:.0f} sigma",
    )


# -- criteria 7 and 8: channel spectra ----------------------------------------


@pytest.fixture(scope="module")
def spectrum_single_rate():
    model = ExperimentConfig(
        n_sites=4, noise={"kind": "depolarizing", "p1": 0.018, "p2": 0.018}
    ).noise_model()
    return spectral.vectorize_step(build_step(4, ALPHA), model)


def test_c07_channel_spectrum_structure(spectrum_single_rate):
    vals = spectral.spectrum(spectrum_single_rate)
    assert len(vals) == 256
    at_one = np.abs(vals - 1.0) < 1e-8
    assert at_one.sum() == 1
    others = np.abs(vals[~at_one])
    assert np.all(others <= 1.0 - 1e-4)
    srt = np.sort_complex(np.round(vals, 8))
    assert np.abs(srt - np.sort_complex(np.round(vals.conj(), 8))).max() < 1e-6
    noiseless = spectral.spectrum(spectral.vectorize_step(build_step(4, ALPHA), sim.IDEAL))
    assert np.abs(np.abs(noiseless) - 1.0).max() < 1e-8
    report(7, "256 eigenvalues; unique unit eigenvalue; rest inside; conjugate-symmetric")


def test_c08_rate_consistency():
    config = ExperimentConfig(
        n_sites=4, depth_max=30, charges=((1, "plus"),), noise=DEPOL_RATES
    )
    series = exact_decay_series(config)["Q1+"]
    gamma = an.fit_exp(an.DecaySeries(np.arange(31.0), series)).parameters["gamma"]
    op = spectral.vectorize_step(build_step(4, ALPHA), config.noise_model())
    target = spectral.decay_rate(spectral.spectrum(op))
    ratio = gamma / target
    assert 1.0 <= ratio <= 2.0
    report(8, f"gamma={gamma:.3f} vs -ln|l1|={target:.3f}; ratio {ratio:.2f} in [1,2]")


# -- criterion 9: estimator properties ----------------------------------------


def test_c09_estimator_monte_carlo():
    n = 4
    q = assemble(ChargeSpec(1, "plus", n))
    plan = MeasurementPlan(build_cover(q, DELTA).words, 150)
    rng = np.random.default_rng(5)
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi = sim.StateVector(n, amp / np.linalg.norm(amp))
    (exact,) = sim.exact_expectation(psi, [ChargeSpec(1, "plus", n)], DELTA)
    dists = sim.rotated_probabilities(psi, plan.words)

    reps = 2000
    vals = np.empty(reps)
    s2 = np.empty(reps)
    for r in range(reps):
        counts = [
            sim.shot_rng(9000 + r, wi).multinomial(plan.shots_per_word, p)
            for wi, p in enumerate(dists)
        ]
        est = estimate(np.array(counts), plan, q, DELTA)
        vals[r] = est.value
        s2[r] = est.std_uncertainty**2
    stderr = vals.std(ddof=1) / np.sqrt(reps)
    bias = abs(vals.mean() - exact)
    ratio = s2.mean() / vals.var(ddof=1)
    assert bias < 4 * stderr
    assert abs(ratio - 1.0) < 0.10
    report(9, f"bias {bias/stderr:.2f} stderr (<4); E[s_Q^2]/Var = {ratio:.3f} (within 10%)")


# -- criterion 10: tomography -------------------------------------------------


def test_c10_tomography_fidelities():
    config = ExperimentConfig(
        n_sites=6, depth_max=30, charges=((1, "plus"),), noise=DAMP_RATES, exact_reference=True
    )
    rep = tomo_report(config, steps=[0, 30])
    pairs = rep["pairwise_fidelity"]
    finals = {key: vals[-1] for key, vals in pairs.items()}
    assert all(f > 0.97 for f in finals.values())
    self_fid = rep["self_fidelity"]
    assert self_fid["zeros"][-1] > self_fid["neel"][-1]
    report(
        10,
        "pairwise fidelities at d=30 all > 0.97 "
        f"(min {min(finals.values()):.4f}); |0^6> trajectory stays closest to itself",
    )


# -- criterion 11: mitigation --------------------------------------------------


def test_c11_mitigation_depth_window():
    config = ExperimentConfig(
        n_sites=4,
        depth_max=15,
        charges=((1, "plus"),),
        noise={**DEPOL_RATES, "readout_flip": 0.02},
        shots_total=100_000,
    )
    rows = mitigation_table(config)
    lost_at = None
    for d, unmit, unmit_sd, mit, mit_sd, exact in rows:
        if d <= 4:
            assert abs(mit - exact) < abs(unmit - exact)
        if lost_at is None and abs(mit - unmit) <= float(np.hypot(unmit_sd, mit_sd)):
            lost_at = d
    assert lost_at is not None and lost_at <= 15
    report(11, f"mitigation wins for d<=4; statistically indistinguishable at d={lost_at}")


# -- criterion 12: early-time ordering ----------------------------------------


def test_c12_early_time_beta_ordering():
    small = {"kind": "depolarizing", "p1": 0.00013, "p2": 0.0013}
    neel = exact_decay_series(
        ExperimentConfig(n_sites=8, depth_max=8, charges=((1, "plus"), (2, "plus")), noise=small)
    )
    yzx_state = exact_decay_series(
        ExperimentConfig(
            n_sites=8,
            depth_max=8,
            charges=((1, "dif"),),
            initial_state=InitialStateSpec("YZXYZXYX", (0,) * 8),
            noise=small,
        )
    )
    d = np.arange(9.0)
    betas = {}
    for label, series in (
        ("Q1+", neel["Q1+"]),
        ("Q2+", neel["Q2+"]),
        ("Q1dif", yzx_state["Q1dif"]),
    ):
        betas[label] = an.fit_early_linear(an.DecaySeries(d, series), window=6).parameters["beta"]
    assert betas["Q2+"] > betas["Q1+"]
    assert betas["Q1dif"] > betas["Q1+"]
    report(
        12,
        f"beta(Q2+)={betas['Q2+']:.4f} > beta(Q1+)={betas['Q1+']:.4f}; "
        f"beta(Q1dif)={betas['Q1dif']:.4f} > beta(Q1+)",
    )
