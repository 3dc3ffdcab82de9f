import numpy as np
import pytest

from trotterchain.analysis import (
    DecaySeries,
    benchmark_verdict,
    fit_early_linear,
    fit_exp,
)


def test_series_validation():
    with pytest.raises(ValueError):
        DecaySeries([0, 1, 1], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        DecaySeries([0, 1], [1.0, 2.0], [-0.1, 0.1])
    with pytest.raises(ValueError):
        fit_exp(DecaySeries([0, 1, 2], [1.0, 0.5, 0.2]))  # needs 4 points
    with pytest.raises(ValueError):
        fit_early_linear(DecaySeries([0, 1], [1.0, 0.9]))  # needs 3 points


def test_fit_exp_recovers_exact_parameters():
    d = np.arange(0.0, 21.0)
    y = 5.0 * np.exp(-0.3 * d) + 1.0
    fit = fit_exp(DecaySeries(d, y))
    assert fit.converged
    assert fit.parameters["c1"] == pytest.approx(5.0, rel=1e-6)
    assert fit.parameters["gamma"] == pytest.approx(0.3, rel=1e-6)
    assert fit.parameters["c2"] == pytest.approx(1.0, rel=1e-6)


def test_fit_exp_hundred_random_draws():
    rng = np.random.default_rng(1)
    d = np.arange(0.0, 25.0)
    for _ in range(100):
        c1 = float(rng.uniform(0.5, 10.0) * np.sign(rng.normal()))
        gamma = float(rng.uniform(0.05, 0.8))
        c2 = float(rng.uniform(-3.0, 3.0))
        fit = fit_exp(DecaySeries(d, c1 * np.exp(-gamma * d) + c2))
        assert fit.converged
        assert abs(fit.parameters["c1"] - c1) < 1e-5 * max(abs(c1), 1.0)
        assert abs(fit.parameters["gamma"] - gamma) < 1e-5
        assert abs(fit.parameters["c2"] - c2) < 1e-5 * max(abs(c2), 1.0)


def test_fit_exp_constant_series_flagged():
    d = np.arange(0.0, 10.0)
    fit = fit_exp(DecaySeries(d, np.full_like(d, 2.5)))
    assert not fit.converged


def test_fit_exp_weighted_errors_scale():
    d = np.arange(0.0, 15.0)
    y = 4.0 * np.exp(-0.2 * d) + 0.5
    fit_one = fit_exp(DecaySeries(d, y, np.full_like(d, 0.1)))
    fit_avg = fit_exp(DecaySeries(d, y, np.full_like(d, 0.1 / np.sqrt(100.0))))
    # averaging 100 repetitions shrinks each parameter error by ~10x
    for key in ("c1", "gamma", "c2"):
        ratio = fit_one.std_errors[key] / fit_avg.std_errors[key]
        assert ratio == pytest.approx(10.0, rel=1e-6)


def test_fit_early_linear_values():
    d = np.arange(0.0, 10.0)
    v0 = -7.6
    y = (1.0 - 0.02 * d) * v0
    fit = fit_early_linear(DecaySeries(d, y), window=6)
    assert fit.parameters["beta"] == pytest.approx(0.02, abs=1e-12)
    assert fit.parameters["value0"] == pytest.approx(v0, abs=1e-9)
    # three exact points reproduce the two-point slope
    fit3 = fit_early_linear(DecaySeries(d[:3], y[:3]))
    slope2 = -(y[1] / v0 - y[0] / v0) / (d[1] - d[0])
    assert fit3.parameters["beta"] == pytest.approx(slope2, abs=1e-12)


def test_fit_early_linear_error_is_the_textbook_ols_error():
    # sigma_beta = sqrt(RSS / (k - 2) / sum (d - mean d)^2) on a noisy window
    rng = np.random.default_rng(3)
    d = np.arange(0.0, 9.0)
    v0 = 2.5
    y = v0 * (1.0 - 0.03 * d + rng.normal(0.0, 0.01, len(d)))
    k = 6
    fit = fit_early_linear(DecaySeries(d, y), window=k)
    t, u = d[:k], y[:k] / y[0]
    slope = np.sum((t - t.mean()) * (u - u.mean())) / np.sum((t - t.mean()) ** 2)
    rss = np.sum((u - u.mean() - slope * (t - t.mean())) ** 2)
    assert fit.parameters["beta"] == pytest.approx(-slope, rel=1e-10)
    assert fit.std_errors["beta"] == pytest.approx(
        np.sqrt(rss / (k - 2) / np.sum((t - t.mean()) ** 2)), rel=1e-10
    )


def test_fit_early_linear_rejects_zero_start():
    d = np.arange(0.0, 5.0)
    with pytest.raises(ValueError):
        fit_early_linear(DecaySeries(d, np.array([0.0, 1.0, 2.0, 3.0, 4.0])))


def test_benchmark_verdict_rules():
    assert benchmark_verdict(0.005, 0.01, 8, 10, 1, "neel")["pass"]
    assert not benchmark_verdict(0.02, 0.01, 8, 10, 1, "neel")["pass"]
    assert not benchmark_verdict(0.01, 0.01, 8, 10, 1, "neel")["pass"]  # tie fails
    doc = benchmark_verdict(0.005, 0.01, 8, 10, 2, "zeros")
    assert doc == {
        "pass": True,
        "beta": 0.005,
        "beta_star": 0.01,
        "w": 8,
        "d": 10,
        "n": 2,
        "initial_state": "zeros",
    }
