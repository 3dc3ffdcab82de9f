"""Decay-curve fitting and the early-time benchmark verdict.

Late-time series are fit to ``c1 exp(-gamma d) + c2`` by damping-stabilized
Gauss-Newton; early-time series to the normalized linear law
``value / value(0) = 1 - beta d``.  Points with reported sigma are weighted
by 1/sigma^2 when every point carries one, otherwise the fit is unweighted
and parameter errors are scaled by the residual variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ITER = 500
REL_TOL = 1e-9


@dataclass
class DecaySeries:
    steps: np.ndarray
    values: np.ndarray
    sigmas: np.ndarray | None = None

    def __post_init__(self):
        self.steps = np.asarray(self.steps, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.sigmas is not None:
            self.sigmas = np.asarray(self.sigmas, dtype=float)
            if self.sigmas.shape != self.steps.shape:
                raise ValueError("sigmas must match steps")
            if (self.sigmas < 0).any():
                raise ValueError("sigmas must be nonnegative")
        if self.steps.shape != self.values.shape:
            raise ValueError("steps and values must match")
        if (np.diff(self.steps) <= 0).any():
            raise ValueError("steps must be strictly increasing")

    def weights(self) -> np.ndarray | None:
        if self.sigmas is not None and (self.sigmas > 0).all():
            return 1.0 / self.sigmas**2
        return None

    def __len__(self):
        return len(self.steps)


@dataclass
class FitResult:
    parameters: dict
    std_errors: dict
    converged: bool
    diagnostics: tuple = ()


def _exp_model(d, c1, gamma, c2):
    return c1 * np.exp(-gamma * d) + c2


def _linearisation(d, y, wts, theta):
    """``(r, jac, h)`` at ``theta``: the residual, its Jacobian and the weighted
    normal matrix, for the Gauss-Newton steps and the covariance alike."""
    c1, gamma, _ = theta
    e = np.exp(-gamma * d)
    jac = np.column_stack([e, -c1 * d * e, np.ones_like(d)])
    return _exp_model(d, *theta) - y, jac, jac.T @ (wts[:, None] * jac)


def fit_exp(series: DecaySeries) -> FitResult:
    """Weighted nonlinear least squares for c1 exp(-gamma d) + c2.

    Initialization: c2 from the tail mean, gamma from a log-linear slope of
    the de-offset first half, c1 from the first point.  Levenberg damping
    keeps steps stable; convergence is a relative parameter change below
    1e-9 within 500 iterations.  Non-convergence still reports parameters,
    flagged.
    """
    if len(series) < 4:
        raise ValueError("exponential fits need at least 4 points")
    d, y = series.steps, series.values
    w = series.weights()
    wts = np.ones_like(y) if w is None else w

    c2 = float(np.mean(y[-3:]))
    half = max(2, len(d) // 2)
    resid0 = np.abs(y[:half] - c2)
    good = resid0 > 1e-300
    if good.sum() >= 2:
        slope = np.polyfit(d[:half][good], np.log(resid0[good]), 1)[0]
        gamma = float(max(-slope, 1e-6))
    else:
        gamma = 1e-3
    c1 = float((y[0] - c2) / np.exp(-gamma * d[0]))

    theta = np.array([c1, gamma, c2])
    lam = 1e-3
    converged = False
    for _ in range(MAX_ITER):
        r, jac, h = _linearisation(d, y, wts, theta)
        g = jac.T @ (wts * r)
        try:
            step = np.linalg.solve(h + lam * np.diag(np.diag(h) + 1e-30), -g)
        except np.linalg.LinAlgError:
            break
        new = theta + step
        old_cost = float(np.sum(wts * r**2))
        r_new = _exp_model(d, *new) - y
        new_cost = float(np.sum(wts * r_new**2))
        if new_cost <= old_cost:
            rel = np.max(np.abs(step) / (np.abs(theta) + 1e-12))
            theta = new
            lam = max(lam / 3.0, 1e-12)
            if rel < REL_TOL:
                converged = True
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break

    c1, gamma, c2 = theta
    r, _, h = _linearisation(d, y, wts, theta)
    diagnostics = []
    try:
        cov = np.linalg.inv(h)
        if w is None:
            dof = max(len(d) - 3, 1)
            cov = cov * float(np.sum(r**2) / dof)
        errs = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        errs = np.full(3, np.nan)
        converged = False
        diagnostics.append("singular normal equations; parameters unidentifiable")

    if not np.isfinite(errs).all() or errs[1] > 1e3 * max(abs(gamma), 1e-12):
        converged = False
        diagnostics.append("decay rate unidentifiable on this series")

    return FitResult(
        {"c1": float(c1), "gamma": float(gamma), "c2": float(c2)},
        {"c1": float(errs[0]), "gamma": float(errs[1]), "c2": float(errs[2])},
        converged,
        tuple(diagnostics),
    )


def fit_early_linear(series: DecaySeries, window: int | None = None) -> FitResult:
    """Ordinary least squares of value/value(0) against d; beta is -slope."""
    if len(series) < 3:
        raise ValueError("linear fits need at least 3 points")
    v0 = series.values[0]
    if v0 == 0.0:
        raise ValueError(
            "value at the first step is zero; pick an initial state with a "
            "nonzero charge expectation"
        )
    k = len(series) if window is None else min(window, len(series))
    if k < 2:
        raise ValueError("window must keep at least 2 points")
    d = series.steps[:k]
    y = series.values[:k] / v0
    a = np.column_stack([np.ones_like(d), d])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    r = a @ coef - y
    dof = max(k - 2, 1)
    cov = np.linalg.inv(a.T @ a) * float(np.sum(r**2) / dof)
    errs = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FitResult(
        {"value0": float(v0 * coef[0]), "beta": float(-coef[1])},
        {"value0": float(abs(v0) * errs[0]), "beta": float(errs[1])},
        True,
    )


def benchmark_verdict(
    beta: float, beta_star: float, width: int, depth: int, order: int, initial_state: str
) -> dict:
    """The verdict as ``fits.json`` stores it: pass iff beta < beta_star, strictly; a tie fails."""
    return {
        "pass": beta < beta_star,
        "beta": beta,
        "beta_star": beta_star,
        "w": width,
        "d": depth,
        "n": order,
        "initial_state": initial_state,
    }
