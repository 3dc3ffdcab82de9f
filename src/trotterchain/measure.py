"""Pauli-word measurement protocol: covers and the charge estimator.

A word is a length-N string over {X, Y, Z} fixing a simultaneous measurement
basis.  A Pauli term is contained in a word when every non-identity letter
matches.  The estimator pools, for each term P, all words containing P; the
variance estimator keeps the covariances induced by that sharing, pooling
each pair (P, P') over the words containing both.  Both estimators read a
word's parity moments from one pair of matrix products (:func:`_moments`);
:func:`estimate` pools the pairs over words with ``np.unique`` and
``np.bincount``, with no loop over pairs.

Words are plain ``str``; :func:`contains` checks the letters of the word it
is given.  The estimators read :mod:`sim`'s output in plan order:
:func:`estimate` takes the ``(indices, counts)`` pairs of :func:`sim.sample`,
:func:`exact_estimator_variance` a stack of tables, one per state, each the
rows of :func:`sim.outcome_distribution`, one per plan word; the states
share one coverage and one set of parity signs.  :func:`estimate` reads each
word's shot count n_W off its counts; :func:`exact_estimator_variance` takes
the plan's ``shots_per_word``.  Basis indices ascend, site ``j`` on bit
``j-1``; no outcome is ever written as a bitstring.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .charges import PauliPolynomial
from .pauli import PauliString, letter_strings, parity_sign, word_masks


def contains(word: str, term: PauliString) -> bool:
    """True iff every non-identity letter of ``term`` matches ``word``.

    ``word`` is parsed by :func:`pauli.word_masks`: ValueError unless it is
    ``term.n_sites`` letters from X, Y, Z.  Each word's masks are memoised."""
    wx, wz = _word_mask(word, term.n_sites)
    return _contained(wx, wz, term.x_mask, term.z_mask, term.support_mask)


@functools.lru_cache(maxsize=4096)
def _word_mask(word: str, n: int) -> tuple[int, int]:
    (wx,), (wz,) = word_masks([word], n)
    return int(wx), int(wz)


@dataclass(frozen=True)
class MeasurementPlan:
    words: tuple
    shots_per_word: int


def _contained(wx, wz, x, z, s):
    """Broadcast containment test: every support letter of the term matches."""
    return (((x ^ wx) | (z ^ wz)) & s) == 0


def build_cover(charge: PauliPolynomial, delta: float) -> MeasurementPlan:
    """Sorted-insertion word cover of all charge terms, as a plan of one shot per word.

    Terms are taken in descending ``|c(delta)|``, ties in letter order, and
    each goes into the first open word whose letters agree with it on the
    sites both constrain; a term that agrees with none opens a new word
    (Crawford et al., Quantum 5, 385 (2021)).  Sites no term of a word
    constrains are completed with Z.  A term may be contained in several
    words.  Terms and open words are ``(x, z, support)`` bit masks.
    """
    if not len(charge):
        raise ValueError("cannot build a cover for an empty charge")
    n = charge.n_sites
    names = letter_strings(charge.x, charge.z, n)
    order = np.lexsort((names, -np.abs(charge.coefficients(delta))))
    wx, wz, ws = (np.zeros(len(charge), dtype=np.int64) for _ in range(3))
    m = 0
    for x, z in zip(charge.x[order].tolist(), charge.z[order].tolist()):
        fits = np.flatnonzero(_contained(x, z, wx[:m], wz[:m], ws[:m] & (x | z)))
        k = int(fits[0]) if fits.size else m
        m += not fits.size
        wx[k] |= x
        wz[k] |= z
        ws[k] |= x | z
    wz[:m] |= ~ws[:m] & ((1 << n) - 1)
    return MeasurementPlan(tuple(letter_strings(wx[:m], wz[:m], n).tolist()), 1)


def _word_cover(plan: MeasurementPlan, charge: PauliPolynomial) -> list:
    """Per plan word, the ascending indices of the charge terms it contains.

    Raises ValueError for the first word that is not N letters from X, Y, Z."""
    xs, zs = charge.x, charge.z
    wx, wz = word_masks(plan.words, charge.n_sites)
    hits = _contained(wx[:, None], wz[:, None], xs, zs, xs | zs)
    return [np.flatnonzero(row) for row in hits]


@dataclass
class ChargeEstimate:
    value: float
    std_uncertainty: float
    diagnostics: tuple = ()


class CoverageError(ValueError):
    """Some charge term is not contained in any plan word."""


def _coverage(plan: MeasurementPlan, charge: PauliPolynomial, n_w) -> tuple:
    """Per word, the ascending indices of the terms it contains; per term, its
    pooled shot count n_P (int64), the sum of the shot counts ``n_w`` (each
    >= 1, one per plan word) of the words containing it.  Raises
    :class:`CoverageError` naming up to five terms that no word contains."""
    word_cover = _word_cover(plan, charge)
    n_p = np.zeros(len(charge), dtype=np.int64)
    for cov, k in zip(word_cover, n_w):
        n_p[cov] += k
    missing = np.flatnonzero(n_p == 0)[:5]
    if missing.size:
        names = letter_strings(charge.x[missing], charge.z[missing], charge.n_sites).tolist()
        raise CoverageError(f"terms not covered by any word: {names}")
    return word_cover, n_p


def _moments(signs, weights) -> tuple:
    """``signs @ weights`` and ``(signs * weights) @ signs.T``, signs[k, i] the
    parity (-1)^|outcome i & mask of term k|: parity and cross sums for shot
    counts, <P> and <P P'> for an exact distribution.  ``weights`` may be a
    stack, one row per state: ``matmul`` makes each row the same BLAS call
    as that row alone, so each row's moments are its own bit for bit."""
    return (signs @ weights[..., None])[..., 0], (signs * weights[..., None, :]) @ signs.T


def estimate(
    outcomes: list, plan: MeasurementPlan, charge: PauliPolynomial, delta: float
) -> ChargeEstimate:
    """Charge estimate with its unbiased variance estimate.

    ``outcomes`` holds one ``(indices, counts)`` pair per plan word, in plan
    order, as :func:`sim.sample` returns them; n_W is each word's count sum,
    n_P the sum of n_W over the words containing P, n_PP' over the words
    containing both.  The value pools each term over all covering words; the
    uncertainty keeps the word-sharing covariances, skips pairs pooled over
    a single shot (their variance weight is undefined), and clamps a
    slightly negative variance at zero.  Both degeneracies are reported as
    diagnostics.  Raises ValueError for a word whose counts sum to 0 and
    :class:`CoverageError` when a term is in no plan word.
    """
    if len(outcomes) != len(plan.words):
        raise ValueError(f"{len(outcomes)} outcome pairs for {len(plan.words)} plan words")
    n_w = [int(cnt.sum()) for _, cnt in outcomes]
    if 0 in n_w:
        raise ValueError(f"outcomes of {plan.words[n_w.index(0)]} sum to 0 shots")
    n_terms = len(charge)
    coeffs = charge.coefficients(delta)
    masks = charge.x | charge.z
    word_cover, n_p = _coverage(plan, charge, n_w)

    # per word, its term pairs a <= b (the upper triangle, as cov ascends) as
    # keys a*T + b with their cross and parity sums and n_W; pooled in word order
    pairs = [(np.empty(0, np.int64),) + (np.empty(0),) * 4]
    for (idx, cnt), cov, k in zip(outcomes, word_cover, n_w):
        sums, cross = _moments(parity_sign(idx, masks[cov, None]), cnt.astype(np.float64))
        i, j = np.nonzero(cov[:, None] <= cov)
        pairs.append((cov[i] * n_terms + cov[j], cross[i, j], sums[i], sums[j], np.full(i.size, k)))
    keys, cross, sum_a, sum_b, shots = map(np.concatenate, zip(*pairs))
    keys, inv = np.unique(keys, return_inverse=True)
    cross, sum_a, sum_b, n_ab = (np.bincount(inv, v) for v in (cross, sum_a, sum_b, shots))
    a, b = np.divmod(keys, n_terms)
    # every term is covered, so its pair (a, a) holds its parity sum; Python's
    # fold in term order, as the artifacts print the value
    value = sum((coeffs * sum_a[a == b] / n_p).tolist())

    diagnostics = []
    live = n_ab > 1
    if not live.all():
        diagnostics.append(f"skipped {np.count_nonzero(~live)} term pairs with n_PP' = 1")
    a, b, n_ab, cross, sum_a, sum_b = (v[live] for v in (a, b, n_ab, cross, sum_a, sum_b))
    inner = cross - sum_a * sum_b / n_ab
    contrib = (n_ab / (n_p[a] * n_p[b])) * (coeffs[a] * coeffs[b] / (n_ab - 1)) * inner
    var = float(np.where(a == b, contrib, 2.0 * contrib).sum())
    if var < 0.0:
        diagnostics.append(f"variance estimate {var:.3e} clamped at 0")
        var = 0.0

    return ChargeEstimate(value, float(np.sqrt(var)), tuple(diagnostics))


def exact_estimator_variance(
    distributions, plan: MeasurementPlan, charge: PauliPolynomial, delta: float
) -> list:
    """Expected value and true estimator standard deviation for known states.

    ``distributions`` is a ``(states, words, outcomes)`` stack: each state's
    table holds the exact outcome distribution of each plan word, one row per
    word in plan order, as :func:`sim.outcome_distribution` returns them.
    With u = c_P / n_P over the terms a word covers, e and C its exact
    moments <P> and <P P'>, the word adds n_W u.e to the mean and
    n_W (u.C.u - (u.e)^2) to the variance, with n_W the plan's
    ``shots_per_word``; the coverage check is :func:`estimate`'s.  Useful
    for deterministic error budgets.

    Returns one ``(mean, sigma)`` pair per state.  The coverage, coefficients
    and each word's parity signs are built once for the stack, and each pair
    is bit for bit the one a stack of its table alone returns.
    """
    stack = np.asarray(distributions, dtype=float)
    if stack.ndim != 3:
        raise ValueError(f"distributions of shape {stack.shape}: want (states, words, outcomes)")
    if stack.shape[1] != len(plan.words):
        raise ValueError(f"{stack.shape[1]} distributions for {len(plan.words)} plan words")
    n_w = plan.shots_per_word
    coeffs = charge.coefficients(delta)
    idx = np.arange(1 << charge.n_sites, dtype=np.int64)
    masks = charge.x | charge.z
    word_cover, n_p = _coverage(plan, charge, [n_w] * len(plan.words))

    mean = var = np.zeros(len(stack))
    for w, cov in enumerate(word_cover):
        e, cross = _moments(parity_sign(idx, masks[cov, None]), stack[:, w])
        u = coeffs[cov] / n_p[cov]
        # one dot u.e and one u.C.u per state, each the call its table alone makes
        ue = (e[:, None, :] @ u)[:, 0]
        mean = mean + n_w * ue
        var = var + n_w * (((u @ cross)[:, None, :] @ u)[:, 0] - ue * ue)
    return [(m, float(np.sqrt(max(v, 0.0)))) for m, v in zip(mean.tolist(), var.tolist())]
