"""Pauli-word measurement protocol: covers and the charge estimator.

A word is a length-N string over {X, Y, Z} fixing a simultaneous measurement
basis.  A Pauli term is contained in a word when every non-identity letter
matches.  The estimator pools, for each term P, all words containing P; the
variance estimator keeps the covariances induced by that sharing, pooling
each pair (P, P') over the words containing both.

Words are plain ``str``; :func:`contains` checks the letters of the word it
is given.  The estimators read :mod:`sim`'s output in plan order:
:func:`estimate` takes the ``(indices, counts)`` pairs of :func:`sim.sample`,
:func:`exact_estimator_variance` the rows of :func:`sim.outcome_distribution`,
one per plan word.  Basis indices ascend, site ``j`` on bit ``j-1``; no
outcome is ever written as a bitstring.
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
    return [np.flatnonzero(row).tolist() for row in hits]


@dataclass
class ChargeEstimate:
    value: float
    std_uncertainty: float
    diagnostics: tuple = ()


class CoverageError(ValueError):
    """Some charge term is not contained in any plan word."""


def _coverage(plan: MeasurementPlan, charge: PauliPolynomial) -> tuple:
    """Per word, the ascending indices of the terms it contains; per term, its
    pooled shot count n_P, n_W per word containing it.  Raises
    :class:`CoverageError` naming up to five terms that no word contains."""
    word_cover = _word_cover(plan, charge)
    n_words = np.zeros(len(charge), dtype=np.int64)
    for cov in word_cover:
        n_words[cov] += 1
    missing = np.flatnonzero(n_words == 0)[:5]
    if missing.size:
        names = letter_strings(charge.x[missing], charge.z[missing], charge.n_sites).tolist()
        raise CoverageError(f"terms not covered by any word: {names}")
    return word_cover, (plan.shots_per_word * n_words).tolist()


def estimate(
    outcomes: list, plan: MeasurementPlan, charge: PauliPolynomial, delta: float
) -> ChargeEstimate:
    """Charge estimate with its unbiased variance estimate.

    ``outcomes`` holds one ``(indices, counts)`` pair per plan word, in plan
    order, as :func:`sim.sample` returns them; each word's counts sum to n_W.
    The value pools each term over all covering words; the uncertainty keeps
    the word-sharing covariances, skips pairs pooled over a single shot
    (their variance weight is undefined), and clamps a slightly negative
    variance at zero.  Both degeneracies are reported as diagnostics.
    Raises :class:`CoverageError` when a term is in no plan word.
    """
    if len(outcomes) != len(plan.words):
        raise ValueError(f"{len(outcomes)} outcome pairs for {len(plan.words)} plan words")
    for w, (_, cnt) in zip(plan.words, outcomes):
        if cnt.sum() != plan.shots_per_word:
            raise ValueError(f"outcomes of {w} do not sum to n_W")
    coeffs = charge.coefficients(delta).tolist()  # Python floats, as the artifacts print them
    n_w = plan.shots_per_word
    masks = charge.x | charge.z
    word_cover, n_p = _coverage(plan, charge)

    # per word: parity-sum vector over its covered terms and the full
    # cross-sum matrix sum_i Pi_a Pi_b, each as one matrix product
    s_p = [0.0] * len(charge)
    pair_stats: dict = {}  # (a, b) a <= b -> [word count, cross, sum_a, sum_b]
    for (idx, cnt), cov in zip(outcomes, word_cover):
        if not cov:
            continue
        cnt = cnt.astype(np.float64)
        signs = parity_sign(idx[None, :], masks[cov, None])
        sums = signs @ cnt
        cross = (signs * cnt) @ signs.T
        for i, a in enumerate(cov):
            s_p[a] += float(sums[i])
            for j in range(i, len(cov)):  # cov ascends, so (a, b) has a <= b
                b = cov[j]
                stat = pair_stats.get((a, b))
                if stat is None:  # no zero start: 0.0 + -0.0 would drop the sign
                    pair_stats[a, b] = [1, float(cross[i, j]), float(sums[i]), float(sums[j])]
                else:
                    stat[0] += 1
                    stat[1] += float(cross[i, j])
                    stat[2] += float(sums[i])
                    stat[3] += float(sums[j])
    value = sum(c * s_p[ti] / n_p[ti] for ti, c in enumerate(coeffs))

    diagnostics = []
    var = 0.0
    skipped_pairs = 0
    for (a, b), (n_words, cross, sum_a, sum_b) in pair_stats.items():
        n_ab = n_w * n_words
        if n_ab <= 1:
            skipped_pairs += 1
            continue
        inner = cross - sum_a * sum_b / n_ab
        contrib = (n_ab / (n_p[a] * n_p[b])) * (coeffs[a] * coeffs[b] / (n_ab - 1)) * inner
        var += contrib if a == b else 2.0 * contrib
    if skipped_pairs:
        diagnostics.append(f"skipped {skipped_pairs} term pairs with n_PP' = 1")
    if var < 0.0:
        diagnostics.append(f"variance estimate {var:.3e} clamped at 0")
        var = 0.0

    return ChargeEstimate(value, float(np.sqrt(var)), tuple(diagnostics))


def exact_estimator_variance(
    distributions, plan: MeasurementPlan, charge: PauliPolynomial, delta: float
) -> tuple:
    """Expected value and true estimator standard deviation for a known state.

    ``distributions`` holds the exact outcome distribution of each plan word,
    one row per word in plan order, as :func:`sim.outcome_distribution`
    returns them.  Mirrors :func:`estimate`, coverage check included,
    with expectations in place of empirical sums, in one pass over the words;
    useful for deterministic error budgets.
    """
    coeffs = charge.coefficients(delta).tolist()
    n_w = plan.shots_per_word
    if len(distributions) != len(plan.words):
        raise ValueError(f"{len(distributions)} distributions for {len(plan.words)} plan words")
    idx = np.arange(1 << charge.n_sites, dtype=np.int64)
    masks = (charge.x | charge.z).tolist()
    word_cover, n_p = _coverage(plan, charge)

    s_p = [0.0] * len(charge)
    var = 0.0
    for p, cov in zip(distributions, word_cover):
        single = [float(p @ parity_sign(idx, masks[a])) for a in cov]
        cross = {}  # symmetric in (a, b): one pass over the outcomes per unordered pair
        for i, a in enumerate(cov):
            s_p[a] += single[i]
            for b in cov[i:]:
                cross[a, b] = cross[b, a] = float(p @ parity_sign(idx, masks[a] ^ masks[b]))
        for a, e_a in zip(cov, single):
            for b, e_b in zip(cov, single):
                var += coeffs[a] * coeffs[b] * n_w * (cross[a, b] - e_a * e_b) / (n_p[a] * n_p[b])
    mean = sum(c * (s_p[ti] / (n_p[ti] // n_w)) for ti, c in enumerate(coeffs))
    return mean, float(np.sqrt(max(var, 0.0)))
