"""Pauli-word measurement protocol: covers and the charge estimator.

A word is a length-N string over {X, Y, Z} fixing a simultaneous measurement
basis.  A Pauli term is contained in a word when every non-identity letter
matches.  The estimator pools, for each term P, all words containing P; the
variance estimator keeps the covariances induced by that sharing, pooling
each pair (P, P') over the words containing both.

Words are plain ``str``; :func:`contains` checks the letters of the word it
is given.  The estimators read :mod:`sim`'s tables in plan order, one row
per plan word and one column per basis outcome: :func:`estimate` the int64
count table of :func:`sim.sample`, :func:`exact_estimator_variance` a stack
of probability tables, one per state, each as
:func:`sim.outcome_distribution` returns it.  :func:`estimate` reads each
word's shot count n_W off its row sum and makes one Walsh transform of the
table (:func:`pauli.walsh_rows`): entry [w, m] is the parity sum of mask m
over word w's shots, so a term's parity sum is read at its support mask and
a pair's cross sum at the XOR of theirs, as exact integers.  The pairs of
all words are listed in one pass over the coverage and pooled with
``np.unique`` and ``np.bincount``, with no loop over words or pairs.
:func:`exact_estimator_variance` takes the plan's ``shots_per_word``; one
Walsh transform gives each word's one-shot estimate at every outcome, and
every state's mean and variance are two elementwise products with it.  Basis
indices ascend, site ``j`` on bit ``j-1``; no outcome is ever written as a
bitstring.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .charges import PauliPolynomial
from .pauli import PauliString, letter_strings, walsh_rows, word_masks


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
    """The plan words, each read out ``shots_per_word`` times: an integer >= 1."""

    words: tuple
    shots_per_word: int

    def __post_init__(self):
        n = self.shots_per_word
        if not isinstance(n, Integral) or isinstance(n, bool) or n < 1:
            raise ValueError(f"shots_per_word must be an integer >= 1, got {n!r}")


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
    words.

    The open words are the bits of Python ints: per (site, letter) slot, the
    set of words that give that site another letter.  A term's clashes are
    the union of the slots of its letters, so the first word that agrees with
    it is the lowest bit outside them, and joining a word adds that bit to
    the two rival slots of each of its letters: a few operations per letter,
    however many words are open.
    """
    if not len(charge):
        raise ValueError("cannot build a cover for an empty charge")
    n = charge.n_sites
    names = letter_strings(charge.x, charge.z, n)
    order = np.lexsort((names, -np.abs(charge.coefficients(delta))))
    x, z = charge.x[order], charge.z[order]
    sites = np.arange(n)
    codes = ((x[:, None] >> sites) & 1) | (((z[:, None] >> sites) & 1) << 1)  # X 1, Z 2, Y 3
    # each letter's slot 3j + code - 1 at its site j, -1 off the support
    slots = np.where(codes > 0, 3 * sites + codes - 1, -1).tolist()
    rivals = [(s - s % 3 + (s + 1) % 3, s - s % 3 + (s + 2) % 3) for s in range(3 * n)]
    clash = [0] * (3 * n)
    wx, wz = [], []  # the open words' masks
    for xi, zi, row in zip(x.tolist(), z.tolist(), slots):
        row = [s for s in row if s >= 0]
        hit = 0
        for s in row:
            hit |= clash[s]
        free = ~hit & (hit + 1)  # the lowest word outside ``hit``: a new word if all clash
        k = free.bit_length() - 1
        if k == len(wx):
            wx.append(xi)
            wz.append(zi)
        else:
            wx[k] |= xi
            wz[k] |= zi
        for s in row:
            a, b = rivals[s]
            clash[a] |= free
            clash[b] |= free
    wx, wz = np.array(wx, dtype=np.int64), np.array(wz, dtype=np.int64)
    wz |= ((1 << n) - 1) & ~(wx | wz)
    return MeasurementPlan(tuple(letter_strings(wx, wz, n).tolist()), 1)


@dataclass
class ChargeEstimate:
    value: float
    std_uncertainty: float
    diagnostics: tuple = ()


class CoverageError(ValueError):
    """Some charge term is not contained in any plan word."""


def _word_cover(plan: MeasurementPlan, charge: PauliPolynomial) -> np.ndarray:
    """Which plan word contains which charge term: a boolean (words, terms) array.

    Raises ValueError for the first word that is not N letters from X, Y, Z."""
    xs, zs = charge.x, charge.z
    wx, wz = word_masks(plan.words, charge.n_sites)
    return _contained(wx[:, None], wz[:, None], xs, zs, xs | zs)


def _coverage(plan: MeasurementPlan, charge: PauliPolynomial, n_w) -> tuple:
    """The :func:`_word_cover` array, and per term its pooled shot count n_P
    (int64): the sum of the shot counts ``n_w`` (each >= 1, one per plan
    word) of the words containing it.  Raises :class:`CoverageError` naming
    up to five terms that no word contains."""
    hits = _word_cover(plan, charge)
    n_p = np.asarray(n_w, dtype=np.int64) @ hits
    missing = np.flatnonzero(n_p == 0)[:5]
    if missing.size:
        names = letter_strings(charge.x[missing], charge.z[missing], charge.n_sites).tolist()
        raise CoverageError(f"terms not covered by any word: {names}")
    return hits, n_p


def estimate(
    counts, plan: MeasurementPlan, charge: PauliPolynomial, delta: float
) -> ChargeEstimate:
    """Charge estimate with its unbiased variance estimate.

    ``counts`` is an integer table, one row per plan word in plan order and
    one column per basis outcome, as :func:`sim.sample` returns it.  n_W is
    a row's sum, n_P the sum of n_W over the words containing P, n_PP' over
    the words containing both.  The value pools each term over all covering
    words; the uncertainty keeps the word-sharing covariances, skips pairs
    pooled over a single shot (their variance weight is undefined), and
    clamps a slightly negative variance at zero.  Both degeneracies are
    reported as diagnostics.  Every parity and cross sum is read off one
    Walsh transform of the table, as exact integers (see the module
    docstring).  Raises ValueError for a table of another shape or a
    non-integer dtype, a negative count, or a row that sums to 0, and
    :class:`CoverageError` when a term is in no plan word.
    """
    table = np.asarray(counts)
    shape = (len(plan.words), 1 << charge.n_sites)
    if table.shape != shape or table.dtype.kind not in "iu":
        raise ValueError(f"{table.dtype} counts of shape {table.shape}: want ints of {shape}")
    negative = (table < 0).any(axis=1)
    if negative.any():
        raise ValueError(f"negative counts for {plan.words[int(np.argmax(negative))]}")
    n_w = table.sum(axis=1, dtype=np.int64)
    if not n_w.all():
        raise ValueError(f"outcomes of {plan.words[int(np.argmin(n_w != 0))]} sum to 0 shots")
    n_terms = len(charge)
    coeffs = charge.coefficients(delta)
    masks = charge.x | charge.z
    hits, n_p = _coverage(plan, charge, n_w)
    # walsh[w, m] = sum_b (-1)^|b & m| counts[w, b], an integer no larger than the row's n_W
    walsh = walsh_rows(table.astype(np.int64), np.empty(shape, dtype=np.int64))

    # the coverage's (word, term) entries, word by word, terms ascending; entry
    # e pairs with itself and the later entries of its word, so every word
    # lists its pairs a <= b, keyed a*T + b, in word order
    word, term = np.nonzero(hits)
    reps = np.cumsum(hits.sum(axis=1))[word] - np.arange(len(term))
    first = np.repeat(np.arange(len(term)), reps)
    second = first + np.arange(len(first)) - np.repeat(np.cumsum(reps) - reps, reps)
    sums = walsh[word, masks[term]]
    a, b, word = term[first], term[second], word[first]
    keys, inv = np.unique(a * n_terms + b, return_inverse=True)
    cross, sum_a, sum_b, n_ab = (
        np.bincount(inv, v)
        for v in (walsh[word, masks[a] ^ masks[b]], sums[first], sums[second], n_w[word])
    )
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
    Each shot of word W adds its one-shot estimate
    O_W(b) = sum_P (c_P / n_P) (-1)^|b & mask_P| over the terms W covers, so
    the word adds n_W E[O_W] to the mean and n_W Var(O_W) to the variance,
    with n_W the plan's ``shots_per_word`` and both moments exact under the
    word's distribution; the coverage check is :func:`estimate`'s.  Useful
    for deterministic error budgets.

    Returns one ``(mean, sigma)`` pair per state.  The table of one-shot
    estimates, (words, outcomes), is one Walsh transform built once for the
    stack, and each pair is bit for bit the one a stack of its table alone
    returns.
    """
    stack = np.asarray(distributions, dtype=float)
    if stack.ndim != 3:
        raise ValueError(f"distributions of shape {stack.shape}: want (states, words, outcomes)")
    if stack.shape[1] != len(plan.words):
        raise ValueError(f"{stack.shape[1]} distributions for {len(plan.words)} plan words")
    n_w = plan.shots_per_word
    hits, n_p = _coverage(plan, charge, [n_w] * len(plan.words))
    word, term = np.nonzero(hits)
    # c_P / n_P at each term's mask in its word's row, then one_shot[w, b] = O_w(b)
    one_shot = np.zeros((len(plan.words), 1 << charge.n_sites))
    # no two terms of a word share a support mask: a word fixes the letter on each site
    one_shot[word, (charge.x | charge.z)[term]] = (charge.coefficients(delta) / n_p)[term]
    one_shot = walsh_rows(one_shot, np.empty_like(one_shot))
    weighted = stack * one_shot
    e, e2 = weighted.sum(axis=-1), (weighted * one_shot).sum(axis=-1)
    mean, var = n_w * e.sum(axis=1), n_w * (e2 - e * e).sum(axis=1)
    return [(m, float(np.sqrt(max(v, 0.0)))) for m, v in zip(mean.tolist(), var.tolist())]
