import hashlib
from functools import lru_cache
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from dense_oracle import items
from strategies import polynomials
from trotterchain import sim
from trotterchain.charges import (
    VARIANTS,
    ChargeSpec,
    PauliPolynomial,
    assemble,
    assemble_cached,
    window_density,
)
from trotterchain.circuit import InitialStateSpec, build_step
from trotterchain.measure import (
    CoverageError,
    MeasurementPlan,
    _word_cover,
    build_cover,
    contains,
    estimate,
    exact_estimator_variance,
)
from trotterchain.pauli import PauliString, word_masks

DELTA = float(np.tan(0.3))


def _letters_contain(word: str, term: str) -> bool:
    """Letter-wise definition of containment."""
    return all(t == "I" or t == w for t, w in zip(term, word))


def _reference_cover(charge: PauliPolynomial, delta: float) -> tuple:
    """Sorted insertion on per-site letter dicts: the oracle for build_cover."""
    terms = sorted((-abs(c(delta)), s.letters()) for s, c in items(charge))
    words = []
    for _, letters in terms:
        constraints = {j: ch for j, ch in enumerate(letters) if ch != "I"}
        for word in words:
            if all(word.get(j, ch) == ch for j, ch in constraints.items()):
                word.update(constraints)
                break
        else:
            words.append(constraints)
    return tuple("".join(w.get(j, "Z") for j in range(charge.n_sites)) for w in words)


def _charge(*terms):
    """A charge from (letters, constant coefficient) pairs."""
    n = len(terms[0][0])
    return PauliPolynomial.from_terms(n, [(PauliString.from_letters(t), (c,)) for t, c in terms])


def _words(n):
    return st.text(alphabet="XYZ", min_size=n, max_size=n)


def test_contains_footnote_examples():
    w = "XXZY"
    assert contains(w, PauliString.from_letters("XIZI"))  # X1 Z3
    assert contains(w, PauliString.from_letters("XXII"))  # X1 X2
    assert not contains(w, PauliString.from_letters("ZIII"))
    with pytest.raises(ValueError):
        contains(w, PauliString.from_letters("X"))


@settings(deadline=None)
@given(st.data())
def test_bitmask_containment_matches_letters(data):
    q = data.draw(polynomials())
    words = data.draw(st.lists(_words(q.n_sites), max_size=6))
    plan = MeasurementPlan(tuple(words), 1)
    letters = [s.letters() for s, _ in items(q)]
    expected = [
        [i for i, t in enumerate(letters) if _letters_contain(w, t)] for w in words
    ]
    assert [np.flatnonzero(row).tolist() for row in _word_cover(plan, q)] == expected
    for w, cov in zip(words, expected):
        assert [contains(w, s) for s, _ in items(q)] == [i in cov for i in range(len(q))]


_ASSEMBLED = st.builds(
    ChargeSpec, st.integers(1, 2), st.sampled_from(VARIANTS), st.sampled_from([6, 8])
).map(assemble_cached)


@settings(deadline=None)
@given(st.one_of(polynomials(), _ASSEMBLED), st.floats(-3.0, 3.0))
def test_cover_matches_reference_sorted_insertion(q, delta):
    # the assembled charges carry delta-dependent coefficients, so delta moves their order
    words = build_cover(q, delta).words
    assert words == _reference_cover(q, delta)
    assert all(any(contains(w, s) for w in words) for s in q.terms)


@pytest.mark.parametrize(
    "order, n_words, first, digest",
    [
        (1, 9, "XXXXXXXX", "1448f5abfb02c1ef3c5341ab579d7deaf17e33dcc18fcccdea9266bb9ae0a266"),
        (2, 90, "XZYZXYZY", "94859cc47cb220dc6685b6fb9712e77e8abadaba4b63be80fafed7ed463ad066"),
    ],
)
def test_golden_covers_n8(order, n_words, first, digest):
    # the covers behind the N=8 decay artifacts; any change alters those bytes
    words = build_cover(assemble(ChargeSpec(order, "plus", 8)), DELTA).words
    assert (len(words), words[0]) == (n_words, first)
    assert hashlib.sha256("\n".join(words).encode()).hexdigest() == digest


@pytest.mark.parametrize("order, sigma_max", [(1, 0.040661), (2, 0.1659)])
def test_cover_sigma_on_neel_n8(order, sigma_max):
    # exact sigma at 100,000 shots split evenly over the words; the bounds are
    # the values of the greedy cover that sorted insertion replaced
    q = assemble_cached(ChargeSpec(order, "plus", 8))
    words = build_cover(q, DELTA).words
    plan = MeasurementPlan(words, 100_000 // len(words))
    psi = sim.StateVector.from_spec(InitialStateSpec.neel(8))
    ((_, sd),) = exact_estimator_variance([sim.rotated_probabilities(psi, words)], plan, q, DELTA)
    assert sd <= sigma_max


def test_word_validation():
    # contains parses its word through pauli.word_masks alone: the same error
    # for an identity letter, an empty word or a word of the wrong length
    for word in ("XIZ", "", "XZ", "XYZZ"):
        with pytest.raises(ValueError, match="letters X, Y, Z only") as got:
            contains(word, PauliString.from_letters("XIZ"))
        with pytest.raises(ValueError) as want:
            word_masks([word], 3)
        assert str(got.value) == str(want.value)


def test_cover_single_term():
    q = _charge(("ZZ", 1))
    plan = build_cover(q, DELTA)
    assert plan.words == ("ZZ",)


def test_cover_of_window_density_is_exhaustive():
    q = window_density(1, "plus")  # three-site window charge
    plan = build_cover(q, DELTA)
    terms = list(q.terms)
    for s in terms:
        assert any(contains(w, s) for w in plan.words)
    # lower bound from the 27 candidate words: a word covers at most one term
    # of any pairwise-incompatible family, and the cover attains it
    words = ["".join(w) for w in iproduct("XYZ", repeat=3)]
    cover_sets = [frozenset(i for i, s in enumerate(terms) if contains(w, s)) for w in words]
    incompatible = []
    for i, s in enumerate(terms):
        if all(
            not any(i in cs and j in cs for cs in cover_sets) for j in incompatible
        ):
            incompatible.append(i)
    assert len(plan.words) == len(incompatible)


def test_cover_union_equals_term_set():
    q = assemble(ChargeSpec(1, "plus", 6))
    plan = build_cover(q, DELTA)
    covered = set()
    for s in q.terms:
        if any(contains(w, s) for w in plan.words):
            covered.add(s)
    assert covered == set(q.terms)


def test_cover_empty_charge_rejected():
    with pytest.raises(ValueError):
        build_cover(PauliPolynomial(2), DELTA)


def test_estimate_deterministic_outcome():
    q = _charge(("ZZ", 1))
    plan = MeasurementPlan(("ZZ",), 100)
    est = estimate(np.array([[100, 0, 0, 0]]), plan, q, DELTA)  # "00" on every shot
    assert est.value == 1.0
    assert est.std_uncertainty == 0.0


def test_estimate_requires_coverage_and_counts():
    q = _charge(("XX", 1))
    plan = MeasurementPlan(("ZZ",), 10)
    with pytest.raises(CoverageError, match=r"\['XX'\]"):
        estimate(np.array([[10, 0, 0, 0]]), plan, q, DELTA)
    with pytest.raises(ValueError, match="outcomes of ZZ sum to 0 shots"):
        estimate(np.zeros((1, 4), np.int64), plan, q, DELTA)
    with pytest.raises(ValueError, match=r"counts of shape \(2, 4\): want ints of \(1, 4\)"):
        estimate(np.array([[10, 0, 0, 0]] * 2), plan, PauliPolynomial(2), DELTA)
    with pytest.raises(ValueError, match=r"float64 counts"):
        estimate(np.array([[10.0, 0, 0, 0]]), plan, q, DELTA)


def test_exact_variance_names_uncovered_terms():
    q = _charge(("XX", 1))
    plan = MeasurementPlan(("ZZ",), 10)
    with pytest.raises(CoverageError, match=r"\['XX'\]"):
        exact_estimator_variance(np.array([[[1.0, 0.0, 0.0, 0.0]]]), plan, q, DELTA)
    with pytest.raises(ValueError, match="0 distributions for 1 plan words"):
        exact_estimator_variance(np.empty((1, 0, 4)), plan, q, DELTA)


def _neel_q1_n4(delta):
    """Q1+ at N=4, its cover, and the Neel state's distribution of each word."""
    q = assemble(ChargeSpec(1, "plus", 4))
    words = build_cover(q, delta).words
    psi = sim.StateVector.from_spec(InitialStateSpec.neel(4))
    return q, words, psi, sim.rotated_probabilities(psi, words)


@pytest.mark.parametrize("shots", [2.5, 0, -3, True, np.float64(3.0)])
def test_plan_rejects_a_shot_count_that_is_no_integer_at_least_one(shots):
    # 2.5 once gave an exact mean of -4.775 (n_W truncated in the coverage,
    # kept in the weights), 0 an uncovered-terms error and -3 a sigma of 0
    with pytest.raises(ValueError, match="shots_per_word must be an integer >= 1"):
        MeasurementPlan(("ZZZZ",), shots)


def test_plan_takes_numpy_integer_shots():
    q, words, _, dists = _neel_q1_n4(0.3)
    ((mean, sd),) = exact_estimator_variance([dists], MeasurementPlan(words, np.int64(3)), q, 0.3)
    assert mean == pytest.approx(-(4 / 2) * (2 - 0.3**2), abs=1e-12)
    assert sd > 0.0


def test_estimate_rejects_negative_counts():
    # one -1 entry once gave 12.18 with sigma 0 and no diagnostic
    q, words, psi, _ = _neel_q1_n4(0.3)
    plan = MeasurementPlan(words, 5)
    table = sim.sample(psi, words, [5] * len(words), [(1, wi) for wi in range(len(words))])
    table[2, 3] = -1
    with pytest.raises(ValueError, match=f"negative counts for {words[2]}"):
        estimate(table, plan, q, 0.3)


def _sample(plan, dists, seed):
    """A count table, each plan word's row drawn from its row of ``dists``."""
    return np.array(
        [sim.shot_rng(seed, wi).multinomial(plan.shots_per_word, p) for wi, p in enumerate(dists)]
    )


def test_estimator_and_variance_unbiased():
    n = 4
    q = assemble(ChargeSpec(1, "plus", n))
    plan0 = build_cover(q, DELTA)
    plan = MeasurementPlan(plan0.words, 150)
    rng = np.random.default_rng(7)
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi = sim.StateVector(n, amp / np.linalg.norm(amp))
    (exact,) = sim.exact_expectation(psi, [ChargeSpec(1, "plus", n)], DELTA)
    dists = sim.rotated_probabilities(psi, plan.words)

    reps = 500
    vals = np.empty(reps)
    s2 = np.empty(reps)
    for r in range(reps):
        est = estimate(_sample(plan, dists, 1000 + r), plan, q, DELTA)
        vals[r] = est.value
        s2[r] = est.std_uncertainty**2
    stderr = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - exact) < 4 * stderr
    assert abs(s2.mean() / vals.var(ddof=1) - 1.0) < 0.10


@lru_cache(maxsize=None)
def _cover_of(spec: ChargeSpec):
    return build_cover(assemble_cached(spec), DELTA)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_estimator_mean_is_exact_on_product_eigenstates(data):
    # the pooled estimator is unbiased: its exact mean over the sampling
    # distribution is <Q>, for every charge, state and depth drawn
    n = data.draw(st.sampled_from([4, 6, 8]))
    kinds = [(1, "plus"), (1, "minus"), (1, "dif")] + [(2, "plus")] * (n > 5)
    spec = ChargeSpec(*data.draw(st.sampled_from(kinds)), n)
    letters = data.draw(st.text("XYZ", min_size=n, max_size=n))
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    psi = sim.StateVector.from_spec(InitialStateSpec(letters, tuple(bits)))
    for _ in range(data.draw(st.integers(0, 1))):
        psi = sim.evolve_pure(build_step(n, 0.3), psi)  # DELTA = tan(0.3)
    q, plan = assemble_cached(spec), _cover_of(spec)
    dists = sim.rotated_probabilities(psi, plan.words)
    ((mean, _),) = exact_estimator_variance([dists], plan, q, DELTA)
    assert abs(mean - sim.exact_expectation(psi, [spec], DELTA)[0]) < 1e-10


def test_exact_estimator_variance_matches_empirical():
    n = 2
    q = _charge(("ZZ", 1), ("ZI", 2))
    plan = MeasurementPlan(("ZZ",), 50)
    psi = sim.StateVector.from_spec(InitialStateSpec("XX", (0, 0)))
    dists = sim.rotated_probabilities(psi, plan.words)
    ((mean, sd),) = exact_estimator_variance([dists], plan, q, DELTA)
    reps = 4000
    vals = np.empty(reps)
    for r in range(reps):
        est = estimate(_sample(plan, dists, 2000 + r), plan, q, DELTA)
        vals[r] = est.value
    assert abs(vals.mean() - mean) < 5 * vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.std(ddof=1) / sd - 1.0) < 0.1


def test_covariance_only_through_shared_words():
    n = 2
    # terms measured by disjoint word sets: variance adds, no cross term
    qa = _charge(("XI", 1))
    qb = _charge(("IZ", 1))
    qab = _charge(("XI", 1), ("IZ", 1))

    rng = np.random.default_rng(3)
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi = sim.StateVector(n, amp / np.linalg.norm(amp))

    # XI is covered by XZ only; IZ by both words: make the disjoint case
    plan_a = MeasurementPlan(("XX",), 200)
    plan_b = MeasurementPlan(("ZZ",), 200)
    dists_a = sim.rotated_probabilities(psi, plan_a.words)
    dists_b = sim.rotated_probabilities(psi, plan_b.words)
    ((_, sd_a),) = exact_estimator_variance([dists_a], plan_a, qa, DELTA)
    ((_, sd_b),) = exact_estimator_variance([dists_b], plan_b, qb, DELTA)
    both = MeasurementPlan(("XX", "ZZ"), 200)
    dists_both = np.concatenate([dists_a, dists_b])
    ((_, sd_ab),) = exact_estimator_variance([dists_both], both, qab, DELTA)
    assert sd_ab == pytest.approx(np.sqrt(sd_a**2 + sd_b**2), rel=1e-9)

    # shared-word case: covariance shifts the total away from the quadrature sum
    qzz = _charge(("ZI", 1), ("IZ", 1))
    ((_, sd_shared),) = exact_estimator_variance([dists_b], plan_b, qzz, DELTA)
    qz1 = _charge(("ZI", 1))
    ((_, sd_z1),) = exact_estimator_variance([dists_b], plan_b, qz1, DELTA)
    qz2 = _charge(("IZ", 1))
    ((_, sd_z2),) = exact_estimator_variance([dists_b], plan_b, qz2, DELTA)
    assert abs(sd_shared**2 - (sd_z1**2 + sd_z2**2)) > 1e-4


def test_single_shot_pair_skipped_with_diagnostic():
    n = 2
    q = _charge(("ZI", 1), ("IZ", 1))
    plan = MeasurementPlan(("ZZ",), 1)
    est = estimate(np.array([[0, 0, 1, 0]]), plan, q, DELTA)  # "01": site 2 reads 1
    assert any("n_PP' = 1" in d for d in est.diagnostics)
    assert est.std_uncertainty == 0.0


def test_negative_variance_clamped_with_diagnostic():
    # two shots per word leave the unbiased variance estimate negative here
    q = _charge(("IX", 2), ("XI", -1), ("ZI", -1))
    plan = MeasurementPlan(("XX", "ZX", "XZ"), 2)
    both = [1, 0, 0, 1]
    est = estimate(np.array([both, both, [2, 0, 0, 0]]), plan, q, DELTA)
    assert (est.value, est.std_uncertainty) == (-0.5, 0.0)
    assert est.diagnostics == ("variance estimate -4.167e-01 clamped at 0",)


_SMALL_ASSEMBLED = st.one_of(
    st.builds(ChargeSpec, st.just(1), st.sampled_from(VARIANTS), st.sampled_from([4, 6])),
    st.builds(ChargeSpec, st.just(2), st.sampled_from(VARIANTS), st.just(6)),
).map(assemble_cached)


def _unclamped_variance(est):
    """sigma^2, or the negative variance the clamp message reports (to 4 digits)."""
    for d in est.diagnostics:
        if d.startswith("variance estimate"):
            return float(d.split()[2])
    return est.std_uncertainty**2


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_estimators_match_pairwise_reference(data):
    # terms pool over the cover and up to three extra words; 1-4 shots drawn
    # per word make unequal words and single-shot pairs, whose skip the
    # diagnostics must report; the exact variance takes the first word's count
    q = data.draw(st.one_of(polynomials(max_terms=12), _SMALL_ASSEMBLED))
    delta = data.draw(st.floats(-3.0, 3.0))
    n = q.n_sites
    words = build_cover(q, delta).words + tuple(data.draw(st.lists(_words(n), max_size=3)))
    shots = data.draw(st.lists(st.integers(1, 4), min_size=len(words), max_size=len(words)))
    plan = MeasurementPlan(words, shots[0])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    outcomes = np.array([np.bincount(rng.integers(0, 1 << n, k), minlength=1 << n) for k in shots])
    scale = float(np.abs(q.coefficients(delta)).sum())
    tol = 1e-12 * scale**2

    got = estimate(outcomes, plan, q, delta)
    want = dense_oracle.estimate(outcomes, plan, q, delta)
    assert float.hex(got.value) == float.hex(want.value)
    assert abs(got.std_uncertainty**2 - want.std_uncertainty**2) <= tol

    def messages(est, head):
        return [d for d in est.diagnostics if d.startswith(head)]

    assert messages(got, "skipped") == messages(want, "skipped")
    if abs(_unclamped_variance(want)) > tol:
        assert messages(got, "variance") == messages(want, "variance")

    dists = rng.dirichlet(np.ones(1 << n), size=len(plan.words))
    ((mean, sd),) = exact_estimator_variance([dists], plan, q, delta)
    want_mean, want_sd = dense_oracle.exact_estimator_variance(dists, plan, q, delta)
    assert abs(mean - want_mean) <= 1e-12 * scale
    assert abs(sd**2 - want_sd**2) <= tol


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_estimate_matches_pairwise_reference_bit_for_bit(data):
    # the Walsh table's parity and cross sums are exact integers, as the
    # reference's matrix products are, and both fold their pairs in key
    # order: value, sigma and diagnostics agree bit for bit.  The plans carry
    # a word that covers no term (where one exists), repeated words, one-shot
    # words and unequal shots per word
    n = data.draw(st.integers(2, 6))
    charges = [polynomials(max_terms=12, n_sites=n)]
    if n in (4, 6):
        orders = st.sampled_from([1, 2] if n == 6 else [1])
        specs = st.builds(ChargeSpec, orders, st.sampled_from(VARIANTS), st.just(n))
        charges.append(specs.map(assemble_cached))
    q = data.draw(st.one_of(charges))
    delta = data.draw(st.floats(-3.0, 3.0))
    words = list(build_cover(q, delta).words)
    words += data.draw(st.lists(st.sampled_from(words), max_size=3))  # repeats
    every = ["".join(w) for w in iproduct("XYZ", repeat=n)]
    idle = [w for w, row in zip(every, _word_cover(MeasurementPlan(every, 1), q)) if not row.any()]
    if idle:
        words.append(data.draw(st.sampled_from(idle)))
    words = data.draw(st.permutations(words))
    plan = MeasurementPlan(tuple(words), 1)
    shots = data.draw(st.lists(st.integers(1, 6), min_size=len(words), max_size=len(words)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    counts = np.array([rng.multinomial(k, rng.dirichlet(np.ones(1 << n))) for k in shots])

    got = estimate(counts, plan, q, delta)
    want = dense_oracle.estimate(counts, plan, q, delta)
    assert float.hex(got.value) == float.hex(want.value)
    assert float.hex(got.std_uncertainty) == float.hex(want.std_uncertainty)
    assert got.diagnostics == want.diagnostics


def _float_digest(values):
    return hashlib.sha256("\n".join(float.hex(v) for v in values).encode()).hexdigest()


def test_estimates_match_pinned_digest():
    # value and sigma of estimate for three sampling seeds, then the exact
    # estimator mean and sigma, for Q2+ at N=8 after one step
    n = 8
    q = assemble(ChargeSpec(2, "plus", n))
    plan = MeasurementPlan(build_cover(q, DELTA).words, 30)
    psi = sim.StateVector.from_spec(InitialStateSpec("ZXYZZYXZ", (1, 0, 0, 1, 1, 0, 1, 0)))
    psi = sim.evolve_pure(build_step(n, 0.3), psi)  # DELTA = tan(0.3)
    values = []
    for seed in (1, 2, 3):
        keys = [(seed, wi) for wi in range(len(plan.words))]
        shots = [plan.shots_per_word] * len(plan.words)
        est = estimate(sim.sample(psi, plan.words, shots, keys), plan, q, DELTA)
        values += [est.value, est.std_uncertainty]
    assert _float_digest(values) == (
        "8b228682783fe41cd5ad7f0efa3073c1918c7160d7d644d8dbeddd91ad669c08"
    )
    dists = sim.rotated_probabilities(psi, plan.words)
    assert _float_digest(exact_estimator_variance([dists], plan, q, DELTA)[0]) == (
        "19767b4150799843d6b22695c2a20ffdac453df11ae31c12f079a0afd9f4bd59"
    )


@pytest.mark.parametrize("n, order", [(4, 1), (6, 2), (8, 2)])
def test_stacked_exact_variance_is_each_table_alone_bit_for_bit(n, order):
    # a contiguous stack, the strided fold slice cli.mitigation_table passes,
    # and a list of tables
    q = assemble(ChargeSpec(order, "plus", n))
    plan = MeasurementPlan(build_cover(q, DELTA).words, 30)
    rng = np.random.default_rng(n)
    tables = rng.dirichlet(np.ones(1 << n), size=(4, 2, len(plan.words)))
    for stack in (tables.reshape(8, len(plan.words), -1), tables[:, 1], list(tables[:, 0])):
        got = exact_estimator_variance(stack, plan, q, DELTA)
        assert len(got) == len(stack)
        for table, pair in zip(stack, got):
            (want,) = exact_estimator_variance([table], plan, q, DELTA)
            assert list(map(float.hex, pair)) == list(map(float.hex, want))
    with pytest.raises(ValueError, match="distributions for"):
        exact_estimator_variance(tables[:, 0, 1:], plan, q, DELTA)
    with pytest.raises(ValueError, match="want \\(states, words, outcomes\\)"):
        exact_estimator_variance(tables[0, 0], plan, q, DELTA)
