import functools
import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from dense_oracle import DeltaPoly, coefficient, items, matrix, mul, pauli_expectation_statevector
from trotterchain import charges
from trotterchain.charges import (
    VARIANTS,
    ChargeSpec,
    GaugeError,
    PauliPolynomial,
    _packed_monomials,
    assemble,
    assemble_cached,
    boost_step,
    dot_cross,
    periodic_density,
    r_check,
    step_unitary,
    to_matrix,
    transfer_matrix,
    window_density,
)
from strategies import term_lists
from trotterchain.pauli import CODE_LETTERS, LETTER_CODES, PauliString, key, rotations

DELTA = float(np.tan(0.3))

# sha256 of json.dumps([window_density(k, "plus").to_dict(k, "plus") for k in 1..5],
# sort_keys=True), the digest the benchmark's conserve-pure check compares with
WINDOW_DENSITY_SHA256 = "a2f8ecb69c64a2a5971d83d2f9687367cfd0eba4477ac667d1953073fdc498f2"


def build_window(n_sites, groups):
    """Window density from {delta_power: [(coeff, sites), ...]} dot/cross data."""
    terms = []
    for m, entries in groups.items():
        for coeff, sites in entries:
            for operands, c in dot_cross(len(sites)):
                letters = ["I"] * n_sites
                for site, ax in zip(sites, operands):
                    letters[site - 1] = ax
                string = PauliString.from_letters("".join(letters))
                terms.append((string, DeltaPoly.delta_power(m, coeff * c).coeffs))
    return PauliPolynomial.from_terms(n_sites, terms)


# ---------------------------------------------------------------------------
# DeltaPoly
# ---------------------------------------------------------------------------


def test_delta_poly_arithmetic():
    p = DeltaPoly((1, 2)) * DeltaPoly((0, 1))  # (1 + 2d) d
    assert p.coeffs == (0, 1, 2)
    assert (p - p).is_zero()
    assert p.shift(2).coeffs == (0, 0, 0, 1, 2)
    assert p.divexact_delta().coeffs == (1, 2)
    assert DeltaPoly((0, 0, 3)).divexact_delta().coeffs == (0, 3)
    with pytest.raises(ValueError):
        DeltaPoly((1, 1)).divexact_delta()
    assert DeltaPoly((1, 0, 0)).coeffs == (1,)  # trailing zeros trimmed
    assert DeltaPoly((2, -1))(0.5) == 1.5


# ---------------------------------------------------------------------------
# golden densities and boost matches
# ---------------------------------------------------------------------------


def test_density_order1_coefficients():
    q = window_density(1, "plus")
    assert coefficient(q, PauliString.from_letters("ZZI")) == DeltaPoly((1,))
    # expanding sigma_1.(sigma_2 x sigma_3) gives X1 Y2 Z3 with weight +1
    assert coefficient(q, PauliString.from_letters("XYZ")) == DeltaPoly((0, -1))
    # the quadratic piece couples the window edges (the middle-bond variant
    # fails conservation; see test_assembled_charges_are_conserved)
    assert coefficient(q, PauliString.from_letters("ZIZ")) == DeltaPoly((0, 0, 1))
    minus = window_density(1, "minus")
    assert coefficient(minus, PauliString.from_letters("XYZ")) == DeltaPoly((0, 1))


def test_density_plus_minus_agree_at_zero():
    plus = {s: p(0.0) for s, p in items(window_density(1, "plus")) if p(0.0)}
    minus = {s: p(0.0) for s, p in items(window_density(1, "minus")) if p(0.0)}
    assert plus == minus


def _dense_dot_cross(n_sites, sites):
    """sigma_{s1} . (sigma_{s2} x (... x sigma_{sk})) from Pauli matrices and eps_{abc}."""

    def sigma(site):
        rows = ["".join(ax if j == site else "I" for j in range(1, n_sites + 1)) for ax in "XYZ"]
        return [matrix(PauliString.from_letters(row)) for row in rows]

    def eps(a, b, c):
        return (a - b) * (b - c) * (c - a) // 2

    vec = sigma(sites[-1])
    for site in reversed(sites[1:-1]):
        left = sigma(site)
        vec = [
            sum(eps(a, b, c) * left[a] @ vec[b] for a in range(3) for b in range(3))
            for c in range(3)
        ]
    return sum(left @ right for left, right in zip(sigma(sites[0]), vec))


def test_dot_cross_matches_dense_levi_civita_product():
    for k in range(2, 6):
        sites = tuple(range(1, k + 1))
        want = _dense_dot_cross(k, sites)
        assert not np.allclose(want, 0)
        monomials = _packed_monomials([(1, 0, sites)])
        got = sum(c * matrix(PauliString(k, x, z)) for x, z, _, c in monomials)
        assert np.abs(got - want).max() < 1e-12
        assert len(monomials) == len(dot_cross(k)) and dot_cross(k) is dot_cross(k)
    # one table entry, on sites that skip one, at a nonzero delta power
    c, m, sites = entry = (-1, 2, (2, 3, 5))
    assert (c, sites) in Q2_REFERENCE_GROUPS[m]
    rows = _packed_monomials([entry])
    terms = [(PauliString(5, x, z), DeltaPoly.delta_power(p, s).coeffs) for x, z, p, s in rows]
    got = to_matrix(PauliPolynomial.from_terms(5, terms), DELTA)
    assert np.abs(got - c * DELTA**m * _dense_dot_cross(5, sites)).max() < 1e-12


def test_boost_matches_reference_order2():
    for variant in ("plus", "minus"):
        want = q2_reference(variant)
        assert boost_step(window_density(1, variant), 1, variant) == want
        assert window_density(2, variant) == want


def test_boosted_order2_at_zero_has_only_triples():
    q2 = boost_step(window_density(1, "plus"), 1, "plus")
    at_zero = {s: p(0.0) for s, p in items(q2) if p(0.0)}
    assert at_zero  # nonempty
    for s in at_zero:
        assert (s.x_mask | s.z_mask).bit_count() == 3


# The plus window density of order 2 as {delta_power: [(coeff, sites), ...]}
Q2_REFERENCE_GROUPS = {
    0: [(-1, (3, 4, 5)), (-1, (2, 3, 4))],
    1: [(-2, (3, 4)), (-2, (4, 5)), (2, (3, 5)), (1, (2, 3, 4, 5)), (1, (1, 2, 3, 4))],
    2: [(1, (3, 4, 5)), (-1, (2, 3, 5)), (-1, (1, 3, 4)), (-1, (1, 2, 3, 4, 5))],
    3: [(1, (1, 3, 4, 5)), (1, (1, 2, 3, 5))],
    4: [(-1, (1, 3, 5))],
}


def q2_reference(variant):
    """The order-2 golden density; the minus variant takes c (-1)^m."""
    sign = {"plus": 1, "minus": -1}[variant]
    groups = {m: [(c * sign**m, s) for c, s in e] for m, e in Q2_REFERENCE_GROUPS.items()}
    return build_window(5, groups)


Q3_REFERENCE_GROUPS = {
    0: [(-4, (6, 7)), (2, (5, 7)), (-4, (5, 6)), (2, (4, 6)), (2, (4, 5, 6, 7)), (2, (3, 4, 5, 6))],
    1: [
        (10, (5, 6, 7)),
        (-2, (4, 6, 7)),
        (-4, (4, 5, 7)),
        (8, (4, 5, 6)),
        (-4, (3, 5, 6)),
        (-2, (3, 4, 6)),
        (-4, (3, 4, 5, 6, 7)),
        (-2, (2, 3, 4, 5, 6)),
    ],
    2: [
        (2, (6, 7)),
        (-10, (5, 7)),
        (2, (5, 6)),
        (2, (4, 7)),
        (2, (4, 6)),
        (2, (3, 6)),
        (-6, (4, 5, 6, 7)),
        (6, (3, 5, 6, 7)),
        (2, (3, 4, 6, 7)),
        (6, (3, 4, 5, 7)),
        (-6, (3, 4, 5, 6)),
        (2, (2, 3, 5, 6)),
        (2, (2, 3, 4, 5, 6, 7)),
        (2, (1, 2, 3, 4, 5, 6)),
    ],
    3: [
        (6, (5, 6, 7)),
        (-2, (4, 6, 7)),
        (4, (4, 5, 7)),
        (-2, (3, 6, 7)),
        (-8, (3, 5, 7)),
        (-2, (3, 4, 6)),
        (4, (3, 5, 6)),
        (-2, (3, 4, 7)),
        (4, (3, 4, 5, 6, 7)),
        (-2, (2, 3, 5, 6, 7)),
        (-2, (2, 3, 4, 5, 7)),
        (-2, (1, 3, 4, 5, 6)),
        (-2, (1, 2, 3, 5, 6)),
        (-2, (1, 2, 3, 4, 5, 6, 7)),
    ],
    4: [
        (-2, (6, 7)),
        (-8, (5, 7)),
        (-2, (5, 6)),
        (2, (4, 7)),
        (2, (3, 6)),
        (2, (3, 7)),
        (-2, (3, 5, 6, 7)),
        (2, (3, 4, 6, 7)),
        (-2, (3, 4, 5, 7)),
        (2, (2, 3, 5, 7)),
        (2, (1, 3, 5, 6)),
        (2, (1, 3, 4, 5, 6, 7)),
        (2, (1, 2, 3, 5, 6, 7)),
        (2, (1, 2, 3, 4, 5, 7)),
    ],
    5: [
        (4, (5, 6, 7)),
        (-2, (3, 6, 7)),
        (-2, (3, 4, 7)),
        (-2, (1, 3, 5, 6, 7)),
        (-2, (1, 3, 4, 5, 7)),
        (-2, (1, 2, 3, 5, 7)),
    ],
    6: [(-4, (5, 7)), (2, (3, 7)), (2, (1, 3, 5, 7))],
}


def test_boost_matches_reference_order3():
    got = boost_step(q2_reference("plus"), 2, "plus")
    want = build_window(7, Q3_REFERENCE_GROUPS)
    assert got == want
    # the leading flat part starts -4 s6.s7 + 2 s5.s7 - 4 s5.s6 ...
    assert coefficient(got, PauliString.from_letters("IIIIIZZ")).coeffs[0] == -4
    assert coefficient(got, PauliString.from_letters("IIIIZIZ")).coeffs[0] == 2


def test_boost_rejects_nonconserved_input():
    bad = PauliPolynomial.from_terms(3, [(PauliString.from_letters("ZZI"), (1,))])
    with pytest.raises(GaugeError):
        boost_step(bad, 1, "plus")
    # ZZI alone already fails the letter-invariance check; its whole letter
    # orbit passes it and reaches the collapse obstruction of the boost
    orbit = [(PauliString.from_letters(w), (1,)) for w in ("ZZI", "XXI", "YYI")]
    with pytest.raises(GaugeError, match="weight-sum"):
        boost_step(PauliPolynomial.from_terms(3, orbit), 1, "plus")


def test_boost_rejects_input_that_is_not_letter_invariant():
    q = window_density(2, "plus")
    off_by_one = q.coeffs.copy()
    off_by_one[0, -1] += 1
    zzz = PauliString.from_letters("IIZZZ")  # an invariant density gives it 0
    bad = [
        PauliPolynomial.from_arrays(5, q.x, q.z, off_by_one),
        PauliPolynomial.from_arrays(5, q.x[1:], q.z[1:], q.coeffs[1:]),  # one image missing
        PauliPolynomial.from_terms(5, [(s, p.coeffs) for s, p in items(q)] + [(zzz, (1,))]),
    ]
    for poly in bad:
        with pytest.raises(GaugeError, match="letter maps"):
            boost_step(poly, 2, "plus")
    # an orbit's row that the orbit's size does not divide: ZZ, its orbit XX, YY, ZZ
    with pytest.raises(GaugeError, match="divisible"):
        charges._expand(2, np.array([0]), np.array([3]), np.array([[4]]))


# ---------------------------------------------------------------------------
# reference boost: the dict-of-DeltaPoly recursion the packed one replaced
# ---------------------------------------------------------------------------

# A local term on the infinite chain: (start, letters) where ``letters`` is a
# tuple over {1, 2, 3} = X, Z, Y codes with nonzero first and last entries
# (identities inside are allowed as 0) and ``start`` is the absolute site of
# the first entry.


def _local_from_window(poly, offset):
    terms = {}
    for s, p in items(poly):
        codes = [LETTER_CODES[ch] for ch in s.letters()]
        lo = next(i for i, c in enumerate(codes) if c)
        hi = max(i for i, c in enumerate(codes) if c)
        key = (offset + lo, tuple(codes[lo : hi + 1]))
        terms[key] = terms.get(key, DeltaPoly()) + p
    return {k: v for k, v in terms.items() if not v.is_zero()}


def _string_on(span_lo, span_n, start, codes):
    x = z = 0
    for i, c in enumerate(codes):
        j = start - span_lo + i
        x |= (c & 1) << j
        z |= (c >> 1) << j
    return PauliString(span_n, x, z, 0)


def _half_i_commutator(b_start, b_codes, t_start, t_codes):
    """(i/2) [b, t] for two local Pauli monomials, or None when they commute."""
    b_end = b_start + len(b_codes) - 1
    t_end = t_start + len(t_codes) - 1
    if b_end < t_start or t_end < b_start:
        return None
    lo = min(b_start, t_start)
    n = max(b_end, t_end) - lo + 1
    bs = _string_on(lo, n, b_start, b_codes)
    ts = _string_on(lo, n, t_start, t_codes)
    prod = mul(bs, ts)
    k = prod.phase_power
    if k % 2 == 0:  # a real phase: the Hermitian pair commutes
        return None
    sign = 1 if (k + 1) % 4 == 0 else -1
    codes = [((prod.x_mask >> j) & 1) | (((prod.z_mask >> j) & 1) << 1) for j in range(n)]
    i0 = next(i for i, c in enumerate(codes) if c)
    i1 = max(i for i, c in enumerate(codes) if c)
    return lo + i0, tuple(codes[i0 : i1 + 1]), sign


def _reference_boost_monomials():
    out = []
    for sites, m, c in [
        ((0, 1), 0, 1),
        ((2, 3), 0, 1),
        ((1, 2), 0, 2),
        ((1, 3), 2, 1),
        ((0, 2), 2, 1),
        ((0, 1, 2), 1, 1),
        ((1, 2, 3), 1, -1),
    ]:
        for operands, coeff in dot_cross(len(sites)):
            codes = [0, 0, 0, 0]
            for site, ax in zip(sites, operands):
                codes[site] = LETTER_CODES[ax]
            lo = next(i for i, v in enumerate(codes) if v)
            hi = max(i for i, v in enumerate(codes) if v)
            out.append((lo, tuple(codes[lo : hi + 1]), m, c * coeff))
    return out


def _reference_boost_step(q_n, order, variant="plus"):
    """One boost rung on tuple-keyed dicts of DeltaPoly, term by term."""
    if q_n.n_sites != 2 * order + 1:
        raise ValueError("density window does not match its order")
    offset = 0 if variant == "plus" else 1
    local = _local_from_window(q_n, offset)
    in_lo, in_hi = offset, offset + 2 * order

    r_acc: dict = {}
    c_acc: dict = {}

    def bump(acc, key, poly):
        new = acc.get(key, DeltaPoly()) + poly
        if new.is_zero():
            acc.pop(key, None)
        else:
            acc[key] = new

    for (t_start, t_codes), t_poly in local.items():
        for l in range((in_lo - 3) // 2, (in_hi + 3) // 2 + 3):
            for b_off, b_codes, m, c in _reference_boost_monomials():
                res = _half_i_commutator(2 * l - 3 + b_off, b_codes, t_start, t_codes)
                if res is None:
                    continue
                start, codes, sign = res
                poly = t_poly.shift(m) * (sign * c)
                bump(r_acc, (start, codes), poly * l)
                bump(c_acc, (start, codes), poly)

    out_hi = offset + 2 * order + 2

    def canonical_shift(start, codes):
        end = start + len(codes) - 1
        target = out_hi - 1 if (out_hi - 1 - end) % 2 == 0 else out_hi
        return (target - end) // 2

    collapsed: dict = {}
    obstruction: dict = {}
    for (start, codes), poly in r_acc.items():
        bump(collapsed, (start + 2 * canonical_shift(start, codes), codes), poly)
    for (start, codes), poly in c_acc.items():
        m2 = canonical_shift(start, codes)
        key = (start + 2 * m2, codes)
        bump(obstruction, key, poly)
        if m2:
            bump(collapsed, key, poly * m2)
    if obstruction:
        raise GaugeError(f"{len(obstruction)} orbits with nonzero weight-sum")

    terms = []
    for (start, codes), poly in collapsed.items():
        if start < offset or start + len(codes) - 1 > out_hi:
            raise GaugeError("collapsed term does not fit the gauge window")
        letters = ["I"] * (2 * order + 3)
        for i, v in enumerate(codes):
            if v:
                letters[start - offset + i] = CODE_LETTERS[v]
        terms.append((PauliString.from_letters("".join(letters)), poly.coeffs))
    return PauliPolynomial.from_terms(2 * order + 3, terms)


@functools.cache
def _reference_boost_of_density(order, variant):
    return _reference_boost_step(window_density(order, variant), order, variant)


def _scaled(q, scale):
    return PauliPolynomial.from_terms(q.n_sites, [(s, (p * scale).coeffs) for s, p in items(q)])


_SCALES = st.builds(
    DeltaPoly, st.lists(st.integers(-5, 5), min_size=1, max_size=3).filter(any)
)


# ``block`` (if set) shrinks the segment sums' block to that many positions,
# so runs of equal keys, and with them the obstructions, cross block edges
_BLOCKS = st.sampled_from([None, 1, 2, 7])


@settings(deadline=None, max_examples=12)
@given(st.integers(1, 3), st.sampled_from(["plus", "minus"]), _SCALES, _BLOCKS)
def test_packed_boost_matches_reference(order, variant, scale, block):
    # the boost is linear: the reference runs once per (order, variant)
    with mock.patch.object(charges, "_BLOCK", block or charges._BLOCK):
        got = boost_step(_scaled(window_density(order, variant), scale), order, variant)
        want = _scaled(_reference_boost_of_density(order, variant), scale)
    assert got == want


@settings(deadline=None, max_examples=15)
@given(st.integers(1, 2), st.sampled_from(["plus", "minus"]), _BLOCKS, st.data())
def test_perturbed_density_is_rejected_by_both_boosts(order, variant, block, data):
    q = window_density(order, variant)
    string = data.draw(st.sampled_from([s for s, _ in items(q)]))
    power = data.draw(st.integers(0, 3))
    coeff = data.draw(st.sampled_from([-2, -1, 1, 2]))
    terms = [(s, p.coeffs) for s, p in items(q)]
    one_string = PauliPolynomial.from_terms(
        q.n_sites, terms + [(string, DeltaPoly.delta_power(power, coeff).coeffs)]
    )
    # the string's whole letter orbit, each image with its sign: still
    # invariant, so only the collapse obstruction can reject it
    images, _ = signed_letter_orbit(string.x_mask, string.z_mask)
    orbit = [
        (PauliString(q.n_sites, x, z), DeltaPoly.delta_power(power, coeff * sign).coeffs)
        for (x, z), sign in images.items()
    ]
    whole_orbit = PauliPolynomial.from_terms(q.n_sites, terms + orbit)
    assert letter_map_failures(whole_orbit, window_key(q.n_sites)) == []
    for bad, reason in [(one_string, None), (whole_orbit, "weight-sum")]:
        with mock.patch.object(charges, "_BLOCK", block or charges._BLOCK):
            with pytest.raises(GaugeError, match=reason):
                boost_step(bad, order, variant)
        with pytest.raises(GaugeError, match=reason):
            _reference_boost_step(bad, order, variant)


def _unique_sums(keys, rows):
    """The oracle of a segment sum: distinct sorted keys and each one's rows added by np.add.at."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    sums = np.zeros((len(distinct), rows.shape[-1]), dtype=np.int64)
    np.add.at(sums, inverse, rows)
    return distinct, sums


@pytest.mark.parametrize("block", [1, 2, 7])
def test_segment_sums_add_unsorted_keys_by_original_position(block):
    rng = np.random.default_rng(block)
    keys = rng.integers(0, 9, 40)  # unsorted, every key repeated
    rows = rng.integers(-50, 50, (40, 3))
    calls = []

    def rows_of(i):
        calls.append(i)
        return rows[i]

    with mock.patch.object(charges, "_BLOCK", block):
        runs, blocks = charges._segment_sums(keys, rows_of)
        blocks = list(blocks)
    want_keys, want = _unique_sums(keys, rows)
    assert runs == len(want_keys)
    assert np.array_equal(np.concatenate([k for k, _ in blocks]), want_keys)
    assert np.array_equal(np.concatenate([s for _, s in blocks]), want)
    # rows_of sees each original position once, in key order, and a block
    # holds at least ``block`` positions unless it is the last one
    positions = np.concatenate(calls)
    assert np.array_equal(np.sort(positions), np.arange(len(keys)))
    assert np.all(np.diff(keys[positions]) >= 0)
    assert all(len(i) >= block for i in calls[:-1])


@pytest.mark.parametrize("block", [1, 2, 7])
def test_segment_sums_broadcast_rows_over_a_leading_key_axis(block):
    # the form of assemble and from_terms: keys (W, T), one row per column t
    rng = np.random.default_rng(10 + block)
    keys = rng.integers(0, 12, (4, 10))
    rows = rng.integers(-9, 9, (10, 2))
    with mock.patch.object(charges, "_BLOCK", block):
        blocks = list(charges._segment_sums(keys.ravel(), lambda i: rows[i % len(rows)])[1])
        summed = charges._sum_rows(keys, rows)
    want_keys, want = _unique_sums(keys.ravel(), np.tile(rows, (4, 1)))
    assert np.array_equal(np.concatenate([k for k, _ in blocks]), want_keys)
    assert np.array_equal(np.concatenate([s for _, s in blocks]), want)
    assert np.array_equal(summed[0], want_keys) and np.array_equal(summed[1], want)


@pytest.mark.parametrize("order", [True, 2.0, 1.5, "2"])
def test_window_density_rejects_orders_that_are_not_integers(order):
    for k in (1, 2):  # memoized int orders must not answer for True or 2.0
        window_density(k, "plus")
    with pytest.raises(ValueError, match="order must be an integer >= 1"):
        window_density(order, "plus")


def test_window_densities_match_pinned_digest():
    docs = [window_density(k, "plus").to_dict(k, "plus") for k in range(1, 6)]
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == WINDOW_DENSITY_SHA256


def test_order6_density_term_count():
    assert len(window_density(6, "plus")) == 199311


def test_boost_bound_check_rejects_coefficients_near_int64_limit():
    big = _scaled(window_density(1, "plus"), 1 << 62)
    with pytest.raises(OverflowError):
        boost_step(big, 1, "plus")
    with pytest.raises(OverflowError):
        boost_step(_scaled(window_density(1, "plus"), 1 << 64), 1, "plus")


def test_term_count_grows_with_order():
    counts = [len(window_density(n, "plus")) for n in (1, 2, 3)]
    assert counts[0] < counts[1] < counts[2]


def test_gauge_no_identity_on_last_two_sites():
    for n in (1, 2, 3):
        q = window_density(n, "plus")
        for s in q.terms:
            assert any(s.letters()[j - 1] != "I" for j in (2 * n, 2 * n + 1))


# ---------------------------------------------------------------------------
# SU(2) invariance: letter maps of global spin rotations
# ---------------------------------------------------------------------------

# Each map takes the masks of a string to the masks of its image and the
# image's sign; both are site by site, so they commute with translations.
LETTER_MAPS = {
    # X -> Y -> Z -> X
    "cyclic": lambda x, z: (x ^ z, x, 1),
    # X <-> Y, Z -> -Z
    "swap_xy": lambda x, z: (x, z ^ x, (-1) ** np.bitwise_count(z & ~x).astype(np.int64)),
}


def signed_letter_orbit(x: int, z: int):
    """The images of one string under the group that ``LETTER_MAPS`` generate,
    as {(x, z): sign}, and whether some image arose with both signs (then a
    rotation sends the string to minus itself)."""
    seen, frontier, conflict = {(x, z): 1}, [(x, z)], False
    while frontier:
        here = frontier.pop()
        for letter_map in LETTER_MAPS.values():
            ix, iz, s = letter_map(np.int64(here[0]), np.int64(here[1]))
            image, sign = (int(ix), int(iz)), seen[here] * int(s)
            if image not in seen:
                seen[image] = sign
                frontier.append(image)
            conflict |= seen[image] != sign
    return seen, conflict


def letter_map_failures(q, canonical) -> list:
    """The letter maps that do not send ``q`` to itself, row for row, once
    each image string is re-keyed by ``canonical(x, z)`` and re-sorted."""
    failures = []
    for name, letter_map in LETTER_MAPS.items():
        x, z, sign = letter_map(q.x, q.z)
        keys = canonical(x, z)
        order = np.argsort(keys)
        image = (q.coeffs * np.broadcast_to(sign, keys.shape)[:, None])[order]
        same_keys = np.array_equal(keys[order], canonical(q.x, q.z))
        if not (same_keys and np.array_equal(image, q.coeffs)):
            failures.append(name)
    return failures


def window_key(n_sites):
    return lambda x, z: key(x, z, n_sites)


def orbit_key(n_sites):
    """The smallest key among the N/2 two-site rotations of each string."""
    return lambda x, z: key(rotations(x, n_sites), rotations(z, n_sites), n_sites).min(axis=0)


@pytest.mark.parametrize("variant", ["plus", "minus"])
def test_window_densities_are_su2_invariant(variant):
    for order in range(1, 7):
        q = window_density(order, variant)
        assert letter_map_failures(q, window_key(q.n_sites)) == [], order


def test_periodic_densities_are_su2_invariant():
    n = 14
    for spec in [ChargeSpec(o, v, n) for o in range(1, (n - 2) // 2 + 1) for v in VARIANTS]:
        assert letter_map_failures(periodic_density(spec), orbit_key(n)) == [], spec


def test_one_coefficient_off_by_one_breaks_su2_invariance():
    q = window_density(2, "minus")
    spec = ChargeSpec(2, "dif", 8)
    d = periodic_density(spec)
    for poly, canonical in [(q, window_key(q.n_sites)), (d, orbit_key(spec.n_sites))]:
        for row in range(len(poly)):
            coeffs = poly.coeffs.copy()
            coeffs[row, -1] += 1
            bad = PauliPolynomial.from_arrays(poly.n_sites, poly.x, poly.z, coeffs)
            assert letter_map_failures(bad, canonical), row


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assemble_window_count():
    q = assemble(ChargeSpec(1, "plus", 4))
    # two windows; the delta^2 edge terms of both land on the same strings
    terms = []
    win = window_density(1, "plus")
    for start in (2, 4):  # chain positions of window site 1, distance two apart
        for s, p in items(win):
            letters = ["I"] * 4
            for w, ch in enumerate(s.letters(), 1):
                if ch != "I":
                    letters[(start - 1 + w - 1) % 4] = ch
            terms.append((PauliString.from_letters("".join(letters)), p.coeffs))
    assert q == PauliPolynomial.from_terms(4, terms)
    # both windows park their quadratic edge term on sites {2, 4}
    assert coefficient(q, PauliString.from_letters("IZIZ")) == DeltaPoly((0, 0, 2))


@pytest.mark.parametrize("n_sites", range(4, 15, 2))
def test_periodic_density_sums_to_the_window_sum(n_sites):
    # Sum_j R^(2j) periodic_density(spec) == assemble(spec) == every window
    # placement of the window density, integer for integer.  The density holds
    # one string per orbit, at the orbit's smallest key.  Order 6 at N=14
    # (1.4-2.5 M assembled terms, about 1 GB to build both sides) is compared
    # on those smallest keys only, where the rotation sum is the density times
    # the number of rotations that fix the string.
    n = n_sites
    for spec in [ChargeSpec(o, v, n) for o in range(1, (n - 2) // 2 + 1) for v in VARIANTS]:
        d = periodic_density(spec)
        keys = d.x << n | d.z
        rotated = rotations(d.x, n) << n | rotations(d.z, n)
        assert np.array_equal(keys, rotated.min(axis=0)), spec
        if spec.order < 6:
            assert assemble(spec) == dense_oracle.window_sum(spec), spec
        else:
            fixed = (rotated == keys).sum(axis=0)
            want = PauliPolynomial.from_arrays(n, d.x, d.z, d.coeffs * fixed[:, None])
            assert dense_oracle.window_sum(spec, orbit_keys_only=True) == want, spec


def _expanded_periodic_density(spec):
    """The route that periodic_density replaced: expand each window density,
    key every term by the smallest of its N/2 two-site rotations, sum once."""
    n = spec.n_sites
    variants = ("plus", "minus") if spec.variant == "dif" else (spec.variant,)
    keys, rows = [], []
    for v in variants:
        q = charges._expand(2 * spec.order + 1, *charges._window_orbits(spec.order, v))
        shift = 1 if v == "plus" else 0
        keys.append(key(rotations(q.x << shift, n), rotations(q.z << shift, n), n).min(axis=0))
        rows.append(-q.coeffs if spec.variant == "dif" and v == "minus" else q.coeffs)
    width = max(r.shape[1] for r in rows)
    rows = np.concatenate([np.pad(r, ((0, 0), (0, width - r.shape[1]))) for r in rows])
    keys, rows = charges._sum_rows(np.concatenate(keys), rows)
    if spec.variant == "dif":
        assert not rows[:, 0].any()
        rows = rows[:, 1:]
    return PauliPolynomial.from_arrays(n, keys >> n, keys & ((1 << n) - 1), rows)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 4), st.sampled_from(VARIANTS), st.data())
def test_periodic_density_matches_the_expanded_window_route(order, variant, data):
    # summed from the letter-orbit representatives, divided by 6 exactly
    spec = ChargeSpec(order, variant, 2 * data.draw(st.integers(order + 1, 15), label="N/2"))
    assert periodic_density(spec) == _expanded_periodic_density(spec)


def _density_of_one_orbit(w: int):
    # ZZ on window sites 1, 2 as the one representative, of the orbit XX, YY,
    # ZZ (size 3), with the row W = w
    zz = (np.array([0]), np.array([0b011]), np.array([[w]]))
    with mock.patch.object(charges, "_window_orbits", lambda order, variant: zz):
        return periodic_density.__wrapped__(ChargeSpec(1, "plus", 4))


def test_periodic_density_rejects_a_row_its_orbit_size_does_not_divide():
    with pytest.raises(GaugeError, match="divisible"):
        _density_of_one_orbit(4)
    q = _density_of_one_orbit(3)  # XX + YY + ZZ on sites 2, 3, in (x, z) order
    assert [s.letters() for s in q.terms] == ["IZZI", "IXXI", "IYYI"]
    assert q.coeffs.tolist() == [[1]] * 3


def test_charge_spec_validation():
    with pytest.raises(ValueError):
        ChargeSpec(1, "plus", 4 + 1)  # odd chain
    with pytest.raises(ValueError):
        ChargeSpec(2, "plus", 4)  # N > 2n+1 violated
    with pytest.raises(ValueError):
        ChargeSpec(1, "weird", 8)
    for order in (1.5, True):
        with pytest.raises(ValueError):
            ChargeSpec(order, "plus", 8)


def test_charge_spec_rejects_a_chain_length_that_is_no_integer():
    # 8.0 hashes equal to 8, so it would read the memo of ChargeSpec(1, "plus", 8)
    periodic_density(ChargeSpec(1, "plus", 8))
    for n_sites in (8.0, "8", True):
        with pytest.raises(ValueError, match="chain length must be an integer"):
            ChargeSpec(1, "plus", n_sites)
    assert ChargeSpec(1, "plus", np.int64(8)) == ChargeSpec(1, "plus", 8)


def test_dif_charge_exact_division():
    q = assemble(ChargeSpec(1, "dif", 8))
    assert len(q) > 0  # division by delta succeeded, coefficients integer
    for _, poly in items(q):
        assert all(isinstance(c, int) for c in poly.coeffs)


def test_neel_expectation_closed_form():
    # closed form -(N/2)(2 - delta^2); the quadratic edge term flips the sign
    # of its contribution on the Neel state relative to the bond dots
    for n_sites, anchor in ((4, -3.81), (6, -5.71), (8, -7.62), (10, -9.52)):
        q = assemble(ChargeSpec(1, "plus", n_sites))
        idx = sum(1 << (j - 1) for j in range(2, n_sites + 1, 2))
        psi = np.zeros(1 << n_sites)
        psi[idx] = 1.0
        val = sum(p(DELTA) * pauli_expectation_statevector(s, psi).real for s, p in items(q))
        assert val == pytest.approx(-(n_sites / 2) * (2 - DELTA**2), abs=1e-12)
        assert val == pytest.approx(anchor, abs=0.005)


def test_assembled_charges_are_conserved():
    n_sites = 8
    u = step_unitary(DELTA, n_sites)
    for order in (1, 2, 3):
        for variant in ("plus", "minus", "dif"):
            q = to_matrix(assemble(ChargeSpec(order, variant, n_sites)), DELTA)
            assert np.abs(u @ q - q @ u).max() < 1e-10


def test_conservation_dense_ten_sites():
    u = step_unitary(DELTA, 10)
    q = to_matrix(assemble(ChargeSpec(3, "plus", 10)), DELTA)
    assert np.abs(u @ q - q @ u).max() < 1e-10


def test_conservation_fails_for_middle_bond_quadratic_variant():
    # the alternative order-1 density with delta^2 on the middle bond is not
    # conserved; this pins the corrected edge-coupled form
    alt = build_window(3, {0: [(1, (1, 2)), (1, (2, 3))], 1: [(-1, (1, 2, 3))], 2: [(1, (2, 3))]})
    terms = []
    for start in (2, 4, 6, 8):
        for s, p in items(alt):
            letters = ["I"] * 8
            for w, ch in enumerate(s.letters(), 1):
                if ch != "I":
                    letters[(start - 1 + w - 1) % 8] = ch
            terms.append((PauliString.from_letters("".join(letters)), p.coeffs))
    u = step_unitary(DELTA, 8)
    q = to_matrix(PauliPolynomial.from_terms(8, terms), DELTA)
    assert np.abs(u @ q - q @ u).max() > 1e-3


# ---------------------------------------------------------------------------
# dense helpers
# ---------------------------------------------------------------------------


def test_to_matrix_single_z():
    p = PauliPolynomial.from_terms(1, [(PauliString.from_letters("Z"), (1,))])
    assert np.allclose(to_matrix(p, 0.3), np.diag([1.0, -1.0]))


def test_to_matrix_at_zero_is_xxx_hamiltonian():
    n = 6
    q = to_matrix(assemble(ChargeSpec(1, "plus", n)), 0.0)
    want = np.zeros_like(q)
    for j in range(1, n + 1):
        k = j % n + 1
        for ax in "XYZ":
            letters = ["I"] * n
            letters[j - 1] = letters[k - 1] = ax
            want += matrix(PauliString.from_letters("".join(letters)))
    assert np.abs(q - want).max() < 1e-12


def test_to_matrix_hermitian_and_budget():
    m = to_matrix(assemble(ChargeSpec(2, "plus", 8)), DELTA)
    assert np.abs(m - m.conj().T).max() < 1e-12
    big = PauliPolynomial.from_terms(15, [(PauliString(15, 0, 1), (1,))])
    with pytest.raises(ValueError):
        to_matrix(big, 0.0)


def test_dif_spectrum_symmetric_under_spin_flip():
    n = 4
    q = to_matrix(assemble(ChargeSpec(1, "dif", n)), DELTA)
    flip = matrix(PauliString(n, (1 << n) - 1, 0))  # X on every site
    vals = np.sort(np.linalg.eigvalsh(q))
    flipped = np.sort(np.linalg.eigvalsh(flip @ q @ flip))
    assert np.abs(vals - flipped).max() < 1e-10


# ---------------------------------------------------------------------------
# transfer matrices
# ---------------------------------------------------------------------------


def test_transfer_matrices_commute():
    rng = np.random.default_rng(5)
    n = 4
    for _ in range(10):
        lam, mu = rng.normal(size=2) + 1j * 0.2 * rng.normal(size=2)
        t1 = transfer_matrix(lam, DELTA, n)
        t2 = transfer_matrix(mu, DELTA, n)
        assert np.abs(t1 @ t2 - t2 @ t1).max() < 1e-10


def test_transfer_matrix_factorizes_step():
    n = 4
    u = np.linalg.inv(transfer_matrix(-DELTA / 2, DELTA, n)) @ transfer_matrix(DELTA / 2, DELTA, n)
    assert np.abs(u - step_unitary(DELTA, n)).max() < 1e-10


def test_rcheck_identity_at_zero_and_pole():
    assert np.allclose(r_check(0.0, 2, 1, 2), np.eye(4))
    with pytest.raises(ValueError):
        transfer_matrix(1j, DELTA, 4)


# ---------------------------------------------------------------------------
# export / cache
# ---------------------------------------------------------------------------


def test_export_round_trip(tmp_path):
    q = assemble(ChargeSpec(2, "plus", 6))
    doc = q.to_dict(2, "plus")
    text = json.dumps(doc)
    back = PauliPolynomial.from_dict(json.loads(text))
    assert back == q
    assert doc["n_sites"] == 6 and doc["order"] == 2 and doc["variant"] == "plus"
    assert all(isinstance(c, int) for t in doc["terms"] for c in t["coeffs"])
    for coeffs in ([1.5, 2.7], ["3"], [True]):
        bad = {"n_sites": 2, "terms": [{"pauli": "ZZ", "coeffs": coeffs}]}
        with pytest.raises(ValueError, match="not integers"):
            PauliPolynomial.from_dict(bad)


def test_from_arrays_builds_sorted_terms_and_rejects_bad_rows():
    xs, zs = np.array([1, 1, 2]), np.array([0, 1, 0])
    coeffs = np.array([[1, 0], [0, 0], [1, 0]])
    q = PauliPolynomial.from_arrays(2, xs, zs, coeffs)
    assert [s.letters() for s, _ in items(q)] == ["XI", "IX"]  # zero row dropped
    with pytest.raises(ValueError):
        PauliPolynomial.from_arrays(2, xs[::-1], zs[::-1], coeffs)
    with pytest.raises(ValueError):
        PauliPolynomial.from_arrays(2, np.array([0]), np.array([0]), np.array([[1]]))


def test_from_arrays_copies_only_what_it_drops():
    xs, zs, coeffs = np.array([1, 2]), np.array([0, 1]), np.array([[1, 0], [2, 3]])
    q = PauliPolynomial.from_arrays(2, xs, zs, coeffs)
    assert q.x is xs and q.z is zs and q.coeffs is coeffs  # kept and locked
    assert not any(a.flags.writeable for a in (xs, zs, coeffs))
    trailing = np.array([[1, 0], [2, 0]])
    q = PauliPolynomial.from_arrays(2, np.array([1, 2]), np.array([0, 1]), trailing)
    assert q.coeffs.tolist() == [[1], [2]] and trailing.flags.writeable


def test_assemble_cached_round_trip():
    spec = ChargeSpec(1, "plus", 6)
    first = assemble_cached(spec)
    again = assemble_cached(spec)
    assert first == again == assemble(spec)


def test_memoized_charges_are_read_only():
    spec = ChargeSpec(2, "plus", 8)
    for memo, fresh in [
        (functools.partial(assemble_cached, spec), functools.partial(assemble, spec)),
        (functools.partial(window_density, 2, "plus"), functools.partial(q2_reference, "plus")),
    ]:
        q = memo()
        for array in (q.x, q.z, q.coeffs):
            with pytest.raises(ValueError):
                array[0] = 1
        with pytest.raises(AttributeError):
            q.coeffs = np.zeros_like(q.coeffs)
        assert memo() == fresh()


def test_from_terms_sums_folds_phase_and_rejects_bad_terms():
    zz, xy = PauliString.from_letters("ZZ"), PauliString.from_letters("XY")
    minus_zz = PauliString(2, zz.x_mask, zz.z_mask, 2)
    q = PauliPolynomial.from_terms(2, [(zz, (1, 2)), (minus_zz, (1, 0, 0)), (xy, [0])])
    assert list(items(q)) == [(zz, DeltaPoly((0, 2)))]
    assert q.coeffs.shape == (1, 2) and coefficient(q, minus_zz) == DeltaPoly((0, 2))
    assert coefficient(q, xy).is_zero()
    assert coefficient(q, PauliString.from_letters("ZZZ")).is_zero()
    for bad in [
        (PauliString.from_letters("ZZZ"), (1,)),  # register size
        (PauliString(2, 0, 0), (1,)),
        (PauliString(2, xy.x_mask, xy.z_mask, 1), (1,)),
    ]:
        with pytest.raises(ValueError):
            PauliPolynomial.from_terms(2, [bad])
    with pytest.raises(OverflowError):
        PauliPolynomial.from_terms(2, [(zz, (1 << 62,))] * 2)
    with pytest.raises(OverflowError):  # np.abs wraps -2**63 onto itself
        PauliPolynomial.from_terms(2, [(zz, (-(1 << 63),))] * 2)


@settings(deadline=None)
@given(term_lists(), st.sampled_from([0.3, DELTA, -0.7, 1e-3, -0.0]) | st.floats(-2, 2))
def test_from_terms_matches_delta_poly_sum(case, delta):
    n, terms = case
    want = {}
    for s, c in terms:
        key = PauliString(n, s.x_mask, s.z_mask)
        want[key] = want.get(key, DeltaPoly()) + DeltaPoly(c) * (-1 if s.phase_power else 1)
    q = PauliPolynomial.from_terms(n, terms)
    assert list(items(q)) == sorted(
        ((s, p) for s, p in want.items() if p), key=lambda kv: (kv[0].x_mask, kv[0].z_mask)
    )
    got = q.coefficients(delta)
    ref = np.array([p(delta) for _, p in items(q)], dtype=float)
    assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))
    assert PauliPolynomial.from_dict(json.loads(json.dumps(q.to_dict()))) == q
