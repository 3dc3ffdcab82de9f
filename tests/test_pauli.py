import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import (
    SizeMismatchError,
    commutes,
    matrix,
    mul,
    pauli_expectation_density,
    pauli_expectation_statevector,
    trace_pair,
)
from trotterchain.pauli import (
    CODE_LETTERS,
    PauliString,
    anticommute,
    i_power,
    key,
    letter_orbit,
    letter_strings,
    parity_sign,
    product,
)
from test_charges import LETTER_MAPS, signed_letter_orbit


def dense(s: str) -> np.ndarray:
    return matrix(PauliString.from_letters(s))


def test_single_qubit_products():
    x = PauliString.from_letters("X")
    y = PauliString.from_letters("Y")
    assert mul(x, y) == PauliString.from_letters("Z", phase_power=1)  # X Y = i Z
    assert mul(x, x) == PauliString(1, 0, 0)


def test_two_site_product_against_dense():
    a = PauliString.from_letters("XZ")
    b = PauliString.from_letters("YZ")
    prod = mul(a, b)
    assert np.allclose(matrix(prod), dense("XZ") @ dense("YZ"))
    # explicit value: i * (Z (x) I)
    assert prod == PauliString.from_letters("ZI", phase_power=1)


def test_mul_size_mismatch():
    with pytest.raises(SizeMismatchError):
        mul(PauliString.from_letters("X"), PauliString.from_letters("XX"))


@pytest.mark.parametrize(
    "a,b,expected",
    [("XI", "IX", True), ("X", "Z", False), ("XY", "YX", True)],
)
def test_commutes(a, b, expected):
    assert commutes(PauliString.from_letters(a), PauliString.from_letters(b)) is expected
    ma, mb = dense(a), dense(b)
    assert np.allclose(ma @ mb, mb @ ma) is expected


def test_commutes_matches_product_phases():
    # agreement with whether ab and ba differ by phase_power 2, all pairs N <= 2
    strings = [
        PauliString(2, x, z) for x in range(4) for z in range(4)
    ] + [PauliString(1, x, z) for x in range(2) for z in range(2)]
    for a in strings:
        for b in strings:
            if a.n_sites != b.n_sites:
                continue
            ab, ba = mul(a, b), mul(b, a)
            same = ab.phase_power == ba.phase_power
            assert commutes(a, b) is same


def test_trace_pair():
    zz = PauliString.from_letters("ZZ")
    assert trace_pair(zz, zz) == 1
    assert trace_pair(PauliString.from_letters("XI"), PauliString.from_letters("ZI")) == 0
    x = PauliString.from_letters("X")
    y = PauliString.from_letters("Y")
    yxy = mul(mul(y, x), y)
    got = trace_pair(x, yxy)
    want = np.trace(dense("X") @ dense("Y") @ dense("X") @ dense("Y")) / 2
    assert got == pytest.approx(want)
    assert got == -1


def test_trace_pair_matches_dense_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        a = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        b = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        want = np.trace(matrix(a) @ matrix(b)) / (1 << n)
        assert trace_pair(a, b) == pytest.approx(want, abs=1e-12)


@settings(deadline=None)
@given(st.data())
def test_mul_associative_and_phase_exact(data):
    n = data.draw(st.integers(1, 8))
    mask = st.integers(0, (1 << n) - 1)
    strings = st.builds(PauliString, st.just(n), mask, mask, st.integers(0, 3))
    a, b, c = (data.draw(strings) for _ in range(3))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert np.allclose(matrix(mul(a, b)), matrix(a) @ matrix(b), atol=1e-12)
    # the packed algebra on mask arrays, over the pairs (a, b), (b, c), (c, a)
    pairs = [(a, b), (b, c), (c, a)]
    x1, z1, x2, z2 = np.array([(s.x_mask, s.z_mask, t.x_mask, t.z_mask) for s, t in pairs]).T
    hermitian = [PauliString(n, s.x_mask, s.z_mask) for s in (a, b, c)]
    want = [mul(s, t) for s, t in zip(hermitian, hermitian[1:] + hermitian[:1])]
    got = list(zip(*product(x1, z1, x2, z2)))
    assert got == [(p.x_mask, p.z_mask, p.phase_power) for p in want]
    assert anticommute(x1, z1, x2, z2).tolist() == [not commutes(s, t) for s, t in pairs]
    # P(x, z) = i^|x&z| X^x Z^z, and Z^z |b> = (-1)^|z&b| |b>
    cols = np.arange(1 << n)
    units = i_power(x1, z1)
    for s, unit in zip(hermitian, units):
        column = matrix(s)[cols ^ s.x_mask, cols]
        assert np.array_equal(column, unit * parity_sign(cols, s.z_mask))
        assert unit == i_power(s.x_mask, s.z_mask)


def reference_letters(s: PauliString) -> str:
    """Site by site: the letter at code (x bit | z bit << 1), site 1 first."""
    codes = (((s.x_mask >> j) & 1) | (((s.z_mask >> j) & 1) << 1) for j in range(s.n_sites))
    return "".join(CODE_LETTERS[c] for c in codes)


def test_letters_round_trip_site_one_leftmost():
    s = PauliString.from_letters("IXZY")
    assert s.letters() == "IXZY"
    assert s.letters()[0] == "I" and s.letters()[3] == "Y"
    assert str(PauliString(4, s.x_mask, s.z_mask, 3)) == "-i*IXZY"
    # site 1 occupies the lowest-order bit
    assert PauliString.from_letters("XI").x_mask == 1


def test_expectations_match_dense():
    rng = np.random.default_rng(4)
    n = 3
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    for _ in range(20):
        s = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        want = psi.conj() @ matrix(s) @ psi
        assert pauli_expectation_statevector(s, psi) == pytest.approx(want, abs=1e-12)
        assert pauli_expectation_density(s, rho) == pytest.approx(want, abs=1e-12)


def test_identity_and_mask_validation():
    assert PauliString(3, 0, 0).is_identity()
    with pytest.raises(ValueError):
        PauliString(2, 4, 0)
    with pytest.raises(ValueError):
        PauliString.from_letters("XQ")


@settings(deadline=None)
@given(st.data())
def test_letter_strings_match_site_loop_and_sort_like_python(data):
    n = data.draw(st.integers(1, 31))
    mask = st.integers(0, (1 << n) - 1)
    pairs = data.draw(st.lists(st.tuples(mask, mask), max_size=30))
    x = np.array([p[0] for p in pairs], dtype=np.int64)
    z = np.array([p[1] for p in pairs], dtype=np.int64)
    names = letter_strings(x, z, n)
    assert names.shape == x.shape
    expect = [reference_letters(PauliString(n, a, b)) for a, b in pairs]
    assert names.tolist() == expect
    assert np.sort(names).tolist() == sorted(expect)
    assert [PauliString(n, a, b).letters() for a, b in pairs] == expect


# ---------------------------------------------------------------------------
# letter orbits of global spin rotations
# ---------------------------------------------------------------------------


@settings(deadline=None)
@given(st.data())
def test_letter_orbit_matches_closure_of_letter_maps(data):
    n = data.draw(st.integers(1, 8))
    mask = st.integers(0, (1 << n) - 1)
    pairs = data.draw(st.lists(st.tuples(mask, mask), min_size=1, max_size=20))
    x = np.array([p[0] for p in pairs], dtype=np.int64)
    z = np.array([p[1] for p in pairs], dtype=np.int64)
    rep, sign, size, flagged = letter_orbit(x, z, n)
    for i, (a, b) in enumerate(pairs):
        orbit, conflict = signed_letter_orbit(a, b)
        smallest = min(orbit, key=lambda xz: key(*xz, n))
        assert (rep[i], size[i], flagged[i]) == (key(*smallest, n), len(orbit), conflict)
        if not conflict:
            assert sign[i] == orbit[smallest]
    # each image gets the string's representative, and a sign that differs by the map's
    for letter_map in LETTER_MAPS.values():
        ix, iz, s = letter_map(x, z)
        irep, isign, isize, iflagged = letter_orbit(ix, iz, n)
        assert np.array_equal(irep, rep) and np.array_equal(isize, size)
        assert np.array_equal(iflagged, flagged)
        assert np.array_equal((isign * s)[~flagged], sign[~flagged])


@pytest.mark.parametrize(
    "letters, size, flagged",
    [
        ("II", 1, False),
        ("XX", 3, False),
        ("XIX", 3, False),
        ("XYZ", 6, False),
        ("ZZZ", 3, True),
        ("XZ", 6, True),
    ],
)
def test_letter_orbit_named_cases(letters, size, flagged):
    s = PauliString.from_letters(letters)
    x, z = np.array([s.x_mask]), np.array([s.z_mask])
    _, _, got_size, got_flagged = letter_orbit(x, z, s.n_sites)
    assert (got_size[0], got_flagged[0]) == (size, flagged)
