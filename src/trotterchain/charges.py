"""Conserved charges of the Trotterized XXX chain.

Charges are exact objects: sums of Pauli strings whose coefficients are
integer polynomials in the Trotter step ``delta``.  The module provides

- :class:`PauliPolynomial`, a charge or charge density as packed rows: int64
  ``(x, z)`` string masks and an int64 matrix of delta-power coefficients,
  evaluated all rows at once by :meth:`PauliPolynomial.coefficients`;
- integer tables of dot/cross products ``c delta^m sigma . (sigma x ...)``
  for the order-1 window density and the boost block, each expanded by one
  function (over :func:`dot_cross`) into packed ``(x, z, m, c)`` monomials;
- :func:`boost_step`, one rung of the boost recursion, evaluated as a direct
  commutator on translation-covariant operator sums, through the packed
  products of :mod:`trotterchain.pauli`, and collapsed back to a single
  gauge-fixed window density; :func:`window_density` boosts the order-1
  density to any order.  Both work on letter orbits: every window density
  and the boost block are invariant under the six letter maps of global spin
  rotations (:func:`trotterchain.pauli.letter_orbit`), so a density is
  carried as one representative string per orbit with the integer row
  W = c |orbit|, and only representatives are multiplied with the block.
  One sum turns representatives into strings, each the signed W rows of
  its six letter images over 6: :func:`window_density` keys them on the
  window;
- :func:`periodic_density`, the charge on N sites with one string per
  two-site translation orbit (memoized), keys them by their smallest
  rotation on the chain, with no expanded window density; and
  :func:`assemble`, its sum over the N/2 two-site rotations.
  :func:`sim.exact_expectation` evaluates the periodic density on every
  rotation of the state, so an expectation never needs the assembled
  charge, which is N/2 times longer; its values match the assembled charge
  summed term by term to round-off, not bit for bit;
- :func:`r_check` and :func:`transfer_matrix`, the two-site R-matrix and
  the staggered transfer matrix built from it, whose family commutes.

Window densities live on ``2n+1`` sites.  A plus density is understood to be
placed on windows starting at even chain positions, a minus density on odd
ones; ``variant="dif"`` is the exactly-divided difference ``(Q+ - Q-)/delta``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .pauli import (
    LETTER_CODES,
    PauliString,
    anticommute,
    key,
    letter_images,
    letter_orbit,
    letter_strings,
    product,
    rotations,
    unkey,
)

VARIANTS = ("plus", "minus", "dif")


class PauliPolynomial:
    """Operator-valued polynomial: sum of poly(delta) * PauliString, as packed rows.

    ``x`` and ``z`` are the int64 masks of the strings (the bit layout of
    :class:`PauliString`), distinct and sorted by (x, z).  Column m of the
    int64 T x D matrix ``coeffs`` holds the coefficient of delta^m.  No row is
    all zero, nor is the last column, so equal charges have equal arrays.
    The arrays are read-only and the object immutable, so a memoized charge
    can be shared.

    Strings are canonical (phase_power 0): a sign from operator products is
    folded into the integer coefficients, and an odd power of i is an error
    because charges stay Hermitian with real coefficients.  Identity-string
    terms are rejected: charges and densities are traceless by construction.
    """

    __slots__ = ("n_sites", "x", "z", "coeffs")

    def __init__(self, n_sites: int, x=None, z=None, coeffs=None):
        """The zero polynomial, or rows already canonical (see :meth:`from_arrays`)."""
        if x is None:
            x, z, coeffs = np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((0, 0), np.int64)
        for name, value in zip(self.__slots__, (n_sites, x, z, coeffs)):
            if name != "n_sites":
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("PauliPolynomial is immutable")

    @classmethod
    def from_arrays(cls, n_sites: int, xs, zs, coeffs) -> "PauliPolynomial":
        """Bulk constructor from packed rows; zero rows and trailing zero columns are dropped.

        ``coeffs[i, m]`` is the integer coefficient of delta^m on the string
        with masks ``(xs[i], zs[i])``.  The rows must have distinct keys sorted
        by (x, z).  The arrays are copied only when a row or a column is
        dropped; otherwise the polynomial keeps the caller's arrays and locks
        them (read-only), so a large charge is never held twice.
        """
        nonzero = coeffs != 0
        rows = nonzero.any(axis=1)
        cols = np.flatnonzero(nonzero.any(axis=0))
        del nonzero
        width = cols[-1] + 1 if len(cols) else 0
        if not rows.all():
            keep = np.flatnonzero(rows)
            xs, zs, coeffs = xs[keep], zs[keep], coeffs[keep, :width]
        elif width < coeffs.shape[1]:
            coeffs = coeffs[:, :width].copy()
        if np.any((xs == 0) & (zs == 0)):
            raise ValueError("identity term in a traceless charge")
        if np.any((xs[1:] < xs[:-1]) | ((xs[1:] == xs[:-1]) & (zs[1:] <= zs[:-1]))):
            raise ValueError("packed rows must have distinct keys sorted by (x, z)")
        return cls(n_sites, xs, zs, coeffs)

    @classmethod
    def from_terms(cls, n_sites: int, terms) -> "PauliPolynomial":
        """Sum of ``(PauliString, coefficients)`` terms; repeated strings add up.

        Entry m of a coefficient sequence multiplies delta^m; a string with
        phase -1 enters with negated coefficients.  A coefficient or sum
        outside int64 raises OverflowError.
        """
        xs, zs, rows = [], [], []
        for string, coeffs in terms:
            if string.n_sites != n_sites:
                raise ValueError("string size does not match polynomial register")
            if not any(coeffs):
                continue
            if string.is_identity():
                raise ValueError("identity term in a traceless charge")
            if string.phase_power % 2:
                raise ValueError("imaginary unit cannot be folded into integer coefficients")
            xs.append(string.x_mask)
            zs.append(string.z_mask)
            rows.append([-c for c in coeffs] if string.phase_power else coeffs)
        packed = np.zeros((len(rows), max(map(len, rows), default=0)), dtype=np.int64)
        for row, coeffs in zip(packed, rows):
            row[: len(coeffs)] = coeffs
        keys = key(np.array(xs, dtype=np.int64), np.array(zs, dtype=np.int64), n_sites)
        _check_bound(packed, int(np.unique(keys, return_counts=True)[1].max(initial=1)))
        keys, summed = _sum_rows(keys, packed)
        return cls.from_arrays(n_sites, *unkey(keys, n_sites), summed)

    @classmethod
    def from_dict(cls, doc: dict) -> "PauliPolynomial":
        """The inverse of :meth:`to_dict`; a coefficient that is no integer raises ValueError."""
        terms = []
        for t in doc["terms"]:
            if not all(isinstance(c, Integral) and not isinstance(c, bool) for c in t["coeffs"]):
                raise ValueError(f"coefficients of {t['pauli']} are not integers: {t['coeffs']!r}")
            terms.append((PauliString.from_letters(t["pauli"]), t["coeffs"]))
        return cls.from_terms(doc["n_sites"], terms)

    def __len__(self):
        return len(self.x)

    def __eq__(self, other):
        return (
            isinstance(other, PauliPolynomial)
            and self.n_sites == other.n_sites
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
            and np.array_equal(self.coeffs, other.coeffs)
        )

    @property
    def terms(self):
        """The strings, in (x, z) order."""
        n = self.n_sites
        return (PauliString(n, x, z) for x, z in zip(self.x.tolist(), self.z.tolist()))

    def coefficients(self, delta: float) -> np.ndarray:
        """Every row at ``delta``: Horner from the last column, on each row
        the same float operations as ``DeltaPoly.__call__`` in the tests'
        ``dense_oracle`` (leading zero columns keep +0.0)."""
        out = np.zeros(len(self))
        for column in self.coeffs.T[::-1]:
            out = out * delta + column
        return out

    # -- serialization (contract consumed by measure and cli) ----------

    def to_dict(self, order: int | None = None, variant: str | None = None) -> dict:
        """Terms in letter order, each row cut after its last nonzero coefficient."""
        letters = letter_strings(self.x, self.z, self.n_sites).tolist()
        width = np.arange(1, self.coeffs.shape[1] + 1)
        ends = ((self.coeffs != 0) * width).max(axis=1, initial=0).tolist()
        rows = self.coeffs.tolist()
        return {
            "n_sites": self.n_sites,
            "order": order,
            "variant": variant,
            "terms": [
                {"pauli": letters[i], "coeffs": rows[i][: ends[i]]}
                for i in sorted(range(len(rows)), key=letters.__getitem__)
            ],
        }


# ---------------------------------------------------------------------------
# integer tables and their packed expansion
# ---------------------------------------------------------------------------

# A table entry (c, m, sites) is c delta^m sigma_{s1} . (sigma_{s2} x (... x
# sigma_{sk})) on the 1-based ``sites``, right-nested; a pair is the plain dot
# product.


@functools.cache
def dot_cross(k: int) -> tuple:
    """Expand ``sigma_1 . (sigma_2 x (... x sigma_k))`` over k distinct sites.

    Returns ``(letters, coefficient)`` pairs: letter i acts on operand i, and
    the integer coefficient is a product of Levi-Civita signs.  Memoized;
    the result is immutable.
    """
    if k < 2:
        raise ValueError("need at least two sites")
    # vec[a]: {letters of the operands so far: coefficient} of component a
    vec = [{ax: 1} for ax in "XYZ"]
    for _ in range(k - 2):
        out = [{}, {}, {}]
        for a, left in enumerate("XYZ"):
            for b in (a + 1) % 3, (a + 2) % 3:
                sign = 1 if b == (a + 1) % 3 else -1  # eps_{abc}
                for letters, c in vec[b].items():  # each key arises once
                    out[3 - a - b][left + letters] = sign * c
        vec = out
    dot = [(ax + letters, c) for ax, comp in zip("XYZ", vec) for letters, c in comp.items()]
    return tuple(sorted(dot))


def _packed_monomials(table) -> list:
    """The monomials of an integer table as packed ``(x, z, m, c)``: int masks
    with site 1 on bit 0, the delta power m and the integer coefficient c."""
    out = []
    for c, m, sites in table:
        for letters, sign in dot_cross(len(sites)):
            x = z = 0
            for site, letter in zip(sites, letters):
                code = LETTER_CODES[letter]
                x |= (code & 1) << (site - 1)
                z |= (code >> 1) << (site - 1)
            out.append((x, z, m, c * sign))
    return out


# The plus window density of order 1; the minus density takes the
# coefficient c (-1)^m, the plus density at -delta.
_ORDER1_TABLE = ((1, 0, (1, 2)), (1, 0, (2, 3)), (-1, 1, (1, 2, 3)), (1, 2, (1, 3)))


# ---------------------------------------------------------------------------
# boost recursion
# ---------------------------------------------------------------------------

# The recursion works on packed rows: a term is an int64 (x, z) mask pair in
# the bit layout of PauliString, and its coefficient an int64 row whose
# column m holds the coefficient of delta^m.


def _high_bit(m):
    """Index of the highest set bit of each positive mask (masks below 2**53)."""
    return np.frexp(m.astype(np.float64))[1] - 1


def _check_bound(coeffs: np.ndarray, factor: int):
    """Raise OverflowError unless ``factor`` times the largest |coefficient| fits int64."""
    # no np.abs: it wraps -2**63 onto itself
    peak = max(int(coeffs.max(initial=0)), -int(coeffs.min(initial=0)))
    if peak * factor > np.iinfo(np.int64).max:
        raise OverflowError(
            f"coefficients up to {peak} could overflow int64 (bound factor {factor})"
        )


# positions per block of a segment sum: one block of rows is held at a time
_BLOCK = 1 << 12
# boost products per call of letter_orbit
_ORBIT_CHUNK = 1 << 16


def _segment_sums(keys, rows_of):
    """Sums of the rows of each set of equal values in the int64 ``keys``.

    ``rows_of(i)`` returns the int64 rows of the original positions ``i``
    along its second-last axis (the last one holds each row's entries).
    The keys are argsorted once and taken in sorted blocks of at least
    ``_BLOCK`` positions (fewer at the end), each cut where a run of equal
    keys ends, and each block's runs are summed by one ``np.add.reduceat``:
    exact integer sums.  Returns the number of distinct keys and a
    generator that yields, per block, the distinct keys in ascending order
    and their sums.
    """
    order = np.argsort(keys)
    keys = keys[order]
    runs = int(np.count_nonzero(keys[1:] != keys[:-1])) + (len(keys) > 0)

    def blocks():
        a = 0
        while a < len(keys):
            b = int(np.searchsorted(keys, keys[min(a + _BLOCK, len(keys)) - 1], side="right"))
            starts = np.flatnonzero(np.diff(keys[a:b], prepend=-1))  # keys are >= 0
            yield keys[a:b][starts], np.add.reduceat(rows_of(order[a:b]), starts, axis=-2)
            a = b

    return runs, blocks()


def _joined_sums(keys, rows_of, width: int):
    """The distinct sorted keys and their row sums (see :func:`_segment_sums`),
    each block written into exact-size arrays: no block is held twice."""
    runs, blocks = _segment_sums(keys, rows_of)
    distinct = np.empty(runs, np.int64)
    sums = np.empty((runs, width), np.int64)
    a = 0
    for block_keys, block_sums in blocks:
        distinct[a : a + len(block_keys)] = block_keys
        sums[a : a + len(block_keys)] = block_sums
        a += len(block_keys)
    return distinct, sums


def _sum_rows(keys, rows):
    """Distinct sorted keys and the sum of the rows of each.

    ``rows`` broadcasts against ``keys``: keys of shape (W, T) take rows of
    shape (T, D), the same row for every leading index.
    """
    return _joined_sums(keys.ravel(), lambda i: rows[i % len(rows)], rows.shape[-1])


# One boost block, anchored at l, on the sites A=2l-3, B=2l-2, C=2l-1, D=2l;
# in the table and its packed monomials A..D are sites 1..4 (bit 0 on A).
_BOOST_MONOMIALS = _packed_monomials(
    (
        (1, 0, (1, 2)),  # sigma_A . sigma_B
        (1, 0, (3, 4)),  # sigma_C . sigma_D
        (2, 0, (2, 3)),  # 2 sigma_B . sigma_C
        (1, 2, (2, 4)),  # delta^2 sigma_B . sigma_D
        (1, 2, (1, 3)),  # delta^2 sigma_A . sigma_C
        (1, 1, (1, 2, 3)),  # +delta sigma_A . (sigma_B x sigma_C)
        (-1, 1, (2, 3, 4)),  # -delta sigma_B . (sigma_C x sigma_D)
    )
)


class GaugeError(RuntimeError):
    """The boost commutator did not collapse to a consistent window density."""


def _orbits(q: PauliPolynomial):
    """An invariant density as its letter orbits: each orbit's representative
    masks ``(x, z)`` in key order and the int64 row W = c |orbit|, c the
    representative's coefficient row.

    Raises GaugeError unless every orbit is present whole, each string with
    the representative's coefficients times its sign from
    :func:`letter_orbit`, and no string is flagged.
    """
    _check_bound(q.coeffs, 6)
    rep, sign, size, flagged = letter_orbit(q.x, q.z, q.n_sites)
    order = np.argsort(rep)
    rep, size = rep[order], size[order]
    starts = np.flatnonzero(np.diff(rep, prepend=-1))
    members = np.diff(starts, append=len(rep))
    signed = q.coeffs[order] * sign[order, None]
    if (
        flagged.any()
        or np.any(members != size[starts])
        or np.any(signed != np.repeat(signed[starts], members, axis=0))
    ):
        raise GaugeError("density is not invariant under the letter maps of spin rotations")
    return (*unkey(rep[starts], q.n_sites), signed[starts] * size[starts, None])


def _image_sums(n_sites: int, parts, key_of, copies: int):
    """The distinct sorted keys and row sums of the strings of letter orbits.

    Each part ``(x, z, w, sign, shift)`` holds representatives ``(x, z)``
    with rows ``w`` (see :func:`_orbits`), counted with ``sign`` and moved
    up ``shift`` bits; ``key_of(x, z, n_sites)`` keys a string, and a key
    sums at most ``copies`` rows of ``w``.  A string of an orbit of size s
    is one of its representative's six :func:`letter_images` 6/s times,
    each with W = c s, so :func:`_joined_sums` of the images' signed rows
    is 6 c, divided by 6 exactly.  A W that its orbit's size (from
    :func:`letter_orbit`) does not divide raises GaugeError first.
    """
    width = max(w.shape[1] for _, _, w, _, _ in parts)
    for x, z, w, _, _ in parts:
        if np.any(w % letter_orbit(x, z, n_sites)[2][:, None]):
            raise GaugeError("a letter orbit's row is not divisible by the orbit's size")
    w = parts[0][2]
    if len(parts) > 1:
        w = np.concatenate([np.pad(p[2], ((0, 0), (0, width - p[2].shape[1]))) for p in parts])
    _check_bound(w, copies)
    # image-major, so the image at position i is of representative i % len(w)
    images = [letter_images(x, z) for x, z, _, _, _ in parts]
    keys, signs = [], []
    for m in range(6):
        for (x, _, _, sign, shift), image in zip(parts, images):
            ix, iz, s = image[m]
            keys.append(key_of(ix << shift, iz << shift, n_sites))
            signs.append(np.broadcast_to(s * sign, x.shape).astype(np.int8))
    del images
    keys, signs = np.concatenate(keys), np.concatenate(signs)

    def rows_of(i):
        rows = w.take(i % len(w), axis=0)
        rows *= signs[i, None]
        return rows

    keys, rows = _joined_sums(keys, rows_of, width)
    rows //= 6
    return keys, rows


def _expand(n_sites: int, x, z, w) -> PauliPolynomial:
    """The window density whose letter orbits are the representatives
    ``(x, z)`` with rows ``w``: :func:`_image_sums` on window keys."""
    keys, rows = _image_sums(n_sites, [(x, z, w, 1, 0)], key, 6)
    return PauliPolynomial(n_sites, *unkey(keys, n_sites), rows)


def _boost_orbits(x, z, w, order: int, variant: str):
    """One boost rung on letter orbits: the representatives ``(x, z)`` with
    rows ``w`` of an order-``order`` density to those of order ``order + 1``."""
    offset = 0 if variant == "plus" else 1
    l_min = (offset - 3) // 2
    l_max = (offset + 2 * order + 3) // 2 + 2
    # Working masks put bit 0 on chain position ``base``, the first site any
    # block touches; window site j of the input sits at offset + j - 1.
    base = 2 * l_min - 3
    tx, tz = x << (offset - base), z << (offset - base)
    n_terms, width = w.shape
    row_width = width + 2  # block monomials carry up to delta^2

    # Each output key sums at most one row per (anchor, monomial, representative),
    # each a row of w times |c| <= 2 and the weight |l + m2|.
    anchors = l_max - l_min + 1
    weight = max(-l_min, l_max) + (2 * l_max - base) // 2 + 2
    _check_bound(w, 2 * weight * len(_BOOST_MONOMIALS) * anchors * n_terms)

    # The collapse moves a term ending at chain position e by 2*m2 so that it
    # ends on out_hi - 1 or out_hi.  Output masks put bit 0 on offset - 2, the
    # lowest position a collapsed product can reach (a product spans at most
    # 2*order + 4 sites).
    out_hi = offset + 2 * order + 2
    nbits = 2 * order + 5
    lift = 2 * np.arange(anchors, dtype=np.int64)[:, None]  # anchor l at row l - l_min

    # per block monomial, anchor by term: True where the anchored monomial and the term anticommute
    parities = [
        anticommute(bx << lift, bz << lift, tx, tz) for bx, bz, _, _ in _BOOST_MONOMIALS
    ]
    n_products = sum(int(p.sum()) for p in parities)
    # padded[m * n_terms + t]: the row of term t moved up m delta powers
    padded = np.zeros((3, n_terms, row_width), dtype=np.int64)
    for m in range(3):
        padded[m, :, m : m + width] = w
    padded = padded.reshape(-1, row_width)
    keys = np.empty(n_products, dtype=np.int64)
    row = np.empty(n_products, dtype=np.int32)
    scale = np.empty(n_products, dtype=np.int8)
    lever = np.empty(n_products, dtype=np.int16)  # the weight l + m2
    end = 0
    for (bx, bz, m, c), parity in zip(_BOOST_MONOMIALS, parities):
        ls, hit = np.nonzero(parity)
        start, end = end, end + len(hit)
        # (i/2)[b, t] = i b t = i^(k+1) (x, z) for anticommuting b, t with
        # b t = i^k (x, z): +1 for k = 3, -1 for k = 1
        px, pz, k = product(bx << 2 * ls, bz << 2 * ls, tx[hit], tz[hit])
        scale[start:end] = np.where(k == 3, c, -c)
        last = base + _high_bit(px | pz)
        m2 = (out_hi - 1 - last + ((out_hi - 1 - last) & 1)) // 2
        shift = 2 * m2 + base - offset + 2
        px = np.where(shift >= 0, px << np.maximum(shift, 0), px >> np.maximum(-shift, 0))
        pz = np.where(shift >= 0, pz << np.maximum(shift, 0), pz >> np.maximum(-shift, 0))
        keys[start:end] = key(px, pz, nbits)
        row[start:end] = m * n_terms + hit
        lever[start:end] = ls + l_min + m2
    del parities  # read once, not held through the sort and the sums
    # The collapse keeps each product's support, so it commutes with the
    # letter maps: each collapsed product adds to its orbit's representative
    # with the sign of the map that takes it there.  No product lands on a
    # flagged string: the sums #X + #Y and #Y + #Z of letter counts add mod 2
    # under products, and they are even on every block monomial (XX or XYZ
    # letters) and on every representative.
    for a in range(0, n_products, _ORBIT_CHUNK):  # chunked: the orbit's temporaries stay small
        b = min(a + _ORBIT_CHUNK, n_products)
        rep, sign, _, _ = letter_orbit(*unkey(keys[a:b], nbits), nbits)
        keys[a:b] = rep
        scale[a:b] *= sign.astype(np.int8)

    def rows_of(i):
        """The products' signed rows, then the same rows times their weights."""
        rows = np.empty((2, len(i), row_width), dtype=np.int64)
        np.take(padded, row[i], axis=0, out=rows[0], mode="clip")
        rows[0] *= scale[i].astype(np.int64)[:, None]
        np.multiply(rows[0], lever[i].astype(np.int64)[:, None], out=rows[1])
        return rows

    # Filter per block, not after one exact-size sum: that sum would also hold
    # the obstruction half and the zero rows.
    obstructed, blocks = 0, []
    for block_keys, (obstruction, sums) in _segment_sums(keys, rows_of)[1]:
        obstructed += np.count_nonzero(obstruction.any(axis=1))
        keep = sums.any(axis=1)
        blocks.append((block_keys[keep], sums[keep]))
    del keys, row, scale, lever, padded  # the products, before the result is joined
    if obstructed:
        raise GaugeError(
            "boost collapse obstruction: input density is not conserved "
            f"({obstructed} orbits with nonzero weight-sum)"
        )
    x, z = unkey(np.concatenate([np.zeros(0, np.int64)] + [k for k, _ in blocks]), nbits)
    collapsed = np.concatenate([np.zeros((0, row_width), np.int64)] + [r for _, r in blocks])
    if np.any((x | z) & 0b11 != 0):
        raise GaugeError("collapsed term does not fit the gauge window")
    cols = np.flatnonzero(collapsed.any(axis=0))
    return x >> 2, z >> 2, collapsed[:, : cols[-1] + 1 if len(cols) else 0]


def boost_step(q_n: PauliPolynomial, order: int, variant: str = "plus") -> PauliPolynomial:
    """One boost rung: window density of order ``n`` -> order ``n+1``.

    The commutator of the boost operator with the translation-covariant sum
    of ``q_n`` windows is evaluated exactly on the infinite chain; the result
    is collapsed to a single window by shifting every term in steps of two
    sites until it acts nontrivially on one of the last two window sites (the
    density gauge).  A nonzero obstruction in the collapse means the input
    was not a conserved density.

    The rung runs on letter orbits.  ``q_n`` is reduced to one representative
    string per orbit with the row W = c |orbit|; an input that is not
    invariant under the letter maps raises GaugeError there.  The block
    commutes with the letter maps, and so does the collapse, which keeps each
    product's support; so each (anchor, block monomial, representative)
    product is collapsed, mapped to its own orbit's representative with the
    map's sign, and added there: W_out += sign * a * W, integers throughout.
    The output is expanded by :func:`_image_sums`.

    Each product is built once: its collapsed representative key and a
    narrow payload (int32 row of the term moved up the monomial's delta
    power, int8 signed c, int16 weight), in arrays sized by a first pass
    that finds the anticommuting (anchor, representative) pairs of each
    monomial.  :func:`_segment_sums` argsorts the keys and adds the
    products' rows into each key one block at a time, where the block's
    obstruction is checked and its nonzero rows kept.  So no product rows
    and no obstruction matrix the size of the result are held at once; the
    transient memory is about 31 bytes per product (the key, its sorted
    copy, the sort order and the payload), about six times fewer products
    than strings would give.
    """
    if q_n.n_sites != 2 * order + 1:
        raise ValueError("density window does not match its order")
    return _expand(2 * order + 3, *_boost_orbits(*_orbits(q_n), order, variant))


@functools.cache
def _window_orbits(order: int, variant: str):
    """The letter orbits of :func:`window_density` (see :func:`_orbits`), memoized."""
    if order > 1:
        return _boost_orbits(*_window_orbits(order - 1, variant), order - 1, variant)
    x, z, m, c = np.array(_packed_monomials(_ORDER1_TABLE), dtype=np.int64).T
    rows = np.zeros((len(c), m.max() + 1), dtype=np.int64)
    rows[np.arange(len(c)), m] = c if variant == "plus" else c * (-1) ** m
    keys, summed = _sum_rows(key(x, z, 3), rows)
    return _orbits(PauliPolynomial.from_arrays(3, *unkey(keys, 3), summed))


def window_density(order: int, variant: str) -> PauliPolynomial:
    """Window density of any order on ``2*order + 1`` sites: order 1 from its
    integer table, each higher order by one boost rung on the letter orbits
    of the last (as :func:`boost_step`).

    ``variant`` is ``"plus"`` or ``"minus"``.  The quadratic term of the
    order-1 density is ``delta^2 sigma_1.sigma_3``: with a middle-bond
    quadratic term instead, the assembled charge fails to commute with the
    evolution step (and the exactly-known product-state expectation values
    come out wrong), so that variant is rejected by the conservation tests.
    Each call expands afresh from the letter orbits, which are memoized in
    this process for every order up to it.
    """
    if variant not in ("plus", "minus"):
        raise ValueError(f"unknown density variant {variant!r}")
    if not isinstance(order, Integral) or isinstance(order, bool) or order < 1:
        raise ValueError(f"order must be an integer >= 1, got {order!r}")
    return _expand(2 * order + 1, *_window_orbits(order, variant))


# ---------------------------------------------------------------------------
# periodic assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChargeSpec:
    """Which charge to build: order n, variant, chain length N."""

    order: int
    variant: str
    n_sites: int

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not isinstance(self.order, Integral) or isinstance(self.order, bool):
            raise ValueError(f"order must be an integer, got {self.order!r}")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if not isinstance(self.n_sites, Integral) or isinstance(self.n_sites, bool):
            raise ValueError(f"chain length must be an integer, got {self.n_sites!r}")
        if self.n_sites % 2:
            raise ValueError("chain length must be even")
        if self.n_sites <= 2 * self.order + 1:
            raise ValueError(
                f"chain too short: need N > 2n+1 = {2 * self.order + 1}, got {self.n_sites}"
            )

    @property
    def label(self) -> str:
        return charge_label(self.order, self.variant)


def charge_label(order: int, variant: str) -> str:
    """``Q{order}`` then ``+``, ``-`` or ``dif``: a charge's name in artifacts."""
    suffix = {"plus": "+", "minus": "-", "dif": "dif"}[variant]
    return f"Q{order}{suffix}"


def _smallest_rotation(x, z, n_sites: int):
    """The smallest :func:`key` among the N/2 two-site rotations of each
    string, taken one rotation at a time."""
    full = (1 << n_sites) - 1
    smallest = key(x, z, n_sites)
    for k in range(2, n_sites, 2):
        rx = ((x << k) | (x >> (n_sites - k))) & full
        rz = ((z << k) | (z >> (n_sites - k))) & full
        np.minimum(smallest, key(rx, rz, n_sites), out=smallest)
    return smallest


@functools.cache
def periodic_density(spec: ChargeSpec) -> PauliPolynomial:
    """One string per two-site translation orbit of the charge, on N sites.

    Summed over the N/2 two-site rotations R^(2j) it gives :func:`assemble`,
    integer for integer.  Window bit 0 goes to chain bit 1 for ``plus``
    (windows start on even sites), to bit 0 for ``minus``.  Summed straight
    from the letter orbits of :func:`_window_orbits` by :func:`_image_sums`,
    keyed by the smallest of their N/2 rotations (no term wraps onto
    itself: a window is shorter than the chain), never expanded; ``dif``
    sums the plus and the negated minus orbits and divides by delta
    exactly.  Memoized; the result is immutable.
    """
    n = spec.n_sites
    variants = ("plus", "minus") if spec.variant == "dif" else (spec.variant,)
    # plus windows move up one site; dif is plus plus negated minus
    sign = {"plus": 1, "minus": -1 if spec.variant == "dif" else 1}
    parts = [(*_window_orbits(spec.order, v), sign[v], int(v == "plus")) for v in variants]
    # a key sums at most six images of each of the N/2 rotations of a
    # string, from each part
    keys, rows = _image_sums(n, parts, _smallest_rotation, 3 * n * len(parts))
    if spec.variant == "dif":
        if rows[:, 0].any():
            raise ValueError("Q+(0) != Q-(0): difference not divisible by delta")
        rows = rows[:, 1:]
    return PauliPolynomial.from_arrays(n, *unkey(keys, n), rows)


def assemble(spec: ChargeSpec) -> PauliPolynomial:
    """Periodic charge on N sites, the sum of :func:`periodic_density` over
    the N/2 two-site rotations; ``dif`` is (Q+ - Q-)/delta, exactly."""
    q = periodic_density(spec)
    n = spec.n_sites
    _check_bound(q.coeffs, n // 2)
    keys, rows = _sum_rows(key(rotations(q.x, n), rotations(q.z, n), n), q.coeffs)
    return PauliPolynomial.from_arrays(n, *unkey(keys, n), rows)


@functools.cache
def assemble_cached(spec: ChargeSpec) -> PauliPolynomial:
    """Like :func:`assemble`, memoized in this process; the result is immutable."""
    return assemble(spec)


# ---------------------------------------------------------------------------
# R-matrices and the transfer matrix
# ---------------------------------------------------------------------------


def _permutation_matrix(n_sites: int, i: int, j: int) -> np.ndarray:
    """Swap of qubits i and j (1-based) on 2^n dimensions."""
    dim = 1 << n_sites
    idx = np.arange(dim)
    bi = (idx >> (i - 1)) & 1
    bj = (idx >> (j - 1)) & 1
    swapped = idx ^ ((bi ^ bj) << (i - 1)) ^ ((bi ^ bj) << (j - 1))
    m = np.zeros((dim, dim))
    m[swapped, idx] = 1.0
    return m


def r_check(lam: complex, n_sites: int, i: int, j: int) -> np.ndarray:
    """The two-site building block (1 + i lam P) / (1 + i lam), embedded."""
    if abs(1 + 1j * lam) < 1e-12:
        raise ValueError("spectral parameter at the pole of 1/(1+i lam)")
    dim = 1 << n_sites
    return (np.eye(dim) + 1j * lam * _permutation_matrix(n_sites, i, j)) / (1 + 1j * lam)


def transfer_matrix(lam: complex, delta: float, n_sites: int) -> np.ndarray:
    """T(lam) with staggered inhomogeneities (-1)^j delta/2.

    Built by multiplying R_{0j} = P_{0j} Rcheck_{0j} along the chain (the
    auxiliary space is an extra qubit above the chain) and tracing it out.
    """
    if n_sites > 10:
        raise ValueError("transfer-matrix budget is N <= 10")
    if min(abs(lam - 1j), abs(lam + 1j)) < 1e-12:
        raise ValueError("spectral parameter at the pole of 1/(1+i lam)")
    n_tot = n_sites + 1
    aux = n_tot  # auxiliary qubit index (1-based, highest)
    dim = 1 << n_tot
    m = np.eye(dim, dtype=complex)
    for j in range(1, n_sites + 1):  # ascending, applied right to left
        arg = lam - ((-1) ** j) * delta / 2.0
        rj = _permutation_matrix(n_tot, aux, j) @ r_check(arg, n_tot, aux, j)
        m = rj @ m
    # partial trace over the auxiliary qubit
    half = 1 << n_sites
    return m[:half, :half] + m[half:, half:]
