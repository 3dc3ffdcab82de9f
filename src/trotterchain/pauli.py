"""Bit-packed N-site Pauli strings.

A string is stored bit-packed: ``x_mask`` has bit ``j-1`` set iff site ``j``
carries ``X`` or ``Y``, ``z_mask`` has bit ``j-1`` set iff site ``j`` carries
``Z`` or ``Y``.  Site 1 maps to the lowest-order bit; sites are cyclic, so
site ``N+1`` is site 1.  The operator represented is

    i**phase_power * W_1 (x) W_2 (x) ... (x) W_N,

with ``W_j in {I, X, Y, Z}`` read off the mask bits.  The global phase is
tracked as a power of ``i`` modulo 4 and never as a floating scalar.

The module owns the packed algebra on int64 mask arrays (Python ints work
too), and every other module calls it: the sortable :func:`key` and its
inverse :func:`unkey`, the two-site :func:`rotations`, the unit
:func:`i_power` of ``P(x, z) = i**|x&z| X^x Z^z``, the sign
:func:`parity_sign`, the :func:`walsh_rows` transform that sums it against
each row of a table for every mask at once, :func:`anticommute`, the
:func:`product` of two strings with its power of ``i``, and the six
:func:`letter_images` of global spin rotations with each string's
:func:`letter_orbit`; :data:`MATRICES` holds the 2x2 Paulis.
``|m|`` is the popcount of mask ``m``.

Text rendering writes site 1 leftmost, e.g. ``"IXZY"``; :func:`letter_strings`
is the one renderer, vectorised over mask arrays, and :func:`word_masks` the
one parser of measurement words, vectorised over a list of words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# letter at code (x_bit | z_bit << 1)
CODE_LETTERS = "IXZY"
_LETTER_BYTES = np.frombuffer(CODE_LETTERS.encode(), dtype=np.uint8)
LETTER_CODES = {"I": 0, "X": 1, "Z": 2, "Y": 3}

MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

_UNITS = np.array((1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j))  # i**k at k


@dataclass(frozen=True, slots=True)
class PauliString:
    """One tensor product of single-site Paulis with a tracked phase."""

    n_sites: int
    x_mask: int
    z_mask: int
    phase_power: int = 0

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be positive, got {self.n_sites}")
        full = (1 << self.n_sites) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask has bits outside the N-site register")
        object.__setattr__(self, "phase_power", self.phase_power % 4)

    # -- construction -------------------------------------------------

    @classmethod
    def from_letters(cls, letters: str, phase_power: int = 0) -> "PauliString":
        """Parse ``"IXZY"`` with site 1 leftmost."""
        x = z = 0
        for j, ch in enumerate(letters):
            try:
                code = LETTER_CODES[ch]
            except KeyError:
                raise ValueError(f"unknown Pauli letter {ch!r}") from None
            x |= (code & 1) << j
            z |= (code >> 1) << j
        return cls(len(letters), x, z, phase_power)

    # -- queries ------------------------------------------------------

    def letters(self) -> str:
        return str(letter_strings(self.x_mask, self.z_mask, self.n_sites))

    @property
    def support_mask(self) -> int:
        return self.x_mask | self.z_mask

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def __str__(self) -> str:
        pre = {0: "", 1: "i*", 2: "-", 3: "-i*"}[self.phase_power]
        return pre + self.letters()

    # -- dense interface ----------------------------------------------

    def column_action(self):
        """Sparse action on computational indices.

        Returns ``(rows, vals)`` with ``M[rows[b], b] = vals[b]`` the only
        nonzero entries; ``rows[b] = b ^ x_mask``.
        """
        n = self.n_sites
        cols = np.arange(1 << n, dtype=np.uint32)
        rows = cols ^ np.uint32(self.x_mask)
        par = np.bitwise_count(cols & np.uint32(self.z_mask)).astype(np.int64) & 1
        scale = _UNITS[(self.phase_power + (self.x_mask & self.z_mask).bit_count()) % 4]
        vals = np.where(par, -scale, scale)
        return rows, vals


def letter_strings(x, z, n_sites: int) -> np.ndarray:
    """Letters of the strings with masks ``x``, ``z`` (int64 arrays), site 1 leftmost.

    A numpy unicode array of ``x``'s shape; its sort is Python's ``sorted``.
    """
    bits = np.arange(n_sites)
    codes = ((np.asarray(x, np.int64)[..., None] >> bits) & 1) | (
        ((np.asarray(z, np.int64)[..., None] >> bits) & 1) << 1
    )
    return _LETTER_BYTES[codes].view(f"S{n_sites}")[..., 0].astype(str)


def word_masks(words, n: int) -> tuple[np.ndarray, np.ndarray]:
    """int64 X/Y and Y/Z site masks of ``words``, site j on bit j-1, from the
    code points of all words at once.

    Raises ValueError for the first word that is not ``n`` letters from X, Y, Z.
    """
    lengths = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    codes = np.frombuffer("".join(words).encode("utf-32-le"), dtype=np.uint32)
    bad_letter = (codes < ord("X")) | (codes > ord("Z"))  # X, Y, Z are consecutive
    bad = lengths != n
    bad[np.repeat(np.arange(len(words)), lengths)[bad_letter]] = True
    if bad.any():
        w = words[int(np.argmax(bad))]
        raise ValueError(f"a measurement word has {n} letters X, Y, Z only, got {w!r}")
    letters = codes.reshape(len(words), n)
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    return (letters != ord("Z")) @ bits, (letters != ord("X")) @ bits


def key(x, z, nbits: int):
    """One int64 per (x, z) mask pair of ``nbits`` sites, x in the high bits: sorts by (x, z)."""
    if 2 * nbits > 63:
        raise ValueError(f"{nbits}-site masks do not fit a packed int64 key")
    return (x << nbits) | z


def unkey(keys, nbits: int):
    """The ``(x, z)`` masks of :func:`key`'s ``keys``."""
    return keys >> nbits, keys & ((1 << nbits) - 1)


def letter_images(x, z):
    """The six letter maps of global spin rotations on masks ``x``, ``z``:
    a list of ``(x, z, sign)`` images.

    Maps 0-2 permute X -> Y -> Z cyclically, with sign +1; maps 3-5 swap
    X <-> Y, Y <-> Z and Z <-> X, with signs (-1)**#Z, (-1)**#Y and (-1)**#X
    of the input string (#L counts its letters L).
    """
    y = x & z
    odd_x, odd_y, odd_z = (np.bitwise_count(m).astype(np.int64) & 1 for m in (x ^ y, y, z ^ y))
    return [
        (x, z, 1),
        (x ^ z, x, 1),
        (z, x ^ z, 1),
        (x, z ^ x, 1 - 2 * odd_z),
        (x ^ z, z, 1 - 2 * odd_y),
        (z, x, 1 - 2 * odd_x),
    ]


def letter_orbit(x, z, nbits: int):
    """Each string's letter orbit: ``(rep, sign, size, flagged)``.

    ``rep`` is the smallest :func:`key` among the six :func:`letter_images`,
    the orbit's representative, and ``sign`` (+1 or -1) the sign of the
    first map that takes the string to it.  ``size`` is the number of
    distinct images: 1 for the identity, else 3 or 6, since only the
    identity is fixed by the cyclic maps.  ``flagged`` marks the strings
    whose letter counts #X, #Y, #Z are not all even or all odd: a global
    rotation sends each to minus itself (``ZZZ`` under X <-> Y, Z -> -Z;
    ``XZ`` under the pi rotation about Z), so any invariant operator gives
    it coefficient 0.  On the other strings the signs are consistent: a
    string and its image under a map get the same ``rep``, and signs that
    differ by the map's sign.
    """
    images = letter_images(x, z)
    own = key(x, z, nbits)
    rep, sign, fixed = own, np.ones_like(own), np.zeros_like(own)
    for ix, iz, s in images:
        k = key(ix, iz, nbits)
        lower = k < rep
        rep = np.where(lower, k, rep)
        sign = np.where(lower, s, sign)
        fixed += k == own
    by_z, by_y, by_x = (s for _, _, s in images[3:])
    return rep, sign, 6 // fixed, (by_z != by_x) | (by_y != by_x)


def rotations(m, n_sites: int):
    """Masks ``m`` rotated by each two-site translation: row j moves bit k to bit k + 2j mod N."""
    ks = np.arange(0, n_sites, 2)[:, None]
    return ((m << ks) | (m >> (n_sites - ks))) & ((1 << n_sites) - 1)


def i_power(x, z):
    """The complex unit i**|x&z|, with which P(x, z) = i**|x&z| X^x Z^z."""
    return _UNITS[np.bitwise_count(x & z) & 3]


def parity_sign(a, b):
    """(-1)**|a&b| as floats: Z^b on basis state a, or X^a against Z^b."""
    return 1.0 - 2.0 * (np.bitwise_count(a & b) & 1)


def walsh_rows(cur: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """Walsh transform ``t[m] = sum_b (-1)^{popcount(b & m)} v[b]`` of each row of ``cur``.

    Stage k takes each row's entries pairwise, (2i, 2i+1) -> i and i + dim/2,
    to their sum and difference: the butterfly on the bit that started as bit
    k, which then moves to the top.  After log2(dim) stages the bits are back
    in place, each entry computed from the same operands in the same stage
    order as by in-place butterflies with h = 1, 2, 4, ..., but every stage
    reads and writes whole rows.  Stages ping-pong between ``cur`` and
    ``nxt``, of one shape and dtype (an integer table stays exact); returns
    the one holding the result.
    """
    r, dim = cur.shape
    half = dim >> 1
    for _ in range(dim.bit_length() - 1):
        pairs = cur.reshape(r, half, 2)
        np.add(pairs[:, :, 0], pairs[:, :, 1], out=nxt[:, :half])
        np.subtract(pairs[:, :, 0], pairs[:, :, 1], out=nxt[:, half:])
        cur, nxt = nxt, cur
    return cur


def anticommute(x1, z1, x2, z2):
    """True where P(x1, z1) and P(x2, z2) anticommute: |x1&z2| + |z1&x2| is odd."""
    return (np.bitwise_count((x1 & z2) ^ (z1 & x2)) & 1).astype(bool)


def _count(m):
    return np.bitwise_count(m).astype(np.int64)


def product(x1, z1, x2, z2):
    """``(x, z, k)`` with P(x1, z1) P(x2, z2) = i**k P(x, z), k in 0..3.

    Each factor is i**|x&z| X^x Z^z; moving Z^z1 past X^x2 gives
    (-1)**|z1&x2|, and the product's own unit is divided back out.
    """
    x, z = x1 ^ x2, z1 ^ z2
    k = _count(x1 & z1) + _count(x2 & z2) + 2 * _count(z1 & x2) - _count(x & z)
    return x, z, k % 4
