"""Bit-packed N-site Pauli strings.

A string is stored bit-packed: ``x_mask`` has bit ``j-1`` set iff site ``j``
carries ``X`` or ``Y``, ``z_mask`` has bit ``j-1`` set iff site ``j`` carries
``Z`` or ``Y``.  Site 1 maps to the lowest-order bit; sites are cyclic, so
site ``N+1`` is site 1.  The operator represented is

    i**phase_power * W_1 (x) W_2 (x) ... (x) W_N,

with ``W_j in {I, X, Y, Z}`` read off the mask bits.  The global phase is
tracked as a power of ``i`` modulo 4 and never as a floating scalar.  The
library multiplies strings only in bulk, on mask arrays, with the popcount
phase of :func:`charges.boost_step`; the single-string product is a test
oracle.

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

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


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
        scale = _I_POW[(self.phase_power + (self.x_mask & self.z_mask).bit_count()) % 4]
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
