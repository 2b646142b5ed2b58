"""Exact polynomial arithmetic over GF(2).

Variables are written ``x1, x2, ...`` (indices start at 1).  A monomial is a
product of variable powers; a polynomial is a set of monomials, because over
GF(2) every coefficient is 0 or 1 and addition toggles membership.  All
arithmetic here is exact -- there are no floats and no tolerances anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator

__all__ = [
    "Monomial",
    "Poly",
    "format_monomial",
    "format_poly",
    "parse_poly",
]

_EXPONENT = itemgetter(1)
_FACTORS = attrgetter("factors")


class _ByteFactors(dict):
    """Row k maps a byte b to the factors of the squarefree monomial b << 8k.

    Fixed data, independent of any input; a row is built on first use, so
    importing the module builds none.  Every row of offset k shares the
    same eight ``(v, 1)`` pairs.
    """

    def __missing__(self, k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        pairs = [(8 * k + i + 1, 1) for i in range(8)]
        row = self[k] = tuple(
            tuple(pair for i, pair in enumerate(pairs) if b >> i & 1)
            for b in range(256)
        )
        return row


_BYTE_FACTORS = _ByteFactors()


@dataclass(frozen=True, slots=True)
class Monomial:
    """A product of variable powers, e.g. ``x1^2*x3``.

    ``factors`` is a tuple of ``(variable, exponent)`` pairs of ints (not
    bools) with strictly increasing variable indices (>= 1) and exponents
    >= 1.  The empty tuple is the constant monomial 1.
    """

    factors: tuple[tuple[int, int], ...] = ()

    def __hash__(self) -> int:
        return hash(self.factors)

    def __post_init__(self) -> None:
        prev = 0
        for var, exp in self.factors:
            if type(var) is not int or type(exp) is not int:
                raise ValueError(f"factors must be pairs of integers: {self.factors}")
            if var <= prev:
                raise ValueError(f"variables must be strictly increasing: {self.factors}")
            if exp < 1:
                raise ValueError(f"exponents must be >= 1: {self.factors}")
            prev = var

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls) -> "Monomial":
        return cls(())

    @classmethod
    def var(cls, i: int, exp: int = 1) -> "Monomial":
        return cls(((i, exp),))

    @classmethod
    def from_exponents(cls, exponents: dict[int, int]) -> "Monomial":
        return cls(tuple(sorted((v, e) for v, e in exponents.items() if e)))

    @classmethod
    def from_mask(cls, mask: int) -> "Monomial":
        """Squarefree monomial whose variable set is the bitmask (bit i-1 <-> x_i).

        One step per byte: the factors of a nonzero byte k are a row of the
        lazily built `_BYTE_FACTORS` table, so monomials share their
        ``(v, 1)`` pairs; a zero byte builds and joins no row.  Rows of
        increasing k hold increasing variables, so the joined factors are
        valid by construction and the term is made by `_squarefree_monomial`;
        a negative mask has no variable set and raises ValueError.
        """
        if mask < 0:
            raise ValueError(f"mask must be >= 0, got {mask}")
        factors: tuple[tuple[int, int], ...] = ()
        k = 0
        while mask:
            if b := mask & 255:
                factors += _BYTE_FACTORS[k][b]
            mask >>= 8
            k += 1
        return _squarefree_monomial(factors)

    # -- queries ------------------------------------------------------------

    def degree(self) -> int:
        return sum(map(_EXPONENT, self.factors))

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def mask(self) -> int:
        """Bitmask of the variable set; only defined for squarefree monomials."""
        if not self.is_squarefree():
            raise ValueError(f"mask() requires a squarefree monomial, got {self}")
        m = 0
        for var, _ in self.factors:
            m |= 1 << (var - 1)
        return m

    def variables(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.factors)

    def exponent(self, var: int) -> int:
        for v, e in self.factors:
            if v == var:
                return e
        return 0

    def exponents(self) -> dict[int, int]:
        return dict(self.factors)

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        merged: dict[int, int] = dict(self.factors)
        for var, exp in other.factors:
            merged[var] = merged.get(var, 0) + exp
        return Monomial(tuple(sorted(merged.items())))

    def __pow__(self, e: int) -> "Monomial":
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return Monomial.one()
        return Monomial(tuple((v, k * e) for v, k in self.factors))

    def __str__(self) -> str:
        return format_monomial(self)


_set_factors = Monomial.__dict__["factors"].__set__  # bypasses the frozen __setattr__


def _squarefree_monomial(factors: tuple[tuple[int, int], ...]) -> Monomial:
    """The monomial of factors joined from `_BYTE_FACTORS` rows, unchecked.

    Those factors are strictly increasing with exponent 1 by construction,
    so the checks of ``__post_init__`` are skipped; every other monomial
    goes through the public constructor.
    """
    m = object.__new__(Monomial)
    _set_factors(m, factors)
    return m


def _canonical_order(terms: Iterable[Monomial]) -> list[Monomial]:
    """The terms by degree, then factor tuple: the order of any `Poly`
    whose terms came without one.

    One sort on the factor tuple, compared in C; a stable re-sort by
    degree follows only when the terms differ in degree, so a homogeneous
    piece pays one sort.  `format_poly` never sorts a grade of the dense
    Bott engine: `_packed_poly` writes its text in this order from the
    masks alone, and the Poly keeps that text.
    """
    ordered = sorted(terms, key=_FACTORS)
    if len(set(map(Monomial.degree, ordered))) > 1:
        ordered.sort(key=Monomial.degree)
    return ordered


@dataclass(frozen=True, slots=True)
class Poly:
    """A polynomial over GF(2): a finite set of monomials.

    Addition is symmetric difference (coefficients live in GF(2)); the zero
    polynomial is the empty set.
    """

    terms: frozenset[Monomial] = field(default_factory=frozenset)
    # the `format_poly` text, when it was written with the terms; set only
    # by `_packed_poly`, and no part of equality, hash or repr
    _text: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for t in self.terms:
            if not isinstance(t, Monomial):
                raise TypeError(f"Poly terms must be Monomial, got {type(t).__name__}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(frozenset())

    @classmethod
    def one(cls) -> "Poly":
        return cls(frozenset({Monomial.one()}))

    @classmethod
    def var(cls, i: int, exp: int = 1) -> "Poly":
        return cls(frozenset({Monomial.var(i, exp)}))

    @classmethod
    def of(cls, monomials: Iterable[Monomial]) -> "Poly":
        """Sum the monomials over GF(2) (repeats cancel in pairs)."""
        acc: set[Monomial] = set()
        for m in monomials:
            acc.symmetric_difference_update({m})
        return cls(frozenset(acc))

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.terms)

    def monomials(self) -> list[Monomial]:
        """Terms in the canonical order (degree, then factor tuple), sorted
        by `_canonical_order`.  A Poly built by `_packed_poly` keeps its
        text, not this order, so rendering it calls no sort, but this does.
        """
        return _canonical_order(self.terms)

    def degree(self) -> int:
        """Largest term degree; -1 for the zero polynomial."""
        return max((m.degree() for m in self.terms), default=-1)

    def is_homogeneous(self, degree: int) -> bool:
        return all(m.degree() == degree for m in self.terms)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(self.terms ^ other.terms)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly.of(a * b for a in self.terms for b in other.terms)

    def __pow__(self, e: int) -> "Poly":
        """Exact power over GF(2).

        Uses the binary expansion of ``e``: squaring is term-wise
        (``(a + b)^2 = a^2 + b^2`` because cross terms appear twice), so
        ``p^(2^k)`` just raises every monomial to the ``2^k``-th power, and a
        general power is the product of those pieces.
        """
        if e < 0:
            raise ValueError("negative exponent")
        result = Poly.one()
        k = 0
        while e:
            if e & 1:
                piece = Poly(frozenset(m ** (1 << k) for m in self.terms))
                result = result * piece
            e >>= 1
            k += 1
        return result

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        """The dataclass form, with the terms listed in `monomials` order:
        a function of the value, where a frozenset's own iteration order
        follows its insertion history."""
        if not self.terms:
            return "Poly(terms=frozenset())"
        return f"Poly(terms=frozenset({{{', '.join(map(repr, self.monomials()))}}}))"


_set_terms = Poly.__dict__["terms"].__set__  # bypass the frozen __setattr__
_set_text = Poly.__dict__["_text"].__set__


# -- text grammar ------------------------------------------------------------
#
#   poly     := "0" | term (" + " term)*
#   term     := "1" | factor ("*" factor)*
#   factor   := "x" INT ("^" INT)?
#
# Rendering uses the canonical monomial order and no whitespace inside terms;
# parsing is whitespace-tolerant around "+" and "*".

_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


class _FactorText(dict):
    """Maps a factor ``(v, e)`` to its text, ``x<v>`` or ``x<v>^<e>``.

    Only exponent-1 factors are kept, one entry per variable rendered, each
    stored on first use; importing the module builds none.  Higher powers
    are rare and rendered afresh.  A `Monomial` holds only int variables,
    so no stored ``(True, 1)`` can answer for x1.
    """

    def __missing__(self, factor: tuple[int, int]) -> str:
        var, exp = factor
        if exp != 1:
            return f"x{var}^{exp}"
        text = self[factor] = f"x{var}"
        return text


_FACTOR_TEXT = _FactorText()


def format_monomial(m: Monomial) -> str:
    if not m.factors:
        return "1"
    return "*".join(map(_FACTOR_TEXT.__getitem__, m.factors))


def format_poly(p: Poly) -> str:
    if p._text is not None:
        return p._text
    if p.is_zero():
        return "0"
    return " + ".join(map(format_monomial, p.monomials()))


def parse_poly(text: str) -> Poly:
    """Parse the text grammar above; inverse of :func:`format_poly`."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return Poly.zero()
    terms = []
    for term_text in s.split("+"):
        term_text = term_text.strip()
        if not term_text:
            raise ValueError(f"empty term in {text!r}")
        if term_text == "1":
            terms.append(Monomial.one())
            continue
        mono = Monomial.one()
        for factor_text in term_text.split("*"):
            factor_text = factor_text.strip()
            match = _FACTOR_RE.match(factor_text)
            if not match:
                raise ValueError(f"bad factor {factor_text!r} in {text!r}")
            var = int(match.group(1))
            exp = int(match.group(2)) if match.group(2) else 1
            if var < 1:
                raise ValueError(f"variable index must be >= 1 in {text!r}")
            if exp < 1:
                raise ValueError(f"exponent must be >= 1 in {text!r}")
            mono = mono * Monomial.var(var, exp)
        terms.append(mono)
    return Poly.of(terms)


# -- packed grades -----------------------------------------------------------

# the set bit positions of each byte value, in increasing order
_BYTE_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))
_LOW_BYTES: list[list] = []  # filled on first use by `_low_bytes`


def _reversed_binary(x: int) -> str:
    """Sort key: the binary digits of x, lowest first.

    Descending, it orders ints below 2^H as their H-bit reversals do, for
    every H: of two keys where one is a prefix of the other, the longer
    goes on to its top bit, a 1, so the shorter sorts first, as it would
    padded with zeros.
    """
    return f"{x:b}"[::-1]


def _low_bytes() -> list[list]:
    """Three tables of the low byte b of a packed mask (x_1..x_8): the byte
    values in the factor-tuple order of their squarefree monomials within
    one degree (descending `_reversed_binary`); the text of each b alone
    ("1" for b = 0); and that text as the head of a term that goes on in a
    higher block (followed by "*", empty for b = 0).  Fixed data, built on
    first use, so importing the module builds none."""
    if not _LOW_BYTES:
        alone = [format_monomial(_squarefree_monomial(f)) for f in _BYTE_FACTORS[0]]
        order = sorted(range(256), key=_reversed_binary, reverse=True)
        _LOW_BYTES.extend((order, alone, [""] + [t + "*" for t in alone[1:]]))
    return _LOW_BYTES


def _packed_poly(v: int) -> Poly:
    """The Poly of the homogeneous packed vector v (bit m is the coefficient
    of the squarefree monomial of mask m), with its `format_poly` text
    written as its terms are read.

    Bit j of byte i of the 32-byte block h is the term of mask m = 256h + b,
    with the low byte b = 8i + j.  The factors of b (x_1..x_8) are the row
    `_BYTE_FACTORS[0]`; those of h are built once per block by
    `Monomial.from_mask`.  Both are strictly increasing with exponent 1, so
    each term is made by the unchecked `_squarefree_monomial`.  Its text is
    the text of b from `_low_bytes`, then that of h, rendered once per block.

    Within one degree, the factor-tuple order is the descending order of
    rev(m), m with its bits reversed: A precedes B iff the least variable
    of A ^ B lies in A, the highest bit of rev.  With H bits for h,
    rev(m) = rev_8(b) * 2^H + rev_H(h), so the texts come out ordered when
    the blocks are walked by descending rev_H(h), each text is put in the
    bucket of its low byte, and the buckets are joined by descending
    rev_8(b); `_reversed_binary` gives both orders without a width.  No
    sort runs over the terms, and they go into the frozenset in any order.
    `format_poly` returns the kept text; arithmetic builds a Poly without it.
    """
    data = v.to_bytes((v.bit_length() + 7) // 8, "little")
    chunks = [data[s : s + 32] for s in range(0, len(data), 32)]  # block h
    blocks = sorted(
        compress(range(len(chunks)), map(any, chunks)), key=_reversed_binary, reverse=True
    )
    order, alone, head = _low_bytes()
    low = _BYTE_FACTORS[0]
    terms: list[Monomial] = []
    buckets: list[list[str]] = [[] for _ in range(256)]
    for h in blocks:
        high = Monomial.from_mask(h << 8)
        prefixes, high_text = (head, format_monomial(high)) if h else (alone, "")
        high_factors = high.factors
        chunk = chunks[h]
        for i in compress(range(32), chunk):
            for j in _BYTE_BITS[chunk[i]]:
                b = i << 3 | j
                terms.append(_squarefree_monomial(low[b] + high_factors))
                buckets[b].append(prefixes[b] + high_text)
    p = object.__new__(Poly)
    _set_terms(p, frozenset(terms))
    _set_text(p, " + ".join(chain.from_iterable(map(buckets.__getitem__, order))) or "0")
    return p
