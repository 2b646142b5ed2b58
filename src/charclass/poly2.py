"""Exact polynomial arithmetic over GF(2).

Variables are written ``x1, x2, ...`` (indices start at 1).  A monomial is a
product of variable powers; a polynomial is a set of monomials, because over
GF(2) every coefficient is 0 or 1 and addition toggles membership.  All
arithmetic here is exact -- there are no floats and no tolerances anywhere.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass, field
from itertools import compress
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator

__all__ = [
    "Monomial",
    "Poly",
    "format_monomial",
    "format_poly",
    "parse_poly",
]

_EXPONENT = itemgetter(1)
_FACTORS = attrgetter("factors")
# the set bit positions of each byte value, in increasing order
_BYTE_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))


class _ByteRows(dict):
    """Row k maps a byte b to ``join`` of the ``entry`` of each variable of
    the squarefree monomial b << 8k, in increasing order.

    Fixed data, independent of any input; a row is built on first use, so
    importing the module builds none.  Every row of offset k shares the
    same eight entries.
    """

    def __init__(self, entry: Callable[[int], object], join: Callable[[Iterable], object]):
        super().__init__()
        self.entry, self.join = entry, join

    def __missing__(self, k: int) -> tuple:
        entry = [self.entry(8 * k + i + 1) for i in range(8)].__getitem__
        row = self[k] = tuple(self.join(map(entry, bits)) for bits in _BYTE_BITS)
        return row


# the factors of each byte's monomial, and their text, each factor led by
# "*" ("" for the byte 0), so the text of a mask joins its bytes' texts
_BYTE_FACTORS = _ByteRows(lambda v: (v, 1), tuple)
_BYTE_TEXT = _ByteRows("*x{}".format, "".join)


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
                rule = "must be >= 1" if var < 1 else "must be strictly increasing"
                raise ValueError(f"variables {rule}: {self.factors}")
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

        `_joined_rows` joins the factors one step per byte: those of a
        nonzero byte k are a row of the lazily built `_BYTE_FACTORS` table,
        so monomials share their ``(v, 1)`` pairs; a zero byte builds and
        joins no row.  Rows of increasing k hold increasing variables, so
        the joined factors are valid by construction and the term is made by
        `_squarefree_monomial`; a negative mask has no variable set and
        raises ValueError.
        """
        if mask < 0:
            raise ValueError(f"mask must be >= 0, got {mask}")
        return _squarefree_monomial(_joined_rows(mask, _BYTE_FACTORS, ()))

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


def _joined_rows(mask: int, rows: _ByteRows, joined: tuple | str) -> tuple | str:
    """``joined`` followed by the entry of ``rows`` of each nonzero byte of
    the mask (>= 0), lowest first; a zero byte builds and joins no row."""
    k = 0
    while mask:
        if b := mask & 255:
            joined += rows[k][b]
        mask >>= 8
        k += 1
    return joined


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
    Bott engine: `_packed_text` writes its text in this order from the
    bits alone.
    """
    ordered = sorted(terms, key=_FACTORS)
    if len(set(map(Monomial.degree, ordered))) > 1:
        ordered.sort(key=Monomial.degree)
    return ordered


@dataclass(frozen=True, slots=True)
class Poly:
    """A polynomial over GF(2): a finite set of monomials.

    Addition is symmetric difference (coefficients live in GF(2)); the zero
    polynomial is the empty set.  A grade of a class table is a
    `_PackedPoly`, which holds only its bits: its text is written from
    them when it is rendered, and its terms are built when they are first
    read; equality, hash and repr come from the terms alone, so it equals
    the Poly of the same terms.
    """

    terms: frozenset[Monomial] = field(default_factory=frozenset)

    def __eq__(self, other: object) -> bool:
        """Equal terms, whichever class holds them: the dataclass form
        would refuse a `_PackedPoly` for being another class."""
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

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
        by `_canonical_order`.  A Poly built by `_packed_poly` is rendered
        from its bits, in this order, with no sort, but this sorts.
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


def _frozen_setattr(self: object, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: object, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# The methods a frozen slots dataclass generates refuse a field, but for any
# other name they call super() with the class as it was before the slots
# rebuilt it, which raises TypeError.  These refuse every name alike; the
# constructors and the descriptor setters never call them.
Monomial.__setattr__ = Poly.__setattr__ = _frozen_setattr
Monomial.__delattr__ = Poly.__delattr__ = _frozen_delattr


class _PackedPoly(Poly):
    """The Poly `_packed_poly` makes of a homogeneous packed vector: it
    holds only the bits, and leaves ``terms`` unset until something reads
    them.  `format_poly` writes its text from the bits when asked, and
    `is_zero` and ``len`` answer from them, so rendering, testing and
    counting a class-table grade build no `Monomial`, and testing or
    counting one writes no text.

    The hook is on this subclass, not on `Poly`: CPython specializes no
    attribute read on a class that defines ``__getattr__``, and on `Poly`
    that made every read of ``terms`` several times slower.
    """

    __slots__ = ("_bits",)

    def __getattr__(self, name: str) -> frozenset[Monomial]:
        """The terms, built from the bits once, on the first read of the
        unset ``terms`` slot (Python calls this only for an unset slot);
        any other unset name is an error."""
        if name != "terms":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        terms = frozenset(_packed_terms(self._bits))
        _set_terms(self, terms)
        return terms

    def __reduce__(self) -> tuple:
        # a copy or a pickle is made again from the bits
        return _packed_poly, (self._bits,)

    def is_zero(self) -> bool:
        return not self._bits

    def __len__(self) -> int:
        return self._bits.bit_count()


_set_bits = _PackedPoly._bits.__set__


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


def _factors_text(factors: tuple[tuple[int, int], ...]) -> str:
    return "*".join(map(_FACTOR_TEXT.__getitem__, factors)) or "1"


def format_monomial(m: Monomial) -> str:
    return _factors_text(m.factors)


def format_poly(p: Poly) -> str:
    if type(p) is _PackedPoly:
        return _packed_text(p._bits)
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

_LOW_BYTES: list[list] = []  # filled on first use by `_low_bytes`
_ZERO_BLOCK = bytes(32)


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
    one degree (descending `_reversed_binary`); the text of each b, the
    head of the terms of its bucket ("" for b = 0); and the separator
    " + " and that head, which joins a bucket's higher-variable texts.
    Fixed data, built on first use, so importing the module builds none."""
    if not _LOW_BYTES:
        head = [t[1:] for t in _BYTE_TEXT[0]]
        order = sorted(range(256), key=_reversed_binary, reverse=True)
        _LOW_BYTES.extend((order, head, [" + " + t for t in head]))
    return _LOW_BYTES


def _block_bytes(v: int) -> dict[int, bytes]:
    """The nonzero 32-byte blocks of the packed vector v, lowest first:
    bit j of byte i of block h is the mask 256h + 8i + j."""
    data = v.to_bytes(-(-v.bit_length() // 256) * 32, "little")
    chunks = [data[s : s + 32] for s in range(0, len(data), 32)]
    return {h: c for h, c in enumerate(chunks) if c != _ZERO_BLOCK}


def _packed_poly(v: int) -> Poly:
    """The Poly of the homogeneous packed vector v (bit m is the coefficient
    of the squarefree monomial of mask m).  It keeps v alone: `format_poly`
    writes its text with `_packed_text`, and its terms are built by
    `_packed_terms` when something first reads them."""
    p = object.__new__(_PackedPoly)
    _set_bits(p, v)
    return p


def _packed_text(v: int) -> str:
    """The text of the packed vector v, its terms by descending reversed
    mask, written from the bits alone: no `Monomial` is made and no sort
    runs over the terms.  For a homogeneous v that is the canonical order,
    so this is the `format_poly` text of its grade.

    Within one degree, the factor-tuple order is the descending order of
    rev(m), m with its bits reversed: A precedes B iff the least variable
    of A ^ B lies in A, the highest bit of rev.  With H bits for the block
    h of m = 256h + b, rev(m) = rev_8(b) * 2^H + rev_H(h), so the terms
    come out ordered when the blocks are walked by descending rev_H(h),
    each block's text goes in the bucket of each of its low bytes, and the
    buckets are joined by descending rev_8(b); `_reversed_binary` gives
    both orders without a width.  Block 0 has the least key, so its terms
    (text "", the low byte alone) come last in their buckets.

    One walk over the nonzero blocks appends each block's one text,
    written once from `_BYTE_TEXT` rows, to its buckets; a bucket b is
    joined once, as the head of b and then its texts, each after " + " and
    that head, so no term is concatenated on its own.  Bucket 0 has no
    head: its texts lose their leading "*", and block 0's is the term 1.
    """
    order, head, sep = _low_bytes()
    blocks = _block_bytes(v)
    buckets: list[list[str]] = [[] for _ in range(256)]
    for h in sorted(blocks, key=_reversed_binary, reverse=True):
        c, text = blocks[h], _joined_rows(h << 8, _BYTE_TEXT, "")
        for i in compress(range(0, 256, 8), c):
            for j in _BYTE_BITS[c[i >> 3]]:
                buckets[i | j].append(text)
    if buckets[0]:
        buckets[0] = [t[1:] or "1" for t in buckets[0]]
    full = list(compress(order, map(buckets.__getitem__, order)))
    texts = map(str.join, map(sep.__getitem__, full), map(buckets.__getitem__, full))
    return " + ".join(map(str.__add__, map(head.__getitem__, full), texts)) or "0"


def _packed_terms(v: int) -> Iterator[Monomial]:
    """The terms of the packed vector v, in no set order, from the same
    walk over its nonzero blocks: the factors of the low byte b are the
    row `_BYTE_FACTORS[0]`, those of the block h are joined once per block
    by `_joined_rows`.  Both are strictly increasing with exponent 1, so
    each term is made by the unchecked `_squarefree_monomial`."""
    low = _BYTE_FACTORS[0]
    for h, c in _block_bytes(v).items():
        high = _joined_rows(h << 8, _BYTE_FACTORS, ())
        for i in compress(range(0, 256, 8), c):
            for j in _BYTE_BITS[c[i >> 3]]:
                yield _squarefree_monomial(low[i | j] + high)
