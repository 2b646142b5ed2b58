"""Tests for exact GF(2) polynomial arithmetic.

The expected values here are produced by a deliberately naive oracle
(`_oracle_mul` / `_oracle_pow`) that multiplies by full distribution with
integer multiplicities and reduces mod 2 at the end, so the fast paths in
`poly2` are checked against an independent computation.
"""

import ast
from collections import Counter
from dataclasses import FrozenInstanceError
import os
from pathlib import Path
import random
import subprocess
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from charclass import poly2
from charclass.bott import _DenseRing
from charclass.poly2 import Monomial, Poly, format_monomial, format_poly, parse_poly
from charclass.poly2 import _reversed_binary
from oracles import canonical_key as oracle_key
from oracles import format_monomial as oracle_format_monomial
from oracles import format_poly as oracle_format_poly
from oracles import mask_monomial


def _oracle_mul(a: Poly, b: Poly) -> Poly:
    counts: Counter[Monomial] = Counter()
    for m1 in a.terms:
        for m2 in b.terms:
            counts[m1 * m2] += 1
    return Poly(frozenset(m for m, c in counts.items() if c % 2))


def _oracle_pow(p: Poly, e: int) -> Poly:
    counts: Counter[Monomial] = Counter({Monomial.one(): 1})
    for _ in range(e):
        nxt: Counter[Monomial] = Counter()
        for m1, c1 in counts.items():
            for m2 in p.terms:
                nxt[m1 * m2] += c1
        counts = nxt
    return Poly(frozenset(m for m, c in counts.items() if c % 2))


def _random_poly(rng: random.Random, nvars: int = 4, max_exp: int = 3, max_terms: int = 5) -> Poly:
    terms = set()
    for _ in range(rng.randrange(max_terms + 1)):
        factors = []
        for v in range(1, nvars + 1):
            e = rng.randrange(max_exp + 1)
            if e:
                factors.append((v, e))
        terms.add(Monomial(tuple(factors)))
    return Poly(frozenset(terms))


class TestMonomial:
    def test_validation(self):
        with pytest.raises(ValueError):
            Monomial(((2, 1), (1, 1)))  # not increasing
        with pytest.raises(ValueError):
            Monomial(((1, 0),))  # zero exponent
        with pytest.raises(ValueError):
            Monomial(((1, 1), (1, 2)))  # duplicate variable

    def test_mul_merges_exponents(self):
        a = Monomial.var(1) * Monomial.var(3, 2)
        b = Monomial.var(1, 2) * Monomial.var(2)
        assert (a * b).factors == ((1, 3), (2, 1), (3, 2))

    def test_pow(self):
        m = Monomial(((1, 2), (4, 1)))
        assert (m ** 3).factors == ((1, 6), (4, 3))
        assert (m ** 0) == Monomial.one()

    def test_mask_round_trip(self):
        m = Monomial.from_mask(0b10101)
        assert m.variables() == (1, 3, 5)
        assert m.mask() == 0b10101
        with pytest.raises(ValueError):
            Monomial.var(2, 2).mask()

    def test_from_mask_matches_bit_by_bit_loop(self):
        def reference(mask: int) -> Monomial:
            factors = []
            i = 1
            while mask:
                if mask & 1:
                    factors.append((i, 1))
                mask >>= 1
                i += 1
            return Monomial(tuple(factors))

        rng = random.Random(2029)
        masks = list(range(1 << 10)) + [rng.getrandbits(29) for _ in range(500)]
        masks += [(1 << 29) - 1, 1 << 28]
        # past 64 bits, byte offsets reached in any order: high ones first
        wide = [1 << 200, 1 << 65, (1 << 64) | 1, 1 << 9, 1 << 8, 0b10]
        wide += [sum(1 << b for b in (1, 8, 9, 64, 65, 200)), (1 << 201) - 1]
        wide += [rng.getrandbits(rng.randrange(1, 260)) for _ in range(300)]
        for mask in masks + wide:
            m = Monomial.from_mask(mask)
            assert m == reference(mask) == mask_monomial(mask)
            assert m.mask() == mask

    def test_from_mask_refuses_a_negative_mask(self):
        # -1 >> 8 is -1: the byte loop would never end
        for mask in (-1, -256, -(1 << 70)):
            with pytest.raises(ValueError, match="mask must be >= 0"):
                Monomial.from_mask(mask)

    def test_degree_and_queries(self):
        m = Monomial(((2, 3), (5, 1)))
        assert m.degree() == 4
        assert m.exponent(2) == 3
        assert m.exponent(4) == 0
        assert m.exponents() == {2: 3, 5: 1}
        assert not m.is_squarefree()
        assert Monomial.from_mask(0b110).is_squarefree()


class TestPolyArithmetic:
    def test_terms_must_be_monomials(self):
        for terms in ({((1, 1),)}, {"x1"}, {Monomial.one(), 1}):
            with pytest.raises(TypeError, match="Poly terms must be Monomial"):
                Poly(frozenset(terms))
        with pytest.raises(TypeError, match="Poly terms must be Monomial"):
            Poly.of(["x1"])

    def test_addition_cancels_in_pairs(self):
        p = Poly.var(1) + Poly.var(2)
        assert p + Poly.var(1) == Poly.var(2)
        assert p + p == Poly.zero()

    def test_cube_of_three_variable_sum(self):
        # (x1 + x2 + x3)^3 has exactly the 9 monomials with odd multinomial
        # coefficient: the three cubes and the six x_i^2 x_j; x1*x2*x3 has
        # multiplicity 6 and cancels.
        p = Poly.var(1) + Poly.var(2) + Poly.var(3)
        cube = p ** 3
        expected = Poly(
            frozenset(
                {
                    Monomial(((1, 3),)),
                    Monomial(((2, 3),)),
                    Monomial(((3, 3),)),
                    Monomial(((1, 2), (2, 1))),
                    Monomial(((1, 2), (3, 1))),
                    Monomial(((1, 1), (2, 2))),
                    Monomial(((2, 2), (3, 1))),
                    Monomial(((1, 1), (3, 2))),
                    Monomial(((2, 1), (3, 2))),
                }
            )
        )
        assert cube == expected
        assert cube == _oracle_pow(p, 3)

    def test_mul_matches_oracle(self):
        rng = random.Random(20260817)
        for _ in range(50):
            a = _random_poly(rng)
            b = _random_poly(rng)
            assert a * b == _oracle_mul(a, b)

    def test_pow_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(20):
            p = _random_poly(rng, nvars=3, max_exp=2, max_terms=4)
            for e in range(9):
                assert p ** e == _oracle_pow(p, e)

    def test_frobenius_square(self):
        rng = random.Random(99)
        for _ in range(30):
            a = _random_poly(rng)
            b = _random_poly(rng)
            assert (a + b) ** 2 == a ** 2 + b ** 2

    def test_ring_laws(self):
        rng = random.Random(5)
        for _ in range(30):
            a, b, c = (_random_poly(rng) for _ in range(3))
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a * Poly.one() == a
            assert a * Poly.zero() == Poly.zero()

    def test_degree_and_homogeneity(self):
        assert Poly.zero().degree() == -1
        p = Poly.var(1) * Poly.var(2) + Poly.var(3, 2)
        assert p.degree() == 2
        assert p.is_homogeneous(2)
        assert not (p + Poly.one()).is_homogeneous(2)
        assert Poly.zero().is_homogeneous(7)


class TestTextGrammar:
    def test_render_examples(self):
        assert format_poly(Poly.zero()) == "0"
        assert format_poly(Poly.one()) == "1"
        m = Monomial(((3, 2), (5, 1)))
        assert format_poly(Poly(frozenset({m}))) == "x3^2*x5"

    def test_canonical_order(self):
        p = Poly.var(2) * Poly.var(3) + Poly.var(1) * Poly.var(5) + Poly.var(1)
        assert format_poly(p) == "x1 + x1*x5 + x2*x3"

    def test_parse_examples(self):
        assert parse_poly("0") == Poly.zero()
        assert parse_poly("1") == Poly.one()
        assert parse_poly("x3^2*x5") == Poly(frozenset({Monomial(((3, 2), (5, 1)))}))
        assert parse_poly(" x1 + x2 ") == Poly.var(1) + Poly.var(2)
        # repeated terms cancel over GF(2)
        assert parse_poly("x1 + x1") == Poly.zero()

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(50):
            p = _random_poly(rng)
            assert parse_poly(format_poly(p)) == p

    def test_parse_errors(self):
        for bad in ["", "x0", "x1^0", "y2", "x1**x2", "x1 +", "x-3"]:
            with pytest.raises(ValueError):
                parse_poly(bad)


_monomials = st.dictionaries(
    st.integers(1, 70), st.integers(1, 4), max_size=6
).map(Monomial.from_exponents)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.frozensets(_monomials, max_size=12))
def test_rendering_matches_the_per_term_oracle(terms):
    p = Poly(terms)
    assert format_poly(p) == oracle_format_poly(p)
    assert p.monomials() == sorted(p.terms, key=oracle_key)
    assert p.degree() == max((oracle_key(m)[0] for m in terms), default=-1)
    for m in terms:
        assert m.degree() == oracle_key(m)[0]
        assert format_monomial(m) == oracle_format_monomial(m)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.randoms(use_true_random=False))
def test_rendering_of_dense_grade_pieces_matches_the_per_term_oracle(n, rng):
    # a grade piece of a random vector v < 2^(2^n) is homogeneous with up to
    # about C(12, 6) / 2 terms, which the small mixed-degree draws above
    # never reach.  n = 1..12 covers n < 8 and both sides of each 32-byte
    # block edge, where the text gains the factors of x9 and up
    v = rng.getrandbits(1 << n)
    pieces = []
    for k in range(n + 1):
        piece = _DenseRing.to_poly(_DenseRing.grade_piece(v, n, k))
        assert format_poly(piece) == oracle_format_poly(piece)
        assert piece.monomials() == sorted(piece.terms, key=oracle_key)
        for m in piece:
            assert Monomial(m.factors) == m  # the unchecked terms re-validate
        pieces.append(piece)
    # the grades together hold every mask of v, each once; their sum is a
    # plain Poly, so it renders through the sort by degree, then factor tuple
    bits = [m for m in range(1 << n) if v >> m & 1]
    whole = sum(pieces, Poly.zero())
    assert whole == Poly.of(map(mask_monomial, bits))
    assert sum(map(len, pieces)) == len(bits)
    assert format_poly(whole) == oracle_format_poly(whole)


@pytest.mark.parametrize("n", (1, 7, 8, 9, 12, 13))
def test_a_dense_grade_piece_builds_its_terms_on_first_read(n, monkeypatch):
    # to_poly keeps only the bits: rendering, is_zero and len make no
    # Monomial; the first read of .terms builds them, from every block, and
    # a second read returns the same frozenset
    def refuse(factors):
        raise AssertionError("a Monomial was built")

    v = random.Random(n).getrandbits(1 << n)
    monkeypatch.setattr(poly2, "_squarefree_monomial", refuse)
    pieces = [_DenseRing.to_poly(_DenseRing.grade_piece(v, n, k)) for k in range(n + 1)]
    texts = [format_poly(p) for p in pieces]
    sizes = [len(p) for p in pieces]
    assert [p.is_zero() for p in pieces] == [not size for size in sizes]
    monkeypatch.undo()
    for k, (piece, text, size) in enumerate(zip(pieces, texts, sizes)):
        masks = [m for m in range(1 << n) if v >> m & 1 and m.bit_count() == k]
        terms = piece.terms
        assert terms == frozenset(map(mask_monomial, masks)) and size == len(masks)
        assert piece.terms is terms
        assert text == oracle_format_poly(Poly(terms))


def test_repr_lists_the_terms_in_canonical_order():
    p = parse_poly("x3 + x1*x2 + 1")
    assert repr(p) == (
        "Poly(terms=frozenset({Monomial(factors=()), Monomial(factors=((3, 1),)), "
        "Monomial(factors=((1, 1), (2, 1)))}))"
    )
    assert repr(Poly.zero()) == "Poly(terms=frozenset())"
    assert eval(repr(p), {"Poly": Poly, "Monomial": Monomial}) == p


def test_repr_is_a_function_of_the_value():
    # a frozenset iterates in an order that follows its insertion history,
    # so equal grade pieces built in two orders once printed apart
    rng = random.Random(25)
    orders_differ = 0
    for n in range(1, 13):
        v = rng.getrandbits(1 << n)
        for k in range(n + 1):
            ms = _DenseRing.to_poly(_DenseRing.grade_piece(v, n, k)).monomials()
            forward, backward = Poly.of(ms), Poly(frozenset(reversed(ms)))
            assert forward == backward
            assert repr(forward) == repr(backward)
            orders_differ += list(forward.terms) != list(backward.terms)
    assert orders_differ > 10


def _fresh_python(code: str) -> list[str]:
    """The stdout lines of ``code`` run in a new interpreter on this ``src``."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path),
    ).stdout.split("\n")


def test_import_builds_no_byte_factor_rows():
    # the table is built row by row on first use, one row per nonzero byte
    # (x101 is bit 4 of byte 12, and bytes 0-11 are zero), and the low-byte
    # order and texts of the packed grades on the first grade rendered, not
    # the first grade read; eager ones slow every command-line start
    out = _fresh_python(
        "import charclass.cli, charclass.bott as b, charclass.poly2 as p; "
        "print(len(p._BYTE_FACTORS), len(p._LOW_BYTES)); "
        "p.Monomial.from_mask(1 << 100); print(sorted(p._BYTE_FACTORS)); "
        "g = b.total_sw(b.main_matrix(5))[3]; print(g.is_zero(), len(g), len(p._LOW_BYTES)); "
        "p.format_poly(g); print(sorted(p._LOW_BYTES[0]) == list(range(256))); "
        "print([len(t) for t in p._LOW_BYTES])"
    )
    assert out[:5] == ["0 0", "[12]", "False 1 0", "True", "[256, 256, 256]"]


def test_import_builds_no_block_text_row():
    # the text rows are built one per byte offset on first use, like the
    # factor rows; eager ones slow every command-line start
    out = _fresh_python(
        "import charclass.cli, charclass.poly2 as p; print(len(p._BYTE_TEXT))"
    )
    assert out[:1] == ["0"]


def test_first_rendering_builds_only_the_rows_of_the_bytes_it_meets():
    # main n = 11 sweeps x1..x9, so its grades meet bytes 0 and 1 of a
    # mask; x4*x21 (mask 2^20 + 8) meets bytes 0 and 2, and its block
    # index 2^12 has a zero low byte, which builds no row
    out = _fresh_python(
        "import charclass.bott as b, charclass.poly2 as p; "
        "g = b.total_sw(b.main_matrix(5))[3]; print(p.format_poly(g), sorted(p._BYTE_TEXT)); "
        "g = b.total_sw(b.main_matrix(11))[4]; p.format_poly(g); print(sorted(p._BYTE_TEXT)); "
        "print(p.format_poly(p._packed_poly(1 << (1 << 20 | 8))), sorted(p._BYTE_TEXT)); "
        "print(sorted(p._BYTE_FACTORS))"
    )
    assert out[:4] == ["x1*x2*x3 [0]", "[0, 1]", "x4*x21 [0, 1, 2]", "[]"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 16).flatmap(
    lambda H: st.tuples(st.just(H), st.lists(st.integers(0, (1 << H) - 1), max_size=40))
))
@example((8, list(range(256))))
@example((1, [1, 0]))
@example((5, [0, 2, 4, 8, 16, 1]))
def test_the_reversed_key_needs_no_width(case):
    # the order lemma of _packed_poly: descending, the binary digits lowest
    # first order ints below 2^H as their H-bit reversals do, so neither the
    # blocks nor the low bytes need a width for their key
    H, xs = case
    padded = sorted(xs, key=lambda x: f"{x:0{H}b}"[::-1], reverse=True)
    assert sorted(xs, key=_reversed_binary, reverse=True) == padded


def _descending_reversed(bits: set[int]) -> list[int]:
    # the masks by their bit reversals, descending, at a width that holds all
    width = max(bits, default=0).bit_length()
    return sorted(bits, key=lambda m: f"{m:0{width}b}"[::-1], reverse=True)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sets(st.integers(0, 4095) | st.sampled_from((255, 256, 257, 511, 512, 767)),
               max_size=60))
@example({1, 257})
@example({0, 256})
@example({0})
@example({3, 259, 515, 771})
def test_packed_text_lists_any_vector_by_descending_reversed_mask(bits):
    # the order lemma behind the writer, for a vector of any degrees: the
    # terms come by descending reversed mask, low-byte buckets over blocks.
    # In one degree a bucket never holds block 0 beside a higher block, but
    # across degrees it does (x1 and x1*x9), and block 0 comes last
    v = sum(1 << m for m in bits)
    texts = [oracle_format_monomial(mask_monomial(m)) for m in _descending_reversed(bits)]
    assert poly2._packed_text(v) == (" + ".join(texts) or "0")


SRC = Path(__file__).resolve().parent.parent / "src" / "charclass"


def _names(path: Path) -> tuple[set[str], set[str]]:
    """The names a module imports from ``.poly2``, and every name,
    attribute and imported name it mentions."""
    tree = ast.parse(path.read_text())
    from_poly2, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            used |= names
            if node.level == 1 and node.module == "poly2":
                from_poly2 |= names
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return from_poly2, used


def test_bott_hands_poly2_only_bits():
    # poly2 writes a polynomial's text in one place: bott imports the
    # algebra and the writer it hands a packed grade to, not the tables
    # and unchecked constructors the writer is built from
    from_poly2, _ = _names(SRC / "bott.py")
    assert "_packed_poly" in from_poly2
    assert from_poly2 <= {"Monomial", "Poly", "_packed_poly"}


def test_only_poly2_touches_the_kept_text():
    # a packed grade keeps its bits alone, read and set in poly2 alone, and
    # its text is written from them, by poly2 alone; no module keeps a text
    kept = {"_PackedPoly", "_bits", "_set_bits", "_packed_text"}
    assert kept <= _names(SRC / "poly2.py")[1]
    assert poly2._PackedPoly.__slots__ == ("_bits",)
    for path in sorted(SRC.glob("*.py")):
        names = _names(path)[1]
        assert not {"_text", "_set_text"} & names, path.name
        if path.name != "poly2.py":
            assert not kept & names, path.name


def test_factor_text_holds_only_the_variables_rendered():
    # nothing at import; then one entry per exponent-1 variable rendered.
    # (True, 1) == (1, 1) as a key, so a stored "xTrue" would be the text
    # of every later x1; the constructor refuses a bool variable
    out = _fresh_python(
        "import charclass.cli, charclass.poly2 as p; "
        "print(len(p._FACTOR_TEXT)); "
        "print(p.format_poly(p.parse_poly('x3^2*x700 + x5 + x700'))); "
        "print(sorted(p._FACTOR_TEXT.items())); "
        "\ntry:\n    p.Monomial(((True, 1),))\nexcept ValueError as exc:\n"
        "    print(exc)\n"
        "print(p.format_poly(p.Poly.var(1)))"
    )
    assert out[:5] == [
        "0", "x5 + x700 + x3^2*x700", "[((5, 1), 'x5'), ((700, 1), 'x700')]",
        "factors must be pairs of integers: ((True, 1),)", "x1",
    ]


@pytest.mark.parametrize(
    "factors",
    [((True, 1),), ((1.5, 1),), ((1, 2.0),), ((1, 1), (2, True)), (("3", 1),)],
)
def test_monomial_accepts_only_integer_factors(factors):
    # (True, 1) once equalled x1, and (1.5, 1) and (1, 2.0) rendered as
    # x1.5 and x1^2.0
    with pytest.raises(ValueError, match="factors must be pairs of integers"):
        Monomial(factors)
    with pytest.raises(ValueError, match="factors must be pairs of integers"):
        Monomial.var(*factors[-1])


def test_a_variable_below_x1_names_the_index_rule():
    # these once said "strictly increasing", which they may well be
    for make in (
        lambda: Monomial(((0, 1),)), lambda: Monomial.var(0), lambda: Poly.var(-2),
        lambda: Monomial.from_exponents({0: 1}), lambda: Monomial(((-1, 1), (2, 1))),
        lambda: Monomial(((3, 1), (0, 2))),
    ):
        with pytest.raises(ValueError, match=r"^variables must be >= 1: "):
            make()


def test_a_misordered_variable_still_names_the_order_rule():
    for factors in (((2, 1), (1, 1)), ((1, 1), (1, 2))):
        with pytest.raises(ValueError, match=r"^variables must be strictly increasing: "):
            Monomial(factors)


def test_every_assignment_to_a_frozen_value_is_refused():
    # a frozen slots dataclass once raised TypeError (from super()) for a
    # name that is not a field, and let a subclass slot be set
    grade = _DenseRing.to_poly(sum(1 << m for m in (7, 11, 13, 14)))
    text = format_poly(grade)
    for obj in (Monomial.one(), Monomial.from_mask(5), Poly.zero(), Poly.var(2), grade):
        for name in ("x", "terms", "factors", "_bits"):
            with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
                setattr(obj, name, 0)
            with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
                delattr(obj, name)
    assert format_poly(grade) == text == "x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + x2*x3*x4"
    assert Monomial.from_mask(5).factors == ((1, 1), (3, 1)) and Poly.zero().is_zero()
