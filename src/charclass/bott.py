"""Real Bott manifolds: rings, characteristic classes, and the main verifier.

A real Bott manifold of dimension ``n`` is encoded by a strictly
upper-triangular binary matrix ``A``; its mod-2 cohomology is the quotient of
``GF(2)[x_1..x_n]`` by the relations ``x_j^2 = Lambda_j * x_j`` where
``Lambda_j`` is the sum of the variables marked in column ``j``.  The 2^n
squarefree monomials form a linear basis, the top class is ``x_1*...*x_n``,
and the manifold is orientable exactly when every row of ``A`` has an even
number of ones.

This module provides:

* exact normal forms by multiplication in the squarefree basis
  (`normal_form`): a monomial starts as the bitmask of its variables and
  takes its repeated factors one sweep at a time,
* a fast exact evaluator for the top-class coefficient of a full-degree
  monomial in the main family (`top_class_bit`), the parity of a chain-ring
  placement count (`_placements`, which also counts the key-identity ledger
  of `qring`): a backward DP whose state is one int of 2^k counting lanes
  (k the number of placed digits), advanced per position by a prefix mask
  and k shift-mask-adds of a superset-sum transform,
* total and dual Stiefel-Whitney classes over the dense squarefree basis
  (`total_sw`, `dual_sw`), as one product of the factors
  1 + Lambda_j + ... + Lambda_j^t: t = 1 for w, and t = up_to for the
  truncated inverses that give wbar.  The product stays in x_1..x_h, h the
  highest row of the matrix that holds a one, and its 2^h GF(2)
  coefficients are the bits of one Python int, multiplied by sweeps that
  take the same shift-and-mask step for every variable; the grades are cut
  from it in one pass of masks, a grade becomes a `Poly` only when it is read,
  a `Poly` that holds the grade's bits alone until its text or terms are
  asked for, and a request over ``DENSE_BUDGET`` is refused before any
  allocation,
* the end-to-end verifier `verify_main`, whose witness for every
  n != 0 mod 4 is a main-family manifold M_m (m = 1 mod 4) times circles,
  and whose Steenrod route pairs on M_m.

All arithmetic is over GF(2); there are no tolerances anywhere.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import accumulate
from random import Random
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .poly2 import Monomial, Poly, _packed_poly

__all__ = [
    "BottMatrix",
    "FeasibilityError",
    "GradedClasses",
    "MainReport",
    "UnsupportedDimensionError",
    "alpha",
    "alpha_hat",
    "banded_matrix",
    "chain_matrix",
    "dual_sw",
    "extend_with_circles",
    "is_orientable",
    "main_matrix",
    "normal_form",
    "random_orientable_matrix",
    "top_class_bit",
    "top_coefficient",
    "total_sw",
    "verify_main",
    "DEFAULT_DIRECT_CAP",
    "DENSE_BUDGET",
    "TOP_CLASS_BUDGET",
]

DEFAULT_DIRECT_CAP = 17
TOP_CLASS_BUDGET = 500_000_000  # n * 3^popcount(E-1) submask-walk steps a call
DENSE_BUDGET = 200_000_000  # (sweeps + 1) * 2^(n-6) 64-bit words swept by _DenseRing


class UnsupportedDimensionError(ValueError):
    """Raised for dimensions the main-family construction does not cover."""


class FeasibilityError(RuntimeError):
    """Raised when a computation would exceed a configured resource cap."""


def alpha(n: int) -> int:
    """Number of ones in the binary expansion of ``n`` (n >= 1)."""
    if not _is_int(n):
        raise ValueError(f"alpha requires an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"alpha requires n >= 1, got {n}")
    return n.bit_count()


def alpha_hat(n: int) -> int:
    """``alpha(n)`` if n = 1 mod 4, else ``alpha(n) + 1``.

    Product lemma: if a + b = 0 mod 4, then alpha_hat(a) + alpha_hat(b) >
    alpha_hat(a + b) = alpha(a + b) + 1.  Adding a and b takes
    alpha(a) + alpha(b) - alpha(a + b) carries (Kummer).  With residues
    (0, 0) or (2, 2) mod 4 both +1 terms count; with (1, 3) or (3, 1) one
    does, and the carries out of bits 0 and 1 add two more.  The dual class
    of a product is the cross product of the factors' dual classes, so its
    height is the sum of theirs, and a product is orientable only when both
    factors are.  Each orientable factor has height at most its dimension
    less its alpha_hat, so no product of orientable manifolds reaches the
    bound n - alpha_hat(n) at n = 0 mod 4.
    """
    a = alpha(n)
    return a if n % 4 == 1 else a + 1


# ---------------------------------------------------------------------------
# matrices


def _is_int(value: object) -> bool:
    """An int that is not a bool (json reads true/false as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(name: str, value: object) -> None:
    """ValueError unless ``value`` is an int: ``<< value`` or ``range(value)``
    would raise TypeError on a float, and a bool would be read as 0 or 1."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _read_report(text: str, build: Callable[[dict], Any]) -> Any:
    """``build(data)`` for the JSON object ``text`` of a report.

    ValueError with a message if the text is not JSON or not an object, or
    if ``build`` finds a field missing or of the wrong shape (its KeyError,
    TypeError or ValueError).
    """
    try:
        data = json.loads(text)
        if isinstance(data, dict):
            return build(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid report JSON: {exc!r}") from exc
    raise ValueError("report JSON must be an object")


def _read_input(text: str, kind: str, field: str, form: str) -> tuple[Any, Any]:
    """The ``n`` and ``field`` entries of the JSON object ``text`` of an input
    ``kind`` (a matrix or a spec); the caller checks their values.

    ValueError with a message if the text is not JSON, not an object, or
    lacks either key; ``form`` shows the expected shape of ``field``.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid {kind} JSON: {exc}") from exc
    if not isinstance(data, dict) or "n" not in data or field not in data:
        raise ValueError(f'{kind} JSON must be {{"n": ..., "{field}": {form}}}')
    return data["n"], data[field]


@dataclass(frozen=True)
class BottMatrix:
    """Strictly upper-triangular binary matrix defining a real Bott manifold."""

    n: int
    ones: frozenset[tuple[int, int]]

    def __init__(self, n: int, ones: Iterable[tuple[int, int]] = ()) -> None:
        if not _is_int(n) or n < 1:
            raise ValueError(f"dimension must be a positive integer, got {n!r}")
        pairs = [(i, j) for i, j in ones]
        for i, j in pairs:
            if not (_is_int(i) and _is_int(j)):
                raise ValueError(f"entry ({i!r},{j!r}) must be a pair of integers")
            if not (1 <= i < j <= n):
                raise ValueError(
                    f"entry ({i},{j}) is not strictly upper-triangular within 1..{n}"
                )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ones", frozenset(pairs))

    @cached_property
    def _cols(self) -> tuple[tuple[int, ...], ...]:
        cols: list[list[int]] = [[] for _ in range(self.n + 1)]
        for i, j in self.ones:
            cols[j].append(i)
        return tuple(tuple(sorted(c)) for c in cols)

    @cached_property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        rows: list[list[int]] = [[] for _ in range(self.n + 1)]
        for i, j in self.ones:
            rows[i].append(j)
        return tuple(tuple(sorted(r)) for r in rows)

    @cached_property
    def is_main_pattern(self) -> bool:
        return self.ones == _main_ones(self.n)

    def col(self, j: int) -> tuple[int, ...]:
        """Row indices ``i`` with a one at (i, j); the column sum Lambda_j."""
        if not 1 <= j <= self.n:
            raise ValueError(f"column index {j} out of range 1..{self.n}")
        return self._cols[j]

    def row(self, i: int) -> tuple[int, ...]:
        if not 1 <= i <= self.n:
            raise ValueError(f"row index {i} out of range 1..{self.n}")
        return self._rows[i]

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "ones": [list(p) for p in sorted(self.ones)]})

    @classmethod
    def from_json(cls, text: str) -> "BottMatrix":
        n, ones = _read_input(text, "matrix", "ones", "[[i, j], ...]")
        if not isinstance(ones, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_int, p))
            for p in ones
        ):
            raise ValueError(
                'matrix JSON field "ones" must be a list of [i, j] integer pairs'
            )
        return cls(n, [(p[0], p[1]) for p in ones])


def main_matrix(n: int) -> BottMatrix:
    """The distinguished family: ones at (i, i+1) and (i, n) for 1 <= i <= n-2.

    Its ring has the chain relations ``x_i^2 = x_{i-1} x_i`` (with x_1^2 = 0)
    for i < n and ``x_n^2 = (x_1 + ... + x_{n-2}) x_n``.  Empty for n <= 2.
    """
    _require_int("dimension", n)
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return BottMatrix(n, _main_ones(n))


def _main_ones(n: int) -> set[tuple[int, int]]:
    """The ones of `main_matrix(n)`: (i, i+1) and (i, n) for 1 <= i <= n-2."""
    return {(i, j) for i in range(1, n - 1) for j in (i + 1, n)}


def chain_matrix(m: int) -> BottMatrix:
    """Ones at (i, i+1) only: the ring Q_m with x_i^2 = x_{i-1} x_i, x_1^2 = 0."""
    _require_int("dimension", m)
    if m < 1:
        raise ValueError(f"dimension must be >= 1, got {m}")
    return BottMatrix(m, {(i, i + 1) for i in range(1, m)})


def banded_matrix(n: int, bandwidth: int) -> BottMatrix:
    """Ones at (i, i+d) for 1 <= d <= bandwidth and i <= n - bandwidth.

    Every nonzero row has exactly ``bandwidth`` ones, so the manifold is
    orientable iff the bandwidth is even.
    """
    _require_int("dimension", n)
    _require_int("bandwidth", bandwidth)
    if n < 1 or bandwidth < 1:
        raise ValueError("dimension and bandwidth must be >= 1")
    ones = {
        (i, i + d)
        for i in range(1, n - bandwidth + 1)
        for d in range(1, bandwidth + 1)
    }
    return BottMatrix(n, ones)


def random_orientable_matrix(n: int, seed: int) -> BottMatrix:
    """Random strictly upper-triangular matrix with every row of even parity.

    Deterministic for a fixed (n, seed): each in-band cell is drawn in row-major
    order, then any odd row is fixed up by toggling its last cell (i, n).
    """
    _require_int("dimension", n)
    _require_int("seed", seed)
    rng = Random(seed)
    ones: set[tuple[int, int]] = set()
    for i in range(1, n):
        count = 0
        for j in range(i + 1, n + 1):
            if rng.getrandbits(1):
                ones.add((i, j))
                count += 1
        if count % 2:
            ones ^= {(i, n)}
    return BottMatrix(n, ones)


def extend_with_circles(M: BottMatrix, k: int) -> BottMatrix:
    """Append ``k`` zero rows/columns: the product with a k-torus."""
    _require_int("k", k)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return BottMatrix(M.n + k, M.ones)


def is_orientable(M: BottMatrix) -> bool:
    """True iff every row of the matrix has an even number of ones."""
    return all(len(M.row(i)) % 2 == 0 for i in range(1, M.n + 1))


# ---------------------------------------------------------------------------
# scalar normal forms


def _mul_var(elems: set[int], l: int, M: BottMatrix) -> set[int]:
    """``elems * x_l`` for a sum of squarefree basis elements (bitmasks).

    One downward sweep over pending carries, as in `_DenseRing._mul_by_seeds`:
    elements without x_l just gain it, and those with x_l re-emit along
    column l (x_l^2 = Lambda_l x_l) as carries for the smaller variables.
    The sweep stops as soon as nothing is pending.  ``elems`` is not changed.
    """
    out: set[int] = set()
    pend: dict[int, set[int]] = {l: elems}
    while pend:
        v = max(pend)
        w = pend.pop(v)
        bit = 1 << (v - 1)
        out ^= {m | bit for m in w if not m & bit}
        carry = {m for m in w if m & bit}
        if not carry:
            continue
        for i in M.col(v):
            prev = pend.get(i)
            if prev is None:
                pend[i] = set(carry)
            else:
                prev ^= carry
    return out


def normal_form(p: Poly, M: BottMatrix) -> Poly:
    """The unique squarefree-basis representative of ``p`` in the ring of ``M``.

    Multiplication factor by factor in the squarefree basis: a monomial
    prod x_v^e_v starts as the basis element prod x_v (a bitmask, already its
    own normal form) and is then multiplied by x_v, e_v - 1 times per
    variable, with `_mul_var`.  Terms that need the same extra factors share
    those sweeps, so squarefree terms cost none, and terms above degree n,
    where the ring is zero, are dropped before any sweep.  The working set
    never exceeds the 2^n basis, and monomials are built only for the
    output.  Idempotent, additive, and multiplicative up to renormalization.
    """
    by_extra: dict[tuple[tuple[int, int], ...], set[int]] = {}
    for m in p.terms:
        if m.factors and m.factors[-1][0] > M.n:
            raise ValueError(f"monomial {m} uses a variable beyond x{M.n}")
        base = 0
        for var, _ in m.factors:
            base |= 1 << (var - 1)
        extra = tuple((var, exp - 1) for var, exp in m.factors if exp > 1)
        if extra and base.bit_count() + sum(t for _, t in extra) > M.n:
            continue
        by_extra.setdefault(extra, set()).symmetric_difference_update({base})
    out: set[int] = set()
    for extra, elems in by_extra.items():
        for var, times in extra:
            for _ in range(times):
                elems = _mul_var(elems, var, M)
        out ^= elems
    return Poly(frozenset(map(Monomial.from_mask, out)))


def _check_top_class_cost(n: int, calls: Mapping[int, int]) -> None:
    """Refuse, before any work, `top_class_bit` calls over TOP_CLASS_BUDGET.

    A call on a degree-n monomial with x_n^E (E >= 1) is priced at
    n * 3^popcount(E-1) steps; ``calls`` maps each E to the number of
    planned calls with it, and their costs add up.  The price counts the
    (U, S) pairs of the submask walk the placement DP replaced; the packed
    DP takes n * popcount(E-1) big-int operations, so the budget
    over-prices it.
    """
    cost = sum(count * n * 3 ** (e - 1).bit_count() for e, count in calls.items())
    if cost > TOP_CLASS_BUDGET:
        raise FeasibilityError(
            f"top-class evaluation at n = {n} needs n * 3^popcount(E-1) = "
            f"{cost} steps (> budget {TOP_CLASS_BUDGET})"
        )


def _block_mask(ones: int, size: int, period: int = 0) -> int:
    """The mask of ``ones`` ones, then ``period - ones`` zeros (as many zeros
    as ones by default), repeated from bit 0 over at least ``size`` bits,
    built by doubling.

    Exactly ``size`` bits when ``size`` is the period times a power of two,
    as for the dense ring and the placement lanes; the Dold grids AND it
    with a grid of ``size`` bits, so the bits past ``size`` do not matter.
    """
    mask, period = (1 << ones) - 1, period or 2 * ones
    while period < size:
        mask |= mask << period
        period *= 2
    return mask


def _lane_width(q: int, length: int) -> int:
    """Bits per lane of the states of ``_placements(q, base)``, L = len(base).

    A lane counts placements of at most the k = popcount(q) digits on the L
    positions, so it holds at most L^k < 2^(k * bit_length(L)); the extra
    bit keeps the width positive for k = 0 or L = 0.
    """
    return q.bit_count() * length.bit_length() + 1


def _placements(q: int, base: Sequence[int]) -> Iterator[int]:
    """Count the placements of the binary digits of ``q`` on a chain, backward.

    Each digit 2^t of ``q`` goes to one of the positions 1..L, on top of the
    exponents ``base`` there (L = len(base)); a placement counts when no
    prefix over-fills: base and digits at positions <= v add up to at most v.
    A state is a bitmask U over the digits of ``q`` (bit i for its i-th
    lowest digit), of weight the sum of those digits; for q = 2^p - 1 the
    mask is its own weight.  Yields, for d = L, L-1, ..., 0, the state g_d
    as one int of 2^k lanes (k = popcount(q)) of W = ``_lane_width(q, L)``
    bits each: lane U, bits U*W .. U*W + W - 1, holds g_d[U], the ways to
    place the digits outside U after position d, with U placed at or before
    d and every prefix from d+1 on legal; lane 0 of g_0 is the count.

    A step keeps the U whose weight fits position v, weight[U] <= v -
    (base_1 + ... + base_v), and sums each kept U into all its submasks S
    (the digits U - S sit at v).  The digits are distinct powers of two, so
    the weight rises with U and the kept lanes are a prefix: one AND.  The
    submask sums are a superset-sum transform, one shift-mask-add per digit
    on the whole int; no lane overflows, since each holds a count below
    2^W.  That is L * k big-int operations on 2^k * W bits.  The budgets
    (`TOP_CLASS_BUDGET`, `qring.KEY_DP_BUDGET`) still price the L * 3^k
    (U, S) pairs of the submask walk this replaced, so they over-price it.
    """
    k = q.bit_count()
    width = _lane_width(q, len(base))
    weight = [0]
    for t in range(q.bit_length()):
        if q >> t & 1:
            weight += [w + (1 << t) for w in weight]
    # (shift, lanes without digit i) for each digit i
    passes = [(width << i, _block_mask(width << i, width << k)) for i in range(k)]
    g = 1 << (width * ((1 << k) - 1))
    yield g
    prefix = sum(base)
    for v in range(len(base), 0, -1):
        room = v - prefix
        prefix -= base[v - 1]
        g &= (1 << (bisect_right(weight, room) * width)) - 1
        for shift, mask in passes:
            g += g >> shift & mask
        yield g


def top_class_bit(M: BottMatrix, exponents: Mapping[int, int]) -> int:
    """Coefficient of the top class in the normal form of a full-degree monomial.

    ``exponents`` maps variables to exponents with total degree exactly n;
    ``M`` must be the main-family pattern.  Writing E = exponents[n], the
    monomial equals ``(x_1+...+x_{n-2})^(E-1) * x_n`` times the chain part,
    and the top coefficient is the parity of the number of ways to place the
    binary digits of E-1 on x_1..x_{n-2}, on top of e_1..e_{n-2}, without
    over-filling any prefix (`_placements`, which counts the key identity
    too; the prefix through x_{n-1} is the whole degree n - 1 and always
    fits), read as the low bit of lane 0 of the last state.  A chain part
    that over-fills by itself gives 0 at once.  Runs in n * k shift-mask-adds
    on ints of 2^k lanes, k = popcount(E-1); priced, and refused with
    FeasibilityError, at n * 3^k steps over ``TOP_CLASS_BUDGET``, the cost
    of the submask walk it replaced.  A variable or an exponent that is not
    an int (a bool neither) raises ValueError.
    """
    if not M.is_main_pattern:
        raise ValueError("top_class_bit requires the main-family matrix pattern")
    n = M.n
    degree = 0
    for v, e in exponents.items():
        if type(v) is not int or type(e) is not int:
            raise ValueError(f"variables and exponents must be integers, got {v!r}: {e!r}")
        if not 1 <= v <= n:
            raise ValueError(f"variable x{v} out of range 1..{n}")
        if e < 0:
            raise ValueError("exponents must be >= 0")
        degree += e
    if degree != n:
        raise ValueError(f"total degree {degree} != n = {n}")
    e_n = exponents.get(n, 0)
    if e_n == 0:
        return 0
    _check_top_class_cost(n, {e_n: 1})
    chain = [exponents.get(v, 0) for v in range(1, n - 1)]
    if any(acc > d for d, acc in enumerate(accumulate(chain), start=1)):
        return 0
    for g in _placements(e_n - 1, chain):
        pass
    return g & 1


def top_coefficient(p: Poly, M: BottMatrix) -> int:
    """GF(2) coefficient of ``x_1*...*x_n`` in the normal form of ``p``.

    ``p`` must be homogeneous of degree n.  In top degree the only squarefree
    monomial is the full product, so the normal form is 0 or the top class;
    this is asserted.
    """
    n = M.n
    if not p.is_homogeneous(n):
        raise ValueError(f"polynomial is not homogeneous of degree {n}")
    nf = normal_form(p, M)
    if nf.is_zero():
        return 0
    top = Monomial.from_mask((1 << n) - 1)
    if nf.terms != frozenset({top}):
        raise RuntimeError(
            f"degree-{n} normal form is neither 0 nor the top class: {nf}"
        )
    return 1


# ---------------------------------------------------------------------------
# dense engine over the squarefree basis


def _check_dense_cost(n: int, sweeps: int) -> None:
    """Refuse, before any allocation, ``sweeps`` sweeps of the ring over
    x_1..x_n when they cost more than DENSE_BUDGET.

    The cost is (sweeps + 1) * words, a vector spanning 2^(n-6) 64-bit
    words: the +1 prices the vectors that are built and read outside the
    sweeps.
    """
    shift = max(n - 6, 0)  # a vector spans 2^shift words
    # past shift 64 the budget is long exceeded; skip the bignum
    if shift > 64 or (sweeps + 1) << shift > DENSE_BUDGET:
        raise FeasibilityError(
            f"the dense engine at n = {n} needs (sweeps + 1) * words = "
            f"{sweeps + 1} * 2^{shift} word operations "
            f"(> budget {DENSE_BUDGET})"
        )


class _DenseRing:
    """GF(2) vectors over the 2^n squarefree basis, one Python int per vector.

    Bit ``m`` of a vector is the coefficient of basis element ``m`` (the
    bitmask of its variables).  Multiplication by x_l is one downward sweep
    over pending carries: basis elements without x_l just gain it, and those
    with x_l re-emit along column l (x_l^2 = Lambda_l x_l).  Every variable
    takes the same step, with ``low = _low(l)``::

        gain = w & low; out ^= gain << 2^(l-1); w ^= gain

    Each sweep costs O(n + #ones) operations on 2^n-bit ints regardless of
    matrix density, and starts at the highest pending variable.  The ring
    takes a size n and the column table of a matrix (`BottMatrix._cols`),
    and n may be below the matrix's own size: a sweep from seeds at or
    below x_n reads only the columns up to n, since carries move down.  So
    every user sweeps in the ring its products span, with the columns of
    the whole matrix: `steenrod.chi_sq` a term whose largest variable is
    x_a in the 2^a-bit ring over x_1..x_a, and the class products
    (`_class_product`) the 2^h-bit ring over x_1..x_h, h the highest row
    that holds a one.  The ring, and the masks it caches, live only while
    a product is swept: `grade_piece` and `to_poly` need no ring, so
    `GradedClasses` keeps just the product int, cuts its grades when one
    is first read and converts each grade when it is read.
    `to_poly` is `poly2._packed_poly`: this module hands it a grade's bits,
    and the Poly it returns keeps only them; `poly2` writes their text in
    the canonical order, with no sort, when the grade is rendered, and
    builds the terms only when something reads them.
    """

    def __init__(self, n: int, cols: Sequence[Sequence[int]], sweeps: int) -> None:
        """The ring over x_1..x_n with the columns ``cols`` (``cols[l]`` the
        rows i of the ones (i, l)), for ``sweeps`` sweeps, refused before
        any allocation when it costs more than DENSE_BUDGET
        (`_check_dense_cost`).
        """
        _check_dense_cost(n, sweeps)
        self.n = n
        self._cols = cols
        self._lows: dict[int, int] = {}

    def _low(self, l: int) -> int:
        """The 2^n-bit mask of the basis elements without x_l, built on the
        first sweep that reaches x_l: blocks of 2^(l-1) ones and zeros."""
        low = self._lows.get(l)
        if low is None:
            low = self._lows[l] = _block_mask(1 << (l - 1), 1 << self.n)
        return low

    def _mul_by_seeds(self, seeds: dict[int, int]) -> int:
        """Sum of ``seeds[i] * x_i``; consumes the seeds dict.

        The sweep starts at the highest seed (none for empty seeds), since
        carries only move down."""
        out = 0
        pend = seeds
        cols = self._cols
        for l in range(max(pend, default=0), 0, -1):
            w = pend.pop(l, 0)
            if not w:
                continue
            gain = w & self._low(l)
            out ^= gain << (1 << (l - 1))
            w ^= gain
            if w:
                for i in cols[l]:
                    pend[i] = pend.get(i, 0) ^ w
        return out

    @staticmethod
    def grade_piece(v: int, n: int, k: int) -> int:
        """The degree-k part of v over x_1..x_n: an AND with the popcount-k
        mask, from a `_grade_window` one grade wide."""
        return _grade_window(v, n, k, k)[0]

    # a grade's Poly, which holds its bits; perfbench times it as the bott.to_poly layer
    to_poly = staticmethod(_packed_poly)


def _grade_window(v: int, h: int, lo: int, hi: int) -> list[int]:
    """The degree-lo..hi parts of v over x_1..x_h, from one pass of masks.

    The masks double one variable at a time: over x_1..x_l, popcount j
    holds the popcount-j elements over x_1..x_{l-1} and the popcount-(j-1)
    ones with x_l added.  Level l keeps only the counts that can still end
    in the window, max(lo - h + l, 0)..min(hi, l), so one grade keeps masks
    over about 2^(h+1) bits in hand, and the whole window costs one pass
    where a pass per grade would repeat the shared low levels.  A degree
    above h has no mask, and its part is 0.

    The Dold grades take the same kind of pass (`dold._grade_mask`), but
    over boxes of any extents, and it is slower on this box of 2s: with
    every weight 1, at n = 14 it took 0.094 ms for the boundary grade
    against 0.040 ms here, and 0.79 ms against 0.49 ms for all grades cut
    one at a time (best of 5, 2-vCPU host, CPython 3.11.7), so the two stay
    apart.
    """
    masks = {0: 1}  # popcount -> mask over x_1..x_l
    for l in range(1, h + 1):
        half = 1 << (l - 1)
        masks = {
            j: masks.get(j, 0) | masks.get(j - 1, 0) << half
            for j in range(max(lo - h + l, 0), min(hi, l) + 1)
        }
    return [v & masks.get(k, 0) for k in range(lo, hi + 1)]


class GradedClasses:
    """Graded classes by degree (index k holds the degree-k piece, normalized).

    Built by `total_sw` and `dual_sw` from one vector of the dense engine,
    exact in grades 0..top.  The vector's masks lie below 2^h for h the
    highest variable of its highest mask, so its grades are cut over
    x_1..x_h, and those above h are 0.  The first read of a grade k cuts
    every grade from k up to the lowest one cut before (top at first) in
    one `_grade_window`: a verdict, whose top is its grade, cuts just that
    grade, and a table read from grade 0 cuts all of them in one pass.
    Each grade is rendered as a `Poly` when it is first read and cached,
    so a caller that reads one grade converts only that one.  The `Poly`
    holds the grade's bits alone: its text is written when it is rendered,
    and its `Monomial` terms are built only if something reads them.
    """

    __slots__ = ("_cut", "_n", "_pieces", "_uncut", "_vector")

    def __init__(self, n: int, vector: int, top: int) -> None:
        self._n = n
        self._vector = vector
        self._uncut = top + 1  # grades _uncut..top are cut into _cut
        self._cut = [0] * (top + 1)
        self._pieces: list[Poly | None] = [None] * (top + 1)  # None: unread

    @property
    def n(self) -> int:
        return self._n

    def __getitem__(self, k: int | slice) -> Poly | tuple[Poly, ...]:
        """Grade k, or the tuple of the grades a slice selects; a bool is
        refused, not read as grade 0 or 1."""
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(*k.indices(len(self)))))
        if isinstance(k, bool):
            raise ValueError(f"the grade must be an integer, got {k!r}")
        piece = self._pieces[k]  # IndexError or TypeError for a bad index
        if piece is None:
            k %= len(self)  # the grade of a negative index
            if k < self._uncut:
                v = self._vector
                span = (v.bit_length() - 1).bit_length()
                self._cut[k : self._uncut] = _grade_window(v, span, k, self._uncut - 1)
                self._uncut = k
            piece = self._pieces[k] = _DenseRing.to_poly(self._cut[k])
        return piece

    def __len__(self) -> int:
        return len(self._pieces)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedClasses):
            return NotImplemented
        return self.n == other.n and self[:] == other[:]

    def __hash__(self) -> int:
        return hash((self.n, self[:]))

    def __repr__(self) -> str:
        return f"GradedClasses(n={self.n!r}, grades={self[:]!r})"


def _class_product(M: BottMatrix, t: int, top: int) -> GradedClasses:
    """prod_j (1 + Lambda_j + ... + Lambda_j^t) on the dense basis, exact in
    grades 0..top.

    Each factor is multiplied in one power of Lambda_j at a time, and its
    series stops once a power vanishes.  Lambda_j is a form in the rows
    above j, so the product never leaves x_1..x_h, h the highest row that
    holds a one (0 for none), and is swept in the 2^h-bit ring.  Makes at
    most t * n sweeps, priced in the 2^n-bit ring all the same: refused
    with FeasibilityError above ``DENSE_BUDGET``.
    """
    _check_dense_cost(M.n, t * M.n)
    h = max((i for i, _ in M.ones), default=0)
    ring = _DenseRing(h, M._cols, sweeps=t * M.n)
    v = 1  # the unit, basis element 0
    for j in range(1, M.n + 1):
        power = v
        for _ in range(t):
            power = ring._mul_by_seeds(dict.fromkeys(M.col(j), power))
            if not power:
                break
            v ^= power
    return GradedClasses(M.n, v, top)


def total_sw(M: BottMatrix) -> GradedClasses:
    """Total Stiefel-Whitney class: normal form of prod_j (1 + Lambda_j).

    Makes n sweeps; refused with FeasibilityError above ``DENSE_BUDGET``.
    """
    return _class_product(M, 1, M.n)


def dual_sw(M: BottMatrix, up_to: int) -> GradedClasses:
    """Dual classes wbar_0..wbar_up_to: the formal inverse of total_sw.

    The inverse is the product of the inverted factors, (1 + Lambda_j)^-1 =
    sum_i Lambda_j^i.  Lambda_j^i lies in grades >= i, so each series stops
    after up_to terms and is still exact in grades <= up_to.  The
    convolution sum_{j} w_j * wbar_{k-j} = 0 for 1 <= k <= up_to is
    property-tested separately.  Makes at most up_to * n sweeps; refused
    with FeasibilityError above ``DENSE_BUDGET``.
    """
    _require_int("up_to", up_to)
    if not 0 <= up_to <= M.n:
        raise ValueError(f"up_to must lie in 0..{M.n}, got {up_to}")
    return _class_product(M, up_to, up_to)


# ---------------------------------------------------------------------------
# main verifier


@dataclass(frozen=True)
class MainReport:
    """Outcome of verify_main: per-method nonvanishing bits plus context."""

    n: int
    alpha_hat: int
    grade: int
    orientable: bool
    direct: bool | None
    steenrod: bool | None

    @property
    def verified(self) -> bool:
        ran = [b for b in (self.direct, self.steenrod) if b is not None]
        return bool(ran) and all(ran) and self.orientable

    def to_json_dict(self) -> dict:
        data = asdict(self)
        data["methods"] = {key: data.pop(key) for key in ("direct", "steenrod")}
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "MainReport":
        return _read_report(text, lambda data: cls(**data.pop("methods"), **data))


def verify_main(
    n: int,
    method: str = "both",
    direct_cap: int = DEFAULT_DIRECT_CAP,
) -> MainReport:
    """Check orientability and nonvanishing of the dual class in grade n - alpha_hat(n).

    The witness is M_m x (S^1)^(n-m): the main-family Bott manifold of the
    largest dimension m <= n with m = 1 mod 4, extended by n - m circles
    (m = n for n = 1 mod 4).  n = 0 mod 4 is rejected: no construction is
    provided there.

    method "direct" materializes the dual classes of the witness on its
    squarefree basis (capped at ``direct_cap``); "steenrod" evaluates the
    permutation-sum pairing against the top class of the base M_m, which
    decides every n: n - alpha_hat(n) = m - alpha_hat(m), and classes pull
    back injectively along the extension; "both" runs and records both.
    """
    if not _is_int(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if method not in ("direct", "steenrod", "both"):
        raise ValueError(f"unknown method {method!r}")
    if n % 4 == 0:
        raise UnsupportedDimensionError(
            f"unsupported dimension class: n = {n} = 0 (mod 4) has no known "
            "orientable construction meeting the bound"
        )
    run_direct = method in ("direct", "both")
    if run_direct and n > direct_cap:
        raise FeasibilityError(
            f"direct method materializes a 2^{n}-dimensional basis; n = {n} "
            f"exceeds the cap {direct_cap} (raise direct_cap or use the "
            "steenrod method)"
        )
    m = n - (n % 4 - 1)  # largest m <= n with m = 1 mod 4
    run_steenrod = method in ("steenrod", "both")
    if run_steenrod:
        from .steenrod import _permsum, _permsum_calls

        _check_top_class_cost(m, _permsum_calls(m))  # before M is built
    M = main_matrix(m)  # built once; the circles add only zero rows
    grade = n - alpha_hat(n)
    direct = steenrod = None
    if run_direct:
        direct = not dual_sw(extend_with_circles(M, n - m), grade)[grade].is_zero()
    if run_steenrod:
        steenrod = not _permsum(M).is_zero()  # the top class or zero
    return MainReport(
        n=n,
        alpha_hat=alpha_hat(n),
        grade=grade,
        orientable=is_orientable(M),
        direct=direct,
        steenrod=steenrod,
    )
