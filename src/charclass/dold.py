"""Generalized Dold manifolds: truncated rings and characteristic classes.

``P(n; m_1,...,m_r)`` has mod-2 cohomology
``GF(2)[c, d_1..d_r] / (c^{n+1}, d_i^{m_i+1})`` with ``|c| = 1`` and
``|d_i| = 2``; its total Stiefel-Whitney class is
``(1+c)^{n+1-r} * prod_i (1+c+d_i)^{m_i+1}``, and the manifold dimension is
``N = n + 2*sum(m_i)``.

A polynomial is one Python int, as the Bott ring's vectors are: bit i is the
GF(2) coefficient of cell i of the exponent box (a, b_1, ..., b_r), in C
order (b_r varies fastest).  The total class and the dual class are both
products of powers of the factors ``1+c`` and ``1+c+d_i``.  In char 2 a
power is one factor ``1 + c^(2^t) (+ d_i^(2^t))`` per binary digit 2^t of
its exponent, and multiplying by that factor is one shifted XOR per axis:
the cells that stay in the box, moved 2^t cells along c (and d_i), are
XORed back in, ``v ^= (v & keep) << 2^t * stride``.  The dual class raises
each factor to ``2^L - e`` in place of ``-e``, since every factor to the
power ``2^L`` is 1 once ``2^L`` covers the box.  A class costs the cells
times the digits of its exponents.  A grade is read through one mask of its
cells (`_grade_mask`), built axis by axis.

The verdicts of `verify_dold` also have a grid-free closed form,
`_lucas_verdict`: each coefficient of the dual class is a product of r + 1
binomial parities read by Lucas's theorem.  Its factor lemma bounds which
m_i a nonvanishing spec can hold; `scan_dold` enumerates only those specs,
decides each by the closed form and confirms each hit on the grids.
`verify_dold` runs both routes and requires them to agree; its grid route
reads w_1 in the box cut to grades <= 1.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass
from functools import cache, cached_property, reduce
from itertools import islice
from operator import xor
from typing import Callable, Iterable, Iterator, Sequence

from .bott import FeasibilityError, _block_mask, _is_int, _read_input, _read_report
from .bott import _require_int, alpha_hat

__all__ = [
    "DoldReport",
    "DoldSpec",
    "TruncPoly",
    "binom_parity",
    "coefficient",
    "dual_sw_dold",
    "graded_piece",
    "scan_dold",
    "total_sw_dold",
    "trunc_mul",
    "verify_dold",
    "MAX_GRID_CELLS",
    "SCAN_BUDGET",
]

MAX_GRID_CELLS = 1 << 24
SCAN_BUDGET = 50_000  # candidate specs one scan_dold screens


def binom_parity(p: int, q: int) -> int:
    """Binomial coefficient C(p, q) mod 2 by binary digit domination (Lucas)."""
    if p < 0 or q < 0:
        raise ValueError("arguments must be >= 0")
    return 1 if (p & q) == q else 0


@dataclass(frozen=True)
class DoldSpec:
    """P(n; m_1,...,m_r): sphere dimension n and projective factor sizes."""

    n: int
    ms: tuple[int, ...]

    def __init__(self, n: int, ms: Iterable[int]) -> None:
        ms_t = tuple(ms)
        if not _is_int(n) or n < 0:
            raise ValueError(f"n must be a nonnegative integer, got {n!r}")
        if not all(map(_is_int, ms_t)):
            raise ValueError(f"every m_i must be an integer, got {ms!r}")
        if len(ms_t) < 1:
            raise ValueError("at least one projective factor is required (r >= 1)")
        if any(m < 1 for m in ms_t):
            raise ValueError(f"every m_i must be >= 1, got {ms_t}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ms", ms_t)

    @property
    def r(self) -> int:
        return len(self.ms)

    @property
    def dimension(self) -> int:
        return self.n + 2 * sum(self.ms)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return (self.n + 1, *(m + 1 for m in self.ms))

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "ms": list(self.ms)})

    @classmethod
    def from_json(cls, text: str) -> "DoldSpec":
        n, ms = _read_input(text, "spec", "ms", "[...]")
        if not isinstance(ms, list) or not all(map(_is_int, ms)):
            raise ValueError(
                'spec JSON field "ms" must be a list of integers, '
                f"got {json.dumps(ms)}"
            )
        return cls(n, ms)


def _check_cells(spec: DoldSpec) -> None:
    cells = math.prod(spec.shape)
    if cells > MAX_GRID_CELLS:
        raise FeasibilityError(
            f"ring of {spec} needs {cells} dense cells (> {MAX_GRID_CELLS})"
        )


def _in_box(spec: DoldSpec, a: int, bs: Sequence[int]) -> bool:
    """Whether c^a * prod d_i^b_i is a cell of the ring's exponent box.

    ValueError if an exponent is not an int: a bool would be read as a cell
    index and a float would fail as a shift.
    """
    if not (_is_int(a) and all(map(_is_int, bs))):
        raise ValueError(f"exponents must be integers, got ({a!r}, {tuple(bs)!r})")
    return 0 <= a <= spec.n and all(0 <= b <= m for b, m in zip(bs, spec.ms, strict=True))


def _strides(shape: Sequence[int]) -> list[int]:
    """The bits between neighbouring cells along each axis, in C order."""
    return [math.prod(shape[axis + 1:]) for axis in range(len(shape))]


def _cell_index(spec: DoldSpec, a: int, bs: Sequence[int]) -> int:
    """The bit of cell (a, b_1..b_r) in a grid."""
    return sum(x * stride for x, stride in zip((a, *bs), _strides(spec.shape)))


def _cells(grid: int, shape: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The cells (a, b_1..b_r) of the set bits of ``grid``, in C order."""
    strides = _strides(shape)
    for bit in re.finditer("1", bin(grid)[:1:-1]):
        yield tuple(bit.start() // stride % e for stride, e in zip(strides, shape))


def _period(n: int, ms: Sequence[int]) -> int:
    """The least 2^L above n and every m_i, so 2^L covers every box extent."""
    return 1 << max(n, *ms).bit_length()


@dataclass(frozen=True)
class TruncPoly:
    """GF(2) polynomial in the truncated ring of ``spec``: bit i of ``grid``
    is the coefficient of cell i of the exponent box, in C order."""

    spec: DoldSpec
    grid: int

    def __post_init__(self) -> None:
        cells = math.prod(self.spec.shape)
        if not _is_int(self.grid) or self.grid < 0 or self.grid.bit_length() > cells:
            raise ValueError(f"the grid must be an int of {cells} bits, one per cell")

    def __repr__(self) -> str:  # hex: a long grid has no decimal text
        return f"TruncPoly(spec={self.spec!r}, grid={self.grid:#x})"

    def is_zero(self) -> bool:
        return not self.grid

    def __bool__(self) -> bool:
        return not self.is_zero()

    def terms(self) -> list[tuple[int, tuple[int, ...]]]:
        """Sorted (a, (b_1..b_r)) exponent tuples of the nonzero cells."""
        return [(a, tuple(bs)) for a, *bs in _cells(self.grid, self.spec.shape)]

    def __str__(self) -> str:
        r = self.spec.r
        names = ["c", *(["d"] if r == 1 else [f"d{i}" for i in range(1, r + 1)])]
        parts = []
        for cell in _cells(self.grid, self.spec.shape):
            factors = [x if e == 1 else f"{x}^{e}" for x, e in zip(names, cell) if e]
            parts.append("*".join(factors) or "1")
        return " + ".join(parts) or "0"

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, spec: DoldSpec) -> "TruncPoly":
        return cls.from_terms(spec, ())

    @classmethod
    def from_terms(
        cls, spec: DoldSpec, terms: Iterable[tuple[int, Sequence[int]]]
    ) -> "TruncPoly":
        _check_cells(spec)
        grid = 0
        for a, bs in terms:
            if not _in_box(spec, a, bs):
                raise ValueError(f"exponents ({a}, {tuple(bs)}) out of bounds")
            grid ^= 1 << _cell_index(spec, a, bs)
        return cls(spec, grid)

    @classmethod
    def one(cls, spec: DoldSpec) -> "TruncPoly":
        return cls.from_terms(spec, [(0, (0,) * spec.r)])


def _moves(shape: Sequence[int]) -> Callable[[int, int], tuple[int, int]]:
    """``move(axis, k)`` in the box ``shape``, for 0 < k < its extent on
    ``axis``: the mask of the cells that stay in the box when moved k cells
    along ``axis``, and the bit offset of that move.

    In C order a coordinate below extent - k is a block of ones in every
    period of extent * stride bits, so each mask is one `_block_mask`, built
    on first use and kept for the rest of the product.
    """
    strides = _strides(shape)

    @cache
    def move(axis: int, k: int) -> tuple[int, int]:
        extent, s = shape[axis], strides[axis]
        return _block_mask((extent - k) * s, shape[0] * strides[0], extent * s), k * s

    return move


def _mul_grids(a: int, b: int, shape: tuple[int, ...]) -> int:
    """Truncated GF(2) product of two grids; iterates the sparser factor.

    The general product of `trunc_mul`; the class grids need only the
    shifted XORs of `_times_digit`.
    """
    a, b = sorted((a, b), key=int.bit_count)
    move = _moves(shape)
    out = 0
    for cell in _cells(a, shape):  # b times the monomial of the cell
        moves = [move(axis, k) for axis, k in enumerate(cell) if k]
        out ^= reduce(lambda v, mv: (v & mv[0]) << mv[1], moves, b)
    return out


def trunc_mul(a: TruncPoly, b: TruncPoly, spec: DoldSpec) -> TruncPoly:
    """Product in the truncated ring (out-of-range monomials are deleted)."""
    if a.spec != spec or b.spec != spec:
        raise ValueError("operands belong to a different ring")
    return TruncPoly(spec, _mul_grids(a.grid, b.grid, spec.shape))


def _class_grid(
    spec: DoldSpec, exponents: Sequence[int], shape: Sequence[int]
) -> int:
    """Grid of (1+c)^e_0 * prod_i (1+c+d_i)^e_i for ``exponents`` (e_0, e_1..e_r),
    multiplied in the box ``shape``: the ring's own box, or a corner of it
    from cell 0, the quotient by the powers of c and d_i past that corner.

    In characteristic 2, (1+c+d_i)^(2^t) = 1 + c^(2^t) + d_i^(2^t), so the
    product takes one shifted XOR per axis for each binary digit 2^t of each
    exponent (`_times_digit`), so it costs the cells times the digits; cells
    past the box are dropped.  The masks and offsets of the moves are built
    once per product (`_moves`).  The class formula and the price are
    checked on the ring of ``spec`` whatever the box.
    """
    if spec.r > spec.n + 1:
        raise ValueError(
            f"r = {spec.r} exceeds n + 1 = {spec.n + 1}; the class formula "
            "has a negative (1+c) exponent"
        )
    _check_cells(spec)
    move = _moves(shape)
    grid = 1  # the unit, cell 0
    for i, e in enumerate(exponents):
        for k in (1 << t for t in range(e.bit_length()) if e >> t & 1):
            grid = _times_digit(grid, [move(j, k) for j in {0, i} if k < shape[j]])
    return grid


def _times_digit(grid: int, moves: Sequence[tuple[int, int]]) -> int:
    """``grid`` times 1 + sum of x^k over the axes of ``moves``, where x is c
    on axis 0 and d_i on axis i.

    Each move is a (keep mask, bit offset) pair of `_moves`: the cells of
    ``grid`` that stay in the box, moved k cells along its axis, are XORed
    in.  Every move reads ``grid`` as it was before the product.
    """
    return reduce(xor, [(grid & keep) << offset for keep, offset in moves], grid)


def _lucas_verdict(n: int, ms: tuple[int, ...]) -> tuple[bool, bool]:
    """(orientable, nonvanishing) of `verify_dold` for P(n; ms) by binomial
    parities alone, with no `DoldSpec` and no grid.

    w_1 is (n+1-r + sum(m_i+1))*c, and c = 0 in the box when n = 0.  With
    E_0 = 2^L - (n+1-r) and E_i = 2^L - (m_i+1) as in `dual_sw_dold`,
    (1+c+d_i)^E_i = sum_B C(E_i, B) d_i^B (1+c)^(E_i-B), so the coefficient
    of c^A * prod d_i^B_i in wbar is C(E_0 + sum(E_i - B_i), A) * prod
    C(E_i, B_i) mod 2.  Grade N - alpha_hat(N) is nonzero iff that parity is
    1 at some cell top/z with deg z = alpha_hat(N).  The walk places z one
    d-axis at a time, z_i = m_i - B_i on d_i, and keeps the degree of z
    still to place, ``rest``; the rest of z goes on c, and C(acc, n - rest)
    decides (Lucas).

    Factor lemma: m_i < 2^L, so E_i = 2^L - 1 - m_i is the complement of
    m_i in L bits, and C(E_i, m_i - z_i) is odd iff (m_i - z_i) & m_i = 0;
    a branch is dropped once that fails.  Each factor adds E_i - B_i =
    2^L - 2m_i - 1 + z_i to the (1+c)-exponent, so acc = (r+1)2^L - (N+1) +
    sum(z_i), and sum(z_i) = (alpha_hat(N) - rest) / 2: rest fixes acc, and
    the walk keeps one integer per branch.
    """
    N = n + 2 * sum(ms)
    orientable = n == 0 or (n + 1 + sum(ms)) % 2 == 0  # (n+1-r) + sum(m_i+1)
    a_hat = alpha_hat(N)
    rests = {a_hat}
    for m in ms:
        rests = {
            rest - 2 * z
            for rest in rests
            for z in range(min(m, rest // 2) + 1)
            if (m - z) & m == 0
        }
    base = (len(ms) + 1) * _period(n, ms) - (N + 1)
    nonvanishing = any(
        rest <= n and (base + (a_hat - rest) // 2) & (n - rest) == n - rest
        for rest in rests
    )
    return orientable, nonvanishing


def total_sw_dold(spec: DoldSpec) -> TruncPoly:
    """Total class (1+c)^(n+1-r) * prod_i (1+c+d_i)^(m_i+1) in the ring.

    One shifted XOR per binary digit of the exponents (`_class_grid`).
    """
    return TruncPoly(spec, _class_grid(spec, _total_exponents(spec), spec.shape))


def _total_exponents(spec: DoldSpec) -> tuple[int, ...]:
    """The exponents (n+1-r, m_1+1, ..., m_r+1) of the factors of w."""
    return (spec.n + 1 - spec.r, *(m + 1 for m in spec.ms))


def _grade_mask(shape: Sequence[int], k: int, at_most: bool = False) -> int:
    """The mask of the cells of grade a + 2*sum(b_i) = k in the box ``shape``,
    or of grade <= k when ``at_most``.

    One pass over the axes, from the last: ``masks[g]`` is the block of
    ``size`` bits of the cells of grade g (at most g) over the axes passed.
    A d-axis of extent e and weight 2 puts block x, ``masks[g - 2x]``, at
    bit x * size, so each grade is the one two below moved up a block, cut
    to e blocks, with its own block 0 added::

        new[g] = masks[g] | (new[g - 2] << size) & (the low e * size bits)

    The window runs up from the lowest grade kept, and only the grades that
    the axes still to come can carry to k are kept.  Above the middle grade
    an exact mask counts the grades down from the top cell instead (the
    co-grade top - k, a cell's distance below the top), which puts block x
    at bit (e - 1 - x) * size::

        new[j] = masks[j] << (e - 1) * size | new[j - 2] >> size

    so the window covers the grades between k and the nearer end of the
    box.  On c, the first axis (weight 1), only grade k is built: its blocks
    are ORed in pairs, so each level of the pairing passes over the mask
    once.  At most, a grade above the top of the axes passed reads their top
    grade, the whole block.
    """
    weight = 2  # of each d_i; c has weight 1
    rest = shape[0] - 1 + weight * sum(e - 1 for e in shape[1:])  # the top grade
    flip = not at_most and 2 * k > rest  # count the grades down from the top cell
    k = rest - k if flip else k
    top, size, masks = 0, 1, {0: 1}

    def block(h: int) -> int:
        return masks.get(min(h, top) if at_most else h, 0)

    for extent in shape[:0:-1]:
        rest -= weight * (extent - 1)
        full, last = (1 << size * extent) - 1, size * (extent - 1)
        grown: dict[int, int] = {}
        for g in range(min(masks, default=0), min(k, top + weight * (extent - 1)) + 1):
            low = grown.get(g - weight, 0)
            if flip:
                grown[g] = block(g) << last | low >> size
            else:
                grown[g] = block(g) | low << size & full
        top += weight * (extent - 1)
        masks = {g: mask for g, mask in grown.items() if g >= min(k - rest, top)}
        size *= extent
    blocks = [block(k - a) for a in range(shape[0])][:: -1 if flip else 1]
    while len(blocks) > 1:  # the odd one out is paired with 0
        blocks = [lo | hi << size for lo, hi in zip(blocks[::2], blocks[1::2] + [0])]
        size *= 2
    return blocks[0]


def graded_piece(p: TruncPoly, k: int) -> TruncPoly:
    """The degree-k homogeneous part (grading a + 2*sum b_i)."""
    if not _is_int(k):
        raise ValueError(f"the degree must be an integer, got {k!r}")
    return TruncPoly(p.spec, p.grid & _grade_mask(p.spec.shape, k))


def dual_sw_dold(spec: DoldSpec, up_to: int) -> TruncPoly:
    """Sum of the dual classes wbar_0 + ... + wbar_up_to.

    The inverse of the total class is the product of its inverted factors.
    With 2^L at least every extent of the box, (1+c)^(2^L) = 1 + c^(2^L) = 1
    and likewise (1+c+d_i)^(2^L) = 1 in the ring, so a factor to the power
    -e is the same factor to the power 2^L - e (`_class_grid`); grades above
    ``up_to`` are then cleared, unless ``up_to`` is the top grade.
    """
    if not _is_int(up_to):
        raise ValueError(f"up_to must be an integer, got {up_to!r}")
    if not 0 <= up_to <= spec.dimension:
        raise ValueError(f"up_to must lie in 0..{spec.dimension}, got {up_to}")
    period = _period(spec.n, spec.ms)
    grid = _class_grid(spec, [period - e for e in _total_exponents(spec)], spec.shape)
    if up_to < spec.dimension:
        grid &= _grade_mask(spec.shape, up_to, at_most=True)
    return TruncPoly(spec, grid)


def coefficient(p: TruncPoly, a: int, bs: Sequence[int]) -> int:
    """GF(2) coefficient of c^a * d_1^{b_1} ... d_r^{b_r}."""
    spec = p.spec
    bs_t = tuple(bs)
    if len(bs_t) != spec.r:
        raise ValueError(f"expected {spec.r} d-exponents, got {len(bs_t)}")
    if not _in_box(spec, a, bs_t):
        raise ValueError(f"exponents ({a}, {bs_t}) outside the truncation bounds")
    return p.grid >> _cell_index(spec, a, bs_t) & 1


@dataclass(frozen=True)
class DoldReport:
    """Outcome of verify_dold."""

    n: int
    ms: tuple[int, ...]
    dimension: int
    alpha_hat: int
    grade: int
    orientable: bool
    nonvanishing: bool

    @property
    def verified(self) -> bool:
        return self.orientable and self.nonvanishing

    def to_json_dict(self) -> dict:
        return {**asdict(self), "ms": list(self.ms)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "DoldReport":
        return _read_report(text, lambda d: cls(**{**d, "ms": tuple(d["ms"])}))


def verify_dold(spec: DoldSpec) -> DoldReport:
    """Orientability (vanishing w_1) and nonvanishing of wbar_{N - alpha_hat(N)}.

    Two routes: the class grids and the Lucas-parity closed form
    (`_lucas_verdict`); RuntimeError if they disagree.  On the grids, w_1
    is read from the total class multiplied in the box cut to grades <= 1,
    (min(n, 1) + 1, 1, ..., 1): the quotient by (c^2, d_i), which keeps
    grades 0 and 1 exactly, so w_1 is its c cell.  The dual class is
    multiplied in the ring's own box (`dual_sw_dold`).  Both products check
    r <= n + 1 and then refuse a ring above ``MAX_GRID_CELLS``, so the cut
    refuses what the full box would.
    """
    N = spec.dimension
    a_hat = alpha_hat(N)
    grade = N - a_hat
    cut = (min(spec.n, 1) + 1, *(1,) * spec.r)
    orientable = not _class_grid(spec, _total_exponents(spec), cut) >> 1  # the c cell
    # the unclipped dual class: the one grade is read by its own mask
    nonvanishing = not graded_piece(dual_sw_dold(spec, N), grade).is_zero()
    closed = _lucas_verdict(spec.n, spec.ms)
    if closed != (orientable, nonvanishing):
        raise RuntimeError(
            f"class grids and Lucas parities disagree on {spec}: "
            f"(orientable, nonvanishing) = {(orientable, nonvanishing)} "
            f"vs {closed}"
        )
    return DoldReport(
        n=spec.n, ms=spec.ms, dimension=N, alpha_hat=a_hat, grade=grade,
        orientable=orientable, nonvanishing=nonvanishing,
    )


def scan_dold(target_dim: int, max_r: int) -> list[DoldSpec]:
    """All specs of the target dimension (r <= max_r) that verify_dold accepts.

    Only the candidates the factor lemma of `_lucas_verdict` leaves are
    enumerated (`_lemma_specs`); a spec it drops has a vanishing boundary
    grade.  Each candidate is decided by the Lucas-parity closed form, every
    hit's ring is priced (refused above ``MAX_GRID_CELLS``) and then every
    hit is confirmed by the grid route of `verify_dold`; RuntimeError if a
    hit is not confirmed, so no unconfirmed hit is returned.  Deterministic
    order by (n, ms).

    The candidates are enumerated and counted before any is screened; a
    scan of more than ``SCAN_BUDGET`` candidates is refused with
    FeasibilityError as soon as its count passes the budget.  A `DoldSpec`
    is built only for a hit.
    """
    _require_int("target_dim", target_dim)
    _require_int("max_r", max_r)
    if target_dim < 1:
        raise ValueError(f"target_dim must be >= 1, got {target_dim}")
    if max_r < 1:
        raise ValueError(f"max_r must be >= 1, got {max_r}")
    pairs = list(islice(_lemma_specs(target_dim, max_r), SCAN_BUDGET + 1))
    if len(pairs) > SCAN_BUDGET:
        raise FeasibilityError(
            f"the scan of dimension {target_dim} with r <= {max_r} "
            f"screens more specs than the budget of {SCAN_BUDGET}"
        )
    hits = [DoldSpec(n, ms) for n, ms in pairs if _lucas_verdict(n, ms) == (True, True)]
    for spec in hits:  # every hit's ring is priced before any is built
        _check_cells(spec)
    for spec in hits:
        if not verify_dold(spec).verified:
            raise RuntimeError(f"the grid route does not confirm the hit {spec}")
    return sorted(hits, key=lambda s: (s.n, s.ms))


def _lemma_specs(N: int, max_r: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The (n, ms) of dimension N with r <= max_r that the factor lemma of
    `_lucas_verdict` leaves, ms ascending, lazily.

    A nonvanishing spec takes z_i >= 1 on every factor with
    (m_i - z_i) & m_i = 0, and sum(z_i) = (alpha_hat(N) - rest) / 2 <=
    floor(alpha_hat(N) / 2), the cost budget.  Write m = 2^t + s with
    s < 2^t.  Then m - z < 2^(t+1) shares no bit with m, bit t included, so
    it is a submask of 2^t - 1 - s, the t-bit complement of s, and the
    least z is m - (2^t - 1 - s) = 2s + 1.  So the candidates are
    the ascending multisets of such m with sum(2s_i + 1) within the budget
    (`_lemma_multisets`), for r <= min(max_r, (N + 1) // 3, budget), whose
    totals leave n = N - 2*sum(m_i) >= r - 1, as the class formula needs.
    """
    budget = alpha_hat(N) // 2
    for r in range(1, min(max_r, (N + 1) // 3, budget) + 1):
        for ms in _lemma_multisets(r, budget, (N - r + 1) // 2):
            yield N - 2 * sum(ms), ms


def _lemma_multisets(
    k: int, cost: int, room: int, low: int = 1
) -> Iterator[tuple[int, ...]]:
    """Ascending k-tuples of m_i = 2^t_i + s_i >= low (s_i < 2^t_i) with
    sum(2s_i + 1) <= cost and sum(m_i) <= room, for k <= cost.

    Every branch opened yields a tuple, so the work is the tuples times k.
    With the first factor m = 2^t + s, the s range ends where 2s + 1 and
    k - 1 more factors of cost 1 would pass ``cost``.  The lightest ways to
    add the k - 1 from m on are copies of m, each costing 2s + 1, and of
    2^(t+1), the least larger power of two, each costing 1: any other
    m' >= m costs and weighs at least as much as one of them.  So m fits
    iff as many copies of m as the cost leaves (at most k - 1), topped up
    with 2^(t+1), weigh at most ``room``.  That weight grows with s, so the
    s loop stops at the first misfit; the power-of-two loop stops where k
    copies of 2^t pass ``room``, and every s = 0 before that fits.
    """
    if k == 0:
        yield ()
        return
    for t in range(low.bit_length() - 1, (room // k).bit_length()):
        for s in range(max(low - (1 << t), 0), min(1 << t, (cost - k) // 2 + 1)):
            m = (1 << t) + s
            copies = min(k - 1, (cost - k - 2 * s) // (2 * s)) if s else k - 1
            if (1 + copies) * m + (k - 1 - copies) * (2 << t) > room:
                break
            for rest in _lemma_multisets(k - 1, cost - 2 * s - 1, room - m, m):
                yield (m, *rest)
