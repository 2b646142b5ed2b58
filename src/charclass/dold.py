"""Generalized Dold manifolds: truncated rings and characteristic classes.

``P(n; m_1,...,m_r)`` has mod-2 cohomology
``GF(2)[c, d_1..d_r] / (c^{n+1}, d_i^{m_i+1})`` with ``|c| = 1`` and
``|d_i| = 2``; its total Stiefel-Whitney class is
``(1+c)^{n+1-r} * prod_i (1+c+d_i)^{m_i+1}``, and the manifold dimension is
``N = n + 2*sum(m_i)``.

Polynomials are stored as dense GF(2) coefficient grids over the exponent box
(a, b_1, ..., b_r); truncation is just slicing.  The total class and the dual
class are both products of powers of the factors ``1+c`` and ``1+c+d_i``.
In char 2 a power is one factor ``1 + c^(2^t) (+ d_i^(2^t))`` per binary
digit 2^t of its exponent, and multiplying by that factor is one shifted XOR:
a copy of the grid, moved 2^t cells along c (and d_i), is XORed back in.  The
dual class raises each factor to ``2^L - e`` in place of ``-e``, since every
factor to the power ``2^L`` is 1 once ``2^L`` covers the box.  A class costs
the cells times the digits of its exponents.

The verdicts of `verify_dold` also have a grid-free closed form,
`_lucas_verdict`: each coefficient of the dual class is a product of r + 1
binomial parities read by Lucas's theorem.  `scan_dold` decides every spec
by it, so a scan costs the specs it screens, and confirms each hit on the
grids; `verify_dold` runs both routes and requires them to agree.

NumPy is imported by the functions that build or read a grid, on first use:
it costs about half of a command-line start, and the closed form needs none.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .bott import FeasibilityError, _is_int, _read_input, _read_report, alpha_hat

if TYPE_CHECKING:
    import numpy as np

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
SCAN_BUDGET = 50_000  # specs one scan_dold screens


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

    @property
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


@lru_cache(maxsize=4)
def _degree_grid(spec: DoldSpec) -> np.ndarray:
    """Total grading a + 2*sum(b_i) per grid cell, as an outer sum of ranges.

    Cached for the few reads of one `verify_dold`; a scan builds grids only
    to confirm its hits, one after another, so a small bound suffices.
    """
    import numpy as np

    deg = np.arange(spec.n + 1, dtype=np.int32)
    for m in spec.ms:
        deg = np.add.outer(deg, 2 * np.arange(m + 1, dtype=np.int32))
    deg.flags.writeable = False
    return deg


def _check_cells(spec: DoldSpec) -> None:
    cells = math.prod(spec.shape)
    if cells > MAX_GRID_CELLS:
        raise FeasibilityError(
            f"ring of {spec} needs {cells} dense cells (> {MAX_GRID_CELLS})"
        )


def _in_box(spec: DoldSpec, a: int, bs: Sequence[int]) -> bool:
    """Whether c^a * prod d_i^b_i is a cell of the ring's exponent box.

    ValueError if an exponent is not an int: NumPy would read a bool as a
    mask and a float as an error of its own.
    """
    if not (_is_int(a) and all(map(_is_int, bs))):
        raise ValueError(f"exponents must be integers, got ({a!r}, {tuple(bs)!r})")
    return 0 <= a <= spec.n and all(
        0 <= b <= m for b, m in zip(bs, spec.ms, strict=True)
    )


def _period(n: int, ms: Sequence[int]) -> int:
    """The least 2^L above n and every m_i, so 2^L covers every box extent."""
    return 1 << max(n, *ms).bit_length()


@dataclass(frozen=True, eq=False)
class TruncPoly:
    """GF(2) polynomial in the truncated ring of ``spec``, as a dense grid."""

    spec: DoldSpec
    grid: np.ndarray

    def __post_init__(self) -> None:
        if self.grid.shape != self.spec.shape:
            raise ValueError(
                f"grid shape {self.grid.shape} does not match ring {self.spec.shape}"
            )
        grid = self.grid.astype("uint8", order="C") & 1
        grid.flags.writeable = False
        object.__setattr__(self, "grid", grid)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncPoly):
            return NotImplemented
        return self.spec == other.spec and bool((self.grid == other.grid).all())

    def is_zero(self) -> bool:
        return not self.grid.any()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def terms(self) -> list[tuple[int, tuple[int, ...]]]:
        """Sorted (a, (b_1..b_r)) exponent tuples of the nonzero cells."""
        axes = (axis.tolist() for axis in self.grid.nonzero())
        return [(a, tuple(bs)) for a, *bs in zip(*axes)]

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for a, bs in self.terms():
            factors = []
            if a:
                factors.append("c" if a == 1 else f"c^{a}")
            for i, b in enumerate(bs, start=1):
                if b:
                    name = "d" if self.spec.r == 1 else f"d{i}"
                    factors.append(name if b == 1 else f"{name}^{b}")
            parts.append("*".join(factors) if factors else "1")
        return " + ".join(parts)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, spec: DoldSpec) -> "TruncPoly":
        return cls.from_terms(spec, ())

    @classmethod
    def from_terms(
        cls, spec: DoldSpec, terms: Iterable[tuple[int, Sequence[int]]]
    ) -> "TruncPoly":
        import numpy as np

        _check_cells(spec)
        grid = np.zeros(spec.shape, dtype=np.uint8)
        for a, bs in terms:
            if not _in_box(spec, a, bs):
                raise ValueError(f"exponents ({a}, {tuple(bs)}) out of bounds")
            grid[(a, *bs)] ^= 1
        return cls(spec, grid)

    @classmethod
    def one(cls, spec: DoldSpec) -> "TruncPoly":
        return cls.from_terms(spec, [(0, (0,) * spec.r)])


def _mul_grids(a: np.ndarray, b: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Truncated GF(2) product of two grids; iterates the sparser factor.

    The general product of `trunc_mul`; the class grids need only the
    shifted XORs of `_times_digit`.
    """
    import numpy as np

    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
    out = np.zeros(shape, dtype=np.uint8)
    for cell in np.argwhere(a):
        src = b[tuple(slice(0, extent - offset) for offset, extent in zip(cell, shape))]
        dst = out[tuple(slice(offset, None) for offset in cell)]
        dst ^= src
    return out


def trunc_mul(a: TruncPoly, b: TruncPoly, spec: DoldSpec) -> TruncPoly:
    """Product in the truncated ring (out-of-range monomials are deleted)."""
    if a.spec != spec or b.spec != spec:
        raise ValueError("operands belong to a different ring")
    return TruncPoly(spec, _mul_grids(a.grid, b.grid, spec.shape))


def _class_grid(spec: DoldSpec, exponents: Sequence[int]) -> np.ndarray:
    """Grid of (1+c)^e_0 * prod_i (1+c+d_i)^e_i for ``exponents`` (e_0, e_1..e_r).

    In characteristic 2, (1+c+d_i)^(2^t) = 1 + c^(2^t) + d_i^(2^t), so the
    product takes one shifted XOR per binary digit 2^t of each exponent
    (`_times_digit`), so it costs the cells times the digits; cells past the
    box are dropped.
    """
    import numpy as np

    if spec.r > spec.n + 1:
        raise ValueError(
            f"r = {spec.r} exceeds n + 1 = {spec.n + 1}; the class formula "
            "has a negative (1+c) exponent"
        )
    _check_cells(spec)
    grid = np.zeros(spec.shape, dtype=np.uint8)
    grid[(0,) * grid.ndim] = 1
    for i, e in enumerate(exponents):
        for t in range(e.bit_length()):
            if e >> t & 1:
                _times_digit(grid, 1 << t, {0, i})
    return grid


def _times_digit(grid: np.ndarray, shift: int, axes: set[int]) -> None:
    """Multiply ``grid`` in place by 1 + sum of x^shift over ``axes``, where
    x is c on axis 0 and d_i on axis i.

    One copy of the grid, moved ``shift`` cells along each axis, is XORed
    into it; a shift past the box's extent on an axis drops out.  Costs one
    copy of the grid and one XOR of it per axis.
    """
    src = grid.copy()
    for axis in axes:
        if shift < grid.shape[axis]:
            grid.swapaxes(0, axis)[shift:] ^= src.swapaxes(0, axis)[:-shift]


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
    return TruncPoly(
        spec, _class_grid(spec, (spec.n + 1 - spec.r, *(m + 1 for m in spec.ms)))
    )


def graded_piece(p: TruncPoly, k: int) -> TruncPoly:
    """The degree-k homogeneous part (grading a + 2*sum b_i)."""
    if not _is_int(k):
        raise ValueError(f"the degree must be an integer, got {k!r}")
    return TruncPoly(p.spec, p.grid * (_degree_grid(p.spec) == k))


def dual_sw_dold(spec: DoldSpec, up_to: int) -> TruncPoly:
    """Sum of the dual classes wbar_0 + ... + wbar_up_to.

    The inverse of the total class is the product of its inverted factors.
    With 2^L at least every extent of the box, (1+c)^(2^L) = 1 + c^(2^L) = 1
    and likewise (1+c+d_i)^(2^L) = 1 in the ring, so a factor to the power
    -e is the same factor to the power 2^L - e (`_class_grid`); grades above
    ``up_to`` are then cleared.
    """
    if not _is_int(up_to):
        raise ValueError(f"up_to must be an integer, got {up_to!r}")
    if not 0 <= up_to <= spec.dimension:
        raise ValueError(f"up_to must lie in 0..{spec.dimension}, got {up_to}")
    period = _period(spec.n, spec.ms)
    grid = _class_grid(
        spec,
        (period - (spec.n + 1 - spec.r), *(period - (m + 1) for m in spec.ms)),
    )
    grid[_degree_grid(spec) > up_to] = 0
    return TruncPoly(spec, grid)


def coefficient(p: TruncPoly, a: int, bs: Sequence[int]) -> int:
    """GF(2) coefficient of c^a * d_1^{b_1} ... d_r^{b_r}."""
    spec = p.spec
    bs_t = tuple(bs)
    if len(bs_t) != spec.r:
        raise ValueError(f"expected {spec.r} d-exponents, got {len(bs_t)}")
    if not _in_box(spec, a, bs_t):
        raise ValueError(f"exponents ({a}, {bs_t}) outside the truncation bounds")
    return int(p.grid[(a, *bs_t)])


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

    Two routes: the class grids (`total_sw_dold`, `dual_sw_dold`, refused
    above ``MAX_GRID_CELLS``) and the Lucas-parity closed form
    (`_lucas_verdict`); RuntimeError if they disagree.
    """
    N = spec.dimension
    a_hat = alpha_hat(N)
    grade = N - a_hat
    w = total_sw_dold(spec)
    orientable = graded_piece(w, 1).is_zero()
    dual = dual_sw_dold(spec, grade)
    nonvanishing = not graded_piece(dual, grade).is_zero()
    closed = _lucas_verdict(spec.n, spec.ms)
    if closed != (orientable, nonvanishing):
        raise RuntimeError(
            f"class grids and Lucas parities disagree on {spec}: "
            f"(orientable, nonvanishing) = {(orientable, nonvanishing)} "
            f"vs {closed}"
        )
    return DoldReport(
        n=spec.n,
        ms=spec.ms,
        dimension=N,
        alpha_hat=a_hat,
        grade=grade,
        orientable=orientable,
        nonvanishing=nonvanishing,
    )


def scan_dold(target_dim: int, max_r: int) -> list[DoldSpec]:
    """All specs of the target dimension (r <= max_r) that verify_dold accepts.

    Factor multisets are canonicalized ascending.  The class formula needs
    r <= n + 1, so with every m_i >= 1 the loops stop at r <= (N + 1) // 3
    and at factor totals leaving n >= r - 1; every iteration yields a spec.
    Deterministic order by (n, ms).  Every enumerated spec is decided by the
    Lucas-parity closed form (`_lucas_verdict`), and every hit is confirmed
    by the grid route of `verify_dold` (refused above ``MAX_GRID_CELLS``);
    RuntimeError if a hit is not confirmed.

    The (n, ms) pairs are enumerated and counted before any is screened; a
    scan of more than ``SCAN_BUDGET`` specs is refused with FeasibilityError
    as soon as its count passes the budget.  A `DoldSpec` is built only for
    a hit.
    """
    if target_dim < 1:
        raise ValueError(f"target_dim must be >= 1, got {target_dim}")
    if max_r < 1:
        raise ValueError(f"max_r must be >= 1, got {max_r}")
    specs = (
        (target_dim - 2 * total, ms)
        for r in range(1, min(max_r, (target_dim + 1) // 3) + 1)
        for total in range(r, (target_dim - r + 1) // 2 + 1)
        for ms in _ascending_multisets(total, r)
    )
    pairs = list(islice(specs, SCAN_BUDGET + 1))
    if len(pairs) > SCAN_BUDGET:
        raise FeasibilityError(
            f"the scan of dimension {target_dim} with r <= {max_r} "
            f"screens more specs than the budget of {SCAN_BUDGET}"
        )
    hits = [
        DoldSpec(n, ms) for n, ms in pairs if _lucas_verdict(n, ms) == (True, True)
    ]
    for spec in hits:
        if not verify_dold(spec).verified:
            raise RuntimeError(f"the grid route does not confirm the hit {spec}")
    return sorted(hits, key=lambda s: (s.n, s.ms))


def _ascending_multisets(
    total: int, r: int, minimum: int = 1
) -> Iterator[tuple[int, ...]]:
    """All ascending r-tuples of integers >= minimum summing to total."""
    if r == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total // r + 1):
        for rest in _ascending_multisets(total - first, r - 1, first):
            yield (first, *rest)
