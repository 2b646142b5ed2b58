"""Generalized Dold manifolds: truncated rings and characteristic classes.

``P(n; m_1,...,m_r)`` has mod-2 cohomology
``GF(2)[c, d_1..d_r] / (c^{n+1}, d_i^{m_i+1})`` with ``|c| = 1`` and
``|d_i| = 2``; its total Stiefel-Whitney class is
``(1+c)^{n+1-r} * prod_i (1+c+d_i)^{m_i+1}``, and the manifold dimension is
``N = n + 2*sum(m_i)``.

Polynomials are stored as dense GF(2) coefficient grids over the exponent box
(a, b_1, ..., b_r); truncation is just slicing.  The total class is built with
Frobenius squaring (char 2) plus Lucas parity for the pure ``(1+c)`` power, and
the dual class comes from the graded Whitney convolution, accumulated
incrementally so each grade costs one sparse-times-dense product.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .bott import FeasibilityError, _is_int, alpha_hat

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
]

MAX_GRID_CELLS = 1 << 24


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
        ms_t = tuple(int(m) for m in ms)
        if not _is_int(n) or n < 0:
            raise ValueError(f"n must be a nonnegative integer, got {n!r}")
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
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid spec JSON: {exc}") from exc
        if not isinstance(data, dict) or "n" not in data or "ms" not in data:
            raise ValueError('spec JSON must be {"n": ..., "ms": [...]}')
        ms = data["ms"]
        if not isinstance(ms, list) or not all(map(_is_int, ms)):
            raise ValueError(
                'spec JSON field "ms" must be a list of integers, '
                f"got {json.dumps(ms)}"
            )
        return cls(data["n"], ms)


@lru_cache(maxsize=None)
def _degree_grid(spec: DoldSpec) -> np.ndarray:
    """Total grading a + 2*sum(b_i) per grid cell."""
    idx = np.indices(spec.shape, dtype=np.int32)
    deg = idx[0] + 2 * sum(idx[i] for i in range(1, spec.r + 1))
    deg.flags.writeable = False
    return deg


def _check_cells(spec: DoldSpec) -> None:
    cells = math.prod(spec.shape)
    if cells > MAX_GRID_CELLS:
        raise FeasibilityError(
            f"ring of {spec} needs {cells} dense cells (> {MAX_GRID_CELLS})"
        )


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
        grid = np.ascontiguousarray(self.grid.astype(np.uint8) & 1)
        grid.flags.writeable = False
        object.__setattr__(self, "grid", grid)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncPoly):
            return NotImplemented
        return self.spec == other.spec and bool(np.array_equal(self.grid, other.grid))

    def is_zero(self) -> bool:
        return not self.grid.any()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def terms(self) -> list[tuple[int, tuple[int, ...]]]:
        """Sorted (a, (b_1..b_r)) exponent tuples of the nonzero cells."""
        return [
            (int(cell[0]), tuple(int(b) for b in cell[1:]))
            for cell in np.argwhere(self.grid)
        ]

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
        _check_cells(spec)
        return cls(spec, np.zeros(spec.shape, dtype=np.uint8))

    @classmethod
    def from_terms(
        cls, spec: DoldSpec, terms: Iterable[tuple[int, Sequence[int]]]
    ) -> "TruncPoly":
        _check_cells(spec)
        grid = np.zeros(spec.shape, dtype=np.uint8)
        for a, bs in terms:
            if not 0 <= a <= spec.n or any(
                not 0 <= b <= m for b, m in zip(bs, spec.ms, strict=True)
            ):
                raise ValueError(f"exponents ({a}, {tuple(bs)}) out of bounds")
            grid[(a, *bs)] ^= 1
        return cls(spec, grid)

    @classmethod
    def one(cls, spec: DoldSpec) -> "TruncPoly":
        return cls.from_terms(spec, [(0, (0,) * spec.r)])


def _mul_grids(a: np.ndarray, b: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Truncated GF(2) product of two grids; iterates the sparser factor."""
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


def _frobenius(grid: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Square over GF(2): every exponent doubles; truncation keeps the box."""
    out = np.zeros(shape, dtype=np.uint8)
    src = grid[tuple(slice(0, (extent - 1) // 2 + 1) for extent in shape)]
    out[tuple(slice(0, 2 * extent - 1, 2) for extent in src.shape)] = src
    return out


def _pow_in_ring(base: np.ndarray, e: int, shape: tuple[int, ...]) -> np.ndarray:
    """base**e in the truncated ring by square (Frobenius) and multiply."""
    if e == 0:
        result = np.zeros(shape, dtype=np.uint8)
        result[(0,) * len(shape)] = 1
        return result
    result = None
    for bit in bin(e)[2:]:
        if result is None:
            result = base.copy()
            continue
        result = _frobenius(result, shape)
        if bit == "1":
            result = _mul_grids(result, base, shape)
    return result


def total_sw_dold(spec: DoldSpec) -> TruncPoly:
    """Total class (1+c)^(n+1-r) * prod_i (1+c+d_i)^(m_i+1) in the ring."""
    if spec.r > spec.n + 1:
        raise ValueError(
            f"r = {spec.r} exceeds n + 1 = {spec.n + 1}; the class formula "
            "has a negative (1+c) exponent"
        )
    _check_cells(spec)
    shape = spec.shape
    grid = np.zeros(shape, dtype=np.uint8)
    origin = (0,) * spec.r
    for k in range(spec.n + 1):
        grid[(k, *origin)] = binom_parity(spec.n + 1 - spec.r, k)
    for i, m in enumerate(spec.ms, start=1):
        base = np.zeros(shape, dtype=np.uint8)
        base[(0, *origin)] = 1
        if spec.n >= 1:  # for n = 0 the class c itself is truncated away
            base[(1, *origin)] = 1
        d_cell = [0] * (spec.r + 1)
        d_cell[i] = 1
        base[tuple(d_cell)] = 1
        grid = _mul_grids(grid, _pow_in_ring(base, m + 1, shape), shape)
    return TruncPoly(spec, grid)


def graded_piece(p: TruncPoly, k: int) -> TruncPoly:
    """The degree-k homogeneous part (grading a + 2*sum b_i)."""
    deg = _degree_grid(p.spec)
    return TruncPoly(p.spec, np.where(deg == k, p.grid, np.uint8(0)))


def dual_sw_dold(spec: DoldSpec, up_to: int) -> TruncPoly:
    """Sum of the dual classes wbar_0 + ... + wbar_up_to.

    Graded Whitney inversion: wbar_0 = 1 and wbar_k = sum_{j>=1} w_j *
    wbar_{k-j}, read off grade by grade from the running product w * (wbar_0 +
    ... + wbar_{k-1}), which is updated incrementally with one w * wbar_k
    product per grade.
    """
    if not 0 <= up_to <= spec.dimension:
        raise ValueError(f"up_to must lie in 0..{spec.dimension}, got {up_to}")
    w = total_sw_dold(spec).grid
    shape = spec.shape
    deg = _degree_grid(spec)
    result = TruncPoly.one(spec).grid.copy()
    running = w.copy()  # w * (accumulated inverse)
    for k in range(1, up_to + 1):
        piece = np.where(deg == k, running, np.uint8(0))
        if piece.any():
            result ^= piece
            running ^= _mul_grids(w, piece, shape)
    return TruncPoly(spec, result)


def coefficient(p: TruncPoly, a: int, bs: Sequence[int]) -> int:
    """GF(2) coefficient of c^a * d_1^{b_1} ... d_r^{b_r}."""
    spec = p.spec
    bs_t = tuple(int(b) for b in bs)
    if len(bs_t) != spec.r:
        raise ValueError(f"expected {spec.r} d-exponents, got {len(bs_t)}")
    if not 0 <= a <= spec.n or any(
        not 0 <= b <= m for b, m in zip(bs_t, spec.ms, strict=True)
    ):
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
        return {
            "n": self.n,
            "ms": list(self.ms),
            "dimension": self.dimension,
            "alpha_hat": self.alpha_hat,
            "grade": self.grade,
            "orientable": self.orientable,
            "nonvanishing": self.nonvanishing,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "DoldReport":
        data = json.loads(text)
        return cls(
            n=data["n"],
            ms=tuple(data["ms"]),
            dimension=data["dimension"],
            alpha_hat=data["alpha_hat"],
            grade=data["grade"],
            orientable=data["orientable"],
            nonvanishing=data["nonvanishing"],
        )


def verify_dold(spec: DoldSpec) -> DoldReport:
    """Orientability (vanishing w_1) and nonvanishing of wbar_{N - alpha_hat(N)}."""
    N = spec.dimension
    a_hat = alpha_hat(N)
    grade = N - a_hat
    w = total_sw_dold(spec)
    orientable = graded_piece(w, 1).is_zero()
    dual = dual_sw_dold(spec, grade)
    nonvanishing = not graded_piece(dual, grade).is_zero()
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

    Factor multisets are canonicalized ascending; specs with r > n + 1 are
    skipped (the class formula does not apply).  Deterministic order by
    (n, ms).  Exploratory: no completeness claim is attached to the output.
    """
    if target_dim < 1:
        raise ValueError(f"target_dim must be >= 1, got {target_dim}")
    if max_r < 1:
        raise ValueError(f"max_r must be >= 1, got {max_r}")
    hits = []
    for r in range(1, max_r + 1):
        for total in range(r, target_dim // 2 + 1):
            n = target_dim - 2 * total
            if n < 0 or r > n + 1:
                continue
            for ms in _ascending_multisets(total, r):
                spec = DoldSpec(n, ms)
                if verify_dold(spec).verified:
                    hits.append(spec)
    return sorted(hits, key=lambda s: (s.n, s.ms))


def _ascending_multisets(total: int, r: int, minimum: int = 1) -> list[tuple[int, ...]]:
    """All ascending r-tuples of integers >= minimum summing to total."""
    if r == 1:
        return [(total,)] if total >= minimum else []
    result = []
    for first in range(minimum, total // r + 1):
        for rest in _ascending_multisets(total - first, r - 1, first):
            result.append((first, *rest))
    return result
