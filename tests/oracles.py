"""Independent routes that exist only to cross-check the package.

Nothing in ``src/`` imports this module.  Each route here shares no
recurrence with the production code it is compared against, except
`placements_submask_walk`: the loop form of the placement DP, kept as the
reference for its packed form.  `numpy_fold_range` is the vectorized fold
over the key-identity stream that the package's bit-sliced fold replaced.
The Dold oracle works on NumPy grids of its own, not on the package's
packed ints, and converts at its ends through `_numpy_grid`.
`exhaustive_dold_specs` is every (n, ms) a Dold scan could name, the
enumeration the package's factor-lemma enumerator replaced.
"""

from __future__ import annotations

import heapq
import math
from itertools import product as _iter_product
from typing import Iterator, Mapping, Sequence

import numpy as np

from charclass.bott import BottMatrix
from charclass.dold import DoldSpec, TruncPoly, total_sw_dold
from charclass.poly2 import Monomial, Poly

__all__ = [
    "canonical_key",
    "exhaustive_dold_specs",
    "format_monomial",
    "format_poly",
    "mask_monomial",
    "numpy_fold_range",
    "placements_submask_walk",
    "power_closed_form",
    "rewrite_normal_form",
    "whitney_dual_dold",
]


# -- rendering: the per-bit and per-term routes the package replaced --------


def mask_monomial(mask: int) -> Monomial:
    """Squarefree monomial whose variable set is the bitmask (bit i-1 <-> x_i)."""
    factors = []
    while mask:
        low = mask & -mask
        factors.append((low.bit_length(), 1))
        mask ^= low
    return Monomial(tuple(factors))


def canonical_key(m: Monomial) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Sort key for the canonical monomial order: by degree, then factor tuple."""
    return (sum(e for _, e in m.factors), m.factors)


def format_monomial(m: Monomial) -> str:
    if not m.factors:
        return "1"
    parts = []
    for var, exp in m.factors:
        parts.append(f"x{var}" if exp == 1 else f"x{var}^{exp}")
    return "*".join(parts)


def format_poly(p: Poly) -> str:
    """The text of ``p``: its terms in the canonical order, joined by " + "."""
    if p.is_zero():
        return "0"
    return " + ".join(format_monomial(m) for m in sorted(p.terms, key=canonical_key))


def rewrite_normal_form(p: Poly, M: BottMatrix) -> Poly:
    """The unique squarefree-basis representative of ``p`` in the ring of ``M``.

    Iterative rewriting: pending monomials are bucketed by (highest squared
    variable, its exponent) and buckets drain in descending order.  Every
    rewrite of x_j^2 -> Lambda_j * x_j only produces strictly smaller keys
    (the matrix is strictly upper triangular), so each bucket is fully
    GF(2)-cancelled before it is expanded — large telescoping reductions
    stay small instead of materializing every intermediate monomial.
    Idempotent, additive, and multiplicative up to renormalization.
    """
    out: set[Monomial] = set()
    buckets: dict[tuple[int, int], set[Monomial]] = {}
    heap: list[tuple[int, int]] = []

    def push(m: Monomial) -> None:
        for var, exp in reversed(m.factors):
            if exp >= 2:
                key = (var, exp)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = {m}
                    heapq.heappush(heap, (-var, -exp))
                else:
                    bucket.symmetric_difference_update({m})
                return
        out.symmetric_difference_update({m})

    for m in p.terms:
        if m.factors and m.factors[-1][0] > M.n:
            raise ValueError(
                f"monomial {m} uses a variable beyond x{M.n}"
            )
        push(m)

    while heap:
        neg_var, neg_exp = heapq.heappop(heap)
        j, exp = -neg_var, -neg_exp
        column = M.col(j)
        for m in buckets.pop((j, exp)):
            lowered = {v: e for v, e in m.factors}
            lowered[j] = exp - 1
            base = Monomial.from_exponents(lowered)
            for i in column:
                push(base * Monomial.var(i))
    return Poly(frozenset(out))


def _pack_chain_tokens(counts: Mapping[int, int], top_slot: int) -> int | None:
    """Normalize a chain-ring monomial by greedy slot packing.

    ``counts`` maps a variable v (1 <= v <= top_slot) to its exponent in the
    ring with relations x_v^2 = x_{v-1} x_v, x_1^2 = 0.  Scanning slots from
    high to low, each slot absorbs one available token (tokens released at v
    can only occupy slots <= v).  Returns the squarefree bitmask, or None when
    tokens remain unplaced below slot 1 (the monomial is 0).
    """
    mask = 0
    pending = 0
    for v in range(top_slot, 0, -1):
        pending += counts.get(v, 0)
        if pending:
            mask |= 1 << (v - 1)
            pending -= 1
    return None if pending else mask


def power_closed_form(i: int, e: int, n: int) -> Poly:
    """Closed form of ``x_i^e`` in the ring of ``main_matrix(n)``.

    For i < n: the product ``x_{i-e+1} ... x_i`` when e <= i, else 0.  For
    i = n the exponent must be a power of two, and the value is
    ``(x_1 + ... + x_{n-2})^(e-1) * x_n`` expanded factor by factor and
    normalized purely by token packing.  No basis sweep is used, so this
    serves as an independent oracle for :func:`normal_form`.
    """
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} out of range 1..{n}")
    if e < 1:
        raise ValueError(f"exponent must be >= 1, got {e}")
    if i < n:
        if e > i:
            return Poly.zero()
        return Poly(frozenset({Monomial(tuple((v, 1) for v in range(i - e + 1, i + 1)))}))
    if e == 1:
        return Poly.var(n)
    if e & (e - 1):
        raise ValueError(
            f"x{n}^{e}: exponent for the last variable must be a power of two"
        )
    k = e.bit_length() - 1  # e = 2^k, k >= 1; expand S^(2^k - 1) * x_n
    masks: set[int] = set()
    top_bit = 1 << (n - 1)
    for choice in _iter_product(range(1, n - 1), repeat=k):
        counts: dict[int, int] = {}
        for t, v in enumerate(choice):
            counts[v] = counts.get(v, 0) + (1 << t)
        packed = _pack_chain_tokens(counts, n - 1)
        if packed is not None:
            masks.symmetric_difference_update({packed | top_bit})
    return Poly(frozenset(Monomial.from_mask(m) for m in masks))


def placements_submask_walk(q: int, base: Sequence[int]) -> Iterator[list[int]]:
    """The states g_L, ..., g_0 of `charclass.bott._placements` as lists.

    g_d[U] counts the placements of the digits of ``q`` outside U on the
    positions after d, with U placed at or before d.  A step pushes each
    present U whose weight fits position v, weight[U] <= v - (base_1 + ...
    + base_v), to every submask S (the digits U - S sit at v), walking all
    3^popcount(q) (U, S) pairs on exact ints.
    """
    weight = [0]
    for t in range(q.bit_length()):
        if q >> t & 1:
            weight += [w + (1 << t) for w in weight]
    g = [0] * len(weight)
    g[-1] = 1
    yield g
    prefix = sum(base)
    for v in range(len(base), 0, -1):
        room = v - prefix
        prefix -= base[v - 1]
        nxt = [0] * len(g)
        for U, c in enumerate(g):
            if not c or weight[U] > room:
                continue
            S = U
            while True:
                nxt[S] += c
                if not S:
                    break
                S = (S - 1) & U
        g = nxt
        yield g


def _numpy_grid(spec: DoldSpec, grid: int | np.ndarray) -> np.ndarray | int:
    """A packed grid of the package (bit i is cell i of the box in C order)
    as a uint8 array of the box ``spec.shape``, or such an array back as the
    packed int."""
    cells = math.prod(spec.shape)
    if isinstance(grid, np.ndarray):
        bits = np.packbits(grid.astype(np.uint8).ravel(), bitorder="little")
        return int.from_bytes(bits.tobytes(), "little")
    data = np.frombuffer(grid.to_bytes((cells + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(data, count=cells, bitorder="little").reshape(spec.shape)


def _shifted_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated GF(2) product of two grids of one shape: for every nonzero
    cell of ``a``, ``b`` padded by that cell's offsets in front and cut back
    to the box, all XOR-ed together."""
    out = np.zeros_like(b)
    for cell in zip(*a.nonzero()):
        shifted = np.pad(b, [(offset, 0) for offset in cell])
        out ^= shifted[tuple(slice(extent) for extent in b.shape)]
    return out


def whitney_dual_dold(spec: DoldSpec, up_to: int) -> TruncPoly:
    """Sum of the dual classes wbar_0 + ... + wbar_up_to of a Dold manifold.

    Graded Whitney inversion: wbar_0 = 1 and wbar_k = sum_{j>=1} w_j *
    wbar_{k-j}, read off grade by grade from the running product w * (wbar_0 +
    ... + wbar_{k-1}), which is updated incrementally with one w * wbar_k
    product per grade.  The package inverts the factors of w instead, so this
    recursion serves as an independent oracle for `dual_sw_dold`; its grids,
    their product and its degree grid are its own.
    """
    if not 0 <= up_to <= spec.dimension:
        raise ValueError(f"up_to must lie in 0..{spec.dimension}, got {up_to}")
    w = _numpy_grid(spec, total_sw_dold(spec).grid)
    index = np.indices(spec.shape)
    deg = index[0] + 2 * index[1:].sum(axis=0)
    result = np.zeros(spec.shape, dtype=np.uint8)
    result[(0,) * result.ndim] = 1
    running = w.copy()  # w * (accumulated inverse)
    for k in range(1, up_to + 1):
        piece = np.where(deg == k, running, np.uint8(0))
        if piece.any():
            result ^= piece
            running ^= _shifted_product(piece, w)
    return TruncPoly(spec, _numpy_grid(spec, result))


def _ascending_multisets(total: int, r: int, minimum: int = 1) -> Iterator[tuple[int, ...]]:
    """All ascending r-tuples of integers >= minimum summing to total."""
    if r == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total // r + 1):
        for rest in _ascending_multisets(total - first, r - 1, first):
            yield (first, *rest)


def exhaustive_dold_specs(N: int, max_r: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every (n, ms) of dimension N with r <= max_r, ms ascending, m_i >= 1
    and r <= n + 1 (the class formula's range)."""
    for r in range(1, min(max_r, (N + 1) // 3) + 1):
        for total in range(r, (N - r + 1) // 2 + 1):
            for ms in _ascending_multisets(total, r):
                yield N - 2 * total, ms


# -- the key-identity stream: the vectorized fold the package replaced -----


def numpy_fold_range(m: int, p: int, start: int, stop: int) -> tuple[int, np.ndarray]:
    """Count zero monomials and their gap positions over an odometer range.

    Returns (zero_count, gap_histogram) where gap_histogram[D] counts items
    whose decomposition head has degree D.  Vectorized: for each factor i the
    chosen variable is J_i, and the monomial is zero iff for some i the
    running prefix at J_i, S_i = sum_k 2^k [J_k <= J_i], exceeds J_i; the
    maximal over-full index is then max_i min(next_i - 1, S_i - 1).
    """
    sizes = [m + 1 - (1 << i) for i in range(p)]
    zero_count = 0
    gap_hist = np.zeros(m + 2, dtype=np.int64)
    block = 1 << 18
    for lo in range(start, stop, block):
        hi = min(lo + block, stop)
        rem = np.arange(lo, hi, dtype=np.int64)
        J = np.empty((p, hi - lo), dtype=np.int32)
        for i in range(p - 1, -1, -1):
            rem, offset = np.divmod(rem, sizes[i])
            J[i] = offset.astype(np.int32) + (1 << i)
        dstar = np.zeros(hi - lo, dtype=np.int32)
        for i in range(p):
            s_i = np.zeros(hi - lo, dtype=np.int32)
            next_i = np.full(hi - lo, m + 1, dtype=np.int32)
            for k in range(p):
                le = J[k] <= J[i]
                s_i += (1 << k) * le.astype(np.int32)
                gt = ~le & (J[k] < next_i)
                np.copyto(next_i, J[k], where=gt)
            cand = np.minimum(next_i - 1, s_i - 1)
            np.copyto(dstar, np.maximum(dstar, cand), where=s_i > J[i])
        zero_mask = dstar > 0
        zero_count += int(np.count_nonzero(zero_mask))
        gaps = dstar[zero_mask] + 1
        gap_hist += np.bincount(gaps, minlength=m + 2)
    return zero_count, gap_hist
