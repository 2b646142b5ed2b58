"""Independent routes that exist only to cross-check the package.

Nothing in ``src/`` imports this module.  Each route here shares no
recurrence with the production code it is compared against.
"""

from __future__ import annotations

import heapq
from itertools import product as _iter_product
from typing import Mapping

from charclass.bott import BottMatrix
from charclass.poly2 import Monomial, Poly

__all__ = ["power_closed_form", "rewrite_normal_form"]


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
