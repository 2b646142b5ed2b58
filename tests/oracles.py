"""Independent routes that exist only to cross-check the package.

Nothing in ``src/`` imports this module.  Each route here shares no
recurrence with the production code it is compared against.
"""

from __future__ import annotations

import heapq

from charclass.bott import BottMatrix
from charclass.poly2 import Monomial, Poly

__all__ = ["rewrite_normal_form"]


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
