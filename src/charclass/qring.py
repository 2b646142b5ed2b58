"""The chain ring Q_m: excess analysis, the key-identity ledger, zero verifiers.

``Q_m`` is the ring ``GF(2)[x_1..x_m] / (x_1^2, x_i^2 - x_{i-1} x_i)``.  A
degree-m monomial ``prod x_i^{e_i}`` is zero exactly when some prefix of the
exponent sequence over-fills its slots (``e_1 + ... + e_d > d``); otherwise it
reduces to the top product ``x_1 ... x_m``.  That test decides the identity
``(x_1 + ... + x_m)^m = 0`` for ``m = 2^p - 1``, whose expansion follows the
factorization ``prod_{i=0}^{p-1} (x_{2^i}^{2^i} + ... + x_m^{2^i})`` -- about
10 million summands at p = 5, 2 * 10^10 at p = 6.  The ledger of zero and
nonzero summands is counted exactly by the placement DP of
`bott._placements` over the positions of the placed factors, the count
behind `top_class_bit` too (about m * 3^p steps, p <= 10 within budget); for
p <= 4 it is cross-checked against a vectorized fold over the streamed
summands.  The zero test and the decomposition read the prefix rule from
`excess`.

The second half verifies the two families of vanishing products (parts a and
b) in the main-family Bott ring, converting each product-with-S-power into a
single full-degree monomial handled by the exact top-class evaluator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate, combinations_with_replacement, product
from typing import TYPE_CHECKING, Iterator, Sequence

from .bott import (
    FeasibilityError, _check_top_class_cost, _placements, main_matrix, top_class_bit
)
from .steenrod import _two_adic_parts

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Decomposition",
    "KeyReport",
    "decompose",
    "excess",
    "expand_stream",
    "is_zero_monomial",
    "verify_key",
    "verify_zero_a",
    "verify_zero_b",
]

KEY_DP_BUDGET = 100_000_000  # m * 3^p steps of the key-identity count


def _check_degree(e: Sequence[int]) -> tuple[int, ...]:
    exps = tuple(int(v) for v in e)
    if any(v < 0 for v in exps):
        raise ValueError(f"exponents must be >= 0: {e}")
    if sum(exps) != len(exps):
        raise ValueError(
            f"degree mismatch: sum {sum(exps)} != length {len(exps)} "
            "(a degree-m monomial in Q_m is required)"
        )
    return exps


def excess(e: Sequence[int]) -> tuple[int, ...]:
    """Excess sequence of a degree-m exponent sequence (Delta_m is always 0).

    Partial sums minus index: Delta_i = e_1 + ... + e_i - i.
    """
    exps = _check_degree(e)
    return tuple(acc - i for i, acc in enumerate(accumulate(exps), start=1))


def is_zero_monomial(e: Sequence[int]) -> bool:
    """True iff the monomial is 0 in Q_m; false means it reduces to x_1...x_m."""
    return any(delta > 0 for delta in excess(e))


@dataclass(frozen=True)
class Decomposition:
    """Head-times-tail structure of a zero monomial in Q_m.

    ``head`` holds e_1..e_d for the maximal over-full prefix index d; its
    degree D = e_1 + ... + e_d always equals d + 1, the exponent at position
    ``gap`` = D vanishes, and ``tail`` (e_{D+1}..e_m) is equivalent to
    x_{D+1}...x_m.
    """

    head: tuple[int, ...]
    d: int
    degree: int
    gap: int
    tail: tuple[int, ...]


def decompose(e: Sequence[int]) -> Decomposition | None:
    """Decompose a zero monomial; None when the monomial is nonzero in Q_m."""
    exps = _check_degree(e)
    deltas = excess(exps)
    over = [i for i, delta in enumerate(deltas, start=1) if delta > 0]
    if not over:
        return None
    d = over[-1]
    degree = d + deltas[d - 1]
    if degree != d + 1:
        raise AssertionError(
            f"head degree {degree} != d+1 = {d + 1} for {exps}; "
            "the maximality argument is violated"
        )
    gap = degree
    if exps[gap - 1] != 0:
        raise AssertionError(f"no gap at position {gap} for {exps}")
    tail = exps[gap:]
    # a tail prefix e_{D+1} + ... + e_{D+k} exceeds k iff Delta_{D+k} > Delta_D
    if any(delta > deltas[gap - 1] for delta in deltas[gap:]):
        raise AssertionError(
            f"tail of {exps} is not equivalent to x_{gap + 1}..x_{len(exps)}"
        )
    return Decomposition(head=exps[:d], d=d, degree=degree, gap=gap, tail=tail)


# ---------------------------------------------------------------------------
# the expansion stream and the key identity


def _stream_p(m: int) -> int:
    if m < 1 or (m + 1) & m:
        raise ValueError(f"m must be of the form 2^p - 1, got {m}")
    return (m + 1).bit_length() - 1


def expand_stream(m: int) -> Iterator[tuple[int, ...]]:
    """Exponent sequences of the expansion of (x_1 + ... + x_m)^m, m = 2^p - 1.

    One summand is chosen per factor of
    ``prod_{i=0}^{p-1}(x_{2^i}^{2^i} + ... + x_m^{2^i})``; the factor-i choice
    contributes 2^i to the chosen variable's exponent.  Yields lazily in
    `itertools.product` order (factor 0 slowest); the total count is
    ``prod_i (m + 1 - 2^i)``.
    """
    p = _stream_p(m)
    for choice in product(*(range(1 << i, m + 1) for i in range(p))):
        exps = [0] * m
        for i, j in enumerate(choice):
            exps[j - 1] += 1 << i
        yield tuple(exps)


def stream_count(m: int) -> int:
    """Size of the expansion stream: prod_{i<p} (m + 1 - 2^i)."""
    p = _stream_p(m)
    return math.prod(m + 1 - (1 << i) for i in range(p))


def _fold_range(m: int, p: int, start: int, stop: int) -> tuple[int, np.ndarray]:
    """Count zero monomials and their gap positions over an odometer range.

    Returns (zero_count, gap_histogram) where gap_histogram[D] counts items
    whose decomposition head has degree D.  Vectorized: for each factor i the
    chosen variable is J_i, and the monomial is zero iff for some i the
    running prefix at J_i, S_i = sum_k 2^k [J_k <= J_i], exceeds J_i; the
    maximal over-full index is then max_i min(next_i - 1, S_i - 1).
    """
    import numpy as np  # on first use only: it costs half a command-line start

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


def _check_key_budget(p: int) -> None:
    """Refuse, before any work, a key-identity count over KEY_DP_BUDGET steps."""
    if p > 64:  # m * 3^p passed the budget long before; skip the bignum
        steps = f"(2^{p} - 1) * 3^{p}"
    else:
        cost = ((1 << p) - 1) * 3**p
        if cost <= KEY_DP_BUDGET:
            return
        steps = str(cost)
    raise FeasibilityError(
        f"the key-identity count for p = {p} needs m * 3^p = {steps} "
        f"DP steps (> budget {KEY_DP_BUDGET})"
    )


def _count_key(m: int, p: int) -> tuple[int, dict[int, int]]:
    """Count the expansion of (x_1 + ... + x_m)^m exactly, without walking it.

    Returns (nonzero, {D: zero items whose gap sits at D}).  Factor i of the
    factorization places the digit 2^i of m at a position J_i in [2^i, m], so
    the nonzero items are the placements of the digits of m on positions
    1..m that over-fill no prefix: `bott._placements` counts them, with the
    set S_d = {i : J_i <= d} of placed factors as state, read as an integer
    (its own weight).  An item is zero iff S_d > d for some d, and its gap is
    d + 1 for the largest such d.  A state S with S > d + 1 cannot be
    completed (S_{d+1} >= S), so the zero items with gap v = d + 1 all have
    S_d = v: there are g_d(v) * prod_{i in v} (v - 2^i) of them, g_d(v)
    completions after d and factor i taking one of the positions 2^i..d.
    About m * 3^p steps on exact ints.
    """
    counts = _placements(m, (0,) * m)
    next(counts)  # g_m: every factor placed
    gaps: dict[int, int] = {}
    for v, g in zip(range(m, 0, -1), counts):
        ways = g[v]  # g is g_{v-1}
        for i in range(p):
            if v >> i & 1:
                ways *= v - (1 << i)
        if ways:
            gaps[v] = ways
    return g[0], gaps


@dataclass(frozen=True)
class KeyReport:
    """Parity ledger for the key identity (x_1 + ... + x_m)^m = 0 in Q_m."""

    m: int
    total: int
    zero: int
    nonzero: int
    gap_counts: tuple[tuple[int, int], ...]  # (D, count), D ascending

    @property
    def sum_is_zero(self) -> bool:
        """The GF(2) stream sum vanishes iff the nonzero items pair up."""
        return self.nonzero % 2 == 0

    @property
    def verified(self) -> bool:
        """Every ledger entry is even, hence the GF(2) sum is zero."""
        return (
            self.total % 2 == 0
            and self.sum_is_zero
            and all(c % 2 == 0 for _, c in self.gap_counts)
        )

    def gap_count(self, D: int) -> int:
        """Number of expansion monomials whose gap sits at D, 1 <= D <= m."""
        if not 1 <= D <= self.m:
            raise ValueError(f"D must lie in 1..{self.m}, got {D}")
        return dict(self.gap_counts).get(D, 0)

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "zero": self.zero,
            "nonzero": self.nonzero,
            "gap_counts": {str(D): c for D, c in self.gap_counts},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def verify_key(p: int, workers: int = 1) -> KeyReport:
    """Verify the key identity for m = 2^p - 1 by counting its expansion.

    Counts, over every expansion monomial, whether it vanishes in Q_m and
    where its gap sits, with the exact DP of ``_count_key`` (about m * 3^p
    steps; refused with FeasibilityError above ``KEY_DP_BUDGET``, so
    p <= 10 runs).  Every nonzero monomial equals the top class, so the
    identity holds iff the nonzero count is even; the gap ledger refines the
    zero count.  The counted zero and nonzero items must add up to the
    closed-form total, and for p <= 4 the ledger is cross-checked against
    the streamed fold ``_fold_range`` over all items.  ``workers`` is
    validated and otherwise unused: the count runs in one thread.
    """
    if p < 2:
        raise ValueError(
            f"p must be >= 2, got {p} (for p = 1, x_1^1 = x_1 != 0 in Q_1)"
        )
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _check_key_budget(p)
    m = (1 << p) - 1
    total = stream_count(m)
    nonzero, gaps = _count_key(m, p)
    zero = sum(gaps.values())
    if zero + nonzero != total:
        raise RuntimeError(
            f"key count does not add up at p = {p}: {zero} zero + {nonzero} "
            f"nonzero != {total} items"
        )
    report = KeyReport(
        m=m, total=total, zero=zero, nonzero=nonzero,
        gap_counts=tuple(sorted(gaps.items())),
    )
    if p <= 4:
        fold_zero, gap_hist = _fold_range(m, p, 0, total)
        fold_gaps = {D: int(c) for D, c in enumerate(gap_hist) if c}
        if (fold_zero, fold_gaps) != (zero, gaps):
            raise RuntimeError(
                f"counted ledger disagrees with the streamed fold at p = {p}: "
                f"zero {zero} vs {fold_zero}, gaps {gaps} vs {fold_gaps}"
            )
    return report


# ---------------------------------------------------------------------------
# the vanishing-product verifiers (parts a and b)


def verify_zero_a(n: int, i: int, j: int) -> bool:
    """Part a: every product L * x_{T_j - P_i + 1}...x_n * S^(P_j - 1) vanishes.

    Here P_1 < ... < P_r are the 2-adic parts of n - 1, T_j their partial
    sums, S = x_1 + ... + x_{n-2}, and L ranges over ALL monomials (multisets,
    repeats allowed) of degree T_j - P_i - P_j + 1 in x_1..x_{T_j - P_i - 1}.
    Evaluated in main_matrix(n) by collapsing S^(P_j - 1) * x_n into x_n^{P_j}
    and reading the top-class coefficient, which must be 0 in every case.

    One `top_class_bit` call per multiset; all are priced before the first
    and refused with FeasibilityError above ``TOP_CLASS_BUDGET``.
    """
    parts, totals = _two_adic_parts(n)
    r = len(parts)
    if not (1 <= i < j <= r):
        raise ValueError(f"need 1 <= i < j <= r = {r}, got (i, j) = ({i}, {j})")
    P_i, P_j, T_j = 1 << parts[i - 1], 1 << parts[j - 1], totals[j - 1]
    l_degree = T_j - P_i - P_j + 1
    l_top = T_j - P_i - 1
    count = math.comb(l_top + l_degree - 1, l_degree)
    _check_top_class_cost(n, (P_j,), calls=count)
    M = main_matrix(n)
    base = {v: 1 for v in range(T_j - P_i + 1, n)}
    base[n] = P_j
    for multiset in combinations_with_replacement(range(1, l_top + 1), l_degree):
        exps = dict(base)
        for v in multiset:
            exps[v] = exps.get(v, 0) + 1
        if top_class_bit(M, exps):
            return False
    return True


def verify_zero_b(n: int, j: int) -> bool:
    """Part b: x_1...x_{T_{j-1}} * x_{T_j}...x_n * S^(P_j - 1) vanishes.

    Same conventions as part a, with T_0 = 0 (empty leading block for j = 1).
    The one `top_class_bit` call is priced before anything is built and
    refused with FeasibilityError above ``TOP_CLASS_BUDGET``.
    """
    parts, totals = _two_adic_parts(n)
    r = len(parts)
    if not 1 <= j <= r:
        raise ValueError(f"need 1 <= j <= r = {r}, got j = {j}")
    P_j = 1 << parts[j - 1]
    _check_top_class_cost(n, (P_j,))
    T_j = totals[j - 1]
    T_prev = totals[j - 2] if j >= 2 else 0
    exps = {v: 1 for v in range(1, T_prev + 1)}
    exps.update({v: 1 for v in range(T_j, n)})
    exps[n] = P_j
    return top_class_bit(main_matrix(n), exps) == 0
