"""The chain ring Q_m: excess analysis, streaming expansion, and zero verifiers.

``Q_m`` is the ring ``GF(2)[x_1..x_m] / (x_1^2, x_i^2 - x_{i-1} x_i)``.  A
degree-m monomial ``prod x_i^{e_i}`` is zero exactly when some prefix of the
exponent sequence over-fills its slots (``e_1 + ... + e_d > d``); otherwise it
reduces to the top product ``x_1 ... x_m``.  That O(m) test powers a streaming
verification that ``(x_1 + ... + x_m)^m = 0`` for ``m = 2^p - 1``, whose
expansion is walked through the factorization
``prod_{i=0}^{p-1} (x_{2^i}^{2^i} + ... + x_m^{2^i})`` -- about 10.4 million
summands at p = 5.

The second half verifies the two families of vanishing products (parts a and
b) in the main-family Bott ring, converting each product-with-S-power into a
single full-degree monomial handled by the exact top-class evaluator.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterator, Sequence

import numpy as np

from .bott import FeasibilityError, chain_matrix, main_matrix, normal_form, top_class_bit
from .poly2 import Monomial, Poly
from .steenrod import _two_adic_parts

__all__ = [
    "Decomposition",
    "ExcessSequence",
    "KeyReport",
    "decompose",
    "excess",
    "expand_stream",
    "gap_count",
    "is_zero_monomial",
    "verify_key",
    "verify_zero_a",
    "verify_zero_b",
    "DEFAULT_ZERO_BUDGET",
]

DEFAULT_ZERO_BUDGET = 2_000_000


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


@dataclass(frozen=True)
class ExcessSequence:
    """Partial sums minus index: Delta_i = e_1 + ... + e_i - i."""

    deltas: tuple[int, ...]

    def __iter__(self):
        return iter(self.deltas)

    def __getitem__(self, i: int) -> int:
        return self.deltas[i]

    def __len__(self) -> int:
        return len(self.deltas)


def excess(e: Sequence[int]) -> ExcessSequence:
    """Excess sequence of a degree-m exponent sequence (Delta_m is always 0)."""
    exps = _check_degree(e)
    deltas = []
    acc = 0
    for i, v in enumerate(exps, start=1):
        acc += v
        deltas.append(acc - i)
    return ExcessSequence(tuple(deltas))


def is_zero_monomial(e: Sequence[int]) -> bool:
    """True iff the monomial is 0 in Q_m; false means it reduces to x_1...x_m."""
    exps = _check_degree(e)
    acc = 0
    for i, v in enumerate(exps, start=1):
        acc += v
        if acc > i:
            return True
    return False


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
    m = len(exps)
    d = 0
    acc = 0
    prefix = [0]
    for i, v in enumerate(exps, start=1):
        acc += v
        prefix.append(acc)
        if acc > i:
            d = i
    if d == 0:
        return None
    degree = prefix[d]
    if degree != d + 1:
        raise AssertionError(
            f"head degree {degree} != d+1 = {d + 1} for {exps}; "
            "the maximality argument is violated"
        )
    gap = degree
    if exps[gap - 1] != 0:
        raise AssertionError(f"no gap at position {gap} for {exps}")
    tail = exps[gap:]
    acc_tail = 0
    for offset, v in enumerate(tail, start=1):
        acc_tail += v
        if acc_tail > offset:
            raise AssertionError(
                f"tail of {exps} is not equivalent to x_{gap + 1}..x_{m}"
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
    odometer order (factor 0 slowest); the total count is
    ``prod_i (m + 1 - 2^i)``.
    """
    p = _stream_p(m)
    choices = [range(1 << i, m + 1) for i in range(p)]
    indices = [r.start for r in choices]

    while True:
        exps = [0] * m
        for i, j in enumerate(indices):
            exps[j - 1] += 1 << i
        yield tuple(exps)
        for i in range(p - 1, -1, -1):
            indices[i] += 1
            if indices[i] <= m:
                break
            indices[i] = choices[i].start
        else:
            return


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
    def all_counts_even(self) -> bool:
        return (
            self.total % 2 == 0
            and self.nonzero % 2 == 0
            and all(c % 2 == 0 for _, c in self.gap_counts)
        )

    @property
    def verified(self) -> bool:
        """Every ledger entry is even, hence the GF(2) sum is zero."""
        return self.all_counts_even and self.sum_is_zero

    def gap_count(self, D: int) -> int:
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
    """Verify the key identity for m = 2^p - 1 by streaming the expansion.

    Tallies, for every expansion monomial, whether it vanishes in Q_m and
    where its gap sits.  Every nonzero monomial equals the top class, so the
    identity holds iff the nonzero count is even; the gap ledger refines the
    zero count.  For p <= 3 the result is additionally cross-checked against
    the normal form of ``(x_1 + ... + x_m)^m`` in the chain matrix.
    """
    if p < 2:
        raise ValueError(
            f"p must be >= 2, got {p} (for p = 1, x_1^1 = x_1 != 0 in Q_1)"
        )
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    m = (1 << p) - 1
    total = stream_count(m)
    if workers == 1:
        zero, gap_hist = _fold_range(m, p, 0, total)
    else:
        bounds = [total * w // workers for w in range(workers + 1)]
        zero = 0
        gap_hist = np.zeros(m + 2, dtype=np.int64)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_fold_range, m, p, bounds[w], bounds[w + 1])
                for w in range(workers)
            ]
            for fut in futures:
                z, h = fut.result()
                zero += z
                gap_hist += h
    gap_counts = tuple(
        (D, int(gap_hist[D])) for D in range(len(gap_hist)) if gap_hist[D]
    )
    report = KeyReport(
        m=m, total=total, zero=zero, nonzero=total - zero, gap_counts=gap_counts
    )
    if p <= 3:
        full_sum = Poly.of(Monomial.var(v) for v in range(1, m + 1))
        nf = normal_form(full_sum ** m, chain_matrix(m))
        if nf.is_zero() != report.sum_is_zero:
            raise RuntimeError(
                f"stream parity ({report.sum_is_zero}) disagrees with the "
                f"squarefree-basis normal form ({nf.is_zero()}) at p = {p}"
            )
    return report


@lru_cache(maxsize=None)
def _gap_counts_for(m: int) -> dict[int, int]:
    p = _stream_p(m)
    _, gap_hist = _fold_range(m, p, 0, stream_count(m))
    return {D: int(gap_hist[D]) for D in range(len(gap_hist)) if gap_hist[D]}


def gap_count(m: int, D: int) -> int:
    """Number of expansion monomials of (x_1+...+x_m)^m whose gap sits at D."""
    if not 1 <= D <= m:
        raise ValueError(f"D must lie in 1..{m}, got {D}")
    _stream_p(m)
    return _gap_counts_for(m).get(D, 0)


# ---------------------------------------------------------------------------
# the vanishing-product verifiers (parts a and b)


def _parts_and_totals(n: int) -> tuple[list[int], list[int]]:
    parts = _two_adic_parts(n)
    powers = [1 << p for p in parts]
    totals = []
    acc = 0
    for P in powers:
        acc += P
        totals.append(acc)
    return powers, totals


def verify_zero_a(
    n: int, i: int, j: int, budget: int = DEFAULT_ZERO_BUDGET
) -> bool:
    """Part a: every product L * x_{T_j - P_i + 1}...x_n * S^(P_j - 1) vanishes.

    Here P_1 < ... < P_r are the 2-adic parts of n - 1, T_j their partial
    sums, S = x_1 + ... + x_{n-2}, and L ranges over ALL monomials (multisets,
    repeats allowed) of degree T_j - P_i - P_j + 1 in x_1..x_{T_j - P_i - 1}.
    Evaluated in main_matrix(n) by collapsing S^(P_j - 1) * x_n into x_n^{P_j}
    and reading the top-class coefficient, which must be 0 in every case.

    Refuses (FeasibilityError) when the multiset count exceeds ``budget``.
    """
    powers, totals = _parts_and_totals(n)
    r = len(powers)
    if not (1 <= i < j <= r):
        raise ValueError(f"need 1 <= i < j <= r = {r}, got (i, j) = ({i}, {j})")
    P_i, P_j, T_j = powers[i - 1], powers[j - 1], totals[j - 1]
    l_degree = T_j - P_i - P_j + 1
    l_top = T_j - P_i - 1
    count = math.comb(l_top + l_degree - 1, l_degree)
    if count > budget:
        raise FeasibilityError(
            f"verify_zero_a(n={n}, i={i}, j={j}) needs {count} multisets "
            f"(> budget {budget}); raise the budget to run exhaustively"
        )
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
    """
    powers, totals = _parts_and_totals(n)
    r = len(powers)
    if not 1 <= j <= r:
        raise ValueError(f"need 1 <= j <= r = {r}, got j = {j}")
    P_j = powers[j - 1]
    T_j = totals[j - 1]
    T_prev = totals[j - 2] if j >= 2 else 0
    exps = {v: 1 for v in range(1, T_prev + 1)}
    exps.update({v: 1 for v in range(T_j, n)})
    exps[n] = P_j
    return top_class_bit(main_matrix(n), exps) == 0
