"""Milnor-basis Steenrod operations on Bott rings.

A Milnor basis element ``Sq(t_1,...,t_s)`` has grading ``sum t_i*(2^i - 1)``
and weight ``sum t_i``.  On a product of one-dimensional classes the element
acts by choosing, for each position i, a set of ``t_i`` factors (all sets
pairwise disjoint) and raising those factors to the ``2^i``-th power; it
vanishes when the weight exceeds the number of factors.  ``chi_sq(k, -)`` is
realized as the sum of all Milnor elements of grading k.

Everything here reduces through the ring of a :class:`~charclass.bott.BottMatrix`;
full-degree terms in the main family take the fast exact evaluator
:func:`~charclass.bott.top_class_bit`, everything else goes through
:func:`~charclass.bott.normal_form`, multiplication in the squarefree basis --
two routes that are cross-checked in the test suite.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from .bott import BottMatrix, main_matrix, normal_form, top_class_bit
from .poly2 import Monomial, Poly

__all__ = [
    "act",
    "beta_tuple",
    "canonical_z",
    "chi_sq",
    "enumerate_tuples",
    "format_tuple",
    "grading",
    "normalize_tuple",
    "permsum",
    "permsum_terms",
    "weight",
]


def normalize_tuple(t: Sequence[int]) -> tuple[int, ...]:
    """Canonical form: nonnegative entries, trailing zeros stripped."""
    entries = tuple(int(c) for c in t)
    if any(c < 0 for c in entries):
        raise ValueError(f"tuple entries must be >= 0: {t}")
    end = len(entries)
    while end and entries[end - 1] == 0:
        end -= 1
    return entries[:end]


def grading(t: Sequence[int]) -> int:
    """``sum t_i * (2^i - 1)`` with positions starting at 1."""
    return sum(c * ((1 << (i + 1)) - 1) for i, c in enumerate(t))


def weight(t: Sequence[int]) -> int:
    return sum(t)


def format_tuple(t: Sequence[int]) -> str:
    return "Sq(" + ",".join(str(c) for c in t) + ")"


def enumerate_tuples(k: int, max_weight: int | None = None) -> list[tuple[int, ...]]:
    """All canonical tuples of grading exactly ``k`` and weight <= ``max_weight``.

    Deterministic (sorted) order; complete by bounded recursion over positions
    with pruning on the remaining grading.
    """
    if k < 0:
        raise ValueError(f"grading must be >= 0, got {k}")
    if max_weight is not None and max_weight < 0:
        return []
    results: list[tuple[int, ...]] = []
    counts: dict[int, int] = {}

    def rec(pos: int, remaining: int, budget: int | None) -> None:
        if remaining == 0:
            length = max((i for i, c in counts.items() if c), default=0)
            t = [0] * length
            for i, c in counts.items():
                if c:
                    t[i - 1] = c
            results.append(tuple(t))
            return
        if pos < 1:
            return
        if budget is not None and budget * ((1 << pos) - 1) < remaining:
            return
        val = (1 << pos) - 1
        max_c = remaining // val
        if budget is not None:
            max_c = min(max_c, budget)
        for c in range(max_c + 1):
            counts[pos] = c
            rec(pos - 1, remaining - c * val, None if budget is None else budget - c)
        counts.pop(pos, None)

    top = (k + 1).bit_length() - 1 if k else 0
    if k == 0:
        results.append(())
    else:
        rec(top, k, max_weight)
    return sorted(results)


def _two_adic_parts(n: int) -> list[int]:
    """Ascending 2-adic exponents of n - 1 for n = 1 (mod 4); all are >= 2."""
    if n < 1 or n % 4 != 1:
        raise ValueError(f"requires n = 1 (mod 4), got n = {n}")
    rest = n - 1
    return [p for p in range(rest.bit_length()) if (rest >> p) & 1]


def beta_tuple(n: int) -> tuple[int, ...]:
    """The tuple with a single 1 at each 2-adic exponent of n - 1.

    It has grading n - alpha(n) and weight alpha(n) - 1, and is asserted (via
    :func:`enumerate_tuples`) to be the unique such tuple.
    """
    parts = _two_adic_parts(n)
    t = [0] * (parts[-1] if parts else 0)
    for p in parts:
        t[p - 1] = 1
    result = tuple(t)
    k = n - n.bit_count()
    candidates = enumerate_tuples(k, n.bit_count() - 1)
    if candidates != [result]:
        raise RuntimeError(
            f"expected a unique tuple of grading {k} and weight <= "
            f"{n.bit_count() - 1}, found {candidates}"
        )
    return result


def canonical_z(n: int) -> Monomial:
    """The class ``x_{T_1} x_{T_2} ... x_{T_r} x_n`` with T_j the partial part sums."""
    parts = _two_adic_parts(n)
    variables = []
    total = 0
    for p in parts:
        total += 1 << p
        variables.append(total)
    variables.append(n)
    return Monomial(tuple((v, 1) for v in variables))


def _assignments(
    variables: tuple[int, ...], t: tuple[int, ...]
) -> Iterator[dict[int, int]]:
    """All ways to give each position i a disjoint t_i-set of variables.

    Yields variable -> exponent maps (chosen variables get 2^i, the rest 1),
    in canonical order (positions ascending, combinations in sorted order).
    """
    positions = [(i + 1, c) for i, c in enumerate(t) if c]

    def rec(idx: int, remaining: tuple[int, ...], exps: dict[int, int]) -> Iterator[dict[int, int]]:
        if idx == len(positions):
            final = dict.fromkeys(remaining, 1)
            final.update(exps)
            yield final
            return
        pos, count = positions[idx]
        power = 1 << pos
        for chosen in combinations(remaining, count):
            chosen_set = set(chosen)
            rest = tuple(v for v in remaining if v not in chosen_set)
            nxt = dict(exps)
            for v in chosen:
                nxt[v] = power
            yield from rec(idx + 1, rest, nxt)

    return rec(0, variables, {})


def _reduce_exponents(exps: dict[int, int], M: BottMatrix) -> Poly:
    """Normal form of the monomial with the given exponents, fast path included."""
    degree = sum(exps.values())
    if M.is_main_pattern and degree == M.n:
        if top_class_bit(M, exps):
            return Poly(frozenset({Monomial.from_mask((1 << M.n) - 1)}))
        return Poly.zero()
    return normal_form(Poly(frozenset({Monomial.from_exponents(exps)})), M)


def act(t: Sequence[int], m: Monomial, M: BottMatrix) -> Poly:
    """Milnor element action on a squarefree monomial, reduced in the ring of M."""
    t = normalize_tuple(t)
    if not m.is_squarefree():
        raise ValueError(f"act requires a squarefree monomial, got {m}")
    variables = m.variables()
    if variables and variables[-1] > M.n:
        raise ValueError(f"monomial {m} uses a variable beyond x{M.n}")
    if weight(t) > len(variables):
        return Poly.zero()
    result = Poly.zero()
    for exps in _assignments(variables, t):
        result = result + _reduce_exponents(exps, M)
    return result


def chi_sq(k: int, z: Poly, M: BottMatrix) -> Poly:
    """Sum of all Milnor elements of grading k, applied to ``z`` and reduced.

    ``z`` must be in normal form (squarefree monomials).  Tuples heavier than
    a monomial's degree act as zero, so enumeration is capped by the degree.
    """
    if k < 0:
        raise ValueError(f"grading must be >= 0, got {k}")
    result = Poly.zero()
    for m in z.monomials():
        if not m.is_squarefree():
            raise ValueError(f"z must be in normal form; {m} is not squarefree")
        for t in enumerate_tuples(k, m.degree()):
            result = result + act(t, m, M)
    return result


def _admissible_bijections(r: int) -> list[tuple[int, ...]]:
    """Bijections sigma: {1..r+1} -> {0..r} with sigma(i) <= i; exactly 2^r.

    Returned as value tuples indexed by position - 1, in lexicographic order.
    """
    results: list[tuple[int, ...]] = []

    def rec(pos: int, used: set[int], acc: list[int]) -> None:
        if pos > r + 1:
            results.append(tuple(acc))
            return
        for value in range(0, min(pos, r) + 1):
            if value not in used:
                used.add(value)
                acc.append(value)
                rec(pos + 1, used, acc)
                acc.pop()
                used.remove(value)

    rec(1, set(), [])
    return results


def permsum_terms(n: int) -> list[Monomial]:
    """The 2^r unreduced summands of :func:`permsum`, in deterministic order."""
    parts = _two_adic_parts(n)
    r = len(parts)
    totals = []
    acc = 0
    for p in parts:
        acc += 1 << p
        totals.append(acc)
    variables = totals + [n]
    powers = [1] + [1 << p for p in parts]
    terms = []
    for sigma in _admissible_bijections(r):
        exps = {variables[i]: powers[sigma[i]] for i in range(r + 1)}
        terms.append(Monomial.from_exponents(exps))
    if len(terms) != 1 << r:
        raise RuntimeError(f"expected {1 << r} bijections, generated {len(terms)}")
    return terms


def permsum(n: int) -> Poly:
    """Sum over the 2^r admissible bijections of the reduced power products.

    Evaluated in ``main_matrix(n)``; each summand has full degree n, so the
    reduction goes through the exact top-class evaluator.
    """
    M = main_matrix(n)
    result = Poly.zero()
    for term in permsum_terms(n):
        result = result + _reduce_exponents(term.exponents(), M)
    return result
