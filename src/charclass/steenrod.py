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

from itertools import accumulate, combinations
from typing import Iterable, Iterator, Sequence

from .bott import (
    BottMatrix,
    _check_top_class_cost,
    main_matrix,
    normal_form,
    top_class_bit,
)
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


def _tuples(remaining: int, pos: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Canonical tuples (t_pos, t_pos+1, ...) of grading ``remaining`` and
    weight <= ``budget``, in lexicographic order.

    A branch ends once position ``pos`` is worth more than what remains, or
    once the budget spent on the largest position that still fits
    (2^i - 1 <= remaining) cannot reach it.
    """
    if not remaining:
        yield ()
        return
    val = (1 << pos) - 1
    top = (1 << ((remaining + 1).bit_length() - 1)) - 1
    if val > remaining or budget * top < remaining:
        return
    for c in range(min(remaining // val, budget) + 1):
        for rest in _tuples(remaining - c * val, pos + 1, budget - c):
            yield (c, *rest)


def enumerate_tuples(k: int, max_weight: int | None = None) -> list[tuple[int, ...]]:
    """All canonical tuples of grading exactly ``k`` and weight <= ``max_weight``.

    Sorted order: one recursive pass over the positions in ascending order,
    each count ascending.  A tuple's weight never exceeds its grading, so
    ``max_weight=None`` is the bound k.
    """
    if k < 0:
        raise ValueError(f"grading must be >= 0, got {k}")
    if max_weight is not None and max_weight < 0:
        return []
    return list(_tuples(k, 1, k if max_weight is None else max_weight))


def _two_adic_parts(n: int) -> tuple[list[int], list[int]]:
    """The ascending 2-adic exponents p_1 < ... < p_r of n - 1, n = 1 (mod 4).

    Returns them (all >= 2) with their running totals T_j = 2^p_1 + ... + 2^p_j.
    """
    if n < 1 or n % 4 != 1:
        raise ValueError(f"requires n = 1 (mod 4), got n = {n}")
    rest = n - 1
    parts = [p for p in range(rest.bit_length()) if (rest >> p) & 1]
    totals = list(accumulate(1 << p for p in parts))
    return parts, totals


def beta_tuple(n: int) -> tuple[int, ...]:
    """The tuple with a single 1 at each 2-adic exponent of n - 1.

    It has grading n - alpha(n) and weight alpha(n) - 1, and is asserted (via
    :func:`enumerate_tuples`) to be the unique such tuple.
    """
    parts, _ = _two_adic_parts(n)
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
    _, totals = _two_adic_parts(n)
    return Monomial(tuple((v, 1) for v in totals + [n]))


def _assignments(
    variables: Sequence[int], t: Sequence[int], power: int = 2
) -> Iterator[dict[int, int]]:
    """All ways to give each position i a disjoint t_i-set of variables.

    Yields variable -> exponent maps (chosen variables get 2^i, the rest 1),
    in canonical order (positions ascending, combinations in sorted order);
    ``power`` is 2^i of the first position of ``t``.
    """
    if not t:
        yield dict.fromkeys(variables, 1)
        return
    for chosen in combinations(variables, t[0]):
        left = [v for v in variables if v not in chosen]
        for exps in _assignments(left, t[1:], 2 * power):
            exps.update(dict.fromkeys(chosen, power))
            yield exps


def _top_class_sum(M: BottMatrix, monomials: Iterable[dict[int, int]]) -> Poly:
    """Sum of full-degree monomials (exponent maps) in the main family: the
    top class times the parity of their top-class bits."""
    bit = 0
    for exps in monomials:
        bit ^= top_class_bit(M, exps)
    return Poly.of([Monomial.from_mask((1 << M.n) - 1)] if bit else [])


def act(t: Sequence[int], m: Monomial, M: BottMatrix) -> Poly:
    """Milnor element action on a squarefree monomial, reduced in the ring of M.

    Every assignment has degree deg m + grading(t), so the route is chosen
    once: above degree n the action is 0 (the ring vanishes there), in the
    main family at full degree the top-class bits of the assignments are
    summed, otherwise their sum takes one `normal_form`.
    """
    t = normalize_tuple(t)
    if not m.is_squarefree():
        raise ValueError(f"act requires a squarefree monomial, got {m}")
    variables = m.variables()
    if variables and variables[-1] > M.n:
        raise ValueError(f"monomial {m} uses a variable beyond x{M.n}")
    degree = m.degree() + grading(t)
    if weight(t) > len(variables) or degree > M.n:
        return Poly.zero()
    assignments = _assignments(variables, t)
    if M.is_main_pattern and degree == M.n:
        return _top_class_sum(M, assignments)
    return normal_form(Poly.of(map(Monomial.from_exponents, assignments)), M)


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


def _admissible_bijections(r: int) -> Iterator[tuple[int, ...]]:
    """Bijections sigma: {1..r+1} -> {0..r} with sigma(i) <= i; exactly 2^r.

    Yielded as value tuples indexed by position - 1, in lexicographic order.
    The value r sits at position r or r + 1, so each bijection for r - 1
    gives two: r appended, or r put at position r and the old last value
    moved after it.  Two bijections for r - 1 differ before their last
    value, so the order carries over.
    """
    if r == 0:
        yield (0,)
        return
    for s in _admissible_bijections(r - 1):
        yield (*s, r)
        yield (*s[:-1], r, s[-1])


def permsum_terms(n: int) -> list[Monomial]:
    """The 2^r unreduced summands of :func:`permsum`, in deterministic order."""
    parts, totals = _two_adic_parts(n)
    r = len(parts)
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
    sum is the parity of the summands' exact top-class bits.  Refused with
    FeasibilityError, before any summand is evaluated, when their summed
    cost exceeds ``TOP_CLASS_BUDGET``.
    """
    M = main_matrix(n)
    terms = permsum_terms(n)
    _check_top_class_cost(n, [term.exponent(n) for term in terms])
    return _top_class_sum(M, (term.exponents() for term in terms))
