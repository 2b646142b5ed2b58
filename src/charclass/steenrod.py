"""Milnor-basis Steenrod operations on Bott rings.

A Milnor basis element ``Sq(t_1,...,t_s)`` has grading ``sum t_i*(2^i - 1)``
and weight ``sum t_i``.  On a product of one-dimensional classes the element
acts by choosing, for each position i, a set of ``t_i`` factors (all sets
pairwise disjoint) and raising those factors to the ``2^i``-th power; it
vanishes when the weight exceeds the number of factors.  ``chi_sq(k, -)`` is
the sum of all Milnor elements of grading k.

That sum is also a ring map: the total chi(Sq) sends a class x of degree 1
to x + x^2 + x^4 + ..., so chi(Sq^k) of x_{a_1}...x_{a_r} is the grade r + k
part of prod_j (x_{a_j} + x_{a_j}^2 + x_{a_j}^4 + ...).  The product is the
Milnor sum term for term: the term that gives factor j the power 2^(i_j) is
the assignment of the tuple t with t_i = #{j : i_j = i}.

Everything here reduces through the ring of a :class:`~charclass.bott.BottMatrix`.
`chi_sq` picks each term's route: full-degree terms in the main family take
the tuples and the fast exact evaluator :func:`~charclass.bott.top_class_bit`;
the product of any other term whose largest variable is x_a is expanded on
the dense kernel of `bott` (`_DenseRing`), in the ring over x_1..x_a, whose
2^a basis elements are the bits of one int, when a <= 12, and past x12 by
sets of basis masks (`_mul_var`).  `act`, one
Milnor element at a time, sums its assignments by that evaluator or by one
:func:`~charclass.bott.normal_form`; the test suite checks `chi_sq` against
the sum of `act` over the tuples.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from typing import Iterable, Iterator, Sequence

from .bott import (
    BottMatrix,
    _DenseRing,
    _check_top_class_cost,
    _is_int,
    _mul_var,
    _require_int,
    main_matrix,
    normal_form,
    top_class_bit,
)
from .poly2 import Monomial, Poly, _packed_terms

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
    entries = tuple(t)
    if not all(map(_is_int, entries)):
        raise ValueError(f"tuple entries must be integers: {t}")
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
    if not _is_int(k) or not (max_weight is None or _is_int(max_weight)):
        raise ValueError(f"grading and weight must be integers: {k!r}, {max_weight!r}")
    if k < 0:
        raise ValueError(f"grading must be >= 0, got {k}")
    if max_weight is not None and max_weight < 0:
        return []
    return list(_tuples(k, 1, k if max_weight is None else max_weight))


def _two_adic_parts(n: int) -> tuple[list[int], list[int]]:
    """The ascending 2-adic exponents p_1 < ... < p_r of n - 1, n = 1 (mod 4).

    Returns them (all >= 2) with their running totals T_j = 2^p_1 + ... + 2^p_j.
    """
    _require_int("n", n)
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
    summed, otherwise their sum takes one `normal_form`.  `chi_sq` calls it
    only on full-degree terms in the main family; summed over the tuples of
    grading k, it is the Milnor-sum route that the tests hold `chi_sq`'s
    product against.
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


def _reaches(distance: int, factors: int) -> bool:
    """Whether ``distance`` is a sum of exactly ``factors`` powers of two."""
    return distance.bit_count() <= factors <= distance


def _xor(a: set[int], b: set[int]) -> set[int]:
    """a ^ b, in place in the larger set (both may change): the loop runs
    over the smaller one, since inserting a mask is slow where masks share
    hashes (an int hashes mod 2^61 - 1, so bits 61 apart fold together)."""
    if len(a) < len(b):
        a, b = b, a
    a ^= b
    return a


# the largest variable a term may have to take the dense route.  On 40
# random terms of 1-4 variables per a, the 2^a-bit vectors summed to less
# time than the mask sets from a = 7 on, but their worst call against the
# sets grew with 2^a: +0.06 ms at a = 12, +0.21 ms at 14, +1.6 ms at 18;
# up to 12 no call is slower than the sets by more than 0.1 ms
_DENSE_CHI_SQ_MAX = 12


def _chi_sq_dense(k: int, variables: Sequence[int], M: BottMatrix) -> int:
    """chi(Sq^k) of the squarefree monomial on ``variables`` (the grade
    deg + k part of prod_a (x_a + x_a^2 + x_a^4 + ...)) as a packed vector,
    bit m the coefficient of mask m, by one chain of `_DenseRing` sweeps
    per variable.

    Every mask of the chain lies below 2^a for the largest variable a: x_a
    times a mask either adds x_a or carries along column a, which holds only
    variables below a.  So the product lives in the sub-tower M_a (the ones
    (i, j) of M with j <= a): the ring is `_DenseRing(a, M._cols)`, whose
    sweeps never read a column past a, and it and its vectors span 2^a
    bits, whatever n is; the unit alone takes the ring of x1.  The chain
    multiplies the whole vector by x_a, one sweep a step, and adds it to the
    factor's sum at the steps that are powers of two.  A step raises every
    grade by one, the least grade after j factors is j, and each of the
    r - 1 - j later factors adds at least one more, so what step k + 2 or
    later adds lies above the target r + k: the chain stops at the last
    power of two up to k + 1, or once the vector is 0.  No step cuts
    grades; one `grade_piece` at the end keeps the target.
    """
    target, a = len(variables) + k, max(variables, default=1)
    if target > a or not _reaches(target, len(variables)):
        return 0
    last = 1 << (k + 1).bit_length() - 1  # the last power of two up to k + 1
    ring = _DenseRing(a, M._cols, sweeps=len(variables) * last)
    v = 1  # the unit, basis element 0
    for x in variables:
        power_sum = 0
        for step in range(1, last + 1):
            v = ring._mul_by_seeds({x: v})
            if not v:
                break
            if not step & (step - 1):
                power_sum ^= v
        v = power_sum
    return _DenseRing.grade_piece(v, a, target)


def _chi_sq_sets(k: int, variables: Sequence[int], M: BottMatrix) -> set[int]:
    """The product of `_chi_sq_dense` as a set of basis masks, by one chain
    of `_mul_var` sweeps per variable, for terms whose sub-tower is too
    large for the dense kernel.

    The chain multiplies the whole state by x_a, one sweep a step, and adds
    the state to the factor's sum at the steps that are powers of two.  The
    basis is graded, so a mask's popcount is its grade.  A mask joins the
    sum only when the factors still to come can bring it to the target by
    powers of two (`_reaches`; after the last factor, only masks at the
    target), and it leaves the chain once it reaches the cap, the target
    less one degree for each later factor.
    """
    target = len(variables) + k
    state = {0} if _reaches(target, len(variables)) else set()
    for left, a in zip(range(len(variables) - 1, -1, -1), variables):
        cap = target - left
        power_sum: set[int] = set()
        e = 0
        while state:
            state = _mul_var(state, a, M)
            e += 1
            if not e & (e - 1):
                joined = {g for g in state if _reaches(target - g.bit_count(), left)}
                power_sum = _xor(power_sum, joined)
            state = {g for g in state if g.bit_count() < cap}
        state = power_sum
    return state


def chi_sq(k: int, z: Poly, M: BottMatrix) -> Poly:
    """Sum of all Milnor elements of grading k, applied to ``z`` and reduced.

    ``z`` must be in normal form (squarefree monomials).  The total
    chi(Sq) is a ring map with chi(Sq)(x) = x + x^2 + x^4 + ... on a class
    of degree 1, so chi(Sq^k) of x_{a_1}...x_{a_r} is the grade r + k part
    of prod_j (x_{a_j} + x_{a_j}^2 + x_{a_j}^4 + ...).  The expansion is the
    Milnor sum term for term: giving factor j the power 2^(i_j) is the
    assignment of the tuple t with t_i = #{j : i_j = i}, whose grading is
    sum_j (2^(i_j) - 1) = k.  Terms whose image has degree n in the main
    family take the tuples, their assignments and `top_class_bit` (`act`);
    every other term is the product, expanded in the ring: on the dense
    kernel (`_chi_sq_dense`), in the 2^a-bit ring of the sub-tower over
    x_1..x_a, when the term's largest variable a is at most 12, and by sets
    of basis masks (`_chi_sq_sets`) past x12.  Terms above degree n vanish.
    The dense products add up in one packed int, the others in one set of
    masks, and the result is the GF(2) sum of the two.
    """
    _require_int("grading", k)
    if k < 0:
        raise ValueError(f"grading must be >= 0, got {k}")
    out: set[int] = set()
    packed = 0
    for m in z.monomials():
        if not m.is_squarefree():
            raise ValueError(f"z must be in normal form; {m} is not squarefree")
        variables = m.variables()
        if variables and variables[-1] > M.n:
            raise ValueError(f"monomial {m} uses a variable beyond x{M.n}")
        degree = len(variables) + k
        if degree > M.n:
            continue
        if M.is_main_pattern and degree == M.n:
            for t in enumerate_tuples(k, len(variables)):
                out.symmetric_difference_update(p.mask() for p in act(t, m, M))
        elif variables and variables[-1] > _DENSE_CHI_SQ_MAX:
            out = _xor(out, _chi_sq_sets(k, variables, M))
        else:
            packed ^= _chi_sq_dense(k, variables, M)
    terms = frozenset(map(Monomial.from_mask, out))
    return Poly(terms.symmetric_difference(_packed_terms(packed)))


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
    FeasibilityError, before the matrix or any summand is built, when their
    summed cost exceeds ``TOP_CLASS_BUDGET``.
    """
    _check_top_class_cost(n, _permsum_calls(n))
    return _permsum(main_matrix(n))


def _permsum_calls(n: int) -> dict[int, int]:
    """The exponents E of x_n in the summands of `permsum` (n = 1 mod 4),
    each with its number of summands, for `_check_top_class_cost`.

    In sigma, x_n takes the power of the value at position r + 1, and each
    bijection for r - 1 gives two (`_admissible_bijections`): one with r
    there, one that keeps its old value there.  So x_n gets 2^p_j in
    2^(j-1) summands, j = 1..r, and 1 in one, and the price is
    n * (1 + sum_j 2^(j-1) * 3^p_j) steps, found without building a summand.
    """
    parts, _ = _two_adic_parts(n)
    return {1: 1} | {1 << p: 1 << j for j, p in enumerate(parts)}


def _permsum(M: BottMatrix) -> Poly:
    """`permsum` of M.n in ``M = main_matrix(M.n)``, for a caller that holds
    M and has priced it by `_permsum_calls`."""
    return _top_class_sum(M, (term.exponents() for term in permsum_terms(M.n)))
