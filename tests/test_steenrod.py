"""Milnor-basis operations on Bott rings."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charclass import steenrod
from charclass.bott import (
    BottMatrix,
    alpha,
    dual_sw,
    main_matrix,
    random_orientable_matrix,
    top_coefficient,
    verify_main,
)
from charclass.poly2 import Monomial, Poly, parse_poly
from charclass.steenrod import (
    act,
    beta_tuple,
    canonical_z,
    chi_sq,
    enumerate_tuples,
    format_tuple,
    grading,
    normalize_tuple,
    permsum,
    permsum_terms,
    weight,
)

from oracles import rewrite_normal_form

X = Poly.var


# ---------------------------------------------------------------------------
# tuples


def test_normalize_grading_weight():
    assert normalize_tuple((0, 1, 0, 0)) == (0, 1)
    assert normalize_tuple(()) == ()
    assert grading((0, 1)) == 3
    assert grading((3,)) == 3
    assert grading((0, 1, 1)) == 10
    assert weight((0, 1, 1)) == 2
    with pytest.raises(ValueError):
        normalize_tuple((1, -1))


def test_format_tuple():
    assert format_tuple((0, 1)) == "Sq(0,1)"
    assert format_tuple(()) == "Sq()"


def test_enumerate_tuples_examples():
    assert set(enumerate_tuples(3)) == {(3,), (0, 1)}
    assert enumerate_tuples(10, 2) == [(0, 1, 1)]
    assert enumerate_tuples(0) == [()]


def test_enumerate_tuples_complete_and_sorted():
    # against every count vector over the positions worth at most k, filtered
    for k in range(21):
        units = [2 ** i - 1 for i in range(1, (k + 1).bit_length())]
        vectors = itertools.product(*(range(k // u + 1) for u in units))
        graded = [v for v in vectors if sum(c * u for c, u in zip(v, units)) == k]
        for max_weight in (None, *range(-1, k + 1)):
            expected = sorted(
                normalize_tuple(v) for v in graded
                if max_weight is None or sum(v) <= max_weight
            )
            assert enumerate_tuples(k, max_weight) == expected, (k, max_weight)
    assert enumerate_tuples(0, -1) == []


def test_enumerate_tuples_rejects_negative():
    with pytest.raises(ValueError):
        enumerate_tuples(-1)


def test_admissible_bijections_match_filtered_permutations():
    for r in range(7):
        expected = [
            sigma for sigma in itertools.permutations(range(r + 1))
            if all(value <= i for i, value in enumerate(sigma, start=1))
        ]
        assert len(expected) == 2 ** r
        assert list(steenrod._admissible_bijections(r)) == expected


# ---------------------------------------------------------------------------
# beta tuples and canonical classes


def test_beta_tuple_examples():
    assert beta_tuple(5) == (0, 1)
    assert beta_tuple(13) == (0, 1, 1)
    assert beta_tuple(21) == (0, 1, 0, 1)
    assert beta_tuple(29) == (0, 1, 1, 1)


def test_beta_tuple_is_unique_solution():
    for n in (5, 9, 13, 17, 21, 25, 29):
        b = beta_tuple(n)
        assert grading(b) == n - alpha(n)
        assert weight(b) == alpha(n) - 1
        assert enumerate_tuples(n - alpha(n), alpha(n) - 1) == [b]


def test_beta_tuple_rejects_bad_dimension():
    for n in (2, 3, 4, 6, 8):
        with pytest.raises(ValueError):
            beta_tuple(n)


def test_canonical_z_examples():
    assert canonical_z(5) == Monomial.from_exponents({4: 1, 5: 1})
    assert canonical_z(13) == Monomial.from_exponents({4: 1, 12: 1, 13: 1})
    assert canonical_z(1) == Monomial.from_exponents({1: 1})


def test_canonical_z_degree_is_alpha():
    for n in (1, 5, 9, 13, 17, 21, 25, 29):
        assert canonical_z(n).degree() == alpha(n)


# ---------------------------------------------------------------------------
# the action


def test_act_examples():
    M = main_matrix(5)
    z = Monomial.from_exponents({4: 1, 5: 1})
    assert act((0, 1), z, M) == parse_poly("x1*x2*x3*x4*x5")
    assert act((), z, M) == Poly.of([z])
    assert act((1,), Monomial.from_exponents({1: 1}), M) == Poly.zero()


def test_act_vanishes_above_degree():
    rng = random.Random(11)
    M = main_matrix(7)
    for _ in range(30):
        deg = rng.randint(1, 3)
        vars_ = rng.sample(range(1, 8), deg)
        m = Monomial.from_exponents({v: 1 for v in vars_})
        t = tuple(rng.randint(0, 2) for _ in range(3))
        t = normalize_tuple(t)
        if weight(t) > deg:
            assert act(t, m, M) == Poly.zero()


def test_act_rejects_non_squarefree():
    M = main_matrix(5)
    with pytest.raises(ValueError):
        act((1,), Monomial.from_exponents({2: 2}), M)


def test_act_identity_reduces():
    # the empty tuple returns the normal form of the input
    M = main_matrix(5)
    m = Monomial.from_exponents({2: 1, 3: 1})
    assert act((), m, M) == Poly.of([m])


def _brute_force_assignments(variables, t) -> list[dict[int, int]]:
    """Every way to raise t_i of the variables to the 2^i, by labelling each
    variable with a position or none, in the canonical order of the sets
    chosen for positions 1, 2, ..."""
    found = []
    for slots in itertools.product(range(len(t) + 1), repeat=len(variables)):
        chosen = tuple(
            tuple(v for v, s in zip(variables, slots) if s == i)
            for i in range(1, len(t) + 1)
        )
        if tuple(map(len, chosen)) == tuple(t):
            found.append((chosen, {v: 1 << s for v, s in zip(variables, slots)}))
    return [exps for _, exps in sorted(found, key=lambda pair: pair[0])]


def _assignment_monomials(t: tuple[int, ...], m: Monomial) -> list[Monomial]:
    """Every way to raise t_i of the variables of m to the 2^i, by brute force."""
    return [
        Monomial.from_exponents(exps)
        for exps in _brute_force_assignments(m.variables(), t)
    ]


def test_assignments_match_brute_force():
    tuples = sorted({normalize_tuple(t) for t in itertools.product(range(3), repeat=3)})
    for variables in ((), (3,), (1, 2), (1, 2, 4), (2, 3, 5, 6), (1, 2, 3, 5, 7)):
        for t in tuples:
            got = list(steenrod._assignments(variables, t))
            assert got == _brute_force_assignments(variables, t), (variables, t)


@st.composite
def _act_cases(draw) -> tuple[tuple[int, ...], Monomial, BottMatrix]:
    """A matrix (main, random orientable or any) with n <= 8, a squarefree
    monomial, and a tuple that often brings it to full degree."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["main", "orientable", "any"]))
    if kind == "main":
        M = main_matrix(n)
    elif kind == "orientable":
        M = random_orientable_matrix(n, draw(st.integers(0, 2**16)))
    else:
        cells = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        M = BottMatrix(n, [c for c in cells if draw(st.booleans())])
    variables = draw(st.lists(st.integers(1, n), unique=True, max_size=n))
    m = Monomial.from_exponents(dict.fromkeys(variables, 1))
    k = n - m.degree() if draw(st.booleans()) else draw(st.integers(0, n))
    tuples = enumerate_tuples(k, m.degree())
    t = draw(st.sampled_from(tuples)) if tuples else ()
    return t, m, M


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_act_cases())
@example(((0, 1), Monomial.from_exponents({4: 1, 5: 1}), main_matrix(5)))
@example(((1,), Monomial.from_exponents({2: 1, 3: 1, 4: 1, 5: 1}), main_matrix(5)))
@example(((2,), Monomial.from_exponents({1: 1, 2: 1, 3: 1}), main_matrix(5)))
@example(((1,), Monomial.from_exponents({1: 1, 4: 1, 5: 1}), main_matrix(5)))
@example(((1, 1), Monomial.from_exponents({2: 1, 4: 1, 5: 1}), main_matrix(5)))
@example(((3,), Monomial.from_exponents({2: 1, 3: 1, 5: 1, 7: 1}), main_matrix(7)))
def test_act_matches_rewriting_per_assignment(case):
    t, m, M = case
    expected = Poly.zero()
    for mono in _assignment_monomials(t, m):
        expected = expected + rewrite_normal_form(Poly.of([mono]), M)
    assert act(t, m, M) == expected


def test_act_full_degree_main_pattern_takes_no_normal_form(monkeypatch):
    def refuse(p, M):
        raise AssertionError("normal_form called on the top-class route")

    monkeypatch.setattr(steenrod, "normal_form", refuse)
    for n in (9, 13, 29):
        z = Poly.of([canonical_z(n)])
        top = Poly.of([Monomial.from_mask((1 << n) - 1)])
        assert chi_sq(n - alpha(n), z, main_matrix(n)) == permsum(n) == top


@st.composite
def _kronecker_cases(draw) -> tuple[BottMatrix, int, Poly]:
    n = draw(st.integers(1, 10))
    M = random_orientable_matrix(n, draw(st.integers(0, 2**16)))
    k = draw(st.integers(0, n))
    variables = draw(st.lists(
        st.integers(1, n), unique=True, min_size=n - k, max_size=n - k
    ))
    return M, k, Poly.of([Monomial.from_exponents(dict.fromkeys(variables, 1))])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_kronecker_cases())
@example((random_orientable_matrix(10, 13), 7, parse_poly("x1*x5*x9")))
def test_kronecker_duality_on_random_orientable_matrices(case):
    # <chi(Sq^k) z, [M]> = <wbar_k z, [M]> for z of degree n - k
    M, k, z = case
    assert top_coefficient(chi_sq(k, z, M), M) == top_coefficient(
        dual_sw(M, k)[k] * z, M
    )


# ---------------------------------------------------------------------------
# chi_sq


def test_chi_sq_warmup_example():
    M = main_matrix(5)
    z = Poly.of([Monomial.from_exponents({4: 1, 5: 1})])
    assert chi_sq(3, z, M) == parse_poly("x1*x2*x3*x4*x5")


def test_chi_sq_degree_zero_is_identity():
    M = main_matrix(9)
    z = parse_poly("x1*x4 + x2*x9")
    assert chi_sq(0, z, M) == z


def test_chi_sq_b12_products_vanish():
    M = main_matrix(12)
    for i in range(1, 11):
        z = Poly.of([Monomial.from_exponents({i: 1, 11: 1, 12: 1})])
        assert chi_sq(9, z, M) == Poly.zero()


def test_chi_sq_additive_in_z():
    rng = random.Random(321)
    M = main_matrix(9)
    for _ in range(10):
        k = rng.randint(0, 4)

        def rand_z():
            out = Poly.zero()
            for _ in range(rng.randint(1, 3)):
                deg = rng.randint(1, 3)
                vars_ = rng.sample(range(1, 10), deg)
                out = out + Poly.of(
                    [Monomial.from_exponents({v: 1 for v in vars_})]
                )
            return out

        z1, z2 = rand_z(), rand_z()
        assert chi_sq(k, z1 + z2, M) == chi_sq(k, z1, M) + chi_sq(k, z2, M)


# ---------------------------------------------------------------------------
# permsum


def test_permsum_terms_five_frozen():
    terms = permsum_terms(5)
    assert len(terms) == 2
    assert {tuple(sorted(m.exponents().items())) for m in terms} == {
        ((4, 1), (5, 4)),
        ((4, 4), (5, 1)),
    }


def test_permsum_term_counts():
    for n, r in ((5, 1), (9, 1), (13, 2), (17, 1), (21, 2), (29, 3)):
        assert len(permsum_terms(n)) == 2 ** r


def test_permsum_five_reduces_to_top():
    assert permsum(5) == parse_poly("x1*x2*x3*x4*x5")


def test_permsum_matches_chi_sq():
    for n in (1, 5, 9, 13):
        M = main_matrix(n)
        z = Poly.of([canonical_z(n)])
        assert permsum(n) == chi_sq(n - alpha(n), z, M)


def test_permsum_top_coefficient():
    for n in (5, 9, 13):
        assert top_coefficient(permsum(n), main_matrix(n)) == 1


def test_steenrod_route_verifies_n125():
    assert verify_main(125, "steenrod").verified
