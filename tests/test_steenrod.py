"""Milnor-basis operations on Bott rings."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charclass import bott, steenrod
from charclass.bott import (
    BottMatrix,
    FeasibilityError,
    _DenseRing,
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


@pytest.mark.parametrize("bad", [True, 1.0, 2.5, "3"])
def test_enumerate_tuples_accepts_only_integers(bad):
    # enumerate_tuples(True) once listed the tuples of grading 1
    with pytest.raises(ValueError, match="must be integers"):
        enumerate_tuples(bad)
    with pytest.raises(ValueError, match="must be integers"):
        enumerate_tuples(3, bad)
    assert enumerate_tuples(3, None) == enumerate_tuples(3)


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


@pytest.mark.parametrize("t", [(1.5,), (True,), (0, 1.0), ("1",)])
def test_act_accepts_only_integer_tuples(t):
    # int() once read (1.5,) as Sq(1)
    with pytest.raises(ValueError, match="tuple entries must be integers"):
        act(t, Monomial(((4, 1), (5, 1))), main_matrix(5))
    with pytest.raises(ValueError, match="tuple entries must be integers"):
        normalize_tuple(t)
    with pytest.raises(ValueError, match=r"^tuple entries must be >= 0: \(1, -1\)$"):
        normalize_tuple((1, -1))


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


def _draw_matrix(draw, n: int) -> BottMatrix:
    """A main, random orientable or arbitrary matrix of dimension n."""
    kind = draw(st.sampled_from(["main", "orientable", "any"]))
    if kind == "main":
        return main_matrix(n)
    if kind == "orientable":
        return random_orientable_matrix(n, draw(st.integers(0, 2**16)))
    cells = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return BottMatrix(n, [c for c in cells if draw(st.booleans())])


@st.composite
def _act_cases(draw) -> tuple[tuple[int, ...], Monomial, BottMatrix]:
    """A matrix (main, random orientable or any) with n <= 8, a squarefree
    monomial, and a tuple that often brings it to full degree."""
    n = draw(st.integers(1, 8))
    M = _draw_matrix(draw, n)
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
    # the top class takes the tuple route, the other terms the product
    M = main_matrix(9)
    z = parse_poly("x1*x4 + x2*x9 + x1*x2*x3*x4*x5*x6*x7*x8*x9")
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


@pytest.mark.parametrize("k", [2.5, True])
def test_chi_sq_accepts_only_integer_gradings(k):
    # chi_sq(2.5, 0, M) and chi_sq(True, 0, M) once returned 0
    with pytest.raises(ValueError, match=r"^grading must be an integer, got "):
        chi_sq(k, Poly.zero(), main_matrix(5))


@pytest.mark.parametrize("k, M", [
    (1, BottMatrix(6, [(1, 2), (2, 3)])),  # the product route
    (0, main_matrix(6)),
    (400, main_matrix(6)),  # above the top degree: once 0, unchecked
])
def test_chi_sq_refuses_a_variable_beyond_the_ring(k, M):
    with pytest.raises(ValueError, match=r"^monomial x7 uses a variable beyond x6$"):
        chi_sq(k, parse_poly("x2 + x7"), M)


@st.composite
def _chi_sq_cases(draw) -> tuple[int, Poly, BottMatrix]:
    """A matrix (main, random orientable or any) with n <= 9, a grading
    0 <= k <= n + 1 that often brings the first term to full degree, and
    z of up to 3 squarefree terms, the constant 1 among them."""
    n = draw(st.integers(1, 9))
    M = _draw_matrix(draw, n)
    terms = draw(st.lists(st.sets(st.integers(1, n), max_size=n), max_size=3))
    z = Poly.of(Monomial.from_exponents(dict.fromkeys(s, 1)) for s in terms)
    full = terms and draw(st.booleans())
    k = n - len(terms[0]) if full else draw(st.integers(0, n + 1))
    return k, z, M


def _milnor_sum(k: int, z: Poly, M: BottMatrix) -> Poly:
    """chi(Sq^k) z as the sum of `act` over every tuple of grading k."""
    return Poly.of(
        term
        for m in z.monomials()
        for t in enumerate_tuples(k, m.degree())
        for term in act(t, m, M)
    )


def _term_milnor_sums(k: int, z: Poly, M: BottMatrix) -> dict[Monomial, Poly]:
    return {m: _milnor_sum(k, Poly.of([m]), M) for m in z.monomials()}


# the two product routes of a term, called directly, as Polys
_ROUTES = {
    "dense": lambda k, variables, M: _DenseRing.to_poly(
        steenrod._chi_sq_dense(k, variables, M)
    ),
    "sets": lambda k, variables, M: Poly.of(
        map(Monomial.from_mask, steenrod._chi_sq_sets(k, variables, M))
    ),
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_chi_sq_cases())
@example((3, parse_poly("x4*x5"), main_matrix(5)))
@example((0, parse_poly("1 + x2*x3"), random_orientable_matrix(6, 3)))
@example((2, parse_poly("1"), main_matrix(4)))
@example((4, parse_poly("x1*x5*x9 + x2*x3 + 1"), random_orientable_matrix(9, 13)))
@example((6, parse_poly("x2*x3*x7"), BottMatrix(9, [(1, 9), (2, 7), (3, 7), (5, 8)])))
def test_chi_sq_product_matches_the_milnor_sum(case):
    # chi_sq, and each product route on its own, term by term
    k, z, M = case
    sums = _term_milnor_sums(k, z, M)
    assert chi_sq(k, z, M) == sum(sums.values(), Poly.zero())
    for m, expected in sums.items():
        for name, route in _ROUTES.items():
            assert route(k, m.variables(), M) == expected, (name, m)


@st.composite
def _route_cases(draw) -> tuple[int, tuple[int, ...], BottMatrix]:
    """A squarefree term whose largest variable a <= 14 lies past x12 about
    half the time, a matrix (main, random orientable or any) with
    a <= n <= 14, and a grading 0 <= k <= n + 1, often one that keeps the
    target grade within x1..xa."""
    a = draw(st.integers(1, 12) | st.integers(13, 14))
    M = _draw_matrix(draw, draw(st.integers(a, 14)))
    variables = tuple(sorted(draw(st.sets(st.integers(1, a))) | {a}))
    k = draw(st.integers(0, M.n + 1) | st.integers(0, a - len(variables)))
    return k, variables, M


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_route_cases())
@example((5, (3, 9, 13, 14), random_orientable_matrix(14, 7)))
@example((6, (2, 5, 13), main_matrix(13)))
def test_chi_sq_dense_and_set_routes_agree(case):
    # past x12 too, where chi_sq takes the sets
    k, variables, M = case
    assert _ROUTES["dense"](k, variables, M) == _ROUTES["sets"](k, variables, M)


def test_chi_sq_dense_route_rings_span_the_sub_tower_only(monkeypatch):
    # x3*x7 at n = 509 sweeps 2^7 bits; the ring of M_509 itself is refused
    sizes = []
    init = _DenseRing.__init__

    def recording(self, n, cols, sweeps):
        sizes.append(n)
        init(self, n, cols, sweeps)

    monkeypatch.setattr(_DenseRing, "__init__", recording)
    with pytest.raises(FeasibilityError):
        _DenseRing(509, main_matrix(509)._cols, sweeps=1)
    cases = [(k, (3, 7), main_matrix(509)) for k in range(6)]
    cases += [(k, (2, 5, 12), random_orientable_matrix(40, 11)) for k in range(10)]
    nonzero = 0
    for k, variables, M in cases:
        sizes.clear()
        product = chi_sq(k, Poly.of([Monomial.from_exponents(dict.fromkeys(variables, 1))]), M)
        assert product == _ROUTES["sets"](k, variables, M)
        reached = steenrod._reaches(len(variables) + k, len(variables))
        assert sizes == [variables[-1]] * reached  # no ring for an early zero
        nonzero += not product.is_zero()
    assert nonzero


def test_chi_sq_sums_its_three_routes_in_one_call():
    # at k = 7 on main_matrix(14), x3*x10 and x8*x10 take the dense route
    # and their images share a mask, x1*x13 takes the sets, and the
    # 7-variable term reaches degree 14 and takes the top class
    M = main_matrix(14)
    z = parse_poly("x3*x10 + x8*x10 + x1*x13 + x1*x2*x3*x4*x5*x13*x14")
    sums = _term_milnor_sums(7, z, M)
    assert not any(p.is_zero() for p in sums.values())
    dense = [sums[m] for m in z.monomials() if m.variables()[-1] <= 12]
    assert len(dense) == 2 and dense[0].terms & dense[1].terms
    assert chi_sq(7, z, M) == sum(sums.values(), Poly.zero())


def _sums_of_powers(factors: int, limit: int) -> set[int]:
    """Every sum of exactly ``factors`` powers of two, up to ``limit``."""
    powers = [1 << i for i in range(limit.bit_length())]
    return {
        sum(c) for c in itertools.combinations_with_replacement(powers, factors)
        if sum(c) <= limit
    }


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_chi_sq_cases())
@example((4, parse_poly("x1*x5*x9"), random_orientable_matrix(9, 13)))
@example((5, parse_poly("x2*x4*x6*x8"), BottMatrix(8, [(1, 2), (2, 4), (3, 6), (1, 7)])))
@example((2, parse_poly("x3"), main_matrix(6)))  # 3 is no power of two: no sweep
def test_chi_sq_product_sweeps_only_masks_that_can_reach_the_target(case):
    # the set route: the chain over x_{a_j} starts from masks that the
    # r - j + 1 factors from a_j on can bring to grade r + k by powers of
    # two, and it sweeps no mask at or above its cap r + k - (r - j)
    k, z, M = case
    for m, expected in _term_milnor_sums(k, z, M).items():
        variables = m.variables()
        r, target = len(variables), len(variables) + k
        calls = []

        def recording(elems, l, M, _mul_var=steenrod._mul_var):
            calls.append((l, [g.bit_count() for g in elems]))
            return _mul_var(elems, l, M)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(steenrod, "_mul_var", recording)
            assert _ROUTES["sets"](k, variables, M) == expected
        started = set()
        for l, grades in calls:
            left = r - 1 - variables.index(l)
            assert all(g < target - left for g in grades), (m, l)
            if l not in started:
                started.add(l)
                reach = _sums_of_powers(left + 1, target)
                assert all(target - g in reach for g in grades), (m, l)


def test_chi_sq_off_the_top_class_route_takes_no_tuple(monkeypatch):
    # non-main matrices at any degree, and the main family below degree n
    cases = [
        (4, parse_poly("x1*x5*x9"), random_orientable_matrix(10, 13)),
        (3, parse_poly("x2*x3 + x1*x6*x8"), main_matrix(9)),
    ]
    expected = [_milnor_sum(*case) for case in cases]
    assert all(p.terms for p in expected)

    def refuse(*args):
        raise AssertionError("a Milnor tuple was used off the top-class route")

    monkeypatch.setattr(steenrod, "act", refuse)
    monkeypatch.setattr(steenrod, "enumerate_tuples", refuse)
    assert [chi_sq(*case) for case in cases] == expected


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


def test_permsum_price_is_read_from_the_two_adic_parts():
    # x_n gets 2^p_j in 2^(j-1) summands and 1 in one, as in the built
    # summands: so the price is n * (1 + sum_j 2^(j-1) * 3^p_j)
    for n in range(1, 1200, 4):
        built = Counter(t.exponent(n) for t in permsum_terms(n))
        assert steenrod._permsum_calls(n) == built, n


def test_permsum_is_priced_before_the_matrix_is_built(monkeypatch):
    # n = 10000001 is refused at once: main_matrix would hold 2e7 ones and
    # permsum_terms 2^8 summands
    def refuse(*args):
        raise AssertionError("built before the price check")

    for module in (bott, steenrod):
        monkeypatch.setattr(module, "main_matrix", refuse)
    monkeypatch.setattr(steenrod, "permsum_terms", refuse)
    calls = (
        lambda: verify_main(10_000_001, "steenrod"),
        lambda: verify_main(10_000_001, "both", direct_cap=10**8),
        lambda: permsum(10_000_001),
    )
    for call in calls:
        with pytest.raises(FeasibilityError, match=r"^top-class evaluation at n = 10000001 "):
            call()


def test_permsum_top_coefficient():
    for n in (5, 9, 13):
        assert top_coefficient(permsum(n), main_matrix(n)) == 1


def test_steenrod_route_verifies_n125():
    assert verify_main(125, "steenrod").verified
