import numpy as np
import pytest

import mackeykit.linalg as la
from mackeykit.gsets import (
    BurnsideElement,
    CyclicGroup,
    FiniteGSet,
    burnside_quotient,
    burnside_ring,
    gset_product,
    induce_gset,
    marks,
    marks_matrix,
    orbit_product,
    restrict_gset,
)

import oracles

GROUPS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]


@pytest.mark.parametrize("p,n", GROUPS)
def test_orbit_product_against_element_enumeration(p, n):
    G = CyclicGroup(p, n)
    for i in range(n + 1):
        for j in range(n + 1):
            claimed = orbit_product(G, i, j)
            pts = oracles.product_points(FiniteGSet.orbit(G, i), FiniteGSet.orbit(G, j))
            assert oracles.orbit_decompose(G, pts) == claimed.mult


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
def test_gset_product_bilinear(p, n):
    G = CyclicGroup(p, n)
    X = FiniteGSet(G, tuple(range(1, n + 2)))
    Y = FiniteGSet(G, tuple([2] * (n + 1)))
    pts = oracles.product_points(X, Y)
    assert oracles.orbit_decompose(G, pts) == gset_product(X, Y).mult
    assert gset_product(X, Y).size() == X.size() * Y.size()


@pytest.mark.parametrize("p,n", GROUPS)
def test_restriction_against_element_enumeration(p, n):
    G = CyclicGroup(p, n)
    for s in range(n + 1):
        X = FiniteGSet.orbit(G, s)
        for m in range(n + 1):
            claimed = restrict_gset(X, m)
            # subgroup generator is g^(p^(n-m))
            got = oracles.orbit_decompose(G, oracles.gset_points(X), step=p ** (n - m))
            assert got == claimed.mult
            assert claimed.size() == X.size()


@pytest.mark.parametrize("p,m,n", [(2, 0, 2), (2, 1, 2), (2, 1, 3), (3, 1, 2), (5, 0, 1)])
def test_induction_against_element_enumeration(p, m, n):
    H = CyclicGroup(p, m)
    for s in range(m + 1):
        X = FiniteGSet.orbit(H, s)
        claimed = induce_gset(X, n)
        pts, step = oracles.induced_points(X, n)
        assert oracles.decompose_by_step(p, n, pts, step) == claimed.mult
        assert claimed.size() == X.size() * p ** (n - m)


@pytest.mark.parametrize("p,n", GROUPS)
def test_marks_against_fixed_point_count(p, n):
    G = CyclicGroup(p, n)
    rng = np.random.default_rng(p * 100 + n)
    for _ in range(4):
        X = FiniteGSet(G, tuple(int(rng.integers(0, 3)) for _ in range(n + 1)))
        col = marks(X)
        for t in range(n + 1):
            assert col[t, 0] == oracles.fixed_points(X, t)


@pytest.mark.parametrize("p,n", GROUPS)
def test_marks_matrix_injective(p, n):
    M = marks_matrix(CyclicGroup(p, n))
    # triangular with nonzero diagonal -> injective over Q
    for i in range(n + 1):
        for j in range(n + 1):
            if i > j:
                assert M[i, j] == 0
        assert M[i, i] == p ** (n - i)
    assert la.bareiss_det(M) != 0
    # marks are multiplicative: mark(X*Y) = mark(X) .* mark(Y) pointwise
    G = CyclicGroup(p, n)
    X = FiniteGSet.orbit(G, 0)
    Y = FiniteGSet.orbit(G, min(1, n))
    mx, my = marks(X), marks(Y)
    mp = marks(gset_product(X, Y))
    for t in range(n + 1):
        assert mp[t, 0] == mx[t, 0] * my[t, 0]


def test_burnside_element_algebra():
    G = CyclicGroup(2, 2)
    rng = np.random.default_rng(3)
    es = [BurnsideElement(G, tuple(int(rng.integers(-3, 4)) for _ in range(3)))
          for _ in range(4)]
    one = BurnsideElement(G, (0, 0, 1))
    for a in es:
        assert (a * one).coeffs == a.coeffs
        for b in es:
            assert (a * b).coeffs == (b * a).coeffs
            for c in es:
                assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
                assert (a * (b + c)).coeffs == (a * b + a * c).coeffs


def test_burnside_element_from_gsets_is_multiplicative():
    G = CyclicGroup(3, 2)
    X = FiniteGSet(G, (1, 2, 0))
    Y = FiniteGSet(G, (0, 1, 1))
    lhs = BurnsideElement.of_gset(gset_product(X, Y))
    rhs = BurnsideElement.of_gset(X) * BurnsideElement.of_gset(Y)
    assert lhs.coeffs == rhs.coeffs


C2, C3, C4 = CyclicGroup(2, 1), CyclicGroup(3, 1), CyclicGroup(2, 2)


@pytest.mark.parametrize("make", [
    lambda: FiniteGSet(C2, (1, -2)),
    lambda: FiniteGSet(C2, (1, 0, 0)),
    lambda: FiniteGSet(C2, (1, 0.5)),
    lambda: BurnsideElement(C2, (1, 2, 3)),
    lambda: BurnsideElement(C2, (1, 2)) + BurnsideElement(C3, (1, 2)),
    lambda: BurnsideElement(C2, (1, 2)) * BurnsideElement(C4, (0, 0, 1)),
    lambda: gset_product(FiniteGSet(C2, (1, 0)), FiniteGSet(C3, (1, 0))),
], ids=["negative-multiplicity", "too-many-orbits", "fractional-multiplicity",
        "too-many-coefficients", "sum-across-groups", "product-across-groups",
        "gset-product-across-groups"])
def test_malformed_gsets_and_elements_raise_value_error(make):
    # ValueError, not assert: the checks hold under python -O too
    with pytest.raises(ValueError):
        make()


def test_burnside_ring_matches_element_products():
    G = CyclicGroup(2, 2)
    R = burnside_ring(G)
    for i in range(3):
        for j in range(3):
            col = R.product_of_basis(i, j)
            prod = orbit_product(G, i, j)
            assert tuple(int(col[s, 0]) for s in range(3)) == prod.mult
    assert R.labels == ["[C4/e]", "[C4/C2]", "[C4/C4]"]


def test_burnside_quotient_free_case():
    G = CyclicGroup(2, 2)
    A = burnside_ring(G)
    g = la.zeros(3, 1)
    g[1, 0] = 1
    g[2, 0] = -2
    q = burnside_quotient(A, [g])      # kill [C4/C2] - 2
    assert q.presentation == "Z[y]/(y^2-4y)"
    assert q.ring.rank == 2
    from mackeykit.rings import based_ring_check
    assert based_ring_check(q.ring).ok


def test_burnside_quotient_torsion_rejected():
    G = CyclicGroup(2, 2)
    A = burnside_ring(G)
    g = la.zeros(3, 1)
    g[0, 0] = 1
    g[2, 0] = -4                       # [C4/e] - 4 gives a Z/4 summand
    with pytest.raises(ValueError, match="torsion"):
        burnside_quotient(A, [g])
