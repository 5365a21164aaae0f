import numpy as np
import pytest

import mackeykit.linalg as la
from mackeykit.fields import gf_make
from mackeykit.linalg import ZZ
from mackeykit.modules import (
    FPModule,
    direct_sum_modules,
    module_subquotient,
    quotient_by_submodule,
    reduced_quotient,
    submodule,
)


def test_invariant_factors():
    M = FPModule(ZZ, 2, la.mat([[2, 0], [0, 3]]))
    assert M.invariant_factors() == [6]
    N = FPModule(ZZ, 2, la.mat([[2], [0]]))   # Z^2 / (2,0) = Z/2 + Z
    assert N.invariant_factors() == [2, 0]
    assert N.free_rank == 1
    assert not N.is_free


def test_zero_and_free():
    assert FPModule(ZZ, 1, la.mat([[1]])).is_zero
    assert FPModule(ZZ, 0, la.zeros(0, 0)).is_zero
    F = FPModule(ZZ, 3)
    assert F.is_free and F.free_rank == 3
    assert not F.is_zero


def test_field_module_dim():
    F = gf_make(2, 2)
    M = FPModule(F, 4)
    assert M.gens == 4 and M.is_free


def test_reduced_quotient_integer():
    lattice = la.mat([[2, 0], [0, 3], [0, 0]])
    Q, proj, lift = reduced_quotient(ZZ, 3, lattice)
    assert la.mat_eq(la.mmul(proj, lift), la.eye(Q.gens))
    assert Q.invariant_factors() == [6, 0]
    # projection kills the lattice (in the quotient's own presentation)
    img = la.mmul(proj, lattice)
    assert Q.annihilates(img)


def test_reduced_quotient_random_sections():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(0, n + 1))
        L = la.zeros(n, k)
        for i in range(n):
            for j in range(k):
                L[i, j] = int(rng.integers(-4, 5))
        Q, proj, lift = reduced_quotient(ZZ, n, L)
        assert la.mat_eq(la.mmul(proj, lift), la.eye(Q.gens))
        assert Q.annihilates(la.mmul(proj, L))


def test_reduced_quotient_field():
    F = gf_make(5, 1)
    span = la.zeros(3, 1)
    span[0, 0] = F.one
    span[1, 0] = F.embed(2)
    Q, proj, lift = reduced_quotient(F, 3, span)
    assert Q.gens == 2
    assert la.mat_eq(la.mmul(proj, lift, base=F), la.eye(2, F))
    assert la.is_zero_mat(la.mmul(proj, span, base=F))


def test_submodule_and_quotient():
    # span of (2,0) inside Z^2
    span = la.mat([[2], [0]])
    S, incl = submodule(FPModule(ZZ, 2, la.zeros(2, 0)), span)
    assert S.invariant_factors() == [0]     # sublattice of a free module is free
    Q, proj, lift = quotient_by_submodule(FPModule(ZZ, 2, la.zeros(2, 0)), span)
    assert Q.invariant_factors() == [2, 0]
    assert la.mat_eq(la.mmul(proj, lift), la.eye(Q.gens))


def test_module_subquotient():
    # (span of e1, 2*e2) / (span of 2*e1) inside Z^2: gives Z/2 + Z
    M = FPModule(ZZ, 2, la.zeros(2, 0))
    outer = la.mat([[1, 0], [0, 2]])
    inner = la.mat([[2], [0]])
    sub, incl, quot, proj = module_subquotient(M, outer, inner)
    assert sorted(quot.invariant_factors()) == [0, 2]


def test_torsion_annihilation_and_maps_equal():
    # multiplication by 2 is the zero endomorphism of Z/2
    M = FPModule(ZZ, 1, la.mat([[2]]))
    two = la.mat([[2]])
    zero = la.mat([[0]])
    assert M.maps_equal(two, zero)
    assert not M.maps_equal(la.mat([[1]]), zero)


def test_direct_sum():
    A = FPModule(ZZ, 1, la.mat([[2]]))
    B = FPModule(ZZ, 2, la.mat([[3], [0]]))
    S = direct_sum_modules([A, B])
    assert S.gens == 3
    assert S.invariant_factors() == [6, 0]   # Z/2 + Z/3 + Z in canonical form


FIELDS = [gf_make(5, 1), gf_make(2, 2)]


def _field_cols(F, rows):
    return la.mat(rows, base=F)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_field_quotient_by_submodule(F):
    M = FPModule(F, 3)
    span = _field_cols(F, [[1, 0], [1, 1], [0, 1]])
    Q, proj, lift = quotient_by_submodule(M, span)
    assert Q.gens == 1 and Q.relations.shape == (1, 0)
    assert la.mat_eq(la.mmul(proj, lift, F), la.eye(1))
    assert la.is_zero_mat(la.mmul(proj, span, F))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_field_module_subquotient(F):
    M = FPModule(F, 3)
    outer = _field_cols(F, [[1, 0], [0, 1], [0, 0]])
    inner = _field_cols(F, [[1], [1], [0]])
    sub, incl, quot, proj = module_subquotient(M, outer, inner)
    assert (sub.gens, quot.gens) == (2, 1)
    # proj kills inner, written in sub's generators
    assert la.is_zero_mat(la.mmul(proj, la.solve(incl, inner, F), F))
    with pytest.raises(ValueError, match="inside the span"):
        module_subquotient(M, outer, _field_cols(F, [[0], [0], [1]]))
    # inner = None: the quotient of M by the span
    _, _, Q, _ = module_subquotient(M, outer)
    assert Q.gens == 1


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_field_direct_sum_and_relations(F):
    S = direct_sum_modules([FPModule(F, 1), FPModule(F, 2)])
    assert S.gens == 3 and S.relations.shape == (3, 0) and S.is_free
    assert S.invariant_factors() == [0, 0, 0] and not S.is_zero
    A = _field_cols(F, [[1], [0], [1]])
    assert S.maps_equal(A, la.coerce(A, F)) and not S.maps_equal(A, la.zeros(3, 1))
    with pytest.raises(ValueError, match="no relations"):
        FPModule(F, 1, la.mat([[1]]))


def test_direct_sum_modules_rejects_empty_and_mixed_bases():
    with pytest.raises(ValueError, match="explicit base"):
        direct_sum_modules([])
    with pytest.raises(ValueError, match="different bases"):
        direct_sum_modules([FPModule(ZZ, 1), FPModule(gf_make(2, 1), 1)])
