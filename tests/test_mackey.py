import numpy as np
import pytest

from mackeykit import linalg as la
from mackeykit.fields import gf_make
from mackeykit.gsets import CyclicGroup, FiniteGSet
from mackeykit.linalg import ZZ
from mackeykit.mackey import (MackeyFunctor, MackeyMorphism, burnside_mackey,
                              check_axioms, check_cohomological, cokernel,
                              constant_mackey, direct_sum, evaluate_at_gset,
                              fixed_point_mackey, hom_basis, image,
                              is_isomorphic, kernel, twisted_burnside_c5)


GROUPS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]


@pytest.mark.parametrize("p,n", GROUPS)
def test_burnside_axioms(p, n):
    assert check_axioms(burnside_mackey(CyclicGroup(p, n))).ok


@pytest.mark.parametrize("p,n", GROUPS)
def test_constant_axioms(p, n):
    G = CyclicGroup(p, n)
    assert check_axioms(constant_mackey(G, ZZ, 1)).ok
    assert check_axioms(constant_mackey(G, gf_make(p, 1), 2)).ok


def test_fixed_point_axioms_and_dims():
    F2 = gf_make(2, 1)
    # F_4 with its Galois action, over C_2 and over C_4 (through the quotient)
    rho = la.mat([[1, 1], [0, 1]])
    from mackeykit.linalg import coerce as _coerce_mat
    rho = _coerce_mat(rho, F2)
    M = fixed_point_mackey(CyclicGroup(2, 1), F2, rho)
    assert check_axioms(M).ok
    assert M.level_dims() == (2, 1)
    M4 = fixed_point_mackey(CyclicGroup(2, 2), F2, rho)
    assert check_axioms(M4).ok
    assert M4.level_dims() == (2, 2, 1)


def test_twisted_functor_axioms():
    T = twisted_burnside_c5()
    assert check_axioms(T).ok
    assert T.level_dims() == (1, 2)


def test_axiom_checker_rejects_bad_restriction():
    M = burnside_mackey(CyclicGroup(2, 1))
    M.res[0] = la.mat([[1, 1]])  # wrong multiplicity on the free orbit
    assert not check_axioms(M).ok


def test_cohomological():
    G = CyclicGroup(3, 1)
    assert check_cohomological(constant_mackey(G, ZZ)).ok
    # tr(res([C3/C3])) = [C3/C3 x C3/e] = [C3/e] != 3 [C3/C3]
    assert not check_cohomological(burnside_mackey(G)).ok


def test_evaluate_at_gset():
    G = CyclicGroup(2, 2)
    A = burnside_mackey(G)
    X = FiniteGSet(G, (1, 0, 2))  # free orbit plus two fixed points
    V = evaluate_at_gset(A, X)
    assert V.gens == 1 + 2 * 3


def test_direct_sum_dims():
    G = CyclicGroup(2, 1)
    S = direct_sum([burnside_mackey(G), constant_mackey(G, ZZ)])
    assert S.level_dims() == (2, 3)
    assert check_axioms(S).ok


# --- hom and isomorphism ------------------------------------------------------


def test_endomorphism_ranks_of_burnside():
    assert len(hom_basis(burnside_mackey(CyclicGroup(2, 1)),
                         burnside_mackey(CyclicGroup(2, 1)))) == 2
    assert len(hom_basis(burnside_mackey(CyclicGroup(2, 2)),
                         burnside_mackey(CyclicGroup(2, 2)))) == 3


def test_hom_into_twisted():
    A = burnside_mackey(CyclicGroup(5, 1))
    assert len(hom_basis(A, twisted_burnside_c5())) == 2


def test_self_isomorphism():
    A = burnside_mackey(CyclicGroup(2, 2))
    r = is_isomorphic(A, A)
    assert r.verdict == "isomorphic"
    assert r.witness.check().ok and r.witness.is_level_iso()


def test_isomorphism_detects_base_change_of_basis():
    A = burnside_mackey(CyclicGroup(2, 1))
    U = la.mat([[1, 1], [0, 1]])
    Ui = la.mat([[1, -1], [0, 1]])
    B = MackeyFunctor(A.group, ZZ, A.levels,
                      [la.mmul(A.res[0], Ui)],
                      [la.mmul(U, A.tr[0])],
                      [A.weyl[0], la.mmul_chain(U, A.weyl[1], Ui)])
    # same functor presented in a sheared top-level basis
    assert check_axioms(B).ok
    assert is_isomorphic(A, B).verdict == "isomorphic"


def test_twisted_functor_is_not_burnside():
    A = burnside_mackey(CyclicGroup(5, 1))
    r = is_isomorphic(A, twisted_burnside_c5())
    assert r.verdict == "not_isomorphic"
    assert r.is_definitive
    assert r.certificate["modulus"] == 5
    assert r.certificate["level"] == 1


def test_isomorphism_dimension_mismatch():
    G = CyclicGroup(2, 1)
    r = is_isomorphic(burnside_mackey(G), constant_mackey(G, ZZ))
    assert r.verdict == "not_isomorphic"


def test_field_isomorphism_exhaustive():
    F = gf_make(2, 1)
    G = CyclicGroup(2, 1)
    M = constant_mackey(G, F, 1)
    r = is_isomorphic(M, M)
    assert r.verdict == "isomorphic"


# --- kernel / image / cokernel -------------------------------------------------


def _cardinality_map():
    # A -> constant Z, orbit |X| on each level
    G = CyclicGroup(2, 1)
    A = burnside_mackey(G)
    Z = constant_mackey(G, ZZ)
    f = MackeyMorphism(A, Z, [la.mat([[1]]), la.mat([[2, 1]])])
    assert f.check().ok
    return f


def test_kernel_of_cardinality_map():
    K, incl = kernel(_cardinality_map())
    assert K.level_dims() == (0, 1)
    assert check_axioms(K).ok
    assert incl.check().ok
    # generator is +-([C2/e] - 2 [C2/C2]): killed by the cardinality map
    col = incl.components[1]
    assert abs(col[0, 0]) == 1
    assert 2 * col[0, 0] + col[1, 0] == 0


def test_image_and_cokernel_of_cardinality_map():
    f = _cardinality_map()
    I, emb = image(f)
    assert I.level_dims() == (1, 1)
    assert emb.check().ok
    C, proj = cokernel(f)
    assert all(lv.is_zero for lv in C.levels)


def test_cokernel_with_torsion():
    G = CyclicGroup(2, 1)
    Z = constant_mackey(G, ZZ)
    two = MackeyMorphism(Z, Z, [la.mat([[2]]), la.mat([[2]])])
    C, proj = cokernel(two)
    assert [lv.invariant_factors() for lv in C.levels] == [[2], [2]]
    assert check_axioms(C).ok
    K, _ = kernel(two)
    assert all(lv.is_zero for lv in K.levels)


def test_morphism_compose_identity():
    A = burnside_mackey(CyclicGroup(3, 1))
    ident = MackeyMorphism.identity(A)
    assert ident.compose(ident).check().ok
    assert ident.is_level_iso()
