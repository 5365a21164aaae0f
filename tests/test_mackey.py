import numpy as np
import pytest

from mackeykit import linalg as la
from mackeykit.fields import gf_make
from mackeykit.gsets import CyclicGroup
from mackeykit.linalg import ZZ
from mackeykit.mackey import (MackeyFunctor, MackeyMorphism, burnside_mackey,
                              check_axioms, cokernel, constant_mackey, direct_sum,
                              fixed_point_mackey, hom_basis, image,
                              is_isomorphic, kernel, twisted_burnside_c5)
from mackeykit.modules import FPModule


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
    rho = la.mat([[1, 1], [0, 1]], base=F2)
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
    assert r.verdict != "inconclusive"
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


def _regular_fixed_points_map(F):
    """The one hom from the fixed points of the regular C4-representation
    over F, level dimensions (4, 2, 1), to the constant functor on F."""
    G = CyclicGroup(2, 2)
    rho = la.zeros(4, 4)
    for i in range(4):
        rho[(i + 1) % 4, i] = 1
    M = fixed_point_mackey(G, F, la.coerce(rho, F))
    (f,) = hom_basis(M, constant_mackey(G, F))
    return f


KERNEL_CASES = [
    ("F3", lambda: _regular_fixed_points_map(gf_make(3, 1))),
    ("GF4", lambda: _regular_fixed_points_map(gf_make(2, 2))),
]


def _is_zero_morphism(f):
    return all(lv.annihilates(c) for lv, c in zip(f.target.levels, f.components))


@pytest.mark.parametrize("build", [c[1] for c in KERNEL_CASES], ids=[c[0] for c in KERNEL_CASES])
def test_kernel_image_cokernel_ranks(build):
    f = build()
    M, N, base = f.source, f.target, f.source.base
    ranks = [la.rank(c, base) for c in f.components]
    K, incl = kernel(f)
    assert K.level_dims() == tuple(g - r for g, r in zip(M.level_dims(), ranks))
    assert check_axioms(K).ok and incl.check().ok
    assert _is_zero_morphism(f.compose(incl))
    I, emb = image(f)
    assert I.level_dims() == tuple(ranks)
    assert check_axioms(I).ok and emb.check().ok
    C, proj = cokernel(f)
    assert [lv.free_rank for lv in C.levels] == [g - r for g, r in zip(N.level_dims(), ranks)]
    assert check_axioms(C).ok and proj.check().ok
    assert _is_zero_morphism(proj.compose(f))


def test_field_map_vanishes_above_the_bottom_in_characteristic_two():
    # over GF(4) the map is zero on levels 1 and 2, so the cokernel is not
    f = _regular_fixed_points_map(gf_make(2, 2))
    assert cokernel(f)[0].level_dims() == (0, 1, 1)
    assert kernel(f)[0].level_dims() == (3, 2, 1)


def _constant_with_level(module):
    """C2-functor with the given level twice, res = id, tr = 2, weyl = id."""
    g = module.gens
    return MackeyFunctor(CyclicGroup(2, 1), ZZ, [module, module], [la.eye(g)],
                         [la.scalar_mul(2, la.eye(g))], [la.eye(g), la.eye(g)])


def test_hom_and_kernel_refuse_torsion_levels_over_z():
    T = _constant_with_level(FPModule(ZZ, 1, la.mat([[2]])))     # Z/2 on each level
    assert check_axioms(T).ok
    with pytest.raises(NotImplementedError):
        hom_basis(T, T)
    with pytest.raises(NotImplementedError):
        kernel(MackeyMorphism.identity(T))


def test_hom_kernel_image_accept_levels_with_unit_relations():
    # Z^2 / (1, 0) is free of rank 1: its relation has invariant factor 1,
    # so U is the constant functor Z in a redundant presentation
    U = _constant_with_level(FPModule(ZZ, 2, la.mat([[1], [0]])))
    Z = constant_mackey(CyclicGroup(2, 1), ZZ)
    assert check_axioms(U).ok
    for A, B in [(U, U), (U, Z), (Z, U)]:
        homs = hom_basis(A, B)
        assert len(homs) == 1 and all(f.check().ok for f in homs)
    (f,) = hom_basis(U, U)
    sign = 1 if U.levels[0].maps_equal(f.components[0], la.eye(2)) else -1
    assert all(lv.maps_equal(c, la.scalar_mul(sign, la.eye(2)))
               for lv, c in zip(U.levels, f.components))
    ident = MackeyMorphism.identity(U)
    zero = MackeyMorphism(U, U, [la.zeros(2, 2), la.zeros(2, 2)])
    for g, kernel_dims, image_dims in [(ident, (0, 0), (1, 1)), (zero, (1, 1), (0, 0))]:
        K, incl = kernel(g)
        assert K.level_dims() == kernel_dims and check_axioms(K).ok and incl.check().ok
        assert _is_zero_morphism(g.compose(incl))
        I, emb = image(g)
        assert I.level_dims() == image_dims and check_axioms(I).ok and emb.check().ok


def test_constructors_and_decisions_reject_bad_input_with_value_error():
    G = CyclicGroup(2, 1)
    M, N = constant_mackey(G, gf_make(2, 1)), constant_mackey(G, gf_make(3, 1))
    with pytest.raises(ValueError, match="res_0"):
        MackeyFunctor(G, M.base, M.levels, [la.zeros(1, 2)], M.tr, M.weyl)
    with pytest.raises(ValueError, match="levels"):
        MackeyFunctor(G, M.base, M.levels[:1], M.res, M.tr, M.weyl)
    with pytest.raises(ValueError, match="component 1"):
        MackeyMorphism(M, M, [la.eye(1), la.eye(2)])
    for call in (lambda: MackeyMorphism(M, N, [la.eye(1), la.eye(1)]),
                 lambda: hom_basis(M, N), lambda: is_isomorphic(M, N),
                 lambda: direct_sum([M, N]), lambda: direct_sum([])):
        with pytest.raises(ValueError):
            call()


def test_compose_rejects_maps_that_do_not_meet():
    A, C = burnside_mackey(CyclicGroup(2, 1)), constant_mackey(CyclicGroup(2, 1), ZZ)
    f, g = MackeyMorphism.identity(A), MackeyMorphism.identity(C)
    with pytest.raises(ValueError, match="compose"):
        f.compose(g)
    assert f.compose(f).is_level_iso()
