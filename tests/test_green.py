import pytest

from mackeykit import linalg as la
from mackeykit.fields import gf_make
from mackeykit.gsets import CyclicGroup, FiniteGSet, gset_product
from mackeykit.linalg import ZZ
from mackeykit.mackey import (MackeyFunctor, burnside_mackey, fixed_point_mackey,
                              check_axioms, constant_mackey, is_isomorphic,
                              twisted_burnside_c5)
from mackeykit.green import (GreenFunctor, GreenModule, GreenModuleMorphism,
                             GreenMorphism, base_change_cp, base_change_map_cp,
                             box_product_general,
                             burnside_green, char_example_green, check_green,
                             check_green_module, constant_green,
                             direct_sum_green_modules, fixed_point_green,
                             green_module_from_invariant_span, green_module_hom_basis,
                             level_twisted_ring, module_from_green,
                             morita_matrix_units, tensor_modules,
                             TwistedGroupRing, twisted_group_ring)
from mackeykit.modules import FPModule
from mackeykit.rings import based_ring_check, ring_is_field


def _identity_green(G):
    return GreenMorphism(G, G, [la.eye(G.ring(s).rank, G.base) for s in range(G.n + 1)])


def _mod_p(M, field):
    """Reduce an integer Mackey functor to the given prime field."""
    levels = [FPModule(field, lv.gens) for lv in M.levels]
    return MackeyFunctor(M.group, field, levels, M.res, M.tr, M.weyl,
                         name=(M.name or "M") + " mod p")


# --- green functor checks -------------------------------------------------------


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 1)])
def test_burnside_green(p, n):
    assert check_green(burnside_green(CyclicGroup(p, n))).ok


@pytest.mark.parametrize("base", [ZZ, gf_make(2, 1), gf_make(3, 1)])
def test_constant_green(base):
    assert check_green(constant_green(CyclicGroup(2, 2), base)).ok


@pytest.mark.parametrize("pn,field", [
    ((2, 1), (2, 2)), ((2, 2), (2, 2)), ((2, 1), (3, 2)), ((2, 2), (2, 4)),
    ((3, 1), (2, 3)), ((2, 1), (2, 1)),
])
def test_fixed_point_green(pn, field):
    G = fixed_point_green(CyclicGroup(*pn), gf_make(*field))
    assert check_green(G).ok
    assert G.is_meadow()


def test_fixed_point_green_dims():
    assert fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2)).level_dims() == (2, 1)
    assert fixed_point_green(CyclicGroup(2, 2), gf_make(2, 2)).level_dims() == (2, 2, 1)
    assert fixed_point_green(CyclicGroup(2, 2), gf_make(2, 4)).level_dims() == (4, 2, 1)


def test_fixed_point_green_rejects_wrong_order():
    with pytest.raises(ValueError, match="frobenius power"):
        fixed_point_green(CyclicGroup(2, 1), gf_make(2, 4))  # order-4 action on C_2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_char_example_green(p):
    G = char_example_green(p)
    assert check_green(G).ok
    assert G.level_dims() == (1, 2)
    # t is nilpotent: the top level is not a field
    assert not G.is_meadow()


def test_check_green_flags_broken_transfer():
    G = constant_green(CyclicGroup(2, 1), ZZ)
    G.underlying.tr[0] = la.mat([[1]])  # violates the double-coset relation
    assert not check_green(G).ok


# --- modules --------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: burnside_green(CyclicGroup(2, 2)),
    lambda: burnside_green(CyclicGroup(3, 1)),
    lambda: constant_green(CyclicGroup(2, 1), gf_make(2, 1)),
    lambda: fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2)),
    lambda: char_example_green(2),
])
def test_regular_module(make):
    G = make()
    M = module_from_green(G)
    assert check_green_module(M).ok


def test_direct_sum_green_modules():
    G = fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2))
    M = module_from_green(G)
    S = direct_sum_green_modules([M, M])
    assert S.level_dims() == (4, 2)
    assert check_green_module(S).ok


def test_green_module_morphism_identity():
    G = burnside_green(CyclicGroup(2, 1))
    M = module_from_green(G)
    ident = GreenModuleMorphism(M, M, [la.eye(lv.gens) for lv in M.underlying.levels])
    assert ident.check().ok
    assert ident.is_level_iso()


def test_invariant_span_diagonal():
    F = gf_make(2, 1)
    G = constant_green(CyclicGroup(2, 1), F)
    M = direct_sum_green_modules([module_from_green(G), module_from_green(G)])
    spans = [la.mat([[1], [1]], base=F) for _ in range(2)]
    sub, incl = green_module_from_invariant_span(M, spans)
    assert sub.level_dims() == (1, 1)
    assert check_green_module(sub).ok
    assert incl.check().ok


def test_invariant_span_rejects_open_span():
    G = fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2))
    M = module_from_green(G)
    F = gf_make(2, 1)
    # the prime subfield of the bottom level is not closed under the F_4-action
    spans = [la.mat([[1], [0]], base=F), la.mat([[1]], base=F)]
    with pytest.raises(ValueError, match="^span not closed under the ring action at level 0$"):
        green_module_from_invariant_span(M, spans)


def test_tensor_modules_torsion():
    A = FPModule(ZZ, 2)
    B = FPModule(ZZ, 1, la.mat([[2]]))
    T = tensor_modules(A, B)
    assert T.gens == 2
    assert T.invariant_factors() == [2, 2]
    F = gf_make(3, 1)
    assert tensor_modules(FPModule(F, 2), FPModule(F, 3)).gens == 6


# --- twisted group rings ---------------------------------------------------------


def test_group_ring_untwisted():
    T = level_twisted_ring(constant_green(CyclicGroup(2, 1), gf_make(2, 1)), 0)
    assert T.ring.rank == 2 and T.ring.commutative
    assert based_ring_check(T.ring).ok
    assert not ring_is_field(T.ring)  # (w - 1)^2 = 0


def test_twisted_ring_faithful_galois():
    G = fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2))
    T = level_twisted_ring(G, 0)
    assert T.ring.rank == 4 and not T.ring.commutative
    assert based_ring_check(T.ring).ok
    assert T.theta_power_order() == 2
    W = morita_matrix_units(T)
    assert W.ok and W.corner_dim == 1 and len(W.units) == 4


@pytest.mark.parametrize("pn,field,side,corner", [
    ((2, 1), (3, 2), 2, 1),   # F_9 with C_2: Mat_2(F_3)
    ((2, 2), (2, 4), 4, 1),   # F_16 with C_4: Mat_4(F_2)
])
def test_twisted_ring_morita(pn, field, side, corner):
    T = level_twisted_ring(fixed_point_green(CyclicGroup(*pn), gf_make(*field)), 0)
    W = morita_matrix_units(T)
    assert W.ok and W.corner_dim == corner and len(W.units) == side * side


def test_twisted_ring_not_faithful():
    # C_4 acting on F_4 through its quotient: theta has order 2, not 4
    T = level_twisted_ring(fixed_point_green(CyclicGroup(2, 2), gf_make(2, 2)), 0)
    with pytest.raises(ValueError):
        morita_matrix_units(T)


def test_theta_order_past_the_group_raises():
    # Frobenius of GF(8) has order 3; a TwistedGroupRing built directly may
    # claim a group of order 2
    L = fixed_point_green(CyclicGroup(3, 1), gf_make(2, 3))
    T = TwistedGroupRing(L.ring(0), 2, L.underlying.weyl[0])
    with pytest.raises(ValueError, match="order beyond the group"):
        T.theta_power_order()


def test_morita_rejects_a_theta_that_is_not_a_field_automorphism():
    # an involution of GF(8) over F_2 that fixes a plane: no automorphism of
    # order 2 exists, since 2 does not divide 3
    L = fixed_point_green(CyclicGroup(3, 1), gf_make(2, 3)).ring(0)
    assert ring_is_field(L) and L.rank == 3
    swap = la.mat([[1, 0, 0], [0, 0, 1], [0, 1, 0]], base=L.base)
    with pytest.raises(ValueError, match="not a field automorphism"):
        morita_matrix_units(TwistedGroupRing(L, 2, swap))


def test_galois_fixed_points_of_gf_3_9_form_a_meadow():
    # 3^9 elements at the bottom level: past any listing of the ring
    G = fixed_point_green(CyclicGroup(3, 2), gf_make(3, 9))
    assert [r.rank for r in G.level_rings] == [9, 3, 1]
    assert G.is_meadow()


def test_twisted_ring_validates_theta():
    G = fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2))
    with pytest.raises(ValueError):
        twisted_group_ring(G.ring(0), 3, G.underlying.weyl[0])  # theta^3 != id


@pytest.mark.parametrize("order,theta,match", [
    (0, la.eye(2, gf_make(2, 1)), "order >= 1"),
    (2, la.eye(3, gf_make(2, 1)), "2 x 2 theta"),
])
def test_twisted_ring_rejects_bad_order_or_theta_shape(order, theta, match):
    G = fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2))
    with pytest.raises(ValueError, match=match):
        twisted_group_ring(G.ring(0), order, theta)


def test_degenerate_order_one():
    G = fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2))
    T = level_twisted_ring(G, 1)
    assert T.ring.rank == 1 and T.ring.commutative
    assert ring_is_field(T.ring)


# --- box products ----------------------------------------------------------------


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (2, 2)])
def test_box_unit_law_integers(p, n):
    G = CyclicGroup(p, n)
    A = burnside_mackey(G)
    for M in [burnside_mackey(G), constant_mackey(G, ZZ, 1),
              constant_mackey(G, ZZ, 2), ]:
        B = box_product_general(A, M)
        assert check_axioms(B).ok
        assert is_isomorphic(B, M).verdict == "isomorphic"


def test_box_unit_law_twisted_side():
    A = burnside_mackey(CyclicGroup(5, 1))
    T = twisted_burnside_c5()
    B = box_product_general(A, T)
    assert is_isomorphic(B, T).verdict == "isomorphic"


def test_box_unit_law_field():
    F = gf_make(2, 1)
    G = CyclicGroup(2, 1)
    AF = _mod_p(burnside_mackey(G), F)
    for M in [constant_mackey(G, F, 1),
              fixed_point_green(G, gf_make(2, 2)).underlying]:
        B = box_product_general(AF, M)
        assert check_axioms(B).ok
        assert is_isomorphic(B, M).verdict == "isomorphic"


def test_box_commutes():
    G = CyclicGroup(2, 1)
    pairs = [(burnside_mackey(G), constant_mackey(G, ZZ, 2)),
             (twisted_burnside_c5(), burnside_mackey(CyclicGroup(5, 1)))]
    F = gf_make(2, 1)
    pairs.append((constant_mackey(G, F, 2),
                  fixed_point_green(G, gf_make(2, 2)).underlying))
    for M, N in pairs:
        assert is_isomorphic(box_product_general(M, N),
                             box_product_general(N, M)).verdict == "isomorphic"


def test_box_square_of_twisted_functor_is_burnside():
    T = twisted_burnside_c5()
    A = burnside_mackey(CyclicGroup(5, 1))
    TT = box_product_general(T, T)
    assert check_axioms(TT).ok
    assert is_isomorphic(TT, A).verdict == "isomorphic"
    r = is_isomorphic(T, A)
    assert r.verdict == "not_isomorphic" and r.certificate["modulus"] == 5


def test_box_respects_orbit_sizes():
    # box of d-dimensional constant functors matches the product of G-sets
    # on the free level: dims multiply levelwise at the bottom
    G = CyclicGroup(3, 1)
    M = constant_mackey(G, ZZ, 2)
    N = constant_mackey(G, ZZ, 3)
    B = box_product_general(M, N)
    assert B.levels[0].gens == 6
    assert check_axioms(B).ok


def test_box_field_c4():
    F = gf_make(2, 1)
    G = CyclicGroup(2, 2)
    AF = _mod_p(burnside_mackey(G), F)
    M = fixed_point_green(G, gf_make(2, 2)).underlying
    B = box_product_general(AF, M)
    assert check_axioms(B).ok
    assert is_isomorphic(B, M).verdict == "isomorphic"


@pytest.mark.parametrize("p", [2, 3])
def test_box_of_induced_functors_collapses(p):
    # over the burnside unit the modules are plain mackey functors, so the
    # box of two induced frees must be copies of the lower one:
    # F_i box F_j = F_min^(p^(n - max))
    from mackeykit.functors import free_module
    from mackeykit.mackey import direct_sum
    G = CyclicGroup(p, 1)
    R = burnside_green(G)
    frees = [free_module(R, i).underlying for i in range(2)]
    for i in range(2):
        for j in range(2):
            B = box_product_general(frees[i], frees[j])
            copies = p ** (1 - max(i, j))
            model = direct_sum([frees[min(i, j)]] * copies)
            assert is_isomorphic(B, model).verdict == "isomorphic", (i, j)


# --- base change ------------------------------------------------------------------


def test_base_change_identity():
    for G in [burnside_green(CyclicGroup(2, 1)),
              fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2))]:
        M = module_from_green(G)
        B = base_change_cp(_identity_green(G), M)
        assert check_green_module(B).ok
        assert is_isomorphic(B.underlying, M.underlying).verdict == "isomorphic"


def test_base_change_cardinality_map():
    G = CyclicGroup(2, 1)
    AG = burnside_green(G)
    ZG = constant_green(G, ZZ)
    f = GreenMorphism(AG, ZG, [la.mat([[1]]), la.mat([[2, 1]])])
    assert f.check().ok
    B = base_change_cp(f, module_from_green(AG))
    assert B.level_dims() == (1, 1)
    assert check_green_module(B).ok
    assert is_isomorphic(B.underlying, ZG.underlying).verdict == "isomorphic"


def _field_extension_map():
    G = CyclicGroup(2, 1)
    F = gf_make(2, 1)
    F2G = constant_green(G, F)
    F4G = fixed_point_green(G, gf_make(2, 2))
    f = GreenMorphism(F2G, F4G, [la.mat([[1], [0]], base=F),
                                 la.mat([[1]], base=F)])
    assert f.check().ok
    return F2G, F4G, f


def test_base_change_field_extension():
    F2G, F4G, f = _field_extension_map()
    B = base_change_cp(f, module_from_green(F2G))
    assert B.level_dims() == (2, 1)
    assert check_green_module(B).ok
    assert is_isomorphic(B.underlying, F4G.underlying).verdict == "isomorphic"


def test_base_change_preserves_inclusion():
    F2G, F4G, f = _field_extension_map()
    F = gf_make(2, 1)
    M = direct_sum_green_modules([module_from_green(F2G), module_from_green(F2G)])
    spans = [la.mat([[1], [1]], base=F) for _ in range(2)]
    sub, incl = green_module_from_invariant_span(M, spans)
    BS = base_change_cp(f, sub)
    BM = base_change_cp(f, M)
    g = base_change_map_cp(f, incl, BS, BM)
    assert g.check().ok
    assert all(lv.gens > 0 for lv in BS.underlying.levels)
    for s, comp in enumerate(g.components):
        assert la.rank(comp, F) == BS.underlying.levels[s].gens  # still injective


@pytest.mark.parametrize("p,n,degree", [(2, 2, None), (3, 2, None), (2, 3, None), (2, 2, 4)],
                         ids=["A/C4", "A/C9", "A/C8", "FP(GF16)/C4"])
def test_base_change_identity_at_higher_heights(p, n, degree):
    from mackeykit.functors import free_module
    G = CyclicGroup(p, n)
    R = burnside_green(G) if degree is None else fixed_point_green(G, gf_make(p, degree))
    for level in (0, n):
        M = free_module(R, level)
        B = base_change_cp(_identity_green(R), M)
        assert check_green_module(B).ok
        assert is_isomorphic(B.underlying, M.underlying).verdict == "isomorphic"


def _unit_map(n, k):
    """Constant F2 -> fixed points of GF(2^k) under C_{2^n}, the unit on every level."""
    G = CyclicGroup(2, n)
    K = constant_green(G, gf_make(2, 1))
    L = fixed_point_green(G, gf_make(2, k))
    f = GreenMorphism(K, L, [L.ring(s).unit for s in range(n + 1)])
    assert f.check().ok
    return K, L, f


@pytest.mark.parametrize("n,k", [(2, 4), (3, 8)])
def test_base_change_field_extension_at_higher_heights(n, k):
    K, L, f = _unit_map(n, k)
    F = K.base
    B = base_change_cp(f, module_from_green(K))
    assert B.level_dims() == L.level_dims()
    assert check_green_module(B).ok
    assert is_isomorphic(B.underlying, L.underlying).verdict == "isomorphic"
    # the diagonal copy of K inside K + K stays a submodule after base change
    M = direct_sum_green_modules([module_from_green(K), module_from_green(K)])
    sub, incl = green_module_from_invariant_span(
        M, [la.mat([[1], [1]], base=F) for _ in range(n + 1)])
    BS, BM = base_change_cp(f, sub), base_change_cp(f, M)
    g = base_change_map_cp(f, incl, BS, BM)
    assert g.check().ok
    assert BS.level_dims() == L.level_dims()
    for s, comp in enumerate(g.components):
        assert la.rank(comp, F) == BS.underlying.levels[s].gens


def test_box_product_rejects_mismatched_functors():
    C2, C4 = CyclicGroup(2, 1), CyclicGroup(2, 2)
    with pytest.raises(ValueError, match="box product"):
        box_product_general(burnside_mackey(C2), burnside_mackey(C4))
    with pytest.raises(ValueError, match="box product"):
        box_product_general(constant_mackey(C2, ZZ), constant_mackey(C2, gf_make(2, 1)))


def test_base_change_rejects_modules_over_other_rings():
    K, L, f = _unit_map(2, 4)
    with pytest.raises(ValueError, match="source of the ring map"):
        base_change_cp(f, module_from_green(L))
    M = module_from_green(K)
    B = base_change_cp(f, M)
    ident = GreenModuleMorphism(M, M, [la.eye(d, K.base) for d in M.level_dims()])
    with pytest.raises(ValueError, match="target of the ring map"):
        base_change_map_cp(f, ident, M, B)
    with pytest.raises(ValueError, match="target of the ring map"):
        base_change_map_cp(f, ident, B, M)


def test_preconditions_raise_value_error():
    from mackeykit.gsets import burnside_quotient, burnside_ring
    from mackeykit.kzero import (decompose_module, freeness_decompose,
                                 random_green_automorphism)
    from mackeykit.rings import render_presentation

    G = CyclicGroup(2, 1)
    A = burnside_ring(G)
    B = burnside_green(G)
    BM = module_from_green(B)
    F2 = constant_green(G, gf_make(2, 1)).ring(0)
    four_cycle = la.mat([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
                        base=gf_make(3, 1))
    calls = [
        ("order must divide", lambda: fixed_point_mackey(
            G, gf_make(3, 1), four_cycle)),
        ("finite base field", lambda: ring_is_field(A)),
        ("over Z", lambda: render_presentation(F2)),
        ("over Z", lambda: burnside_quotient(F2, [])),
        ("over a field", lambda: green_module_from_invariant_span(BM, [la.eye(2), la.eye(2)])),
        ("finite base field", lambda: morita_matrix_units(twisted_group_ring(A, 1, la.eye(2)))),
        ("field coefficients", lambda: freeness_decompose(B, BM, [la.eye(1), la.eye(2)])),
        ("field coefficients", lambda: decompose_module(B, BM)),
        ("field coefficients", lambda: random_green_automorphism(BM)),
    ]
    for match, call in calls:
        with pytest.raises(ValueError, match=match):
            call()


def test_module_hom_basis_accepts_levels_with_unit_relations():
    # the constant Z module over constant Z, each level presented as Z^2 / (1, 0)
    G = CyclicGroup(2, 1)
    lv = FPModule(ZZ, 2, la.mat([[1], [0]]))
    U = MackeyFunctor(G, ZZ, [lv, lv], [la.eye(2)], [la.scalar_mul(2, la.eye(2))],
                      [la.eye(2), la.eye(2)])
    M = GreenModule(constant_green(G, ZZ), U, [[la.eye(2)], [la.eye(2)]])
    assert check_green_module(M).ok
    homs = green_module_hom_basis(M, M)
    assert len(homs) == 1 and homs[0].check().ok


def test_green_constructors_reject_bad_input_with_value_error():
    G = CyclicGroup(2, 1)
    R2, R3 = constant_green(G, gf_make(2, 1)), constant_green(G, gf_make(3, 1))
    with pytest.raises(ValueError, match="level rings"):
        GreenFunctor(R2.underlying, R2.level_rings[:1])
    with pytest.raises(ValueError, match="ring rank or base at level 0"):
        GreenFunctor(R2.underlying, [R3.ring(0), R2.ring(1)])
    M = module_from_green(R2)
    with pytest.raises(ValueError, match="different groups or bases"):
        GreenModule(R3, M.underlying, M.action)
    with pytest.raises(ValueError, match="action rank or shape at level 1"):
        GreenModule(R2, M.underlying, [M.action[0], [la.eye(2)]])


def test_module_sum_and_hom_basis_reject_mismatched_rings():
    from mackeykit.functors import free_module
    G = CyclicGroup(2, 1)
    k, A = constant_green(G, gf_make(2, 1)), burnside_green(G)
    with pytest.raises(ValueError, match="empty direct sum"):
        direct_sum_green_modules([])
    with pytest.raises(ValueError, match="different rings"):
        direct_sum_green_modules([free_module(k, 0), free_module(A, 0)])
    with pytest.raises(ValueError, match="one ring"):
        green_module_hom_basis(free_module(A, 0), free_module(burnside_green(G), 0))
