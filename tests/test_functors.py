import time

import pytest

from mackeykit import linalg as la
from mackeykit.cli import build_example
from mackeykit.fields import gf_make
from mackeykit.functors import (brutal_truncation, e1_page, free_module,
                                geometric_fixed_points, induce_mackey,
                                phi_ring, restrict_mackey, ring_section_search,
                                tau_geq_1)
from mackeykit.green import (GreenModule, GreenModuleMorphism, burnside_green,
                             char_example_green, check_green,
                             check_green_module, constant_green,
                             fixed_point_green, green_module_hom_basis,
                             module_from_green)
from mackeykit.gsets import CyclicGroup
from mackeykit.linalg import ZZ
from mackeykit.mackey import (burnside_mackey, check_axioms, constant_mackey,
                              direct_sum, fixed_point_mackey, is_isomorphic)
from mackeykit.rings import based_ring_check


def _mats_eq(x, y):
    return x.shape == y.shape and la.mat_eq(x, y)


# --- restriction -----------------------------------------------------------

@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_restriction_keeps_axioms(p, n):
    A = burnside_mackey(CyclicGroup(p, n))
    for m in range(n + 1):
        assert check_axioms(restrict_mackey(A, m)).ok


def test_restrict_green_functor_carries_rings():
    R = fixed_point_green(CyclicGroup(2, 2), gf_make(2, 4))
    for m in range(3):
        sub = restrict_mackey(R, m)
        assert check_green(sub).ok
        assert sub.level_dims() == R.level_dims()[: m + 1]


def test_restrict_to_full_group_is_identity():
    A = burnside_mackey(CyclicGroup(3, 2))
    r = restrict_mackey(A, 2)
    assert all(_mats_eq(a, b) for a, b in zip(r.weyl, A.weyl))


def test_restriction_powers_weyl():
    # over C4 the galois action of F16 has order 4; restricted to C2 it squares
    F16 = gf_make(2, 4)
    M = fixed_point_mackey(CyclicGroup(2, 2), F16, F16.frobenius_matrix(1))
    r = restrict_mackey(M, 1)
    sq = la.mmul(M.weyl[0], M.weyl[0], M.base)
    assert _mats_eq(r.weyl[0], sq)


# --- induction --------------------------------------------------------------

@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3)])
def test_induction_keeps_axioms_and_dims(p, n):
    for m in range(n + 1):
        A = burnside_mackey(CyclicGroup(p, m))
        ind = induce_mackey(A, n)
        assert check_axioms(ind).ok
        for s in range(n + 1):
            copies = p ** (n - max(s, m))
            comp = A.levels[min(s, m)].gens
            assert ind.levels[s].gens == copies * comp


def test_induction_from_trivial_group_is_the_regular_family():
    # Ind from the trivial group: p points at the bottom, sum/duplicate maps
    p = 3
    Z = constant_mackey(CyclicGroup(p, 0), ZZ)
    ind = induce_mackey(Z, 1)
    assert ind.level_dims() == (p, 1)
    assert list(ind.res[0][:, 0]) == [1] * p
    assert sum(ind.tr[0][0, j] for j in range(p)) == p
    # weyl is the p-cycle
    W = ind.weyl[0]
    assert all(W[(j + 1) % p, j] == 1 for j in range(p))


def test_induction_with_inner_weyl_twist():
    F16 = gf_make(2, 4)
    M = fixed_point_mackey(CyclicGroup(2, 2), F16, F16.frobenius_matrix(1))
    ind = induce_mackey(restrict_mackey(M, 1), 2)
    assert check_axioms(ind).ok
    assert ind.level_dims() == (8, 4, 2)


def test_induce_green_refused():
    R = burnside_green(CyclicGroup(2, 1))
    with pytest.raises(TypeError):
        induce_mackey(R, 2)


# --- free modules -----------------------------------------------------------

MEADOWS = [
    ("constant F2 / C2", lambda: constant_green(CyclicGroup(2, 1), gf_make(2, 1))),
    ("FP(F4) / C2", lambda: fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2))),
    ("FP(F16) / C4", lambda: fixed_point_green(CyclicGroup(2, 2), gf_make(2, 4))),
    ("FP(F4) / C4", lambda: fixed_point_green(CyclicGroup(2, 2), gf_make(2, 2))),
    ("FP(F27) / C3", lambda: fixed_point_green(CyclicGroup(3, 1), gf_make(3, 3))),
]


@pytest.mark.parametrize("name,mk", MEADOWS, ids=[m[0] for m in MEADOWS])
def test_free_modules_over_meadows_check_out(name, mk):
    R = mk()
    for i in range(R.n + 1):
        F = free_module(R, i)
        assert check_green_module(F).ok
        # dims follow the product of copy count and coefficient dimension
        d = R.level_dims()
        for s in range(R.n + 1):
            assert F.level_dims()[s] == R.p ** (R.n - max(i, s)) * d[min(i, s)]


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 2), (2, 3)])
def test_free_modules_over_burnside(p, n):
    R = burnside_green(CyclicGroup(p, n))
    for i in range(n + 1):
        F = free_module(R, i)
        assert check_green_module(F).ok
        d = R.level_dims()
        for s in range(n + 1):
            assert F.level_dims()[s] == p ** (n - max(i, s)) * d[min(i, s)]


def test_top_free_module_is_the_regular_one():
    R = burnside_green(CyclicGroup(2, 2))
    F = free_module(R, 2)
    M = module_from_green(R)
    assert F.level_dims() == M.level_dims()
    for s in range(3):
        for u in range(R.ring(s).rank):
            assert _mats_eq(F.action[s][u], M.action[s][u])


def test_constant_f2_free_module_dims():
    R = constant_green(CyclicGroup(2, 1), gf_make(2, 1))
    assert free_module(R, 0).level_dims() == (2, 1)
    assert free_module(R, 1).level_dims() == (1, 1)


def test_free_modules_are_built_once_per_ring_and_level():
    G, F = CyclicGroup(2, 1), gf_make(2, 1)
    R, R2 = constant_green(G, F), constant_green(G, F)
    F0, F1 = free_module(R, 0), free_module(R, 1)
    assert free_module(R, 0) is F0 and free_module(R, 1) is F1 and F0 is not F1
    # an equal ring built again is another object and gets its own modules
    assert free_module(R2, 0) is not F0
    assert free_module(R2, 0).level_dims() == F0.level_dims()
    assert R.free_modules == {0: F0, 1: F1}
    # a bad level still raises after the cache holds the good ones (also under -O)
    for bad in (-1, 2):
        with pytest.raises(ValueError, match="free module at level"):
            free_module(R, bad)
    assert set(R.free_modules) == {0, 1}


def test_free_module_generator_recovers_identity_hom():
    # the hom space out of F_i matches the module at level i
    R = fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2))
    M = module_from_green(R)
    for i in range(2):
        F = free_module(R, i)
        hb = green_module_hom_basis(F, M)
        assert len(hb) == M.underlying.levels[i].gens
        for f in hb:
            assert f.check().ok


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
def test_yoneda_rank_over_burnside(p, n):
    R = burnside_green(CyclicGroup(p, n))
    M = module_from_green(R)
    for i in range(n + 1):
        hb = green_module_hom_basis(free_module(R, i), M)
        assert len(hb) == M.underlying.levels[i].gens


# --- truncations -------------------------------------------------------------

def test_tau_drops_a_level_and_keeps_structure():
    R = burnside_green(CyclicGroup(2, 2))
    t = tau_geq_1(R)
    assert t.n == 1
    assert check_green(t).ok
    assert t.level_dims() == (2, 3)


def test_tau_of_module_stays_a_module():
    R = fixed_point_green(CyclicGroup(2, 2), gf_make(2, 4))
    M = module_from_green(R)
    tM = tau_geq_1(M)
    assert check_green_module(tM).ok
    assert tM.level_dims() == (2, 1)


@pytest.mark.parametrize("mk", [
    lambda: burnside_green(CyclicGroup(2, 2)),
    lambda: fixed_point_green(CyclicGroup(2, 2), gf_make(2, 4)),
    lambda: constant_green(CyclicGroup(3, 2), ZZ),
    lambda: fixed_point_green(CyclicGroup(3, 1), gf_make(3, 3)),
])
def test_truncated_free_module_is_free_one_step_down(mk):
    # tau F_i agrees with F_{i-1} over the truncated ring, on the nose
    R = mk()
    tR = tau_geq_1(R)
    for i in range(1, R.n + 1):
        tF = tau_geq_1(free_module(R, i))
        F2 = free_module(tR, i - 1)
        assert tF.level_dims() == F2.level_dims()
        a, b = tF.underlying, F2.underlying
        for x, y in list(zip(a.res, b.res)) + list(zip(a.tr, b.tr)) + list(zip(a.weyl, b.weyl)):
            assert _mats_eq(x, y)
        reparent = GreenModule(F2.ring, tF.underlying, tF.action)
        comps = [la.eye(d, R.base) for d in tF.level_dims()]
        wit = GreenModuleMorphism(reparent, F2, comps)
        assert wit.check().ok and wit.is_level_iso()


def test_brutal_truncation():
    A = burnside_mackey(CyclicGroup(2, 2))
    B = brutal_truncation(A)
    assert B.level_dims() == (0, 2, 3)
    assert check_axioms(B).ok


# --- geometric fixed points ---------------------------------------------------

@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 2), (2, 3)])
def test_fixed_points_of_burnside_descend_one_stage(p, n):
    R = burnside_green(CyclicGroup(p, n))
    Ph = geometric_fixed_points(R)
    assert check_green(Ph).ok
    target = burnside_green(CyclicGroup(p, n - 1))
    assert is_isomorphic(Ph.underlying, target.underlying).verdict == "isomorphic"


def test_fixed_points_vanish_for_surjective_transfers():
    R = fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2))
    Ph = geometric_fixed_points(R.underlying)
    assert all(d == 0 for d in Ph.level_dims())


def test_fixed_points_of_constant_functor_have_torsion():
    M = constant_mackey(CyclicGroup(3, 1), ZZ)
    Ph = geometric_fixed_points(M)
    assert Ph.levels[0].invariant_factors() == [3]
    # the ring version refuses: no free presentation
    with pytest.raises(NotImplementedError):
        geometric_fixed_points(constant_green(CyclicGroup(3, 1), ZZ))


def test_fixed_points_of_constant_field_functor():
    # transfers vanish in characteristic p, so nothing is collapsed
    R = constant_green(CyclicGroup(2, 2), gf_make(2, 1))
    Ph = geometric_fixed_points(R)
    assert check_green(Ph).ok
    assert Ph.level_dims() == (1, 1)


# --- level rings of iterated fixed points --------------------------------------

def test_phi_ring_of_burnside_collapses_to_rank_one():
    R = burnside_green(CyclicGroup(2, 2))
    for m in range(3):
        ph = phi_ring(R, m)
        assert ph.ring is not None and ph.ring.base is ZZ
        assert ph.rank == 1
        assert based_ring_check(ph.ring).ok


def test_phi_ring_matches_iterated_fixed_points():
    R = burnside_green(CyclicGroup(2, 3))
    it = geometric_fixed_points(geometric_fixed_points(R))
    ph = phi_ring(R, 2)
    assert it.ring(0).rank == ph.rank
    assert _mats_eq(it.ring(0).mult, ph.ring.mult)


def test_phi_ring_of_constant_integers_is_prime_field():
    R = constant_green(CyclicGroup(5, 1), ZZ)
    ph = phi_ring(R, 1)
    assert ph.ring is not None
    assert ph.ring.base.p == 5 and ph.ring.rank == 1
    assert ph.invariants == [5]


def test_phi_ring_zero_when_transfers_surject():
    R = fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2))
    ph = phi_ring(R, 1)
    assert ph.ring is None and ph.is_zero


# --- the page-one description ---------------------------------------------------

def test_page_constant_field_splits_totally():
    page = e1_page(constant_green(CyclicGroup(2, 1), gf_make(2, 1)))
    assert page.transfers_zero and page.splitting == "total"
    assert [t.label for t in page.terms] == ["F2[C2]", "F2"]


def test_page_galois_meadow_single_matrix_term():
    page = e1_page(fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2)))
    assert page.transfers_surjective and page.splitting == "single-term"
    assert [t.label for t in page.terms] == ["Mat2(F2)"]
    t = page.terms[0]
    assert t.matrix_side == 2 and t.inner_order == 1 and t.fixed_order == 2


def test_page_bigger_galois_meadow():
    page = e1_page(fixed_point_green(CyclicGroup(2, 2), gf_make(2, 4)))
    assert [t.label for t in page.terms] == ["Mat4(F2)"]


def test_page_char_example_finds_a_section():
    page = e1_page(char_example_green(2))
    assert not page.transfers_zero and not page.transfers_surjective
    assert page.splitting == "total" and page.section is not None
    assert [t.label for t in page.terms] == ["F2[C2]", "F2"]


def test_page_burnside_unit_section():
    page = e1_page(burnside_green(CyclicGroup(3, 1)))
    assert page.splitting == "total"
    assert [t.label for t in page.terms] == ["Z[C3]", "Z"]


def test_page_constant_integers_honestly_fails_to_split():
    # the projection Z -> Z/p admits no ring section, and the search says so
    page = e1_page(constant_green(CyclicGroup(5, 1), ZZ))
    assert page.splitting == "unknown"
    assert ring_section_search(constant_green(CyclicGroup(5, 1), ZZ)) is None


def test_section_search_refuses_more_than_one_stage():
    with pytest.raises(ValueError, match="one stage at a time"):
        ring_section_search(burnside_green(CyclicGroup(2, 2)))


def test_page_deeper_groups_report_unknown():
    page = e1_page(burnside_green(CyclicGroup(2, 2)))
    assert page.splitting == "unknown"
    assert [t.label for t in page.terms] == ["Z[C4]", "Z[C2]", "Z"]


def test_page_of_constant_integers_over_c1024_stays_small():
    # the table of the t=0 column Z[C1024] would hold 2^30 entries; the page
    # reads only the coefficient rings and theta, so it never builds one
    start = time.process_time()
    page = e1_page(build_example("constant-Z", 2, 10))
    assert time.process_time() - start < 2.0
    assert [t.label for t in page.terms] == \
        ["Z[C1024]"] + [f"F2[C{2 ** k}]" for k in range(9, 0, -1)] + ["F2"]
    assert page.splitting == "unknown"


def test_section_search_on_burnside_gives_multiplicative_lift():
    R = burnside_green(CyclicGroup(3, 1))
    sigma = ring_section_search(R)
    assert sigma is not None
    # the found section must hit the unit
    r1 = R.ring(1)
    ph = phi_ring(R, 1)
    assert la.mat_eq(la.mmul(sigma, ph.ring.unit), r1.unit)
