"""Hom bases out of free sources by Yoneda, against the constraint system.

A map out of the free module F_i is fixed by where its generator goes, so
Hom(F_i, N) = N(i); for Mackey functors, Ind_e^G base^r is free over the
Burnside functor on r level-0 generators, so Hom(Ind_e^G base^r, N) = N(0)^r.
`green_module_hom_basis` and `hom_basis` take that route for the sources
that record it (`GreenModule.free_levels`, `MackeyFunctor.induced_free_rank`)
and solve no system.  The system is still there, reached by passing
intertwiners; against it the Yoneda basis must span the same space over a
field and the same lattice over Z, and every map must pass its check.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mackeykit import linalg as la
from mackeykit.fields import gf_make
from mackeykit.functors import free_module, induce_mackey
from mackeykit.green import (GreenModule, box_product_general, burnside_green,
                             check_green_module, constant_green, direct_sum_green_modules,
                             green_module_hom_basis)
from mackeykit.gsets import CyclicGroup
from mackeykit.kzero import dim_matrix
from mackeykit.linalg import ZZ
from mackeykit.mackey import (MackeyFunctor, burnside_mackey, check_axioms, constant_mackey,
                              direct_sum, hom_basis)
from mackeykit.modules import FPModule

from test_hom_generators import FIELD_RINGS, _flat, _ring, all_pairs_hom_basis


def _assert_same_hom_space(got, want, base):
    """Same span over a field, same lattice over Z; every map checks."""
    assert len(got) == len(want)
    assert all(h.check().ok for h in got)
    if not got:
        return
    A, B = _flat(got), _flat(want)
    if base is ZZ:
        assert la.lattice_equal(A.T.copy(), B.T.copy())
    else:
        assert la.rank(A, base) == len(got) == la.rank(la.vstack([A, B]), base)


def _system(M, N):
    """hom_basis with an empty intertwiner list per level: the system."""
    return hom_basis(M, N, level_intertwiners=[[] for _ in range(M.n + 1)])


def _sums(R, shapes):
    free = [free_module(R, i) for i in range(R.n + 1)]
    return [direct_sum_green_modules([free[i] for i in shape]) for shape in shapes]


def _assert_green_pairs(R, sources, targets):
    for M in sources:
        assert M.free_levels is not None
        for N in targets:
            _assert_same_hom_space(green_module_hom_basis(M, N), all_pairs_hom_basis(M, N),
                                   R.base)


class _Spy:
    """Counts the eliminations behind la.nullspace and la.nullspace_int."""

    def __init__(self, mp):
        self.calls = []
        for name in ("nullspace", "nullspace_int"):
            real = getattr(la, name)

            def spy(*args, real=real, name=name):
                self.calls.append(name)
                return real(*args)
            mp.setattr(la, name, spy)


# -- the records --------------------------------------------------------------

def test_free_sources_record_their_levels():
    R = constant_green(CyclicGroup(3, 2), gf_make(3, 1))
    F = [free_module(R, i) for i in range(3)]
    assert [f.free_levels for f in F] == [(0,), (1,), (2,)]
    S = direct_sum_green_modules([F[2], F[0], direct_sum_green_modules([F[1], F[1]])])
    assert S.free_levels == (2, 0, 1, 1)
    mixed = direct_sum_green_modules([F[0], GreenModule(R, F[1].underlying, F[1].action)])
    assert mixed.free_levels is None
    assert F[0].underlying.induced_free_rank == 1
    assert F[1].underlying.induced_free_rank is None
    assert direct_sum([F[0].underlying]).induced_free_rank is None
    Ind = induce_mackey(constant_mackey(CyclicGroup(2, 0), ZZ, 3), 2)
    assert Ind.induced_free_rank == 3


# -- no system for a free source ------------------------------------------------

def test_a_free_source_builds_no_system():
    cases = [(constant_green(CyclicGroup(2, 2), gf_make(2, 1)), [(0, 2), (1,)]),
             (burnside_green(CyclicGroup(3, 1)), [(1, 0), (0,)])]
    for R, shapes in cases:
        S, T = _sums(R, shapes)
        with pytest.MonkeyPatch.context() as mp:
            spy = _Spy(mp)
            for M, N in [(S, T), (T, S), (S, S)]:
                assert len(green_module_hom_basis(M, N)) == sum(N.level_dims()[i]
                                                                for i in M.free_levels)
            Ind = induce_mackey(constant_mackey(CyclicGroup(R.p, 0), R.base, 2), R.n)
            assert len(hom_basis(Ind, S.underlying)) == 2 * S.level_dims()[0]
        assert spy.calls == []


def test_given_intertwiners_keep_the_system():
    R = burnside_green(CyclicGroup(2, 1))
    F0 = free_module(R, 0)
    with pytest.MonkeyPatch.context() as mp:
        spy = _Spy(mp)
        basis = _system(F0.underlying, F0.underlying)
    assert spy.calls and len(basis) == F0.level_dims()[0]


# -- Green modules ---------------------------------------------------------------

def _top_only(R):
    """The module over constant F_p on C_p that is 0 at level 0 and F_p at the
    top, with res = tr = 0: Hom(F_0, -) of it is zero-dimensional."""
    G, F = R.group, R.base
    und = MackeyFunctor(G, F, [FPModule(F, 0), FPModule(F, 1)], [la.zeros(0, 1, F)],
                        [la.zeros(1, 0, F)], [la.eye(0, F), la.eye(1, F)])
    return GreenModule(R, und, [[la.zeros(0, 0, F)], [la.eye(1, F)]])


@pytest.mark.parametrize("p", [2, 3])
def test_a_summand_whose_target_level_is_zero_contributes_nothing(p):
    R = constant_green(CyclicGroup(p, 1), gf_make(p, 1))
    N = _top_only(R)
    assert check_axioms(N.underlying).ok and check_green_module(N).ok
    F0, F1 = free_module(R, 0), free_module(R, 1)
    assert green_module_hom_basis(F0, N) == []
    sources = [F0, F1] + _sums(R, [(0, 1, 0), (1, 0)])
    _assert_green_pairs(R, sources, [N])
    assert [len(green_module_hom_basis(M, N)) for M in sources] == [0, 1, 1, 1]


def test_constant_gf4():
    R = constant_green(CyclicGroup(2, 2), gf_make(2, 2))
    _assert_green_pairs(R, _sums(R, [(0, 0, 2), (1,), (2, 1)]), _sums(R, [(1, 2), (0,)]))


@pytest.mark.parametrize("p, n", [(2, 2), (3, 1), (5, 1)])
def test_burnside_lattices(p, n):
    R = burnside_green(CyclicGroup(p, n))
    shapes = [(i,) for i in range(n + 1)] + [(n, 0)]
    mods = _sums(R, shapes)
    _assert_green_pairs(R, mods, mods)


# -- Ind_e^G base^r ---------------------------------------------------------------

def _with_relations(p):
    """Constant Z on C_p presented on two generators per level modulo the
    first: every level is free of rank one, so the system runs on its free
    presentation."""
    G = CyclicGroup(p, 1)
    rel = la.mat([[1], [0]])
    levels = [FPModule(ZZ, 2, rel), FPModule(ZZ, 2, rel)]
    I = la.eye(2)
    return MackeyFunctor(G, ZZ, levels, [I], [la.scalar_mul(p, I)], [I, I])


@pytest.mark.parametrize("p, n, base, r", [(2, 2, ZZ, 1), (3, 1, ZZ, 2), (2, 1, ZZ, 2),
                                           (5, 1, gf_make(5, 1), 1), (2, 2, gf_make(2, 1), 2),
                                           (3, 1, gf_make(3, 2), 1)])
def test_induced_from_the_trivial_group(p, n, base, r):
    G = CyclicGroup(p, n)
    Ind = induce_mackey(constant_mackey(CyclicGroup(p, 0), base, r), n)
    targets = [constant_mackey(G, base), Ind,
               induce_mackey(constant_mackey(CyclicGroup(p, 0), base), n)]
    if base is ZZ:
        targets += [burnside_mackey(G), box_product_general(burnside_mackey(G), Ind)]
        if n == 1:
            targets.append(_with_relations(p))
    for N in targets:
        basis = hom_basis(Ind, N)
        assert len(basis) == r * N.levels[0].free_rank if base is ZZ else r * N.levels[0].gens
        _assert_same_hom_space(basis, _system(Ind, N), base)


# -- time -------------------------------------------------------------------------

def test_burnside_c16_endomorphisms_of_f0_are_quick():
    R = burnside_green(CyclicGroup(2, 4))
    F0 = free_module(R, 0)
    start = time.process_time()
    basis = green_module_hom_basis(F0, F0)
    assert time.process_time() - start < 0.1
    assert len(basis) == 16 and all(h.check().ok for h in basis)


def test_hom_from_induced_z_into_its_box_with_burnside_is_quick():
    G = CyclicGroup(2, 4)
    Ind = induce_mackey(constant_mackey(CyclicGroup(2, 0), ZZ), 4)
    AM = box_product_general(burnside_mackey(G), Ind)
    start = time.process_time()
    basis = hom_basis(Ind, AM)
    assert time.process_time() - start < 0.1
    assert len(basis) == 16 and all(f.check().ok for f in basis)


# -- property: level dimensions and hom dimensions ---------------------------------

_RINGS = {}


def _cached_ring(idx):
    if idx not in _RINGS:
        _RINGS[idx] = _ring(*FIELD_RINGS[idx])
    return _RINGS[idx]


@settings(derandomize=True, max_examples=40, deadline=1000)
@given(st.data())
def test_free_dimensions_and_hom_dimensions(data):
    idx = data.draw(st.integers(0, len(FIELD_RINGS) - 1), label="ring")
    R = _cached_ring(idx)
    n = R.n
    alpha = dim_matrix(R).alpha
    i = data.draw(st.integers(0, n), label="level")
    F = free_module(R, i)
    assert list(F.level_dims()) == [alpha[s, i] for s in range(n + 1)]
    shape = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=3), label="target")
    N = direct_sum_green_modules([free_module(R, j) for j in shape])
    assert len(green_module_hom_basis(F, N)) == N.level_dims()[i]
