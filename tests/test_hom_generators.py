"""Green-module hom bases from the ring generators only.

`green_module_hom_basis` asks a map to commute with the action of the
generators of each level ring (`BasedRing.generators`), not with every basis
element.  `all_pairs_hom_basis` below imposes every basis element; over a
field both must give the same basis, entry for entry and dtype for dtype,
and over Z the same lattice.

A source that is a sum of free modules takes the Yoneda route instead, whose
basis is the standard basis of each N(i): against the system it must span the
same space over a field and the same lattice over Z, and every map must pass
its check.
"""

import numpy as np
import pytest

from mackeykit import linalg as la
from mackeykit.fields import gf_make
from mackeykit.functors import free_module
from mackeykit.green import (GreenFunctor, GreenModule, GreenModuleMorphism, burnside_green,
                             check_green, check_green_module, constant_green,
                             direct_sum_green_modules, fixed_point_green,
                             green_module_from_invariant_span, green_module_hom_basis)
from mackeykit.gsets import CyclicGroup
from mackeykit.linalg import ZZ
from mackeykit.mackey import constant_mackey, hom_basis
from mackeykit.rings import BasedRing, unit_basis_index

# the rings of the field-decide benchmark: p, n, field degree (None: constant F_p)
FIELD_RINGS = [(2, 1, None), (3, 1, None), (5, 1, None), (2, 2, None), (3, 2, None),
               (5, 2, None), (2, 1, 2), (3, 1, 3), (2, 2, 4)]


def all_pairs_hom_basis(M, N):
    """Module maps M -> N from the constraints of every ring basis element."""
    inter = [[(M.action[s][u], N.action[s][u]) for u in range(M.ring.ring(s).rank)]
             for s in range(M.n + 1)]
    raw = hom_basis(M.underlying, N.underlying, level_intertwiners=inter)
    return [GreenModuleMorphism(M, N, f.components) for f in raw]


def _ring(p, n, degree):
    G = CyclicGroup(p, n)
    if degree is None:
        return constant_green(G, gf_make(p, 1))
    return fixed_point_green(G, gf_make(p, degree))


def _assert_same_basis(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for a, b in zip(g.components, w.components):
            assert a.dtype == b.dtype and la.mat_eq(a, b)


def _flat(basis):
    """One row per map: its components flattened and concatenated."""
    return np.array([np.concatenate([c.reshape(-1) for c in h.components]) for h in basis])


def _assert_same_span(got, want, base):
    assert len(got) == len(want)
    if not got:
        return
    A, B = _flat(got), _flat(want)
    assert A.dtype == B.dtype
    rank = la.rank(A, base)
    assert rank == len(got) == la.rank(B, base) == la.rank(la.vstack([A, B]), base)


def _assert_matches_system(M, N):
    """The basis of green_module_hom_basis against the all-pairs system:
    the same span for a free source, the same entries otherwise."""
    basis, want = green_module_hom_basis(M, N), all_pairs_hom_basis(M, N)
    if M.free_levels is not None:
        _assert_same_span(basis, want, M.base)
    else:
        _assert_same_basis(basis, want)
    assert all(h.check().ok for h in basis)


def _module_pairs(R):
    """Sums of free modules, and the first summand of one as a submodule."""
    n = R.n
    free = [free_module(R, i) for i in range(n + 1)]
    top = direct_sum_green_modules([free[n], free[0]])
    both = direct_sum_green_modules(free)
    pairs = [(free[0], top), (top, both), (both, both)]
    spans = [la.vstack([la.eye(d, R.base), la.zeros(e, d, R.base)])
             for d, e in zip(free[n].level_dims(), free[0].level_dims())]
    sub, _ = green_module_from_invariant_span(top, spans)
    pairs += [(sub, top), (top, sub)]
    return pairs


@pytest.mark.parametrize("p, n, degree", FIELD_RINGS)
def test_generator_hom_basis_is_the_all_pairs_basis_over_fields(p, n, degree):
    R = _ring(p, n, degree)
    for M, N in _module_pairs(R):
        _assert_matches_system(M, N)


def test_generator_hom_basis_over_gf4():
    R = constant_green(CyclicGroup(2, 2), gf_make(2, 2))
    for M, N in _module_pairs(R):
        _assert_matches_system(M, N)


def _lattice(basis):
    cols = [np.concatenate([c.reshape(-1) for c in h.components]) for h in basis]
    return np.array(cols, dtype=object).T


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 2)])
def test_generator_hom_basis_spans_the_all_pairs_lattice_over_z(p, n):
    A = burnside_green(CyclicGroup(p, n))
    free = [free_module(A, i) for i in range(n + 1)]
    mods = [free[0], free[n], direct_sum_green_modules([free[n], free[0]])]
    for M in mods:
        for N in mods:
            got, want = green_module_hom_basis(M, N), all_pairs_hom_basis(M, N)
            assert len(got) == len(want)
            assert la.lattice_equal(_lattice(got), _lattice(want))
            assert all(h.check().ok for h in got)


def test_generators_of_gf16_constant_and_burnside_rings():
    R = fixed_point_green(CyclicGroup(2, 2), gf_make(2, 4))
    assert R.ring(0).rank == 4 and R.ring(0).generators == [1]
    assert constant_green(CyclicGroup(3, 2), gf_make(3, 1)).ring(0).generators == []
    assert constant_green(CyclicGroup(2, 1), ZZ).ring(1).generators == []
    rings = [r for p, n, d in FIELD_RINGS for r in _ring(p, n, d).level_rings]
    rings += burnside_green(CyclicGroup(3, 2)).level_rings
    for ring in rings:
        u = unit_basis_index(ring)
        assert u is None or u not in ring.generators
        assert ring.generators == sorted(set(ring.generators))
    assert [r.generators for r in burnside_green(CyclicGroup(2, 2)).level_rings] == \
        [[], [0], [0, 1]]


def _split_green(p):
    """Constant C_p functor of rank 2 with F_p x F_p on each level, and the
    module on which the first idempotent acts as 1 and the second as 0."""
    G, F = CyclicGroup(p, 1), gf_make(p, 1)
    mult = la.mat([[1, 0], [0, 0], [0, 0], [0, 1]], base=F)
    ring = BasedRing(F, 2, mult, la.mat([[1], [1]], base=F), ["e1", "e2"])
    R = GreenFunctor(constant_mackey(G, F, 2), [ring, ring])
    action = [[la.eye(1, F), la.zeros(1, 1, F)]] * 2
    return R, GreenModule(R, constant_mackey(G, F, 1), action)


def test_split_ring_basis_matches_all_pairs():
    R, M = _split_green(2)
    assert check_green(R).ok and check_green_module(M).ok
    assert R.ring(0).generators == [0]                # e1, acting as 1 on M
    basis = green_module_hom_basis(M, M)
    _assert_same_basis(basis, all_pairs_hom_basis(M, M))
    assert len(basis) == 1
