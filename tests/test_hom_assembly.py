"""The hom system of `hom_basis`, assembled in one array, against the
per-block Kronecker assembly it replaced.

`reference_hom_basis` below builds every constraint block with `la.kron`,
`la.eye`, `la.neg` and `la.sub`, places it in a zero row block of its own and
stacks the blocks with `la.vstack`, including the rows of Weyl pairs and
ring-action pairs that are the identity on both functors (all zero).
`hom_basis` skips those pairs and writes every block straight into one
preallocated array.  Both must give the same basis, component for
component and dtype for dtype, over Z as well as over fields.

A source induced from the trivial group, as `free_module(R, 0).underlying`
is, takes the Yoneda route when no intertwiners are given.  The systems
here are built with an empty intertwiner list per level instead, which adds
no rows and keeps the system.
"""

import pytest

from mackeykit import linalg as la
from mackeykit.fields import gf_make
from mackeykit.functors import free_module
from mackeykit.green import (burnside_green, constant_green, direct_sum_green_modules,
                             fixed_point_green)
from mackeykit.gsets import CyclicGroup
from mackeykit.linalg import ZZ
from mackeykit.mackey import MackeyMorphism, _conj, _free_presentation, hom_basis

from test_hom_generators import FIELD_RINGS


def reference_hom_basis(M, N, level_intertwiners=None):
    """hom_basis with one la.kron per term and la.vstack of the row blocks."""
    base = M.base
    M0, N0 = M, N
    M, m_proj, m_lift = _free_presentation(M)
    N, n_proj, n_lift = _free_presentation(N)
    if level_intertwiners is not None:
        level_intertwiners = [[(_conj(m_proj, P, m_lift, s, base),
                                _conj(n_proj, Q, n_lift, s, base)) for P, Q in pairs]
                              for s, pairs in enumerate(level_intertwiners)]
    n = M.n
    offsets = [0]
    for s in range(n + 1):
        offsets.append(offsets[-1] + N.levels[s].gens * M.levels[s].gens)
    total = offsets[-1]
    if total == 0:
        return []
    blocks = []

    def block_row(pairs, nrows):
        row = la.zeros(nrows, total, base)
        for s, C in pairs:
            row[:, offsets[s]:offsets[s + 1]] = C
        blocks.append(row)

    def left(A, rows):
        return la.kron(A.T.copy(), la.eye(rows, base), base)

    def right(B, cols):
        return la.kron(la.eye(cols, base), B, base)

    for s in range(n):
        rows = N.levels[s].gens * M.levels[s + 1].gens
        if rows:
            block_row([(s, left(M.res[s], N.levels[s].gens)),
                       (s + 1, la.neg(right(N.res[s], M.levels[s + 1].gens), base))], rows)
        rows = N.levels[s + 1].gens * M.levels[s].gens
        if rows:
            block_row([(s + 1, left(M.tr[s], N.levels[s + 1].gens)),
                       (s, la.neg(right(N.tr[s], M.levels[s].gens), base))], rows)
    for s in range(n + 1):
        rows = N.levels[s].gens * M.levels[s].gens
        if not rows:
            continue
        pairs = [(M.weyl[s], N.weyl[s])]
        if level_intertwiners is not None:
            pairs.extend(level_intertwiners[s])
        for P, Q in pairs:
            block_row([(s, la.sub(left(P, N.levels[s].gens),
                                  right(Q, M.levels[s].gens), base))], rows)

    ker = la.nullspace(la.vstack(blocks), base) if blocks else la.eye(total, base)
    out = []
    for c in range(ker.shape[1]):
        comps = []
        for s in range(n + 1):
            r, k = N.levels[s].gens, M.levels[s].gens
            f = ker[offsets[s]:offsets[s + 1], c].reshape(k, r).T.copy()
            comps.append(_conj(n_lift, f, m_proj, s, base))
        out.append(MackeyMorphism(M0, N0, comps))
    return out


def _assert_same_basis(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g.components) == len(w.components)
        for a, b in zip(g.components, w.components):
            assert a.dtype == b.dtype and a.shape == b.shape and la.mat_eq(a, b)


def _assert_same_systems(R, modules):
    """Every pair of the modules: with the ring generators' actions (as
    green_module_hom_basis imposes them) and with none."""
    for M in modules:
        for N in modules:
            inter = [[(M.action[s][u], N.action[s][u]) for u in R.ring(s).generators]
                     for s in range(R.n + 1)]
            for pairs in (inter, [[] for _ in range(R.n + 1)]):
                got = hom_basis(M.underlying, N.underlying, level_intertwiners=pairs)
                want = reference_hom_basis(M.underlying, N.underlying, level_intertwiners=pairs)
                _assert_same_basis(got, want)
                assert all(f.check().ok for f in got)


def _modules(R, sums):
    free = [free_module(R, i) for i in range(R.n + 1)]
    return free + [direct_sum_green_modules([free[i] for i in levels]) for levels in sums]


def _field_ring(p, n, degree):
    G = CyclicGroup(p, n)
    if degree is None:
        return constant_green(G, gf_make(p, 1))
    return fixed_point_green(G, gf_make(p, degree))


@pytest.mark.parametrize("p, n, degree", FIELD_RINGS)
def test_one_array_assembly_over_the_field_decide_rings(p, n, degree):
    R = _field_ring(p, n, degree)
    _assert_same_systems(R, _modules(R, [(n, 0)]))


@pytest.mark.parametrize("n", [1, 2])
def test_one_array_assembly_over_constant_gf4(n):
    R = constant_green(CyclicGroup(2, n), gf_make(2, 2))
    _assert_same_systems(R, _modules(R, [(n, 0)]))


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_one_array_assembly_over_burnside_rings(p, n):
    R = burnside_green(CyclicGroup(p, n))
    _assert_same_systems(R, _modules(R, [(n, 0)] if n == 1 else []))


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 2)])
def test_one_array_assembly_over_constant_z(p, n):
    R = constant_green(CyclicGroup(p, n), ZZ)
    _assert_same_systems(R, _modules(R, [(n, 0)]))


def test_identity_pairs_add_no_rows():
    """The constant functor's Weyl pairs are all (I, I): only the res and tr
    blocks are left, and a one-level group has no blocks at all."""
    G, F = CyclicGroup(2, 0), gf_make(2, 1)
    R = constant_green(G, F)
    [f] = hom_basis(R.underlying, R.underlying)
    assert la.mat_eq(f.components[0], la.eye(1, F))
    seen = []
    real = la.nullspace

    def spy(A, base):
        seen.append(A.shape)
        return real(A, base)

    F = gf_make(3, 1)
    R = constant_green(CyclicGroup(3, 2), F)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(la, "nullspace", spy)
        basis = hom_basis(R.underlying, R.underlying)
    assert seen == [(4, 3)] and len(basis) == 1
