"""The seeded searches that draw coefficient rows against one `LevelStack`,
against the loops they replaced.

`reference_combine`, `reference_random_green_automorphism` and
`reference_decompose` below are those loops: the Z witness of
`is_isomorphic` summed hom by hom, the automorphism search with its own
stack and reshape loop, and the decomposition that calls
`map_from_generator` once per trial and fills each draw entry by entry.
Witnesses must be equal entry for entry, dtype included.  The per-level
masks of the stack are compared with each candidate's level ranks, its
exact level determinants mod p and `is_level_iso`, on levels of unequal
rank and of rank 0.
"""

import itertools
import random

import numpy as np
import pytest

import mackeykit.kzero as kzero
import mackeykit.linalg as la
from mackeykit.fields import gf_make
from mackeykit.functors import brutal_truncation, free_module
from mackeykit.green import (GreenModule, GreenModuleMorphism, burnside_green, box_product_general,
                             constant_green, direct_sum_green_modules, fixed_point_green,
                             green_module_from_invariant_span, green_module_hom_basis,
                             map_from_generator)
from mackeykit.gsets import CyclicGroup
from mackeykit.kzero import (decompose_module, dim_matrix, invert_module_iso,
                             random_green_automorphism)
from mackeykit.linalg import ZZ
from mackeykit.modules import FPModule
from mackeykit.mackey import (LevelStack, MackeyFunctor, MackeyMorphism, burnside_mackey, constant_mackey,
                              hom_basis, resolve_seed, twisted_burnside_c5)


def assert_same_maps(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and la.mat_eq(a, b)


# --- the Z witness ---------------------------------------------------------------


def reference_combine(homs, coeffs):
    """The integer combination of the Z homs with the int coefficients."""
    comps = []
    for s, f in enumerate(homs[0].components):
        F = la.zeros(*f.shape)
        for h, c in zip(homs, coeffs):
            if c:
                F = la.add_scaled(F, h.components[s], c, ZZ)
        comps.append(F)
    return MackeyMorphism.at_rest(homs[0].source, homs[0].target, comps)


def _z_stack(M, N):
    homs = hom_basis(M, N)
    return homs, LevelStack(M, N, [[f.components[s] for f in homs] for s in range(M.n + 1)], ZZ)


A5, At = burnside_mackey(CyclicGroup(5, 1)), twisted_burnside_c5()
Z_CASES = {
    "burnside-C4": (burnside_mackey(CyclicGroup(2, 2)),) * 2,
    "burnside-C9": (burnside_mackey(CyclicGroup(3, 2)),) * 2,
    "constant-Z-rank2": (constant_mackey(CyclicGroup(2, 1), ZZ, 2),) * 2,
    "A-vs-At": (A5, At),
    "A-vs-AtAt": (A5, box_product_general(At, At)),
    "free-burnside-C9": (free_module(burnside_green(CyclicGroup(3, 2)), 1).underlying,) * 2,
    "trunc-burnside-C4": (brutal_truncation(burnside_mackey(CyclicGroup(2, 2))),) * 2,
}


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", list(Z_CASES))
def test_z_witness_is_the_row_of_the_exact_product(name, seed):
    M, N = Z_CASES[name]
    homs, stack = _z_stack(M, N)
    rng = random.Random(seed)
    rows = np.array([[rng.randint(-5, 5) for _ in homs] for _ in range(24)] +
                    [[10 ** 12, -(10 ** 12)] + [3] * (len(homs) - 2)])
    _, make = stack.unimodular(rows)
    for i, row in enumerate(rows.tolist()):
        f = make(i)
        assert (f.source, f.target) == (M, N)
        assert_same_maps(f.components, reference_combine(homs, row).components)


@pytest.mark.parametrize("m", [2, 3, 5, 65521])
@pytest.mark.parametrize("name", ["burnside-C9", "A-vs-At", "free-burnside-C9",
                                  "trunc-burnside-C4"])
def test_unit_dets_are_the_exact_determinants_mod_p(name, m):
    M, N = Z_CASES[name]
    homs, stack = _z_stack(M, N)
    rng = random.Random(m)
    rows = [[rng.randint(-m, m) for _ in homs] for _ in range(40)]
    got = stack.unit_dets(np.array(rows), m)
    want = [[la.bareiss_det(F) % m in (1 % m, (m - 1) % m)
             for F in reference_combine(homs, row).components] for row in rows]
    assert got.tolist() == want


@pytest.mark.parametrize("name", ["burnside-C4", "trunc-burnside-C4"])
def test_unimodular_mask_keeps_every_level_iso(name):
    # levels of unequal rank, and in the truncation a level of rank 0: the
    # filter is one unit_det_mask call per level, and a candidate it drops
    # is never a levelwise isomorphism.  The rows are the box candidates
    # of is_isomorphic up to past its witness.
    M, N = Z_CASES[name]
    homs, stack = _z_stack(M, N)
    box = (c for c in itertools.product(range(-5, 6), repeat=len(homs)) if any(c))
    rows = np.array(list(itertools.islice(box, 1700)))
    ok, make = stack.unimodular(rows)
    assert ok.shape == (len(rows),)
    isos = [make(i).is_level_iso() for i in range(len(rows))]
    assert any(isos) and all(ok[isos])


# --- the per-level field masks -------------------------------------------------------


def _truncated(ring, levels):
    R = RINGS[ring]()
    return brutal_truncation(direct_sum_green_modules([free_module(R, i) for i in levels])
                             .underlying)


FIELD_STACKS = {
    "F2/C4": lambda: _truncated("F2/C4", (1, 2)),
    "F2/C4-unequal": lambda: _module("F2/C4", (0, 2))[1].underlying,
    "GF4/C2": lambda: _truncated("GF4/C2", (0, 1)),
    "GF4/C4": lambda: _truncated("GF4/C4", (2, 1)),
}


@pytest.mark.parametrize("C", [1, 5, 40])
@pytest.mark.parametrize("name", list(FIELD_STACKS))
def test_level_masks_are_the_per_candidate_level_ranks(name, C):
    M = FIELD_STACKS[name]()
    base = M.base
    homs = hom_basis(M, M)
    stack = LevelStack(M, M, [[f.components[s] for f in homs] for s in range(M.n + 1)], base)
    rng = random.Random(C)
    rows = np.array([[rng.randrange(base.q) for _ in homs] for _ in range(C - 1)]
                    + [[0] * len(homs)])
    prod = stack.products(la.field_elements(base, rows))
    masks = stack.level_masks(prod, la.full_rank_mask, base)
    assert masks.dtype == bool and masks.shape == (C, M.n + 1)
    ok, make = stack.invertible(rows)
    for i in range(C):
        comps = stack.components(prod[i])
        assert masks[i].tolist() == [la.rank(F, base) == len(F) for F in comps]
        assert ok[i] == make(i).is_level_iso() == masks[i].all()
    dims = M.level_dims()
    assert len(set(dims)) > 1
    # a 0 x 0 level is invertible; the zero map fails at every other level
    assert masks[:, [d == 0 for d in dims]].all()
    assert not masks[-1, [d > 0 for d in dims]].any()


# --- the random automorphism -------------------------------------------------------


def reference_random_green_automorphism(M, seed=None):
    """(automorphism, draws): the first levelwise invertible combination of
    the hom basis and the number of draws it took."""
    base = M.ring.base
    basis = green_module_hom_basis(M, M)
    dims = M.level_dims()
    stack = la.zeros(len(basis), sum(d * d for d in dims), base)
    for i, h in enumerate(basis):
        stack[i] = np.concatenate([c.reshape(-1) for c in h.components])
    rng = random.Random(resolve_seed(seed))
    for draw in range(kzero._AUTOMORPHISM_ATTEMPTS):
        coeffs = la.field_elements(base, [[rng.randrange(base.q) for _ in basis]])
        flat = la.mmul(coeffs, stack, base)[0]
        comps, at = [], 0
        for d in dims:
            comps.append(flat[at:at + d * d].reshape(d, d))
            at += d * d
        g = GreenModuleMorphism(M, M, MackeyMorphism.at_rest(M.underlying, M.underlying, comps))
        if g.is_level_iso():
            return g, draw + 1
    raise ValueError("no automorphism found; the endomorphism ring may be too thin")


RINGS = {
    "F2/C2": lambda: constant_green(CyclicGroup(2, 1), gf_make(2, 1)),
    "F3/C9": lambda: constant_green(CyclicGroup(3, 2), gf_make(3, 1)),
    "F2/C4": lambda: constant_green(CyclicGroup(2, 2), gf_make(2, 1)),
    "GF4/C4": lambda: constant_green(CyclicGroup(2, 2), gf_make(2, 2)),
    "GF4/C2": lambda: constant_green(CyclicGroup(2, 1), gf_make(2, 2)),
    "FP(F4)/C2": lambda: fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2)),
}
MODULES = [("F2/C2", (0, 1, 1)), ("F2/C2", (1, 1)), ("F3/C9", (1, 2)), ("F3/C9", (2, 2, 1)),
           ("GF4/C2", (0, 1)), ("GF4/C2", (1, 1, 0)), ("FP(F4)/C2", (0, 1))]


def _module(ring, levels):
    R = RINGS[ring]()
    return R, direct_sum_green_modules([free_module(R, i) for i in levels])


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
@pytest.mark.parametrize("ring,levels", MODULES)
def test_random_automorphism_matches_the_reference_loop(ring, levels, seed):
    _, M = _module(ring, levels)
    want, _ = reference_random_green_automorphism(M, seed=seed)
    got = random_green_automorphism(M, seed=seed)
    assert_same_maps(got.components, want.components)
    assert got.is_level_iso()


def test_random_automorphism_after_a_singular_first_draw():
    # seed 2 draws a singular combination first on F2^2 over C2 at level 1
    _, M = _module("F2/C2", (1, 1))
    want, draws = reference_random_green_automorphism(M, seed=2)
    assert draws > 1
    assert_same_maps(random_green_automorphism(M, seed=2).components, want.components)


@pytest.mark.parametrize("ring", ["F2/C2", "GF4/C2"])
def test_zero_module_automorphism_is_the_empty_identity(ring):
    Z = kzero._zero_green_module(RINGS[ring]())
    want, draws = reference_random_green_automorphism(Z)
    got = random_green_automorphism(Z)
    assert draws == 1 and got.is_level_iso()
    assert [c.shape for c in got.components] == [(0, 0)] * 2
    assert_same_maps(got.components, want.components)


# --- the decomposition --------------------------------------------------------------


def reference_decompose(k, P, seed=None):
    """(witness components, [(trials, generators)] per summand) of the
    trial loop with one `map_from_generator` call per trial."""
    base = k.base
    mults = dim_matrix(k).solve(tuple(P.level_dims()))
    summands = [i for i in sorted(mults) for _ in range(mults[i])]
    rng = random.Random(resolve_seed(seed))
    n = k.n
    stacked = [la.zeros(d, 0, base) for d in P.level_dims()]
    trials = []
    for i in summands:
        gdim = P.underlying.levels[i].gens
        for trial in range(kzero._SUMMAND_ATTEMPTS):
            x = la.zeros(gdim, 1, base)
            if trial < gdim:
                x[trial, 0] = base.one
            else:
                for a in range(gdim):
                    x[a, 0] = base.element(rng.randrange(base.q))
            block = map_from_generator(P, i, x)
            good = True
            for s in range(n + 1):
                cand = la.hstack([stacked[s], block[s]])
                if la.rank(cand, base) != cand.shape[1]:
                    good = False
                    break
            if good:
                stacked = [la.hstack([stacked[s], block[s]]) for s in range(n + 1)]
                trials.append((trial + 1, gdim))
                break
        else:
            raise ValueError(f"could not place a free summand at level {i}")
    return stacked, trials


def _image_module(ring, levels, keep, seed):
    """The image of a projection onto the summands `keep`, conjugated by a
    random automorphism, so that its generators are not standard columns."""
    R, F = _module(ring, levels)
    base = R.base
    g = random_green_automorphism(F, seed=seed)
    gi = invert_module_iso(g)
    comps = []
    for s in range(R.n + 1):
        blocks = []
        for idx, i in enumerate(levels):
            d = free_module(R, i).level_dims()[s]
            blocks.append(la.eye(d, base) if idx in keep else la.zeros(d, d, base))
        comps.append(la.mmul_chain(g.components[s], la.block_diag(blocks, base),
                                   gi.components[s], base=base))
    return R, green_module_from_invariant_span(F, comps)[0]


DECOMPOSITIONS = [("F2/C2", (0, 1, 1), {0, 2}), ("F2/C2", (0, 0, 1), {0, 1, 2}),
                  ("F3/C9", (1, 2), {0}), ("F3/C9", (2, 2, 1), {0, 1}),
                  ("GF4/C2", (0, 1), {0}), ("GF4/C2", (1, 1, 0), {0, 1, 2}),
                  ("FP(F4)/C2", (0, 1), {1})]


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("ring,levels,keep", DECOMPOSITIONS)
def test_decomposition_matches_the_reference_loop(ring, levels, keep, seed):
    R, P = _image_module(ring, levels, keep, seed)
    want, _ = reference_decompose(R, P, seed=seed)
    got = decompose_module(R, P, seed=seed)
    assert got.ok
    assert_same_maps(got.witness.components, want)


@pytest.mark.parametrize("ring,levels", MODULES)
def test_yoneda_stack_rows_are_the_generator_maps(ring, levels):
    # every trial of decompose_module is a coefficient row against the
    # Yoneda maps F_i -> P; for seeded draws it is the map of that generator
    R, P = _module(ring, levels)
    base, rng = R.base, random.Random(len(levels))
    for i in sorted(set(levels)):
        gdim = P.underlying.levels[i].gens
        yoneda = map_from_generator(P, i, la.eye(gdim, base))
        stack = LevelStack(free_module(R, i).underlying, P.underlying,
                           [Y.reshape(len(Y), -1, gdim).transpose(2, 0, 1) for Y in yoneda], base)
        for _ in range(6):
            x = la.field_elements(base, [[rng.randrange(base.q) for _ in range(gdim)]])
            assert_same_maps(stack.components(stack.products(x)[0]),
                             map_from_generator(P, i, x.T.copy()))


def _fixed_point_summand(R):
    """A module over R (C_p, n = 1) with level ranks (1, 0): Weyl, res, tr
    and the ring act trivially, so no vector of it generates a free module."""
    base = R.base
    und = MackeyFunctor(R.group, base, [FPModule(base, 1), FPModule(base, 0)],
                        [la.zeros(1, 0, base)], [la.zeros(0, 1, base)],
                        [la.eye(1, base), la.eye(0, base)])
    action = [[la.eye(1, base)] * R.ring(0).rank, [la.eye(0, base)] * R.ring(1).rank]
    return GreenModule(R, und, action)


@pytest.mark.parametrize("ring", ["F2/C2", "GF4/C2"])
def test_a_module_that_is_not_free_spends_the_draws_like_the_reference(ring):
    # F_1 + T has the level ranks of F_0, but every vector at level 0 is
    # fixed by the Weyl group: the standard columns fail, then every draw
    R = RINGS[ring]()
    P = direct_sum_green_modules([free_module(R, 1), _fixed_point_summand(R)])
    assert dim_matrix(R).solve(tuple(P.level_dims())) == {0: 1}
    with pytest.raises(ValueError, match="could not place a free summand at level 0"):
        reference_decompose(R, P, seed=4)
    with pytest.raises(ValueError, match="could not place a free summand at level 0"):
        decompose_module(R, P, seed=4)


def test_decomposition_builds_the_yoneda_maps_once_per_summand_level(monkeypatch):
    R, P = _module("F2/C2", (1, 0, 1, 1))
    want, _ = reference_decompose(R, P, seed=5)
    calls = []

    def spy(Q, i, x):
        calls.append((i, x.shape))
        return map_from_generator(Q, i, x)
    monkeypatch.setattr(kzero, "map_from_generator", spy)
    got = decompose_module(R, P, seed=5)
    gens = P.level_dims()
    assert calls == [(0, (gens[0], gens[0])), (1, (gens[1], gens[1]))]
    assert_same_maps(got.witness.components, want)
