import pytest

from mackeykit import kzero
from mackeykit import linalg as la
from mackeykit.fields import gf_make
from mackeykit.functors import free_module
from mackeykit.green import (GreenFunctor, GreenModuleMorphism, burnside_green,
                             char_example_green, constant_green,
                             direct_sum_green_modules, fixed_point_green,
                             module_from_green)
from mackeykit.gsets import CyclicGroup
from mackeykit.kzero import (CanonicalFreeClass, classify_free,
                             constant_Z_resolution_check, dim_matrix,
                             freeness_decompose, g0_splitting,
                             invert_module_iso, k0_free_fixed_point,
                             map_from_generator, meadow_stabilizer,
                             random_green_automorphism, simples_count)
from mackeykit.mackey import MackeyFunctor
from mackeykit.rings import render_presentation


# --- stabilizer and dimension matrix -----------------------------------------

def test_meadow_stabilizer_values():
    assert meadow_stabilizer(constant_green(CyclicGroup(2, 1), gf_make(2, 1))) == 1
    assert meadow_stabilizer(fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2))) == 0
    assert meadow_stabilizer(fixed_point_green(CyclicGroup(2, 2), gf_make(2, 4))) == 0
    assert meadow_stabilizer(fixed_point_green(CyclicGroup(2, 2), gf_make(2, 2))) == 1
    assert meadow_stabilizer(constant_green(CyclicGroup(3, 2), gf_make(3, 1))) == 2


def test_meadow_stabilizer_rejects_a_weyl_order_beyond_the_group():
    k = fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2))
    und = k.underlying
    W = la.mat([[0, 1], [1, 1]], base=k.base)      # order 3 over F_2, and |C_2| = 2
    bad = MackeyFunctor(und.group, k.base, und.levels, und.res, und.tr, [W, und.weyl[1]])
    with pytest.raises(ValueError, match="order beyond the group"):
        meadow_stabilizer(GreenFunctor(bad, k.level_rings))


def test_meadow_stabilizer_rejects_a_weyl_order_that_is_not_a_power_of_p():
    k = fixed_point_green(CyclicGroup(2, 2), gf_make(2, 4))
    und = k.underlying
    W = la.mat([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], base=k.base)
    bad = MackeyFunctor(und.group, k.base, und.levels, und.res, und.tr, [W] + und.weyl[1:])
    with pytest.raises(ValueError, match="order 3, not a power of 2"):
        meadow_stabilizer(GreenFunctor(bad, k.level_rings))


def test_dim_matrix_shapes_and_determinant():
    R = fixed_point_green(CyclicGroup(2, 2), gf_make(2, 2))
    dm = dim_matrix(R)
    assert dm.r == 1
    assert dm.alpha.shape == (3, 3)
    assert dm.gamma.shape == (2, 2)
    assert dm.gamma_determinant() != 0
    # gamma is the scaled square p^(r - max(s, i))
    for s in range(2):
        for i in range(2):
            assert dm.gamma[s, i] == 2 ** (1 - max(s, i))


@pytest.mark.parametrize("p,r", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 2)])
def test_gamma_never_degenerates(p, r):
    # column subtraction leaves a triangular matrix with nonzero diagonal
    g = la.zeros(r + 1, r + 1)
    for s in range(r + 1):
        for i in range(r + 1):
            g[s, i] = p ** (r - max(s, i))
    assert la.bareiss_det(g) != 0


@pytest.mark.parametrize("mk", [
    lambda: constant_green(CyclicGroup(2, 1), gf_make(2, 1)),
    lambda: fixed_point_green(CyclicGroup(2, 2), gf_make(2, 4)),
    lambda: fixed_point_green(CyclicGroup(2, 2), gf_make(2, 2)),
    lambda: fixed_point_green(CyclicGroup(3, 1), gf_make(3, 3)),
])
def test_dim_solver_roundtrips_canonical_sums(mk):
    R = mk()
    dm = dim_matrix(R)
    n = R.n
    gens = list(range(dm.r)) + [n]
    import itertools
    for mults in itertools.product(range(3), repeat=len(gens)):
        want = {i: m for i, m in zip(gens, mults) if m}
        dims = [sum(m * dm.alpha[s, i] for i, m in want.items())
                for s in range(n + 1)]
        assert dm.solve(tuple(dims)) == want


def test_dim_solver_rejects_impossible_dims():
    R = constant_green(CyclicGroup(2, 1), gf_make(2, 1))
    dm = dim_matrix(R)
    assert dm.solve((1, 0)) is None
    assert dm.solve((0, 5)) is None


def test_two_decompositions_over_one_ring_build_the_dim_matrix_once(monkeypatch):
    from mackeykit import kzero
    R = constant_green(CyclicGroup(5, 2), gf_make(5, 1))
    P = free_module(R, 1)
    built, solved = [], []
    stabilizer, solve_int = kzero.meadow_stabilizer, la.solve_int
    monkeypatch.setattr(kzero, "meadow_stabilizer", lambda k: built.append(k) or stabilizer(k))
    monkeypatch.setattr(la, "solve_int", lambda A, B: solved.append(A.shape) or solve_int(A, B))
    first = kzero.decompose_module(R, P)
    second = kzero.decompose_module(R, P)
    assert built == [R] and solved == [(3, 3)]
    assert R.dim_matrix is dim_matrix(R)
    assert first.classification.mults == second.classification.mults == {1: 1}
    assert first.ok and second.ok


# --- the class ring ------------------------------------------------------------

def test_class_ring_with_one_collapsed_level():
    q = k0_free_fixed_point(2, 2, 1)
    assert q.ring.rank == 2
    assert q.presentation == "Z[y]/(y^2-4y)"


def test_class_ring_trivial_stabilizer_is_full_ambient():
    q = k0_free_fixed_point(2, 2, 2)
    assert q.ring.rank == 3
    assert q.presentation == "Z[x,y]/(x^2-2x,y^2-4y,xy-2y)"


def test_class_ring_everything_collapsed():
    q = k0_free_fixed_point(3, 2, 0)
    assert q.ring.rank == 1
    assert q.presentation == "Z"


def test_class_ring_odd_prime():
    q = k0_free_fixed_point(3, 2, 1)
    assert q.ring.rank == 2
    assert q.presentation == "Z[y]/(y^2-9y)"


# --- canonical forms -------------------------------------------------------------

def test_classify_folds_above_the_stabilizer():
    c = classify_free(2, 2, 1, {0: 1, 1: 2, 2: 3})
    assert c.mults == {0: 1, 2: 7}          # 2 copies of F1 -> 4 copies of F2
    assert c.describe() == "F0 + F2^7"


def test_classify_trivial_twist_keeps_everything():
    c = classify_free(2, 2, 2, {0: 1, 1: 1, 2: 1})
    assert c.mults == {0: 1, 1: 1, 2: 1}


def test_classify_away_from_char_p_needs_trivial_twist():
    with pytest.raises(ValueError):
        classify_free(2, 2, 1, {0: 1}, char_is_p=False)
    c = classify_free(2, 2, 2, {1: 1}, char_is_p=False)
    assert c.mults == {1: 1}


@pytest.mark.parametrize("mults", [{3: 1}, {-1: 1}, {0: -2}])
def test_classify_rejects_summands_outside_the_levels(mults):
    with pytest.raises(ValueError):
        classify_free(2, 2, 1, mults)


def test_monoid_generator_count_for_constant_mod_two():
    # two generators for free modules over the constant functor at C2,
    # and the class ring there is the full ambient ring
    R = constant_green(CyclicGroup(2, 1), gf_make(2, 1))
    r = meadow_stabilizer(R)
    assert r + 1 == 2
    q = k0_free_fixed_point(2, 1, r)
    assert q.ring.rank == 2
    assert q.presentation == "Z[x]/(x^2-2x)"


# --- freeness decompositions ------------------------------------------------------

def _conjugated_projection(F, pieces, keep, base, seed):
    g = random_green_automorphism(F, seed=seed)
    gi = invert_module_iso(g)
    comps = []
    for s in range(len(F.level_dims())):
        blocks = []
        for idx, m in enumerate(pieces):
            d = m.level_dims()[s]
            blocks.append(la.eye(d, base) if idx in keep else la.zeros(d, d, base))
        P = la.block_diag(blocks)
        comps.append(la.mmul_chain(g.components[s], P, gi.components[s], base=base))
    return comps


DECOMP_CASES = [
    ("constant F2 / C2", lambda: constant_green(CyclicGroup(2, 1), gf_make(2, 1)), (0, 1, 1)),
    ("FP(F4) / C2", lambda: fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2)), (0, 1)),
    ("constant F2 / C4", lambda: constant_green(CyclicGroup(2, 2), gf_make(2, 1)), (0, 2)),
    ("FP(F27) / C3", lambda: fixed_point_green(CyclicGroup(3, 1), gf_make(3, 3)), (0, 1, 1)),
]


@pytest.mark.parametrize("name,mk,levels", DECOMP_CASES, ids=[c[0] for c in DECOMP_CASES])
def test_idempotent_images_decompose_with_witness(name, mk, levels):
    k = mk()
    pieces = [free_module(k, i) for i in levels]
    F = direct_sum_green_modules(pieces)
    for seed in range(2):
        keep = {0} if seed else set(range(len(levels) - 1))
        comps = _conjugated_projection(F, pieces, keep, k.base, seed)
        fw = freeness_decompose(k, F, comps, seed=seed)
        assert fw.ok
        assert fw.witness.is_level_iso()
        kept = {}
        for idx in keep:
            kept[levels[idx]] = kept.get(levels[idx], 0) + 1
        expect = classify_free(k.p, k.n, fw.classification.r, kept)
        assert fw.classification.mults == expect.mults


def test_zero_idempotent_decomposes_to_nothing():
    k = constant_green(CyclicGroup(2, 1), gf_make(2, 1))
    F = free_module(k, 0)
    comps = [la.zeros(d, d, k.base) for d in F.level_dims()]
    fw = freeness_decompose(k, F, comps)
    assert fw.ok and fw.classification.mults == {}


def test_identity_idempotent_returns_everything():
    k = fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2))
    F = direct_sum_green_modules([free_module(k, 1), free_module(k, 1)])
    comps = [la.eye(d, k.base) for d in F.level_dims()]
    fw = freeness_decompose(k, F, comps, seed=3)
    assert fw.ok and fw.classification.mults == {1: 2}


def test_non_idempotent_input_is_rejected():
    k = constant_green(CyclicGroup(2, 1), gf_make(2, 1))
    F = free_module(k, 0)
    comps = []
    for d in F.level_dims():
        A = la.zeros(d, d, k.base)
        A[0, d - 1] = k.base.embed(1)   # nilpotent, not idempotent
        comps.append(A)
    with pytest.raises(ValueError):
        freeness_decompose(k, F, comps)


def test_decomposition_results_are_seed_deterministic():
    k = constant_green(CyclicGroup(2, 1), gf_make(2, 1))
    pieces = [free_module(k, i) for i in (0, 1)]
    F = direct_sum_green_modules(pieces)
    comps = _conjugated_projection(F, pieces, {0}, k.base, seed=7)
    a = freeness_decompose(k, F, comps, seed=11)
    b = freeness_decompose(k, F, comps, seed=11)
    for s in range(2):
        assert la.mat_eq(a.witness.components[s], b.witness.components[s])


def test_generator_map_of_the_unit_is_identity_on_regular_module():
    R = fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2))
    M = module_from_green(R)
    x = la.zeros(M.level_dims()[1], 1, R.base)
    x[0, 0] = R.base.embed(1)   # unit sits first in these level rings
    comps = map_from_generator(M, 1, x)
    F = free_module(R, 1)
    wit = GreenModuleMorphism(F, M, comps)
    assert wit.check().ok and wit.is_level_iso()


# --- simple counts and totals -------------------------------------------------------

def test_simples_counts():
    assert simples_count(2, 2, True) == 1     # char divides the order
    assert simples_count(2, 3, False) == 2    # cosets {0},{1,2}
    assert simples_count(4, 5, False) == 3    # cosets {0},{1,4},{2,3}
    assert simples_count(3, 1, False) == 1
    assert simples_count(2, 7, False) == 3


@pytest.mark.parametrize("q,order", [(2, 0), (1, 3), (0, 1)])
def test_simples_count_rejects_an_empty_group_or_field(q, order):
    with pytest.raises(ValueError):
        simples_count(q, order, False)


def test_g0_totals():
    assert g0_splitting(constant_green(CyclicGroup(2, 1), gf_make(2, 1))).total == 2
    assert g0_splitting(fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2))).total == 1
    assert g0_splitting(char_example_green(2)).total == 2
    assert g0_splitting(char_example_green(3)).total == 2
    assert g0_splitting(constant_green(CyclicGroup(3, 2), gf_make(3, 1))).total == 3


def test_g0_integer_coefficients_not_certified():
    g = g0_splitting(burnside_green(CyclicGroup(3, 1)))
    assert g.total is None and not g.certified
    assert "?" in g.describe()


def test_g0_certified_flags():
    g = g0_splitting(fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2)))
    assert g.certified and g.page.splitting == "single-term"


# --- the resolution of the constant functor -------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
def test_constant_resolution_is_exact(p):
    r = constant_Z_resolution_check(p)
    assert r.maps_ok
    assert all(r.exact)
    assert r.alternating_rank_zero
    assert r.ok and r.report.ok


@pytest.mark.parametrize("p", [2, 3])
def test_exact_at_is_false_where_homology_survives(monkeypatch, p):
    """The check's three internal spots are exact; beta followed by beta is
    not (the image of W - 1 is not its kernel on Ind Z), nor is alpha
    followed by gamma (gamma alpha is p on the bottom level)."""
    exact_at, pairs = kzero._exact_at, []

    def spy(f, g):
        pairs.append((f, g))
        return exact_at(f, g)
    monkeypatch.setattr(kzero, "_exact_at", spy)
    assert constant_Z_resolution_check(p).ok
    assert len(pairs) == 3 and all(exact_at(f, g) for f, g in pairs)
    (alpha, beta), (_, gamma) = pairs[0], pairs[1]
    assert not exact_at(beta, beta)
    assert not exact_at(alpha, gamma)


def test_resolution_report_carries_prime():
    assert constant_Z_resolution_check(3).p == 3


@pytest.mark.parametrize("r", [-1, 3])
def test_class_ring_rejects_a_stabilizer_outside_the_levels(r):
    # a ValueError, not an assert, so it holds under python -O too
    with pytest.raises(ValueError, match="outside 0..2"):
        k0_free_fixed_point(2, 2, r)
