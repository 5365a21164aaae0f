"""Acceptance gate: one test per headline guarantee, each with a time budget.

Every test prints a single ``criterion NN: pass`` line (visible with -s; under
plain pytest the test outcome itself is the pass/fail line) and fails if the
computation exceeds its budget or returns anything but the documented value.
"""

import random
import time

from mackeykit import linalg as la
from mackeykit.fields import gf_make
from mackeykit.functors import (e1_page, free_module, geometric_fixed_points,
                                tau_geq_1)
from mackeykit.green import (GreenModule, GreenModuleMorphism, GreenMorphism,
                             base_change_cp, base_change_map_cp,
                             box_product_general,
                             burnside_green, char_example_green, check_green,
                             check_green_module, constant_green,
                             direct_sum_green_modules, fixed_point_green,
                             green_module_from_invariant_span,
                             green_module_hom_basis, module_from_green)
from mackeykit.gsets import (CyclicGroup, FiniteGSet, burnside_ring,
                             gset_product, marks, marks_matrix, orbit_product)
from mackeykit.kzero import (classify_free, constant_Z_resolution_check,
                             dim_matrix, freeness_decompose, g0_splitting,
                             invert_module_iso, k0_free_fixed_point,
                             meadow_stabilizer, random_green_automorphism)
from mackeykit.linalg import ZZ
from mackeykit.mackey import (burnside_mackey, check_axioms,
                              constant_mackey, is_isomorphic,
                              twisted_burnside_c5)
from mackeykit.rings import render_presentation


def _gate(num: int, budget: float, fn) -> None:
    t0 = time.perf_counter()
    fn()
    dt = time.perf_counter() - t0
    print(f"criterion {num:2d}: pass ({dt:.2f}s, budget {budget:g}s)")
    assert dt <= budget, f"criterion {num} took {dt:.2f}s (budget {budget:g}s)"


# degrees p^n with a modulus in DEFAULT_MODULI; (3, 27) is not there (its
# default is searched), and the galois fixed-point meadow is skipped at
# p = 3, n = 3
_GALOIS_DEGREES = {2: (2, 4, 8), 3: (3, 9), 5: (5,)}


def _ring_matrix(primes=(2, 3), max_n=3):
    out = []
    for p in primes:
        for n in range(1, max_n + 1):
            G = CyclicGroup(p, n)
            out.append(burnside_green(G))
            out.append(constant_green(G, ZZ, name=f"Z bar C{p**n}"))
            out.append(constant_green(G, gf_make(p, 1), name=f"F{p} bar C{p**n}"))
            if p ** n in _GALOIS_DEGREES[p]:
                out.append(fixed_point_green(G, gf_make(p, p ** n)))
    return out


def test_criterion_01_burnside_presentation():
    def body():
        A = burnside_ring(CyclicGroup(2, 2))
        assert A.labels == ["[C4/e]", "[C4/C2]", "[C4/C4]"]
        y, x, e = 0, 1, 2
        assert list(A.product_of_basis(x, x)[:, 0]) == [0, 2, 0]   # x^2 = 2x
        assert list(A.product_of_basis(y, y)[:, 0]) == [4, 0, 0]   # y^2 = 4y
        assert list(A.product_of_basis(x, y)[:, 0]) == [2, 0, 0]   # xy = 2y
        assert list(A.product_of_basis(y, x)[:, 0]) == [2, 0, 0]
        for i in range(3):
            col = A.product_of_basis(e, i)
            assert all(col[s, 0] == (1 if s == i else 0) for s in range(3))
        assert render_presentation(A) == "Z[x,y]/(x^2-2x,y^2-4y,xy-2y)"
    _gate(1, 1, body)


def test_criterion_02_k0_free_of_galois_fixed_points():
    def body():
        res = k0_free_fixed_point(2, 2, 1)
        assert res.presentation == "Z[y]/(y^2-4y)"
        assert list(res.additive_invariants) == [0, 0]  # additive group Z^2
    _gate(2, 1, body)


def test_criterion_03_free_module_levelwise_values():
    def body():
        for R in _ring_matrix():
            p, n = R.p, R.n
            d = R.level_dims()
            for i in range(n + 1):
                dims = free_module(R, i).level_dims()
                for s in range(n + 1):
                    assert dims[s] == p ** (n - max(i, s)) * d[min(i, s)], \
                        f"{R.name} F{i} level {s}"
    _gate(3, 10, body)


def test_criterion_04_truncation_sends_free_to_free():
    def body():
        for R in _ring_matrix():
            tR = tau_geq_1(R)
            for i in range(1, R.n + 1):
                tF = tau_geq_1(free_module(R, i))
                model = free_module(tR, i - 1)
                assert model.level_dims() == tF.level_dims()
                re = GreenModule(tR, tF.underlying, tF.action)
                ident = [la.eye(dmm, R.base) for dmm in model.level_dims()]
                wit = GreenModuleMorphism(model, re, ident)
                assert wit.check().ok and wit.is_level_iso(), \
                    f"{R.name}: tau F{i} != F{i-1}(tau R)"
    _gate(4, 10, body)


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


def test_criterion_05_projective_implies_free():
    def body():
        plan = [
            (lambda: constant_green(CyclicGroup(2, 1), gf_make(2, 1)),
             [([0], {0}), ([0, 1], {0}), ([0, 1], {1}), ([0, 1], {0, 1}),
              ([0, 0, 1], {0, 2}), ([1, 1], {0}), ([0, 1, 1], {1, 2}),
              ([0, 1], set())]),
            (lambda: constant_green(CyclicGroup(2, 2), gf_make(2, 1)),
             [([0, 2], {0}), ([0, 2], {1}), ([1, 2], {0, 1}), ([0, 1, 2], {2}),
              ([1, 1], {0}), ([0, 1], {0, 1})]),
            (lambda: fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2)),
             [([0], {0}), ([0, 1], {0}), ([0, 1], {1}), ([1, 1], {0, 1}),
              ([0, 0], {1}), ([0, 1, 1], {0, 2})]),
        ]
        count = 0
        for make, cases in plan:
            k = make()
            for levels, keep in cases:
                seed = 500 + count
                pieces = [free_module(k, i) for i in levels]
                F = direct_sum_green_modules(pieces)
                comps = _conjugated_projection(F, pieces, keep, k.base, seed)
                fw = freeness_decompose(k, F, comps, seed=seed)
                assert fw.ok and fw.witness.is_level_iso()
                kept = {}
                for idx in keep:
                    kept[levels[idx]] = kept.get(levels[idx], 0) + 1
                assert fw.classification == classify_free(
                    k.p, k.n, fw.classification.r, kept)
                count += 1
        assert count == 20
    _gate(5, 60, body)


def test_criterion_06_k0_of_constant_f2_is_burnside():
    def body():
        k = constant_green(CyclicGroup(2, 1), gf_make(2, 1))
        r = meadow_stabilizer(k)
        assert r + 1 == 2                       # two monoid generators F0, F1
        assert dim_matrix(k).gamma_determinant() != 0   # and they are independent
        res = k0_free_fixed_point(2, 1, r)
        assert res.presentation == "Z[x]/(x^2-2x)"      # = A(C2)
        assert list(res.additive_invariants) == [0, 0]
        assert burnside_ring(CyclicGroup(2, 1)).rank == 2
        g0 = g0_splitting(k)
        assert g0.page.splitting == "total"
        assert g0.total == 2 and g0.certified
    _gate(6, 5, body)


def test_criterion_07_twisted_burnside_square_and_non_iso():
    def body():
        G = CyclicGroup(5, 1)
        A = burnside_mackey(G)
        At = twisted_burnside_c5()
        box = box_product_general(At, At)
        res = is_isomorphic(A, box)
        assert res.verdict == "isomorphic"
        assert res.witness is not None and res.witness.check().ok
        assert res.witness.is_level_iso()
        res2 = is_isomorphic(A, At)
        assert res2.verdict == "not_isomorphic"
        assert res2.certificate["modulus"] == 5
    _gate(7, 10, body)


def test_criterion_08_axiom_suites_across_example_matrix():
    def body():
        greens = _ring_matrix(primes=(2, 3, 5))
        greens += [char_example_green(p) for p in (2, 3, 5)]
        for R in greens:
            assert check_green(R).ok, R.name
        At = twisted_burnside_c5()
        assert check_axioms(At).ok
        assert check_axioms(box_product_general(At, At)).ok
        G4 = CyclicGroup(2, 2)
        assert check_axioms(box_product_general(
            burnside_mackey(G4), constant_mackey(G4, ZZ))).ok
        mods = [module_from_green(char_example_green(2)),
                free_module(constant_green(CyclicGroup(2, 1), gf_make(2, 1)), 0),
                free_module(constant_green(CyclicGroup(2, 1), gf_make(2, 1)), 1),
                free_module(fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2)), 1),
                free_module(burnside_green(CyclicGroup(3, 2)), 1)]
        for M in mods:
            assert check_green_module(M).ok, M.name
    _gate(8, 30, body)


def test_criterion_09_faithful_action_collapse():
    def body():
        R = fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2))
        page = e1_page(R)
        assert page.transfers_surjective and not page.transfers_zero
        phi = geometric_fixed_points(R)
        assert all(d == 0 for d in phi.level_dims())
        assert len(page.terms) == 1
        assert page.terms[0].label == "Mat2(F2)"        # Morita-equivalent to F2
        assert page.splitting == "single-term"
        g0 = g0_splitting(R)
        assert g0.term_ranks == [1] and g0.total == 1 and g0.certified
    _gate(9, 5, body)


def test_criterion_10_constant_z_resolution():
    def body():
        for p in (2, 3, 5):
            rep = constant_Z_resolution_check(p)
            assert rep.ok and all(rep.exact), rep.report
            assert rep.alternating_rank_zero
    _gate(10, 5, body)


def test_criterion_11_structure_constants_against_orbit_enumeration():
    def body():
        for p in (2, 3):
            for n in range(1, 4):
                G = CyclicGroup(p, n)
                A = burnside_ring(G)
                for i in range(n + 1):
                    for j in range(n + 1):
                        col = A.product_of_basis(i, j)
                        expect = orbit_product(G, i, j).mult
                        assert all(col[s, 0] == expect[s] for s in range(n + 1))
                        # same through the full G-set product
                        prod = gset_product(FiniteGSet.orbit(G, i),
                                            FiniteGSet.orbit(G, j))
                        assert prod.mult == expect
                M = marks_matrix(G)
                assert la.bareiss_det(M) != 0           # marks is injective
                for i in range(n + 1):                  # and multiplicative
                    for j in range(n + 1):
                        mi = marks(FiniteGSet.orbit(G, i))
                        mj = marks(FiniteGSet.orbit(G, j))
                        mp = marks(orbit_product(G, i, j))
                        assert all(mp[s, 0] == mi[s, 0] * mj[s, 0]
                                   for s in range(n + 1))
    _gate(11, 10, body)


def _random_nonzero_submodule(M, base, rng):
    basis = green_module_hom_basis(M, M)
    elements = list(base.elements())
    for _ in range(40):
        comps = [la.zeros(d, d, base) for d in M.level_dims()]
        for h in basis:
            c = rng.choice(elements)
            if c == 0:
                continue
            for s in range(len(comps)):
                comps[s] = la.add_scaled(comps[s], h.components[s], c, base)
        spans = [la.column_space_basis(c, base) for c in comps]
        if any(sp.shape[1] for sp in spans):
            return green_module_from_invariant_span(M, spans)
    raise AssertionError("could not sample a nonzero submodule")


def test_criterion_12_base_change_to_zero_transfer_meadow_is_flat():
    def body():
        meadows = [constant_green(CyclicGroup(p, 1), gf_make(p, 1),
                                  name=f"F{p} bar") for p in (2, 3, 5)]
        shapes = [[0], [1], [0, 1], [0, 0], [0, 1, 1]]
        count = 0
        for case in range(30):
            k = meadows[case % 3]
            base = k.base
            rng = random.Random(9000 + case)
            pieces = [free_module(k, i) for i in rng.choice(shapes)]
            M = direct_sum_green_modules(pieces)
            sub, incl = _random_nonzero_submodule(M, base, rng)
            assert any(lv.gens for lv in sub.underlying.levels)
            ident = GreenMorphism(k, k, [la.eye(d, base) for d in k.level_dims()])
            BS = base_change_cp(ident, sub)
            BM = base_change_cp(ident, M)
            g = base_change_map_cp(ident, incl, BS, BM)
            assert g.check().ok
            # still nonzero, still levelwise injective
            assert any(lv.gens for lv in BS.underlying.levels)
            for s, comp in enumerate(g.components):
                assert la.rank(comp, base) == BS.underlying.levels[s].gens
            count += 1
        assert count == 30
    _gate(12, 30, body)
