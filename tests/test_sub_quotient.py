"""The one constructor of subfunctors (`spanned`, which restricts every map
through `restricted`) and the one constructor of quotient functors
(`pushed`, which keeps its projections and lifts).

A span that a map leaves is a ValueError naming the map and the level, not
an `assert`, so it holds under `python -O` too.  Every quotient built by
`pushed` carries `.projections` and `.lifts` with proj_s lift_s = I."""

import pytest

from mackeykit import linalg as la
from mackeykit.fields import gf_make
from mackeykit.functors import free_module, geometric_fixed_points
from mackeykit.green import (GreenMorphism, base_change_cp, box_product_general,
                             burnside_green, constant_green,
                             green_module_from_invariant_span)
from mackeykit.gsets import CyclicGroup
from mackeykit.linalg import ZZ
from mackeykit.mackey import (MackeyFunctor, MackeyMorphism, burnside_mackey, cokernel,
                              constant_mackey, fixed_point_mackey, hom_basis, restricted,
                              spanned)
from mackeykit.modules import FPModule

F2, F3 = gf_make(2, 1), gf_make(3, 1)
BASES = {"Z": ZZ, "F2": F2, "F3": F3}
SWAP = [[0, 1], [1, 0]]
E0, E1 = [[1], [0]], [[0], [1]]


def _two_levels(base, tr, weyl0, weyl1):
    """A C2-functor on base^2 at both levels with res = I and the given tr
    and Weyl maps; no axiom is checked, only restriction is exercised."""
    I = la.eye(2, base)
    return MackeyFunctor(CyclicGroup(2, 1), base, [FPModule(base, 2)] * 2, [I],
                         [la.mat(tr, base=base)],
                         [la.mat(weyl0, base=base), la.mat(weyl1, base=base)])


IDENT = [[1, 0], [0, 1]]
OPEN_SPANS = [
    # (tr, weyl_0, weyl_1, level bases, the map and level that leave them)
    (IDENT, IDENT, IDENT, [E1, E0], "res at level 0"),
    (SWAP, IDENT, IDENT, [E0, E0], "tr at level 1"),
    (IDENT, SWAP, IDENT, [E0, E0], "weyl at level 0"),
    (IDENT, IDENT, SWAP, [E0, E0], "weyl at level 1"),
]


@pytest.mark.parametrize("base", sorted(BASES))
@pytest.mark.parametrize("tr,weyl0,weyl1,bases,where", OPEN_SPANS,
                         ids=[c[-1] for c in OPEN_SPANS])
def test_spanned_names_the_map_and_level_a_span_is_not_closed_under(
        base, tr, weyl0, weyl1, bases, where):
    base = BASES[base]
    F = _two_levels(base, tr, weyl0, weyl1)
    with pytest.raises(ValueError, match=f"^span not closed under {where}$"):
        spanned(F, [la.mat(B, base=base) for B in bases], "open")


@pytest.mark.parametrize("base", sorted(BASES))
def test_spanned_restricts_each_map_to_closed_spans(base):
    base = BASES[base]
    F = _two_levels(base, SWAP, SWAP, IDENT)
    ones = la.mat([[1], [1]], base=base)        # the diagonal is closed under every map
    S = spanned(F, [ones, ones], "diagonal")
    assert S.level_dims() == (1, 1) and S.name == "diagonal"
    for maps in (S.res, S.tr, S.weyl):
        assert all(la.mat_eq(A, la.eye(1, base)) for A in maps)


@pytest.mark.parametrize("base", sorted(BASES))
def test_restricted_solves_for_the_map_between_spans_or_raises(base):
    base = BASES[base]
    A = la.mat(SWAP, base=base)
    e0, e1 = la.mat(E0, base=base), la.mat(E1, base=base)
    assert la.mat_eq(restricted(A, e0, e1, base, "swap"), la.eye(1, base))
    assert restricted(A, la.zeros(2, 0, base), e1, base, "swap").shape == (1, 0)
    with pytest.raises(ValueError, match="^span not closed under swap at level 3$"):
        restricted(A, e0, e0, base, "swap at level 3")


@pytest.mark.parametrize("spans,where", [
    ([E0, [[1]]], "res at level 0"),
    ([E0, []], "tr at level 1"),
])
def test_invariant_span_names_the_map_and_level(spans, where):
    # the free module F_2[C2] at level 0 and F_2 at level 1, res = (1, 1)^T
    # and tr = (1, 1): e0 at level 0 holds neither res of level 1 nor, over
    # a zero level 1, is its transfer zero
    F = free_module(constant_green(CyclicGroup(2, 1), F2), 0)
    cols = [la.mat(B, base=F2) if B else la.zeros(1, 0, F2) for B in spans]
    with pytest.raises(ValueError, match=f"^span not closed under {where}$"):
        green_module_from_invariant_span(F, cols)


def test_invariant_span_takes_unreduced_spans():
    # the spans' pivot columns are taken inside, so passing an idempotent's
    # components whole gives the submodule of their reduced bases
    R = constant_green(CyclicGroup(2, 1), F2)
    F = free_module(R, 0)
    reduced = [la.column_space_basis(la.eye(lv.gens, F2), F2) for lv in F.underlying.levels]
    whole = [la.hstack([B, B]) for B in reduced]
    a, incl_a = green_module_from_invariant_span(F, reduced)
    b, incl_b = green_module_from_invariant_span(F, whole)
    assert a.level_dims() == b.level_dims()
    for X, Y in zip([*a.underlying.res, *a.underlying.tr, *a.underlying.weyl,
                     *incl_a.components],
                    [*b.underlying.res, *b.underlying.tr, *b.underlying.weyl,
                     *incl_b.components]):
        assert la.mat_eq(X, Y)


# --- quotients keep their projections and lifts -----------------------------------


def _box(base):
    G = CyclicGroup(2, 2)
    if base is ZZ:
        return box_product_general(burnside_mackey(G), constant_mackey(G, ZZ))
    return box_product_general(constant_mackey(G, base), constant_mackey(G, base, 2))


def _base_change(base):
    G = CyclicGroup(2, 1)
    R = burnside_green(G) if base is ZZ else constant_green(G, base)
    ident = GreenMorphism(R, R, [la.eye(R.ring(s).rank, base) for s in range(R.n + 1)])
    return base_change_cp(ident, free_module(R, 0))


def _cokernel(base):
    G = CyclicGroup(2, 1)
    if base is ZZ:
        Z = constant_mackey(G, ZZ)
        return cokernel(MackeyMorphism(Z, Z, [la.mat([[2]]), la.mat([[2]])]))[0]
    rho = la.mat([[0, 1], [1, 0]], base=base)
    (f,) = hom_basis(constant_mackey(G, base), fixed_point_mackey(G, base, rho))
    return cokernel(f)[0]


def _geometric_fixed_points(base):
    G = CyclicGroup(3, 2)
    return geometric_fixed_points(burnside_mackey(G) if base is ZZ
                                  else constant_mackey(G, base, 2))


QUOTIENTS = {"box_product_general": _box, "base_change_cp": _base_change,
             "cokernel": _cokernel, "geometric_fixed_points": _geometric_fixed_points}


@pytest.mark.parametrize("base", ["Z", "F3"])
@pytest.mark.parametrize("build", sorted(QUOTIENTS))
def test_quotients_keep_projections_and_lifts(build, base):
    base = BASES[base]
    Q = QUOTIENTS[build](base)
    levels = Q.underlying.levels if hasattr(Q, "underlying") else Q.levels
    assert len(Q.projections) == len(Q.lifts) == len(levels)
    for lv, proj, lift in zip(levels, Q.projections, Q.lifts):
        assert proj.shape == lift.shape[::-1] and proj.shape[0] == lv.gens
        assert la.mat_eq(la.mmul(proj, lift, base), la.eye(lv.gens, base))


# --- fixed points against the solve loop they replace -------------------------------


def ref_fixed_point_maps(group, field, rho):
    """res, tr and weyl of the fixed-point functor by one solve per map: the
    loop that `spanned` replaced, kept as the reference."""
    p, n, d = group.p, group.n, rho.shape[0]
    idm = la.eye(d, field)
    bases = [la.nullspace(la.sub(la.mpow(rho, p ** (n - s), field), idm, field), field)
             for s in range(n + 1)]
    res, tr, weyl = [], [], []
    for s in range(n):
        r = la.solve(bases[s], bases[s + 1], field)
        assert r is not None
        res.append(r)
        trace = la.power_sum(la.mpow(rho, p ** (n - s - 1), field), p, field)
        t = la.solve(bases[s + 1], la.mmul(trace, bases[s], field), field)
        assert t is not None
        tr.append(t)
    for s in range(n + 1):
        w = la.solve(bases[s], la.mmul(rho, bases[s], field), field)
        assert w is not None
        weyl.append(w)
    return bases, res, tr, weyl


@pytest.mark.parametrize("over", ["GF16", "F2"])
def test_fixed_points_of_gf16_over_c4_match_the_solve_loop(over):
    F16 = gf_make(2, 4)
    field = F16 if over == "GF16" else F2
    G = CyclicGroup(2, 2)
    rho = la.coerce(F16.frobenius_matrix(1), field)
    M = fixed_point_mackey(G, field, rho)
    bases, res, tr, weyl = ref_fixed_point_maps(G, field, rho)
    assert M.level_dims() == (4, 2, 1)
    for got, want in [(M.fixed_bases, bases), (M.res, res), (M.tr, tr), (M.weyl, weyl)]:
        assert len(got) == len(want)
        assert all(A.dtype == B.dtype and la.mat_eq(A, B) for A, B in zip(got, want))
