"""The stacked ring laws against the per-pair loops they replaced.

Each `ref_*` function below is the check or table as it was computed before
`BasedRing.products`: one small product per basis pair or triple, in the
same order.  Reports must agree in subject and in every violation's kind,
place and detail, in order; tables must be equal, dtype included.  Inputs
are valid rings, functors and modules over Z, F_2, F_5, GF(4) and
F_(2^61 - 1) (the object path), and the same with one structure constant,
one action entry, one res, tr or Weyl entry or one component entry changed.
The property tests are derandomized.
"""

import collections
import functools
import itertools
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mackeykit.linalg as la
from mackeykit import cli
from mackeykit.docio import parse_document, print_document
from mackeykit.fields import gf_make, poly_mul
from mackeykit.functors import free_module
from mackeykit.green import (GreenFunctor, GreenModule, GreenModuleMorphism, GreenMorphism,
                             burnside_green, char_example_green, check_green,
                             check_green_module, constant_green, direct_sum_green_modules,
                             fixed_point_green, green_module_hom_basis, module_from_green,
                             twisted_group_ring)
from mackeykit.gsets import CyclicGroup, burnside_ring, ideal_lattice
from mackeykit.kzero import k0_free_fixed_point
from mackeykit.linalg import ZZ
from mackeykit.mackey import MackeyFunctor, check_axioms
from mackeykit.modules import FPModule, reduced_quotient
from mackeykit.report import CheckReport
from mackeykit import rings as rings_mod
from mackeykit.green import _ring_map_into
from mackeykit.rings import BasedRing, based_ring_check, quotient_ring, ring_is_field

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

F2, F5, GF4 = gf_make(2, 1), gf_make(5, 1), gf_make(2, 2)
FBIG = gf_make(2 ** 61 - 1, 1)          # past the int64 bound: FFElement object arrays
BASES = {"Z": ZZ, "F2": F2, "F5": F5, "GF4": GF4, "F2^61-1": FBIG}


# --- the per-pair references ---------------------------------------------------


def ref_left_mult(R, v):
    out = la.zeros(R.rank, R.rank, R.base)
    for i in range(R.rank):
        if v[i, 0] != 0:
            out = la.add_scaled(out, R.mult[i * R.rank:(i + 1) * R.rank, :].T, v[i, 0], R.base)
    return out


def ref_multiply(R, v, w):
    return la.mmul(ref_left_mult(R, v), w, R.base)


def ref_based_ring_check(R):
    rep = CheckReport("based ring")
    n = R.rank
    if n == 0:
        return rep
    basis = [R.basis_vector(i) for i in range(n)]
    prod = {(i, j): R.product_of_basis(i, j) for i in range(n) for j in range(n)}
    if R.commutative:
        for i in range(n):
            for j in range(i + 1, n):
                if not la.mat_eq(prod[i, j], prod[j, i]):
                    rep.add("commutativity", f"e{i}*e{j} != e{j}*e{i}")
    for i in range(n):
        for j in range(n):
            left = ref_left_mult(R, prod[i, j])
            right_fix = ref_left_mult(R, basis[i])
            for k in range(n):
                lhs = la.mmul(left, basis[k], R.base)
                rhs = la.mmul(right_fix, prod[j, k], R.base)
                if not la.mat_eq(lhs, rhs):
                    rep.add("associativity", f"(e{i}*e{j})*e{k}")
    for i in range(n):
        if not la.mat_eq(ref_multiply(R, R.unit, basis[i]), basis[i]):
            rep.add("unit", f"1*e{i}")
        if not la.mat_eq(ref_multiply(R, basis[i], R.unit), basis[i]):
            rep.add("unit", f"e{i}*1")
    return rep


def ref_ring_map_into(rep, kind, where, A, src, dst, target_level, base):
    if not target_level.maps_equal(la.mmul(A, src.unit, base), dst.unit):
        rep.add(kind, where, "does not preserve the unit")
    for i in range(src.rank):
        ai = A[:, i:i + 1].copy()
        for j in range(src.rank):
            lhs = la.mmul(A, src.product_of_basis(i, j), base)
            rhs = ref_multiply(dst, ai, A[:, j:j + 1].copy())
            if not target_level.maps_equal(lhs, rhs):
                rep.add(kind, f"{where}: e{i}*e{j}", "not multiplicative")


def ref_check_axioms(M):
    rep = CheckReport(M.name or "mackey functor")
    p, n, base = M.p, M.n, M.base

    def welldef(A, src, dst, where):
        if src.relations.shape[1]:
            if not dst.annihilates(la.mmul(A, src.relations)):
                rep.add("well-defined", where, "map does not preserve relations")

    for s in range(n):
        welldef(M.res[s], M.levels[s + 1], M.levels[s], f"res_{s}")
        welldef(M.tr[s], M.levels[s], M.levels[s + 1], f"tr_{s}")
    for s in range(n + 1):
        welldef(M.weyl[s], M.levels[s], M.levels[s], f"weyl_{s}")
    if not M.levels[n].maps_equal(M.weyl[n], la.eye(M.levels[n].gens, base)):
        rep.add("weyl", "level n", "top Weyl action is not the identity")
    for s in range(n + 1):
        pw = la.mpow(M.weyl[s], p ** (n - s), base)
        if not M.levels[s].maps_equal(pw, la.eye(M.levels[s].gens, base)):
            rep.add("weyl", f"level {s}", f"weyl^{p ** (n - s)} != id")
    for s in range(n):
        if not M.levels[s].maps_equal(la.mmul(M.weyl[s], M.res[s], base),
                                      la.mmul(M.res[s], M.weyl[s + 1], base)):
            rep.add("equivariance", f"res_{s}", "weyl . res != res . weyl")
        if not M.levels[s + 1].maps_equal(la.mmul(M.tr[s], M.weyl[s], base),
                                          la.mmul(M.weyl[s + 1], M.tr[s], base)):
            rep.add("equivariance", f"tr_{s}", "tr . weyl != weyl . tr")
    for s in range(n):
        lhs = la.mmul(M.res[s], M.tr[s], base)
        rhs = la.power_sum(la.mpow(M.weyl[s], p ** (n - s - 1), base), p, base)
        if not M.levels[s].maps_equal(lhs, rhs):
            rep.add("double-coset", f"level {s}",
                    "res . tr != sum of relative Weyl translates")
    for t in range(n):
        down_t = la.eye(M.levels[t].gens, base)
        for s in range(t - 1, -1, -1):
            down_t = la.mmul(M.res[s], down_t, base)
            lhs = la.mmul(la.mmul(down_t, M.res[t], base), M.tr[t], base)
            step = la.mpow(M.weyl[s], p ** (n - t - 1), base)
            rhs = la.mmul(la.power_sum(step, p, base), down_t, base)
            if not M.levels[s].maps_equal(lhs, rhs):
                rep.add("double-coset", f"levels {s}<{t}",
                        "non-adjacent res . tr != sum of Weyl-translated res")
    return rep


def ref_check_green(R):
    M = R.underlying
    base, n = M.base, M.n
    rep = CheckReport(R.name or "green functor").merged(ref_check_axioms(M))
    for s in range(n + 1):
        ring = R.ring(s)
        if not ring.commutative:
            rep.add("commutativity", f"level {s}", "green levels must be commutative")
        for v in ref_based_ring_check(ring).violations:
            rep.add(v.kind, f"level {s}: {v.where}", v.detail)
    for s in range(n):
        ref_ring_map_into(rep, "res-ring", f"res_{s}", M.res[s],
                          R.ring(s + 1), R.ring(s), M.levels[s], base)
    for s in range(n + 1):
        ref_ring_map_into(rep, "weyl-ring", f"weyl_{s}", M.weyl[s],
                          R.ring(s), R.ring(s), M.levels[s], base)
    for s in range(n + 1):
        trc = la.eye(M.levels[s].gens, base)
        resc = trc
        for t in range(s + 1, n + 1):
            trc = la.mmul(M.tr[t - 1], trc, base)
            resc = la.mmul(resc, M.res[t - 1], base)
            Rs, Rt = R.ring(s), R.ring(t)
            for x in range(Rs.rank):
                tx = trc[:, x:x + 1].copy()
                for y in range(Rt.rank):
                    lhs = ref_multiply(Rt, tx, Rt.basis_vector(y))
                    rhs = la.mmul(trc, ref_multiply(Rs, Rs.basis_vector(x),
                                                    resc[:, y:y + 1].copy()), base)
                    if not M.levels[t].maps_equal(lhs, rhs):
                        rep.add("frobenius", f"levels {s}->{t}",
                                f"tr(e{x} . res(e{y})) != tr(e{x}) . e{y}")
    return rep


def ref_green_morphism_check(f):
    rep = CheckReport("green morphism").merged(f._mackey.check())
    for s in range(f.source.n + 1):
        ref_ring_map_into(rep, "ring-map", f"level {s}", f.components[s], f.source.ring(s),
                          f.target.ring(s), f.target.underlying.levels[s], f.source.base)
    return rep


def ref_action_matrix(M, s, rvec):
    g = M.underlying.levels[s].gens
    out = la.zeros(g, g, M.base)
    for u in range(M.ring.ring(s).rank):
        if rvec[u, 0]:
            out = la.add_scaled(out, M.action[s][u], rvec[u, 0], M.base)
    return out


def ref_check_green_module(M):
    R, und = M.ring, M.underlying
    base, n = und.base, und.n
    rep = CheckReport(M.name or "green module").merged(ref_check_axioms(und))
    for s in range(n + 1):
        ring, lev = R.ring(s), und.levels[s]
        if lev.relations.shape[1]:
            for u in range(ring.rank):
                if not lev.annihilates(la.mmul(M.action[s][u], lev.relations)):
                    rep.add("action", f"level {s}: e{u}",
                            "action does not preserve the relations")
        if not lev.maps_equal(ref_action_matrix(M, s, ring.unit), la.eye(lev.gens, base)):
            rep.add("unit", f"level {s}", "unit does not act as the identity")
        for u in range(ring.rank):
            for v in range(ring.rank):
                lhs = la.mmul(M.action[s][u], M.action[s][v], base)
                rhs = ref_action_matrix(M, s, ring.product_of_basis(u, v))
                if not lev.maps_equal(lhs, rhs):
                    rep.add("action", f"level {s}: e{u}*e{v}", "action not multiplicative")
    for s in range(n):
        res, tr = und.res[s], und.tr[s]
        Rres, Rtr = R.underlying.res[s], R.underlying.tr[s]
        rs, rt = R.ring(s), R.ring(s + 1)
        for u in range(rt.rank):
            lhs = la.mmul(res, M.action[s + 1][u], base)
            rhs = la.mmul(ref_action_matrix(M, s, Rres[:, u:u + 1].copy()), res, base)
            if not und.levels[s].maps_equal(lhs, rhs):
                rep.add("res-linearity", f"level {s + 1}: e{u}", "res(r.m) != res(r).res(m)")
            lhs = la.mmul(M.action[s + 1][u], tr, base)
            rhs = la.mmul(tr, ref_action_matrix(M, s, Rres[:, u:u + 1].copy()), base)
            if not und.levels[s + 1].maps_equal(lhs, rhs):
                rep.add("frobenius", f"levels {s}->{s + 1}: e{u}.tr",
                        "r.tr(m) != tr(res(r).m)")
        for x in range(rs.rank):
            lhs = ref_action_matrix(M, s + 1, Rtr[:, x:x + 1].copy())
            rhs = la.mmul_chain(tr, M.action[s][x], res, base=base)
            if not und.levels[s + 1].maps_equal(lhs, rhs):
                rep.add("frobenius", f"levels {s}->{s + 1}: tr(e{x})",
                        "tr(x).m != tr(x.res(m))")
    for s in range(n + 1):
        w, Rw = und.weyl[s], R.underlying.weyl[s]
        for u in range(R.ring(s).rank):
            lhs = la.mmul(w, M.action[s][u], base)
            rhs = la.mmul(ref_action_matrix(M, s, Rw[:, u:u + 1].copy()), w, base)
            if not und.levels[s].maps_equal(lhs, rhs):
                rep.add("weyl", f"level {s}: e{u}", "weyl action not semilinear")
    return rep


def ref_module_morphism_check(g):
    rep = CheckReport("green module morphism").merged(g._mackey.check())
    base = g.source.base
    for s in range(g.source.n + 1):
        f = g.components[s]
        for u in range(g.source.ring.ring(s).rank):
            lhs = la.mmul(f, g.source.action[s][u], base)
            rhs = la.mmul(g.target.action[s][u], f, base)
            if not g.target.underlying.levels[s].maps_equal(lhs, rhs):
                rep.add("linearity", f"level {s}: e{u}", "not module-linear")
    return rep


def ref_ring_is_field(R, limit=4096):
    if R.rank == 0 or R.base.q ** R.rank > limit or not R.commutative:
        return False
    for coeffs in itertools.product(list(R.base.elements()), repeat=R.rank):
        v = la.mat([[c] for c in coeffs], base=R.base)
        if not la.is_zero_mat(v) and la.rank(ref_left_mult(R, v), R.base) < R.rank:
            return False
    return True


def ref_twisted_table(R, order, theta):
    """(mult, unit) of the twisted group ring, or the ValueError message."""
    base, r, m = R.base, R.rank, order
    idm = la.eye(r, base)
    if not la.mat_eq(la.mmul(theta, R.unit, base), R.unit):
        return "theta must fix the unit"
    for i in range(r):
        ti = theta[:, i:i + 1].copy()
        for j in range(r):
            lhs = la.mmul(theta, R.product_of_basis(i, j), base)
            if not la.mat_eq(lhs, ref_multiply(R, ti, theta[:, j:j + 1].copy())):
                return "theta is not multiplicative"
    if not la.mat_eq(la.mpow(theta, m, base), idm):
        return "theta^order != id"
    rank = r * m
    th_pows = [idm]
    for _ in range(m - 1):
        th_pows.append(la.mmul(theta, th_pows[-1], base))
    mult = la.zeros(rank * rank, rank, base)
    for a in range(m):
        for i in range(r):
            Li = ref_left_mult(R, R.basis_vector(i))
            for b in range(m):
                c = (a + b) % m
                for j in range(r):
                    coeff = la.mmul(Li, th_pows[a][:, j:j + 1].copy(), base)
                    mult[(a * r + i) * rank + (b * r + j), c * r:(c + 1) * r] = coeff[:, 0]
    unit = la.zeros(rank, 1, base)
    unit[:r, :] = R.unit
    return mult, unit


def ref_quotient_ring(ring, proj, lift, out_base):
    """The table builder geometric fixed points and phi_ring used."""
    base, rank = ring.base, proj.shape[0]
    mult = la.zeros(rank * rank, rank, base)
    for i in range(rank):
        for j in range(rank):
            prod = ref_multiply(ring, lift[:, i:i + 1], lift[:, j:j + 1])
            mult[i * rank + j, :] = la.mmul(proj, prod, base)[:, 0]
    unit = la.mmul(proj, ring.unit, base)
    return BasedRing(out_base, rank, mult, unit, commutative=ring.commutative)


def ref_burnside_quotient_table(R, proj, lift):
    """The table builder burnside quotients used (integer rings)."""
    q = proj.shape[0]
    mult = la.zeros(q * q, q)
    for i in range(q):
        for j in range(q):
            mult[i * q + j, :] = la.mmul(proj, ref_multiply(R, lift[:, i:i + 1],
                                                           lift[:, j:j + 1]))[:, 0]
    return mult, la.mmul(proj, R.unit)


def ref_ideal_lattice(R, gens):
    cols = [ref_left_mult(R, g)[:, b:b + 1] for g in gens for b in range(R.rank)]
    return la.column_lattice_basis(la.hstack(cols) if cols else la.zeros(R.rank, 0))


# --- inputs ----------------------------------------------------------------------


def elem(base, i):
    return i - 2 if base is ZZ else base.element(i % min(base.q, 7))


def bump(A, i, j, base):
    """A copy of A with base.one added to entry (i, j)."""
    E = la.zeros(*A.shape, base)
    E[i, j] = base.one
    return la.add_scaled(A, E, 1, base)


def table_ring(base, rank, entries, unit_index=0, commutative=True):
    """A based ring from a flat list of structure-constant indices."""
    rows = [[elem(base, entries[(r * rank + c) % len(entries)]) for c in range(rank)]
            for r in range(rank * rank)]
    unit = la.zeros(rank, 1, base)
    unit[unit_index, 0] = base.one
    return BasedRing(base, rank, la.mat(rows, base=base), unit, commutative=commutative)


def poly_ring(base, r, c):
    """base[x] / (x^r - c) on 1, x, ..., x^(r-1): commutative and associative."""
    rows = []
    for i in range(r):
        for j in range(r):
            row = [0] * r
            row[(i + j) % r] = 1 if i + j < r else c
            rows.append(row)
    unit = la.zeros(r, 1, base)
    unit[0, 0] = base.one
    return BasedRing(base, r, la.mat(rows, base=base), unit)


def monic_quotient(base, f):
    """base[x] / (f) on 1, x, ..., x^(d-1), for the monic f of degree d given
    by its coefficient indices into the base's elements, lowest first."""
    d = len(f) - 1
    low = [base.element(c) for c in f[:d]]
    pows = [[base.one if i == k else base.zero for i in range(d)] for k in range(d)]
    for _ in range(d - 1):                       # x^k mod f for k < 2d - 1
        shifted = [base.zero] + pows[-1][:-1]
        pows.append([a - pows[-1][-1] * c for a, c in zip(shifted, low)])
    unit = la.zeros(d, 1, base)
    unit[0, 0] = base.one
    return BasedRing(base, d, la.mat([pows[i + j] for i in range(d) for j in range(d)],
                                     base=base), unit)


def product_ring(A, B):
    """A x B on the basis of A followed by that of B."""
    a, b = A.rank, B.rank
    n, base = a + b, A.base
    mult = la.zeros(n * n, n, base).reshape(n, n, n)
    mult[:a, :a, :a] = A.mult.reshape(a, a, a)
    mult[a:, a:, a:] = B.mult.reshape(b, b, b)
    return BasedRing(base, n, mult.reshape(n * n, n), la.vstack([A.unit, B.unit]))


def upper_triangular(base):
    """2 x 2 upper triangular matrices on e11, e12, e22: not commutative."""
    rows = [[0] * 3 for _ in range(9)]
    for (i, j), k in {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2}.items():
        rows[i * 3 + j][k] = 1
    unit = la.mat([[1], [0], [1]], base=base)
    return BasedRing(base, 3, la.mat(rows, base=base), unit, commutative=False)


@functools.lru_cache(maxsize=None)
def rings_over(base):
    out = [poly_ring(base, 1, 1), poly_ring(base, 2, 1), poly_ring(base, 3, 2),
           upper_triangular(base)]
    if base is ZZ:
        out += [burnside_ring(CyclicGroup(2, 2)), burnside_ring(CyclicGroup(3, 1))]
    return out


def z_with_unit_relations():
    """Z x Z on a C2-functor whose levels are Z^2 / (1, 0): ring maps are
    compared modulo a relation, so through solve_int."""
    G = CyclicGroup(2, 1)
    lv = FPModule(ZZ, 2, la.mat([[1], [0]]))
    ring = BasedRing(ZZ, 2, la.mat([[1, 0], [0, 0], [0, 0], [0, 1]]), la.mat([[1], [1]]))
    und = MackeyFunctor(G, ZZ, [lv, lv], [la.eye(2)], [la.scalar_mul(2, la.eye(2))],
                        [la.eye(2), la.eye(2)], name="ZxZ mod (1, 0)")
    return GreenFunctor(und, [ring, ring], name=und.name)


@functools.lru_cache(maxsize=None)
def greens_over(base):
    out = [constant_green(CyclicGroup(2, 2), base), constant_green(CyclicGroup(3, 1), base)]
    if base is ZZ:
        out += [burnside_green(CyclicGroup(2, 2)), burnside_green(CyclicGroup(3, 1)),
                z_with_unit_relations()]
    elif base is F2:
        out += [fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2)),
                fixed_point_green(CyclicGroup(2, 2), gf_make(2, 4)), char_example_green(2)]
    elif base is F5:
        out += [fixed_point_green(CyclicGroup(2, 1), gf_make(5, 2)), char_example_green(5)]
    return out


@functools.lru_cache(maxsize=None)
def modules_over(base):
    out = []
    for R in greens_over(base):
        out.append(module_from_green(R, name="regular"))
        if R.underlying.levels[0].relations.shape[1] == 0:
            out.append(direct_sum_green_modules([free_module(R, 0), free_module(R, R.n)]))
    if base is ZZ:
        G = CyclicGroup(2, 1)
        lv = FPModule(ZZ, 2, la.mat([[1], [0]]))
        U = MackeyFunctor(G, ZZ, [lv, lv], [la.eye(2)], [la.scalar_mul(2, la.eye(2))],
                          [la.eye(2), la.eye(2)])
        out.append(GreenModule(constant_green(G, ZZ), U, [[la.eye(2)], [la.eye(2)]]))
    return out


def same_report(got, want):
    assert got.subject == want.subject
    assert [(v.kind, v.where, v.detail) for v in got.violations] == \
        [(v.kind, v.where, v.detail) for v in want.violations]


def same_table(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and la.mat_eq(a, b)


def corrupt_green(R, kind, s, i, j):
    """R with one structure constant (kind "ring"), or one entry of res, tr
    or weyl, changed at level s (indices reduced into range)."""
    M, base = R.underlying, R.base
    n = M.n
    rings, maps = list(R.level_rings), {"res": list(M.res), "tr": list(M.tr),
                                         "weyl": list(M.weyl)}
    if kind == "ring":
        s %= n + 1
        ring = rings[s]
        mult = bump(ring.mult, i % ring.mult.shape[0], j % ring.rank, base)
        rings[s] = BasedRing(base, ring.rank, mult, ring.unit, ring.labels)
    else:
        A = maps[kind]
        s %= len(A)
        A[s] = bump(A[s], i % A[s].shape[0], j % A[s].shape[1], base)
    und = MackeyFunctor(M.group, base, M.levels, maps["res"], maps["tr"], maps["weyl"],
                        name=M.name)
    return GreenFunctor(und, rings, name=R.name)


# --- based rings -----------------------------------------------------------------


@pytest.mark.parametrize("name", list(BASES))
def test_valid_rings_check_as_before(name):
    base = BASES[name]
    for R in rings_over(base):
        same_report(based_ring_check(R), ref_based_ring_check(R))
        assert based_ring_check(R).ok


@SETTINGS
@given(name=st.sampled_from(list(BASES)), pick=st.integers(0, 5), i=st.integers(0, 80),
       j=st.integers(0, 8))
def test_one_changed_structure_constant_reports_as_before(name, pick, i, j):
    base = BASES[name]
    rings = rings_over(base)
    R = rings[pick % len(rings)]
    mult = bump(R.mult, i % R.mult.shape[0], j % R.rank, base)
    broken = BasedRing(base, R.rank, mult, R.unit, commutative=R.commutative)
    same_report(based_ring_check(broken), ref_based_ring_check(broken))


@SETTINGS
@given(name=st.sampled_from(list(BASES)), rank=st.integers(1, 3),
       entries=st.lists(st.integers(0, 6), min_size=1, max_size=27),
       unit_index=st.integers(0, 2), commutative=st.booleans())
def test_random_tables_report_as_before(name, rank, entries, unit_index, commutative):
    R = table_ring(BASES[name], rank, entries, unit_index % rank, commutative)
    same_report(based_ring_check(R), ref_based_ring_check(R))


@SETTINGS
@given(name=st.sampled_from(list(BASES)), pick=st.integers(0, 5),
       coeffs=st.lists(st.integers(0, 6), min_size=6, max_size=6))
def test_products_and_left_multiplication_match_the_pairwise_loop(name, pick, coeffs):
    base = BASES[name]
    rings = rings_over(base)
    R = rings[pick % len(rings)]
    r = R.rank
    X = la.mat([[elem(base, coeffs[(a + b) % 6]) for b in range(2)] for a in range(r)],
               base=base)
    Y = la.mat([[elem(base, coeffs[(a * 2 + b) % 6]) for b in range(3)] for a in range(r)],
               base=base)
    P = R.products(X, Y)
    for a in range(2):
        for b in range(3):
            assert la.mat_eq(P[:, a * 3 + b:a * 3 + b + 1],
                             ref_multiply(R, X[:, a:a + 1], Y[:, b:b + 1]))
        same_table(R.left_mult_matrices(X)[a], ref_left_mult(R, X[:, a:a + 1]))


@pytest.mark.parametrize("name", ["F2", "F5", "GF4"])
def test_ring_is_field_as_before(name):
    base = BASES[name]
    rings = rings_over(base) + [poly_ring(base, 2, c) for c in range(1, 5)] + \
        [poly_ring(base, 3, c) for c in range(1, 4)] + \
        [table_ring(base, 2, [1, 0, 0, 1, 0, 1, 1, 1])]
    rings += [G.ring(s) for G in greens_over(base) for s in range(G.n + 1)]
    got = [ring_is_field(R) for R in rings]
    assert got == [ref_ring_is_field(R) for R in rings]
    assert any(got) and not all(got)


FIELD_TEST_BASES = {2: F2, 3: gf_make(3, 1), 4: GF4, 5: F5}


@st.composite
def monic_polys(draw, q, most):
    """Coefficient indices of a monic polynomial over F_q of degree 1..most."""
    d = draw(st.integers(1, most))
    return draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d)) + [1]


@st.composite
def quotient_rings(draw):
    """F_q[x]/(f), or a product of two such rings, with at most 4096 elements."""
    q = draw(st.sampled_from(sorted(FIELD_TEST_BASES)))
    top = next(d for d in range(13, 0, -1) if q ** d <= 4096)
    f = draw(monic_polys(q, top))
    base = FIELD_TEST_BASES[q]
    if len(f) - 1 == top or not draw(st.booleans()):
        return monic_quotient(base, f)
    g = draw(monic_polys(q, top - (len(f) - 1)))
    return product_ring(monic_quotient(base, f), monic_quotient(base, g))


@settings(max_examples=40, deadline=timedelta(seconds=2), derandomize=True, database=None)
@given(R=quotient_rings())
def test_frobenius_field_test_agrees_with_the_listing(R):
    # the listing of up to 4096 elements dominates the deadline; the
    # Frobenius test takes about a millisecond
    assert ring_is_field(R) == ref_ring_is_field(R)


def test_fields_and_non_fields_past_the_old_listing_cap():
    F3 = FIELD_TEST_BASES[3]
    levels = fixed_point_green(CyclicGroup(3, 2), gf_make(3, 9)).level_rings
    assert [R.rank for R in levels] == [9, 3, 1]
    assert all(ring_is_field(R) for R in levels)
    # F_3[x]/(x^9): x is nilpotent, so the Frobenius is not injective
    assert not ring_is_field(poly_ring(F3, 9, 0))
    # F_2[x]/(f g) = F_64 x F_128 is reduced, but fixes F_2 x F_2
    f, g = [1, 1, 0, 0, 0, 0, 1], [1, 1, 0, 0, 0, 0, 0, 1]   # x^6 + x + 1, x^7 + x + 1
    for h in (f, g):
        assert ring_is_field(monic_quotient(F2, h))
    assert not ring_is_field(monic_quotient(F2, poly_mul(f, g, 2)))


@pytest.mark.parametrize("name", list(BASES))
def test_blocked_stacks_report_as_before(name, monkeypatch):
    # a stack budget this small splits every product and every associativity
    # contraction into blocks of one slice
    monkeypatch.setattr(rings_mod, "_STACK_ENTRIES", 8)
    base = BASES[name]
    for R in rings_over(base):
        for i in range(R.mult.shape[0]):
            broken = BasedRing(base, R.rank, bump(R.mult, i, i % R.rank, base), R.unit,
                               commutative=R.commutative)
            same_report(based_ring_check(broken), ref_based_ring_check(broken))
    for G in greens_over(base):
        for kind in ("ring", "res", "weyl"):
            R = corrupt_green(G, kind, 1, 1, 0)
            same_report(check_green(R), ref_check_green(R))


@pytest.mark.parametrize("name", ["F2", "F5"])
def test_large_rank_ring_laws_in_blocks(name, monkeypatch):
    # rank 40: n^3 = 64,000 entries per slice, so associativity runs in
    # blocks of 16 values of i and products(A, A) in blocks of 16 columns;
    # the reports equal those of one unblocked contraction
    base = BASES[name]
    R = poly_ring(base, 40, 1)
    broken = BasedRing(base, 40, bump(R.mult, 41 * 17, 3, base), R.unit)
    A = bump(la.eye(40, base), 5, 33, base)
    level = FPModule(base, 40)

    def reports():
        rep = CheckReport("map")
        _ring_map_into(rep, "ring", "A", A, R, R, level)
        return based_ring_check(R), based_ring_check(broken), rep

    blocked = reports()
    monkeypatch.setattr(rings_mod, "_STACK_ENTRIES", 1 << 40)
    whole = reports()
    assert blocked[0].ok and not blocked[1].ok and not blocked[2].ok
    for got, want in zip(blocked, whole):
        same_report(got, want)


# --- green functors and ring maps --------------------------------------------------


@pytest.mark.parametrize("name", list(BASES))
def test_valid_green_functors_check_as_before(name):
    for R in greens_over(BASES[name]):
        same_report(check_green(R), ref_check_green(R))
        assert check_green(R).ok


@SETTINGS
@given(name=st.sampled_from(list(BASES)), pick=st.integers(0, 5),
       kind=st.sampled_from(["ring", "res", "tr", "weyl"]), s=st.integers(0, 3),
       i=st.integers(0, 40), j=st.integers(0, 8))
def test_corrupted_green_functors_report_as_before(name, pick, kind, s, i, j):
    greens = greens_over(BASES[name])
    R = corrupt_green(greens[pick % len(greens)], kind, s, i, j)
    same_report(check_green(R), ref_check_green(R))


def test_non_multiplicative_res_modulo_relations():
    # res(e0) = e0 + e1 breaks e0 * e1 = 0 modulo the relation e0 = 0; the
    # bump at (0, 1) changes res only inside the relation span
    R = z_with_unit_relations()
    for i, j, ok in [(1, 0, False), (0, 1, True)]:
        bad = corrupt_green(R, "res", 0, i, j)
        same_report(check_green(bad), ref_check_green(bad))
        assert check_green(bad).ok == ok


@SETTINGS
@given(name=st.sampled_from(list(BASES)), pick=st.integers(0, 5), s=st.integers(0, 3),
       i=st.integers(0, 8), j=st.integers(0, 8), corrupt=st.booleans())
def test_green_morphisms_check_as_before(name, pick, s, i, j, corrupt):
    greens = greens_over(BASES[name])
    R = greens[pick % len(greens)]
    comps = [la.eye(R.ring(t).rank, R.base) for t in range(R.n + 1)]
    if corrupt:
        s %= R.n + 1
        comps[s] = bump(comps[s], i % comps[s].shape[0], j % comps[s].shape[1], R.base)
    f = GreenMorphism(R, R, comps)
    same_report(f.check(), ref_green_morphism_check(f))
    assert f.check().ok or corrupt


# --- green modules -------------------------------------------------------------------


@pytest.mark.parametrize("name", list(BASES))
def test_valid_modules_check_as_before(name):
    for M in modules_over(BASES[name]):
        same_report(check_green_module(M), ref_check_green_module(M))
        assert check_green_module(M).ok


@SETTINGS
@given(name=st.sampled_from(list(BASES)), pick=st.integers(0, 9), s=st.integers(0, 3),
       u=st.integers(0, 8), i=st.integers(0, 20), j=st.integers(0, 20))
def test_one_perturbed_action_matrix_reports_as_before(name, pick, s, u, i, j):
    mods = modules_over(BASES[name])
    M = mods[pick % len(mods)]
    s %= M.n + 1
    action = [list(mats) for mats in M.action]
    if action[s]:
        u %= len(action[s])
        A = action[s][u]
        if A.size:
            action[s][u] = bump(A, i % A.shape[0], j % A.shape[1], M.base)
    bad = GreenModule(M.ring, M.underlying, action, name="perturbed")
    same_report(check_green_module(bad), ref_check_green_module(bad))


@SETTINGS
@given(name=st.sampled_from(list(BASES)), pick=st.integers(0, 9), s=st.integers(0, 3),
       i=st.integers(0, 20), j=st.integers(0, 20), corrupt=st.booleans())
def test_module_morphisms_check_as_before(name, pick, s, i, j, corrupt):
    mods = modules_over(BASES[name])
    M = mods[pick % len(mods)]
    comps = [la.eye(g, M.base) for g in M.level_dims()]
    if corrupt:
        s %= M.n + 1
        if comps[s].size:
            comps[s] = bump(comps[s], i % comps[s].shape[0], j % comps[s].shape[1], M.base)
    g = GreenModuleMorphism(M, M, comps)
    same_report(g.check(), ref_module_morphism_check(g))


@pytest.mark.parametrize("name", ["F2", "F5", "GF4"])
def test_hom_basis_maps_check_as_before(name):
    for M in modules_over(BASES[name])[:3]:
        for g in green_module_hom_basis(M, M):
            same_report(g.check(), ref_module_morphism_check(g))
            assert g.check().ok


# --- tables: twisted group rings and quotients ---------------------------------------


@functools.lru_cache(maxsize=None)
def twisting_inputs(base):
    out = []
    for G in greens_over(base):
        for s in range(G.n + 1):
            out.append((G.ring(s), G.p ** (G.n - s), G.underlying.weyl[s]))
    for R in rings_over(base):
        out.append((R, 2, la.eye(R.rank, base)))
    return out


@pytest.mark.parametrize("name", list(BASES))
def test_twisted_tables_as_before(name):
    for R, order, theta in twisting_inputs(BASES[name]):
        mult, unit = ref_twisted_table(R, order, theta)
        T = twisted_group_ring(R, order, theta)
        same_table(T.ring.mult, mult)
        same_table(T.ring.unit, unit)


@SETTINGS
@given(name=st.sampled_from(list(BASES)), pick=st.integers(0, 20), i=st.integers(0, 8),
       j=st.integers(0, 8))
def test_changed_theta_is_refused_as_before(name, pick, i, j):
    inputs = twisting_inputs(BASES[name])
    R, order, theta = inputs[pick % len(inputs)]
    theta = bump(theta, i % R.rank, j % R.rank, R.base)
    want = ref_twisted_table(R, order, theta)
    if isinstance(want, str):
        with pytest.raises(ValueError) as err:
            twisted_group_ring(R, order, theta)
        assert str(err.value) == want
    else:
        T = twisted_group_ring(R, order, theta)
        same_table(T.ring.mult, want[0])


@pytest.mark.parametrize("name", list(BASES))
def test_quotient_rings_as_before(name):
    base = BASES[name]
    cases = 0
    for G in greens_over(base):
        for m in range(1, G.n + 1):
            ring = G.ring(m)
            Q, proj, lift = reduced_quotient(base, ring.rank, G.underlying.tr[m - 1])
            outs = [base] + ([gf_make(G.p, 1)] if base is ZZ else [])
            for out in outs:
                got, want = quotient_ring(ring, proj, lift, out), \
                    ref_quotient_ring(ring, proj, lift, out)
                same_table(got.mult, want.mult)
                same_table(got.unit, want.unit)
                cases += 1
    assert cases


@pytest.mark.parametrize("p,n,r", [(2, 1, 0), (2, 1, 1), (2, 2, 0), (2, 2, 1), (3, 2, 1),
                                   (2, 3, 1), (2, 3, 2)])
def test_burnside_quotients_as_before(p, n, r):
    res = k0_free_fixed_point(p, n, r)
    R = burnside_ring(CyclicGroup(p, n))
    mult, unit = ref_burnside_quotient_table(R, res.projection, res.lift)
    same_table(res.ring.mult, mult)
    same_table(res.ring.unit, unit)
    gens = []
    for s in range(r, n):
        col = la.zeros(R.rank, 1)
        col[s, 0], col[n, 0] = 1, -(p ** (n - s))
        gens.append(col)
    same_table(ideal_lattice(R, gens), ref_ideal_lattice(R, gens))


# --- many stages -------------------------------------------------------------------
#
# With n stages the checks compute n adjacent double-coset instances and n
# adjacent projection-formula pairs, and walk the pairs of levels further
# apart only when the report already has a violation.  The inputs above stop
# at two stages, where one such pair exists; these have three to five.


@functools.lru_cache(maxsize=None)
def many_stage_greens():
    return [constant_green(CyclicGroup(2, 3), ZZ), constant_green(CyclicGroup(2, 5), F2),
            constant_green(CyclicGroup(2, 4), F5), burnside_green(CyclicGroup(2, 3)),
            constant_green(CyclicGroup(2, 3), GF4),
            fixed_point_green(CyclicGroup(2, 3), gf_make(2, 8))]


@functools.lru_cache(maxsize=None)
def many_stage_modules():
    greens = many_stage_greens()
    out = [module_from_green(R, name="regular") for R in greens]
    out.append(direct_sum_green_modules([free_module(greens[0], 0), free_module(greens[0], 2)]))
    return out


def corrupt_module(M, kind, s, u, i, j):
    """M with one entry of an action matrix (kind "action"), or of one res,
    tr or Weyl map of its underlying functor, changed (indices reduced into
    range)."""
    und, base = M.underlying, M.base
    action = [list(mats) for mats in M.action]
    maps = {"res": list(und.res), "tr": list(und.tr), "weyl": list(und.weyl)}
    if kind == "action":
        s %= len(action)
        if not action[s]:
            return M
        u %= len(action[s])
        A = action[s][u]
        if A.size:
            action[s][u] = bump(A, i % A.shape[0], j % A.shape[1], base)
    else:
        A = maps[kind]
        s %= len(A)
        if A[s].size:
            A[s] = bump(A[s], i % A[s].shape[0], j % A[s].shape[1], base)
    und = MackeyFunctor(und.group, base, und.levels, maps["res"], maps["tr"], maps["weyl"],
                        name=und.name)
    return GreenModule(M.ring, und, action, name="perturbed")


def test_many_stage_inputs_check_as_before():
    for R in many_stage_greens():
        same_report(check_axioms(R.underlying), ref_check_axioms(R.underlying))
        same_report(check_green(R), ref_check_green(R))
        assert check_green(R).ok
    for M in many_stage_modules():
        same_report(check_green_module(M), ref_check_green_module(M))
        assert check_green_module(M).ok


@pytest.mark.parametrize("pick", [1, 3])
def test_one_changed_entry_at_every_stage_reports_as_before(pick):
    R = many_stage_greens()[pick]
    for kind, count in [("res", R.n), ("tr", R.n), ("weyl", R.n + 1), ("ring", R.n + 1)]:
        for s in range(count):
            bad = corrupt_green(R, kind, s, 0, 0)
            got = check_green(bad)
            same_report(got, ref_check_green(bad))
            same_report(check_axioms(bad.underlying), ref_check_axioms(bad.underlying))
            assert not got.ok


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(pick=st.integers(0, 5), kind=st.sampled_from(["ring", "res", "tr", "weyl"]),
       s=st.integers(0, 5), i=st.integers(0, 63), j=st.integers(0, 8))
def test_corrupted_many_stage_green_functors_report_as_before(pick, kind, s, i, j):
    bad = corrupt_green(many_stage_greens()[pick], kind, s, i, j)
    same_report(check_green(bad), ref_check_green(bad))
    same_report(check_axioms(bad.underlying), ref_check_axioms(bad.underlying))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(pick=st.integers(0, 6), kind=st.sampled_from(["action", "res", "tr", "weyl"]),
       s=st.integers(0, 5), u=st.integers(0, 8), i=st.integers(0, 20), j=st.integers(0, 20))
def test_corrupted_many_stage_modules_report_as_before(pick, kind, s, u, i, j):
    bad = corrupt_module(many_stage_modules()[pick], kind, s, u, i, j)
    same_report(check_green_module(bad), ref_check_green_module(bad))


def test_check_prints_the_reference_failures_of_a_corrupted_document(tmp_path, capsys):
    # tr_1 of constant F_2 over C_16 set to 1: the double coset fails at
    # level 1 and, non-adjacent, at the pair of levels 0 < 1
    text = print_document(constant_green(CyclicGroup(2, 4), F2))
    lines = text.splitlines()
    at = lines.index("tr 1 rows 1 cols 1") + 1
    lines[at] = "1"
    path = tmp_path / "bad.doc"
    path.write_text("\n".join(lines) + "\n")
    want = ref_check_green(parse_document(path.read_text()))
    assert cli.main(["check", str(path)]) == 1
    assert ("double-coset", "levels 0<1") in [(v.kind, v.where) for v in want.violations]
    assert capsys.readouterr().out.splitlines() == \
        [f"{path}: FAIL"] + [f"fail: {line.strip()}" for line in want.lines()[1:]]


@pytest.mark.parametrize("n", [8, 16])
def test_checks_do_linear_work_in_the_stages(n, monkeypatch):
    # n power sums (one per adjacent double coset) and at most 6n + 3 ring
    # products: two per distinct level table, one per res and Weyl ring map
    # and two per adjacent projection-formula pair; all pairs would take n(n + 1)
    R = constant_green(CyclicGroup(2, n), F2)
    calls = collections.Counter()
    power_sum, products = la.power_sum, BasedRing.products

    def counted_power_sum(*args, **kwargs):
        calls["power_sum"] += 1
        return power_sum(*args, **kwargs)

    def counted_products(self, X, Y):
        calls["products"] += 1
        return products(self, X, Y)

    monkeypatch.setattr(la, "power_sum", counted_power_sum)
    monkeypatch.setattr(BasedRing, "products", counted_products)
    assert check_axioms(R.underlying).ok
    assert calls["power_sum"] == n
    calls.clear()
    assert check_green(R).ok
    assert calls["products"] <= 6 * n + 3
