"""Green functors: Mackey functors whose levels are commutative rings.

Restrictions and the Weyl action are ring maps, transfers satisfy the
projection formula tr(x . res y) = tr(x) . y.  Modules over a green
functor carry a levelwise action subject to the same compatibilities.
This module also provides twisted group algebras of the level rings,
box products, and base change of modules along a ring map at any height.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import linalg as la
from .fields import gf_make
from .gsets import CyclicGroup
from .linalg import ZZ
from .mackey import (MackeyFunctor, MackeyMorphism, burnside_mackey,
                     check_axioms, constant_mackey, direct_sum, fixed_point_mackey,
                     hom_basis, maps_from_images, pushed, restricted, spanned)
from .modules import FPModule, reduced_quotient
from .report import CheckReport
from .rings import BasedRing, based_ring_check, ring_is_field


def tensor_modules(A: FPModule, B: FPModule) -> FPModule:
    """Tensor product of presented modules; generator (i, j) is i*B.gens + j."""
    base = A.base
    if B.base != base:
        raise ValueError(f"tensor product of modules over {base!r} and {B.base!r}")
    rel = la.hstack([la.kron(A.relations, la.eye(B.gens, base), base),
                     la.kron(la.eye(A.gens, base), B.relations, base)])
    return FPModule(base, A.gens * B.gens, rel)


class _OnUnderlying:
    """What a Green functor and a Green module read off their underlying
    Mackey functor."""

    group = property(lambda self: self.underlying.group)
    base = property(lambda self: self.underlying.base)
    n = property(lambda self: self.underlying.n)
    p = property(lambda self: self.underlying.p)

    def level_dims(self) -> tuple:
        return self.underlying.level_dims()


class GreenFunctor(_OnUnderlying):
    """A Mackey functor together with a based ring on each level."""

    def __init__(self, underlying: MackeyFunctor, level_rings, name: str = ""):
        if len(level_rings) != underlying.n + 1:
            raise ValueError(f"{len(level_rings)} level rings for {underlying.n + 1} levels")
        for s, ring in enumerate(level_rings):
            if ring.rank != underlying.levels[s].gens or ring.base != underlying.base:
                raise ValueError(f"ring rank or base at level {s}")
            if not underlying.levels[s].is_free:
                raise ValueError("levels of a green functor must be free")
        self.underlying = underlying
        self.level_rings = list(level_rings)
        self.name = name or underlying.name
        # the free modules on one generator, by level, and their dimension
        # matrix: functors.free_module and kzero.dim_matrix build each once
        # and keep it here
        self.free_modules = {}
        self.dim_matrix = None

    def ring(self, s: int) -> BasedRing:
        return self.level_rings[s]

    def is_meadow(self) -> bool:
        """Whether every level ring is a field: the paper's Green meadow, the
        setting of `kzero`'s free-module classes.  False over Z; over a finite
        field each level ring goes through the Frobenius test of
        `ring_is_field`, at any size."""
        if self.base is ZZ:
            return False
        return all(ring_is_field(r) for r in self.level_rings)

    def describe(self) -> str:
        label = self.name or "green functor"
        return f"{label} {self.level_dims()}"

    def __repr__(self):
        return f"GreenFunctor({self.describe()})"


def _failing(level, lhs, rhs, count):
    """Indices of the `count` equal-width column blocks in which lhs and rhs
    differ as maps into level, in order.  The whole stack is compared once;
    only when that fails is it walked block by block to name the blocks."""
    if level.maps_equal(lhs, rhs):
        return []
    w = lhs.shape[1] // count
    return [u for u in range(count)
            if not level.maps_equal(lhs[:, u * w:(u + 1) * w], rhs[:, u * w:(u + 1) * w])]


def _stack(mats, g, base):
    """The (len(mats), g, g) stack of the g x g matrices mats, in the form of base."""
    return np.stack(mats) if mats else la.zeros(0, g * g, base).reshape(0, g, g)


def _hcat(S):
    """The (c, g, h) stack S as one g x (c * h) matrix, block u = S[u]."""
    c, g, h = S.shape
    return S.transpose(1, 0, 2).reshape(g, c * h)


def _right(S, B, base):
    """S[u] @ B for every matrix of the stack S, as one _hcat matrix."""
    c, g, h = S.shape
    return _hcat(la.mmul(S.reshape(c * g, h), B, base).reshape(c, g, B.shape[1]))


def _ring_map_into(rep, kind, where, A, src: BasedRing, dst: BasedRing, target_level):
    """Add a violation for each law of a unital ring map that A breaks."""
    if not target_level.maps_equal(la.mmul(A, src.unit, dst.base), dst.unit):
        rep.add(kind, where, "does not preserve the unit")
    r = src.rank
    # column i * r + j: A(e_i e_j) against A(e_i) A(e_j)
    for c in _failing(target_level, la.mmul(A, src.mult.T, dst.base), dst.products(A, A), r * r):
        rep.add(kind, f"{where}: e{c // r}*e{c % r}", "not multiplicative")


def check_green(R: GreenFunctor) -> CheckReport:
    """Mackey axioms, ring laws per level, res/weyl ring maps, projection formula.

    `based_ring_check` runs once per distinct level table (mult, unit and
    the commutativity claim, compared by `la.mat_eq`); its violations are
    added under the label of every level that has the table.

    The projection formula tr(x . res y) = tr(x) . y is computed on the n
    adjacent pairs of levels (s, s + 1) only.  The pairs (s, t) with
    t > s + 1 follow from them once the report is ok (tr well defined
    included), so they are walked, in their old order, only when it is not.
    The argument, by induction on t, with Tr^t_s = tr_(t-1) Tr^(t-1)_s and
    Res^t_s = Res^(t-1)_s res_(t-1) and every equality modulo the relations
    of the level it lives in: both sides are bilinear, so the basis pairs
    give the formula for all x and y.  With y' = res_(t-1)(y) and
    x' = Tr^(t-1)_s(x), the pair (s, t - 1) gives
    Tr^(t-1)_s(x . Res^t_s y) = x' . y', and tr_(t-1), which maps
    relations into relations, carries that to level t; then the pair
    (t - 1, t) gives tr_(t-1)(x' . res_(t-1) y) = tr_(t-1)(x') . y, which is
    Tr^t_s(x) . y.  The check's work is n pairs, not n(n + 1) / 2."""
    M = R.underlying
    base, n = M.base, M.n
    rep = CheckReport(R.name or "green functor").merged(check_axioms(M))
    checked = []                                # (ring, its report) per distinct table
    for s in range(n + 1):
        ring = R.ring(s)
        if not ring.commutative:
            rep.add("commutativity", f"level {s}", "green levels must be commutative")
        sub = next((sub for seen, sub in checked
                    if seen.commutative == ring.commutative and la.mat_eq(seen.mult, ring.mult)
                    and la.mat_eq(seen.unit, ring.unit)), None)
        if sub is None:
            sub = based_ring_check(ring)
            checked.append((ring, sub))
        for v in sub.violations:
            rep.add(v.kind, f"level {s}: {v.where}", v.detail)
    for s in range(n):
        _ring_map_into(rep, "res-ring", f"res_{s}", M.res[s],
                       R.ring(s + 1), R.ring(s), M.levels[s])
    for s in range(n + 1):
        _ring_map_into(rep, "weyl-ring", f"weyl_{s}", M.weyl[s],
                       R.ring(s), R.ring(s), M.levels[s])

    def failing(s, t, trc, resc):
        # column x * rank_t + y of two stacked products
        Rs, Rt = R.ring(s), R.ring(t)
        lhs = Rt.products(trc, la.eye(Rt.rank, base))
        rhs = la.mmul(trc, Rs.products(la.eye(Rs.rank, base), resc), base)
        return _failing(M.levels[t], lhs, rhs, Rs.rank * Rt.rank)

    if rep.ok and not any(failing(s, s + 1, M.tr[s], M.res[s]) for s in range(n)):
        return rep
    for s in range(n + 1):
        trc = la.eye(M.levels[s].gens, base)
        resc = trc
        for t in range(s + 1, n + 1):
            trc = la.mmul(M.tr[t - 1], trc, base)
            resc = la.mmul(resc, M.res[t - 1], base)
            for c in failing(s, t, trc, resc):
                x, y = divmod(c, R.ring(t).rank)
                rep.add("frobenius", f"levels {s}->{t}",
                        f"tr(e{x} . res(e{y})) != tr(e{x}) . e{y}")
    return rep


class GreenMorphism:
    """Levelwise ring maps forming a map of the underlying Mackey functors."""

    def __init__(self, source: GreenFunctor, target: GreenFunctor, components):
        self.source = source
        self.target = target
        # shape checks and coercion via the underlying morphism
        self._mackey = MackeyMorphism(source.underlying, target.underlying, components)
        self.components = self._mackey.components

    def check(self) -> CheckReport:
        rep = CheckReport("green morphism").merged(self._mackey.check())
        for s in range(self.source.n + 1):
            _ring_map_into(rep, "ring-map", f"level {s}", self.components[s],
                           self.source.ring(s), self.target.ring(s),
                           self.target.underlying.levels[s])
        return rep

    def __repr__(self):
        return f"GreenMorphism({self.source.describe()} -> {self.target.describe()})"


# --- modules over a green functor ---------------------------------------------


class GreenModule(_OnUnderlying):
    """A Mackey functor with an action of a green functor R.

    action[s] is a (rank, g, g) array, the stack of the matrices by which
    the basis elements of R(level s) act on level s of the underlying
    functor: action[s][u] is the matrix of the u-th one.  The constructor
    takes any sequence of g x g matrices per level.
    """

    def __init__(self, ring: GreenFunctor, underlying: MackeyFunctor, action, name: str = ""):
        if underlying.group != ring.group or underlying.base != ring.base:
            raise ValueError("module and ring over different groups or bases")
        if len(action) != underlying.n + 1:
            raise ValueError(f"actions on {len(action)} levels, expected {underlying.n + 1}")
        for s, mats in enumerate(action):
            g = underlying.levels[s].gens
            if len(mats) != ring.ring(s).rank or any(A.shape != (g, g) for A in mats):
                raise ValueError(f"action rank or shape at level {s}")
        self._fill(ring, underlying,
                   [la.coerce(np.array(mats).reshape(len(mats), lev.gens, lev.gens),
                              underlying.base) for mats, lev in zip(action, underlying.levels)],
                   name)

    @classmethod
    def at_rest(cls, ring, underlying, action, name: str = ""):
        """The module with action[s] the (rank, g, g) stack of level s,
        already of the right shapes and in the base's form, as the library's
        own constructions build it: no checks, no conversion.  Callers with
        any other action use the constructor."""
        M = cls.__new__(cls)
        M._fill(ring, underlying, list(action), name)
        return M

    def _fill(self, ring, underlying, action, name):
        self.ring = ring
        self.underlying = underlying
        self.action = action
        self.name = name
        # the levels of the free summands F_i of a module built as a sum of
        # them by free_module and direct_sum_green_modules, in order; else None
        self.free_levels = None

    def action_matrices(self, s: int, X):
        """(c, g, g) stack of the matrices on level s of the ring elements
        whose coefficient columns are the c columns of X: one product."""
        S = self.action[s]
        r, g = S.shape[0], S.shape[1]
        return la.mmul(X.T, S.reshape(r, g * g), self.base).reshape(X.shape[1], g, g)

    def describe(self) -> str:
        label = self.name or "green module"
        return f"{label} {self.level_dims()} over {self.ring.name or 'R'}"

    def __repr__(self):
        return f"GreenModule({self.describe()})"


def check_green_module(M: GreenModule) -> CheckReport:
    """Mackey axioms plus unitality, multiplicativity, res/weyl semilinearity
    and both projection formulas for the action, each compared once over
    the stacked basis elements (see `_failing`)."""
    R, und = M.ring, M.underlying
    base, n = und.base, und.n
    rep = CheckReport(M.name or "green module").merged(check_axioms(und))
    for s in range(n + 1):
        ring, lev = R.ring(s), und.levels[s]
        A, r, g = M.action[s], ring.rank, lev.gens
        if lev.relations.shape[1]:
            moved = _right(A, lev.relations, base)
            for u in _failing(lev, moved, la.zeros(g, moved.shape[1], base), r):
                rep.add("action", f"level {s}: e{u}",
                        "action does not preserve the relations")
        if not lev.maps_equal(M.action_matrices(s, ring.unit)[0], la.eye(g, base)):
            rep.add("unit", f"level {s}", "unit does not act as the identity")
        # block u * r + v: A_u A_v against the action of e_u e_v
        pairs = la.mmul(A.reshape(r * g, g), _hcat(A), base)
        pairs = pairs.reshape(r, g, r, g).transpose(0, 2, 1, 3).reshape(r * r, g, g)
        for c in _failing(lev, _hcat(pairs), _hcat(M.action_matrices(s, ring.mult.T)), r * r):
            rep.add("action", f"level {s}: e{c // r}*e{c % r}", "action not multiplicative")
    for s in range(n):
        res, tr, lo, hi = und.res[s], und.tr[s], und.levels[s], und.levels[s + 1]
        rt, rs = R.ring(s + 1).rank, R.ring(s).rank
        A0, A1 = M.action[s], M.action[s + 1]
        down = M.action_matrices(s, R.underlying.res[s])          # res(e_u) on level s
        bad_res = _failing(lo, la.mmul(res, _hcat(A1), base), _right(down, res, base), rt)
        bad_tr = _failing(hi, _right(A1, tr, base), la.mmul(tr, _hcat(down), base), rt)
        for u in range(rt):
            if u in bad_res:
                rep.add("res-linearity", f"level {s + 1}: e{u}",
                        "res(r.m) != res(r).res(m)")
            if u in bad_tr:
                rep.add("frobenius", f"levels {s}->{s + 1}: e{u}.tr",
                        "r.tr(m) != tr(res(r).m)")
        up = _hcat(M.action_matrices(s + 1, R.underlying.tr[s]))  # tr(e_x) on level s + 1
        for x in _failing(hi, up, la.mmul(tr, _right(A0, res, base), base), rs):
            rep.add("frobenius", f"levels {s}->{s + 1}: tr(e{x})",
                    "tr(x).m != tr(x.res(m))")
    for s in range(n + 1):
        w, A = und.weyl[s], M.action[s]
        twisted = _right(M.action_matrices(s, R.underlying.weyl[s]), w, base)
        for u in _failing(und.levels[s], la.mmul(w, _hcat(A), base), twisted, len(A)):
            rep.add("weyl", f"level {s}: e{u}", "weyl action not semilinear")
    return rep


def module_from_green(R: GreenFunctor, name: str = "") -> GreenModule:
    """R as a module over itself by left multiplication."""
    action = [r.left_mult_matrices(la.eye(r.rank, R.base)) for r in R.level_rings]
    return GreenModule(R, R.underlying, action, name=name or R.name)


def direct_sum_green_modules(mods) -> GreenModule:
    if not mods:
        raise ValueError("empty direct sum")
    R = mods[0].ring
    if any(m.ring is not R for m in mods[1:]):
        raise ValueError("summands over different rings")
    und = direct_sum([m.underlying for m in mods])
    action = []
    for s in range(R.n + 1):
        r, g, at = R.ring(s).rank, und.levels[s].gens, 0
        A = la.zeros(r * g, g, R.base).reshape(r, g, g)
        for m in mods:
            d = m.underlying.levels[s].gens
            A[:, at:at + d, at:at + d] = m.action[s]
            at += d
        action.append(A)
    name = " + ".join(m.name for m in mods if m.name)
    out = GreenModule.at_rest(R, und, action, name=name)
    if all(m.free_levels is not None for m in mods):
        out.free_levels = sum((m.free_levels for m in mods), ())
    return out


class GreenModuleMorphism:
    """Levelwise maps commuting with res/tr/weyl and with the ring action.

    components is the list of level matrices, or a MackeyMorphism between
    the underlying functors, which is kept as it is."""

    def __init__(self, source: GreenModule, target: GreenModule, components):
        if not (source.ring is target.ring or source.ring.describe() == target.ring.describe()):
            raise ValueError("module morphism between modules over different rings")
        self.source = source
        self.target = target
        if isinstance(components, MackeyMorphism):
            if components.source is not source.underlying or \
                    components.target is not target.underlying:
                raise ValueError("the map is not between the modules' underlying functors")
            self._mackey = components
        else:
            self._mackey = MackeyMorphism(source.underlying, target.underlying, components)
        self.components = self._mackey.components

    def check(self) -> CheckReport:
        rep = CheckReport("green module morphism").merged(self._mackey.check())
        base = self.source.base
        for s in range(self.source.n + 1):
            f, A = self.components[s], self.source.action[s]
            lhs = la.mmul(f, _hcat(A), base)
            rhs = _right(self.target.action[s], f, base)
            for u in _failing(self.target.underlying.levels[s], lhs, rhs, len(A)):
                rep.add("linearity", f"level {s}: e{u}", "not module-linear")
        return rep

    def is_level_iso(self) -> bool:
        return self._mackey.is_level_iso()

    def compose(self, other: "GreenModuleMorphism") -> "GreenModuleMorphism":
        comps = [la.mmul(f, g, self.source.base)
                 for f, g in zip(self.components, other.components)]
        return GreenModuleMorphism(other.source, self.target, comps)

    def __repr__(self):
        dims = " ".join(f"{f.shape[1]}->{f.shape[0]}" for f in self.components)
        return f"GreenModuleMorphism({dims})"


def green_module_from_invariant_span(M: GreenModule, spans):
    """Submodule spanned levelwise by the given columns (field base).

    The spans must be closed under res, tr, weyl and the ring action;
    returns (submodule, inclusion) and raises ValueError on a span that
    is not closed.
    """
    base = M.base
    if base is ZZ:
        raise ValueError("invariant spans are only supported over a field")
    incl = [la.column_space_basis(spans[s], base) for s in range(M.n + 1)]
    sub_und = spanned(M.underlying, incl, (M.name + " sub") if M.name else "submodule")
    action = [_stack([restricted(A, incl[s], incl[s], base, f"the ring action at level {s}")
                      for A in M.action[s]], incl[s].shape[1], base) for s in range(M.n + 1)]
    sub = GreenModule.at_rest(M.ring, sub_und, action, name=sub_und.name)
    return sub, GreenModuleMorphism(sub, M, MackeyMorphism.at_rest(sub_und, M.underlying, incl))


# --- constructors ---------------------------------------------------------------


def burnside_green(group, name: str = "") -> GreenFunctor:
    """The Burnside green functor: level s is the Burnside ring of C_{p^s}."""
    from .gsets import burnside_ring
    und = burnside_mackey(group)
    rings = [burnside_ring(CyclicGroup(group.p, s)) for s in range(group.n + 1)]
    return GreenFunctor(und, rings, name=name or und.name)


def constant_green(group, base, name: str = "") -> GreenFunctor:
    """Constant green functor: every level is the base ring itself."""
    und = constant_mackey(group, base, 1, name=name)
    one = la.mat([[1]], base=base)
    rings = [BasedRing(base, 1, one.copy(), one.copy(), ["1"])
             for _ in range(group.n + 1)]
    return GreenFunctor(und, rings, name=name or und.name)


def fixed_point_green(group, field, name: str = "") -> GreenFunctor:
    """Galois fixed points of a finite field, written over its prime field.

    C_{p^n} acts through the Frobenius, which has order k on GF(p^k), so k
    must divide p^n; level s is the subfield fixed by the corresponding
    subgroup, with its own multiplication (a subfield is closed under
    products, so they solve over its basis).
    """
    base = gf_make(field.p, 1)
    if (group.p ** group.n) % field.k:
        raise ValueError(f"frobenius powers of {field!r} form a group of order {field.k}, "
                         f"not a subquotient of C{group.p ** group.n}")
    rho = field.frobenius_matrix()
    M = fixed_point_mackey(group, base, rho,
                           name=name or f"fixed points of GF({field.p}^{field.k})")
    k = field.k
    rings = []
    for B in M.fixed_bases:
        d = B.shape[1]
        elems = [field.from_poly([int(B[i, u]) for i in range(k)]) for u in range(d)]
        # columns u * d + v: the products elems[u] * elems[v]; the last: the unit
        cols = [(x * y).coeffs for x in elems for y in elems] + [field.one.coeffs]
        coords = la.solve(B, la.mat(list(zip(*cols)), base=base), base)
        mult, unit = coords[:, :d * d].T.copy(), coords[:, d * d:]
        labels = [field.format_elem(e) for e in elems]
        rings.append(BasedRing(base, d, mult, unit, labels))
    return GreenFunctor(M, rings, name=M.name)


def char_example_green(p: int, name: str = "") -> GreenFunctor:
    """C_p green functor: bottom F_p, top F_p[t]/(t^2), tr(1) = t, res(t) = 0."""
    F = gf_make(p, 1)
    group = CyclicGroup(p, 1)
    levels = [FPModule(F, 1), FPModule(F, 2)]
    res = [la.mat([[1, 0]])]
    tr = [la.mat([[0], [1]])]
    weyl = [la.eye(1), la.eye(2)]
    und = MackeyFunctor(group, F, levels, res, tr, weyl,
                        name=name or f"square-zero transfer over GF({p})")
    r0 = BasedRing(F, 1, la.mat([[1]]), la.mat([[1]]), ["1"])
    m1 = la.mat([[1, 0], [0, 1], [0, 1], [0, 0]])  # rows: 1*1, 1*t, t*1, t*t
    r1 = BasedRing(F, 2, m1, la.mat([[1], [0]]), ["1", "t"])
    return GreenFunctor(und, [r0, r1], name=und.name)


# --- twisted group algebras -----------------------------------------------------


class TwistedGroupRing:
    """R_theta[C_m]: free R-module on w^0..w^(m-1) with w.x = theta(x).w.

    Basis index a * R.rank + i is e_i w^a; .ring is the resulting BasedRing
    (non-commutative unless theta is trivial), built on first access: its
    table has (m r)^3 entries, which callers that need only the coefficient
    ring and theta never pay for.
    """

    def __init__(self, coefficient: BasedRing, order: int, theta):
        self.coefficient = coefficient
        self.order = order
        self.theta = theta

    @functools.cached_property
    def ring(self) -> BasedRing:
        """The table, filled by blocks from one stacked product of all
        e_i theta^a(e_j)."""
        R, m = self.coefficient, self.order
        base, r = R.base, R.rank
        idm = la.eye(r, base)
        rank = r * m
        # [i, a, j]: the coefficients of e_i theta^a(e_j)
        prods = R.products(idm, la.orbit(self.theta, idm, m, base)).T.reshape(r, m, r, r)
        mult = la.zeros(rank * rank, rank, base).reshape(m, r, m, r, rank)
        for a in range(m):
            for b in range(m):
                c = (a + b) % m
                mult[a, :, b, :, c * r:(c + 1) * r] = prods[:, a]
        unit = la.zeros(rank, 1, base)
        unit[:r, :] = R.unit
        labels = [R.labels[i] if a == 0 else f"{R.labels[i]}.w{a}"
                  for a in range(m) for i in range(r)]
        trivial = la.mat_eq(self.theta, idm)
        return BasedRing(base, rank, mult.reshape(rank * rank, rank), unit, labels,
                         commutative=R.commutative and (trivial or m == 1))

    def theta_power_order(self) -> int:
        """Smallest c >= 1 with theta^c = id (see `map_order`)."""
        return map_order(self.theta, self.order, self.coefficient.base)

    def __repr__(self):
        return (f"TwistedGroupRing(rank {self.coefficient.rank} coefficients, "
                f"order {self.order})")


def map_order(A, bound: int, base) -> int:
    """Smallest c >= 1 with A^c = id, for a map of a group action of order
    `bound`, by repeated products.  Raises ValueError when A^c != id for
    every c <= bound."""
    idm = la.eye(A.shape[0], base)
    acc, c = A, 1
    while not la.mat_eq(acc, idm):
        if c == bound:
            raise ValueError(f"map has order beyond the group: A^c != id for c <= {bound}")
        acc = la.mmul(acc, A, base)
        c += 1
    return c


def twisted_group_ring(R: BasedRing, order: int, theta) -> TwistedGroupRing:
    """Twisted group algebra of a cyclic group over R.

    theta must be a ring automorphism with theta^order = id, which is
    checked here; the result is commutative only when theta is trivial and
    R is commutative.  The multiplication table is built when `.ring` is
    first read.
    """
    base, r, m = R.base, R.rank, order
    if m < 1 or theta.shape != (r, r):
        raise ValueError(f"twisting needs order >= 1 and an {r} x {r} theta")
    rep = CheckReport("theta")
    _ring_map_into(rep, "theta", "theta", theta, R, R, FPModule(base, r))
    if not rep.ok:
        raise ValueError("theta must fix the unit" if rep.violations[0].where == "theta"
                         else "theta is not multiplicative")
    if not la.mat_eq(la.mpow(theta, m, base), la.eye(r, base)):
        raise ValueError("theta^order != id")
    return TwistedGroupRing(R, m, theta)


def level_twisted_ring(R: GreenFunctor, s: int) -> TwistedGroupRing:
    """Level-s ring of R twisted by its Weyl action over C_{p^(n-s)}."""
    m = R.p ** (R.n - s)
    return twisted_group_ring(R.ring(s), m, R.underlying.weyl[s])


class MoritaWitness:
    """Matrix units E[a,b] inside a twisted group algebra.

    corner_dim is the dimension of E[0,0] T E[0,0] over the base field,
    i.e. the degree of the fixed subfield the algebra is a matrix ring over.
    """

    def __init__(self, units, corner_dim, report: CheckReport):
        self.units = units
        self.corner_dim = corner_dim
        self.report = report

    @property
    def ok(self) -> bool:
        return self.report.ok

    def __repr__(self):
        side = int(math.isqrt(len(self.units))) if self.units else 0
        return f"MoritaWitness({side} x {side} over a degree-{self.corner_dim} field)"


def morita_matrix_units(T: TwistedGroupRing) -> MoritaWitness:
    """Matrix units exhibiting a faithfully twisted field algebra as Mat_m.

    The algebra acts on its coefficient field by x -> b.theta^a(x); that
    action is an isomorphism onto the endomorphisms over the fixed
    subfield, and pulling back the usual matrix units gives the witness.
    By Artin's theorem an automorphism of order m fixes a subfield of
    index m; a theta that does not (a TwistedGroupRing built directly
    from a non-automorphism) raises ValueError.
    """
    L, m, base = T.coefficient, T.order, T.coefficient.base
    if base is ZZ:
        raise ValueError("needs a finite base field")
    if not ring_is_field(L):
        raise ValueError("coefficient ring is not a field")
    if T.theta_power_order() != m:
        raise ValueError("twisting is not faithful; no full matrix-algebra witness")
    k = L.rank
    idm = la.eye(k, base)
    fixed = la.nullspace(la.sub(T.theta, idm, base), base)
    d = fixed.shape[1]
    if d * m != k:
        raise ValueError(f"theta is not a field automorphism: fixed dimension {d}, not {k} / {m}")
    # greedy basis of L over the fixed subfield
    V, S = [], la.zeros(k, 0, base)
    for v in [L.unit] + [L.basis_vector(i) for i in range(k)]:
        block = la.mmul(L.left_mult_matrices(v)[0], fixed, base)
        trial = la.hstack([S, block]) if S.shape[1] else block
        if la.rank(trial, base) == S.shape[1] + d:
            V.append(v)
            S = trial
        if len(V) == m:
            break
    if len(V) < m:
        raise ValueError("could not complete a basis over the fixed subfield")
    B, Binv = S, la.inv_field(S, base)
    # column a * k + i: the map x -> e_i theta^a(x), flattened row by row of its transpose
    phi = L.products(idm, la.orbit(T.theta, idm, m, base)).T.reshape(k, m, k * k).transpose(2, 1, 0)
    phi = phi.reshape(k * k, m * k)
    rep = CheckReport("matrix units")
    idd = la.eye(d, base)
    units = {}
    for a in range(m):
        for b in range(m):
            P = la.zeros(m, m, base)
            P[a, b] = base.one
            E = la.mmul_chain(B, la.kron(P, idd, base), Binv, base=base)
            x = la.solve(phi, E.transpose().reshape(k * k, 1), base)
            if x is None:
                rep.add("matrix-units", f"E[{a},{b}]", "target map not in the image")
                continue
            units[(a, b)] = x
    zero = la.zeros(k * m, 1, base)
    # one stacked product per left factor keeps the Kronecker factor at (k m)^2 x m^2
    for (a, b), u in units.items():
        prods = T.ring.products(u, la.hstack(list(units.values())))
        expect = la.hstack([units[(a, e)] if b == c else zero for c, e in units])
        for (c, e), ok in zip(units, np.equal(prods, expect).all(axis=0)):
            if not ok:
                rep.add("matrix-units", f"E[{a},{b}] E[{c},{e}]", "product law fails")
    total = zero
    for a in range(m):
        if (a, a) in units:
            total = la.add_scaled(total, units[(a, a)], 1, base)
    if not la.mat_eq(total, T.ring.unit):
        rep.add("matrix-units", "sum of diagonals", "idempotents do not sum to 1")
    return MoritaWitness(units, d, rep)


# --- box products and base change: one block presentation ----------------------


def _place_rows(total_rows: int, offset: int, block, base):
    out = la.zeros(total_rows, block.shape[1], base)
    out[offset:offset + block.shape[0], :] = block
    return out


def _block_presentation(M: MackeyFunctor, N: MackeyFunctor, extra, name: str) -> MackeyFunctor:
    """Box-product block presentation of M and N over C_{p^n}, at any height.

    Level s is assembled from blocks M_t (x) N_t for t <= s (transfers of
    tensors from lower levels), modulo the relation blocks extra[t] (each
    with |M_t|.|N_t| rows) on block t of every level s >= t, relative-Weyl
    coinvariance on each lower block and the identifications
    tr(m) (x) y = tr(m (x) res y), m (x) tr(y) = tr(res m (x) y) between
    adjacent blocks.  The block functor (res, tr and the block-diagonal
    weyl on the block coordinates) goes through the level quotients by
    `pushed`, which keeps, per level, the projection from and the lift to
    the block coordinates as .projections and .lifts.
    """
    base, p, n = M.base, M.p, M.n
    gM = [lev.gens for lev in M.levels]
    gN = [lev.gens for lev in N.levels]
    g = [gM[t] * gN[t] for t in range(n + 1)]
    D = [la.kron(M.weyl[t], N.weyl[t], base) for t in range(n + 1)]
    offs = [sum(g[:t]) for t in range(n + 2)]

    quots = []
    for s in range(n + 1):
        total = offs[s + 1]
        rels = [la.zeros(total, 0, base)]
        for t in range(s + 1):
            rels += [_place_rows(total, offs[t], X, base) for X in extra[t]]
        for t in range(s):
            C = la.sub(la.mpow(D[t], p ** (n - s), base), la.eye(g[t], base), base)
            rels.append(_place_rows(total, offs[t], C, base))
        for t in range(1, s + 1):
            a1 = la.kron(M.tr[t - 1], la.eye(gN[t], base), base)
            b1 = la.kron(la.eye(gM[t - 1], base), N.res[t - 1], base)
            rels.append(la.sub(_place_rows(total, offs[t], a1, base),
                               _place_rows(total, offs[t - 1], b1, base), base))
            a2 = la.kron(la.eye(gM[t], base), N.tr[t - 1], base)
            b2 = la.kron(M.res[t - 1], la.eye(gN[t - 1], base), base)
            rels.append(la.sub(_place_rows(total, offs[t], a2, base),
                               _place_rows(total, offs[t - 1], b2, base), base))
        quots.append(reduced_quotient(base, total, la.hstack(rels)))

    res, tr = [], []
    for s in range(n):
        raw = la.zeros(offs[s + 1], offs[s + 2], base)
        for t in range(s + 1):
            sm = la.power_sum(la.mpow(D[t], p ** (n - s - 1), base), p, base)
            raw[offs[t]:offs[t] + g[t], offs[t]:offs[t] + g[t]] = sm
        top = la.kron(M.res[s], N.res[s], base)
        raw[offs[s]:offs[s] + g[s], offs[s + 1]:offs[s + 1] + g[s + 1]] = top
        res.append(raw)
        # tr includes blocks 0..s of level s as the lower blocks of level s + 1
        tr.append(la.vstack([la.eye(offs[s + 1], base), la.zeros(g[s + 1], offs[s + 1], base)]))
    weyl = [la.block_diag(D[:s + 1], base) for s in range(n + 1)]
    blocks = MackeyFunctor.at_rest(M.group, base,
                                   [FPModule(base, offs[s + 1]) for s in range(n + 1)],
                                   res, tr, weyl)
    return pushed(blocks, quots, name)


def box_product_general(M: MackeyFunctor, N: MackeyFunctor) -> MackeyFunctor:
    """Box product of Mackey functors over the same C_{p^n}, at any height:
    the block presentation whose only extra relations are those of M and N."""
    if M.group != N.group:
        raise ValueError(f"box product of functors over {M.group} and {N.group}")
    if not (M.base == N.base or M.base is N.base):
        raise ValueError(f"box product of functors over {M.base!r} and {N.base!r}")
    extra = [[tensor_modules(M.levels[t], N.levels[t]).relations] for t in range(M.n + 1)]
    return _block_presentation(M, N, extra, f"box({M.name or 'M'}, {N.name or 'N'})")


# --- base change of modules -----------------------------------------------------


def base_change_cp(f: GreenMorphism, M: GreenModule) -> GreenModule:
    """Base change of a module along a ring map, at any height.

    For f: R -> L and an R-module M this is the relative box product
    M box_R L: the block presentation of M box L modulo
    m.r (x) l = m (x) f(r).l on every block.  The ring L_s acts on block t
    of level s through res_{s->t}.  Returns an L-module that carries the
    projections and lifts of its presentation.
    """
    R, L = f.source, f.target
    if M.ring is not R:
        raise ValueError("module must live over the source of the ring map")
    base, n = R.base, R.n
    und, Lund = M.underlying, L.underlying
    extra = []
    for t in range(n + 1):
        lt, mt = L.ring(t), und.levels[t].gens
        rels = [tensor_modules(und.levels[t], Lund.levels[t]).relations]
        lmuls = lt.left_mult_matrices(f.components[t])
        for act, lmul in zip(M.action[t], lmuls):
            rels.append(la.sub(la.kron(act, la.eye(lt.rank, base), base),
                               la.kron(la.eye(mt, base), lmul, base), base))
        extra.append(rels)
    B = _block_presentation(und, Lund, extra, f"{M.name or 'M'} along {L.name or 'L'}")

    action = []
    for s in range(n + 1):
        down = [la.mmul_chain(*Lund.res[t:s], la.eye(L.ring(s).rank, base), base=base)
                for t in range(s + 1)]                     # res_{s->t}
        lmuls = [L.ring(t).left_mult_matrices(down[t]) for t in range(s + 1)]
        mats = []
        for c in range(L.ring(s).rank):
            raw = la.block_diag([la.kron(la.eye(und.levels[t].gens, base), lmuls[t][c], base)
                                 for t in range(s + 1)], base)
            mats.append(la.mmul_chain(B.projections[s], raw, B.lifts[s], base=base))
        action.append(_stack(mats, B.levels[s].gens, base))
    out = GreenModule.at_rest(L, B, action, name=B.name)
    out.projections, out.lifts = B.projections, B.lifts
    return out


def base_change_map_cp(f: GreenMorphism, g: GreenModuleMorphism,
                       source_changed: GreenModule, target_changed: GreenModule) -> GreenModuleMorphism:
    """The induced map between base-changed modules, at any height.

    source_changed and target_changed must be base_change_cp(f, g.source)
    and base_change_cp(f, g.target).
    """
    L = f.target
    if source_changed.ring is not L or target_changed.ring is not L:
        raise ValueError("base-changed modules must live over the target of the ring map")
    base = f.source.base
    comps = []
    for s in range(L.n + 1):
        raw = la.block_diag([la.kron(g.components[t], la.eye(L.ring(t).rank, base), base)
                             for t in range(s + 1)], base)
        comps.append(la.mmul_chain(target_changed.projections[s], raw,
                                   source_changed.lifts[s], base=base))
    return GreenModuleMorphism(source_changed, target_changed, MackeyMorphism.at_rest(
        source_changed.underlying, target_changed.underlying, comps))


def map_from_generator(P: GreenModule, i: int, x):
    """Components of the module map F_i -> P sending the generator to x.

    x is a column at level i.  Level s receives, for copy j and ring basis u,
    the column W^j tr(A_u x) (s >= i) or W^j A_u res(x) (s < i), matching the
    copy-block layout of free_module.  With several columns in x, column
    (j * rank + u) * g + a of level s belongs to the map sending the
    generator to column a of x (g columns), so [:, a::g] is that map:
    `green_module_hom_basis` passes the identity of P(i) and so gets the
    Yoneda basis of Hom(F_i, P), the standard basis of P(i), at once.
    """
    R = P.ring
    n, base = R.n, R.base
    und = P.underlying
    comps = []
    for s in range(n + 1):
        t = min(i, s)
        down = la.mmul_chain(*und.res[s:i], x, base=base)          # res to level t
        A = P.action[t]
        rank, g, k = A.shape[0], A.shape[1], down.shape[1]
        seeds = la.mmul(A.reshape(rank * g, g), down, base)        # every A_u down at once
        seeds = seeds.reshape(rank, g, k).transpose(1, 0, 2).reshape(g, rank * k)
        seeds = la.mmul_chain(*und.tr[t:s][::-1], seeds, base=base)  # tr up to level s
        comps.append(la.orbit(und.weyl[s], seeds, R.p ** (n - max(i, s)), base))
    return comps


def green_module_hom_basis(M: GreenModule, N: GreenModule):
    """Basis of the module-linear homomorphisms M -> N over the same ring.

    A source built as a sum of free modules (M.free_levels set) takes the
    Yoneda route: Hom(F_i, N) = N(i), a map from F_i being fixed by where
    its generator goes (`map_from_generator`).  The basis is the standard
    basis of N(i) for each summand F_i, zero on the other summands, and no
    system is solved.  A target with relations, or any other source, takes
    the system of `hom_basis`.

    That system asks a map to commute only with the action of the
    generators of each level ring (`BasedRing.generators`).  That is enough
    when M and N satisfy the module axioms (the unit acts as the identity,
    the action is multiplicative), which are assumed here, not checked:
    `check_green_module` tests them, and `GreenModuleMorphism.check` still
    tests every basis element of the ring.  Over a field the system has the
    same row space as with every basis element, so the basis is the same."""
    if M.ring is not N.ring:
        raise ValueError("hom space needs modules over one ring")
    R = M.ring
    if M.free_levels is not None and not any(lv.relations.shape[1]
                                             for lv in N.underlying.levels):
        dims = N.level_dims()
        images = {i: map_from_generator(N, i, la.eye(dims[i], R.base))
                  for i in set(M.free_levels)}
        gens, at = [], [0] * (R.n + 1)
        for i in M.free_levels:
            blocks = []
            for s, C in enumerate(images[i]):
                w = R.p ** (R.n - max(i, s)) * R.ring(min(i, s)).rank
                blocks.append((slice(at[s], at[s] + w), C))
                at[s] += w
            gens.append((dims[i], blocks))
        raw = maps_from_images(M.underlying, N.underlying, gens)
    else:
        inter = [[(M.action[s][u], N.action[s][u]) for u in R.ring(s).generators]
                 for s in range(R.n + 1)]
        raw = hom_basis(M.underlying, N.underlying, level_intertwiners=inter)
    return [GreenModuleMorphism(M, N, f) for f in raw]
