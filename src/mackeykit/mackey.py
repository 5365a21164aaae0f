"""Mackey functors for cyclic p-groups.

A Mackey functor M for C_{p^n} is stored levelwise: modules M_0..M_n
(level s = value at the orbit C_{p^n}/C_{p^s}), restrictions
res_s: M_{s+1} -> M_s, transfers tr_s: M_s -> M_{s+1}, and the Weyl
action weyl_s on M_s (a generator of C_{p^n}/C_{p^s}, so its order
divides p^(n-s) and weyl_n = id).

Axioms, beyond equivariance of res and tr:

    res_s . tr_s = sum_{i<p} (weyl_s ^ (i * p^(n-s-1)))        (double coset)

All maps are matrices on generators; equalities are checked modulo the
target's relations.
"""

from __future__ import annotations

import itertools
import os
import random

import numpy as np

from . import linalg as la
from .fields import gf_make
from .linalg import ZZ
from .modules import FPModule, direct_sum_modules, reduced_quotient
from .report import CheckReport


class MackeyFunctor:
    def __init__(self, group, base, levels, res, tr, weyl, name=""):
        n = group.n
        if not (len(levels) == len(weyl) == n + 1 and len(res) == len(tr) == n):
            raise ValueError(f"{group} needs {n + 1} levels and Weyl maps, {n} res and tr")
        g = [lv.gens for lv in levels]
        for s in range(n + 1):
            _check_shape(weyl[s], (g[s], g[s]), f"weyl_{s}")
        for s in range(n):
            _check_shape(res[s], (g[s], g[s + 1]), f"res_{s}")
            _check_shape(tr[s], (g[s + 1], g[s]), f"tr_{s}")
        self._fill(group, base, levels, [la.coerce(A, base) for A in res],
                   [la.coerce(A, base) for A in tr], [la.coerce(A, base) for A in weyl], name)

    @classmethod
    def at_rest(cls, group, base, levels, res, tr, weyl, name=""):
        """The functor on maps already of the right shapes and in the base's
        form, as the library's own constructions build them: no checks, no
        conversion.  Callers with any other maps use the constructor."""
        M = cls.__new__(cls)
        M._fill(group, base, levels, list(res), list(tr), list(weyl), name)
        return M

    def _fill(self, group, base, levels, res, tr, weyl, name):
        self.group = group
        self.base = base
        self.levels = list(levels)
        self.res, self.tr, self.weyl = res, tr, weyl
        self.name = name
        # r when this is Ind_e^G base^r as induce_mackey builds it: free over
        # the Burnside functor on r level-0 generators (see hom_basis)
        self.induced_free_rank = None

    @property
    def n(self) -> int:
        return self.group.n

    @property
    def p(self) -> int:
        return self.group.p

    def level_dims(self) -> tuple:
        return tuple(m.gens for m in self.levels)

    def describe(self) -> str:
        inner = ", ".join(m.describe() for m in self.levels)
        label = self.name or "mackey functor"
        return f"{label} [{inner}]"

    def __repr__(self):
        return f"MackeyFunctor({self.describe()})"


def _check_shape(A, shape, what):
    if A.shape != shape:
        raise ValueError(f"{what} has shape {A.shape}, expected {shape}")


def _check_same_base(M, N):
    if M.group != N.group or M.base != N.base:
        raise ValueError(f"functors over {M.group}, {M.base!r} and {N.group}, {N.base!r}")


def check_axioms(M: MackeyFunctor) -> CheckReport:
    """Well-definedness, Weyl order, equivariance, and the double coset rule.

    Each level's Weyl ladder W_s^(p^k), k <= n - s, is built once by p-th
    powers, which stop at a rung that is the identity matrix; its top rung
    is the Weyl-order check, and rung n - t - 1 the translates in the
    double coset formula for levels s <= t.

    Only the adjacent double-coset instances res_t tr_t = PS(W_t^q), with
    q = p^(n-t-1) and PS(X) = I + X + ... + X^(p-1), are computed on every
    input.  The non-adjacent ones, D res_t tr_t = PS(W_s^q) D for s < t and
    D = res_s ... res_(t-1), follow from them once every law before them
    holds, so they are walked (in their old order, with their old places)
    only when the report already has a violation.  The argument, with every
    equality of maps into a level modulo its relations: D maps relations
    into relations (res well defined), and equivariance with W_s well
    defined gives D W_t = W_s D by induction on t - s, hence
    D W_t^k = W_s^k D for every k.  So D res_t tr_t = D PS(W_t^q) =
    PS(W_s^q) D.  The check's work is n adjacent instances, not
    n(n + 1) / 2 pairs."""
    rep = CheckReport(M.name or "mackey functor")
    p, n, base = M.p, M.n, M.base

    def welldef(A, src: FPModule, dst: FPModule, where):
        if src.relations.shape[1]:
            img = la.mmul(A, src.relations)
            if not dst.annihilates(img):
                rep.add("well-defined", where, "map does not preserve relations")

    for s in range(n):
        welldef(M.res[s], M.levels[s + 1], M.levels[s], f"res_{s}")
        welldef(M.tr[s], M.levels[s], M.levels[s + 1], f"tr_{s}")
    for s in range(n + 1):
        welldef(M.weyl[s], M.levels[s], M.levels[s], f"weyl_{s}")

    ident = [la.eye(lev.gens, base) for lev in M.levels]
    ladder = [list(itertools.accumulate(
        range(n - s), lambda W, _, I=ident[s]: W if la.mat_eq(W, I) else la.mpow(W, p, base),
        initial=M.weyl[s])) for s in range(n + 1)]
    # weyl_n = id and weyl_s^(p^(n-s)) = id
    if not M.levels[n].maps_equal(M.weyl[n], ident[n]):
        rep.add("weyl", "level n", "top Weyl action is not the identity")
    for s in range(n + 1):
        if not M.levels[s].maps_equal(ladder[s][n - s], ident[s]):
            rep.add("weyl", f"level {s}", f"weyl^{p ** (n - s)} != id")

    for s in range(n):
        lhs = la.mmul(M.weyl[s], M.res[s], base)
        rhs = la.mmul(M.res[s], M.weyl[s + 1], base)
        if not M.levels[s].maps_equal(lhs, rhs):
            rep.add("equivariance", f"res_{s}", "weyl . res != res . weyl")
        lhs = la.mmul(M.tr[s], M.weyl[s], base)
        rhs = la.mmul(M.weyl[s + 1], M.tr[s], base)
        if not M.levels[s + 1].maps_equal(lhs, rhs):
            rep.add("equivariance", f"tr_{s}", "tr . weyl != weyl . tr")

    for s in range(n):
        lhs = la.mmul(M.res[s], M.tr[s], base)
        rhs = la.power_sum(ladder[s][n - s - 1], p, base)
        if not M.levels[s].maps_equal(lhs, rhs):
            rep.add("double-coset", f"level {s}",
                    "res . tr != sum of relative Weyl translates")

    if rep.ok:
        return rep
    # non-adjacent instances: Res^{t+1}_s Tr^{t+1}_t = sum_i weyl_s^{i p^(n-t-1)} Res^t_s
    for t in range(n):
        down_t = la.eye(M.levels[t].gens, base)  # res chain level t -> level s
        for s in range(t - 1, -1, -1):
            down_t = la.mmul(M.res[s], down_t, base)
            down_t1 = la.mmul(down_t, M.res[t], base)
            lhs = la.mmul(down_t1, M.tr[t], base)
            rhs = la.mmul(la.power_sum(ladder[s][n - t - 1], p, base), down_t, base)
            if not M.levels[s].maps_equal(lhs, rhs):
                rep.add("double-coset", f"levels {s}<{t}",
                        "non-adjacent res . tr != sum of Weyl-translated res")
    return rep


# --- constructors -------------------------------------------------------------


def constant_mackey(group, base, rank: int = 1, name: str = "") -> MackeyFunctor:
    """Constant Mackey functor: res = id, tr = multiplication by p."""
    n = group.n
    levels = [FPModule(base, rank) for _ in range(n + 1)]
    ident = la.eye(rank, base)
    ptimes = la.scalar_mul(group.p, ident, base)
    res = [ident.copy() for _ in range(n)]
    tr = [ptimes.copy() for _ in range(n)]
    weyl = [ident.copy() for _ in range(n + 1)]
    return MackeyFunctor(group, base, levels, res, tr, weyl,
                         name=name or f"constant({base!r}^{rank})")


def fixed_point_mackey(group, field, rho, name: str = "") -> MackeyFunctor:
    """Fixed points of a linear C_{p^n}-representation over a field.

    rho is the matrix of a generator; level s is ker(rho^(p^(n-s)) - id),
    restriction is inclusion of fixed subspaces, transfer the relative
    trace, Weyl action the residual action of rho: the functor on the whole
    space with res = I, tr_s = the relative trace and weyl = rho at every
    level, restricted to the fixed subspaces by `spanned`.
    """
    p, n = group.p, group.n
    d = rho.shape[0]
    if rho.shape != (d, d):
        raise ValueError(f"rho must be a square matrix, not of shape {rho.shape}")
    idm = la.eye(d, field)
    if not la.mat_eq(la.mpow(rho, p ** n, field), idm):
        raise ValueError("generator order must divide p^n")

    bases = [la.nullspace(la.sub(la.mpow(rho, p ** (n - s), field), idm, field), field)
             for s in range(n + 1)]
    traces = [la.power_sum(la.mpow(rho, p ** (n - s - 1), field), p, field) for s in range(n)]
    whole = MackeyFunctor(group, field, [FPModule(field, d)] * (n + 1), [idm] * n, traces,
                          [rho] * (n + 1))
    M = spanned(whole, bases, name or "fixed-point functor")
    M.fixed_bases = bases
    return M


def burnside_mackey(group, name: str = "") -> MackeyFunctor:
    """The Burnside Mackey functor: level s = A(C_{p^s})."""
    from .gsets import CyclicGroup, FiniteGSet, induce_gset, restrict_gset
    p, n = group.p, group.n
    levels = [FPModule(ZZ, s + 1) for s in range(n + 1)]
    res, tr = [], []
    for s in range(n):
        sub = CyclicGroup(p, s + 1)
        R = la.zeros(s + 1, s + 2)
        for t in range(s + 2):
            down = restrict_gset(FiniteGSet.orbit(sub, t), s)
            for u, m in enumerate(down.mult):
                R[u, t] = m
        res.append(R)
        T = la.zeros(s + 2, s + 1)
        for t in range(s + 1):
            up = induce_gset(FiniteGSet.orbit(CyclicGroup(p, s), t), s + 1)
            for u, m in enumerate(up.mult):
                T[u, t] = m
        tr.append(T)
    weyl = [la.eye(s + 1) for s in range(n + 1)]
    return MackeyFunctor(group, ZZ, levels, res, tr, weyl,
                         name=name or "burnside functor")


def twisted_burnside_c5(name: str = "twisted burnside") -> MackeyFunctor:
    """The rank-(1,2) C_5-functor with res = (2,5) and tr = (0,1)^T.

    Its box square is the Burnside functor, but it is not isomorphic to it:
    compatibility with res forces a top matrix with a = 2 - 5c, b = 0, and
    then det = +-a is never +-1.
    """
    from .gsets import CyclicGroup
    group = CyclicGroup(5, 1)
    levels = [FPModule(ZZ, 1), FPModule(ZZ, 2)]
    res = [la.mat([[2, 5]])]
    tr = [la.mat([[0], [1]])]
    weyl = [la.eye(1), la.eye(2)]
    return MackeyFunctor(group, ZZ, levels, res, tr, weyl, name=name)


# --- morphisms ----------------------------------------------------------------


class MackeyMorphism:
    """Levelwise matrices commuting with res, tr and weyl."""

    def __init__(self, source: MackeyFunctor, target: MackeyFunctor, components):
        _check_same_base(source, target)
        if len(components) != source.n + 1:
            raise ValueError(f"{len(components)} components for {source.n + 1} levels")
        for s, f in enumerate(components):
            _check_shape(f, (target.levels[s].gens, source.levels[s].gens), f"component {s}")
        self.source = source
        self.target = target
        self.components = [la.coerce(f, source.base) for f in components]

    def check(self) -> CheckReport:
        rep = CheckReport("mackey morphism")
        M, N, f = self.source, self.target, self.components
        base = M.base
        for s in range(M.n + 1):
            if M.levels[s].relations.shape[1]:
                if not N.levels[s].annihilates(la.mmul(f[s], M.levels[s].relations)):
                    rep.add("well-defined", f"level {s}", "relations not preserved")
            lhs = la.mmul(f[s], M.weyl[s], base)
            rhs = la.mmul(N.weyl[s], f[s], base)
            if not N.levels[s].maps_equal(lhs, rhs):
                rep.add("weyl", f"level {s}", "does not commute with the Weyl action")
        for s in range(M.n):
            lhs = la.mmul(f[s], M.res[s], base)
            rhs = la.mmul(N.res[s], f[s + 1], base)
            if not N.levels[s].maps_equal(lhs, rhs):
                rep.add("res", f"res_{s}", "does not commute with restriction")
            lhs = la.mmul(f[s + 1], M.tr[s], base)
            rhs = la.mmul(N.tr[s], f[s], base)
            if not N.levels[s + 1].maps_equal(lhs, rhs):
                rep.add("tr", f"tr_{s}", "does not commute with transfer")
        return rep

    def compose(self, other: "MackeyMorphism") -> "MackeyMorphism":
        """self . other (apply other first)."""
        if not (other.target is self.source
                or other.target.level_dims() == self.source.level_dims()):
            raise ValueError("compose: the inner map's target is not the outer map's source")
        comps = [la.mmul(f, g, self.source.base)
                 for f, g in zip(self.components, other.components)]
        return MackeyMorphism(other.source, self.target, comps)

    @classmethod
    def at_rest(cls, source, target, components):
        """The morphism on components already of the right shapes and in the
        base's form, as hom_basis builds them: no checks, no conversion."""
        f = cls.__new__(cls)
        f.source, f.target, f.components = source, target, list(components)
        return f

    @staticmethod
    def identity(M: MackeyFunctor) -> "MackeyMorphism":
        comps = [la.eye(m.gens, M.base) for m in M.levels]
        return MackeyMorphism(M, M, comps)

    def is_level_iso(self) -> bool:
        base = self.source.base
        for s, f in enumerate(self.components):
            if f.shape[0] != f.shape[1]:
                return False
            if base is ZZ:
                if self.source.levels[s].relations.shape[1] or \
                        self.target.levels[s].relations.shape[1]:
                    raise NotImplementedError("level-iso test needs free levels over Z")
                if f.shape[0] and abs(la.bareiss_det(f)) != 1:
                    return False
            else:
                if la.rank(f, base) != f.shape[0]:
                    return False
        return True

    def __repr__(self):
        dims = " ".join(f"{f.shape[1]}->{f.shape[0]}" for f in self.components)
        return f"MackeyMorphism({dims})"


def pushed(M, quots, name=""):
    """The functor on the levels Q_s of the (Q_s, proj_s, lift_s) in quots,
    with M's maps conjugated by proj_s . - . lift_t: the one constructor of
    quotient functors.  The result keeps the proj_s and lift_s as
    .projections and .lifts."""
    base, n = M.base, M.n
    levels, projs, lifts = (list(x) for x in zip(*quots))
    res = [la.mmul_chain(projs[s], M.res[s], lifts[s + 1], base=base) for s in range(n)]
    tr = [la.mmul_chain(projs[s + 1], M.tr[s], lifts[s], base=base) for s in range(n)]
    weyl = [la.mmul_chain(projs[s], M.weyl[s], lifts[s], base=base) for s in range(n + 1)]
    out = MackeyFunctor.at_rest(M.group, base, levels, res, tr, weyl, name=name)
    out.projections, out.lifts = projs, lifts
    return out


def restricted(A, src, dst, base, what):
    """X with dst X = A src: the map A from the span of src's columns to the
    span of dst's, which has full column rank.  Raises ValueError("span not
    closed under <what>") when A src leaves the span of dst."""
    if src.shape[1] == 0:
        return la.zeros(dst.shape[1], 0, base)
    X = la.solve(dst, la.mmul(A, src, base), base)
    if X is None:
        raise ValueError(f"span not closed under {what}")
    return X


def spanned(F, bases, name):
    """The subfunctor of F (its relations ignored) with level s spanned by
    the columns of bases[s], each of full column rank: the one constructor
    of subfunctors.  Raises ValueError, naming the map and the level, when
    res, tr or weyl leaves the spans."""
    base, n = F.base, F.n
    res = [restricted(F.res[s], bases[s + 1], bases[s], base, f"res at level {s}")
           for s in range(n)]
    tr = [restricted(F.tr[s], bases[s], bases[s + 1], base, f"tr at level {s + 1}")
          for s in range(n)]
    weyl = [restricted(F.weyl[s], bases[s], bases[s], base, f"weyl at level {s}")
            for s in range(n + 1)]
    levels = [FPModule(base, B.shape[1]) for B in bases]
    return MackeyFunctor.at_rest(F.group, base, levels, res, tr, weyl, name=name)


def _free_presentation(M):
    """(F, projs, lifts): M presented without relations, or (M, None, None)
    when it has none.  proj_s maps M_s's generators onto F_s's, lift_s back.

    A Z level whose relations have only unit invariant factors is free on
    fewer generators; a level with torsion raises NotImplementedError.
    """
    if not any(lv.relations.shape[1] for lv in M.levels):
        return M, None, None
    if not all(lv.is_free for lv in M.levels):
        raise NotImplementedError("hom computations over Z require levelwise-free functors")
    F = pushed(M, [reduced_quotient(M.base, lv.gens, lv.relations) for lv in M.levels], M.name)
    return F, F.projections, F.lifts


def _conj(left, A, right, s, base):
    """left[s] . A . right[s], a missing list standing for identities."""
    if left is not None:
        A = la.mmul(left[s], A, base)
    if right is not None:
        A = la.mmul(A, right[s], base)
    return A


def maps_from_images(M: MackeyFunctor, N: MackeyFunctor, generators):
    """The Yoneda basis of Hom(M, N) for M free on the given generators.

    generators holds, per free generator of M, the number g of basis
    vectors of the level it maps into, and per level s a pair (cols, C):
    cols the slice of M_s's columns its summand occupies, and C the images
    of those columns, column w * g + b under the map sending the generator
    to basis vector b.  Basis map (generator, b) is C's columns b, b + g,
    ... on cols and zero elsewhere, generator by generator and b fastest.
    Each level's maps are written into one array."""
    base = M.base
    h = sum(g for g, _ in generators)
    comps = []
    for s in range(M.n + 1):
        r, k = N.levels[s].gens, M.levels[s].gens
        stack = la.zeros(h * r, k, base).reshape(h, r, k)
        at = 0
        for g, images in generators:
            cols, C = images[s]
            if g:
                stack[at:at + g, :, cols] = C.reshape(r, C.shape[1] // g, g).transpose(2, 0, 1)
            at += g
        comps.append(stack)
    return [MackeyMorphism.at_rest(M, N, [c[t] for c in comps]) for t in range(h)]


def hom_basis(M: MackeyFunctor, N: MackeyFunctor, level_intertwiners=None):
    """Basis of Hom(M, N): a list of MackeyMorphisms.

    Over a field this is a vector-space basis; over Z (levelwise free) a
    lattice basis of the hom group.

    level_intertwiners, when given, is a per-level list of (P, Q) matrix
    pairs adding the constraint f_s P = Q f_s; this cuts the hom space down
    to maps that also commute with extra operators (e.g. ring actions).

    Two routes.  When M is Ind_e^G base^r as `induce_mackey` builds it
    (M.induced_free_rank is r) and no intertwiners are given, M is free
    over the Burnside functor on r level-0 generators, and Hom(M, N) = N_0^r
    (Yoneda): the basis is the standard basis of N_0 for each generator,
    zero on the others, and the map sending generator a to x is W^j
    tr_{0->s}(x) on column j r + a of level s.  No system is solved.

    Otherwise the constraints f_s res = res f_{s+1}, f_{s+1} tr = tr f_s
    and f_s P = Q f_s are written straight into one array in the base's
    form and its kernel taken; a pair that is the identity on both sides
    (every Weyl pair of a constant functor) gives only zero rows and is
    left out.  Either way a target with relations is solved on its free
    presentation and the maps lifted back.
    """
    _check_same_base(M, N)
    base = M.base
    M0, N0 = M, N
    M, m_proj, m_lift = _free_presentation(M)
    N, n_proj, n_lift = _free_presentation(N)
    n = M.n
    if level_intertwiners is None and M.induced_free_rank is not None:
        r0, g0 = M.induced_free_rank, N.levels[0].gens
        up = [la.eye(g0, base)]
        for s in range(n):
            up.append(la.mmul(N.tr[s], up[-1], base))
        images = [_conj(n_lift, la.orbit(N.weyl[s], up[s], M.p ** (n - s), base), None, s, base)
                  for s in range(n + 1)]
        return maps_from_images(M0, N0, [(g0, [(slice(a, None, r0), C) for C in images])
                                         for a in range(r0)])
    if level_intertwiners is not None:
        level_intertwiners = [[(_conj(m_proj, P, m_lift, s, base), _conj(n_proj, Q, n_lift, s, base))
                               for P, Q in pairs] for s, pairs in enumerate(level_intertwiners)]
    r = [lv.gens for lv in N.levels]
    k = [lv.gens for lv in M.levels]
    offsets = [0]
    for s in range(n + 1):
        offsets.append(offsets[-1] + r[s] * k[s])
    total = offsets[-1]
    if total == 0:
        return []
    eye = {d: la.eye(d, base) for d in set(r + k)}

    def kron4(A, B):
        """kron(A, B) with its row and column indices split, (rA, rB, cA, cB)."""
        return A[:, None, :, None] * B[None, :, None, :]

    # a constraint is its row count and its (level, block) terms, each block
    # applied to vec(f_level), column-major: vec(F A) = (A^T kron I) vec(F)
    # and vec(B F) = (I kron B) vec(F)
    constraints = []
    for s in range(n):
        # f_s res^M_s = res^N_s f_{s+1}
        constraints.append((r[s] * k[s + 1], [(s, kron4(M.res[s].T, eye[r[s]])),
                            (s + 1, kron4(eye[k[s + 1]], la.neg(N.res[s], base)))]))
        # f_{s+1} tr^M_s = tr^N_s f_s
        constraints.append((r[s + 1] * k[s], [(s + 1, kron4(M.tr[s].T, eye[r[s + 1]])),
                            (s, kron4(eye[k[s]], la.neg(N.tr[s], base)))]))
    for s in range(n + 1):
        extra = level_intertwiners[s] if level_intertwiners else []
        for P, Q in [(M.weyl[s], N.weyl[s]), *extra]:
            # f_s P = Q f_s; a pair that is the identity on both sides adds zero rows
            if not (la.mat_eq(P, eye[k[s]]) and la.mat_eq(Q, eye[r[s]])):
                constraints.append((r[s] * k[s], [(s, la.sub(kron4(P.T, eye[r[s]]),
                                                             kron4(eye[k[s]], Q), base))]))

    big = la.zeros(sum(h for h, _ in constraints), total, base)
    at = 0
    for h, terms in constraints:
        for s, C in terms:
            big[at:at + h, offsets[s]:offsets[s + 1]] = C.reshape(h, r[s] * k[s])
        at += h
    ker = la.nullspace(big, base) if len(big) else la.eye(total, base)

    out = []
    for s in range(n + 1):
        # column c of the level's rows is vec(f_s) of basis map c
        vecs = ker[offsets[s]:offsets[s + 1]].T.reshape(ker.shape[1], k[s], r[s])
        comps = np.ascontiguousarray(vecs.transpose(0, 2, 1))
        out.append([_conj(n_lift, f, m_proj, s, base) for f in comps])
    return [MackeyMorphism.at_rest(M0, N0, fs) for fs in zip(*out)]


# --- constructions on functors --------------------------------------------------


def direct_sum(Ms) -> MackeyFunctor:
    if not Ms:
        raise ValueError("empty direct sum")
    for M in Ms[1:]:
        _check_same_base(Ms[0], M)
    g, base = Ms[0].group, Ms[0].base
    n = g.n
    levels = [direct_sum_modules([M.levels[s] for M in Ms]) for s in range(n + 1)]
    res = [la.block_diag([M.res[s] for M in Ms], base) for s in range(n)]
    tr = [la.block_diag([M.tr[s] for M in Ms], base) for s in range(n)]
    weyl = [la.block_diag([M.weyl[s] for M in Ms], base) for s in range(n + 1)]
    return MackeyFunctor.at_rest(g, base, levels, res, tr, weyl,
                                 name=" + ".join(M.name for M in Ms if M.name))


def kernel(f: MackeyMorphism):
    """(K, incl) with K_s = ker f_s.  Levels must be free (always true over a field)."""
    M, N = f.source, f.target
    base = M.base
    F, m_proj, m_lift = _free_presentation(M)
    n_proj = _free_presentation(N)[1]
    bases = [la.nullspace(_conj(n_proj, A, m_lift, s, base), base)
             for s, A in enumerate(f.components)]
    K = spanned(F, bases, f"ker({M.name or '?'} -> {N.name or '?'})")
    return K, MackeyMorphism(K, M, [_conj(m_lift, B, None, s, base) for s, B in enumerate(bases)])


def image(f: MackeyMorphism):
    """(I, incl) with I_s spanned by the columns of f_s inside N_s."""
    N, base = f.target, f.target.base
    F, n_proj, n_lift = _free_presentation(N)
    bases = [la.column_space_basis(_conj(n_proj, A, None, s, base), base)
             for s, A in enumerate(f.components)]
    I = spanned(F, bases, "image")
    return I, MackeyMorphism(I, N, [_conj(n_lift, B, None, s, base) for s, B in enumerate(bases)])


def cokernel(f: MackeyMorphism):
    """(C, proj) with C_s = N_s / im f_s (torsion allowed over Z)."""
    N = f.target
    quots = [reduced_quotient(N.base, lv.gens, la.hstack([A, lv.relations]))
             for A, lv in zip(f.components, N.levels)]
    C = pushed(N, quots, "cokernel")
    return C, MackeyMorphism(N, C, C.projections)


# --- isomorphism testing --------------------------------------------------------


_VERDICTS = ("isomorphic", "not_isomorphic", "inconclusive")


class IsoResult:
    """Outcome of an isomorphism test.

    verdict is one of "isomorphic", "not_isomorphic", "inconclusive";
    witness (when isomorphic) is a MackeyMorphism that is a levelwise
    isomorphism; certificate (when not) names the obstruction.  stats
    records how the search went (see `is_isomorphic`).
    """

    def __init__(self, verdict, witness=None, certificate=None, detail="", stats=None):
        if verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        self.verdict = verdict
        self.witness = witness
        self.certificate = certificate
        self.detail = detail
        self.stats = stats if stats is not None else {}

    def __repr__(self):
        return f"IsoResult({self.verdict}{': ' + self.detail if self.detail else ''})"


_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]

# Z candidates are filtered mod this prime before the exact determinant: a
# unimodular matrix has det = +-1 mod every prime.  h * (P - 1)^2 < 2^63
# keeps the stacked product of h hom-basis rows in int64.
_FILTER_PRIME = 65521

# The most candidates an exhaustive search enumerates (q^h over a field,
# coefficient vectors over Z) and the draws of a random search over a field.
# Over Z: the coefficient bound of the lattice search, and the largest m^h
# of a mod-m certificate search (h the hom rank).
_EXHAUSTIVE_CAP = 200_000
_RANDOM_TRIES = 10_000
_COEFF_BOUND = 5
_MODULUS_CAP = 200_000


class LevelStack:
    """Maps M -> N as coefficient rows over one base: the one way the seeded
    searches (`is_isomorphic`, `kzero.random_green_automorphism` and
    `kzero.decompose_module`) build a candidate map.

    levels[s] holds the level-s components of the h maps (a list of
    matrices or an (h, r, c) array); row i of `rows` is map i flattened, so
    a (C, h) coefficient matrix times it (`products`) gives C combinations
    at once, exactly over Z.  The filters of `is_isomorphic` take a mask of
    each level's own (C, r, r) slice of a product (`level_masks`), one
    batched elimination per level."""

    def __init__(self, source, target, levels, base):
        self.source, self.target, self.base = source, target, base
        self.shapes = [(t.gens, s.gens) for s, t in zip(source.levels, target.levels)]
        h = len(levels[0])
        self.rows = np.concatenate([np.asarray(L).reshape(h, r * c)
                                    for L, (r, c) in zip(levels, self.shapes)], axis=1)
        self.residues = {}          # prime -> the Z rows mod that prime

    def products(self, coeffs):
        """(C, total): row c holds the flattened components of the
        combination with coefficient row c, both in the base's form."""
        return la.mmul(coeffs, self.rows, self.base)

    def components(self, row):
        """The level matrices whose flattened entries are the row, as views
        of it."""
        comps, at = [], 0
        for r, c in self.shapes:
            comps.append(row[at:at + r * c].reshape(r, c))
            at += r * c
        return comps

    def morphism(self, row):
        """The map M -> N whose flattened components are the row."""
        return MackeyMorphism.at_rest(self.source, self.target, self.components(row))

    def level_masks(self, prod, mask, *args):
        """(C, levels): column s is mask(stack, *args) of the (C, r, r)
        stack of the level-s components of the rows of a product."""
        out, at = [], 0
        for r, c in self.shapes:
            # len(prod), not -1: a level of rank 0 is a (C, 0, 0) stack
            out.append(mask(prod[:, at:at + r * c].reshape(len(prod), r, c), *args))
            at += r * c
        return np.stack(out, axis=1)

    def invertible(self, rows):
        """Over a field, for `_first_iso`: the mask of the coefficient rows
        (indices into the field's elements) whose combination is invertible
        at every level, and the map of row i."""
        prod = self.products(la.field_elements(self.base, rows))
        ok = self.level_masks(prod, la.full_rank_mask, self.base).all(axis=1)
        # a witness copies its row, so that it keeps no view of the batch
        return ok, lambda i: self.morphism(prod[i].copy())

    def unit_dets(self, coeffs, p):
        """Over Z: the (C, levels) mask of the level determinants that are
        +-1 mod the prime p, for the integer coefficient rows."""
        field = gf_make(p, 1)
        if p not in self.residues:
            self.residues[p] = la.to_residues(self.rows, p)
        prod = la.mmul(la.coerce(coeffs, field), self.residues[p], field)
        return self.level_masks(prod, la.unit_det_mask, p)

    def unimodular(self, rows):
        """Over Z, for `_first_iso`: the mask of the integer coefficient rows
        whose combination has every level determinant +-1 mod
        _FILTER_PRIME, and the map of row i, the exact combination."""
        ok = self.unit_dets(rows, _FILTER_PRIME).all(axis=1)
        return ok, lambda i: self.morphism(self.products(rows[i:i + 1].astype(object))[0])


def batches(candidates):
    """Lists of the candidates in order, 1, 2, 4, ... up to 1024 at a time,
    each one stack per level for `la.full_rank_mask` or `la.unit_det_mask`."""
    tried = 0
    while batch := list(itertools.islice(candidates, min(1024, tried + 1))):
        yield batch
        tried += len(batch)


def support_rows(h, bound):
    """The nonzero integer rows of length h with entries in [-bound, bound]
    whose first nonzero entry is positive, one of each pair c, -c, as int64
    arrays: by height (the largest |c_i|), then support size, then support
    positions and values in lexicographic order."""
    for height in range(1, bound + 1):
        values = [v for v in range(-height, height + 1) if v]
        for size in range(1, h + 1):
            vals = np.array([v for v in itertools.product(range(1, height + 1),
                                                          *[values] * (size - 1))
                             if height in map(abs, v)], dtype=np.int64)
            for support in itertools.combinations(range(h), size):
                block = np.zeros((len(vals), h), dtype=np.int64)
                block[:, support] = vals
                yield from block


def _first_iso(candidates, passing, phase, stats):
    """The first candidate of the iterable that is a levelwise isomorphism,
    or None.  passing(rows) takes a batch (`batches`) as an array of
    coefficient rows and returns the mask of a necessary condition met at
    every level (`LevelStack.level_masks`) and a function giving the map of
    row i; each row that passes is confirmed by is_level_iso, in order.
    Counts the candidates up to the answer, and those that passed the
    filter, into stats."""
    tried = passed = 0
    for batch in batches(candidates):
        ok, make = passing(np.array(batch))
        for i in np.flatnonzero(ok):
            f = make(i)
            if f.is_level_iso():
                stats["candidates"][phase] = tried + int(i) + 1
                stats["passed_filter"][phase] = passed + int(ok[:i + 1].sum())
                return f
        tried += len(batch)
        passed += int(ok.sum())
    stats["candidates"][phase] = tried
    stats["passed_filter"][phase] = passed
    return None


def is_isomorphic(M: MackeyFunctor, N: MackeyFunctor, seed=None) -> IsoResult:
    """Decide whether M and N are isomorphic Mackey functors.

    Field coefficients: exhaustive search over the hom space when it has at
    most _EXHAUSTIVE_CAP elements, else _RANDOM_TRIES seeded random draws
    (inconclusive on failure), each h draws of `randrange(q)` (indices into
    the field's elements) from the standard library's `random.Random(seed)`,
    the generator of every seeded search in mackeykit.  Integer coefficients
    (levelwise free): a lattice search for a unimodular witness over the
    first _EXHAUSTIVE_CAP // 2 rows of `support_rows` (coefficients within
    _COEFF_BOUND), then a mod-m certificate ruling every hom out (m^h <=
    _MODULUS_CAP).  f and -f are isomorphisms together, so those rows, the
    ones whose first nonzero coefficient is positive, stand for
    _EXHAUSTIVE_CAP vectors: the largest box [-B, B]^h that fits, or at
    h > 11 the +-1 rows of fewest nonzero coefficients.  It draws nothing:
    the seed is not read over Z.

    Candidates are tested in `batches` of 1, 2, 4, ... up to 1024, each one
    product against the `LevelStack` of the hom basis and one batched
    elimination per level of the candidates' level matrices
    (`LevelStack.invertible`, `LevelStack.unimodular`).  Over a field a
    nonzero determinant decides; over Z a determinant that is not +-1 mod
    _FILTER_PRIME rules a candidate out.  A candidate's map is its row of
    the product, over Z of the exact one.  The candidates that pass are
    confirmed with the exact `is_level_iso` in order, so the first witness
    is the one a one-at-a-time search finds.

    The result's stats: "hom_rank", "phase" (the phase that answered:
    "ranks", "hom", "box", "random" (over a field only) or "modulus"; None
    when inconclusive), "candidates" and "passed_filter" (per phase, counted
    up to the answer), "moduli" (tried for a certificate) and "seed" (of the
    random field phase, None when it did not run, and always None over Z).
    """
    _check_same_base(M, N)
    base = M.base
    stats = {"hom_rank": None, "phase": "ranks", "candidates": {}, "passed_filter": {},
             "moduli": [], "seed": None}
    if M.level_dims() != N.level_dims():
        return IsoResult("not_isomorphic",
                         certificate={"reason": "level ranks differ",
                                      "left": M.level_dims(), "right": N.level_dims()},
                         detail="level ranks differ", stats=stats)
    if all(g == 0 for g in M.level_dims()):
        return IsoResult("isomorphic", witness=MackeyMorphism.identity(M),
                         detail="both zero", stats=stats)

    homs = hom_basis(M, N)
    h = stats["hom_rank"] = len(homs)
    stats["phase"] = "hom"
    if h == 0:
        return IsoResult("not_isomorphic", certificate={"reason": "no nonzero homs"},
                         detail="hom group is zero", stats=stats)

    def answer(phase, *args, **kw):
        stats["phase"] = phase
        return IsoResult(*args, **kw, stats=stats)

    stack = LevelStack(M, N, [[f.components[s] for f in homs] for s in range(M.n + 1)], base)
    if base is not ZZ:
        q = base.q
        if q ** h <= _EXHAUSTIVE_CAP:
            f = _first_iso(itertools.product(range(q), repeat=h), stack.invertible, "box", stats)
            if f is not None:
                return answer("box", "isomorphic", witness=f, detail="exhaustive search")
            return answer("box", "not_isomorphic",
                          certificate={"reason": "no iso in the full hom space",
                                       "hom_dim": h},
                          detail="exhausted the hom space")
        stats["seed"] = resolve_seed(seed)
        rng = random.Random(stats["seed"])
        draws = ([rng.randrange(q) for _ in range(h)] for _ in range(_RANDOM_TRIES))
        f = _first_iso(draws, stack.invertible, "random", stats)
        if f is not None:
            return answer("random", "isomorphic", witness=f, detail="random search")
        return answer(None, "inconclusive", detail=f"no witness in {_RANDOM_TRIES} samples")

    if any(lv.relations.shape[1] for lv in M.levels + N.levels):
        raise NotImplementedError("level-iso test needs free levels over Z")
    # integer case: the coefficient rows by height, f and -f once
    rows = itertools.islice(support_rows(h, _COEFF_BOUND), _EXHAUSTIVE_CAP // 2)
    f = _first_iso(rows, stack.unimodular, "box", stats)
    if f is not None:
        return answer("box", "isomorphic", witness=f,
                      detail=f"lattice search, coefficients within {_COEFF_BOUND}")

    # certificate: some prime modulus where no hom is levelwise invertible
    stats["candidates"]["modulus"] = stats["passed_filter"]["modulus"] = 0
    for m in _SMALL_PRIMES:
        if m ** h > _MODULUS_CAP:
            break
        stats["moduli"].append(m)
        level_ok = np.zeros(M.n + 1, dtype=bool)  # did any hom have det = +-1 mod m at level s
        for batch in batches(itertools.product(range(m), repeat=h)):
            good = stack.unit_dets(np.array(batch), m)
            admissible = np.flatnonzero(good.all(axis=1))
            if admissible.size:
                stats["candidates"]["modulus"] += int(admissible[0]) + 1
                stats["passed_filter"]["modulus"] += 1
                break
            stats["candidates"]["modulus"] += len(batch)
            level_ok |= good.any(axis=0)
        else:
            blocking = np.flatnonzero(~level_ok).tolist()
            return answer("modulus", "not_isomorphic",
                          certificate={"modulus": m, "hom_rank": h,
                                       "level": blocking[0] if blocking else None},
                          detail=f"no hom is unimodular mod {m}"
                                 + (f"; level {blocking[0]} alone rules it out"
                                    if blocking else ""))
    return answer(None, "inconclusive",
                  detail="bounded searches found neither witness nor certificate")


def resolve_seed(seed):
    """The seed of a seeded search: seed itself, else $MACKEYKIT_SEED, else 0.
    Raises ValueError, naming the variable, when it is not an integer."""
    if seed is not None:
        return int(seed)
    value = os.environ.get("MACKEYKIT_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"$MACKEYKIT_SEED is {value!r}, not an integer") from None
