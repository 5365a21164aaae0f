"""Class-group level invariants.

Dimension matrices and canonical forms for free modules over a meadow (a
Green functor whose level rings are fields), constructive freeness
decompositions of idempotent images, simple-module counts for twisted cyclic
group rings, G-theory splitting totals, and the explicit four-step resolution
of the constant functor by induced modules.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import linalg as la
from .functors import E1Page, e1_page, free_module
from .green import (GreenFunctor, GreenModule, GreenModuleMorphism,
                    direct_sum_green_modules, green_module_from_invariant_span,
                    green_module_hom_basis, map_from_generator, map_order)
from .gsets import CyclicGroup, burnside_quotient, burnside_ring
from .linalg import ZZ
from .mackey import LevelStack, MackeyFunctor, MackeyMorphism, resolve_seed
from .modules import FPModule, submodule
from .report import CheckReport


# ---------------------------------------------------------------------------
# dimension bookkeeping for free modules over a meadow


def meadow_stabilizer(k: GreenFunctor) -> int:
    """Smallest level r with trivial Weyl action on the bottom coefficients.

    The bottom Weyl map of a meadow has p-power order p^(n-r); from level r on
    the level fields stop shrinking.  Raises ValueError when that order
    passes p^n or is not a power of p.
    """
    p, n = k.p, k.n
    order = map_order(k.underlying.weyl[0], p ** n, k.base)
    for r in range(n, -1, -1):
        if order == p ** (n - r):
            return r
    raise ValueError(f"the bottom Weyl map has order {order}, not a power of {p}")


@dataclass
class DimMatrix:
    """Level dimensions of the free modules F_0..F_n over one meadow.

    alpha[s][i] = dim F_i at level s; gamma is the scaled (r+1)-square whose
    nonzero determinant pins down the multiplicities of F_0..F_{r-1} and F_n.
    """
    p: int
    n: int
    r: int
    dims: tuple
    alpha: object
    gamma: object
    solutions: dict = field(default_factory=dict, repr=False, compare=False)

    def gamma_determinant(self) -> int:
        """det(gamma), exact.  It is nonzero: the level dimensions of the
        canonical generators are independent, so `solve` has at most one
        answer."""
        return la.bareiss_det(self.gamma)

    def solve(self, level_dims):
        """Multiplicities {i: m_i} over the canonical generators, or None.

        Canonical generators are F_0..F_{r-1} and F_n; every other free
        module is a sum of copies of F_n.  Each tuple of level dimensions is
        solved once and kept in `solutions`.
        """
        level_dims = tuple(level_dims)
        if level_dims not in self.solutions:
            cols = list(range(self.r)) + [self.n]
            x = la.solve_int(self.alpha[:, cols], la.mat([[d] for d in level_dims]))
            m = None if x is None else [int(v) for v in x[:, 0]]
            self.solutions[level_dims] = (None if m is None or min(m) < 0
                                          else {i: c for i, c in zip(cols, m) if c})
        out = self.solutions[level_dims]
        return None if out is None else dict(out)


def dim_matrix(k: GreenFunctor) -> DimMatrix:
    """Dimension matrix of the free modules over a meadow, built once and
    kept in k.dim_matrix; callers must not change it."""
    if k.dim_matrix is not None:
        return k.dim_matrix
    p, n = k.p, k.n
    d = k.level_dims()
    r = meadow_stabilizer(k)
    alpha = la.zeros(n + 1, n + 1)
    for s in range(n + 1):
        for i in range(n + 1):
            alpha[s, i] = p ** (n - max(i, s)) * d[min(i, s)]
    gamma = la.zeros(r + 1, r + 1)
    for s in range(r + 1):
        for i in range(r + 1):
            gamma[s, i] = p ** (r - max(s, i))
    k.dim_matrix = DimMatrix(p, n, r, tuple(d), alpha, gamma)
    return k.dim_matrix


def k0_free_fixed_point(p: int, n: int, r: int):
    """Class ring of free modules for a meadow with stabilizer r.

    The ring of the ambient orbit category modulo the ideal identifying the
    orbit at each level s >= r with p^(n-s) copies of the top one; r = n gives
    the full ambient ring back, r = 0 collapses everything to rank one.
    """
    if not 0 <= r <= n:
        raise ValueError(f"stabilizer level {r} is outside 0..{n}")
    G = CyclicGroup(p, n)
    R = burnside_ring(G)
    gens = []
    for s in range(r, n):
        col = la.zeros(R.rank, 1)
        col[s, 0] = 1
        col[n, 0] = -(p ** (n - s))
        gens.append(col)
    return burnside_quotient(R, gens)


@dataclass
class CanonicalFreeClass:
    """A free module written on the canonical generators F_0..F_{r-1}, F_n."""
    p: int
    n: int
    r: int
    mults: dict

    def describe(self) -> str:
        if not self.mults:
            return "0"
        parts = []
        for i in sorted(self.mults):
            m = self.mults[i]
            parts.append(f"F{i}" + (f"^{m}" if m > 1 else ""))
        return " + ".join(parts)


def classify_free(p: int, n: int, r: int, mults, char_is_p: bool = True) -> CanonicalFreeClass:
    """Fold a multiset of free summands {i: m_i} into canonical form.

    In characteristic p each F_i with i >= r splits as p^(n-i) copies of F_n;
    away from characteristic p no folding is available, so only the trivial
    stabilizer r = n is accepted.
    """
    if not char_is_p:
        if r != n:
            raise ValueError("canonical forms away from characteristic p "
                             "need a trivial twist (r = n)")
        return CanonicalFreeClass(p, n, r, {i: m for i, m in dict(mults).items() if m})
    out = {}
    top = 0
    for i, m in dict(mults).items():
        if not m:
            continue
        if not (0 <= i <= n and m > 0):
            raise ValueError(f"free summand F{i} with multiplicity {m}; "
                             f"need 0 <= i <= {n} and a positive multiplicity")
        if i < r:
            out[i] = out.get(i, 0) + m
        else:
            top += m * p ** (n - i)
    if top:
        out[n] = out.get(n, 0) + top
    return CanonicalFreeClass(p, n, r, out)


# ---------------------------------------------------------------------------
# constructive freeness of idempotent images

# Generators tried per free summand by decompose_module, and random
# combinations tried by random_green_automorphism, before giving up.
_SUMMAND_ATTEMPTS = 60
_AUTOMORPHISM_ATTEMPTS = 80


def _zero_green_module(k: GreenFunctor) -> GreenModule:
    base, n = k.base, k.n
    group = k.group
    levels = [FPModule(base, 0) for _ in range(n + 1)]
    z = la.zeros(0, 0)
    und = MackeyFunctor(group, base, levels, [z] * n, [z] * n, [z] * (n + 1))
    action = [[z for _ in range(k.ring(s).rank)] for s in range(n + 1)]
    return GreenModule(k, und, action, name="0")


@dataclass
class FreenessWitness:
    """A verified decomposition of an idempotent image into free summands."""
    classification: CanonicalFreeClass
    image: GreenModule
    inclusion: GreenModuleMorphism
    model: GreenModule
    witness: GreenModuleMorphism
    report: CheckReport

    @property
    def ok(self) -> bool:
        return self.report.ok


def freeness_decompose(k: GreenFunctor, F: GreenModule, idem, seed=None) -> FreenessWitness:
    """Split the image of an idempotent endomorphism of F into free modules.

    Works over meadows with field coefficients.  The multiplicities come from
    the dimension matrix; the isomorphism is built greedily by sampling
    generators whose structure maps stay levelwise injective, and the returned
    witness has been checked as a module isomorphism.
    """
    base = k.base
    if base is ZZ:
        raise ValueError("freeness decompositions run over field coefficients")
    e = GreenModuleMorphism(F, F, idem.components if isinstance(idem, GreenModuleMorphism)
                            else idem)
    comps = e.components
    rep = e.check()
    if not rep.ok:
        raise ValueError("endomorphism does not respect the module structure")
    for s, c in enumerate(comps):
        sq = la.mmul(c, c, base)
        if not la.mat_eq(sq, c):
            raise ValueError(f"endomorphism is not idempotent at level {s}")

    P, incl = green_module_from_invariant_span(F, comps)
    return decompose_module(k, P, seed=seed, inclusion=incl)


def decompose_module(k: GreenFunctor, P: GreenModule, seed=None,
                     inclusion=None) -> FreenessWitness:
    """Write P as a verified direct sum of free modules over the meadow k.

    The multiplicities come from the dimension matrix.  A summand F_i takes
    the first generator (the standard columns of P(i), then seeded draws,
    at most _SUMMAND_ATTEMPTS) that keeps the assembled map levelwise
    injective; each is a coefficient row against the Yoneda maps F_i -> P,
    built once per level.  The square map is then checked as a module
    isomorphism.
    """
    base = k.base
    if base is ZZ:
        raise ValueError("freeness decompositions run over field coefficients")
    dm = dim_matrix(k)
    mults = dm.solve(tuple(P.level_dims()))
    if mults is None:
        raise ValueError("module dimensions do not match any sum of free modules")
    canon = CanonicalFreeClass(k.p, k.n, dm.r, mults)

    summands = [i for i in sorted(mults) for _ in range(mults[i])]
    if not summands:
        zero = _zero_green_module(k)
        wit = GreenModuleMorphism(zero, P,
                                  [la.zeros(d, 0) for d in P.level_dims()])
        return FreenessWitness(canon, P, inclusion, zero, wit, wit.check())

    rng = random.Random(resolve_seed(seed))
    stacks = {}
    stacked = [la.zeros(d, 0, base) for d in P.level_dims()]
    for i in summands:
        gdim = P.underlying.levels[i].gens
        if i not in stacks:
            # the Yoneda maps F_i -> P: column w * gdim + a of a level
            # belongs to the map sending the generator to e_a
            yoneda = map_from_generator(P, i, la.eye(gdim, base))
            stacks[i] = LevelStack(free_module(k, i).underlying, P.underlying,
                                   [Y.reshape(len(Y), -1, gdim).transpose(2, 0, 1)
                                    for Y in yoneda], base)
        for trial in range(_SUMMAND_ATTEMPTS):
            if trial < gdim:        # the standard column e_trial: its own row
                row = stacks[i].rows[trial]
            else:
                x = la.field_elements(base, [[rng.randrange(base.q) for _ in range(gdim)]])
                row = stacks[i].products(x)[0]
            block = stacks[i].components(row)
            cand = [la.hstack([S, B]) for S, B in zip(stacked, block)]
            if all(la.rank(C, base) == C.shape[1] for C in cand):
                stacked = cand
                break
        else:
            raise ValueError(f"could not place a free summand at level {i}; "
                             "the module may not be free")

    model = direct_sum_green_modules([free_module(k, i) for i in summands])
    witness = GreenModuleMorphism(model, P, MackeyMorphism.at_rest(model.underlying,
                                                                   P.underlying, stacked))
    rep = witness.check()
    if rep.ok and not witness.is_level_iso():
        rep.add("iso", "levels", "constructed map is not a levelwise isomorphism")
    return FreenessWitness(canon, P, inclusion, model, witness, rep)


def random_green_automorphism(M: GreenModule, seed=None):
    """Seeded random module automorphism of M (field coefficients): the
    first levelwise invertible one of _AUTOMORPHISM_ATTEMPTS random
    combinations of the hom basis, else ValueError."""
    base = M.ring.base
    if base is ZZ:
        raise ValueError("random automorphisms need field coefficients")
    basis = green_module_hom_basis(M, M)
    stack = LevelStack(M.underlying, M.underlying,
                       [[h.components[s] for h in basis] for s in range(M.n + 1)], base)
    rng = random.Random(resolve_seed(seed))
    for _ in range(_AUTOMORPHISM_ATTEMPTS):
        coeffs = la.field_elements(base, [[rng.randrange(base.q) for _ in basis]])
        g = GreenModuleMorphism(M, M, stack.morphism(stack.products(coeffs)[0]))
        if g.is_level_iso():
            return g
    raise ValueError("no automorphism found; the endomorphism ring may be too thin")


def invert_module_iso(g: GreenModuleMorphism) -> GreenModuleMorphism:
    """Inverse of a levelwise isomorphism over a field; ValueError when a
    component is singular."""
    base = g.source.ring.base
    comps = [la.inv_field(c, base) for c in g.components]
    if any(c is None for c in comps):
        raise ValueError("the map is not a levelwise isomorphism")
    return GreenModuleMorphism(g.target, g.source, MackeyMorphism.at_rest(
        g.target.underlying, g.source.underlying, comps))


# ---------------------------------------------------------------------------
# simple modules of twisted cyclic group rings


def simples_count(q: int, order: int, char_equals_p: bool) -> int:
    """Number of simple modules of F_q[C_order], and of any matrix ring over
    it (Morita equivalent, so the matrix part is not an argument).

    In the group's own characteristic the augmentation is the only simple.
    Otherwise simples biject with q-power cyclotomic cosets modulo the order.
    Raises ValueError unless order >= 1 and q >= 2.
    """
    if order < 1 or q < 2:
        raise ValueError(f"simples of F_{q}[C_{order}]: need order >= 1 and q >= 2")
    if char_equals_p:
        return 1
    seen = set()
    count = 0
    for a in range(order):
        if a in seen:
            continue
        count += 1
        b = a
        while b not in seen:
            seen.add(b)
            b = (b * q) % order
    return count


@dataclass
class G0Splitting:
    """Simple-module counts attached to each page-one column."""
    page: E1Page
    term_ranks: list
    total: object               # int when every column is counted, else None
    certified: bool             # splitting established and all columns counted

    def describe(self) -> str:
        lines = [self.page.describe()]
        shown = []
        for term, rank in zip(self.page.terms, self.term_ranks):
            shown.append(f"{term.label}:{rank if rank is not None else '?'}")
        lines.append("  G0 ranks " + " + ".join(shown) +
                     f" -> total {self.total if self.total is not None else 'unknown'}"
                     f" ({'certified' if self.certified else 'not certified'})")
        return "\n".join(lines)


def g0_splitting(R: GreenFunctor) -> G0Splitting:
    """Count simples along the page-one columns and total them when the
    splitting is established."""
    page = e1_page(R)
    ranks = []
    for term in page.terms:
        if term.fixed_order is not None:
            ranks.append(simples_count(term.fixed_order, term.inner_order,
                                       term.char_equals_p))
        else:
            ranks.append(None)
    known = all(r is not None for r in ranks)
    total = sum(ranks) if known else None
    certified = known and page.splitting in ("total", "single-term")
    return G0Splitting(page, ranks, total, certified)


# ---------------------------------------------------------------------------
# the resolution of the constant functor


@dataclass
class ResolutionReport:
    """Outcome of checking the explicit induced resolution of the constant
    functor over C_p."""
    p: int
    maps_ok: bool
    exact: list                 # one flag per internal spot, ends first
    alternating_rank_zero: bool
    report: CheckReport

    @property
    def ok(self) -> bool:
        return self.maps_ok and all(self.exact) and self.alternating_rank_zero


def _exact_at(f: MackeyMorphism, g: MackeyMorphism) -> bool:
    """Levelwise image(f) = kernel(g) inside the middle functor.  The
    kernel of g_s is spanned by the relations of the submodule g_s spans,
    which are exactly the x with g_s x in the relations of its target."""
    mid = f.target
    for s in range(mid.n + 1):
        rel = mid.levels[s].relations
        im = la.column_lattice_basis(la.hstack([f.components[s], rel]))
        ker = submodule(g.target.levels[s], g.components[s])[0].relations
        if not la.lattice_equal(im, la.column_lattice_basis(la.hstack([ker, rel]))):
            return False
    return True


def constant_Z_resolution_check(p: int) -> ResolutionReport:
    """Verify the four-step resolution of the constant functor by induced ones.

    0 -> Z -> Ind(Z) -> Ind(Z) -> Z -> (Z/p at the top, 0 below) -> 0 over
    C_p, with the alternating sum of levelwise free ranks vanishing.
    """
    from .functors import induce_mackey
    from .mackey import constant_mackey

    G = CyclicGroup(p, 1)
    Zbar = constant_mackey(G, ZZ)
    Ind = induce_mackey(constant_mackey(CyclicGroup(p, 0), ZZ), 1)
    top = FPModule(ZZ, 1, la.mat([[p]]))
    M = MackeyFunctor(G, ZZ, [FPModule(ZZ, 0), top],
                      [la.zeros(0, 1)], [la.zeros(1, 0)],
                      [la.eye(0), la.eye(1)], name="Z/p at top")

    ones_col = la.zeros(p, 1)
    for j in range(p):
        ones_col[j, 0] = 1
    shift = la.zeros(p, p)
    for j in range(p):
        shift[(j + 1) % p, j] = 1
    alpha = MackeyMorphism(Zbar, Ind, [ones_col, la.eye(1)])
    beta = MackeyMorphism(Ind, Ind, [shift - la.eye(p), la.zeros(1, 1)])
    gamma = MackeyMorphism(Ind, Zbar, [ones_col.T.copy(),
                                       la.scalar_mul(p, la.eye(1))])
    delta = MackeyMorphism(Zbar, M, [la.zeros(0, 1), la.eye(1)])

    rep = CheckReport(f"resolution of constant Z over C{p}")
    for nm, f in [("alpha", alpha), ("beta", beta), ("gamma", gamma), ("delta", delta)]:
        sub = f.check()
        if not sub.ok:
            for v in sub.violations:
                rep.add(v.kind, f"{nm}:{v.where}", v.detail)
    maps_ok = rep.ok

    # left end: alpha injective on every level
    inj = all(la.nullspace_int(alpha.components[s]).shape[1] == 0 for s in range(2))
    if not inj:
        rep.add("exactness", "left end", "first map fails to be injective")
    spots = [inj and _exact_at(alpha, beta),
             _exact_at(beta, gamma),
             _exact_at(gamma, delta)]
    # right end: delta surjective mod relations
    surj = True
    for s in range(2):
        full = la.column_lattice_basis(
            la.hstack([delta.components[s], M.levels[s].relations]))
        want = la.eye(M.levels[s].gens)
        if not la.lattice_equal(full, la.column_lattice_basis(want)):
            surj = False
    if not surj:
        rep.add("exactness", "right end", "last map fails to be surjective")
    spots = [inj] + spots + [surj]

    ranks = [Zbar, Ind, Ind, Zbar, M]
    alt = [0, 0]
    sign = 1
    for X in ranks:
        for s in range(2):
            alt[s] += sign * X.levels[s].free_rank
        sign = -sign
    alternating_zero = alt == [0, 0]
    if not alternating_zero:
        rep.add("class", "alternating sum", f"free ranks add to {alt}")

    for i, flag in enumerate(spots):
        if not flag:
            rep.add("exactness", f"spot {i}", "homology does not vanish")
    return ResolutionReport(p, maps_ok, spots, alternating_zero, rep)
