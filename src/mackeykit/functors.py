"""Change-of-group operations and derived constructions.

Restriction and induction along subgroups of a cyclic p-group, free modules
on one orbit generator, truncation, geometric fixed points, and the page-one
bookkeeping used to split G-theory into twisted group-ring pieces.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import linalg as la
from .fields import gf_make, is_prime
from .green import GreenFunctor, GreenModule, TwistedGroupRing, twisted_group_ring
from .gsets import CyclicGroup
from .linalg import ZZ
from .mackey import MackeyFunctor, pushed
from .modules import FPModule, direct_sum_modules, reduced_quotient
from .rings import BasedRing, quotient_ring, ring_is_field


# ---------------------------------------------------------------------------
# restriction / induction


def restrict_mackey(M, m: int):
    """Restrict along C_{p^m} <= C_{p^n}: keep levels 0..m, power up the Weyl maps.

    Accepts a plain Mackey functor or a Green functor (level rings come along).
    """
    if isinstance(M, GreenFunctor):
        und = restrict_mackey(M.underlying, m)
        return GreenFunctor(und, M.level_rings[: m + 1],
                            name=f"res_{m}({M.name})" if M.name else "")
    if not 0 <= m <= M.n:
        raise ValueError(f"restriction to C_{M.p}^{m} of a functor over {M.group}")
    group = CyclicGroup(M.p, m)
    step = M.p ** (M.n - m)
    weyl = [la.mpow(M.weyl[s], step, base=M.base) for s in range(m + 1)]
    return MackeyFunctor(group, M.base, M.levels[: m + 1],
                         M.res[:m], M.tr[:m], weyl,
                         name=f"res_{m}({M.name})" if M.name else "")


def induce_mackey(M: MackeyFunctor, n: int) -> MackeyFunctor:
    """Induce from C_{p^m} up to C_{p^n} (n >= m).

    Level s carries p^(n - max(s, m)) copies of M at level min(s, m), one per
    coset; the Weyl map permutes copies cyclically, with the inner Weyl map of
    the smaller group appearing on the wrap-around at levels below m.
    Restriction into the range s >= m duplicates components; transfer sums the
    duplication fibers.

    Induced from the trivial group (m = 0) with no relations, M = base^r,
    the result is free over the Burnside functor on the r generators of
    level 0, copy 0; it records r as induced_free_rank, which `hom_basis`
    reads.
    """
    if isinstance(M, GreenFunctor):
        raise TypeError("induction of a Green functor is only a module, "
                        "not a ring; induce the underlying Mackey functor")
    p, m, base = M.p, M.n, M.base
    if n < m:
        raise ValueError(f"induction from C_{p}^{m} to the smaller C_{p}^{n}")
    group = CyclicGroup(p, n)

    def copies(s):
        return p ** (n - max(s, m))

    def comp(s):
        return M.levels[min(s, m)]

    levels = [direct_sum_modules([comp(s)] * copies(s)) for s in range(n + 1)]

    res, tr = [], []
    for s in range(n):
        cs, cs1 = copies(s), copies(s + 1)
        ds, ds1 = comp(s).gens, comp(s + 1).gens
        R = la.zeros(cs * ds, cs1 * ds1, base)
        T = la.zeros(cs1 * ds1, cs * ds, base)
        if s + 1 <= m:
            for j in range(cs):
                R[j * ds:(j + 1) * ds, j * ds1:(j + 1) * ds1] = M.res[s]
                T[j * ds1:(j + 1) * ds1, j * ds:(j + 1) * ds] = M.tr[s]
        else:
            I = la.eye(ds, base)
            for j in range(cs):
                jt = j % cs1
                R[j * ds:(j + 1) * ds, jt * ds:(jt + 1) * ds] = I
                T[jt * ds:(jt + 1) * ds, j * ds:(j + 1) * ds] = I
        res.append(R)
        tr.append(T)

    weyl = []
    for s in range(n + 1):
        c, d = copies(s), comp(s).gens
        W = la.zeros(c * d, c * d, base)
        I = la.eye(d, base)
        wrap = M.weyl[s] if s <= m else I
        for j in range(c - 1):
            W[(j + 1) * d:(j + 2) * d, j * d:(j + 1) * d] = I
        W[0:d, (c - 1) * d:c * d] = wrap
        weyl.append(W)

    out = MackeyFunctor(group, base, levels, res, tr, weyl,
                        name=f"ind^{n}({M.name})" if M.name else "")
    if m == 0 and not M.levels[0].relations.shape[1]:
        out.induced_free_rank = M.levels[0].gens
    return out


# ---------------------------------------------------------------------------
# free modules on one generator


def free_module(R: GreenFunctor, i: int) -> GreenModule:
    """Free module on one generator at level i: the restricted ring induced back up.

    A ring element at level s acts on the copy over coset j through the chain
    restriction to level u = min(i, s) followed by the j-fold inverse Weyl
    twist.  The canonical generator is the unit of R(i) in copy 0.  The
    module records free_levels = (i,), which `green_module_hom_basis` reads.

    Each (ring, level) module is built once and kept in R.free_modules, so a
    repeated call returns the same object; callers must not change it.
    """
    if not 0 <= i <= R.n:
        raise ValueError(f"free module at level {i} of a functor with levels 0..{R.n}")
    if i not in R.free_modules:
        R.free_modules[i] = _build_free_module(R, i)
    return R.free_modules[i]


def _build_free_module(R: GreenFunctor, i: int) -> GreenModule:
    p, n, base = R.p, R.n, R.base
    und = induce_mackey(restrict_mackey(R.underlying, i), n)
    M = R.underlying

    action = []
    for s in range(n + 1):
        u = min(i, s)
        ru = R.ring(u)
        c = p ** (n - max(i, s))
        rank = R.ring(s).rank
        resc = la.mmul_chain(*M.res[u:s], la.eye(rank, base), base=base)
        winv = la.mpow(M.weyl[u], p ** (n - u) - 1, base=base)
        # copy j of element e: left multiplication by winv^j res(e), twists column j * rank + e
        mults = ru.left_mult_matrices(la.orbit(winv, resc, c, base))
        action.append([la.block_diag([mults[j * rank + e] for j in range(c)], base)
                       for e in range(rank)])

    F = GreenModule(R, und, action, name=f"F{i}({R.name})" if R.name else f"F{i}")
    F.free_levels = (i,)
    return F


# ---------------------------------------------------------------------------
# truncation


def tau_geq_1(X):
    """Drop the bottom level; the result lives one group stage down.

    Dispatches on Mackey functors, Green functors, and modules over them (a
    module comes back over a freshly truncated ring).
    """
    if isinstance(X, GreenModule):
        ring = tau_geq_1(X.ring)
        und = tau_geq_1(X.underlying)
        return GreenModule(ring, und, X.action[1:],
                           name=f"tau>=1 {X.name}" if X.name else "")
    if isinstance(X, GreenFunctor):
        return GreenFunctor(tau_geq_1(X.underlying), X.level_rings[1:],
                            name=f"tau>=1 {X.name}" if X.name else "")
    if X.n < 1:
        raise ValueError("nothing below the bottom level")
    group = CyclicGroup(X.p, X.n - 1)
    return MackeyFunctor(group, X.base, X.levels[1:], X.res[1:], X.tr[1:],
                         X.weyl[1:], name=f"tau>=1 {X.name}" if X.name else "")


def brutal_truncation(M: MackeyFunctor) -> MackeyFunctor:
    """Replace the bottom level by zero, keeping the group."""
    if M.n < 1:
        raise ValueError("brutal truncation needs n >= 1")
    base = M.base
    g1 = M.levels[1].gens
    levels = [FPModule(base, 0)] + list(M.levels[1:])
    res = [la.zeros(0, g1)] + list(M.res[1:])
    tr = [la.zeros(g1, 0)] + list(M.tr[1:])
    weyl = [la.eye(0)] + list(M.weyl[1:])
    return MackeyFunctor(M.group, base, levels, res, tr, weyl,
                         name=f"trunc({M.name})" if M.name else "")


# ---------------------------------------------------------------------------
# geometric fixed points


def geometric_fixed_points(X):
    """Quotient of tau>=1 by the subfunctor the bottom level transfers up.

    For a Green functor the transferred span is an ideal at each level, so the
    level rings descend to the quotient; torsion quotients over Z are refused.
    """
    return _gfp_green(X) if isinstance(X, GreenFunctor) else _gfp_mackey(X)


def _gfp_mackey(M: MackeyFunctor):
    if M.n < 1:
        raise ValueError("geometric fixed points need n >= 1")
    base, n = M.base, M.n
    spans = [None] * (n + 1)
    spans[1] = la.column_space_basis(M.tr[0], base)
    for s in range(1, n):
        spans[s + 1] = la.column_space_basis(la.mmul(M.tr[s], spans[s], base), base)
    # close under all structure maps (usually already stable)
    changed = True
    while changed:
        changed = False
        for s in range(1, n + 1):
            cand = [spans[s], la.mmul(M.weyl[s], spans[s], base)]
            if s < n:
                cand.append(la.mmul(M.res[s], spans[s + 1], base))
            if s >= 2:
                cand.append(la.mmul(M.tr[s - 1], spans[s - 1], base))
            new = la.column_space_basis(la.hstack(cand), base)
            if la.solve(spans[s], new, base) is None:      # the span grew
                spans[s] = new
                changed = True

    quots = [reduced_quotient(base, M.levels[s].gens,
                              la.hstack([spans[s], M.levels[s].relations]))
             for s in range(1, n + 1)]
    return pushed(tau_geq_1(M), quots, name=f"phi({M.name})" if M.name else "")


def _gfp_green(R: GreenFunctor) -> GreenFunctor:
    N = _gfp_mackey(R.underlying)
    rings = []
    for s in range(1, R.n + 1):
        if not N.levels[s - 1].is_free:
            raise NotImplementedError(
                "geometric fixed points of this ring have torsion coefficients")
        rings.append(quotient_ring(R.ring(s), N.projections[s - 1], N.lifts[s - 1], R.base))
    return GreenFunctor(N, rings, name=f"phi({R.name})" if R.name else "")


# ---------------------------------------------------------------------------
# level rings of iterated fixed points


@dataclass
class PhiLevel:
    """Level-m coefficient ring after collapsing all transfers from below."""
    ring: BasedRing | None
    proj: object
    lift: object
    invariants: list
    description: str

    @property
    def rank(self) -> int:
        return 0 if self.ring is None else self.ring.rank

    @property
    def is_zero(self) -> bool:
        return self.ring is None and not self.invariants


def phi_ring(R: GreenFunctor, m: int) -> PhiLevel:
    """Coefficient ring R(m) / (image of the transfer from level m-1).

    The image is an ideal by the projection formula, so the quotient is a
    ring.  Over Z a purely p-torsion quotient is repackaged over GF(p); other
    torsion is reported descriptively with ring=None.
    """
    if not 0 <= m <= R.n:
        raise ValueError(f"stage {m} is outside 0..{R.n}")
    base = R.base
    ring = R.ring(m)
    if m == 0:
        I = la.eye(ring.rank, base)
        return PhiLevel(ring, I, I, [0] * ring.rank, "full level 0")
    span = R.underlying.tr[m - 1]
    Q, proj, lift = reduced_quotient(base, ring.rank, span)
    if Q.gens == 0:
        z = la.zeros(0, ring.rank, base)
        return PhiLevel(None, z, z.T.copy(), [], "zero ring")

    if base is not ZZ:
        return PhiLevel(quotient_ring(ring, proj, lift, base), proj, lift,
                        [0] * Q.gens, "field quotient")

    invf = Q.invariant_factors()
    if Q.is_free:
        return PhiLevel(quotient_ring(ring, proj, lift, ZZ), proj, lift, invf,
                        "free quotient over Z")
    torsion = [d for d in invf if d != 0]
    frees = [d for d in invf if d == 0]
    prm = torsion[0]
    if not frees and all(d == prm for d in torsion) and is_prime(prm):
        F = gf_make(prm, 1)
        return PhiLevel(quotient_ring(ring, proj, lift, F), proj, lift, invf,
                        f"Z-quotient reduced mod {prm}")
    return PhiLevel(None, proj, lift, invf,
                    f"Z-module with invariant factors {invf}")


# ---------------------------------------------------------------------------
# the page-one description of G-theory


@dataclass
class E1Term:
    """One column: the level ring of iterated fixed points, twisted back up."""
    t: int
    order: int                       # cyclic factor acting on the level ring
    phi: PhiLevel
    twisted: TwistedGroupRing | None
    label: str
    char_equals_p: bool | None = None
    matrix_side: int = 1             # full-matrix part split off by the twist
    inner_order: int = 1             # residual cyclic factor after that split
    fixed_order: int | None = None   # size of the twist-fixed subfield


@dataclass
class E1Page:
    group: CyclicGroup
    terms: list
    transfers_zero: bool
    transfers_surjective: bool
    splitting: str                   # "total" | "single-term" | "unknown"
    section: object = None
    notes: list = field(default_factory=list)

    def describe(self) -> str:
        lines = [f"E1 page over C{self.group.order}:"]
        for term in self.terms:
            lines.append(f"  t={term.t}: {term.label}")
        lines.append(f"  transfers zero: {'yes' if self.transfers_zero else 'no'};"
                     f" surjective: {'yes' if self.transfers_surjective else 'no'};"
                     f" splitting: {self.splitting}")
        lines.extend("  " + note for note in self.notes)
        return "\n".join(lines)


def _transfers_all_zero(M: MackeyFunctor) -> bool:
    return all(la.is_zero_mat(M.tr[s]) for s in range(M.n))


def _transfers_all_surjective(M: MackeyFunctor) -> bool:
    """Whether every transfer has a right inverse, which over Z and over a
    field is what makes it surjective."""
    return all(la.solve(M.tr[s], la.eye(M.levels[s + 1].gens, M.base), M.base) is not None
               for s in range(M.n))


def _term_for(R: GreenFunctor, t: int, ph: PhiLevel) -> E1Term:
    p, n = R.p, R.n
    order = p ** (n - t)
    if ph.ring is None:
        return E1Term(t, order, ph, None, f"[{ph.description}] with C_{order}-twist")
    # the Weyl action on the level ring, over that ring's base (Z reduced mod p)
    theta = la.coerce(la.mmul_chain(ph.proj, R.underlying.weyl[t], ph.lift, base=R.base),
                      ph.ring.base)
    tw = twisted_group_ring(ph.ring, order, theta)
    if ph.ring.base is not ZZ and ring_is_field(ph.ring):
        q0 = ph.ring.base.p ** ph.ring.base.k
        side = tw.theta_power_order()
        inner = order // side
        delta = la.sub(theta, la.eye(ph.ring.rank, ph.ring.base), ph.ring.base)
        fixed_dim = ph.ring.rank - la.rank(delta, ph.ring.base)
        fixed = q0 ** fixed_dim
        core = f"F{fixed}" if inner == 1 else f"F{fixed}[C{inner}]"
        label = core if side == 1 else f"Mat{side}({core})"
        return E1Term(t, order, ph, tw, label,
                      char_equals_p=(ph.ring.base.p == p),
                      matrix_side=side, inner_order=inner, fixed_order=fixed)
    if ph.ring.base is ZZ:
        coeff = "Z" if ph.ring.rank == 1 else f"Z-rank-{ph.ring.rank}"
    else:
        coeff = f"GF({ph.ring.base.p}^{ph.ring.base.k})-algebra-rank-{ph.ring.rank}"
    label = coeff if order == 1 else f"{coeff}[C{order}]"
    return E1Term(t, order, ph, tw, label)


# Bounds of ring_section_search: integer kernel coefficients lie in
# [-_SECTION_BOUND, _SECTION_BOUND], and at most _SECTION_CAP candidates are tried.
_SECTION_BOUND = 2
_SECTION_CAP = 200_000


def ring_section_search(R: GreenFunctor):
    """Multiplicative unital section of R(1) ->> R(1)/im(tr), or None.

    Bounded search: over a field every candidate is tried (within
    _SECTION_CAP); over Z kernel coefficients range over [-_SECTION_BOUND,
    _SECTION_BOUND].  Only the one-stage case is attempted.
    """
    if R.n != 1:
        raise ValueError("section search only runs one stage at a time")
    base = R.base
    ph = phi_ring(R, 1)
    if ph.ring is None or (base is ZZ and ph.ring.base is not ZZ):
        return None
    r1 = R.ring(1)
    qr = ph.ring.rank
    K = la.nullspace(ph.proj, base)
    k = K.shape[1]

    def is_section(sigma):
        return (la.mat_eq(la.mmul(sigma, ph.ring.unit, base), r1.unit)
                and la.mat_eq(la.mmul(sigma, ph.ring.mult.T, base), r1.products(sigma, sigma)))

    if k == 0:
        sigma = ph.lift
        return sigma if is_section(sigma) else None

    if base is ZZ:
        coeffs = range(-_SECTION_BOUND, _SECTION_BOUND + 1)
    elif base.q ** (k * qr) <= _SECTION_CAP:     # list the field only when the search runs
        coeffs = list(base.elements())
    else:
        return None
    if len(coeffs) ** (k * qr) > _SECTION_CAP:
        return None
    for picks in itertools.product(coeffs, repeat=k * qr):
        X = la.zeros(k, qr, base)
        X.reshape(-1)[:] = picks
        sigma = la.add_scaled(ph.lift, la.mmul(K, X, base), 1, base)
        if is_section(sigma):
            return sigma
    return None


def _section_obstruction(ph: PhiLevel):
    """c > 0 when ph, the stage-1 level R(1)/im(tr), is a Z-module of
    characteristic c, else None.  Then no unital ring map R(1)/im(tr) ->
    R(1) exists: it would send c . 1 = 0 to c . 1, which is not 0 in the
    torsion-free R(1)."""
    invariants = ph.invariants
    if not invariants or 0 in invariants:   # zero, or a free part (every field quotient)
        return None
    return math.lcm(*invariants)


def e1_page(R: GreenFunctor) -> E1Page:
    """Columns of the page: each level ring of iterated fixed points, twisted
    by the residual cyclic action, together with whether the underlying
    filtration is known to split."""
    M = R.underlying
    p, n = R.p, R.n
    tz = _transfers_all_zero(M)
    tsur = _transfers_all_surjective(M)

    phis = [phi_ring(R, t) for t in range(n + 1)]
    terms = [_term_for(R, t, ph) for t, ph in enumerate(phis) if not ph.is_zero]

    notes = []
    section = None
    if tz:
        splitting = "total"
        notes.append("all transfers vanish: each truncation maps isomorphically "
                     "to its fixed points, so the identity is a section")
    elif tsur:
        splitting = "single-term"
        notes.append("transfers are surjective: every higher column collapses "
                     "to zero and only t=0 survives")
    elif n == 1:
        c = _section_obstruction(phis[1])
        section = None if c else ring_section_search(R)
        if section is not None:
            splitting = "total"
            notes.append("found a multiplicative section of the level-1 "
                         "projection by bounded search")
        elif c:
            splitting = "unknown"
            notes.append(f"no section exists: R(1)/im(tr) has characteristic {c}, "
                         f"but {c} * 1 != 0 in R(1); a splitting may still exist")
        else:
            splitting = "unknown"
            notes.append("no section found within the search bounds")
    else:
        splitting = "unknown"
        notes.append("splitting beyond one stage is not searched")
    return E1Page(M.group, terms, tz, tsur, splitting, section, notes)
