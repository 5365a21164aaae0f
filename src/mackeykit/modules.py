"""Finitely presented modules over Z or a finite field.

A module is generators + integer relation columns.  A field module has no
relations, so it is just a vector space; the methods rely on this and decide
by whether there are relations, not by the base.  Quotients come with
projection and lift matrices so maps can be pushed through presentations
exactly.
"""

from __future__ import annotations

from . import linalg as la
from .linalg import ZZ


class FPModule:
    """Z^gens / col-span(relations), or F^gens when base is a field."""

    def __init__(self, base, gens: int, relations=None):
        self.base = base
        self.gens = int(gens)
        if relations is not None:
            if base is not ZZ and relations.shape[1]:
                raise ValueError("field modules carry no relations")
            if relations.shape[0] != self.gens:
                raise ValueError(f"{relations.shape[0]} relation rows for {self.gens} generators")
        if relations is None or not relations.shape[1]:
            self.relations = la.zeros(self.gens, 0, base)
        else:
            self.relations = la.coerce(relations, base)

    # -- structure ---------------------------------------------------------

    def smith(self):
        return la.smith_normal_form(self.relations)

    def invariant_factors(self) -> list[int]:
        """Torsion coefficients d with 1 < d, plus 0 once per free rank."""
        if not self.relations.shape[1]:
            return [0] * self.gens
        diag = self.smith().diagonal
        tors = [d for d in diag if d not in (0, 1)]
        rank = self.gens - sum(1 for d in diag if d != 0)
        return tors + [0] * rank

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.invariant_factors() if d == 0)

    @property
    def is_zero(self) -> bool:
        return not self.invariant_factors()

    @property
    def is_free(self) -> bool:
        return all(d == 0 for d in self.invariant_factors())

    # -- element/matrix tests modulo relations ------------------------------

    def annihilates(self, cols) -> bool:
        """Whether every column lies in the relation span (i.e. is 0 in the module)."""
        if cols.shape[1] == 0:
            return True
        if not self.relations.shape[1]:
            return la.is_zero_mat(cols)
        return la.solve_int(self.relations, cols) is not None

    def maps_equal(self, A, B) -> bool:
        """A == B as maps into this module (columns compared mod relations)."""
        if A.shape != B.shape:
            return False
        if not self.relations.shape[1]:
            return la.mat_eq(A, B)
        return self.annihilates(A - B)

    def describe(self) -> str:
        if self.base is not ZZ:
            return f"{self.base!r}^{self.gens}"
        parts = [f"Z/{d}" for d in self.invariant_factors() if d] + \
                ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FPModule({self.describe()})"


def reduced_quotient(base, gens: int, rel_cols):
    """Quotient of base^gens by a relation span, with projection and lift.

    Returns (Q, proj, lift): proj is (Q.gens x gens), lift (gens x Q.gens),
    proj @ lift = identity on Q's generators, and proj kills the span.
    Over Z, generators with invariant factor 1 are eliminated; surviving
    torsion stays in Q.relations.

    Over a field one elimination gives both.  Let R be the reduced echelon
    form of [rel_cols | I], c = rel_cols.shape[1].  Its pivots are a basis
    of the span (the r pivots left of c), then the standard vectors that
    complete it, chosen greedily; lift is those standard vectors, and with
    C = [span columns | lift], proj = C^-1[r:] is R[r:, c:].  For [rel_cols | I]
    has full row rank, so R = E [rel_cols | I] with E = R[:, c:] invertible.
    Rows r: of R have their pivots at or past c, so they are zero on the
    first c columns: R[r:, c:] rel_cols = 0, which kills the span.  On
    the pivot columns of the lift they read as the identity (R is reduced),
    so R[r:, c:] C = [0 | I], the defining rows of C^-1[r:].
    """
    if base is not ZZ:
        c = rel_cols.shape[1]
        ident = la.eye(gens, base)
        R, pivots = la.rref(la.hstack([rel_cols, ident]), base)
        r = sum(1 for j in pivots if j < c)
        lift = ident[:, [j - c for j in pivots[r:]]]
        return FPModule(base, gens - r), R[r:, c:].copy(), lift

    s = la.smith_normal_form(rel_cols)
    diag = s.diagonal
    keep = [i for i in range(gens) if i >= len(diag) or diag[i] != 1]
    proj = s.U[keep, :].copy() if keep else la.zeros(0, gens)
    lift = s.Uinv[:, keep].copy() if keep else la.zeros(gens, 0)
    rel = la.zeros(len(keep), 0)
    tors = [(pos, diag[i]) for pos, i in enumerate(keep)
            if i < len(diag) and diag[i] != 0]
    if tors:
        rel = la.zeros(len(keep), len(tors))
        for c, (pos, d) in enumerate(tors):
            rel[pos, c] = d
    Q = FPModule(ZZ, len(keep), rel)
    return Q, proj, lift


def quotient_by_submodule(M: FPModule, span):
    """(Q, proj, lift) for M / <span>, span given in M's generator coordinates."""
    return reduced_quotient(M.base, M.gens, la.hstack([M.relations, span]))


def submodule(M: FPModule, span):
    """Submodule of M generated by the given columns.

    Returns (S, incl) with incl mapping S's generators to the spanning
    columns.  Over a field the inclusion columns are a basis; over Z the
    generators are the given columns and S carries the induced relations.
    """
    if M.base is not ZZ:
        incl = la.column_space_basis(span, M.base)
        return FPModule(M.base, incl.shape[1]), incl
    k = span.shape[1]
    if k == 0:
        return FPModule(ZZ, 0), span
    # relations among the chosen generators: span @ x in relation span of M
    big = la.hstack([span, M.relations])
    ker = la.nullspace_int(big)
    rel = ker[:k, :] if ker.shape[1] else la.zeros(k, 0)
    return FPModule(ZZ, k, rel), span


def module_subquotient(M: FPModule, span, inner=None):
    """(sub, incl, quot, proj) for <span> inside M, optionally modulo <inner>.

    With inner=None, quot is M/<span> and proj lives on M's generators.
    With inner given (columns inside <span>), quot is <span>/<inner> and
    proj maps sub's generators onto the subquotient.
    """
    S, incl = submodule(M, span)
    if inner is None:
        Q, proj, _ = quotient_by_submodule(M, span)
        return S, incl, Q, proj
    # express inner in sub's generators: incl @ x = inner (mod M.relations)
    sol = la.solve(la.hstack([incl, M.relations]), inner, M.base)
    if sol is None:
        raise ValueError("inner columns not inside the span")
    Q, proj, _ = quotient_by_submodule(S, sol[:S.gens, :])
    return S, incl, Q, proj


def direct_sum_modules(mods: list[FPModule]) -> FPModule:
    if not mods:
        raise ValueError("empty direct sum needs an explicit base")
    base = mods[0].base
    if any(m.base != base for m in mods):
        raise ValueError("summands over different bases")
    return FPModule(base, sum(m.gens for m in mods),
                    la.block_diag([m.relations for m in mods], base))
