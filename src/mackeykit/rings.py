"""Rings presented by a basis and structure constants over Z or a finite field.

Every law and table is built from a few stacked products (`BasedRing.products`),
compared at once, and walked pair by pair only to name the violations of a
failed comparison.  Commutativity is an optional law so twisted group rings
fit the same container.  Quotient presentations render as polynomial strings
(generators named from the top basis element down).
"""

from __future__ import annotations

import functools

import numpy as np

from . import linalg as la
from .linalg import ZZ
from .report import CheckReport

_STACK_ENTRIES = 1 << 20    # entries of one stacked operand; larger stacks go in blocks


class BasedRing:
    """A ring free over its base on e_0..e_(r-1); elements are coefficient
    columns.  mult has the (r^2, r) layout, row i * r + j the coefficients of
    e_i * e_j, and `products` is the one product of stacks of elements."""

    def __init__(self, base, rank: int, mult, unit, labels=None, commutative=True):
        self.base = base
        self.rank = int(rank)
        if mult.shape != (self.rank * self.rank, self.rank) and self.rank:
            raise ValueError(f"mult has shape {mult.shape} for rank {self.rank}")
        if unit.shape != (self.rank, 1):
            raise ValueError(f"unit has shape {unit.shape} for rank {self.rank}")
        self.mult = la.coerce(mult, base)
        self.unit = la.coerce(unit, base)
        self.labels = list(labels) if labels is not None else [f"b{i}" for i in range(self.rank)]
        if len(self.labels) != self.rank:
            raise ValueError(f"{len(self.labels)} labels for rank {self.rank}")
        self.commutative = commutative

    def products(self, X, Y):
        """All products of columns: column a * Y.shape[1] + b is X[:, a] * Y[:, b].

        This is mult^T @ kron(X, Y), one product for the whole stack, taken
        in column blocks of X when kron(X, Y) would pass _STACK_ENTRIES."""
        step = max(1, _STACK_ENTRIES // max(X.shape[0] * Y.shape[0] * Y.shape[1], 1))
        if X.shape[1] <= step:
            return la.mmul(self.mult.T, la.kron(X, Y, self.base), self.base)
        return la.hstack([la.mmul(self.mult.T, la.kron(X[:, a:a + step], Y, self.base), self.base)
                          for a in range(0, X.shape[1], step)])

    @functools.cached_property
    def generators(self):
        """Indices u of basis elements e_u that generate the ring with the
        unit, greedy in basis order: e_u is kept when it is not in the
        subring that the unit and the kept elements generate.  The unit is
        never kept, so a ring spanned by its unit has none."""
        out, span = [], self.unit
        for u in range(self.rank):
            e = self.basis_vector(u)
            if la.solve(span, e, self.base) is not None:
                continue
            out.append(u)
            gens = la.eye(self.rank, self.base)[:, out]
            # the subring is spanned by the words in the generators, so it is
            # the closure of the span under right multiplication by them
            while True:
                prods = self.products(span, gens)
                if la.solve(span, prods, self.base) is not None:
                    break
                span = la.column_space_basis(la.hstack([span, prods]), self.base)
        return out

    def product_of_basis(self, i: int, j: int):
        return self.mult[i * self.rank + j, :].reshape(self.rank, 1).copy()

    def left_mult_matrices(self, X):
        """(c, r, r) stack: the matrix of x -> X[:, a] * x for each of the c
        columns of X.  This is products(X, I) without the Kronecker factor:
        one (c, r) x (r, r^2) product with the table."""
        r, c = self.rank, X.shape[1]
        flat = la.mmul(X.T, self.mult.reshape(r, r * r), self.base)   # [a, j * r + b]
        return flat.reshape(c, r, r).transpose(0, 2, 1)

    def power(self, v, e: int):
        """v^e by square-and-multiply from v: at most 2 * floor(log2 e) products."""
        if e == 0:
            return self.unit.copy()
        out = v
        for bit in bin(e)[3:]:
            out = self.products(out, out)
            if bit == "1":
                out = self.products(out, v)
        return out

    def basis_vector(self, i: int):
        v = la.zeros(self.rank, 1, self.base)
        v[i, 0] = self.base.one
        return v

    def __repr__(self):
        return f"BasedRing(rank={self.rank}, base={self.base!r})"


def based_ring_check(R: BasedRing) -> CheckReport:
    """Associativity on all basis triples, unit on both sides, commutativity if claimed.

    Associativity is two (r^2, r) x (r, r^2) contractions of the table,
    (e_i e_j) e_k and e_i (e_j e_k) for every triple, compared at once (in
    blocks of i when they would pass _STACK_ENTRIES)."""
    rep = CheckReport("based ring")
    n = R.rank
    if n == 0:
        return rep
    T = R.mult.reshape(n, n, n)                       # T[i, j] = e_i e_j
    if R.commutative:
        for i, j in zip(*np.nonzero(~np.equal(T, T.transpose(1, 0, 2)).all(axis=2))):
            if i < j:
                rep.add("commutativity", f"e{i}*e{j} != e{j}*e{i}")
    # for a block of i, left[i, j, k, b] and right[i, j, k, b]: coefficient b
    # of (e_i e_j) e_k and of e_i (e_j e_k), n^3 entries per i
    step = max(1, _STACK_ENTRIES // n ** 3)
    for a in range(0, n, step):
        Ti = T[a:a + step]
        c = Ti.shape[0]
        left = la.mmul(Ti.reshape(c * n, n), T.reshape(n, n * n), R.base).reshape(c, n, n, n)
        right = la.mmul(R.mult, Ti.transpose(1, 0, 2).reshape(n, c * n), R.base)
        right = right.reshape(n, n, c, n).transpose(2, 0, 1, 3)
        for i, j, k in zip(*np.nonzero(~np.equal(left, right).all(axis=3))):
            rep.add("associativity", f"(e{a + i}*e{j})*e{k}")
    ident = la.eye(n, R.base)
    on_left = np.equal(R.products(R.unit, ident), ident).all(axis=0)
    on_right = np.equal(R.products(ident, R.unit), ident).all(axis=0)
    for i in range(n):
        if not on_left[i]:
            rep.add("unit", f"1*e{i}")
        if not on_right[i]:
            rep.add("unit", f"e{i}*1")
    return rep


def ring_is_field(R: BasedRing) -> bool:
    """Whether R, a ring over a finite base field F_q, is a field, decided
    from its Frobenius (Berlekamp's fixed-space argument) in time
    polynomial in the rank, with no limit on the number of elements.

    For a commutative F_q-algebra A of rank r >= 1 the map F: x -> x^q is
    F_q-linear.  A nonzero nilpotent x has x^(q^e) = 0 for some e, so F is
    injective exactly when A is reduced, that is a product of finite
    fields F_(q^d_1) x ... x F_(q^d_c).  F then fixes exactly F_q in each
    factor, so its fixed space has dimension c, and A is a field exactly
    when rank F = r and rank (F - I) = r - 1.  Column i of F is e_i^q, by
    square-and-multiply (`power`).  False at rank 0 and for a
    non-commutative table; raises ValueError over Z."""
    if R.base is ZZ:
        raise ValueError("field test only over finite base fields")
    if R.rank == 0 or not R.commutative:
        return False
    r, base = R.rank, R.base
    F = la.hstack([R.power(R.basis_vector(i), base.q) for i in range(r)])
    return (la.rank(F, base) == r
            and la.rank(la.sub(F, la.eye(r, base), base), base) == r - 1)


def quotient_ring(R: BasedRing, proj, lift, base, labels=None) -> BasedRing:
    """R modulo an ideal on the quotient generators of (proj, lift): proj of the
    products of all pairs of lifted generators over R.base, reduced to base."""
    mult = la.mmul(proj, R.products(lift, lift), R.base).T.copy()
    unit = la.mmul(proj, R.unit, R.base)
    return BasedRing(base, proj.shape[0], mult, unit, labels, commutative=R.commutative)


def unit_basis_index(R: BasedRing):
    """Index i with unit == e_i, or None."""
    for i in range(R.rank):
        ok = all((R.unit[j, 0] == (1 if j == i else 0)) for j in range(R.rank))
        if ok:
            return i
    return None


# ---------------------------------------------------------------------------
# polynomial-style presentation rendering (integer base)

_LETTERS = ["x", "y", "z", "w", "v", "u", "t", "s", "r"]


def _poly_str(poly: dict, names: dict) -> str:
    def key_order(mono):
        return (-len(mono), [names[i] for i in mono])

    parts = []
    for mono in sorted(poly, key=key_order):
        c = poly[mono]
        if c == 0:
            continue
        if len(mono) == 0:
            term = str(abs(c))
        else:
            if len(mono) == 2 and mono[0] == mono[1]:
                body = f"{names[mono[0]]}^2"
            else:
                # letters were assigned in descending index order, so render
                # high index first to get alphabetical products (xy not yx)
                body = "".join(names[i] for i in sorted(mono, reverse=True))
            term = body if abs(c) == 1 else f"{abs(c)}{body}"
        parts.append(("-" if c < 0 else "+", term))
    out = "".join(sign + t for sign, t in parts)
    return out.removeprefix("+") or "0"


def _substitute(poly: dict, var: int, repl: dict) -> dict:
    """Substitute var := repl (a linear poly) into a poly of degree <= 2."""
    out: dict = {}

    def add(mono, c):
        if c:
            out[mono] = out.get(mono, 0) + c
            if out[mono] == 0:
                del out[mono]

    for mono, c in poly.items():
        if var not in mono:
            add(mono, c)
            continue
        rest = tuple(v for v in mono if v != var)
        count = len(mono) - len(rest)
        terms = [dict(repl)]
        if count == 2:
            prod: dict = {}
            for m1, c1 in repl.items():
                for m2, c2 in repl.items():
                    key = tuple(sorted(m1 + m2))
                    prod[key] = prod.get(key, 0) + c1 * c2
            terms = [prod]
        for t in terms:
            for m2, c2 in t.items():
                key = tuple(sorted(rest + m2))
                add(key, c * c2)
    return out


def render_presentation(R: BasedRing, ideal_lattice=None) -> str:
    """Polynomial presentation of R (or R/ideal) with letters assigned top-down.

    The unit must be a basis element.  A generator is eliminated when a
    linear relation carries coefficient +-1 on it; surviving quadratic
    product rules and linear relations are printed.
    """
    if R.base is not ZZ or not R.commutative:
        raise ValueError("presentations are rendered for commutative rings over Z")
    u = unit_basis_index(R)
    if u is None:
        raise ValueError("presentation rendering needs a basis unit")
    gens = [i for i in range(R.rank) if i != u]
    # letters from the top (last basis index) down
    names = {i: _LETTERS[pos] if pos < len(_LETTERS) else f"x{pos + 1}"
             for pos, i in enumerate(sorted(gens, reverse=True))}

    def vec_to_linear(col) -> dict:
        return {() if i == u else (i,): int(col[i, 0]) for i in range(R.rank) if int(col[i, 0])}

    # product rules x_i x_j - (linear expansion)
    rules = {}
    for a, i in enumerate(gens):
        for j in gens[a:]:
            poly = {tuple(sorted((i, j))): 1}
            expansion = vec_to_linear(R.product_of_basis(i, j))
            for m, c in expansion.items():
                poly[m] = poly.get(m, 0) - c
                if poly[m] == 0:
                    del poly[m]
            rules[tuple(sorted((i, j)))] = poly

    cols = range(ideal_lattice.shape[1]) if ideal_lattice is not None else ()
    linear = [poly for poly in (vec_to_linear(ideal_lattice[:, c:c + 1]) for c in cols) if poly]

    live = list(gens)

    def reduce_quadratics(poly: dict) -> dict:
        # rewrite quadratic monomials by the current product rules
        changed = True
        while changed:
            changed = False
            for mono in list(poly):
                if len(mono) == 2 and mono in rules:
                    c = poly.pop(mono)
                    rule = dict(rules[mono])
                    rule.pop(mono)  # rule: mono - linear == 0, so mono == -(-linear)
                    for m2, c2 in rule.items():
                        poly[m2] = poly.get(m2, 0) - c * c2
                        if poly[m2] == 0:
                            del poly[m2]
                    changed = True
        return poly

    while True:
        elim = None
        for poly in linear:
            for i in sorted(live, reverse=True):
                if poly.get((i,)) in (1, -1):
                    elim = (poly, i)
                    break
            if elim:
                break
        if not elim:
            break
        poly, var = elim
        c = poly[(var,)]
        repl = {}
        for m, cc in poly.items():
            if m == (var,):
                continue
            repl[m] = -cc * c  # c in {1,-1}: x = -(rest)/c
        linear.remove(poly)
        live.remove(var)
        new_linear = []
        for q in linear:
            q2 = _substitute(q, var, repl)
            if q2:
                new_linear.append(q2)
        linear = new_linear
        new_rules = {}
        for mono, rule in rules.items():
            if var in mono:
                r2 = reduce_quadratics(_substitute(rule, var, repl))
                if r2:
                    linear.append(r2)
            else:
                r2 = _substitute(rule, var, repl)
                new_rules[mono] = r2
        rules = new_rules

    name_list = [names[i] for i in sorted(live, reverse=True)]
    rel_strs = [_poly_str(rules[i, i], names)
                for i in sorted(live, reverse=True) if (i, i) in rules]
    for a, i in enumerate(sorted(live, reverse=True)):
        for j in sorted(live, reverse=True)[a + 1:]:
            key = tuple(sorted((i, j)))
            if key in rules and i != j:
                rel_strs.append(_poly_str(rules[key], names))
    rel_strs = [r for r in rel_strs + [_poly_str(q, names) for q in linear] if r != "0"]
    head = f"Z[{','.join(name_list)}]" if name_list else "Z"
    return f"{head}/({','.join(rel_strs)})" if rel_strs else head
