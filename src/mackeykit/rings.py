"""Rings presented by a basis and structure constants over Z or a finite field.

mult[i][j] is the coefficient column of e_i * e_j; the unit is a coordinate
vector.  Commutativity is an optional law so twisted group rings fit the
same container.  Quotient presentations render as polynomial strings
(generators named from the top basis element down).
"""

from __future__ import annotations

import itertools

from . import linalg as la
from .linalg import ZZ
from .report import CheckReport


class BasedRing:
    def __init__(self, base, rank: int, mult, unit, labels=None, commutative=True):
        self.base = base
        self.rank = int(rank)
        # mult stored as an (rank*rank) x rank layout: row i*rank+j = e_i e_j
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

    def product_of_basis(self, i: int, j: int):
        return self.mult[i * self.rank + j, :].reshape(self.rank, 1).copy()

    def left_mult_matrix(self, v):
        """Matrix of x -> v*x in the basis; v a coefficient column."""
        r = self.rank
        out = la.zeros(r, r, self.base)
        for i in range(r):
            if v[i, 0] != 0:
                # column j of the block's transpose is e_i * e_j
                out = la.add_scaled(out, self.mult[i * r:(i + 1) * r, :].T, v[i, 0], self.base)
        return out

    def multiply(self, v, w):
        """Bilinear product of coefficient columns."""
        return la.mmul(self.left_mult_matrix(v), w, self.base)

    def power(self, v, e: int):
        out = self.unit.copy()
        for _ in range(e):
            out = self.multiply(out, v)
        return out

    def is_zero_ring(self) -> bool:
        return self.rank == 0

    def basis_vector(self, i: int):
        v = la.zeros(self.rank, 1, self.base)
        v[i, 0] = self.base.one
        return v

    def elements(self):
        """All coefficient columns (field base only; exponential in rank)."""
        if self.base is ZZ:
            raise ValueError("elements are enumerable only over a finite base field")
        for tup in itertools.product(list(self.base.elements()), repeat=self.rank):
            v = la.zeros(self.rank, 1, self.base)
            v[:, 0] = tup
            yield v

    def __repr__(self):
        return f"BasedRing(rank={self.rank}, base={self.base!r})"


def based_ring_check(R: BasedRing) -> CheckReport:
    """Associativity on all basis triples, unit on both sides, commutativity if claimed."""
    rep = CheckReport("based ring")
    n = R.rank
    if n == 0:
        return rep
    basis = [R.basis_vector(i) for i in range(n)]
    prod = {}
    for i in range(n):
        for j in range(n):
            prod[i, j] = R.product_of_basis(i, j)
    if R.commutative:
        for i in range(n):
            for j in range(i + 1, n):
                if not la.mat_eq(prod[i, j], prod[j, i]):
                    rep.add("commutativity", f"e{i}*e{j} != e{j}*e{i}")
    for i in range(n):
        for j in range(n):
            left = R.left_mult_matrix(prod[i, j])
            right_fix = R.left_mult_matrix(basis[i])
            for k in range(n):
                lhs = la.mmul(left, basis[k], R.base)            # (e_i e_j) e_k
                rhs = la.mmul(right_fix, prod[j, k], R.base)     # e_i (e_j e_k)
                if not la.mat_eq(lhs, rhs):
                    rep.add("associativity", f"(e{i}*e{j})*e{k}")
    for i in range(n):
        if not la.mat_eq(R.multiply(R.unit, basis[i]), basis[i]):
            rep.add("unit", f"1*e{i}")
        if not la.mat_eq(R.multiply(basis[i], R.unit), basis[i]):
            rep.add("unit", f"e{i}*1")
    return rep


def ring_is_field(R: BasedRing, limit: int = 4096) -> bool:
    """Exhaustive invertibility test over a finite base field."""
    if R.base is ZZ:
        raise ValueError("field test only over finite base fields")
    if R.rank == 0:
        return False
    if R.base.q ** R.rank > limit:
        raise ValueError("ring too large for the exhaustive field test")
    if not R.commutative:
        return False
    for v in R.elements():
        if la.is_zero_mat(v):
            continue
        L = R.left_mult_matrix(v)
        if la.rank(L, R.base) < R.rank:
            return False
    return True


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
    if not parts:
        return "0"
    sign0, t0 = parts[0]
    out = ("-" if sign0 == "-" else "") + t0
    for sign, t in parts[1:]:
        out += sign + t
    return out


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
    names = {}
    for pos, i in enumerate(sorted(gens, reverse=True)):
        names[i] = _LETTERS[pos] if pos < len(_LETTERS) else f"x{pos + 1}"

    def vec_to_linear(col) -> dict:
        poly = {}
        for i in range(R.rank):
            c = int(col[i, 0])
            if c == 0:
                continue
            poly[() if i == u else (i,)] = c
        return poly

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

    linear = []
    if ideal_lattice is not None and ideal_lattice.shape[1]:
        for c in range(ideal_lattice.shape[1]):
            poly = vec_to_linear(ideal_lattice[:, c:c + 1])
            if poly:
                linear.append(poly)

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
    rel_strs = []
    for i in sorted(live, reverse=True):
        if (i, i) in rules:
            rel_strs.append(_poly_str(rules[i, i], names))
    for a, i in enumerate(sorted(live, reverse=True)):
        for j in sorted(live, reverse=True)[a + 1:]:
            key = tuple(sorted((i, j)))
            if key in rules and i != j:
                rel_strs.append(_poly_str(rules[key], names))
    for q in linear:
        rel_strs.append(_poly_str(q, names))
    rel_strs = [r for r in rel_strs if r != "0"]

    if not name_list:
        head = "Z"
    else:
        head = f"Z[{','.join(name_list)}]"
    if not rel_strs:
        return head
    return f"{head}/({','.join(rel_strs)})"
