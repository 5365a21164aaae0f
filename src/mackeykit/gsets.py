"""Cyclic p-groups, their finite G-sets, and Burnside rings.

Orbits of C_{p^n} are classified by the stabilizer exponent s (orbit
C_{p^n}/C_{p^s}); a finite G-set is the multiplicity vector over
s = 0..n.  Products, restriction, induction and marks are all closed
formulas on these vectors.  Basis order everywhere: s ascending, so the
free orbit comes first and the unit [G/G] last.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg as la
from .linalg import ZZ
from .modules import reduced_quotient
from .rings import BasedRing, quotient_ring, render_presentation


@dataclass(frozen=True)
class CyclicGroup:
    """C_{p^n} with a fixed generator g."""

    p: int
    n: int

    def __post_init__(self):
        from .fields import is_prime
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.n < 0:
            raise ValueError("n must be >= 0")

    @property
    def order(self) -> int:
        return self.p ** self.n

    def subquotient(self, m: int) -> "CyclicGroup":
        if not 0 <= m <= self.n:
            raise ValueError(f"subquotient exponent {m} outside [0, {self.n}]")
        return CyclicGroup(self.p, m)

    def orbit_label(self, s: int) -> str:
        top = f"C{self.order}"
        bot = "e" if s == 0 else f"C{self.p ** s}"
        return f"[{top}/{bot}]"

    def __repr__(self):
        return f"C{self.order}" + (f"(p={self.p})" if self.n == 0 else "")


def _check_length(group: CyclicGroup, vector):
    if len(vector) != group.n + 1:
        raise ValueError(f"{len(vector)} orbit entries for {group}, which has {group.n + 1}")


def _check_same_group(x, y):
    if x.group != y.group:
        raise ValueError(f"Burnside elements of {x.group} and {y.group}")


@dataclass(frozen=True)
class FiniteGSet:
    """Multiplicity vector: mult[s] copies of the orbit C_{p^n}/C_{p^s}."""

    group: CyclicGroup
    mult: tuple

    def __post_init__(self):
        _check_length(self.group, self.mult)
        if not all(isinstance(m, int) and m >= 0 for m in self.mult):
            raise ValueError(f"orbit multiplicities {self.mult} must be ints >= 0")

    @staticmethod
    def orbit(group: CyclicGroup, s: int) -> "FiniteGSet":
        mult = tuple(1 if t == s else 0 for t in range(group.n + 1))
        return FiniteGSet(group, mult)

    def size(self) -> int:
        p, n = self.group.p, self.group.n
        return sum(m * p ** (n - s) for s, m in enumerate(self.mult))

    def __repr__(self):
        parts = [f"{m}*{self.group.orbit_label(s)}" for s, m in enumerate(self.mult) if m]
        return " + ".join(parts) if parts else "(empty G-set)"


@dataclass(frozen=True)
class BurnsideElement:
    """Virtual G-set: integer coefficients on the orbit basis, s ascending."""

    group: CyclicGroup
    coeffs: tuple

    def __post_init__(self):
        _check_length(self.group, self.coeffs)

    @staticmethod
    def of_gset(X: FiniteGSet) -> "BurnsideElement":
        return BurnsideElement(X.group, tuple(int(m) for m in X.mult))

    def __add__(self, other):
        _check_same_group(self, other)
        return BurnsideElement(self.group, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return BurnsideElement(self.group, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return BurnsideElement(self.group, tuple(other * a for a in self.coeffs))
        _check_same_group(self, other)
        n = self.group.n
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                prod = orbit_product(self.group, i, j)
                for s, m in enumerate(prod.mult):
                    out[s] += a * b * m
        return BurnsideElement(self.group, tuple(out))

    __rmul__ = __mul__

    def __repr__(self):
        parts = []
        for s, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}*{self.group.orbit_label(s)}")
        return " + ".join(parts) if parts else "0"


def orbit_product(G: CyclicGroup, i: int, j: int) -> FiniteGSet:
    """Product of the orbits with stabilizer exponents i and j.

    (C_{p^n}/C_{p^i}) x (C_{p^n}/C_{p^j}) splits into p^(n - max(i,j))
    orbits, each of type C_{p^n}/C_{p^min(i,j)}.
    """
    if not (0 <= i <= G.n and 0 <= j <= G.n):
        raise ValueError(f"orbit exponents {i}, {j} outside [0, {G.n}]")
    count = G.p ** (G.n - max(i, j))
    mult = tuple(count if s == min(i, j) else 0 for s in range(G.n + 1))
    return FiniteGSet(G, mult)


def gset_product(X: FiniteGSet, Y: FiniteGSet) -> FiniteGSet:
    """Cartesian product X x Y of G-sets of one group, multiplied as
    Burnside-ring elements (`orbit_product` on each pair of orbits): the
    product of the Burnside ring on actual G-sets.  ValueError on G-sets of
    different groups."""
    prod = BurnsideElement.of_gset(X) * BurnsideElement.of_gset(Y)
    return FiniteGSet(X.group, prod.coeffs)


def restrict_gset(X: FiniteGSet, m: int) -> FiniteGSet:
    """Restriction along C_{p^m} <= C_{p^n}: orbit s gives p^(n - max(m,s))
    orbits of type C_{p^m}/C_{p^min(m,s)}."""
    G = X.group
    H = G.subquotient(m)
    out = [0] * (m + 1)
    for s, a in enumerate(X.mult):
        if not a:
            continue
        out[min(m, s)] += a * G.p ** (G.n - max(m, s))
    return FiniteGSet(H, tuple(out))


def induce_gset(X: FiniteGSet, n: int) -> FiniteGSet:
    """Induction along C_{p^m} <= C_{p^n}: each orbit keeps its stabilizer."""
    G = X.group
    if n < G.n:
        raise ValueError(f"cannot induce from C_{{p^{G.n}}} to C_{{p^{n}}}")
    big = CyclicGroup(G.p, n)
    out = [0] * (n + 1)
    for s, a in enumerate(X.mult):
        out[s] += a
    return FiniteGSet(big, tuple(out))


def marks(X: FiniteGSet):
    """Fixed-point counts |X^{C_{p^s}}| for s = 0..n, as a column vector."""
    G = X.group
    col = la.zeros(G.n + 1, 1)
    for s in range(G.n + 1):
        total = 0
        for t, a in enumerate(X.mult):
            if a and s <= t:
                total += a * G.p ** (G.n - t)
        col[s, 0] = total
    return col


def marks_matrix(G: CyclicGroup):
    """Columns = marks of the orbit basis; lower triangular, injective over Q."""
    M = la.zeros(G.n + 1, G.n + 1)
    for t in range(G.n + 1):
        col = marks(FiniteGSet.orbit(G, t))
        M[:, t:t + 1] = col
    return M


def burnside_ring(G: CyclicGroup) -> BasedRing:
    """The Burnside ring A(C_{p^n}) on the orbit basis (unit = [G/G], last)."""
    r = G.n + 1
    mult = la.zeros(r * r, r)
    for i in range(r):
        for j in range(r):
            prod = orbit_product(G, i, j)
            for s, m in enumerate(prod.mult):
                mult[i * r + j, s] = m
    unit = la.zeros(r, 1)
    unit[G.n, 0] = 1
    labels = [G.orbit_label(s) for s in range(r)]
    return BasedRing(ZZ, r, mult, unit, labels)


class QuotientRingResult:
    """Quotient of a based ring by an ideal: ring, rendered presentation, projection."""

    def __init__(self, ring: BasedRing, presentation: str, projection, lift, invariants):
        self.ring = ring
        self.presentation = presentation
        self.projection = projection
        self.lift = lift
        self.additive_invariants = invariants

    def __repr__(self):
        return f"QuotientRingResult({self.presentation})"


def ideal_lattice(R: BasedRing, gens) -> "la.np.ndarray":
    """Additive lattice of the ideal generated by the given coefficient
    columns: the lattice of all products g * e_b, one stacked product."""
    gens = list(gens)
    cols = R.products(la.hstack(gens), la.eye(R.rank, R.base)) if gens else la.zeros(R.rank, 0)
    return la.column_lattice_basis(cols)


def burnside_quotient(R: BasedRing, gens) -> QuotientRingResult:
    """R / (ideal generated by gens) for a commutative based ring over Z.

    Errors out when the additive quotient has torsion (no based
    presentation in that case).
    """
    if R.base is not ZZ or not R.commutative:
        raise ValueError("burnside quotients need a commutative ring over Z")
    lattice = ideal_lattice(R, gens)
    Q, proj, lift = reduced_quotient(ZZ, R.rank, lattice)
    invs = Q.invariant_factors()
    if any(d != 0 for d in invs):
        raise ValueError(f"quotient has torsion {invs}; no based presentation")
    ring = quotient_ring(R, proj, lift, ZZ, labels=[f"q{i}" for i in range(Q.gens)])
    pres = render_presentation(R, lattice)
    return QuotientRingResult(ring, pres, proj, lift, invs)
