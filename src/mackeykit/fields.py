"""Finite fields GF(p^k) as explicit polynomial quotients.

A field is described by (p, k, modulus) with a monic irreducible modulus
of degree k over F_p; elements are coefficient vectors against the power
basis 1, x, ..., x^(k-1).  Arithmetic is exact; Frobenius and relative
traces are first-class.  Prime fields compute on residues mod p; extension
fields of at most TABLE_LIMIT elements look products up in log/antilog
tables and sums in a Zech-logarithm table; larger ones multiply polynomials.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact below 3.3 * 10^24, where Miller-Rabin on the first 13 prime
    bases has no strong pseudoprime (Sorenson & Webster, Math. Comp. 86,
    2017); raises ValueError above."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} is only decided below {_MR_LIMIT}")
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1:
            continue
        for _ in range(r):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


# polynomial helpers over F_p; polys are int tuples, low degree first, no
# trailing-zero normalization assumed on input

def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def poly_divmod(a, b, p):
    """(quotient, remainder) of a by b over F_p; ZeroDivisionError if b = 0."""
    a = _trim(a)
    b = _trim(b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and _trim(r):
        r = _trim(r)
        if len(r) < len(b):
            break
        c = (r[-1] * inv_lead) % p
        d = len(r) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            r[i + d] = (r[i + d] - c * y) % p
        r = _trim(r)
    return _trim(q), _trim(r)


def poly_mod(a, m, p):
    return poly_divmod(a, m, p)[1]


def _poly_gcd(a, b, p):
    """Monic gcd of two polynomials over F_p, not both zero."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, poly_mod(a, b, p)
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _poly_pow_mod(a, e, m, p):
    out = [1]
    while e:
        if e & 1:
            out = poly_mod(poly_mul(out, a, p), m, p)
        a = poly_mod(poly_mul(a, a, p), m, p)
        e >>= 1
    return out


def _proper_factor(m, f, p):
    """f as a tuple, after checking by division that it is a proper monic factor of m."""
    f = _trim(f)
    if not 0 < len(f) - 1 < len(m) - 1 or f[-1] != 1 or poly_divmod(m, f, p)[1]:
        raise ArithmeticError(f"{f} is not a proper factor of {m} over F_{p}")
    return tuple(f)


def _frobenius_columns(m, p):
    """The k coefficient lists of x^(ip) mod m, i = 0..k-1, each of length
    k: the columns of the matrix of v -> v^p on F_p[x]/(m)."""
    k = len(m) - 1
    xp = _poly_pow_mod([0, 1], p, m, p)
    cols, col = [], [1]
    for _ in range(k):
        cols.append(col + [0] * (k - len(col)))
        col = poly_mod(poly_mul(col, xp, p), m, p)
    return cols


def irreducible_witness(modulus, p):
    """None if the monic modulus is irreducible over F_p, else a proper monic factor.

    Berlekamp's algorithm; for a fixed p its work is polynomial in the
    degree k.  A repeated factor shows in gcd(m, m'), or m' = 0 and m is a
    p-th power.  For squarefree m the nullity of Q - I, with Q the matrix
    of v -> v^p on F_p[x]/(m), counts the irreducible factors of m; a
    non-constant v with v^p = v splits m as gcd(m, v - c) for some c in
    F_p, or (p odd) as gcd(m, (v - c)^((p-1)/2) - 1), which usually
    succeeds at a small c.  Every factor returned is checked by division.
    """
    from . import linalg as la
    m = _trim(modulus)
    k = len(m) - 1
    if k <= 1:
        return None
    dm = _trim([i * c % p for i, c in enumerate(m)][1:])
    if not dm:                                  # m(x) = g(x^p) = g(x)^p
        return _proper_factor(m, m[::p], p)
    d = _poly_gcd(m, dm, p)
    if len(d) > 1:
        return _proper_factor(m, d, p)
    # row i of (Q - I)^T, as residues mod p: x^(ip) mod m, minus x^i
    Qt = [(c - (j == i)) % p for i, col in enumerate(_frobenius_columns(m, p))
          for j, c in enumerate(col)]
    F = gf_make(p, 1)
    ker = la.nullspace(la.from_ints(Qt, k, k, F).T, F)
    if ker.shape[1] == 1:
        return None
    v = next([int(x) for x in u] for u in ker.T if any(u[1:]))
    for c in range(p):
        vc = [(v[0] - c) % p] + v[1:]
        cands = [vc]
        if p > 2:
            w = _poly_pow_mod(vc, (p - 1) // 2, m, p) or [0]
            cands.append([(w[0] - 1) % p] + w[1:])
        for h in cands:
            f = _poly_gcd(m, h, p)
            if 1 < len(f) <= k:
                return _proper_factor(m, f, p)
    raise ArithmeticError(f"Berlekamp found no factor of {m} over F_{p}")


# Conway-style default moduli for small p^k with k > 1; every prime field
# takes x, and every other GF(p^k) a searched modulus (see `_default_modulus`).
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 8): (1, 1, 1, 0, 0, 0, 0, 1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 9): (1, 0, 0, 0, 2, 0, 0, 0, 0, 1),
    (5, 2): (2, 4, 1),
    (5, 5): (1, 4, 0, 0, 0, 1),
    (7, 2): (3, 6, 1),
}


@functools.cache
def _default_modulus(p: int, k: int):
    """x for a prime field, else the DEFAULT_MODULI entry, else the first
    monic irreducible x^k + c_(k-1) x^(k-1) + ... + c_0 in the order of
    sum_j c_j p^j, as `irreducible_witness` decides, searched once per
    (p, k); None when no field GF(p^k) exists."""
    if k == 1:
        return (0, 1)
    if (p, k) in DEFAULT_MODULI or k < 1 or not is_prime(p):
        return DEFAULT_MODULI.get((p, k))
    for i in itertools.count():
        c = [i // p ** j % p for j in range(k)] + [1]
        if irreducible_witness(c, p) is None:
            return tuple(c)


class FFElement:
    """Element of a GaloisField; immutable coefficient tuple against the power basis."""

    __slots__ = ("field", "coeffs", "_residue")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs
        # residue encoding, little-endian base p; inverse of field.residue_element
        v = 0
        for c in reversed(coeffs):
            v = v * field.p + c
        self._residue = v

    def _co(self, other):
        if isinstance(other, FFElement):
            if other.field is not self.field:
                raise ValueError(f"mixed fields: {self.field!r} and {other.field!r}")
            return other
        if isinstance(other, int):
            return self.field.embed(other)
        return NotImplemented

    def __add__(self, other):
        o = self._co(other)
        if o is NotImplemented:
            return NotImplemented
        return self.field.add(self, o)

    __radd__ = __add__

    def __neg__(self):
        return self.field.neg(self)

    def __sub__(self, other):
        o = self._co(other)
        if o is NotImplemented:
            return NotImplemented
        return self.field.add(self, self.field.neg(o))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._co(other)
        if o is NotImplemented:
            return NotImplemented
        return self.field.mul(self, o)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        f = self.field
        out = f.one
        b = self
        if e < 0:
            b = b.inv()
            e = -e
        while e:
            if e & 1:
                out = out * b
            b = b * b
            e >>= 1
        return out

    def inv(self):
        return self.field.inv(self)

    def __eq__(self, other):
        if isinstance(other, FFElement):
            return self.field is other.field and self._residue == other._residue
        if isinstance(other, int):
            # n embeds as the constant n mod p, whose residue is n mod p
            return self._residue == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __bool__(self):
        return self._residue != 0

    def __int__(self):
        return self._residue

    def __repr__(self):
        return self.field.format_elem(self)


# fields of at most this many elements intern every element in a residue
# table and do scalar arithmetic by table lookup
TABLE_LIMIT = 4096


class GaloisField:
    def __init__(self, p: int, k: int, modulus=None):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if k < 1:
            raise ValueError("k must be >= 1")
        if modulus is None:
            modulus = _default_modulus(p, k)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        wit = irreducible_witness(modulus, p)
        if wit is not None:
            raise ValueError(f"modulus {modulus} is reducible over F_{p}: factor {wit}")
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = modulus
        self._cache: dict[tuple, FFElement] = {}
        if self.q <= TABLE_LIMIT:
            # residue i (little-endian base-p digits) -> interned element;
            # the instance attributes below shadow the polynomial methods
            elems = [self._from_residue(i) for i in range(self.q)]
            self.residue_element = elems.__getitem__
            if k > 1:
                self._build_log_tables(elems)
                self.add, self.neg = self._add_zech, self._neg_log
                self.mul, self.inv = self._mul_log, self._inv_log
        if k == 1:
            self.add, self.neg = self._add_mod_p, self._neg_mod_p
            self.mul, self.inv = self._mul_mod_p, self._inv_mod_p
        self.zero = self.residue_element(0)
        self.one = self.residue_element(1)
        self.gen = self.elem(tuple(1 if i == 1 else 0 for i in range(k))) if k > 1 else self.one
        self._frob_mat = None

    def _from_residue(self, i):
        digits = []
        for _ in range(self.k):
            digits.append(i % self.p)
            i //= self.p
        return self.elem(tuple(digits))

    def _build_log_tables(self, elems):
        """Log, antilog and Zech tables against a primitive element gamma.

        _exp[n] = gamma^n for 0 <= n < 2(q-1), so that a sum of two logs
        indexes it without reduction; _log[r] is the log of the element with
        residue r, and -1 for zero; _zech[n] = log(1 + gamma^n), -1 when
        1 + gamma^n = 0 (Lidl & Niederreiter, Finite Fields, section 2.5).
        """
        p, k, q = self.p, self.k, self.q
        mod = list(self.modulus)
        primes = [r for r in range(2, q) if (q - 1) % r == 0 and is_prime(r)]
        # the modulus need not be primitive, so search for gamma
        gamma = next(list(e.coeffs) for e in elems[2:]
                     if all(_poly_pow_mod(list(e.coeffs), (q - 1) // r, mod, p) != [1]
                            for r in primes))
        # times_gamma[r] = residue of gamma * (element r), from the matrix of
        # multiplication by gamma applied to the digits of every residue
        cols = [poly_mod(poly_mul(gamma, [0] * j + [1], p), mod, p) for j in range(k)]
        mat = np.array([c + [0] * (k - len(c)) for c in cols], dtype=np.int64)
        digits = np.array([e.coeffs for e in elems], dtype=np.int64)
        times_gamma = ((digits @ mat % p) @ (p ** np.arange(k))).tolist()
        exp = [1]
        for _ in range(q - 2):
            exp.append(times_gamma[exp[-1]])
        log = [-1] * q
        for n, r in enumerate(exp):
            log[r] = n
        # 1 + (element r) adds one to the lowest digit of r
        self._zech = [log[r + 1 if r % p != p - 1 else r + 1 - p] for r in exp]
        self._log = log
        self._exp = [elems[r] for r in exp] * 2
        self._log_minus_one = log[p - 1]

    def elem(self, coeffs) -> FFElement:
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.k:
            raise ValueError(f"{len(coeffs)} coordinates for an element of {self!r}")
        e = self._cache.get(coeffs)
        if e is None:
            e = FFElement(self, coeffs)
            self._cache[coeffs] = e
        return e

    def embed(self, n: int) -> FFElement:
        return self.residue_element(n % self.p)

    def coerce(self, v) -> FFElement:
        if isinstance(v, FFElement):
            if v.field is not self:
                raise ValueError(f"mixed fields: {v.field!r} element in {self!r}")
            return v
        return self.embed(int(v))

    def from_poly(self, coeffs) -> FFElement:
        r = poly_mod([c % self.p for c in coeffs], list(self.modulus), self.p)
        return self.elem(tuple(r) + (0,) * (self.k - len(r)))

    def residue_element(self, r: int) -> FFElement:
        """The element with residue encoding r (see FFElement.__int__)."""
        return self._from_residue(r)

    # Scalar arithmetic.  __init__ picks one of three implementations:
    # residues mod p when k = 1, log/Zech tables when k > 1 and
    # q <= TABLE_LIMIT, and polynomial arithmetic (the methods named
    # add/neg/mul/inv) otherwise.

    def add(self, a: FFElement, b: FFElement) -> FFElement:
        p = self.p
        return self.elem(tuple((x + y) % p for x, y in zip(a.coeffs, b.coeffs)))

    def neg(self, a: FFElement) -> FFElement:
        p = self.p
        return self.elem(tuple((-x) % p for x in a.coeffs))

    def mul(self, a: FFElement, b: FFElement) -> FFElement:
        return self.from_poly(poly_mul(list(a.coeffs), list(b.coeffs), self.p))

    def inv(self, a: FFElement) -> FFElement:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        # extended Euclid in F_p[x]
        r0, r1 = list(self.modulus), _trim(a.coeffs)
        s0, s1 = [], [1]
        while r1:
            q, r = poly_divmod(r0, r1, self.p)
            r0, r1 = r1, r
            s0, s1 = s1, _trim([(x - y) % self.p for x, y in
                                itertools.zip_longest(s0, poly_mul(q, s1, self.p), fillvalue=0)])
        lead_inv = pow(r0[-1], self.p - 2, self.p)
        s0 = [(c * lead_inv) % self.p for c in s0]
        return self.from_poly(s0)

    def _add_mod_p(self, a, b):
        return self.residue_element((a._residue + b._residue) % self.p)

    def _neg_mod_p(self, a):
        return self.residue_element(-a._residue % self.p)

    def _mul_mod_p(self, a, b):
        return self.residue_element(a._residue * b._residue % self.p)

    def _inv_mod_p(self, a):
        if not a._residue:
            raise ZeroDivisionError("inverse of zero")
        return self.residue_element(pow(a._residue, self.p - 2, self.p))

    def _add_zech(self, a, b):
        # gamma^i + gamma^j = gamma^(i + Z[j - i])
        if not a._residue:
            return b
        if not b._residue:
            return a
        i = self._log[a._residue]
        z = self._zech[(self._log[b._residue] - i) % (self.q - 1)]
        return self.zero if z < 0 else self._exp[i + z]

    def _neg_log(self, a):
        if not a._residue:
            return a
        return self._exp[self._log[a._residue] + self._log_minus_one]

    def _mul_log(self, a, b):
        if not (a._residue and b._residue):
            return self.zero
        return self._exp[self._log[a._residue] + self._log[b._residue]]

    def _inv_log(self, a):
        if not a._residue:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self.q - 1 - self._log[a._residue]]

    def frobenius(self, a: FFElement, times: int = 1) -> FFElement:
        out = a
        for _ in range(times % self.k if self.k > 1 else 0):
            out = out ** self.p
        return out

    def frobenius_matrix(self, times: int = 1):
        """Matrix of x -> x^(p^times) on the power basis, over F_p in the
        at-rest form of gf_make(p, 1)."""
        from . import linalg as la
        F = gf_make(self.p, 1)
        if self._frob_mat is None:
            cols = _frobenius_columns(list(self.modulus), self.p)
            self._frob_mat = la.from_ints([c for row in zip(*cols) for c in row],
                                          self.k, self.k, F)
        return la.mpow(self._frob_mat, times % self.k, F)

    def elements(self):
        for coeffs in itertools.product(range(self.p), repeat=self.k):
            yield self.elem(coeffs)

    def element(self, i: int) -> FFElement:
        """The i-th element of `elements()`, without listing the others: the
        base-p digits of i, most significant first, are its coefficients,
        so its residue has the digits of i in reverse order."""
        r = 0
        for _ in range(self.k):
            i, c = divmod(i, self.p)
            r = r * self.p + c
        return self.residue_element(r)

    def format_elem(self, a: FFElement) -> str:
        return ":".join(str(c) for c in a.coeffs)

    def __eq__(self, other):
        return (isinstance(other, GaloisField)
                and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus))

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"


_FIELD_CACHE: dict[tuple, GaloisField] = {}


def gf_make(p: int, k: int, modulus=None) -> GaloisField:
    """Interned GaloisField constructor; rejects non-prime p and reducible moduli.

    The default and the given form of one modulus give the same instance."""
    if modulus is None:
        modulus = _default_modulus(p, k)
    # a key that names no field misses, and GaloisField raises the reason
    key = (p, k, None if modulus is None or p < 2 else tuple(int(c) % p for c in modulus))
    f = _FIELD_CACHE.get(key)
    if f is None:
        f = _FIELD_CACHE[key] = GaloisField(p, k, modulus)
    return f


def galois_trace(a: FFElement, subdegree: int = 1) -> FFElement:
    """Trace of a from GF(p^k) to the subfield GF(p^subdegree); subdegree must divide k.
    The sum of an orbit of Frobenius^subdegree is fixed by it, so lies in the subfield."""
    f = a.field
    if f.k % subdegree != 0:
        raise ValueError(f"subdegree {subdegree} does not divide {f.k}")
    out = f.zero
    x = a
    for _ in range(f.k // subdegree):
        out = out + x
        x = f.frobenius(x, subdegree)
    return out
