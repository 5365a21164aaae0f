"""Exact dense linear algebra over Z and over finite fields.

`solve`, `nullspace` and `column_space_basis` take either base: given ZZ
they run the Smith-form functions `solve_int`, `nullspace_int` and
`column_lattice_basis`, so callers pass their base and never choose.

Matrices are 2-d numpy arrays, and each base keeps them one way at rest:

- over Z, dtype=object holding Python ints (arbitrary precision, never int64);
- over F_p with (p - 1)^2 < 2^63, dtype=int64 holding residues in [0, p);
- over GF(p^k), k > 1, and larger primes, dtype=object holding interned
  field elements (see fields.FFElement).

Which of the three a base uses is its kernel record (`Kernels`): `kernels`
resolves it once per base object and keeps it on the base, and every kernel
dispatches on it, never on the base itself.  Over F_p the record also holds
the most products of two residues whose sum fits in int64, past which
`mmul` sums exact Python ints.

The constructors `zeros`, `eye`, `mat` and `scalar_mul` take the base (Z by
default) and build that form directly, and every kernel takes its base and
returns that form, so F_p matrices stay int64 residues from call to call
and no FFElement arithmetic runs in a kernel.  `field_elements` gives the
elements at given indices into a field's `elements()` in that form,
`power_sum` is the sum I + W + ... + W^(k-1) of the double coset formula,
and `orbit` the ladder [X | W X | ... | W^(k-1) X] of a free orbit.

The operand contract: a kernel over F_p takes an int64 operand as residues
in [0, p) without looking, and converts an operand of any other dtype once
(object arrays of FFElements or plain ints, 0/1 as universal zero/one, from
outside callers; the library itself builds every matrix in its base's
form).  `coerce` is the one function that converts and reduces every entry,
and the only one that rejects elements of another field (ValueError):
after raw numpy arithmetic on residue arrays, reduce with `coerce`.
Assigning an FFElement into an int64 array converts it through `__int__`,
unchecked, so callers keep to one base.  A shape error that numpy would
broadcast or truncate silently (`sub`, `add_scaled`, a non-square `mpow`,
`inv_field` or `bareiss_det`) raises ValueError.  Everything here is
deterministic: no implicit randomness, fixed pivot rules.

Gauss-Jordan over F_p (`_rref_mod_p`, under `rref`, `rank`, `solve`,
`nullspace`, `column_space_basis` and `inv_field`) has two regimes: up to
`_ROWS_MAX_ENTRIES` = 512 entries it runs on lists of Python-int entries,
where the numpy calls of a pivot step would cost more than its arithmetic.
Past that, an F_2 matrix has each row packed into one Python int, so a row
operation is one XOR of the whole row, and for odd p the elimination runs
on the int64 array, one broadcast product per pivot.  The constant records
where the crossover was measured.  Within that bound `rank` runs forward
elimination alone on the list rows (`_rank_rows`): no back substitution,
and each pivot row leaves the system.

`unit_det_mask` and `full_rank_mask` are the batched kernels: each takes a
(C, n, n) stack and decides every matrix by one fraction-free elimination
over the whole stack, and small residue stacks matrix by matrix through
`_det_rows`, which stops at the first column without a pivot.
`unit_det_mask` keeps the int64 residue matrices whose determinant is +-1
mod p (list rows up to C * n = `_UNIT_ROWS_MAX` = 8).  Over Z that serves
as a filter, never as the answer: a matrix whose determinant is not +-1
mod a prime is not unimodular, and one that passes is confirmed with the
exact `bareiss_det`.  `full_rank_mask` decides invertibility over any
finite field (list rows up to C * n = `_MASK_ROWS_MAX` = 32); GF(p^k),
k > 1, and primes past the int64 bound are eliminated on field elements
in the field's own arithmetic.  The constants record where the crossovers
were measured.
"""

from __future__ import annotations

import numpy as np

from .fields import FFElement


class IntegerRing:
    """The ring Z, used as the `base` tag for integer matrices."""

    name = "Z"
    zero = 0
    one = 1

    def __repr__(self):
        return "Z"


ZZ = IntegerRing()


# ---------------------------------------------------------------------------
# the kernel record of a base

_INT64 = np.dtype(np.int64)
_INT64_LIMIT = 2 ** 63


class Kernels:
    """Which kernels a base uses, resolved once per base object by `kernels`
    and kept on it as `base.linalg_kernels`.

    integers: the base is Z (object arrays of Python ints, Smith-form solvers);
    p: the prime of F_p when its matrices rest as int64 residues, else None;
    terms: with p, the most products of two residues whose sum fits in int64.
    A base with neither is a finite field whose matrices rest as elements."""

    __slots__ = ("integers", "p", "terms")

    def __init__(self, integers=False, p=None):
        self.integers = integers
        self.p = p
        self.terms = (_INT64_LIMIT - 1) // (p - 1) ** 2 if p else 0


ZZ.linalg_kernels = Kernels(integers=True)


def kernels(base) -> Kernels:
    """The kernel record of base: F_p with (p - 1)^2 < 2^63 rests as int64
    residues, GF(p^k) with k > 1 and larger primes as field elements."""
    try:
        return base.linalg_kernels
    except AttributeError:
        pass
    p = base.p if base.k == 1 and (base.p - 1) ** 2 < _INT64_LIMIT else None
    record = base.linalg_kernels = Kernels(p=p)
    return record


def _rest(A, base, record):
    """A in the form of base, for the kernels' own use: over F_p an int64
    array is taken as residues and over Z an object array as ints, both
    unchecked; anything else is converted."""
    p = record.p
    if p:
        return to_residues(A, p)
    if record.integers:
        return A if A.dtype == object else A.astype(object)
    return _elements(A, base)


# ---------------------------------------------------------------------------
# construction helpers

def mat(rows, ncols=None, base=ZZ):
    """Matrix from nested lists, in the form of base; ncols gives the width
    of a matrix with no rows.  Raises ValueError on ragged rows."""
    rows = [list(r) for r in rows]
    width = len(rows[0]) if rows else (ncols or 0)
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows")
    out = np.empty((len(rows), width), dtype=object)
    for i, r in enumerate(rows):
        out[i, :] = r
    return coerce(out, base)


def zeros(r, c, base=ZZ):
    """The r x c zero matrix in the form of base."""
    if kernels(base).p:
        return np.zeros((r, c), dtype=np.int64)
    out = np.empty((r, c), dtype=object)
    out[...] = base.zero
    return out


# int64 identities up to this size are copied from a table, a fifth of the
# cost of building one
_EYES = [np.eye(n, dtype=np.int64) for n in range(33)]


def eye(n, base=ZZ):
    """The n x n identity in the form of base."""
    if kernels(base).p:
        return _EYES[n].copy() if n < len(_EYES) else np.eye(n, dtype=np.int64)
    out = zeros(n, n, base)
    out.flat[::n + 1] = base.one
    return out


def from_ints(values, rows, cols, base=ZZ):
    """The rows x cols matrix with the row-major entries `values`, a list of
    Python ints, in the form of base, each converted once and without a
    check: over Z the ints are the entries, over a finite field the residue
    encodings of its elements (see FFElement.__int__; over F_p the residues
    in [0, p)), as the kernels take int64 entries."""
    record = kernels(base)
    if record.p:
        return np.array(values, dtype=np.int64).reshape(rows, cols)
    entries = values if record.integers else list(map(base.residue_element, values))
    return np.array(entries, dtype=object).reshape(rows, cols)


def mat_eq(A, B) -> bool:
    """Whether A and B have one shape and equal entries.  Two int64 arrays
    compare by their bytes and two object arrays as lists, which skips
    numpy's reduction machinery, the larger cost on small matrices."""
    if A.shape != B.shape:
        return False
    if A.dtype == B.dtype == np.int64:
        return A.tobytes() == B.tobytes()
    if A.dtype == B.dtype == object:
        return A.tolist() == B.tolist()
    return bool(np.equal(A, B).all())


def is_zero_mat(A) -> bool:
    """Whether every entry of A is zero (falsy: an int 0 or a zero FFElement)."""
    return not np.count_nonzero(A)


def hstack(mats):
    return np.concatenate(list(mats), axis=1)


def vstack(mats):
    return np.concatenate(list(mats), axis=0)


def block_diag(mats, base=ZZ):
    """The block-diagonal matrix with the blocks mats, in the form of base."""
    mats = list(mats)
    out = zeros(sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats), base)
    i = j = 0
    for m in mats:
        out[i:i + m.shape[0], j:j + m.shape[1]] = m
        i += m.shape[0]
        j += m.shape[1]
    return out


def mmul(A, B, base=ZZ):
    """Exact matrix product."""
    return _mmul(A, B, kernels(base))


def _mmul(A, B, record):
    p = record.p
    if not p:
        return np.dot(A, B)
    # the hottest kernel: test the dtypes here, not in two to_residues calls
    if A.dtype is not _INT64:
        A = to_residues(A, p)
    if B.dtype is not _INT64:
        B = to_residues(B, p)
    if A.shape[1] <= record.terms:
        return A @ B % p
    # sums of products past int64: exact Python ints, then back
    return (np.dot(A.astype(object), B.astype(object)) % p).astype(np.int64)


def mmul_chain(*mats, base=ZZ):
    record = kernels(base)
    out = mats[0]
    for m in mats[1:]:
        out = _mmul(out, m, record)
    return out


def mpow(A, k, base=ZZ):
    """A^k by square-and-multiply from A: at most 2 * floor(log2 k)
    products, none by the identity.  A^0 is the identity, and A^1 a copy of
    A in the form of base.  Raises ValueError on a matrix that is not square
    or on k < 0."""
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"power of a {A.shape} matrix")
    if k < 0:
        raise ValueError(f"matrix power {k} is negative")
    if k == 0:
        return eye(A.shape[0], base)
    A = _rest(A, base, kernels(base))
    if k == 1:
        return A.copy()
    out = None
    while k > 1:
        if k & 1:
            out = A if out is None else mmul(out, A, base)
        k >>= 1
        A = mmul(A, A, base)
    return A if out is None else mmul(out, A, base)


def kron(A, B, base=ZZ):
    """Kronecker product: entry (i*rB + k, j*cB + l) is A[i, j] * B[k, l]."""
    record = kernels(base)
    p = record.p
    if p:
        A, B = to_residues(A, p), to_residues(B, p)
    K = (A[:, None, :, None] * B[None, :, None, :]).reshape(
        A.shape[0] * B.shape[0], A.shape[1] * B.shape[1])
    return K % p if p else _rest(K, base, record)


def power_sum(W, count, base=ZZ):
    """I + W + W^2 + ... + W^(count - 1), for count >= 1: count - 2
    products, starting from I + W.  Raises ValueError on count < 1."""
    if count < 1:
        raise ValueError(f"power sum of {count} terms")
    total = eye(W.shape[0], base)
    if count == 1:
        return total
    W = _rest(W, base, kernels(base))
    total = add_scaled(total, W, 1, base)
    acc = W
    for _ in range(count - 2):
        acc = mmul(acc, W, base)
        total = add_scaled(total, acc, 1, base)
    return total


def orbit(W, X, count, base=ZZ):
    """[X | W X | ... | W^(count - 1) X] for X in the form of base, by
    count - 1 products: the images of the copies of an orbit generator,
    copy j being W^j of copy 0."""
    out = [X]
    for _ in range(count - 1):
        out.append(mmul(W, out[-1], base))
    return hstack(out)


def scalar_mul(c, A, base=ZZ):
    """c * A in the form of base.  Over Z, the default, the product is
    numpy's, entry by entry on whatever A holds: an FFElement times a
    residue array gives FFElements."""
    record = kernels(base)
    p = record.p
    if p:
        return to_residues(A, p) * int(base.coerce(c)) % p
    return A.copy() if A.size == 0 else _rest(A * c, base, record)


# ---------------------------------------------------------------------------
# entrywise operations over a base ring

def coerce(A, base):
    """A in the form its base keeps at rest (see the module docstring):
    every entry is converted and, over F_p, reduced mod p.

    Raises ValueError on an element of another field."""
    record = kernels(base)
    p = record.p
    if not p:
        return _rest(A, base, record)
    if A.dtype != object:
        return A.astype(np.int64, copy=False) % p
    for v in A.flat:
        if isinstance(v, FFElement) and v.field is not base:
            raise ValueError(f"mixed fields: {v.field!r} element in a {base!r} matrix")
    return to_residues(A, p)


def _elements(A, field):
    """Object array of the interned field elements with the entries of A."""
    out = np.empty(A.shape, dtype=object)
    out.reshape(-1)[:] = [field.coerce(v) for v in A.flat]
    return out


def neg(A, base):
    record = kernels(base)
    p = record.p
    if p:
        return -to_residues(A, p) % p
    return _rest(-A, base, record)


def _same_shape(A, B):
    if A.shape != B.shape:
        raise ValueError(f"entrywise operation on {A.shape} and {B.shape} matrices")


def sub(A, B, base):
    """A - B; raises ValueError unless A and B have one shape."""
    _same_shape(A, B)
    record = kernels(base)
    p = record.p
    if p:
        return (to_residues(A, p) - to_residues(B, p)) % p
    return _rest(A - B, base, record)


def add_scaled(F, A, c, base):
    """F + c * A; raises ValueError unless F and A have one shape."""
    _same_shape(F, A)
    record = kernels(base)
    p = record.p
    if p:
        return (to_residues(A, p) * int(base.coerce(c)) % p + to_residues(F, p)) % p
    return _rest(F + A * c, base, record)


# ---------------------------------------------------------------------------
# prime-field residue conversion

def field_elements(field, idx):
    """The elements at indices idx into field.elements(), in the field's
    at-rest form (over F_p the indices are the residues)."""
    if kernels(field).p:
        return np.array(idx, dtype=np.int64)
    return np.vectorize(field.element, otypes=[object])(idx)


def to_residues(A, p):
    """int64 array of the entries of A reduced mod p; int64 input is taken
    to be residues already and returned as it is."""
    if A.dtype is _INT64:
        return A
    try:
        return A.astype(np.int64) % p
    except OverflowError:              # Python ints beyond int64
        return np.array([int(v) % p for v in A.flat], dtype=np.int64).reshape(A.shape)


# ---------------------------------------------------------------------------
# elimination over a field

# Eliminations with at most this many entries run on Python-int rows.  On
# the eliminations of a field-decide pass (hom systems 1-17 % nonzero) the
# list rows win up to about 1,000 entries, where their cost, which grows
# with the fill-in, meets the numpy rows' fixed cost per pivot; on dense
# matrices they already lose past about 256 entries (16 x 16).  512 keeps
# the sparse systems within 3 % of their best split and dense ones within
# about 2x of numpy.  Over F_2 the list rows beat packed rows on the tiny
# systems that dominate doc-cli (most under 64 entries); on the 64-512
# entry systems of a field-decide pass the packed rows were faster, but by
# about 1 ms a pass, too little to set a crossover of their own.
_ROWS_MAX_ENTRIES = 512


def _rref_mod_p(M, p):
    """Reduced row echelon form (R, pivots) of an int64 residue matrix mod p,
    as a new int64 array; M is not changed.  Needs (p - 1)^2 < 2^63.

    The pivot of each column is its first nonzero entry at or below the
    current row, scaled by pow(a, p - 2, p).  R is unique, so the list, the
    packed F_2 and the array regime give the same R and pivots."""
    if M.size <= _ROWS_MAX_ENTRIES:
        return _rref_rows(M, p)
    if p == 2:
        return _rref_f2(M)
    return _rref_array(M.copy(), p)


def _rref_f2(M):
    """_rref_mod_p over F_2 on rows packed into Python ints, column j at bit
    width - 1 - j, so a row's leading column is its top bit.  Each row joins
    an echelon set keyed by top bit with one XOR per pivot it leads into;
    one pass at the end, from the rightmost pivot on, clears the entries
    above each pivot."""
    m, n = M.shape
    nbytes = (n + 7) // 8
    data = np.packbits(M, axis=1).tobytes()
    echelon = {}
    for i in range(m):
        row = int.from_bytes(data[i * nbytes:(i + 1) * nbytes], "big")
        while row:
            top = row.bit_length() - 1
            other = echelon.get(top)
            if other is None:
                echelon[top] = row
                break
            row ^= other
    tops = sorted(echelon)
    mask = 0                             # the pivot bits right of top
    for top in tops:
        row = echelon[top]
        hits = row & mask
        while hits:
            b = hits.bit_length() - 1
            hits ^= 1 << b
            row ^= echelon[b]
        echelon[top] = row
        mask |= 1 << top
    tops.reverse()
    packed = b"".join([echelon[t].to_bytes(nbytes, "big") for t in tops])
    packed += bytes((m - len(tops)) * nbytes)
    bits = np.frombuffer(packed, dtype=np.uint8).reshape(m, nbytes)
    R = np.unpackbits(bits, axis=1, count=n).astype(np.int64)
    return R, [8 * nbytes - 1 - t for t in tops]


def _rref_rows(M, p):
    """_rref_mod_p on M.tolist(): each row with a nonzero entry in the pivot
    column is updated from that column on by one list comprehension."""
    m, n = M.shape
    rows = M.tolist()
    pivots = []
    for col in range(n):
        r = len(pivots)
        if r >= m:
            break
        for piv in range(r, m):
            if rows[piv][col]:
                break
        else:
            continue
        top = rows[piv]
        rows[piv], rows[r] = rows[r], top
        if top[col] != 1:
            inv = pow(top[col], p - 2, p)
            top[col:] = [x * inv % p for x in top[col:]]
        tail = top[col:]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                row[col:] = [(x - f * y) % p for x, y in zip(row[col:], tail)]
        pivots.append(col)
    return np.array(rows, dtype=np.int64).reshape(m, n), pivots


def _rank_rows(rows, p):
    """The rank mod p of the matrix with the lists of Python ints `rows`, by
    forward elimination alone: each step takes the first row with a nonzero
    leading entry as the pivot, drops it, and clears that entry from the
    other rows, which keep only their columns right of it."""
    r = 0
    while rows and rows[0]:
        i = next((i for i, row in enumerate(rows) if row[0]), None)
        if i is None:
            rows = [row[1:] for row in rows]
            continue
        top = rows.pop(i)
        inv, tail = pow(top[0], p - 2, p), top[1:]
        rows = [[(x - f * y) % p for x, y in zip(row[1:], tail)]
                if (f := row[0] * inv % p) else row[1:] for row in rows]
        r += 1
    return r


def _det_rows(rows, p):
    """The determinant mod p of the square matrix with the lists of Python
    ints `rows`, by `_rank_rows`' elimination; 0 at the first column with no
    pivot, as soon as the matrix is known to be singular."""
    det = 1
    while rows:
        i = next((i for i, row in enumerate(rows) if row[0]), None)
        if i is None:
            return 0
        top = rows.pop(i)
        det = det * top[0] * (-1) ** i % p      # i row swaps bring the pivot up
        inv, tail = pow(top[0], p - 2, p), top[1:]
        rows = [[(x - f * y) % p for x, y in zip(row[1:], tail)]
                if (f := row[0] * inv % p) else row[1:] for row in rows]
    return det


def _rref_array(M, p):
    """_rref_mod_p on the int64 array M, in place: each pivot step clears
    only the rows that are nonzero in the pivot column, and only the columns
    from the pivot on, by one broadcast product."""
    m, n = M.shape
    pivots = []
    for col in range(n):
        r = len(pivots)
        if r >= m:
            break
        column = M[:, col]
        nz = column[r:].nonzero()[0]
        if not nz.size:
            continue
        piv = r + int(nz[0])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        a = int(column[r])
        if a != 1:
            M[r, col:] = M[r, col:] * pow(a, p - 2, p) % p
        others = column.nonzero()[0]
        others = others[others != r]
        if others.size:
            M[others, col:] = (M[others, col:] - column[others, None] * M[r, col:]) % p
        pivots.append(col)
    return M, pivots


def _rref_generic(A, field):
    """Gauss-Jordan on FFElement entries; used for GF(p^k), k > 1, and for
    prime fields too large for int64 residues."""
    m, n = A.shape
    M = _elements(A, field)
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        piv = -1
        for i in range(row, m):
            if M[i, col] != field.zero:
                piv = i
                break
        if piv < 0:
            continue
        if piv != row:
            M[[row, piv]] = M[[piv, row]]
        M[row] = M[row] * M[row, col].inv()
        for i in range(m):
            if i != row and M[i, col] != field.zero:
                M[i] = M[i] - M[i, col] * M[row]
        pivots.append(col)
        row += 1
    return M, pivots


def rref(A, field):
    """Reduced row echelon form (R, pivots)."""
    p = kernels(field).p
    if p:
        return _rref_mod_p(to_residues(A, p), p)
    return _rref_generic(A, field)


def rank(A, field) -> int:
    if A.size == 0:
        return 0
    p = kernels(field).p
    if not p:
        return len(_rref_generic(A, field)[1])
    A = to_residues(A, p)
    if A.size <= _ROWS_MAX_ENTRIES:
        return _rank_rows(A.tolist(), p)
    return len(_rref_mod_p(A, p)[1])


def solve(A, B, field):
    """One solution X of A @ X = B over the field or Z, or None.

    Over a field free variables are set to 0; over Z this is `solve_int`."""
    if kernels(field).integers:
        return solve_int(A, B)
    n = A.shape[1]
    R, pivots = rref(hstack([A, B]), field)
    if pivots and pivots[-1] >= n:
        return None
    X = zeros(n, B.shape[1], field)
    if pivots:
        X[pivots, :] = R[:len(pivots), n:]
    return X


def nullspace(A, field):
    """Basis of the right kernel, as columns of the returned matrix.

    Over Z this is `nullspace_int`, a basis of the saturated kernel lattice."""
    if kernels(field).integers:
        return nullspace_int(A)
    n = A.shape[1]
    R, pivots = rref(A, field)
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    K = eye(n, field)[:, free]
    if pivots and free:
        K[pivots, :] = neg(R[:len(pivots), free], field)
    return K


def inv_field(A, field):
    """Inverse of a square matrix over the field, or None when singular.
    Raises ValueError on a matrix that is not square."""
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError(f"inverse of a {A.shape} matrix")
    return solve(A, eye(n, field), field)


def column_space_basis(A, field):
    """Columns of A forming a basis of the column space (pivot columns).

    Over Z this is `column_lattice_basis`, a basis of the column lattice."""
    record = kernels(field)
    if record.integers:
        return column_lattice_basis(A)
    if record.p:
        A = to_residues(A, record.p)
    if A.shape[1] == 0:
        return A.copy()
    _, pivots = rref(A, field)
    return A[:, pivots].copy() if pivots else zeros(A.shape[0], 0, field)


# ---------------------------------------------------------------------------
# Smith normal form over Z

class SmithForm:
    """U @ A @ V = D with U, V unimodular and diagonal D, d_i | d_{i+1} >= 0;
    Uinv is the inverse of U."""

    def __init__(self, U, D, V, Uinv):
        self.U = U
        self.D = D
        self.V = V
        self.Uinv = Uinv

    @property
    def diagonal(self):
        return [int(self.D[i, i]) for i in range(min(self.D.shape))]


def _find_pivot(D, t):
    # smallest absolute nonzero entry; ties broken row-major
    best = None
    m, n = D.shape
    for i in range(t, m):
        for j in range(t, n):
            v = D[i, j]
            if v != 0 and (best is None or abs(v) < best[0]):
                best = (abs(v), i, j)
    return best


def smith_normal_form(A) -> SmithForm:
    """Deterministic SNF with tracked transforms (pivot = min |entry|, row-major ties)."""
    m, n = A.shape
    D = A.astype(object).copy()
    U, Ui = eye(m), eye(m)
    V = eye(n)

    def row_add(i, j, c):  # row_i += c * row_j
        D[i, :] = D[i, :] + c * D[j, :]
        U[i, :] = U[i, :] + c * U[j, :]
        Ui[:, j] = Ui[:, j] - c * Ui[:, i]

    def col_add(j, i, c):  # col_j += c * col_i
        D[:, j] = D[:, j] + c * D[:, i]
        V[:, j] = V[:, j] + c * V[:, i]

    def row_swap(i, j):
        D[[i, j], :] = D[[j, i], :]
        U[[i, j], :] = U[[j, i], :]
        Ui[:, [i, j]] = Ui[:, [j, i]]

    def col_swap(i, j):
        D[:, [i, j]] = D[:, [j, i]]
        V[:, [i, j]] = V[:, [j, i]]

    def row_neg(i):
        D[i, :] = -D[i, :]
        U[i, :] = -U[i, :]
        Ui[:, i] = -Ui[:, i]

    t = 0
    while True:
        piv = _find_pivot(D, t)
        if piv is None:
            break
        _, pi, pj = piv
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if D[t, t] < 0:
            row_neg(t)
        dirty = False
        for i in range(t + 1, m):
            if D[i, t] != 0:
                q = D[i, t] // D[t, t]
                row_add(i, t, -q)
                if D[i, t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if D[t, j] != 0:
                q = D[t, j] // D[t, t]
                col_add(j, t, -q)
                if D[t, j] != 0:
                    dirty = True
        if dirty:
            continue
        # pivot must divide the remaining block for the divisibility chain
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if D[i, j] % D[t, t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1
    return SmithForm(U, D, V, Ui)


# Residue stacks (C, n, n) with C * n at most these go matrix by matrix
# through `_det_rows`, about C n^2 entry steps (fewer when a singular matrix
# stops early); larger ones take the batched elimination, about n numpy
# steps whatever C is.  On the per-level stacks of field-decide's iso jobs,
# mostly singular, 32 was fastest (seeds 11-13, 2 vCPUs: 43-54 ms against
# 61-82 at 16 and 42-78 at 64) and keeps random F_2, F_3 and F_5 stacks
# within 1.3x of the batched elimination.  The Z candidates of doc-cli's
# iso jobs, mostly nonsingular mod the filter prime, cross over near 8.
_MASK_ROWS_MAX = 32
_UNIT_ROWS_MAX = 8


def unit_det_mask(A, p):
    """Boolean mask of the matrices of a (C, n, n) int64 residue stack whose
    determinant is +-1 mod p, for (p - 1)^2 < 2^63; a 0 x 0 matrix has
    determinant 1.  With C * n at most `_UNIT_ROWS_MAX` each determinant
    comes from `_det_rows`; otherwise one batched elimination (`_eliminate`)
    gives det = num / den, so the test needs no inverse: num = +-den, and a
    singular matrix has num = 0."""
    if A.shape[0] * A.shape[1] <= _UNIT_ROWS_MAX:
        return np.array([_det_rows(M, p) in (1, p - 1) for M in A.tolist()], dtype=bool)
    num, den = _eliminate(A, p)
    return (num != 0) & ((num == den) | (num == (p - den) % p))


def _eliminate(A, p):
    """(num, den) with det = num / den for each matrix of the (C, n, n) stack
    A: num is the signed product of the pivots, den the product of the row
    scalings.  A singular matrix has num = 0.  With p, A holds int64
    residues and every step is reduced mod p; with p None, A holds field
    elements and the steps are the field's own arithmetic.  Fraction-free:
    one pass per pivot column over the whole stack scales the rows below a
    pivot d by d before the pivot row is subtracted."""
    A = np.array(A, dtype=np.int64 if p else object)
    C, n = A.shape[0], A.shape[1]

    def reduce(X):
        return X % p if p else X

    num = np.ones(C, dtype=A.dtype)
    den = np.ones(C, dtype=A.dtype)
    negate = np.zeros(C, dtype=bool)
    for j in range(n):
        # the first row from j down with a nonzero entry in column j
        piv = j + (A[:, j:, j] != 0).argmax(axis=1)
        swap = np.flatnonzero(piv != j)
        if swap.size:
            rows = A[swap, j].copy()
            A[swap, j] = A[swap, piv[swap]]
            A[swap, piv[swap]] = rows
            negate[swap] ^= True
        if j:
            den = reduce(den * num)     # rows j.. were scaled by every pivot so far
        d = A[:, j, j]
        num = reduce(num * d)
        if j + 1 < n:
            A[:, j + 1:, j + 1:] = reduce(A[:, j + 1:, j + 1:] * d[:, None, None]
                                          - A[:, j + 1:, j, None] * A[:, j, None, j + 1:])
    num[negate] = reduce(-num[negate])
    return num, den


def full_rank_mask(A, field):
    """Boolean mask of the invertible matrices in a (C, n, n) stack over a
    finite field.  Plain ints in A are read as field elements.

    Two regimes, as in `_rref_mod_p`.  A residue stack of C matrices n x n
    with C * n at most `_MASK_ROWS_MAX` is decided matrix by matrix on lists
    of Python ints (`_det_rows`, which stops at the first column with no
    pivot); there the numpy calls of a batched pivot step would cost more
    than the arithmetic.  Larger stacks, and stacks over GF(p^k),
    k > 1, or a prime past the int64 bound, take the batched elimination
    of `unit_det_mask`, on residues or on field elements in the field's own
    arithmetic, and keep the matrices with a nonzero determinant."""
    p = kernels(field).p
    if not p:
        return _eliminate(coerce(A, field), None)[0] != 0
    A = to_residues(A, p)
    if A.shape[0] * A.shape[1] <= _MASK_ROWS_MAX:
        return np.array([_det_rows(M, p) != 0 for M in A.tolist()], dtype=bool)
    return _eliminate(A, p)[0] != 0


def bareiss_det(A) -> int:
    """Exact determinant of a square integer matrix (fraction-free elimination)."""
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError(f"determinant of a {A.shape} matrix")
    if n == 0:
        return 1
    M = [[int(A[i, j]) for j in range(n)] for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def solve_int(A, B):
    """Integer solution X of A @ X = B, or None.  B may be a matrix."""
    m, n = A.shape
    s = smith_normal_form(A)
    C = mmul(s.U, B)
    Y = zeros(n, B.shape[1])
    r = min(m, n)
    for j in range(B.shape[1]):
        for i in range(m):
            d = int(s.D[i, i]) if i < r else 0
            c = int(C[i, j])
            if d == 0:
                if c != 0:
                    return None
            else:
                if c % d != 0:
                    return None
                Y[i, j] = c // d
    return mmul(s.V, Y)


def nullspace_int(A):
    """Basis (columns) of the integer kernel of A; the kernel lattice is saturated."""
    m, n = A.shape
    if n == 0:
        return zeros(0, 0)
    if m == 0:
        return eye(n)
    s = smith_normal_form(A)
    r = min(m, n)
    zero_cols = [j for j in range(n) if j >= r or int(s.D[j, j]) == 0]
    return s.V[:, zero_cols].copy() if zero_cols else zeros(n, 0)


def column_lattice_basis(A):
    """Basis matrix for the lattice spanned by the columns of A."""
    s = smith_normal_form(A)
    cols = []
    r = min(A.shape)
    for i in range(r):
        d = int(s.D[i, i])
        if d != 0:
            cols.append(scalar_mul(d, s.Uinv[:, i:i + 1]))
    return hstack(cols) if cols else zeros(A.shape[0], 0)


def lattice_contains(L, B) -> bool:
    """Whether every column of B lies in the column lattice of L."""
    return solve_int(L, B) is not None


def lattice_equal(L1, L2) -> bool:
    return lattice_contains(L1, L2) and lattice_contains(L2, L1)
