import numpy as np
import pytest

import mackeykit.linalg as la
from mackeykit.fields import gf_make

from oracles import rational_det, rational_rank


def rand_int_matrix(rng, m, n, lo=-9, hi=9):
    A = la.zeros(m, n)
    for i in range(m):
        for j in range(n):
            A[i, j] = int(rng.integers(lo, hi + 1))
    return A


# --- Smith normal form -------------------------------------------------------


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 2), (4, 4), (5, 3), (3, 6)])
def test_smith_form_properties(shape):
    rng = np.random.default_rng(20_000 + shape[0] * 10 + shape[1])
    for _ in range(8):
        A = rand_int_matrix(rng, *shape)
        S = la.smith_normal_form(A)
        # defining identity
        assert la.mat_eq(la.mmul_chain(S.U, A, S.V), S.D)
        # unimodularity via an independent determinant (fraction elimination)
        assert abs(rational_det(S.U)) == 1
        assert abs(rational_det(S.V)) == 1
        # tracked inverses really are inverses
        assert la.mat_eq(la.mmul(S.U, S.Uinv), la.eye(shape[0]))
        # diagonal, nonnegative, divisibility chain
        d = S.diagonal
        for i in range(shape[0]):
            for j in range(shape[1]):
                if i != j:
                    assert S.D[i, j] == 0
        assert all(x >= 0 for x in d)
        for a, b in zip(d, d[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0


def test_smith_form_known():
    A = la.mat([[2, 0], [0, 3]])
    S = la.smith_normal_form(A)
    assert S.diagonal == [1, 6]

    B = la.mat([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    # d1 = gcd(entries) = 2, d1*d2 = gcd(2x2 minors) = 4, d1*d2*d3 = |det| = 624
    assert la.smith_normal_form(B).diagonal == [2, 2, 156]


SMITH_PINNED = [
    ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
     {"U": [[1, 0, 0], [-22, 1, 5], [-885, 40, 201]],
      "D": [[2, 0, 0], [0, 2, 0], [0, 0, 156]],
      "V": [[1, -34, 66], [0, 1, -2], [0, 16, -31]],
      "Uinv": [[1, 0, 0], [-3, 201, -5], [5, -40, 1]]}),
    ([[0, 3, -6, 9], [4, 0, 2, -2], [6, 3, -3, 7]],
     {"U": [[0, 2, 1], [-3, -6, 2], [-10, -21, 6]],
      "D": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 6, 0]],
      "V": [[0, 0, 0, 1], [0, -1, 1, -4], [1, -3, 6, -2], [0, 2, -3, 0]],
      "Uinv": [[-6, 33, -10], [2, -10, 3], [-3, 20, -6]]}),
]


@pytest.mark.parametrize("rows,want", SMITH_PINNED)
def test_smith_transforms_are_pinned(rows, want):
    # the pivot rule fixes U and V, and through them the bases (and the
    # printed bytes) of every quotient built by reduced_quotient
    S = la.smith_normal_form(la.mat(rows))
    for name, matrix in want.items():
        assert getattr(S, name).tolist() == matrix, name


def test_smith_diagonal_matches_sympy():
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    rng = np.random.default_rng(61)
    for _ in range(50):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        A = rand_int_matrix(rng, m, n, -6, 6)
        if rng.integers(0, 3) == 0:          # rank-deficient: a repeated row
            A[m - 1, :] = A[0, :]
        ref = smith_normal_form(Matrix(A.tolist()), domain=ZZ)
        assert la.smith_normal_form(A).diagonal == [abs(int(ref[i, i])) for i in range(min(m, n))]


def test_smith_deterministic():
    A = la.mat([[4, 6], [6, 4]])
    S1 = la.smith_normal_form(A)
    S2 = la.smith_normal_form(A)
    assert la.mat_eq(S1.U, S2.U) and la.mat_eq(S1.V, S2.V)


def test_int_rank_matches_rational_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        A = rand_int_matrix(rng, m, n, -4, 4)
        assert sum(d != 0 for d in la.smith_normal_form(A).diagonal) == rational_rank(A)


def test_bareiss_det_matches_rational_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        A = rand_int_matrix(rng, n, n, -6, 6)
        assert la.bareiss_det(A) == rational_det(A)


# --- integer solving and lattices --------------------------------------------


def test_solve_int_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(15):
        m, n, k = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        A = rand_int_matrix(rng, m, n)
        X = rand_int_matrix(rng, n, k)
        B = la.mmul(A, X)
        X2 = la.solve_int(A, B)
        assert X2 is not None
        assert la.mat_eq(la.mmul(A, X2), B)
        assert la.mat_eq(la.solve(A, B, la.ZZ), X2)


def test_solve_int_unsolvable():
    A = la.mat([[2]])
    B = la.mat([[1]])
    assert la.solve_int(A, B) is None
    assert la.solve(A, B, la.ZZ) is None


def test_nullspace_int():
    rng = np.random.default_rng(10)
    for _ in range(15):
        m, n = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        A = rand_int_matrix(rng, m, n, -3, 3)
        N = la.nullspace_int(A)
        assert la.mat_eq(la.nullspace(A, la.ZZ), N)
        if N.shape[1]:
            assert la.is_zero_mat(la.mmul(A, N))
        # rank-nullity over Q
        assert N.shape[1] == n - rational_rank(A)
        assert rational_rank(N) == N.shape[1] if N.shape[1] else True


def test_lattice_ops():
    rng = np.random.default_rng(11)
    A = rand_int_matrix(rng, 4, 6, -5, 5)
    L = la.column_lattice_basis(A)
    assert la.mat_eq(la.column_space_basis(A, la.ZZ), L)
    assert la.column_space_basis(la.zeros(4, 0), la.ZZ).shape == (4, 0)
    # mutual containment
    assert la.lattice_contains(L, A)
    assert la.lattice_contains(A, L)
    assert la.lattice_equal(A, L)
    # unimodular column ops do not change the lattice
    U = la.mat([[1, 1, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
                [0, 0, 0, 1, 0, 2], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])
    assert la.lattice_equal(A, la.mmul(A, U))
    # strict sublattice
    assert not la.lattice_contains(la.scalar_mul(2, A), A) or la.is_zero_mat(A)


# --- field linear algebra ----------------------------------------------------


@pytest.mark.parametrize("p,k", [(2, 1), (5, 1), (2, 2), (3, 2)])
def test_field_solve_and_nullspace(p, k):
    F = gf_make(p, k)
    rng = np.random.default_rng(100 * p + k)
    elems = list(F.elements())
    for _ in range(10):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        A = la.zeros(m, n)
        for i in range(m):
            for j in range(n):
                A[i, j] = elems[int(rng.integers(0, len(elems)))]
        X = la.zeros(n, 2)
        for i in range(n):
            for j in range(2):
                X[i, j] = elems[int(rng.integers(0, len(elems)))]
        B = la.mmul(A, X, base=F)
        X2 = la.solve(A, B, F)
        assert X2 is not None
        assert la.mat_eq(la.mmul(A, X2, base=F), B)
        N = la.nullspace(A, F)
        assert la.rank(A, F) + N.shape[1] == n
        if N.shape[1]:
            assert la.is_zero_mat(la.mmul(A, N, base=F))


def test_inv_field():
    F = gf_make(7, 1)
    rng = np.random.default_rng(77)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        A = la.zeros(n, n)
        for i in range(n):
            for j in range(n):
                A[i, j] = F.embed(int(rng.integers(0, 7)))
        if la.rank(A, F) < n:
            continue
        Ai = la.inv_field(A, F)
        assert la.mat_eq(la.mmul(A, Ai, base=F), la.eye(n, F))


def test_mmul_fast_path_matches_generic():
    # the vectorized prime-field product must agree with plain object dot
    F = gf_make(5, 1)
    rng = np.random.default_rng(55)
    A = la.zeros(3, 4)
    B = la.zeros(4, 2)
    for M in (A, B):
        for i in range(M.shape[0]):
            for j in range(M.shape[1]):
                M[i, j] = F.embed(int(rng.integers(0, 5)))
    fast = la.mmul(A, B, base=F)
    slow = np.dot(A, B)
    assert la.mat_eq(fast, slow)


def test_solve_inconsistent_field():
    F = gf_make(2, 1)
    A = la.mat([[F.zero]])
    B = la.mat([[F.one]])
    assert la.solve(A, B, F) is None


# --- shape errors that survive python -O -----------------------------------------
# Each input below passed silently through numpy (a broadcast, a truncation,
# or a power or inverse of a non-square matrix) where an assert stood before.

SHAPE_BASES = pytest.mark.parametrize("base", [la.ZZ, gf_make(3, 1), gf_make(2, 2)],
                                      ids=["Z", "F3", "F4"])


@SHAPE_BASES
def test_sub_rejects_a_broadcast(base):
    with pytest.raises(ValueError, match="entrywise"):
        la.sub(la.eye(2, base), la.zeros(1, 2, base), base)


@SHAPE_BASES
def test_add_scaled_rejects_a_broadcast(base):
    with pytest.raises(ValueError, match="entrywise"):
        la.add_scaled(la.zeros(2, 2, base), la.zeros(2, 1, base), 1, base)


@SHAPE_BASES
@pytest.mark.parametrize("k", [0, 1])
def test_mpow_rejects_a_non_square_matrix(base, k):
    with pytest.raises(ValueError, match="power"):
        la.mpow(la.zeros(2, 3, base), k, base)


@SHAPE_BASES
def test_mpow_rejects_a_negative_power(base):
    A = la.mat([[1, 1], [0, 1]], base=base)
    with pytest.raises(ValueError, match="power -1 is negative"):
        la.mpow(A, -1, base)


@SHAPE_BASES
@pytest.mark.parametrize("count", [0, -1])
def test_power_sum_rejects_an_empty_sum(base, count):
    with pytest.raises(ValueError, match=f"power sum of {count} terms"):
        la.power_sum(la.eye(2, base), count, base)
    assert la.mat_eq(la.power_sum(la.eye(2, base), 1, base), la.eye(2, base))


@pytest.mark.parametrize("field", [gf_make(3, 1), gf_make(2, 2)], ids=["F3", "F4"])
def test_inv_field_rejects_a_non_square_matrix(field):
    with pytest.raises(ValueError, match="inverse"):
        la.inv_field(la.eye(3, field)[:2], field)


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
def test_bareiss_det_rejects_a_non_square_matrix(shape):
    with pytest.raises(ValueError, match="determinant"):
        la.bareiss_det(la.mat([[1, 2, 3], [4, 5, 6], [7, 8, 10]])[:shape[0], :shape[1]])


# --- equality and zero tests -------------------------------------------------

def _equality_cases():
    F = gf_make(2, 2)
    A = np.arange(12, dtype=np.int64).reshape(3, 4)
    big = la.mat([[2 ** 70, -(2 ** 64)], [0, 1]])
    elems = la.mat([[F.one, F.gen], [F.zero, F.gen ** 2]], base=F)
    return [
        ("int64 vs object, equal values", A, A.astype(object)),
        ("object vs int64, unequal values", A.astype(object), A + 1),
        ("transposed view", A.T, np.ascontiguousarray(A.T)),
        ("transposed view vs its transpose", A.T[:3, :3], A[:3, :3]),
        ("sliced view", A[::2, 1:], A[::2, 1:].copy()),
        ("sliced object view", A.astype(object)[1:, ::3], A[1:, ::3].copy()),
        ("0 x n", la.zeros(0, 3), np.zeros((0, 3), dtype=np.int64)),
        ("n x 0", np.zeros((3, 0), dtype=np.int64), np.zeros((3, 0), dtype=np.int64)),
        ("0 x n vs n x 0", la.zeros(0, 3), la.zeros(3, 0)),
        ("Z beyond int64, equal", big, big.copy()),
        ("Z beyond int64, unequal", big, la.add_scaled(big, la.eye(2), 1, la.ZZ)),
        ("FFElements, equal", elems, elems.copy()),
        ("FFElements, unequal", elems, elems.T),
        ("FFElements vs ints", la.zeros(2, 2, F), la.zeros(2, 2)),
        ("unequal shapes", A, A.reshape(4, 3)),
        ("unequal shapes, one entry", A[:1, :1], A[:1, :2]),
    ]


@pytest.mark.parametrize("A,B", [c[1:] for c in _equality_cases()],
                         ids=[c[0] for c in _equality_cases()])
def test_mat_eq_matches_elementwise_equality(A, B):
    want = A.shape == B.shape and bool(np.equal(A, B).all())
    assert la.mat_eq(A, B) is want and la.mat_eq(B, A) is want


@pytest.mark.parametrize("A", [c[1] for c in _equality_cases()] +
                         [c[2] for c in _equality_cases()] +
                         [np.zeros((2, 3), dtype=np.int64), la.zeros(2, 2),
                          la.zeros(2, 3, gf_make(2, 2)), la.mat([[0, 2 ** 70]]),
                          np.zeros((4, 4), dtype=np.int64)[::2, 1:]])
def test_is_zero_mat_matches_elementwise_equality(A):
    assert la.is_zero_mat(A) is bool(np.equal(A, 0).all())


# --- from_ints ----------------------------------------------------------------


@pytest.mark.parametrize("p,k", [(2, 2), (3, 3), (4611686018427388039, 1)])
def test_from_ints_converts_each_residue_once(p, k, monkeypatch):
    F = gf_make(p, k)
    residues = [0, 1, F.q - 1, 2, F.q - 2, 1]
    want = la.mat([[F.residue_element(r) for r in residues[:3]],
                   [F.residue_element(r) for r in residues[3:]]], base=F)
    calls = []
    residue_element = F.residue_element
    monkeypatch.setattr(F, "residue_element", lambda r: calls.append(r) or residue_element(r))
    monkeypatch.setattr(F, "coerce", lambda v: pytest.fail("entry converted twice"))
    A = la.from_ints(residues, 2, 3, F)
    assert calls == residues
    assert A.dtype == object and la.mat_eq(A, want)


def test_from_ints_keeps_the_ints_over_z_and_residues_over_small_primes():
    big = 2 ** 70
    A = la.from_ints([1, -big, 0, 3], 2, 2)
    assert A.dtype == object and A.tolist() == [[1, -big], [0, 3]]
    B = la.from_ints([4, 0, 1, 2], 2, 2, gf_make(5, 1))
    assert B.dtype == np.int64 and B.tolist() == [[4, 0], [1, 2]]
