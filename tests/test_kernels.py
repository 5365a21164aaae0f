"""Prime-field residue kernels against their FFElement object references.

Every kernel in linalg that runs on int64 residues for F_p is compared with
the exact object-array computation it replaces: Gauss-Jordan on FFElement
entries (_rref_generic), np.kron / np.dot on object arrays, and entrywise
FFElement arithmetic.  Their results must also be in the form F_p matrices
keep at rest: dtype int64, every entry a residue in [0, p).  The property
tests are derandomized, so every run draws the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mackeykit.linalg as la
from mackeykit.fields import gf_make
from mackeykit.functors import free_module
from mackeykit.green import GreenModule, constant_green, direct_sum_green_modules
from mackeykit.gsets import CyclicGroup
from mackeykit.kzero import decompose_module
from mackeykit.mackey import MackeyFunctor, MackeyMorphism, hom_basis, is_isomorphic

PRIMES = (2, 3, 5, 7)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def field_matrix(draw, p, rows=None, cols=None, max_side=6):
    """A matrix over GF(p) mixing interned elements with plain ints 0 and 1."""
    F = gf_make(p, 1)
    m = draw(st.integers(0, max_side)) if rows is None else rows
    n = draw(st.integers(0, max_side)) if cols is None else cols
    A = np.empty((m, n), dtype=object)
    for i in range(m):
        for j in range(n):
            if draw(st.booleans()):
                A[i, j] = draw(st.sampled_from([0, 1]))
            else:
                A[i, j] = F.embed(draw(st.integers(0, p - 1)))
    return F, A


@st.composite
def prime_matrix(draw, **kw):
    return draw(field_matrix(draw(st.sampled_from(PRIMES)), **kw))


def obj_ref(A, F):
    """A with every entry an FFElement, built without any residue kernel."""
    out = np.empty(A.shape, dtype=object)
    for idx in np.ndindex(A.shape):
        out[idx] = F.coerce(A[idx])
    return out


def same(A, B):
    return A.shape == B.shape and all(a == b for a, b in zip(A.flat, B.flat))


def all_residues(A, F):
    return A.dtype == np.int64 and bool(((0 <= A) & (A < F.p)).all())


# --- elimination -------------------------------------------------------------


@SETTINGS
@given(prime_matrix())
def test_rref_matches_object_gauss_jordan(case):
    F, A = case
    R, piv = la.rref(A, F)
    R_ref, piv_ref = la._rref_generic(A, F)
    assert piv == piv_ref
    assert same(R, R_ref)
    assert all_residues(R, F)
    assert la.rank(A, F) == len(piv_ref)


@SETTINGS
@given(prime_matrix())
def test_nullspace_matches_reference(case):
    F, A = case
    m, n = A.shape
    K = la.nullspace(A, F)
    assert K.shape[0] == n and all_residues(K, F)
    if m and n:
        R, piv = la._rref_generic(A, F)
        free = [j for j in range(n) if j not in piv]
        K_ref = obj_ref(la.zeros(n, len(free)), F)
        for c, j in enumerate(free):
            K_ref[j, c] = F.one
            for r, col in enumerate(piv):
                K_ref[col, c] = -R[r, j]
        assert same(K, K_ref)
        assert la.is_zero_mat(la.mmul(A, K, F))


@SETTINGS
@given(st.sampled_from(PRIMES).flatmap(
    lambda p: st.integers(0, 5).flatmap(
        lambda m: st.tuples(field_matrix(p, rows=m), field_matrix(p, rows=m, max_side=3)))))
def test_solve_matches_reference(pair):
    (F, A), (_, B) = pair
    n = A.shape[1]
    X = la.solve(A, B, F)
    assert X is None or all_residues(X, F)
    if n == 0:
        return
    R, piv = la._rref_generic(la.hstack([A, B]), F)
    if any(col >= n for col in piv):
        assert X is None
        return
    X_ref = obj_ref(la.zeros(n, B.shape[1]), F)
    for r, col in enumerate(piv):
        X_ref[col, :] = R[r, n:]
    assert same(X, X_ref)
    assert la.mat_eq(la.mmul(A, X, F), obj_ref(B, F)) if A.shape[0] else True


# --- products and entrywise operations ----------------------------------------


@SETTINGS
@given(st.sampled_from(PRIMES).flatmap(
    lambda p: st.tuples(field_matrix(p, max_side=4), field_matrix(p, max_side=4))))
def test_kron_matches_object_kron(pair):
    (F, A), (_, B) = pair
    K = la.kron(A, B, F)
    assert K.shape == (A.shape[0] * B.shape[0], A.shape[1] * B.shape[1])
    if K.size:
        assert same(K, np.kron(obj_ref(A, F), obj_ref(B, F)))
    assert all_residues(K, F)


@SETTINGS
@given(st.sampled_from(PRIMES).flatmap(
    lambda p: st.integers(0, 5).flatmap(
        lambda k: st.tuples(field_matrix(p, cols=k), field_matrix(p, rows=k)))))
def test_mmul_matches_object_dot(pair):
    (F, A), (_, B) = pair
    C = la.mmul(A, B, F)
    assert C.shape == (A.shape[0], B.shape[1]) and all_residues(C, F)
    if C.size and A.shape[1]:
        assert same(C, np.dot(obj_ref(A, F), obj_ref(B, F)))


@SETTINGS
@given(st.sampled_from(PRIMES).flatmap(
    lambda p: st.integers(0, 5).flatmap(
        lambda m: st.integers(0, 5).flatmap(
            lambda n: st.tuples(field_matrix(p, rows=m, cols=n),
                                field_matrix(p, rows=m, cols=n),
                                st.integers(0, p - 1))))))
def test_entrywise_ops_match_ffelement_arithmetic(case):
    (F, A), (_, B), c = case
    Ao, Bo = obj_ref(A, F), obj_ref(B, F)
    cases = [(la.neg(A, F), lambda i: -Ao[i]),
             (la.sub(A, B, F), lambda i: Ao[i] - Bo[i]),
             (la.add_scaled(A, B, F.embed(c), F), lambda i: Ao[i] + Bo[i] * F.embed(c)),
             (la.add_scaled(A, B, c, F), lambda i: Ao[i] + Bo[i] * c),
             (la.coerce(A, F), lambda i: Ao[i])]
    for got, want in cases:
        assert got.shape == A.shape and all_residues(got, F)
        assert all(got[i] == want(i) for i in np.ndindex(A.shape))


# --- mixed fields ------------------------------------------------------------


def test_mixed_fields_raise_value_error():
    F3, F5, F4 = gf_make(3, 1), gf_make(5, 1), gf_make(2, 2)
    with pytest.raises(ValueError, match="mixed fields"):
        F3.one + F5.one
    with pytest.raises(ValueError, match="mixed fields"):
        F5.coerce(F3.one)
    for base, stray in [(F5, F3.one), (F4, F3.one), (F5, F4.gen)]:
        A = la.eye(2)                  # object array: an int64 one would take int(stray)
        A[1, 0] = stray
        with pytest.raises(ValueError, match="mixed fields"):
            la.coerce(A, base)
        with pytest.raises(ValueError, match="mixed fields"):
            la.add_scaled(la.eye(2), la.eye(2), stray, base)


def _with_stray(A, stray):
    """A copy of A as an object array with entry (0, 0) replaced by stray."""
    out = A.astype(object)
    out[0, 0] = stray
    return out


@pytest.mark.parametrize("stray", [gf_make(5, 1).embed(2), gf_make(2, 2).gen],
                         ids=["F5", "GF4"])
def test_functors_and_morphisms_reject_elements_of_another_field(stray):
    M = free_module(constant_green(CyclicGroup(3, 1), gf_make(3, 1)), 0).underlying
    tr = [_with_stray(M.tr[0], stray)]
    with pytest.raises(ValueError, match="mixed fields"):
        MackeyFunctor(M.group, M.base, M.levels, M.res, tr, M.weyl)
    comps = [_with_stray(c, stray) for c in MackeyMorphism.identity(M).components]
    with pytest.raises(ValueError, match="mixed fields"):
        MackeyMorphism(M, M, comps)


# --- one functor from FFElements and from residues ----------------------------


def _element_copy(P: GreenModule) -> GreenModule:
    """P with every matrix of its underlying functor and of its action
    handed in as FFElements; the ring is shared."""
    M, F = P.underlying, P.base
    und = MackeyFunctor(M.group, F, M.levels, [obj_ref(A, F) for A in M.res],
                        [obj_ref(A, F) for A in M.tr],
                        [obj_ref(A, F) for A in M.weyl], name=M.name)
    action = [[obj_ref(A, F) for A in mats] for mats in P.action]
    return GreenModule(P.ring, und, action, name=P.name)


def _same_maps(fs, gs):
    return len(fs) == len(gs) and all(
        all(la.mat_eq(a, b) for a, b in zip(f.components, g.components))
        for f, g in zip(fs, gs))


@pytest.mark.parametrize("p,n,levels", [(2, 1, (0, 1)), (3, 1, (0, 1)), (5, 1, (1, 0)),
                                        (2, 2, (1, 2)), (3, 2, (2, 1)), (5, 2, (2,))])
def test_element_and_residue_functors_give_equal_results(p, n, levels):
    k = constant_green(CyclicGroup(p, n), gf_make(p, 1))
    P = direct_sum_green_modules([free_module(k, i) for i in levels])
    Q = _element_copy(P)
    assert all(all_residues(A, k.base) for A in Q.action[0])
    for A, B in zip(P.underlying.res + P.underlying.tr, Q.underlying.res + Q.underlying.tr):
        assert all_residues(B, k.base) and la.mat_eq(A, B)
    M, N = P.underlying, Q.underlying
    assert _same_maps(hom_basis(M, M), hom_basis(N, N))
    assert _same_maps(hom_basis(M, N), hom_basis(N, M))
    r1, r2 = is_isomorphic(M, M, seed=3), is_isomorphic(N, N, seed=3)
    assert r1.verdict == r2.verdict == "isomorphic"
    assert _same_maps([r1.witness], [r2.witness])
    d1, d2 = decompose_module(k, P, seed=5), decompose_module(k, Q, seed=5)
    assert d1.ok and d2.ok
    assert d1.classification.mults == d2.classification.mults
    assert _same_maps([d1.witness], [d2.witness])


# --- large prime fields ------------------------------------------------------

# 2^31 - 1 keeps (p - 1)^2 below 2^63; 3037000507 is the first prime past it
LARGE_PRIMES = (4099, 2 ** 31 - 1, 3037000507)


def _int_ref_mmul(A, B, p):
    return [[sum(int(A[i, t]) * int(B[t, j]) for t in range(A.shape[1])) % p
             for j in range(B.shape[1])] for i in range(A.shape[0])]


def _residue_matrix(F, rng, m, n):
    A = np.empty((m, n), dtype=object)
    for idx in np.ndindex(A.shape):
        A[idx] = F.embed(int(rng.integers(0, F.p)))
    return A


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_large_prime_kernels_match_exact_reference(p):
    F = gf_make(p, 1, (0, 1))
    rng = np.random.default_rng(p % 1000)
    top = F.embed(p - 1)
    for m, k, n in [(2, 1, 3), (3, 2, 2), (3, 4, 2), (4, 6, 5)]:
        A, B = _residue_matrix(F, rng, m, k), _residue_matrix(F, rng, k, n)
        C = la.mmul(A, B, F)
        assert [[int(v) for v in row] for row in C] == _int_ref_mmul(A, B, p)
        # every entry p - 1: the largest sums an int64 accumulator would see
        fa, fb = np.empty((m, k), dtype=object), np.empty((k, n), dtype=object)
        fa[...] = fb[...] = top
        C = la.mmul(fa, fb, F)
        assert all(int(v) == k * (p - 1) ** 2 % p for v in C.flat)
        assert same(la.kron(A, B, F), np.kron(A, B))
    A = _residue_matrix(F, rng, 5, 7)
    A[3] = A[0] * F.embed(3) + A[1]              # force a dependent row
    R, piv = la.rref(A, F)
    R_ref, piv_ref = la._rref_generic(A, F)
    assert piv == piv_ref and same(R, R_ref)
    assert la.rank(A, F) == 4
    K = la.nullspace(A, F)
    assert K.shape == (7, 3) and la.is_zero_mat(la.mmul(A, K, F))
    X = la.solve(A, la.mmul(A, K[:, :1], F), F)
    assert X is not None
    assert la.mat_eq(la.mmul(A, X, F), la.mmul(A, K[:, :1], F))


# --- mpow ----------------------------------------------------------------------


def _counting_products(monkeypatch, base):
    """Record every la.mmul call; fail on one with an identity operand."""
    calls = []
    real = la.mmul

    def counting(A, B, base=la.ZZ):
        for X in (A, B):
            assert not (X.shape[0] == X.shape[1] and la.mat_eq(X, la.eye(X.shape[0], base))), \
                "a product by the identity"
        calls.append(1)
        return real(A, B, base)

    monkeypatch.setattr(la, "mmul", counting)
    return calls


MPOW_BASES = pytest.mark.parametrize("base", [la.ZZ, gf_make(2, 1), gf_make(2, 2)],
                                     ids=["Z", "F2", "F4"])


@MPOW_BASES
def test_mpow_uses_logarithmically_many_products(monkeypatch, base):
    calls = _counting_products(monkeypatch, base)
    # singular, so no power of A is the identity; A^k has k at (0, 1)
    A = la.mat([[1, 1, 0], [0, 1, 0], [0, 0, 0]], base=base)
    for k in [1, 2, 3, 5, 8, 13, 64, 1000, 2 ** 40]:
        calls.clear()
        P = la.mpow(A, k, base)
        assert len(calls) <= 2 * int(math.log2(k)), k
        want = k if base is la.ZZ else k % base.p
        assert la.mat_eq(P, la.mat([[1, want, 0], [0, 1, 0], [0, 0, 0]], base=base))
        assert P is not A and P.dtype == A.dtype
    calls.clear()
    assert la.mat_eq(la.mpow(A, 0, base), la.eye(3)) and not calls


@MPOW_BASES
def test_power_sum_takes_count_minus_two_products(monkeypatch, base):
    calls = _counting_products(monkeypatch, base)
    W = la.mat([[0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 0]], base=base)
    for count in (1, 2, 3, 4, 7):
        calls.clear()
        S = la.power_sum(W, count, base)
        assert len(calls) == max(count - 2, 0), count
        assert S is not W and S.dtype == W.dtype


def test_mpow_agrees_with_repeated_products():
    F = gf_make(3, 1)
    rng = np.random.default_rng(11)
    A = _residue_matrix(F, rng, 3, 3)
    acc = la.eye(3)
    for k in range(12):
        assert la.mat_eq(la.mpow(A, k, F), acc)
        acc = la.mmul(acc, A, F)
