"""Gauss-Jordan mod p on both sides of the crossover: list rows, and packed
F_2 or numpy rows.

`la._rref_mod_p` reduces matrices of at most `la._ROWS_MAX_ENTRIES` entries
on lists of Python ints (`_rref_rows`), and larger ones on rows packed into
Python ints over F_2 (`_rref_f2`) and on numpy rows for odd p
(`_rref_array`).  Every kernel is compared with
`reference_rref`, the single numpy kernel they replaced, kept here as it
was: on derandomized matrices up to 40 x 40, tall ones up to 200 x 24 and
sparse ones (5-10 % nonzero, like the hom systems), over primes from 2 to
3037000493, the largest p with (p - 1)^2 < 2^63.  Over F_2 the packed rows
are also checked at widths around the byte and word boundaries (1, 7, 8, 9,
63, 64, 65 and 200 columns) and on empty and all-zero matrices.  `rank`,
`solve`, `nullspace`, `column_space_basis` and `inv_field` must give the
same results on the new kernels as on the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mackeykit.linalg as la
from mackeykit.fields import gf_make
from mackeykit.functors import free_module
from mackeykit.green import direct_sum_green_modules, fixed_point_green, green_module_hom_basis
from mackeykit.gsets import CyclicGroup
from mackeykit.mackey import hom_basis

KERNEL_PRIMES = (2, 3, 5, 7, 65521, 3037000493)
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def reference_rref(M, p):
    """The elimination before the list/array split, unchanged: row-reduces
    M in place with one outer-product update per pivot."""
    m, n = M.shape
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        nz = M[row:, col].nonzero()[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            M[[row, piv]] = M[[piv, row]]
        M[row, col:] = M[row, col:] * pow(int(M[row, col]), p - 2, p) % p
        others = M[:, col].nonzero()[0]
        others = others[others != row]
        if others.size:
            M[others, col:] = (M[others, col:]
                               - np.outer(M[others, col], M[row, col:])) % p
        pivots.append(col)
        row += 1
    return M, pivots


@st.composite
def residue_matrix(draw, max_rows, max_cols, densities=(1.0, 0.5, 0.2)):
    """(p, A): an int64 residue matrix, at a drawn density, of full rank or
    a product through a drawn inner dimension (so rank-deficient)."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    m = draw(st.integers(0, max_rows))
    n = draw(st.integers(0, max_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from(densities))

    def sparse(r, c):
        return rng.integers(0, p, (r, c), dtype=np.int64) * (rng.random((r, c)) < density)

    inner = draw(st.one_of(st.none(), st.integers(0, max(min(m, n) - 1, 0))))
    if inner is None:
        return p, sparse(m, n)
    F = gf_make(p, 1)
    return p, la.mmul(sparse(m, inner), sparse(inner, n), F)


@st.composite
def f2_matrix(draw, n):
    """(2, A): an F_2 matrix with n columns, of full rank or a product
    through a drawn inner dimension."""
    m = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from((0.5, 0.1, 0.02)))

    def sparse(r, c):
        return (rng.random((r, c)) < density).astype(np.int64)

    inner = draw(st.one_of(st.none(), st.integers(0, max(min(m, n) - 1, 0))))
    if inner is None:
        return 2, sparse(m, n)
    return 2, la.mmul(sparse(m, inner), sparse(inner, n), gf_make(2, 1))


SQUARE = residue_matrix(40, 40)
TALL = st.integers(24, 200).flatmap(lambda m: residue_matrix(m, 24))
SPARSE = residue_matrix(160, 64, densities=(0.05, 0.075, 0.1))


def _check_kernels(p, A):
    keep = A.copy()
    R_ref, piv_ref = reference_rref(A.copy(), p)
    kernels = [la._rref_mod_p(A, p), la._rref_rows(A, p), la._rref_array(A.copy(), p)]
    if p == 2:
        kernels.append(la._rref_f2(A))
    for R, piv in kernels:
        assert piv == piv_ref
        assert R.dtype == R_ref.dtype == np.int64
        assert R.shape == R_ref.shape and (R == R_ref).all()
    assert (A == keep).all(), "_rref_mod_p changed its input"


def _derived(A, F):
    n = A.shape[1]
    B = A[:, : max(n // 3, 1)] if n else la.zeros(A.shape[0], 1, F)
    out = [la.rank(A, F), la.solve(A, B, F), la.nullspace(A, F), la.column_space_basis(A, F)]
    if A.shape[0] == A.shape[1]:
        out.append(la.inv_field(A, F))
    return out


def _check_derived(p, A):
    F = gf_make(p, 1)
    got = _derived(A, F)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(la, "_rref_mod_p", lambda M, q: reference_rref(M.copy(), q))
        want = _derived(A, F)
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert (g is None) == (w is None)
        if g is not None:
            assert g.dtype == w.dtype == np.int64 and la.mat_eq(g, w)
    if len(got) == 5 and got[4] is not None:
        assert la.mat_eq(la.mmul(A, got[4], F), la.eye(A.shape[0], F))


@SETTINGS
@given(SQUARE)
def test_rref_matches_reference_up_to_40_by_40(case):
    _check_kernels(*case)
    _check_derived(*case)


@SETTINGS
@given(TALL)
def test_rref_matches_reference_on_tall_matrices(case):
    _check_kernels(*case)
    _check_derived(*case)


@SETTINGS
@given(SPARSE)
def test_rref_matches_reference_on_sparse_systems(case):
    _check_kernels(*case)
    _check_derived(*case)


@pytest.mark.parametrize("width", [1, 7, 8, 9, 63, 64, 65, 200])
def test_packed_f2_rows_match_reference(width):
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(f2_matrix(width))
    def check(case):
        _check_kernels(*case)
        _check_derived(*case)
    check()


@pytest.mark.parametrize("shape", [(0, 0), (0, 9), (9, 0), (1, 1), (5, 8), (3, 65), (70, 200)])
def test_packed_f2_rows_on_empty_and_zero_matrices(shape):
    A = np.zeros(shape, dtype=np.int64)
    R, piv = la._rref_f2(A)
    assert piv == [] and R.dtype == np.int64 and R.shape == shape and not R.any()
    _check_kernels(2, A)
    _check_derived(2, A)


def test_crossover_sends_each_size_to_its_path(monkeypatch):
    calls = []
    for name in ("_rref_rows", "_rref_array", "_rref_f2"):
        real = getattr(la, name)
        monkeypatch.setattr(la, name, lambda M, *p, real=real, name=name:
                            calls.append(name) or real(M, *p))
    limit = la._ROWS_MAX_ENTRIES
    for shape, path in [((1, limit), "_rref_rows"), ((limit, 1), "_rref_rows"),
                        ((1, limit + 1), "_rref_array"), ((limit + 1, 1), "_rref_array")]:
        calls.clear()
        la._rref_mod_p(np.ones(shape, dtype=np.int64), 3)
        assert calls == [path], shape
        calls.clear()
        la._rref_mod_p(np.ones(shape, dtype=np.int64), 2)
        assert calls == [path.replace("_rref_array", "_rref_f2")], shape


def test_hom_system_of_fp_f16_over_c4():
    """The 540 x 189 F_2 system of hom_basis for FP(F16)/C4, [1, 2] ->
    [1, 2], with the ring generators' actions as intertwiners (the Weyl
    pairs that are the identity on both sides add no rows).  It was the
    largest elimination of a field-decide pass; green_module_hom_basis now
    takes the Yoneda route on this free source, so the system is built
    through hom_basis directly."""
    seen = []
    real = la._rref_mod_p

    def spy(M, p):
        seen.append((M.copy(), p))
        return real(M, p)

    R = fixed_point_green(CyclicGroup(2, 2), gf_make(2, 4))
    S = direct_sum_green_modules([free_module(R, 1), free_module(R, 2)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(la, "_rref_mod_p", spy)
        inter = [[(S.action[s][u], S.action[s][u]) for u in R.ring(s).generators]
                 for s in range(R.n + 1)]
        basis = hom_basis(S.underlying, S.underlying, level_intertwiners=inter)
    assert len(basis) == 9 == len(green_module_hom_basis(S, S))
    M, p = max(seen, key=lambda case: case[0].size)
    assert M.shape == (540, 189) and p == 2
    R_ref, piv_ref = reference_rref(M.copy(), p)
    R, piv = real(M, p)
    assert piv == piv_ref and len(piv) == 189 - 9
    assert R.dtype == np.int64 and (R == R_ref).all()
