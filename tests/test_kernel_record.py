"""One kernel record per base, maps kept at rest, and the F_p eliminations
that are paid once.

- `la.kernels` resolves a base once and keeps the record on the base.
- The library's own constructions hand their maps to `MackeyFunctor.at_rest`,
  `GreenModule.at_rest` and `MackeyMorphism.at_rest`, so `la.coerce`, which
  converts and reduces caller input, sees no matrix already at rest.
- `reduced_quotient` over a field reads its projection off the echelon form
  it already has; it is compared here with the construction it replaced,
  which inverted the completed basis C, kept below as the reference.
- `full_rank_mask` decides small F_p stacks matrix by matrix on Python-int
  rows and larger ones by the batched elimination; both are compared with
  `rank` matrix by matrix, on both sides of the crossover.

The property tests are derandomized.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mackeykit.linalg as la
from mackeykit.fields import gf_make
from mackeykit.functors import free_module
from mackeykit.green import (GreenModuleMorphism, GreenMorphism, base_change_cp,
                             check_green_module, constant_green, direct_sum_green_modules,
                             green_module_from_invariant_span)
from mackeykit.gsets import CyclicGroup
from mackeykit.kzero import invert_module_iso
from mackeykit.linalg import ZZ
from mackeykit.mackey import MackeyMorphism
from mackeykit.modules import reduced_quotient

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
BIG_PRIME = 4294967311              # (p - 1)^2 is past the int64 bound


# --- the kernel record ----------------------------------------------------------


def test_each_base_resolves_its_kernels_once():
    assert la.kernels(ZZ).integers and la.kernels(ZZ).p is None
    for field, p in [(gf_make(2, 1), 2), (gf_make(65521, 1), 65521), (gf_make(2, 2), None),
                     (gf_make(3, 2), None), (gf_make(BIG_PRIME, 1), None)]:
        record = la.kernels(field)
        assert la.kernels(field) is record is field.linalg_kernels
        assert not record.integers and record.p == p
    # the largest prime with int64 residues sums one product, F_2 any number
    assert la.kernels(gf_make(3037000493, 1)).terms == 1
    assert la.kernels(gf_make(2, 1)).terms == 2 ** 63 - 1
    assert not hasattr(la, "_int64_prime")


def test_int64_operands_are_taken_as_residues():
    # an int64 operand is not reduced again; coerce, for callers, reduces
    F = gf_make(5, 1)
    A = np.array([[7, 1], [0, 1]], dtype=np.int64)
    assert la.mmul(A, la.eye(2, F), F).tolist() == [[2, 1], [0, 1]]
    assert la.coerce(A, F).tolist() == [[2, 1], [0, 1]]
    obj = np.array([[7, 1], [0, 1]], dtype=object)
    assert la.mmul(obj, la.eye(2, F), F).dtype == np.int64


# --- at-rest constructors ---------------------------------------------------------


def test_library_constructions_convert_no_matrix_at_rest(monkeypatch):
    F3 = gf_make(3, 1)
    R = constant_green(CyclicGroup(3, 1), F3)
    F0, F1 = free_module(R, 0), free_module(R, 1)
    M = direct_sum_green_modules([F0, F1])
    ident = GreenMorphism(R, R, MackeyMorphism.identity(R.underlying).components)
    # the F1 summand: block diagonal maps keep its columns
    spans = [la.eye(g, F3)[:, d:] for g, d in zip(M.level_dims(), F0.level_dims())]
    seen, coerce = [], la.coerce

    def spy(A, base):
        if A.dtype == np.int64:
            seen.append(A.shape)
        return coerce(A, base)

    monkeypatch.setattr(la, "coerce", spy)
    B = base_change_cp(ident, M)
    sub, incl = green_module_from_invariant_span(M, spans)
    monkeypatch.undo()
    assert seen == []
    assert B.level_dims() == M.level_dims() and check_green_module(B).ok
    assert sub.level_dims() == F1.level_dims() and check_green_module(sub).ok
    assert incl.check().ok
    for A in B.underlying.res + B.underlying.tr + B.underlying.weyl + B.action + sub.action:
        assert A.dtype == np.int64 and A.min(initial=0) >= 0 and A.max(initial=0) < 3


def test_direct_sums_over_extension_fields_hold_field_elements():
    # block_diag fills with the base's own zero, so GF(4) maps stay elements
    F4 = gf_make(2, 2)
    R = constant_green(CyclicGroup(2, 1), F4)
    M = direct_sum_green_modules([free_module(R, 0), free_module(R, 1)])
    for A in M.underlying.res + M.underlying.tr + M.underlying.weyl + M.action:
        assert A.dtype == object and all(getattr(v, "field", None) is F4 for v in A.flat)
    assert check_green_module(M).ok


def test_inverting_a_singular_module_map_is_a_value_error():
    # the inverse is built at rest, so a singular component is refused first
    R = constant_green(CyclicGroup(2, 1), gf_make(2, 1))
    F1 = free_module(R, 1)
    zero = GreenModuleMorphism(F1, F1, [la.zeros(g, g, R.base) for g in F1.level_dims()])
    with pytest.raises(ValueError, match="levelwise isomorphism"):
        invert_module_iso(zero)


# --- reduced_quotient over a field ----------------------------------------------


def reference_quotient(base, gens, rel_cols):
    """The field branch of reduced_quotient as it was: C is the span's
    pivot columns and the greedily chosen standard vectors, proj = C^-1[r:]
    and lift = C[:, r:]."""
    c = rel_cols.shape[1]
    ident = la.eye(gens, base)
    _, pivots = la.rref(la.hstack([rel_cols, ident]), base)
    span = [j for j in pivots if j < c]
    r = len(span)
    if r == 0:
        return gens, ident, ident.copy()
    C = la.hstack([rel_cols[:, span], ident[:, [j - c for j in pivots[r:]]]])
    Cinv = la.inv_field(C, base)
    return gens - r, Cinv[r:, :].copy(), C[:, r:].copy()


QUOTIENT_FIELDS = [gf_make(2, 1), gf_make(3, 1), gf_make(5, 1), gf_make(2, 2), gf_make(3, 2)]


@st.composite
def relations(draw):
    """(field, gens, rel): a relation matrix of rank 0, of full rank, with
    repeated columns, or at random, its entries in the field's form."""
    field = draw(st.sampled_from(QUOTIENT_FIELDS))
    gens = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 9))
    kind = draw(st.sampled_from(["zero", "full", "repeated", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    idx = rng.integers(0, field.q, size=(gens, cols))
    if kind == "zero":
        idx[:] = 0
    elif kind == "full":
        idx = np.hstack([idx, np.eye(gens, dtype=np.int64)[:, rng.permutation(gens)]])
    elif kind == "repeated" and cols:
        idx = idx[:, rng.integers(0, cols, size=2 * cols)]
    return field, gens, la.field_elements(field, idx)


@SETTINGS
@given(relations())
def test_reduced_quotient_reads_the_projection_off_the_echelon_form(case):
    field, gens, rel = case
    Q, proj, lift = reduced_quotient(field, gens, rel)
    q = Q.gens
    assert proj.shape == (q, gens) and lift.shape == (gens, q)
    assert la.is_zero_mat(la.mmul(proj, rel, field))
    assert la.mat_eq(la.mmul(proj, lift, field), la.eye(q, field))
    want_q, want_proj, want_lift = reference_quotient(field, gens, rel)
    assert q == want_q == gens - la.rank(rel, field)
    for got, want in ((proj, want_proj), (lift, want_lift)):
        assert got.dtype == want.dtype and la.mat_eq(got, want)


# --- full_rank_mask on both sides of its crossover --------------------------------


MASK_FIELDS = [gf_make(2, 1), gf_make(3, 1), gf_make(5, 1), gf_make(65521, 1),
               gf_make(BIG_PRIME, 1), gf_make(2, 2)]


def _stack(field, rng, count, n, singular):
    """count n x n matrices of the field's form; with singular, each has a
    zero column or two equal ones."""
    idx = rng.integers(0, min(field.q, 4), size=(count, n, n))
    if singular and n:
        for A in idx:
            j, k = rng.integers(0, n, size=2)
            A[:, j] = 0 if j == k else A[:, k]
    return la.field_elements(field, idx)


@pytest.mark.parametrize("field", MASK_FIELDS, ids=repr)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_full_rank_mask_matches_rank_on_both_sides_of_the_crossover(field, n, monkeypatch):
    rng = np.random.default_rng(field.q * 10 + n)
    limit = la._MASK_ROWS_MAX
    small = max(limit // max(n, 1), 1)
    sizes = [1, small] + ([small + 1] if n else [])
    regimes, det_rows, eliminate = [], la._det_rows, la._eliminate
    monkeypatch.setattr(la, "_det_rows", lambda *a: regimes.append("rows") or det_rows(*a))
    monkeypatch.setattr(la, "_eliminate", lambda *a: regimes.append("batched") or eliminate(*a))
    for count in sizes:
        for singular in (False, True):
            A = _stack(field, rng, count, n, singular)
            regimes.clear()
            mask = la.full_rank_mask(A, field)
            rows = la.kernels(field).p and count * n <= limit
            assert set(regimes) == {"rows" if rows else "batched"}, (count, regimes)
            assert mask.dtype == bool and mask.shape == (count,)
            assert mask.tolist() == [la.rank(M, field) == n for M in A]
            if singular and n:
                assert not mask.any()
    if la.kernels(field).p and n:
        assert count * n > limit                     # the last stack was batched
