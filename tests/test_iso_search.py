"""The batched isomorphism search against the one-candidate-at-a-time loop.

`la.unit_det_mask` and `la.full_rank_mask` over F_p are compared with the
exact integer determinant (Bareiss and the rational oracle) reduced mod p.
`is_isomorphic` is compared with `reference_is_isomorphic` below: the search
as it was before candidates were batched, one `_combine` and one
`is_level_iso` per coefficient vector, in the same order.  Verdict, witness, certificate, detail and the search
statistics must all be equal.  The property tests are derandomized.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mackeykit.linalg as la
import mackeykit.mackey as mackey
from mackeykit.fields import gf_make
from mackeykit.functors import brutal_truncation, free_module, induce_mackey
from mackeykit.green import box_product_general, burnside_green, constant_green
from mackeykit.green import direct_sum_green_modules
from mackeykit.gsets import CyclicGroup
from mackeykit.linalg import ZZ
from mackeykit.mackey import (_FILTER_PRIME, _SMALL_PRIMES, MackeyFunctor, MackeyMorphism,
                              resolve_seed, burnside_mackey, constant_mackey, hom_basis,
                              is_isomorphic, twisted_burnside_c5)

from oracles import rational_det

# 3037000493 is the largest prime with (p - 1)^2 < 2^63
KERNEL_PRIMES = (2, 3, 5, 65521, 3037000493)
SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


# --- the batched determinant ---------------------------------------------------


@st.composite
def residue_stack(draw):
    """(p, A): a (C, n, n) stack mod p with many zeros, so that singular
    matrices and pivots that need a row swap are common."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    n = draw(st.integers(0, 5))
    C = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(0, min(p - 1, 3)), st.integers(0, p - 1))
    A = np.array(draw(st.lists(entry, min_size=C * n * n, max_size=C * n * n)),
                 dtype=np.int64).reshape(C, n, n)
    return p, A


def exact_dets(A, p):
    return [la.bareiss_det(a.astype(object)) % p for a in A]


def det_masks(A, p):
    """The two decisions taken from a determinant mod p: a unit (the Z
    filter and the mod-m certificate) and nonzero (invertible over F_p)."""
    return la.unit_det_mask(A, p).tolist(), la.full_rank_mask(A, gf_make(p, 1)).tolist()


def masks_of(dets, p):
    return [d in (1 % p, p - 1) for d in dets], [d != 0 for d in dets]


@SETTINGS
@given(residue_stack())
def test_det_mod_p_matches_exact_determinants(case):
    p, A = case
    want = exact_dets(A, p)
    assert want == [int(rational_det(a)) % p for a in A]
    assert det_masks(A, p) == masks_of(want, p)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_det_mod_p_edge_shapes_and_row_swaps(p):
    assert det_masks(np.zeros((3, 0, 0), dtype=np.int64), p) == ([True] * 3, [True] * 3)
    assert det_masks(np.array([[[0]], [[1]], [[p - 1]]]), p) == ([False, True, True],
                                                                [False, True, True])
    three = np.array([[[0, 0, 1], [0, 1, 0], [1, 0, 0]],         # one swap: det -1
                      [[0, 1, 0], [0, 0, 1], [1, 0, 0]]])        # two swaps: det +1
    assert exact_dets(three, p) == [(p - 1) % p, 1]
    assert det_masks(three, p) == ([True, True], [True, True])
    # the same swaps with a pivot 2 or 3 on the way: det -2 and +3
    scaled = three * np.array([[[1], [2], [1]], [[3], [1], [1]]]) % p
    assert exact_dets(scaled, p) == [-2 % p, 3 % p]
    assert det_masks(scaled, p) == ([p == 3, p == 2], [p != 2, p != 3])
    singular = np.array([[[1, 2, 3], [2, 4, 6], [0, 1, 1]],    # rows 0 and 1 dependent
                         [[0, 0, 0], [1, 2, 3], [4, 5, 6]],    # zero row
                         [[0, 1, 2], [0, 3, 4], [0, 5, 6]]],   # zero pivot column
                        dtype=np.int64) % p
    assert det_masks(singular, p) == ([False] * 3, [False] * 3)
    # a larger batch agrees with the exact values
    rng = np.random.default_rng(p % 1000)
    big = rng.integers(0, min(p, 4), size=(100, 4, 4)).astype(np.int64)
    assert det_masks(big, p) == masks_of(exact_dets(big, p), p)


@SETTINGS
@given(residue_stack())
def test_unit_det_mask_matches_exact_determinants(case):
    p, A = case
    mask = la.unit_det_mask(A, p)
    assert mask.dtype == bool and mask.shape == (len(A),)
    assert mask.tolist() == [d in (1 % p, p - 1) for d in exact_dets(A, p)]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_unit_det_mask_edge_cases(p):
    assert la.unit_det_mask(np.zeros((2, 0, 0), dtype=np.int64), p).tolist() == [True, True]
    ones = np.array([[[0]], [[1]], [[p - 1]], [[2 % p]]])
    assert la.unit_det_mask(ones, p).tolist() == [False, True, True, p == 3]
    # singular matrices whose later pivots are all 0 must not read as units
    singular = np.array([[[0, 0], [0, 0]], [[1, 1], [1, 1]], [[0, 1], [0, 1]]]) % p
    assert la.unit_det_mask(singular, p).tolist() == [False, False, False]
    swaps = np.array([[[0, 1], [1, 0]], [[0, 2], [1, 0]]]) % p    # det -1 and -2
    assert la.unit_det_mask(swaps, p).tolist() == [True, p == 3]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_unit_det_mask_on_both_sides_of_its_crossover(p, n, monkeypatch):
    # up to C * n = _UNIT_ROWS_MAX the determinants come from the list rows
    rng = np.random.default_rng(p % 1000 + n)
    regimes, det_rows, eliminate = [], la._det_rows, la._eliminate
    monkeypatch.setattr(la, "_det_rows", lambda *a: regimes.append("rows") or det_rows(*a))
    monkeypatch.setattr(la, "_eliminate", lambda *a: regimes.append("batched") or eliminate(*a))
    small = max(la._UNIT_ROWS_MAX // max(n, 1), 1)
    for C in (1, small, small + 1, 64):
        # permutation matrices (det +-1) with some entries scaled or zeroed
        A = np.zeros((C, n, n), dtype=np.int64)
        for M in A:
            M[np.arange(n), rng.permutation(n)] = rng.choice([0, 1, 1, 2, p - 1], size=n) % p
        regimes.clear()
        mask = la.unit_det_mask(A, p)
        rows = C * n <= la._UNIT_ROWS_MAX
        assert set(regimes) == {"rows" if rows else "batched"}
        assert mask.tolist() == [d in (1 % p, p - 1) for d in exact_dets(A, p)]


# GF(3^9) is past TABLE_LIMIT and 4294967311 past the int64 bound: both are
# eliminated on field elements, the others on int64 residues
@pytest.mark.parametrize("field", [gf_make(2, 1), gf_make(7, 1), gf_make(2, 2), gf_make(3, 2),
                                   gf_make(3, 9), gf_make(4294967311, 1)])
def test_full_rank_mask_matches_rank(field):
    rng = np.random.default_rng(field.p * 10 + field.k)
    for n in (0, 1, 2, 3):
        idx = rng.integers(0, min(field.q, 3), size=(40, n, n))
        A = np.empty(idx.shape, dtype=object)
        A.reshape(-1)[:] = [field.element(int(v)) for v in idx.flat]
        # plain ints are read as field elements, in an object array or not
        for stack in (A, idx, idx.astype(object)):
            mask = la.full_rank_mask(stack, field)
            assert mask.dtype == bool and mask.shape == (40,)
            assert mask.tolist() == [la.rank(a, field) == n for a in stack]
    # integer determinant 2: singular exactly in characteristic 2
    T = np.array([[[1, 1, 0], [0, 1, 1], [1, 0, 1]]])
    for stack in (T, T.astype(object)):
        assert la.full_rank_mask(stack, field).tolist() == [field.p != 2]


# --- the candidate search ------------------------------------------------------


class Ref:
    def __init__(self, verdict, witness=None, certificate=None, detail="", stats=None):
        self.verdict, self.witness, self.certificate = verdict, witness, certificate
        self.detail, self.stats = detail, stats


def _combine(homs, coeffs, base):
    comps = []
    for s in range(len(homs[0].components)):
        r, k = homs[0].components[s].shape
        F = la.zeros(r, k)
        for h, c in zip(homs, coeffs):
            if c:
                F = la.add_scaled(F, h.components[s], c, base)
        comps.append(F)
    return MackeyMorphism(homs[0].source, homs[0].target, comps)


def _unimodular_mod(f, m):
    return all(la.bareiss_det(F) % m in (1 % m, (m - 1) % m) for F in f.components)


def reference_is_isomorphic(M, N, seed=None, exhaustive_cap=200_000, random_tries=10_000,
                            coeff_bound=5, modulus_cap=200_000):
    """is_isomorphic one candidate at a time, with the same statistics.  Over
    Z the candidates are the first exhaustive_cap // 2 rows of
    `mackey.support_rows`, whose order `test_support_rows_list_the_box_up_to_sign`
    checks."""
    base = M.base
    stats = {"hom_rank": None, "phase": "ranks", "candidates": {}, "passed_filter": {},
             "moduli": [], "seed": None}
    if M.level_dims() != N.level_dims():
        return Ref("not_isomorphic", certificate={"reason": "level ranks differ",
                                                  "left": M.level_dims(),
                                                  "right": N.level_dims()},
                   detail="level ranks differ", stats=stats)
    if all(g == 0 for g in M.level_dims()):
        return Ref("isomorphic", witness=MackeyMorphism.identity(M), detail="both zero",
                   stats=stats)
    homs = hom_basis(M, N)
    h = stats["hom_rank"] = len(homs)
    stats["phase"] = "hom"
    if h == 0:
        return Ref("not_isomorphic", certificate={"reason": "no nonzero homs"},
                   detail="hom group is zero", stats=stats)

    def search(phase, candidates, passes):
        stats["candidates"][phase] = stats["passed_filter"][phase] = 0
        for coeffs in candidates:
            f = _combine(homs, coeffs, base)
            stats["candidates"][phase] += 1
            stats["passed_filter"][phase] += passes(f)
            if f.is_level_iso():
                stats["phase"] = phase
                return f
        return None

    if base is not ZZ:
        q = base.q
        elems = list(base.elements())
        level_iso = MackeyMorphism.is_level_iso
        if q ** h <= exhaustive_cap:
            f = search("box", itertools.product(elems, repeat=h), level_iso)
            stats["phase"] = "box"
            if f is not None:
                return Ref("isomorphic", witness=f, detail="exhaustive search", stats=stats)
            return Ref("not_isomorphic", certificate={"reason": "no iso in the full hom space",
                                                      "hom_dim": h},
                       detail="exhausted the hom space", stats=stats)
        stats["seed"] = resolve_seed(seed)
        rng = random.Random(stats["seed"])
        draws = ([elems[rng.randrange(q)] for _ in range(h)] for _ in range(random_tries))
        f = search("random", draws, level_iso)
        if f is not None:
            return Ref("isomorphic", witness=f, detail="random search", stats=stats)
        stats["phase"] = None
        return Ref("inconclusive", detail=f"no witness in {random_tries} samples", stats=stats)

    def unimodular(f):
        return _unimodular_mod(f, _FILTER_PRIME)

    rows = itertools.islice(mackey.support_rows(h, coeff_bound), exhaustive_cap // 2)
    f = search("box", (r.tolist() for r in rows), unimodular)
    if f is not None:
        return Ref("isomorphic", witness=f,
                   detail=f"lattice search, coefficients within {coeff_bound}", stats=stats)

    stats["candidates"]["modulus"] = stats["passed_filter"]["modulus"] = 0
    for m in _SMALL_PRIMES:
        if m ** h > modulus_cap:
            break
        stats["moduli"].append(m)
        level_ok = [False] * (M.n + 1)
        found_admissible = False
        for coeffs in itertools.product(range(m), repeat=h):
            f = _combine(homs, coeffs, base)
            stats["candidates"]["modulus"] += 1
            good = True
            for s, F in enumerate(f.components):
                if la.bareiss_det(F) % m in (1 % m, (m - 1) % m):
                    level_ok[s] = True
                else:
                    good = False
            if good:
                stats["passed_filter"]["modulus"] += 1
                found_admissible = True
                break
        if not found_admissible:
            blocking = [s for s in range(M.n + 1) if not level_ok[s]]
            stats["phase"] = "modulus"
            return Ref("not_isomorphic",
                       certificate={"modulus": m, "hom_rank": h,
                                    "level": blocking[0] if blocking else None},
                       detail=f"no hom is unimodular mod {m}"
                              + (f"; level {blocking[0]} alone rules it out"
                                 if blocking else ""), stats=stats)
    stats["phase"] = None
    return Ref("inconclusive", detail="bounded searches found neither witness nor certificate",
               stats=stats)


def assert_same_result(M, N, seed=None, **caps):
    """is_isomorphic against the reference.  caps (exhaustive_cap,
    random_tries) are arguments of the reference and module constants of
    is_isomorphic, set for this call."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in caps.items():
            mp.setattr(mackey, f"_{name.upper()}", value)
        got = is_isomorphic(M, N, seed=seed)
    want = reference_is_isomorphic(M, N, seed=seed, **caps)
    assert got.verdict == want.verdict
    assert got.detail == want.detail
    assert got.certificate == want.certificate
    assert got.stats == want.stats
    if want.witness is None:
        assert got.witness is None
    else:
        assert len(got.witness.components) == len(want.witness.components)
        for a, b in zip(got.witness.components, want.witness.components):
            assert a.dtype == b.dtype and la.mat_eq(a, b)
        assert got.witness.check().ok and got.witness.is_level_iso()
    return got


def _swapped_constant(G, field):
    """The constant F_p functor with res and tr exchanged (res = 0, tr = 1)."""
    C = constant_mackey(G, field)
    return MackeyFunctor(G, field, C.levels, C.tr, C.res, C.weyl, name="swapped")


def _field_module(p, n, levels, k=1):
    R = constant_green(CyclicGroup(p, n), gf_make(p, k))
    return direct_sum_green_modules([free_module(R, i) for i in levels]).underlying


A5, At = burnside_mackey(CyclicGroup(5, 1)), twisted_burnside_c5()
CASES = {
    "burnside-C4": (burnside_mackey(CyclicGroup(2, 2)),) * 2,
    "burnside-C9": (burnside_mackey(CyclicGroup(3, 2)),) * 2,
    "burnside-C25": (burnside_mackey(CyclicGroup(5, 2)),) * 2,
    "constant-Z-C9": (constant_mackey(CyclicGroup(3, 2), ZZ),) * 2,
    "constant-Z-rank2": (constant_mackey(CyclicGroup(2, 1), ZZ, 2),) * 2,
    "A-vs-At": (A5, At),
    "At-vs-A": (At, A5),
    "A-vs-AtAt": (A5, box_product_general(At, At)),
    "burnside-vs-constant": (burnside_mackey(CyclicGroup(2, 1)),
                             constant_mackey(CyclicGroup(2, 1), ZZ)),
    "F2-module": (_field_module(2, 1, (0, 1)),) * 2,
    "F3-module": (_field_module(3, 2, (2, 1)),) * 2,
    "F5-constant-rank2": (constant_mackey(CyclicGroup(5, 1), gf_make(5, 1), 2),) * 2,
    "F2-not-iso": (constant_mackey(CyclicGroup(2, 1), gf_make(2, 1)),
                   _swapped_constant(CyclicGroup(2, 1), gf_make(2, 1))),
    "GF4-constant-rank2": (constant_mackey(CyclicGroup(2, 1), gf_make(2, 2), 2),) * 2,
    "GF4-module": (_field_module(2, 1, (0, 1), k=2),) * 2,
    # a zero bottom level: each candidate's level-0 matrix is 0 x 0
    "trunc-burnside-C4": (brutal_truncation(burnside_mackey(CyclicGroup(2, 2))),) * 2,
    "trunc-A-vs-At": (brutal_truncation(A5), brutal_truncation(At)),
    "trunc-F2-constant-rank2": (brutal_truncation(constant_mackey(CyclicGroup(2, 2),
                                                                  gf_make(2, 1), 2)),) * 2,
    "trunc-F2-not-iso": (brutal_truncation(constant_mackey(CyclicGroup(2, 2), gf_make(2, 1))),
                         brutal_truncation(_swapped_constant(CyclicGroup(2, 2), gf_make(2, 1)))),
    "trunc-GF4-module": (brutal_truncation(_field_module(2, 1, (0, 1), k=2)),) * 2,
}


@pytest.mark.parametrize("name", list(CASES))
def test_batched_search_equals_one_at_a_time(name):
    M, N = CASES[name]
    assert_same_result(M, N)


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
@pytest.mark.parametrize("name", ["F3-module", "F5-constant-rank2", "GF4-constant-rank2",
                                  "F2-not-iso", "trunc-GF4-module"])
def test_random_field_search_equals_one_at_a_time(name, seed):
    M, N = CASES[name]
    r = assert_same_result(M, N, seed=seed, exhaustive_cap=1, random_tries=200)
    assert r.stats["seed"] == seed


@pytest.mark.parametrize("rows", [0, 1, 7, 123])
@pytest.mark.parametrize("name", ["burnside-C4", "burnside-C9", "A-vs-At", "A-vs-AtAt",
                                  "constant-Z-rank2", "trunc-A-vs-At"])
def test_random_lattice_search_equals_one_at_a_time(name, rows):
    # Z has no random phase (the test keeps the name, and the ids, of the
    # one it replaced): the lattice search cut at 0, 1, 7 or 123 rows, then
    # the certificate phase, equals the one-at-a-time loop, and reads no seed
    M, N = CASES[name]
    r = assert_same_result(M, N, seed=1, exhaustive_cap=2 * rows)
    assert r.stats["seed"] is None and "random" not in r.stats["candidates"]
    assert r.stats["candidates"]["box"] <= rows


def test_stats_record_the_answering_phase():
    # the box [-5, 5]^2 holds 120 nonzero rows, 60 up to sign
    r = is_isomorphic(A5, At)
    assert r.stats["phase"] == "modulus" and r.stats["moduli"] == [2, 3, 5]
    assert r.stats["hom_rank"] == 2 and r.stats["candidates"]["box"] == 60
    assert r.stats["seed"] is None
    assert is_isomorphic(*CASES["burnside-vs-constant"]).stats["phase"] == "ranks"


def test_free_burnside_module_over_c9_finds_the_same_witness():
    # F_1 over C9, level ranks (3, 6, 2), against itself: the witness is the
    # sixth row of the height order, the sixth hom basis element alone, as
    # the one-at-a-time loop finds it
    F1 = free_module(burnside_green(CyclicGroup(3, 2)), 1).underlying
    r = assert_same_result(F1, F1)
    assert r.verdict == "isomorphic" and r.detail == "lattice search, coefficients within 5"
    assert r.stats["phase"] == "box" and r.stats["hom_rank"] == 6
    assert r.stats["candidates"] == {"box": 6}
    assert r.stats["passed_filter"] == {"box": 1}
    cycle = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    six = [[int(j == (i + 4) % 6) for j in range(6)] for i in range(6)]
    assert [f.tolist() for f in r.witness.components] == [cycle, six, [[1, 0], [0, 1]]]
    assert r.witness.check().ok and r.witness.is_level_iso()


def test_burnside_unit_law_over_c16_is_definitive():
    # A (x) Ind_e^{C16} Z = Ind_e^{C16} Z: hom rank 16, and the first hom
    # basis element is an isomorphism
    M = induce_mackey(constant_mackey(CyclicGroup(2, 0), ZZ), 4)
    AM = box_product_general(burnside_mackey(CyclicGroup(2, 4)), M)
    r = assert_same_result(M, AM, seed=1)
    assert r.verdict == "isomorphic" and r.stats["phase"] == "box"
    assert r.stats["hom_rank"] == 16 and r.stats["candidates"] == {"box": 1}
    assert r.stats["seed"] is None
    assert r.witness.check().ok and r.witness.is_level_iso()


def support_key(row):
    support = tuple(i for i, c in enumerate(row) if c)
    return (max(map(abs, row)), len(support), support, tuple(row[i] for i in support))


@SETTINGS
@given(st.integers(0, 4), st.integers(0, 3))
def test_support_rows_list_the_box_up_to_sign(h, B):
    rows = [tuple(r.tolist()) for r in mackey.support_rows(h, B)]
    assert len(rows) == ((2 * B + 1) ** h - 1) // 2
    assert all(next(c for c in r if c) > 0 for r in rows)
    # each nonzero vector of the box appears exactly once up to sign
    signed = rows + [tuple(-c for c in r) for r in rows]
    box = [c for c in itertools.product(range(-B, B + 1), repeat=h) if any(c)]
    assert sorted(signed) == sorted(box)
    keys = [support_key(r) for r in rows]
    assert all(a[:2] <= b[:2] for a, b in zip(keys, keys[1:]))
    # within a height and support size: positions, then values
    assert keys == sorted(keys)


@pytest.mark.parametrize("h", range(1, 12))
def test_support_rows_cover_the_largest_box_that_fits_the_cap(h):
    # the rows tried over Z hold, up to sign, the largest box [-B, B]^h of
    # at most _EXHAUSTIVE_CAP points (B <= 5), at every h where B >= 1:
    # every +-1 row up to h = 11, and every row within 3 at h = 6
    cap = mackey._EXHAUSTIVE_CAP
    B = max(b for b in range(1, 6) if (2 * b + 1) ** h <= cap)
    box = ((2 * B + 1) ** h - 1) // 2
    assert box <= cap // 2
    rows = np.array(list(itertools.islice(mackey.support_rows(h, 5), box)))
    assert np.abs(rows).max() == B and len(np.unique(rows, axis=0)) == box


def test_induced_free_rank_four_over_c2_is_isomorphic_to_itself():
    # Ind_e^{C2} Z^4: hom rank 32, one coefficient block per generator, so
    # every isomorphism has at least 4 nonzero coefficients; the first is a
    # +-1 row of support 4, after the 20,864 rows of support 1 to 3
    M = induce_mackey(constant_mackey(CyclicGroup(2, 0), ZZ, 4), 1)
    r = is_isomorphic(M, M)
    assert r.verdict == "isomorphic" and r.stats["phase"] == "box"
    assert r.stats["hom_rank"] == 32 and r.stats["candidates"] == {"box": 43_841}
    assert r.witness.check().ok and r.witness.is_level_iso()


@pytest.mark.parametrize("field", [gf_make(2, 3), gf_make(3, 2)])
def test_extension_fields_search_in_doubling_batches(field, monkeypatch):
    # full_rank_mask eliminates one level of a whole batch of GF(p^k)
    # candidates at once, one call per level per batch, so batches double
    # as over F_p, and rank runs only in the witness's is_level_iso, once
    # per level
    M = constant_mackey(CyclicGroup(2, 2), field, 2)
    want = reference_is_isomorphic(M, M)
    rank, ranked = la.rank, []
    mask, stacks = la.full_rank_mask, []
    monkeypatch.setattr(la, "rank", lambda A, f: ranked.append(A.shape) or rank(A, f))
    monkeypatch.setattr(la, "full_rank_mask", lambda A, f: stacks.append(A.shape) or mask(A, f))
    got = is_isomorphic(M, M)
    monkeypatch.undo()
    levels = M.n + 1
    sizes = [C for C, _, _ in stacks[::levels]]
    assert sizes == [2 ** i for i in range(len(sizes))]
    assert stacks == [(C, 2, 2) for C in sizes for _ in range(levels)]
    witness = got.stats["candidates"]["box"]
    assert sum(sizes[:-1]) < witness <= sum(sizes) and witness > 16
    assert len(ranked) == M.n + 1
    assert_same_result(M, M)
    assert got.stats == want.stats and got.detail == want.detail


def _constant_against_swapped(G, field, copies):
    """C^copies and C^(copies - 1) + D over the field, D the constant functor
    with res and tr exchanged (a Mackey functor when p = char field)."""
    return (constant_mackey(G, field, copies),
            mackey.direct_sum([constant_mackey(G, field, copies - 1),
                               _swapped_constant(G, field)]))


@pytest.mark.parametrize("copies", [3, 4])
def test_field_pairs_past_hom_rank_six_are_certified(copies):
    # over F_2/C2, C^3 against C^2 + D and C^4 against C^3 + D: the whole
    # hom space, 2^9 and 2^16 maps, certifies that no isomorphism exists
    M, N = _constant_against_swapped(CyclicGroup(2, 1), gf_make(2, 1), copies)
    h = copies ** 2
    r = assert_same_result(M, N, seed=0) if copies == 3 else is_isomorphic(M, N, seed=0)
    assert r.verdict == "not_isomorphic" and r.stats["phase"] == "box"
    assert r.certificate == {"reason": "no iso in the full hom space", "hom_dim": h}
    assert r.stats["candidates"] == {"box": 2 ** h} and r.stats["passed_filter"] == {"box": 0}
    assert r.stats["seed"] is None


def test_field_pairs_past_hom_rank_six_find_the_box_witness():
    # C^3 against itself over F_2/C2, hom rank 9: the box holds all 2^9 maps,
    # so its first witness answers and no seed is read
    M = constant_mackey(CyclicGroup(2, 1), gf_make(2, 1), 3)
    r = assert_same_result(M, M, seed=0)
    assert r.verdict == "isomorphic" and r.stats["hom_rank"] == 9
    assert r.stats["phase"] == "box" and r.stats["seed"] is None
    assert set(r.stats["candidates"]) == {"box"}


def test_z_levels_with_relations_are_refused():
    # the constant functor Z presented as Z^2 / (1, 0) on each level: hom_basis
    # re-presents it on a basis, but a level determinant needs free levels
    G = CyclicGroup(2, 1)
    from mackeykit.modules import FPModule
    lv = FPModule(ZZ, 2, la.mat([[1], [0]]))
    M = MackeyFunctor(G, ZZ, [lv, lv], [la.eye(2)], [la.mat([[2, 0], [0, 2]])],
                      [la.eye(2), la.eye(2)])
    with pytest.raises(NotImplementedError, match="free levels"):
        is_isomorphic(M, M)


def test_iso_result_rejects_an_unknown_verdict():
    from mackeykit.mackey import IsoResult
    with pytest.raises(ValueError, match="verdict"):
        IsoResult("maybe")
