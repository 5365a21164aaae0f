"""Matrices are built in their base's at-rest form.

`zeros`, `eye`, `mat` and `scalar_mul` take the base and return the form
the kernels keep: Python-int object arrays over Z, int64 residues over F_p
within the int64 bound, interned field elements otherwise.  The library's
own constructions over a prime field hand kernels residues only, so no
kernel converts an object array it built itself, and no search lists a
whole field.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mackeykit.linalg as la
from mackeykit.fields import FFElement, GaloisField, gf_make
from mackeykit.functors import (brutal_truncation, free_module,
                                geometric_fixed_points, induce_mackey, phi_ring,
                                restrict_mackey)
from mackeykit.green import (GreenModuleMorphism, GreenMorphism, base_change_cp,
                             burnside_green, check_green, check_green_module,
                             constant_green, direct_sum_green_modules,
                             fixed_point_green, green_module_hom_basis,
                             module_from_green, tensor_modules)
from mackeykit.gsets import (CyclicGroup, FiniteGSet, induce_gset, orbit_product,
                             restrict_gset)
from mackeykit.kzero import decompose_module, random_green_automorphism
from mackeykit.linalg import ZZ
from mackeykit.mackey import (MackeyMorphism, constant_mackey, fixed_point_mackey,
                              is_isomorphic)
from mackeykit.modules import FPModule
from mackeykit.rings import BasedRing

# each base with the form its matrices take; (p - 1)^2 is past the int64
# bound for the Mersenne prime 2^61 - 1
BASES = [(ZZ, "ints"), (gf_make(7, 1), "residues"), (gf_make(2, 2), "elements"),
         (gf_make(2 ** 61 - 1, 1), "elements")]


def assert_form(A, base, form):
    if form == "ints":
        assert A.dtype == object and all(type(v) is int for v in A.flat)
    elif form == "residues":
        assert A.dtype == np.int64 and all(0 <= v < base.p for v in A.flat)
    else:
        assert A.dtype == object
        assert all(isinstance(v, FFElement) and v.field is base for v in A.flat)


@pytest.mark.parametrize("base,form", BASES, ids=[repr(b) for b, _ in BASES])
def test_constructors_build_the_base_form(base, form):
    Z, I, A = la.zeros(2, 3, base), la.eye(3, base), la.mat([[1, 2], [3, 4]], base=base)
    for M in (Z, I, A, la.scalar_mul(3, A, base), la.mat([], 4, base)):
        assert_form(M, base, form)
    assert Z.shape == (2, 3) and la.is_zero_mat(Z)
    assert la.mat_eq(I, la.coerce(np.eye(3, dtype=np.int64), base))
    assert la.mat_eq(A, la.coerce(la.mat([[1, 2], [3, 4]]), base))
    assert la.mat_eq(la.scalar_mul(3, A, base), la.coerce(la.mat([[3, 6], [9, 12]]), base))
    assert la.mat([], 4, base).shape == (0, 4)


def test_scalar_mul_by_a_field_element_stays_residues():
    F = gf_make(7, 1)
    A = la.mat([[1, 2], [3, 6]], base=F)
    out = la.scalar_mul(F.embed(3), A, F)
    assert out.dtype == np.int64 and out.tolist() == [[3, 6], [2, 4]]
    # without a base it is numpy's product, entry by entry (FFElements here)
    plain = la.scalar_mul(F.embed(3), A)
    assert plain.dtype == object and la.mat_eq(la.coerce(plain, F), out)


@pytest.mark.parametrize("base,form", BASES[:3], ids=[repr(b) for b, _ in BASES[:3]])
def test_power_sum_matches_a_naive_sum(base, form):
    W = la.mat([[0, 1, 0], [0, 0, 1], [1, 1, 0]], base=base)
    for count in (1, 2, 5):
        naive = la.zeros(3, 3, base)
        for i in range(count):
            naive = la.add_scaled(naive, la.mpow(W, i, base), 1, base)
        got = la.power_sum(W, count, base)
        assert_form(got, base, form)
        assert la.mat_eq(got, naive)


@pytest.mark.parametrize("base,form", BASES[:3], ids=[repr(b) for b, _ in BASES[:3]])
def test_orbit_matches_the_loop_it_replaced(base, form):
    """[X | W X | ... | W^(count-1) X] for count 1, 2 and a prime power
    (the order of a Weyl map of a cyclic p-group), X not square."""
    W = la.mat([[0, 1, 0], [0, 0, 1], [1, 1, 0]], base=base)
    X = la.mat([[1, 0], [2, 1], [0, 3]], base=base)
    p = 2 if base is ZZ else base.p
    for count in (1, 2, p ** (3 if base is ZZ else base.k)):
        loop = [X]
        for _ in range(count - 1):
            loop.append(la.mmul(W, loop[-1], base))
        got = la.orbit(W, X, count, base)
        assert_form(got, base, form)
        assert got.shape == (3, 2 * count)
        assert la.mat_eq(got, la.hstack(loop))
        for j in range(count):
            assert la.mat_eq(got[:, 2 * j:2 * j + 2], la.mmul(la.mpow(W, j, base), X, base))


def test_field_elements_by_index_follow_the_listing():
    for F in (gf_make(2, 3), gf_make(3, 2), gf_make(5, 1)):
        assert [F.element(i) for i in range(F.q)] == list(F.elements())


# --- no object arrays reach a kernel from the library itself -----------------------


@pytest.fixture
def residues_only(monkeypatch):
    """Fail when a kernel converts an object array that `coerce` did not
    hand it, or when anything lists a whole field."""
    inside_coerce = [0]
    to_residues, coerce = la.to_residues, la.coerce

    def guarded_to_residues(A, p):
        if A.dtype == object and not inside_coerce[0]:
            raise RuntimeError(f"object-dtype {A.shape} matrix reached a kernel")
        return to_residues(A, p)

    def counted_coerce(A, base):
        inside_coerce[0] += 1
        try:
            return coerce(A, base)
        finally:
            inside_coerce[0] -= 1

    def no_listing(self):
        raise RuntimeError(f"listed every element of {self!r}")

    monkeypatch.setattr(la, "to_residues", guarded_to_residues)
    monkeypatch.setattr(la, "coerce", counted_coerce)
    monkeypatch.setattr(GaloisField, "elements", no_listing)


@pytest.mark.parametrize("p", [2, 3])
def test_prime_field_pipeline_keeps_residues(p, residues_only):
    k = constant_green(CyclicGroup(p, 1), gf_make(p, 1))
    assert check_green(k).ok
    F0, F1 = free_module(k, 0), free_module(k, 1)
    M = direct_sum_green_modules([F0, F1])
    assert check_green_module(M).ok
    assert len(green_module_hom_basis(F0, M)) == M.level_dims()[0]    # Yoneda
    res = is_isomorphic(M.underlying, direct_sum_green_modules([F1, F0]).underlying, seed=1)
    assert res.verdict == "isomorphic"
    ident = GreenMorphism(k, k, MackeyMorphism.identity(k.underlying).components)
    assert base_change_cp(ident, M).level_dims() == M.level_dims()
    assert decompose_module(k, M, seed=0).ok
    assert random_green_automorphism(M, seed=0).is_level_iso()


def test_field_search_lists_no_field(residues_only):
    # hom rank 1 at q = 200003 > _EXHAUSTIVE_CAP: the seeded random phase
    F = gf_make(200003, 1)
    M = constant_mackey(CyclicGroup(2, 1), F)
    res = is_isomorphic(M, M, seed=0)
    assert (res.verdict, res.detail) == ("isomorphic", "random search")
    assert res.witness.check().ok and res.witness.is_level_iso()


RANDOM_PHASES = """
import sys
import mackeykit.mackey as mackey
from mackeykit.fields import gf_make
from mackeykit.gsets import CyclicGroup
M = mackey.constant_mackey(CyclicGroup(2, 1), gf_make(200003, 1))
assert mackey.is_isomorphic(M, M, seed=0).detail == "random search"
B = mackey.burnside_mackey(CyclicGroup(2, 2))
assert mackey.is_isomorphic(B, B, seed=0).detail == "lattice search, coefficients within 5"
print("numpy.random" in sys.modules)
"""


def test_random_phases_do_not_import_numpy_random():
    # the seeded searches draw from the standard library's random.Random,
    # and the Z lattice search draws nothing; numpy.random is a lazy import
    # of its own (time and memory), so a fresh process shows whether any
    # library path pulls it in
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", RANDOM_PHASES], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# --- caller input is rejected with ValueError, also under python -O ----------------


def _burnside_c2():
    return burnside_green(CyclicGroup(2, 1))


REJECTIONS = [
    ("ring mult shape", "mult has shape",
     lambda: BasedRing(ZZ, 2, la.zeros(3, 2), la.zeros(2, 1))),
    ("ring unit shape", "unit has shape",
     lambda: BasedRing(ZZ, 1, la.mat([[1]]), la.zeros(2, 1))),
    ("ring label count", "labels for rank",
     lambda: BasedRing(ZZ, 1, la.mat([[1]]), la.mat([[1]]), ["a", "b"])),
    ("restrict above n", "restriction", lambda: restrict_mackey(_burnside_c2().underlying, 2)),
    ("restrict below 0", "restriction", lambda: restrict_mackey(_burnside_c2().underlying, -1)),
    ("induce downwards", "induction", lambda: induce_mackey(_burnside_c2().underlying, 0)),
    ("free module level", "free module at level", lambda: free_module(_burnside_c2(), 2)),
    ("tensor over two bases", "tensor product",
     lambda: tensor_modules(FPModule(ZZ, 1), FPModule(gf_make(2, 1), 1))),
    ("module map across rings", "different rings", lambda: GreenModuleMorphism(
        module_from_green(_burnside_c2()),
        module_from_green(fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2))), [])),
    ("module map wrapping another functor's map", "underlying functors",
     lambda: GreenModuleMorphism(module_from_green(_burnside_c2()),
                                 module_from_green(_burnside_c2()),
                                 MackeyMorphism.identity(_burnside_c2().underlying))),
    ("ragged rows", "ragged", lambda: la.mat([[1, 2], [3]])),
    ("phi stage above n", "outside", lambda: phi_ring(_burnside_c2(), 2)),
    ("phi stage below 0", "outside", lambda: phi_ring(_burnside_c2(), -1)),
    ("geometric fixed points at n = 0", "n >= 1",
     lambda: geometric_fixed_points(constant_mackey(CyclicGroup(2, 0), gf_make(2, 1)))),
    ("geometric fixed points of a Green functor at n = 0", "n >= 1",
     lambda: geometric_fixed_points(burnside_green(CyclicGroup(3, 0)))),
    ("brutal truncation at n = 0", "n >= 1",
     lambda: brutal_truncation(constant_mackey(CyclicGroup(2, 0), ZZ))),
    ("non-square rho", "square", lambda: fixed_point_mackey(
        CyclicGroup(2, 1), gf_make(2, 1), la.zeros(2, 3, gf_make(2, 1)))),
    ("subquotient above n", "outside", lambda: CyclicGroup(2, 1).subquotient(5)),
    ("subquotient below 0", "outside", lambda: CyclicGroup(2, 1).subquotient(-1)),
    ("orbit exponent above n", "outside", lambda: orbit_product(CyclicGroup(2, 1), 3, 0)),
    ("orbit exponent below 0", "outside", lambda: orbit_product(CyclicGroup(2, 1), 0, -1)),
    ("restrict G-set above n", "outside",
     lambda: restrict_gset(FiniteGSet.orbit(CyclicGroup(2, 1), 0), 2)),
    ("induce G-set downwards", "cannot induce",
     lambda: induce_gset(FiniteGSet.orbit(CyclicGroup(2, 2), 0), 1)),
]


@pytest.mark.parametrize("match,call", [r[1:] for r in REJECTIONS], ids=[r[0] for r in REJECTIONS])
def test_caller_input_raises_value_error(match, call):
    with pytest.raises(ValueError, match=match):
        call()
