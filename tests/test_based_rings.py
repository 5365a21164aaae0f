import pytest

import mackeykit.linalg as la
from mackeykit.fields import gf_make
from mackeykit.gsets import CyclicGroup, burnside_ring
from mackeykit.rings import (
    BasedRing,
    based_ring_check,
    render_presentation,
    ring_is_field,
    unit_basis_index,
)


@pytest.mark.parametrize("p,n", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 2), (5, 1)])
def test_burnside_rings_pass_axiom_check(p, n):
    R = burnside_ring(CyclicGroup(p, n))
    rep = based_ring_check(R)
    assert rep.ok, rep.lines()
    assert unit_basis_index(R) == n


def test_axiom_check_catches_broken_table():
    R = burnside_ring(CyclicGroup(2, 1))
    bad = R.mult.copy()
    bad[1 * 2 + 0, :] = 0               # erase the unit * [G/e] row
    broken = BasedRing(R.base, R.rank, bad, R.unit, R.labels)
    rep = based_ring_check(broken)
    assert not rep.ok
    kinds = {v.kind for v in rep.violations}
    assert kinds & {"associativity", "unit", "commutativity"}


def test_presentations():
    cases = {
        (2, 0): "Z",
        (2, 1): "Z[x]/(x^2-2x)",
        (2, 2): "Z[x,y]/(x^2-2x,y^2-4y,xy-2y)",
        (3, 2): "Z[x,y]/(x^2-3x,y^2-9y,xy-3y)",
        (2, 3): "Z[x,y,z]/(x^2-2x,y^2-4y,z^2-8z,xy-2y,xz-2z,yz-4z)",
    }
    for (p, n), want in cases.items():
        assert render_presentation(burnside_ring(CyclicGroup(p, n))) == want


def _group_ring_c2_f2():
    # F_2[C_2] on basis {1, t}: t^2 = 1
    F = gf_make(2, 1)
    mult = la.zeros(4, 2)
    mult[0 * 2 + 0, 0] = F.one    # 1*1 = 1
    mult[0 * 2 + 1, 1] = F.one    # 1*t = t
    mult[1 * 2 + 0, 1] = F.one
    mult[1 * 2 + 1, 0] = F.one    # t*t = 1
    unit = la.zeros(2, 1)
    unit[0, 0] = F.one
    unit[1, 0] = F.zero
    return BasedRing(F, 2, mult, unit, ["1", "t"])


def test_ring_is_field():
    R = _group_ring_c2_f2()
    assert based_ring_check(R).ok
    # (1+t)^2 = 0, so not a field
    assert not ring_is_field(R)

    # F_4 presented as an F_2-algebra on {1, g}: g^2 = g + 1
    F = gf_make(2, 1)
    mult = la.zeros(4, 2)
    mult[0, 0] = F.one
    mult[1, 1] = F.one
    mult[2, 1] = F.one
    mult[3, 0] = F.one
    mult[3, 1] = F.one
    unit = la.zeros(2, 1)
    unit[0, 0] = F.one
    unit[1, 0] = F.zero
    F4 = BasedRing(F, 2, mult, unit, ["1", "g"])
    assert based_ring_check(F4).ok
    assert ring_is_field(F4)


def test_multiply_and_power():
    R = burnside_ring(CyclicGroup(2, 1))
    free = R.basis_vector(0)     # [C2/e]
    sq = R.products(free, free)
    assert sq[0, 0] == 2 and sq[1, 0] == 0
    assert la.mat_eq(R.power(free, 3), la.mat([[4], [0]]))  # x^2 = 2x so x^3 = 4x
    assert la.mat_eq(R.power(free, 0), R.unit)


def test_zero_ring():
    Z0 = BasedRing(la.ZZ, 0, la.zeros(0, 0), la.zeros(0, 1), [])
    assert Z0.rank == 0
    assert based_ring_check(Z0).ok


def _upper_triangular(base):
    # 2x2 upper triangular matrices on {e11, e12, e22}: not commutative
    one = base.one if base is not la.ZZ else 1
    mult = la.zeros(9, 3)
    for (i, j), k in {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2}.items():
        mult[i * 3 + j, k] = one
    unit = la.zeros(3, 1)
    unit[0, 0] = unit[2, 0] = one
    return BasedRing(base, 3, mult, unit, ["e11", "e12", "e22"], commutative=False)


def _left_mult_reference(R, v):
    out = la.zeros(R.rank, R.rank)
    for i in range(R.rank):
        for j in range(R.rank):
            for a in range(R.rank):
                out[a, j] = out[a, j] + v[i, 0] * R.mult[i * R.rank + j, a]
    return out


@pytest.mark.parametrize("ring", [
    lambda: burnside_ring(CyclicGroup(3, 2)),
    lambda: _group_ring_c2_f2(),
    lambda: _upper_triangular(la.ZZ),
    lambda: _upper_triangular(gf_make(3, 1)),
    lambda: _upper_triangular(gf_make(2, 2)),
], ids=["burnside-C9", "F2[C2]", "upper-Z", "upper-F3", "upper-F4"])
def test_left_mult_matrix_matches_entrywise_reference(ring):
    import random
    R = ring()
    assert based_ring_check(R).ok
    rng = random.Random(5)
    scalars = list(R.base.elements()) if R.base is not la.ZZ else [-3, -1, 0, 1, 2, 7]
    for _ in range(20):
        v = la.zeros(R.rank, 1)
        for i in range(R.rank):
            v[i, 0] = rng.choice(scalars)
        assert la.mat_eq(R.left_mult_matrices(v)[0], _left_mult_reference(R, v))
        w = R.basis_vector(rng.randrange(R.rank))
        assert la.mat_eq(R.products(v, w), la.mmul(_left_mult_reference(R, v), w, R.base))
