import pytest

from mackeykit.fields import (
    DEFAULT_MODULI,
    GaloisField,
    gf_make,
    galois_trace,
    irreducible_witness,
    is_prime,
    poly_divmod,
    poly_mod,
    poly_mul,
)

# the default moduli, with the small prime fields, whose default modulus is x
DEFAULTS = {**{(p, 1): (0, 1) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                                         43, 47, 53, 59, 61)},
            **DEFAULT_MODULI}


def test_is_prime():
    assert [x for x in range(2, 30) if is_prime(x)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    # Mersenne primes, a strong pseudoprime to the bases 2, 3, 5 and 7, and its bound
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1) and is_prime(3037000493)
    assert not is_prime(3215031751) and not is_prime(2 ** 61 + 1)
    with pytest.raises(ValueError, match="only decided below"):
        is_prime(2 ** 89 - 1)


def test_default_moduli_all_irreducible():
    for (p, k), mod in DEFAULTS.items():
        assert irreducible_witness(list(mod), p) is None
        F = gf_make(p, k)
        assert F.p == p and F.k == k


def test_default_and_explicit_moduli_intern_one_field():
    assert gf_make(7, 1) is gf_make(7, 1, (0, 1)) is gf_make(7, 1, [7, 8])
    assert gf_make(2, 2) is gf_make(2, 2, (1, 1, 1))
    assert gf_make(7, 1).one + gf_make(7, 1, (0, 1)).one == 2
    # every prime field has a default modulus, x
    for p in (67, 101, 65537):
        assert gf_make(p, 1).modulus == (0, 1)
    # past DEFAULT_MODULI the default is searched: x^2 + 1 over F_11
    assert gf_make(11, 2) is gf_make(11, 2, (1, 0, 1))


def test_default_moduli_table_is_unchanged():
    # every document printed over these fields carries its modulus
    assert DEFAULT_MODULI == {
        (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1),
        (2, 5): (1, 0, 1, 0, 0, 1), (2, 6): (1, 1, 0, 1, 1, 0, 1),
        (2, 8): (1, 1, 1, 0, 0, 0, 0, 1, 1), (3, 2): (2, 2, 1), (3, 3): (1, 2, 0, 1),
        (3, 9): (1, 0, 0, 0, 2, 0, 0, 0, 0, 1), (5, 2): (2, 4, 1),
        (5, 5): (1, 4, 0, 0, 0, 1), (7, 2): (3, 6, 1)}
    for (p, k), mod in DEFAULT_MODULI.items():
        assert gf_make(p, k).modulus == mod


def _monic(i, p, k):
    """x^k + c_(k-1) x^(k-1) + ... + c_0 with sum_j c_j p^j = i."""
    return [i // p ** j % p for j in range(k)] + [1]


def _has_factor(m, p):
    """Brute force: whether a monic polynomial of degree 1..k/2 divides m."""
    k = len(m) - 1
    return any(not poly_divmod(m, _monic(i, p, d), p)[1]
               for d in range(1, k // 2 + 1) for i in range(p ** d))


SEARCHED = [(2, 7), (2, 9), (2, 10), (2, 16), (3, 4), (3, 5), (3, 27), (5, 3), (5, 25),
            (7, 3), (7, 7), (11, 2), (13, 3)]


@pytest.mark.parametrize("p,k", SEARCHED)
def test_searched_default_modulus_is_the_first_irreducible(p, k):
    import sympy
    mod = gf_make(p, k).modulus
    assert (p, k) not in DEFAULT_MODULI and len(mod) == k + 1 and mod[-1] == 1
    x = sympy.symbols("x")
    assert sympy.Poly(list(reversed(mod)), x, modulus=p).is_irreducible
    index = sum(c * p ** j for j, c in enumerate(mod[:-1]))
    assert list(mod) == _monic(index, p, k)
    if p ** (k // 2) <= 2000:
        # every monic polynomial before it in the order has a factor
        assert _has_factor(list(mod), p) is False
        assert all(_has_factor(_monic(i, p, k), p) for i in range(index))
    else:
        assert all(irreducible_witness(_monic(i, p, k), p) for i in range(index))


def test_the_default_modulus_search_runs_once_per_field(monkeypatch):
    import mackeykit.fields as fields
    fields._default_modulus.cache_clear()
    calls = []
    real = fields.irreducible_witness
    monkeypatch.setattr(fields, "irreducible_witness", lambda m, p: calls.append(p) or real(m, p))
    first = fields._default_modulus(13, 3)
    searched = len(calls)
    assert searched >= 1
    for _ in range(3):
        assert fields._default_modulus(13, 3) == first and gf_make(13, 3).modulus == first
    assert len(calls) <= searched + 1      # at most gf_make's own irreducibility test
    assert fields._default_modulus(4, 2) is None and fields._default_modulus(2, 0) is None


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(ValueError, match="reducible"):
        gf_make(2, 2, modulus=(1, 0, 1))


def test_f4_arithmetic():
    F = gf_make(2, 2)
    g = F.gen
    assert g * g == g + F.one          # g^2 = g + 1
    assert g ** 3 == F.one
    assert g.inv() == g * g
    assert (g + g) == F.zero


def test_f9_generator_cube():
    F = gf_make(3, 2)  # modulus x^2 + 2x + 2
    g = F.gen
    # g^2 = -2g - 2 = g + 1, so g^3 = g^2 + g = 2g + 1
    assert g ** 3 == F.from_poly([1, 2])


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, k):
    F = gf_make(p, k)
    elems = list(F.elements())
    assert len(elems) == p ** k
    for a in elems:
        assert a + F.zero == a and a * F.one == a
        if a != F.zero:
            assert a * a.inv() == F.one
        for b in elems:
            assert a + b == b + a and a * b == b * a
    # spot-check associativity and distributivity on a subsample
    sub = elems[:: max(1, len(elems) // 5)]
    for a in sub:
        for b in sub:
            for c in sub:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_frobenius_is_pth_power(p, k):
    F = gf_make(p, k)
    for a in F.elements():
        assert F.frobenius(a) == a ** p
        assert F.frobenius(a, k) == a       # full orbit closes


def test_frobenius_matrix_agrees():
    import mackeykit.linalg as la
    F = gf_make(3, 2)
    M = F.frobenius_matrix()
    for a in F.elements():
        col = la.zeros(2, 1)
        col[0, 0], col[1, 0] = a.coeffs[0], a.coeffs[1]
        out = la.mmul(M, col)
        expected = F.frobenius(a)
        assert tuple(int(out[i, 0]) % 3 for i in range(2)) == expected.coeffs


def test_trace_f4():
    F = gf_make(2, 2)
    g = F.gen
    # tr(a) = a + a^2: 0,1 -> 0 ; g, g+1 -> 1
    assert galois_trace(F.zero) == F.zero
    assert galois_trace(F.one) == F.zero
    assert galois_trace(g) == F.one
    assert galois_trace(g + F.one) == F.one


def test_trace_f9_additive_and_subfield_valued():
    F = gf_make(3, 2)
    elems = list(F.elements())
    for a in elems:
        t = galois_trace(a)
        assert F.frobenius(t) == t          # lands in F_3
    for a in elems[:4]:
        for b in elems[:4]:
            assert galois_trace(a + b) == galois_trace(a) + galois_trace(b)


def test_residue_roundtrip_and_interning():
    F = gf_make(2, 3)
    seen = set()
    for a in F.elements():
        r = int(a)
        assert 0 <= r < 8 and r not in seen
        seen.add(r)
        assert F.residue_element(r) is a     # interned
    assert F.elem((1, 1, 0)) is F.elem((1, 1, 0))
    assert gf_make(2, 3) is F


@pytest.mark.parametrize("coeffs", [(1, 0, 1), (1,), ()])
def test_elem_rejects_a_wrong_coordinate_count(coeffs):
    # a ValueError, also under python -O
    with pytest.raises(ValueError, match="coordinates"):
        gf_make(2, 2).elem(coeffs)


def test_format_elem():
    F = gf_make(2, 2)
    assert F.format_elem(F.gen) == "0:1"
    assert F.format_elem(F.one + F.gen) == "1:1"


# -- table arithmetic against the polynomial reference -------------------------

def _reference_tables(F):
    """Residue-indexed sum, negation and product tables computed coordinatewise
    and with poly_mul/poly_mod, independently of the field's own arithmetic."""
    p, k, q = F.p, F.k, F.q
    digits = [F.residue_element(r).coeffs for r in range(q)]
    index = {d: r for r, d in enumerate(digits)}

    def res(coeffs):
        coeffs = list(coeffs)
        return index[tuple(coeffs + [0] * (k - len(coeffs)))]

    add = [[res((x + y) % p for x, y in zip(a, b)) for b in digits] for a in digits]
    neg = [res((-x) % p for x in a) for a in digits]
    mul = [[res(poly_mod(poly_mul(list(a), list(b), p), list(F.modulus), p))
            for b in digits] for a in digits]
    return add, neg, mul


_TABLE_FIELDS = [(p, k, None) for (p, k) in sorted(DEFAULTS) if p ** k <= 256]
# x^4 + x^3 + x^2 + x + 1 is irreducible but not primitive: x has order 5
_TABLE_FIELDS.append((2, 4, (1, 1, 1, 1, 1)))


@pytest.mark.parametrize("p,k,modulus", _TABLE_FIELDS,
                         ids=[f"GF({p}^{k}){'-' + ''.join(map(str, m)) if m else ''}"
                              for p, k, m in _TABLE_FIELDS])
def test_table_arithmetic_matches_polynomial_reference(p, k, modulus):
    F = gf_make(p, k, modulus)
    q = F.q
    add, neg, mul = _reference_tables(F)
    el = [F.residue_element(r) for r in range(q)]
    assert [int(a) for a in el] == list(range(q))
    inv = {}
    for a in range(q):
        assert int(-el[a]) == neg[a]
        # the polynomial methods, which fields without tables use
        assert int(GaloisField.neg(F, el[a])) == neg[a]
        for b in range(q):
            assert int(el[a] + el[b]) == add[a][b]
            assert int(el[a] - el[b]) == add[a][neg[b]]
            assert int(el[a] * el[b]) == mul[a][b]
            if mul[a][b] == 1:
                inv[a] = b
        for b in range(0, q, max(1, q // 16)):
            assert int(GaloisField.add(F, el[a], el[b])) == add[a][b]
            assert int(GaloisField.mul(F, el[a], el[b])) == mul[a][b]
    assert sorted(inv) == list(range(1, q))
    for a in range(1, q):
        assert int(el[a].inv()) == inv[a]
        assert int(GaloisField.inv(F, el[a])) == inv[a]      # extended Euclid
    with pytest.raises(ZeroDivisionError):
        F.zero.inv()
    for a in range(q):
        power = 1
        for e in range(q + 1):
            assert int(el[a] ** e) == power
            power = mul[power][a]
        if a:
            assert int(el[a] ** -1) == inv[a]
            assert int(el[a] ** -2) == mul[inv[a]][inv[a]]
    # ints embed as constants on both sides of every operator
    for n in (-3, -1, 0, 1, 2, p, 7):
        c = F.embed(n)
        assert int(c) == n % p
        assert el[-1] == el[-1] and (c == n) and not (c == n + 1)
        assert el[-1] + n == n + el[-1] == el[-1] + c
        assert el[-1] - n == el[-1] - c and n - el[-1] == c - el[-1]
        assert el[-1] * n == n * el[-1] == el[-1] * c


def test_non_primitive_modulus_gets_a_primitive_generator():
    F = gf_make(2, 4, (1, 1, 1, 1, 1))
    assert F.gen ** 5 == F.one              # x itself has order 5
    orders = set()
    for a in F.elements():
        if a:
            orders.add(next(e for e in range(1, 16) if a ** e == F.one))
    assert orders == {1, 3, 5, 15}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_irreducible_witness_matches_sympy(p):
    import random

    from sympy import Poly, symbols

    x = symbols("x")
    rng = random.Random(p)
    irreducible = 0
    for trial in range(150):
        k = rng.randrange(1, 11)
        if trial % 5 == 0:                   # a repeated factor g^2 (x + c)
            g = [rng.randrange(p) for _ in range(rng.randrange(1, 4))] + [1]
            m = poly_mul(poly_mul(g, g, p), [rng.randrange(p), 1], p)
        else:
            m = [rng.randrange(p) for _ in range(k)] + [1]
        w = irreducible_witness(m, p)
        expect = Poly(list(reversed(m)), x, modulus=p).is_irreducible
        assert (w is None) == expect, (m, w)
        if w is not None:
            assert 1 <= len(w) - 1 < len(m) - 1 and w[-1] == 1
            assert not poly_divmod(m, list(w), p)[1]
        irreducible += expect
    assert 10 < irreducible < 140


@pytest.mark.parametrize("b", [[], [0], [0, 0]])
def test_division_by_the_zero_polynomial_raises(b):
    with pytest.raises(ZeroDivisionError, match="zero polynomial"):
        poly_divmod([1, 1], b, 2)
