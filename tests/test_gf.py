"""Finite field arithmetic tests."""

import pytest
from hypothesis import given, strategies as st

from ntcodes import gf
from ntcodes.gf import GF, Field, FieldError

SMALL_FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


@pytest.mark.parametrize("q", SMALL_FIELDS)
def test_field_axioms_exhaustive(q):
    F = GF(q)
    els = list(F.elements())
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", SMALL_FIELDS)
def test_primitive_root_has_full_order(q):
    F = GF(q)
    if q == 2:
        assert F.x == 1
        return
    seen = set()
    e = 1
    for _ in range(q - 1):
        seen.add(e)
        e = F.mul(e, F.x)
    assert e == 1
    assert len(seen) == q - 1


@pytest.mark.parametrize("q", SMALL_FIELDS)
def test_frobenius_is_automorphism(q):
    F = GF(q)
    for a in F.elements():
        for b in F.elements():
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a),
                                                     F.frobenius(b))
            assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a),
                                                     F.frobenius(b))


@pytest.mark.parametrize("q", SMALL_FIELDS)
def test_frobenius_full_iteration_is_identity(q):
    F = GF(q)
    for e in F.elements():
        assert F.frobenius(e, F.a) == e
    assert F.frobenius(0, 1) == 0


def test_subfield_of_gf16():
    F = GF(16)
    sub = F.subfield_elements(2)
    assert len(sub) == 4
    for a in sub:
        for b in sub:
            assert F.add(a, b) in sub
            assert F.mul(a, b) in sub
    # fixed set of the 4th-power map
    assert sub == [e for e in F.elements() if F.pow(e, 4) == e]


def test_subfield_edges():
    F = GF(9)
    assert F.subfield_elements(1) == [0, 1, 2]
    assert F.subfield_elements(2) == list(F.elements())
    with pytest.raises(FieldError):
        GF(16).subfield_elements(3)


def test_pow_and_inverse():
    F = GF(9)
    assert F.pow(F.x, 8) == 1
    assert F.pow(F.x, 0) == 1
    assert F.pow(0, 0) == 1
    assert F.pow(0, 5) == 0
    with pytest.raises(FieldError):
        F.inv(0)
    with pytest.raises(FieldError):
        F.pow(0, -1)


@pytest.mark.parametrize("q", [4, 9, 16, 25])
def test_conjugation(q):
    F = GF(q)
    q0 = F.sqrt_order
    assert q0 * q0 == q
    subfield = set(F.subfield_elements(F.a // 2))
    for e in F.elements():
        assert F.conj(F.conj(e)) == e
        assert F.mul(e, F.conj(e)) in subfield  # norm lands in the subfield
    assert F.conj(1) == 1
    assert F.conj(0) == 0


def test_conjugation_rejects_odd_degree():
    with pytest.raises(FieldError):
        GF(8).sqrt_order


def test_non_prime_power_rejected():
    for q in (1, 6, 12, 15):
        with pytest.raises(FieldError):
            GF(q)
    with pytest.raises(FieldError):
        Field(4, 2)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 101, 257])
def test_prime_field_cycle_matches_modular_powers(p):
    # on the modulus x - r the power cycle is that of r mod p, and r is
    # primitive exactly when its p - 1 powers are distinct and nonzero;
    # 2..13 have a Conway modulus, 17.. are found by search
    assert ((p, 1) in gf._CONWAY) == (p <= 13)
    for r in range(p):
        powers = [pow(r, i, p) for i in range(p - 1)]
        primitive = r != 0 and len(set(powers)) == p - 1
        assert gf._primitive_cycle([(-r) % p, 1], p, 1) == (
            powers if primitive else None), r
    assert GF(p).exp == [pow(GF(p).x, i, p) for i in range(p - 1)]


def test_gf4_multiplication_cycle():
    F = GF(4)
    w = F.x
    assert F.mul(w, F.mul(w, w)) == 1  # w has multiplicative order 3
    assert F.mul(w, F.pow(w, 2)) == 1


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_gf16_properties(a, b, c):
    F = GF(16)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))
    assert F.add(F.add(a, b), F.neg(b)) == a


def _prime_power(q):
    """(p, a) with q = p^a, or None."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    a = 0
    while q % p == 0:
        q //= p
        a += 1
    return (p, a) if q == 1 else None


def _schoolbook_mul_mod(u, v, modulus, p):
    """u * v mod the monic modulus, on coefficient lists low to high."""
    a = len(modulus) - 1
    prod = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            prod[i + j] = (prod[i + j] + ui * vj) % p
    for d in range(len(prod) - 1, a - 1, -1):
        c = prod[d]
        for j in range(a + 1):
            prod[d - a + j] = (prod[d - a + j] - c * modulus[j]) % p
    return (prod + [0] * a)[:a]


def _digits(e, p, a):
    return [e // p ** i % p for i in range(a)]


def _index(digits, p):
    return sum(c * p ** i for i, c in enumerate(digits))


@pytest.mark.parametrize("q", [q for q in range(2, 257) if _prime_power(q)])
def test_tables_match_schoolbook_arithmetic(q):
    # the power cycle of the polynomial x and digit-wise addition mod p,
    # computed here without the field's own tables
    p, a = _prime_power(q)
    F = GF(q)
    assert (F.p, F.a) == (p, a)
    assert len(F.modulus) == a + 1 and F.modulus[-1] == 1
    power = [1] + [0] * (a - 1)
    for i in range(q - 1):
        assert F.exp[i] == _index(power, p), i
        assert F.log[F.exp[i]] == i
        power = _schoolbook_mul_mod(power, [0, 1], F.modulus, p)
    assert power == [1] + [0] * (a - 1)
    assert sorted(F.exp) == list(range(1, q))
    assert F.x == (F.exp[1] if q > 2 else 1)
    for e in range(q):
        assert F.neg(e) == _index([-c % p for c in _digits(e, p, a)], p)
    # every element against a spread of addends that crosses each digit
    for f in {0, 1, p - 1, q - 1, F.x, p ** (a - 1), q // 2 + 1}:
        fd = _digits(f, p, a)
        for e in range(q):
            assert F.add(e, f) == _index(
                [(c + d) % p for c, d in zip(_digits(e, p, a), fd)], p)
