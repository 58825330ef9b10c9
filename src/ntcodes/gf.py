"""Exact arithmetic in small finite fields GF(p^a).

Elements are integer indices 0..q-1: the index's base-p digits are the
coefficients of the element written on the power basis 1, x, x^2, ... of a
fixed primitive polynomial with root x.  Multiplication goes through
log/antilog tables, so everything is O(1) and bit-exact across runs.
"""

from functools import lru_cache

# Conway polynomials (coefficients low to high, monic) for the standard
# small fields.  Anything not listed falls back to the lexicographically
# smallest primitive polynomial, which is equally deterministic.
_CONWAY = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
    (11, 1): (9, 1),
    (13, 1): (11, 1),
}

_MAX_Q = 4096


class FieldError(ValueError):
    pass


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_mul_mod(u, v, modulus, p):
    """Product of coefficient lists u, v reduced mod the monic modulus."""
    a = len(modulus) - 1
    prod = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                prod[i + j] = (prod[i + j] + ui * vj) % p
    # reduce: modulus is monic of degree a
    for d in range(len(prod) - 1, a - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(a):
                prod[d - a + j] = (prod[d - a + j] - c * modulus[j]) % p
    return prod[:a] + [0] * (a - len(prod))


def _primitive_cycle(modulus, p, a):
    """Powers of x modulo the candidate polynomial, as element indices.

    Returns the list [x^0, x^1, ...] if x has full order p^a - 1, else None.
    """
    q = p ** a
    one = [1] + [0] * (a - 1)
    x = ([0, 1] + [0] * (a - 2)) if a > 1 else [(-modulus[0]) % p]
    cur = one
    cycle = []
    for _ in range(q - 1):
        cycle.append(sum(c * p ** i for i, c in enumerate(cur)))
        cur = _poly_mul_mod(cur, x, modulus, p)
        if cur == one and len(cycle) < q - 1:
            return None
    return cycle if cur == one else None


def _find_primitive_polynomial(p, a):
    """Lexicographically smallest monic primitive polynomial of degree a."""
    if a == 1:
        for r in range(2, p):
            mod = [(-r) % p, 1]
            if _primitive_cycle(mod, p, a) is not None:
                return tuple(mod)
    from itertools import product
    for coeffs in product(range(p), repeat=a):
        if coeffs[0] == 0:
            continue  # reducible: x divides
        mod = list(coeffs) + [1]
        if _primitive_cycle(mod, p, a) is not None:
            return tuple(mod)
    raise FieldError(f"no primitive polynomial found for GF({p}^{a})")


class Field:
    """GF(p^a) with log/antilog tables and a fixed primitive element x."""

    def __init__(self, p, a=1):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        if a < 1 or p ** a > _MAX_Q:
            raise FieldError(f"unsupported field size {p}^{a}")
        self.p = p
        self.a = a
        self.q = p ** a
        if (p, a) in _CONWAY:
            self.modulus = _CONWAY[(p, a)]
        else:
            self.modulus = _find_primitive_polynomial(p, a)
        cycle = _primitive_cycle(list(self.modulus), p, a)
        if cycle is None:
            raise FieldError(f"modulus for GF({p}^{a}) is not primitive")
        self.exp = cycle  # exp[i] = index of x^i, length q-1
        self.log = [0] * self.q
        for i, e in enumerate(cycle):
            self.log[e] = i
        self.x = cycle[1 % (self.q - 1)] if self.q > 2 else 1
        self._neg = [self._digit_neg(e) for e in range(self.q)]

    def elements(self):
        return range(self.q)

    def units(self):
        return self.exp

    # ---- arithmetic -----------------------------------------------------

    def _digit_neg(self, e):
        out = 0
        mult = 1
        for _ in range(self.a):
            out += ((-e) % self.p) * mult
            e //= self.p
            mult *= self.p
        return out

    def add(self, e, f):
        out = 0
        mult = 1
        for _ in range(self.a):
            out += ((e + f) % self.p) * mult
            e //= self.p
            f //= self.p
            mult *= self.p
        return out

    def neg(self, e):
        return self._neg[e]

    def mul(self, e, f):
        if e == 0 or f == 0:
            return 0
        return self.exp[(self.log[e] + self.log[f]) % (self.q - 1)]

    def inv(self, e):
        if e == 0:
            raise FieldError("inversion of zero")
        return self.exp[(-self.log[e]) % (self.q - 1)]

    def pow(self, e, n):
        if e == 0:
            if n < 0:
                raise FieldError("inversion of zero")
            return 0 if n else 1
        return self.exp[(self.log[e] * n) % (self.q - 1)]

    def frobenius(self, e, i=1):
        """e raised to the p^i power."""
        return self.pow(e, self.p ** (i % self.a if self.a > 1 else 1))

    def subfield_elements(self, a0):
        """The unique subfield of order p^a0, as the fixed set of x -> x^(p^a0)."""
        if self.a % a0 != 0:
            raise FieldError(f"{a0} does not divide extension degree {self.a}")
        return [e for e in range(self.q) if self.frobenius(e, a0) == e]

    # ---- conjugation field GF(q0^2) -------------------------------------

    @property
    def sqrt_order(self):
        """q0 with q = q0^2, for fields carrying a Hermitian conjugation."""
        if self.a % 2 != 0:
            raise FieldError(f"GF({self.p}^{self.a}) is not a square-order field")
        return self.p ** (self.a // 2)

    def conj(self, e):
        """Hermitian conjugate e -> e^q0 in GF(q0^2)."""
        return self.pow(e, self.sqrt_order) if e else 0

    def __repr__(self):
        return f"Field({self.p}, {self.a})"

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.a) == (other.p, other.a)

    def __hash__(self):
        return hash((self.p, self.a))


@lru_cache(maxsize=None)
def GF(q):
    """The field of order q (q a prime power up to 4096)."""
    if not 2 <= q <= _MAX_Q:
        raise FieldError(f"unsupported field size {q}")
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            a = 0
            m = q
            while m % p == 0:
                m //= p
                a += 1
            if m != 1:
                raise FieldError(f"{q} is not a prime power")
            return Field(p, a)
    raise FieldError(f"{q} is not a prime power")
