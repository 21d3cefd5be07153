"""Small exact finite fields: GF(p) and polynomial extensions with deterministic moduli."""

from __future__ import annotations

import itertools

from ._element import ExactElement


class PrimeFieldElement(ExactElement):
    __slots__ = ("field", "value")

    def __init__(self, field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value % field.p)

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.field is not self.field and other.field.p != self.field.p:
                raise ValueError("elements belong to different prime fields")
            return other
        if isinstance(other, int):
            return PrimeFieldElement(self.field, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.field, self.value + other.value)

    __radd__ = __add__

    def __neg__(self):
        return PrimeFieldElement(self.field, -self.value)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.field, self.value - other.value)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.field, self.value * other.value)

    __rmul__ = __mul__

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError("0 has no inverse")
        return PrimeFieldElement(self.field, pow(self.value, -1, self.field.p))

    def __pow__(self, exponent):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return PrimeFieldElement(self.field, pow(self.value, exponent, self.field.p))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.field.p
        return (
            isinstance(other, PrimeFieldElement)
            and self.field.p == other.field.p
            and self.value == other.value
        )

    def __hash__(self):
        return hash(("GFp", self.field.p, self.value))

    def __bool__(self):
        return self.value != 0

    def sort_key(self):
        return (self.value,)

    def __repr__(self):
        return f"{self.value}"


class PrimeField:
    """The field Z/pZ for p prime."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.order = p
        self.zero = PrimeFieldElement(self, 0)
        self.one = PrimeFieldElement(self, 1)

    def element(self, value):
        return PrimeFieldElement(self, value)

    def from_int(self, value):
        return PrimeFieldElement(self, value)

    def elements(self):
        return [PrimeFieldElement(self, v) for v in range(self.p)]

    def random_element(self, rng):
        return PrimeFieldElement(self, rng.randrange(self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class ExtFieldElement(ExactElement):
    """Element of base[y]/(modulus), stored as a coefficient tuple over the base."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != field.degree:
            raise ValueError(f"expected {field.degree} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def _coerce(self, other):
        if isinstance(other, ExtFieldElement) and other.field.order == self.field.order:
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExtFieldElement(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return ExtFieldElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        raw = _poly_mul(self.coeffs, other.coeffs, self.field.base.zero)
        return ExtFieldElement(self.field, self.field.reduce_poly(raw))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("0 has no inverse")
        inv = _poly_inverse(self.coeffs, self.field.modulus, self.field.base)
        return ExtFieldElement(self.field, self.field.pad(inv))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("GFext", self.field.order, self.coeffs))

    def __bool__(self):
        return any(bool(c) for c in self.coeffs)

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coeffs)

    def __repr__(self):
        return f"ExtFieldElement({list(self.coeffs)})"


def _poly_trim(coeffs, zero):
    out = list(coeffs)
    while out and out[-1] == zero:
        out.pop()
    return out


def _poly_mul(a, b, zero):
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != zero:
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return out


def _poly_divmod(a, b, zero):
    a = _poly_trim(a, zero)
    b = _poly_trim(b, zero)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quotient = [zero] * max(len(a) - len(b) + 1, 1)
    rem = list(a)
    inv_lead = b[-1].inverse()
    while len(rem) >= len(b) and _poly_trim(rem, zero):
        rem = _poly_trim(rem, zero)
        if len(rem) < len(b):
            break
        shift = len(rem) - len(b)
        factor = rem[-1] * inv_lead
        quotient[shift] = quotient[shift] + factor
        for i, c in enumerate(b):
            rem[shift + i] = rem[shift + i] - factor * c
    return quotient, _poly_trim(rem, zero)


def _poly_inverse(a, modulus, base):
    """Inverse of a mod the modulus polynomial, by the extended Euclid algorithm."""
    zero, one = base.zero, base.one
    r0, r1 = list(modulus), _poly_trim(a, zero)
    s0, s1 = [zero], [one]
    while _poly_trim(r1, zero):
        q, rem = _poly_divmod(r0, r1, zero)
        r0, r1 = r1, rem
        prod = _poly_mul(q, s1, zero)
        length = max(len(s0), len(prod))
        s0, s1 = s1, [
            (s0[i] if i < len(s0) else zero) - (prod[i] if i < len(prod) else zero)
            for i in range(length)
        ]
    r0 = _poly_trim(r0, zero)
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible modulo the field polynomial")
    scale = r0[0].inverse()
    return [c * scale for c in s0]


class ExtField:
    """base[y]/(modulus) for an irreducible monic modulus over the base field."""

    def __init__(self, base, modulus):
        modulus = tuple(modulus)
        if len(modulus) < 3:
            raise ValueError("extension degree must be at least 2")
        if modulus[-1] != base.one:
            raise ValueError("modulus must be monic")
        self.base = base
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self.order = base.order**self.degree
        self.zero = ExtFieldElement(self, (base.zero,) * self.degree)
        self.one = ExtFieldElement(self, (base.one,) + (base.zero,) * (self.degree - 1))

    def pad(self, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) > self.degree:
            raise ValueError("too many coefficients")
        return tuple(coeffs + [self.base.zero] * (self.degree - len(coeffs)))

    def element(self, coeffs):
        return ExtFieldElement(self, self.pad(list(coeffs)))

    def embed(self, base_value):
        return ExtFieldElement(self, (base_value,) + (self.base.zero,) * (self.degree - 1))

    def from_int(self, value):
        return self.embed(self.base.from_int(value))

    def generator(self):
        """The class of y."""
        coeffs = [self.base.zero] * self.degree
        coeffs[1] = self.base.one
        return ExtFieldElement(self, coeffs)

    def reduce_poly(self, raw):
        _, rem = _poly_divmod(list(raw), list(self.modulus), self.base.zero)
        return self.pad(rem)

    def elements(self):
        out = []
        for combo in itertools.product(self.base.elements(), repeat=self.degree):
            out.append(ExtFieldElement(self, combo))
        return out

    def random_element(self, rng):
        return ExtFieldElement(
            self, tuple(self.base.random_element(rng) for _ in range(self.degree))
        )

    def __repr__(self):
        return f"ExtField(order={self.order})"


def _is_irreducible(coeffs, base):
    """Rabin's criterion: x^(q^n) = x mod f, and x^(q^(n/l)) - x is coprime to f.

    The powers of x are taken in base[y]/(f), whose multiplication does not
    need f to be irreducible.
    """
    zero = base.zero
    degree = len(coeffs) - 1
    q = base.order
    x = ExtField(base, coeffs).generator()
    if x ** (q**degree) != x:
        return False
    for prime in _prime_divisors(degree):
        a = list(coeffs)
        b = _poly_trim((x ** (q ** (degree // prime)) - x).coeffs, zero)
        while b:
            a, b = b, _poly_divmod(a, b, zero)[1]
        if len(a) != 1:
            return False
    return True


# Miller-Rabin with these bases decides primality for every p below the limit
# (Sorenson and Webster, 2015); the first twelve alone stop at 3.2 * 10^23.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p):
    """Deterministic Miller-Rabin primality test, proven below 3.3 * 10^24."""
    if p < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if p % q == 0:
            return p == q
    if p >= _MILLER_RABIN_LIMIT:
        raise ValueError(f"{p} is beyond the range of the deterministic primality test")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def smallest_irreducible(base, degree):
    """The lexicographically smallest monic irreducible of the given degree.

    Coefficient tuples (c_0, ..., c_{degree-1}) are compared lexicographically
    with base elements ordered by their canonical sort key; the choice is
    deterministic, which keeps every downstream fixture reproducible.
    """
    ordered = sorted(base.elements(), key=lambda e: e.sort_key())
    for combo in itertools.product(ordered, repeat=degree):
        coeffs = tuple(combo) + (base.one,)
        if _is_irreducible(coeffs, base):
            return coeffs
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def gf(q):
    """The field with q elements, q a prime power; prime-power bases are nested extensions."""
    factors = _prime_divisors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = factors[0]
    k = 0
    qq = q
    while qq > 1:
        qq //= p
        k += 1
    if p**k != q:
        raise ValueError(f"{q} is not a prime power")
    field = PrimeField(p)
    if k == 1:
        return field
    return ExtField(field, smallest_irreducible(field, k))
