"""Small exact finite fields: GF(p) and polynomial extensions with deterministic moduli.

All arithmetic runs on raw values: the ints in range(p) for GF(p), and for
an extension base[y]/(f) tuples of the base's raw values, lowest degree
first. An extension reaches its base only through the base's raw
operations, so a nested base such as GF(4) under GF(16) runs through the
same code as GF(p). Element objects wrap raw values at the surface.

Every field class provides the raw operations _add, _sub, _neg, _mul, _inv,
_pow and _axpy (ys + c * xs on sequences of raw values), the constants
_raw_zero and _raw_one, and _raw (an int, an element or, for an extension,
a coefficient sequence, to a raw value), _wrap (raw value to element),
_values (every raw value, in canonical order) and _random. The base _Field
builds element (alias from_int), elements and random_element on them. The
element base _FieldElement writes coercion, +, -, negation, inverse,
powers, ==, hash and bool once, each as one raw operation and _wrap, or on
a _TableField as arithmetic on the elements' logarithms (below); the
public PrimeFieldElement and ExtFieldElement add only their constructor,
__mul__ and repr. Constructors take ints, never floats or strings:
operator.index rejects those with TypeError.

An ExtField multiplies and inverts by the polynomial route: products
reduced by the modulus, and the extended Euclid algorithm. gf(q) for a
prime power q and the field of a FiniteTower come from _smallest_extension,
which keeps one canonical field per (base, degree), with the modulus of
smallest_irreducible. When its order is at most _LOG_TABLE_MAX_ORDER (2^12)
that field is a _TableField, whose arithmetic runs on discrete logarithms
(Lidl and Niederreiter, Finite Fields, section 9.1): each nonzero element
is g^k for a primitive g and carries k as _log (None for zero), a product
adds logarithms, and a sum g^i + g^j = g^i (1 + g^(j-i)) adds the Zech
logarithm zech[j - i] = log(1 + g^(j-i)) to i. Negation adds log(-1),
which is 0 in characteristic 2, and a difference is one such sum. Each
element of a _TableField is made once and kept twice: in _elements by raw
value, so _wrap is one dict lookup and field.element(v) is
field.element(v), and in _by_log by logarithm, twice round the cycle. The
element operations are the one place where logarithms are added: when
both operands are elements of the same _TableField object, or one is an
int, which coerces to such an element, +, -, *, negation, inverse and
powers are integer arithmetic on _log and one index into _by_log,
allocating nothing. The raw operations of a _TableField, which an
extension over it and an element of another, equal field object reach,
look their operands up in _elements and return the raw value of that
element result. The polynomial route builds the tables, once per field
and process, and stays the reference the tests compare with. An ExtField
built directly never has tables, since its modulus may be reducible.
"""

from __future__ import annotations

import functools
import itertools
import operator

from ._element import ExactElement, orbit
from ._primes import _is_prime, _prime_divisors


class _FieldElement(ExactElement):
    """What elements of GF(p) and of its extensions share: each operation one raw operation or,
    on a table field, arithmetic on logarithms.

    field is the element's field and _value its raw value, which each
    subclass also exposes under a public name. _log is k for the element
    g^k of a _TableField, and None for its zero and for every element of
    any other field. Ints are coerced by field.from_int, into elements of
    the field itself. When both operands are then elements of the same
    table field, an operation is integer arithmetic on _log and one index
    into field._by_log; every other pair takes the raw route, which on a
    table field comes back here with that field's own elements. Elements of
    two fields mix exactly when the fields are equal. The hash is a
    function of the field's order and the raw value only.
    """

    __slots__ = ("field", "_value", "_log")

    def _coerce(self, other):
        if type(other) is type(self):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements belong to different fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        field = self.field
        if type(other) is not type(self) or other.field is not field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        by_log = field._by_log
        if by_log is None or other.field is not field:
            return field._wrap(field._add(self._value, other._value))
        i, j = self._log, other._log
        if i is None:
            return field.zero if j is None else by_log[j]
        if j is None:
            return by_log[i]
        k = field._zech[j - i]  # a negative index counts from the end: j - i mod N - 1
        return field.zero if k is None else by_log[i + k]

    __radd__ = __add__

    def __sub__(self, other):
        field = self.field
        if type(other) is not type(self) or other.field is not field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        by_log = field._by_log
        if by_log is None or other.field is not field:
            return field._wrap(field._sub(self._value, other._value))
        i, j = self._log, other._log
        if j is None:
            return field.zero if i is None else by_log[i]
        j += field._log_minus_one
        if i is None:
            return by_log[j]
        k = field._zech[(j - i) % field._cycle]
        return field.zero if k is None else by_log[i + k]

    def __neg__(self):
        field = self.field
        i = self._log
        if i is not None:
            return field._by_log[i + field._log_minus_one]
        return field._wrap(field._neg(self._value))

    def inverse(self):
        field = self.field
        i = self._log
        if i is not None:
            return field._by_log[field._cycle - i]
        return field._wrap(field._inv(self._value))

    def __pow__(self, exponent):
        field = self.field
        i = self._log
        if i is not None:
            return field._by_log[i * operator.index(exponent) % field._cycle]
        return field._wrap(field._pow(self._value, operator.index(exponent)))

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is type(self):
            return self._value == other._value and self.field == other.field
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._value == other._value

    def __hash__(self):
        return hash((self.field.order, self._value))

    def __bool__(self):
        return self._log is not None or self._value != self.field._raw_zero


class PrimeFieldElement(_FieldElement):
    """Element of GF(p): value is its raw value, an int in range(p)."""

    __slots__ = ()
    value = _FieldElement._value  # the raw-value slot under its public name

    def __new__(cls, field, value):
        return cls._new(field, field._raw(value), None)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.field
        return field._wrap(field._mul(self._value, other._value))

    __rmul__ = __mul__

    def __repr__(self):
        return f"{self.value}"


class _Field:
    """What GF(p) and its extensions share: elements built from _raw, _wrap, _values and _random."""

    def element(self, value):
        """The element with the given value (or coefficients); ints are reduced into GF(p)."""
        return self._wrap(self._raw(value))

    from_int = element

    def elements(self):
        return [self._wrap(v) for v in self._values()]

    def random_element(self, rng):
        return self._wrap(self._random(rng))


class PrimeField(_Field):
    """The field Z/pZ for p prime; its raw values are the ints in range(p)."""

    _raw_zero = 0
    _raw_one = 1
    _by_log = None  # only a _TableField has one

    def __init__(self, p):
        p = operator.index(p)
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.order = p
        self.zero = self._wrap(0)
        self.one = self._wrap(1)

    def _raw(self, value):
        if isinstance(value, PrimeFieldElement):
            if value.field.p != self.p:
                raise ValueError("elements belong to different prime fields")
            return value.value
        return operator.index(value) % self.p

    def _wrap(self, value):
        return PrimeFieldElement._new(self, value, None)

    def _values(self):
        return range(self.p)

    def _random(self, rng):
        return rng.randrange(self.p)

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _neg(self, a):
        return -a % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _inv(self, a):
        if not a:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, -1, self.p)

    def _pow(self, a, exponent):
        if exponent < 0:
            a, exponent = self._inv(a), -exponent
        return pow(a, exponent, self.p)

    def _axpy(self, c, xs, ys):
        p = self.p
        return [(y + c * x) % p for x, y in zip(xs, ys)]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("GFp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class ExtFieldElement(_FieldElement):
    """Element of base[y]/(modulus): coeffs, its raw value, holds base raw values, lowest degree first."""

    __slots__ = ()
    coeffs = _FieldElement._value  # the raw-value slot under its public name

    def __new__(cls, field, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != field.degree:
            raise ValueError(f"expected {field.degree} coefficients, got {len(coeffs)}")
        return field._wrap(field._raw(coeffs))

    def __mul__(self, other):
        field = self.field
        if type(other) is not ExtFieldElement or other.field is not field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if field._by_log is None or other.field is not field:
            return field._wrap(field._mul(self._value, other._value))
        return self._times(other)

    __rmul__ = __mul__

    def _times(self, other):
        """The product of two elements of one table field: their logarithms add."""
        i, j = self._log, other._log
        if i is None or j is None:
            return self.field.zero
        return self.field._by_log[i + j]

    def __repr__(self):
        return f"ExtFieldElement({[self.field.base._wrap(c) for c in self.coeffs]})"


def _poly_trim(coeffs, zero):
    """Drop the zero leading coefficients of a list, in place."""
    while coeffs and coeffs[-1] == zero:
        coeffs.pop()
    return coeffs


def _poly_divmod(a, b, field):
    """Quotient and remainder of raw-coefficient polynomials over the field.

    Each step must cancel the remainder's top coefficient. When it does not,
    the field's _mul and _inv disagree, and the loop would never end, so
    ArithmeticError is raised instead.
    """
    zero = field._raw_zero
    rem = _poly_trim(list(a), zero)
    b = _poly_trim(list(b), zero)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quotient = [zero] * max(len(rem) - len(b) + 1, 1)
    inv_lead = field._inv(b[-1])
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = field._mul(rem[-1], inv_lead)
        quotient[shift] = factor
        rem[shift:] = field._axpy(field._neg(factor), b, rem[shift:])
        if rem[-1] != zero:
            raise ArithmeticError(
                f"{field!r}: a division step left the top coefficient {rem[-1]!r}; "
                "its _mul and _inv disagree"
            )
        _poly_trim(rem, zero)
    return quotient, rem


def _poly_inverse(a, modulus, field):
    """Inverse of a mod the modulus polynomial, by the extended Euclid algorithm."""
    zero = field._raw_zero
    r0, r1 = list(modulus), _poly_trim(list(a), zero)
    s0, s1 = [zero], [field._raw_one]
    while r1:
        q, rem = _poly_divmod(r0, r1, field)
        r0, r1 = r1, rem
        # s0 - q * s1, one shifted copy of s1 per nonzero coefficient of q
        s2 = s0 + [zero] * (len(q) + len(s1) - 1 - len(s0))
        for i, c in enumerate(q):
            if c != zero:
                s2[i:i + len(s1)] = field._axpy(field._neg(c), s1, s2[i:i + len(s1)])
        s0, s1 = s1, s2
    r0 = _poly_trim(r0, zero)
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible modulo the field polynomial")
    scale = field._inv(r0[0])
    return [field._mul(c, scale) for c in _poly_trim(s0, zero)]


class ExtField(_Field):
    """base[y]/(modulus) for a monic modulus over the base field, by the polynomial route.

    The modulus must be irreducible for this to be a field; _is_irreducible
    works in the same ring with a modulus under test. Raw values are tuples
    of degree base raw values. Two extensions are one field, and their
    elements mix, exactly when their bases are equal and their moduli are
    the same; an equal order alone is not enough.
    """

    _by_log = None  # the elements by logarithm of a _TableField; an ExtField has none

    def __init__(self, base, modulus):
        modulus = tuple(base._raw(c) for c in modulus)
        if len(modulus) < 3:
            raise ValueError("extension degree must be at least 2")
        if modulus[-1] != base._raw_one:
            raise ValueError("modulus must be monic")
        self.base = base
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self.order = base.order**self.degree
        self._raw_zero = (base._raw_zero,) * self.degree
        self._raw_one = (base._raw_one,) + self._raw_zero[1:]
        # y^degree = _top[0] + _top[1] y + ... modulo the modulus
        self._top = tuple(base._neg(c) for c in modulus[:-1])
        # by _new: the _wrap of a _TableField needs the tables, which come after
        self.zero = ExtFieldElement._new(self, self._raw_zero, None)
        self.one = ExtFieldElement._new(self, self._raw_one, None)

    def embed(self, base_value):
        return self._wrap((self.base._raw(base_value),) + self._raw_zero[1:])

    def generator(self):
        """The class of y."""
        base = self.base
        return self._wrap((base._raw_zero, base._raw_one) + self._raw_zero[2:])

    def _raw(self, value):
        if isinstance(value, ExtFieldElement):
            if value.field != self:
                raise ValueError("elements belong to different fields")
            return value.coeffs
        if isinstance(value, (tuple, list)):
            if len(value) > self.degree:
                raise ValueError("too many coefficients")
            return tuple(self.base._raw(c) for c in value) + self._raw_zero[len(value):]
        return (self.base._raw(value),) + self._raw_zero[1:]

    def _wrap(self, coeffs):
        return ExtFieldElement._new(self, coeffs, None)

    def _values(self):
        return itertools.product(self.base._values(), repeat=self.degree)

    def _random(self, rng):
        return tuple(self.base._random(rng) for _ in range(self.degree))

    def _add(self, a, b):
        base = self.base
        return tuple(base._axpy(base._raw_one, b, a))

    def _sub(self, a, b):
        base = self.base
        return tuple(base._axpy(base._neg(base._raw_one), b, a))

    def _neg(self, a):
        return tuple(map(self.base._neg, a))

    def _mul(self, a, b):
        """Sum of a_i * (y^i * b), each y^i * b reduced by the monic modulus as it is made."""
        base = self.base
        axpy, zero = base._axpy, base._raw_zero
        acc = self._raw_zero
        shifted = b
        last = self.degree - 1
        for i, c in enumerate(a):
            if c != zero:
                acc = axpy(c, shifted, acc)
            if i < last:
                lead = shifted[-1]
                shifted = [zero, *shifted[:-1]]
                if lead != zero:
                    shifted = axpy(lead, self._top, shifted)
        return tuple(acc)

    def _inv(self, a):
        if a == self._raw_zero:
            raise ZeroDivisionError("0 has no inverse")
        inverse = _poly_inverse(a, self.modulus, self.base)
        return tuple(inverse) + self._raw_zero[len(inverse):]

    def _pow(self, a, exponent):
        """a ** exponent by square-and-multiply.

        Neither the identity nor the square past the top bit is multiplied in.
        """
        if exponent < 0:
            a, exponent = self._inv(a), -exponent
        result = None
        while exponent:
            if exponent & 1:
                result = a if result is None else self._mul(result, a)
            exponent >>= 1
            if exponent:
                a = self._mul(a, a)
        return self._raw_one if result is None else result

    def _axpy(self, c, xs, ys):
        add, mul = self._add, self._mul
        return [add(y, mul(c, x)) for x, y in zip(xs, ys)]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, ExtField) and self.modulus == other.modulus and self.base == other.base
        )

    def __hash__(self):
        return hash(("GFext", self.base, self.modulus))

    def __repr__(self):
        return f"ExtField(order={self.order})"


class _TableField(ExtField):
    """base[y]/(modulus) for an irreducible modulus, computing on the logarithms of its elements.

    With g the first primitive element in _values() order and N the order,
    _elements maps each raw value to its one element, the element g^k
    carrying _log = k; _by_log[k] is the element g^k for k < 2(N - 1); and
    zech[k] = log(1 + g^k), None where 1 + g^k = 0. Only zero has no
    logarithm. The element operations of _FieldElement and ExtFieldElement
    are the one place where logarithms are added: each raw operation looks
    its operands' elements up in _elements and returns the raw value of
    their element result, with zero handled here, where the element route
    falls back to the raw one. An ExtField of the same base and modulus,
    which has no tables, builds them by the polynomial route.
    """

    def __init__(self, base, modulus):
        super().__init__(base, modulus)
        polynomial = ExtField(base, self.modulus)
        self._cycle = self.order - 1
        exp = _primitive_powers(polynomial)
        log = {value: k for k, value in enumerate(exp)}
        one = self._raw_one
        self._zech = [log.get(polynomial._add(one, value)) for value in exp]
        self._log_minus_one = log[polynomial._neg(one)]  # 0 in characteristic 2
        # keyed by the tuples of exp, so that no raw value is held twice
        self._elements = {value: ExtFieldElement._new(self, value, k) for k, value in enumerate(exp)}
        self._elements[self._raw_zero] = self.zero  # made by ExtField, with no logarithm
        self.one = self._elements[one]
        # twice round the cycle, so that a sum of two logarithms needs no reduction
        self._by_log = [self._elements[value] for value in exp] * 2

    def _wrap(self, coeffs):
        return self._elements[coeffs]

    def _add(self, a, b):
        return (self._elements[a] + self._elements[b])._value

    def _sub(self, a, b):
        return (self._elements[a] - self._elements[b])._value

    def _neg(self, a):
        return (self.zero - self._elements[a])._value

    def _mul(self, a, b):
        return self._elements[a]._times(self._elements[b])._value

    def _inv(self, a):
        if a == self._raw_zero:
            raise ZeroDivisionError("0 has no inverse")
        return self._elements[a].inverse()._value

    def _pow(self, a, exponent):
        if a != self._raw_zero:
            return (self._elements[a] ** exponent)._value
        if exponent < 0:
            raise ZeroDivisionError("0 has no inverse")
        return a if exponent else self._raw_one

    def _axpy(self, c, xs, ys):
        """ys + c * xs, with the element of c looked up once."""
        elements = self._elements
        c = elements[c]
        return [(elements[y] + c._times(elements[x]))._value for x, y in zip(xs, ys)]


def _has_root(coeffs, base):
    """Whether the raw-coefficient polynomial vanishes at some element of the base."""
    zero = base._raw_zero
    for value in base._values():
        acc = zero
        for c in reversed(coeffs):
            acc = base._add(base._mul(acc, value), c)
        if acc == zero:
            return True
    return False


def _is_irreducible(coeffs, base):
    """Whether a monic polynomial of degree >= 2, given by raw coefficients, is irreducible.

    A root in the base is a linear factor, which rejects most candidates
    cheaply. Rabin's criterion decides the rest: x^(q^n) = x mod f, and
    x^(q^(n/l)) - x is coprime to f for each prime l dividing n. The powers
    of x are taken on raw values in base[y]/(f), whose multiplication does
    not need f to be irreducible, by repeated q-th powers.
    """
    if _has_root(coeffs, base):
        return False
    degree = len(coeffs) - 1
    q = base.order
    ring = ExtField(base, coeffs)
    x = (base._raw_zero, base._raw_one) + ring._raw_zero[2:]
    frobenius = orbit(lambda y: ring._pow(y, q), x, degree + 1)
    if frobenius[degree] != x:
        return False
    zero = base._raw_zero
    for prime in _prime_divisors(degree):
        a = list(coeffs)
        b = _poly_trim(list(ring._sub(frobenius[degree // prime], x)), zero)
        while b:
            a, b = b, _poly_divmod(a, b, base)[1]
        if len(a) != 1:
            return False
    return True


def smallest_irreducible(base, degree):
    """The lexicographically smallest monic irreducible of the given degree, as raw values.

    Coefficient tuples (c_0, ..., c_{degree-1}) are compared lexicographically
    with the base's raw values in their natural order (ints, and tuples of
    them for a nested base); the choice is deterministic, which keeps every
    downstream fixture reproducible.
    """
    return _smallest_irreducible(base, degree)


def _smallest_irreducible(base, degree):
    """smallest_irreducible, for _smallest_extension: no public function of the module is called."""
    ordered = sorted(base._values())
    for combo in itertools.product(ordered, repeat=degree):
        coeffs = combo + (base._raw_one,)
        if _is_irreducible(coeffs, base):
            return coeffs
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# 2^12 covers every field the library builds (343 elements at most) and the
# GF(2^7) and GF(3^7) towers planned next. At 2^12 one field's Zech table and
# its interned elements, listed by value and by logarithm, take 1.25 MB
# (tracemalloc; 0.07 MB at GF(7^3)). A cold build takes 30-50 ms for GF(3^7)
# and 105-170 ms for GF(2^12) on a shared 2-core x86 machine, nearly all of
# it the polynomial products of the powers of g.
_LOG_TABLE_MAX_ORDER = 2**12

# canonical fields kept per process; the most recently used stay
_FIELD_CACHE_SIZE = 32


def _primitive_powers(field):
    """The powers g^0 ... g^(N-2) of the first primitive g in _values() order.

    N is the field's order and its modulus must be irreducible, so the
    nonzero values form a cyclic group of order N - 1; g is primitive when
    g^((N-1)/l) != 1 for each prime l dividing N - 1. The field's own
    operations are used, so an ExtField builds them by the polynomial route.
    """
    one, cycle = field._raw_one, field.order - 1
    cofactors = [cycle // prime for prime in _prime_divisors(cycle)]
    for g in field._values():
        if g != field._raw_zero and all(field._pow(g, e) != one for e in cofactors):
            break
    return [one, *orbit(lambda x: field._mul(x, g), g, cycle - 1)]


@functools.lru_cache(maxsize=_FIELD_CACHE_SIZE)
def _smallest_extension(base, degree):
    """The canonical base[y]/(f), f = smallest_irreducible(base, degree): a _TableField when small.

    Equal bases share one field, so its tables are built once per process
    while it stays cached. A miss calls no public function of the module,
    so that a traced run counts the same calls cold and warm.
    """
    modulus = _smallest_irreducible(base, degree)
    if base.order**degree <= _LOG_TABLE_MAX_ORDER:
        return _TableField(base, modulus)
    return ExtField(base, modulus)


def gf(q):
    """The field with q elements, q a prime power; prime-power bases are nested extensions."""
    q = operator.index(q)
    factors = _prime_divisors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = factors[0]
    k = 0
    qq = q
    while qq > 1:
        qq //= p
        k += 1
    field = PrimeField(p)
    if k == 1:
        return field
    return _smallest_extension(field, k)
