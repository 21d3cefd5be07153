"""Immutable values, and the arithmetic every exact element class shares, written once.

_Immutable._new builds every immutable value from slot values already
checked; no other code in the package calls object.__new__ or
object.__setattr__. Outside input is checked only by a public constructor,
a class's __new__, which ends in _new; every computed result goes to _new
directly, except on a finite field with tables, which builds each of its
elements once by _new and returns that one for every equal result. Public
constructors take integers, converted by operator.index, so a float, a
Fraction or a string raises TypeError instead of being truncated;
TowerElement takes numbers.Rational and raises TypeError for anything else.
Every power converts its exponent by operator.index too. Every immutable
value copies, deep-copies and pickles through _new as well.

ExactElement gives the five exact element classes subtraction, division
and powers; the finite-field elements write their own subtraction.
GroupRingElement (Z[C_n]) and SElement (S) take the order check, int
coercion, +, negation, integer scaling, ==, hash and repr from
group_ring._IntegralElement and add their coefficient count, named
constructors, __mul__ and inverse. PrimeFieldElement (GF(p)) and
ExtFieldElement (GF(p^k)) take coercion, +, -, negation, inverse, powers,
==, hash and bool from finitefield._FieldElement, and add their public
constructor, __mul__ and repr. Each operation is one raw operation of the
field or, on a field with tables, integer arithmetic on the operands'
logarithms; that field's own raw operations go through these elements.
TowerElement writes its own arithmetic on numerators over one common
denominator.

orbit and orbit_product are the one walk along x, f(x), f^2(x), ... that
every layer shares: the conjugates of a tower element under sigma or tau,
the tau-orbit of an element of S, the powers of a field generator or of an
algebra element, the Frobenius images of x modulo a candidate polynomial,
and the m-fold iterates f^m(x) = orbit(f, x, m + 1)[-1] that the checks of
tau's order take. Three walks stay written out. group_ring.TauData's order
loop stops at 1, and is faster than the length of an _orbits orbit.
suites.prime_reduction's order loop is the independent oracle for
reduce_to_cyclic, whose order comes from _orbits. tower._cycle stops at the
identity matrix, after the order of sigma or tau, where a walk of dim steps
would make dim matrix products.
"""

from __future__ import annotations

import operator


class _Immutable:
    """A value whose slots are set once, by _new; assigning an attribute raises AttributeError.

    One class lists every slot of its instances in its __slots__; its
    subclasses declare empty __slots__. _new(slot values, in __slots__
    order) builds an instance from values already checked.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            cls._new = classmethod(_compile_new(cls.__slots__))
            cls._slot_names = cls.__slots__

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        """Rebuild by _new from the slot values, for copy, deepcopy and pickle."""
        return type(self)._new, tuple(getattr(self, name) for name in self._slot_names)


def _compile_new(names):
    """def _new(cls, v0, v1, ...): an instance of cls with slot names[i] set to vi.

    Compiled per class, as dataclasses compile __init__: a loop over the
    slots doubles the cost of building the tower and finite-field elements
    every product returns.
    """
    lines = [f"def _new(cls, {', '.join(f'v{i}' for i in range(len(names)))}):",
             "    instance = object_new(cls)"]
    lines += [f"    object_setattr(instance, {name!r}, v{i})" for i, name in enumerate(names)]
    lines.append("    return instance")
    namespace = {"object_new": object.__new__, "object_setattr": object.__setattr__}
    exec("\n".join(lines), namespace)
    return namespace["_new"]


class ExactElement(_Immutable):
    """Immutable ring element: subtraction, division and powers from the class's own ring.

    A subclass defines __add__, __neg__, __mul__, __eq__ and __hash__, an
    inverse() method, and _coerce(other), which returns other as an element
    of the same ring (ints included) or NotImplemented.
    """

    __slots__ = ()

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, exponent):
        """Square-and-multiply; a negative exponent powers the inverse.

        Neither the identity nor the square past the top bit is multiplied in.
        The exponent is converted by operator.index, so a float, a Fraction or
        a string raises TypeError.
        """
        exponent = operator.index(exponent)
        base = self.inverse() if exponent < 0 else self
        exponent = abs(exponent)
        result = None
        while exponent:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return self._coerce(1) if result is None else result


def orbit(step, x, count):
    """[x, step(x), ..., step^(count-1)(x)], by count - 1 calls of step; [] when count is 0.

    A negative count raises ValueError.
    """
    if count < 0:
        raise ValueError("orbit length must be nonnegative")
    values = [x] if count else []
    for _ in range(count - 1):
        x = step(x)
        values.append(x)
    return values


def orbit_product(step, x, count, one):
    """x * step(x) * ... * step^(count-1)(x), by count - 1 calls of step; one when count is 0.

    The identity is never multiplied in, and no list is built. A negative
    count raises ValueError.
    """
    if count < 0:
        raise ValueError("orbit length must be nonnegative")
    product = x if count else one
    for _ in range(count - 1):
        x = step(x)
        product = product * x
    return product
