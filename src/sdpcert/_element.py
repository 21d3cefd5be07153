"""The arithmetic every exact element class shares, written once."""

from __future__ import annotations


class ExactElement:
    """Immutable ring element: subtraction, division and powers from the class's own ring.

    A subclass defines __add__, __neg__, __mul__, __eq__ and __hash__, an
    inverse() method, and _coerce(other), which returns other as an element
    of the same ring (ints included) or NotImplemented.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

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
        return self.inverse() * other

    def __pow__(self, exponent):
        """Square-and-multiply; a negative exponent powers the inverse.

        Neither the identity nor the square past the top bit is multiplied in.
        """
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
