"""Exact arithmetic in the integral group ring of a cyclic group of order n."""

from __future__ import annotations

from itertools import accumulate
from math import gcd
from operator import add, index, sub

from ._element import ExactElement, _Immutable


class OrderMismatchError(ValueError):
    """Raised when elements over different group orders are combined."""


class _IntegralElement(ExactElement):
    """What Z[C_n] and S share: integer coefficients over a cyclic group of order n.

    Elements of the two rings never mix: between them + and * raise
    TypeError and == is False. Results are built by _new from exact ints.
    """

    __slots__ = ()

    @classmethod
    def _checked(cls, n, coeffs, count):
        """The element from outside input: count coefficients, each converted by operator.index."""
        coeffs = tuple(map(index, coeffs))
        if len(coeffs) != count:
            raise ValueError(f"expected {count} coefficients, got {len(coeffs)}")
        return cls._new(n, coeffs)

    def _require_same_order(self, other):
        if self.n != other.n:
            raise OrderMismatchError(f"group orders differ: {self.n} != {other.n}")

    def _coerce(self, other):
        if isinstance(other, int):
            return self._new(self.n, (int(other),) + (0,) * (len(self.coeffs) - 1))
        return other if type(other) is type(self) else NotImplemented

    def __add__(self, other):
        if type(other) is not type(self):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        self._require_same_order(other)
        return self._new(self.n, tuple(map(add, self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return self._new(self.n, tuple(-a for a in self.coeffs))

    def _scaled(self, other):
        """self * other for an int other, NotImplemented for anything else."""
        if isinstance(other, int):
            return self._new(self.n, tuple(other * a for a in self.coeffs))
        return NotImplemented

    def __eq__(self, other):
        return type(other) is type(self) and self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, coeffs={self.coeffs})"


class GroupRingElement(_IntegralElement):
    """Element of the group ring Z<sigma>, sigma of order n.

    coeffs[i] is the integer coefficient of sigma^i. Coefficients are
    arbitrary-precision and the value is immutable; all operations are pure.
    """

    __slots__ = ("n", "coeffs")

    def __new__(cls, n, coeffs):
        n = cls._order(n)
        return cls._checked(n, coeffs, n)

    @staticmethod
    def _order(n):
        """n as an int, checked to be a group order."""
        n = index(n)
        if n < 1:
            raise ValueError(f"group order must be positive, got {n}")
        return n

    @classmethod
    def zero(cls, n):
        n = cls._order(n)
        return cls._new(n, (0,) * n)

    @classmethod
    def one(cls, n):
        n = cls._order(n)
        return cls._new(n, (1,) + (0,) * (n - 1))

    @classmethod
    def sigma_power(cls, n, exponent, coefficient=1):
        """coefficient * sigma^exponent, with the exponent reduced mod n."""
        n = cls._order(n)
        coeffs = [0] * n
        coeffs[index(exponent) % n] = index(coefficient)
        return cls._new(n, tuple(coeffs))

    def __mul__(self, other):
        if type(other) is not GroupRingElement:
            return self._scaled(other)
        self._require_same_order(other)
        n = self.n
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % n] += a * b
        return GroupRingElement._new(n, tuple(out))

    __rmul__ = __mul__

    def inverse(self):
        raise ValueError("inverses and negative powers are not defined in the group ring")

    def augmentation(self):
        """Sum of all coefficients (image of the map sending every group element to 1)."""
        return sum(self.coeffs)

    def tau_apply(self, tau):
        """Image under the ring automorphism sigma -> sigma^r."""
        self._require_same_order(tau)
        out = [0] * self.n
        for i, a in enumerate(self.coeffs):
            out[(i * tau.r) % self.n] = a
        return GroupRingElement._new(self.n, tuple(out))

    def is_tau_fixed(self, tau):
        self._require_same_order(tau)
        return _is_fixed(self.coeffs, tau.r)


def _is_fixed(coeffs, r):
    """Whether the group-ring element with these n coefficients is fixed by sigma -> sigma^r.

    The image has coefficient c[i] at sigma^(i*r mod n), so it equals the
    element exactly when c[i*r mod n] == c[i] for every i; no image is built.
    """
    n = len(coeffs)
    return all(coeffs[i * r % n] == c for i, c in enumerate(coeffs))


def partial_norm(n, g, j):
    """The j'th partial norm of sigma^g: 1 + sigma^g + ... + sigma^(g(j-1)).

    j = 0 gives the zero element; the augmentation always equals j.
    """
    if j < 0:
        raise ValueError("partial norm length must be nonnegative")
    n = GroupRingElement._order(n)
    coeffs = [0] * n
    for a in range(j):
        coeffs[(g * a) % n] += 1
    return GroupRingElement._new(n, tuple(coeffs))


def partial_norm_product(n, steps, j):
    """The product of partial_norm(n, s, j) over the steps s, each a unit mod n.

    Multiplying by 1 + sigma^s + ... + sigma^(s(j-1)) replaces each
    coefficient by the sum of the j coefficients up to it along the single
    cycle 0, s, 2s, ... of Z/n: a sliding window, read off prefix sums, so
    each factor costs O(n) integer additions and no multiplication. With
    j = q*n + t, the window is q whole cycles plus the last t entries.
    """
    if j < 0:
        raise ValueError("partial norm length must be nonnegative")
    q, t = divmod(j, n)
    # values[k] is the coefficient of sigma^(k * prev) in the product so far
    values, prev = [1] + [0] * (n - 1), 1
    reorders = {}
    for s in steps:
        if gcd(s, n) != 1:
            raise ValueError(f"step {s} is not a unit mod {n}")
        ratio = s * pow(prev, -1, n) % n
        if ratio not in reorders:
            reorders[ratio] = [k * ratio % n for k in range(n)]
        values = list(map(values.__getitem__, reorders[ratio]))
        whole = q * sum(values) if q else 0
        # prefix[k + t] - prefix[k] = values[k - t + 1] + ... + values[k], indices mod n
        prefix = list(accumulate(values[n - t + 1:] + values, initial=0))
        values = list(map(sub, prefix[t:], prefix[:n]))
        if whole:
            values = [window + whole for window in values]
        prev = s
    coeffs = [0] * n
    for k, value in enumerate(values):
        coeffs[k * prev % n] = value
    return GroupRingElement._new(n, tuple(coeffs))


def full_norm(n):
    """The norm element 1 + sigma + ... + sigma^(n-1)."""
    return partial_norm(n, 1, n)


def _orbits(n, generators, starts=None):
    """One orbit of Z/n per start not yet reached (default 0 ... n-1) under x -> x*g mod n.

    Each lists its start, then the points a breadth-first walk over every
    generator g finds: j, j*r, j*r^2, ... for one r. A non-unit g may lead
    into an earlier orbit, whose points are not listed again.
    """
    seen = bytearray(n)
    out = []
    for start in range(n) if starts is None else starts:
        if seen[start]:
            continue
        seen[start] = 1
        orbit = [start]
        for x in orbit:
            for g in generators:
                y = x * g % n
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
        out.append(orbit)
    return out


class TauData(_Immutable):
    """The conjugation datum: tau sigma tau^-1 = sigma^r on a cyclic group of order n.

    m is the multiplicative order of r mod n.
    """

    __slots__ = ("n", "r", "m")

    def __new__(cls, n, r):
        n = index(n)
        r = index(r)
        if n < 2:
            raise ValueError(f"group order must be at least 2, got {n}")
        if not 1 <= r <= n - 1:
            raise ValueError(f"r must lie in [1, {n - 1}], got {r}")
        if gcd(r, n) != 1:
            raise ValueError(f"r must be coprime to n: gcd({r}, {n}) != 1")
        m = 1
        power = r % n
        while power != 1:
            power = (power * r) % n
            m += 1
        return cls._new(n, r, m)

    def orbits(self):
        """The <r>-orbits of Z/n, each listed from its least element, by that element."""
        return _orbits(self.n, (self.r,))

    def __eq__(self, other):
        return isinstance(other, TauData) and (self.n, self.r) == (other.n, other.r)

    def __hash__(self):
        return hash((self.n, self.r))

    def __repr__(self):
        return f"TauData(n={self.n}, r={self.r}, m={self.m})"
