"""Arithmetic in S = Z[rho]/(1 + rho + ... + rho^(n-1)) with the tau-action rho -> rho^r."""

from __future__ import annotations

import itertools
from operator import mul

from ._element import ExactElement
from ._primes import _is_prime, _prime_divisors
from .group_ring import GroupRingElement, OrderMismatchError


class NotInvertibleError(ArithmeticError):
    """Raised when inversion is requested for a non-unit of S."""


class SElement(ExactElement):
    """Canonical residue in S: the unique representative of degree <= n-2.

    coeffs[i] is the coefficient of rho^i; len(coeffs) == n - 1. Equality and
    hashing are coefficientwise on this canonical form.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        n = int(n)
        if n < 2:
            raise ValueError(f"quotient ring needs n >= 2, got {n}")
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != n - 1:
            raise ValueError(f"expected {n - 1} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _from_ints(cls, n, coeffs):
        """The element with these coefficients, taken as given: an int n and a tuple of n - 1 ints."""
        element = object.__new__(cls)
        object.__setattr__(element, "n", n)
        object.__setattr__(element, "coeffs", coeffs)
        return element

    @classmethod
    def zero(cls, n):
        return cls(n, (0,) * (n - 1))

    @classmethod
    def one(cls, n):
        return cls(n, (1,) + (0,) * (n - 2))

    @classmethod
    def constant(cls, n, value):
        return cls(n, (value,) + (0,) * (n - 2))

    @classmethod
    def rho_power(cls, n, exponent):
        """Canonical form of rho^exponent."""
        return cls.from_exponents(n, (exponent,))

    @classmethod
    def from_exponents(cls, n, exponents):
        """Canonical form of a sum of rho-powers (exponents reduced mod n)."""
        coeffs = [0] * n
        for e in exponents:
            coeffs[e % n] += 1
        return reduce(GroupRingElement(n, coeffs))

    def _require_same_order(self, other):
        if self.n != other.n:
            raise OrderMismatchError(f"quotient orders differ: {self.n} != {other.n}")

    def _coerce(self, other):
        if isinstance(other, int):
            return SElement.constant(self.n, other)
        return other if isinstance(other, SElement) else NotImplemented

    def __add__(self, other):
        if not isinstance(other, SElement):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        self._require_same_order(other)
        return SElement(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return SElement(self.n, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, SElement):
            if isinstance(other, int):
                return SElement(self.n, tuple(other * a for a in self.coeffs))
            return NotImplemented
        self._require_same_order(other)
        return reduce(lift(self) * lift(other))

    __rmul__ = __mul__

    def inverse(self):
        return invert(self)

    def __eq__(self, other):
        return isinstance(other, SElement) and self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("S", self.n, self.coeffs))

    def __repr__(self):
        return f"SElement(n={self.n}, coeffs={self.coeffs})"


def reduce(element):
    """Canonical image of a group-ring element in S.

    Substitutes rho^(n-1) = -(1 + rho + ... + rho^(n-2)); this is a surjective
    ring homomorphism whose kernel is the integer multiples of the norm element.
    """
    top = element.coeffs[-1]
    return SElement(element.n, tuple(c - top for c in element.coeffs[:-1]))


def lift(s):
    """The canonical preimage in the group ring (top coefficient padded with 0)."""
    return GroupRingElement(s.n, s.coeffs + (0,))


# Kernel primes lie below 2^26, so that evaluation in int64 (coefficients and
# powers below p, n - 1 products summed) cannot overflow for n <= 2048.
_PRIME_CEILING = 1 << 26


class _PrimeTable:
    """Primes p = 1 (mod n), taken downward from 2^26, with the powers of a root of order n.

    Entry k is (p, w, rows) where w has exact order n mod p and
    rows[j][i] = w^(j*i) mod p for 0 <= i, j < n. Since p does not divide n,
    1 + x + ... + x^(n-1) splits mod p with the distinct roots w^1, ..., w^(n-1),
    so S/pS is the product of the evaluations at those roots.
    """

    def __init__(self, n):
        self.n = n
        self.entries = []
        top = (_PRIME_CEILING - 2) // n * n + 1
        self._candidates = itertools.chain(range(top, n, -n), itertools.count(top + n, n))

    def __getitem__(self, k):
        while len(self.entries) <= k:
            p = next(c for c in self._candidates if _is_prime(c))
            w = _root_of_exact_order(self.n, p)
            rows = []
            for j in range(self.n):
                step, acc, row = pow(w, j, p), 1, []
                for _ in range(self.n):
                    row.append(acc)
                    acc = acc * step % p
                rows.append(row)
            self.entries.append((p, w, rows))
        return self.entries[k]


def _root_of_exact_order(n, p):
    cofactor = (p - 1) // n
    divisors = _prime_divisors(n)
    for g in itertools.count(2):
        w = pow(g, cofactor, p)
        if all(pow(w, n // q, p) != 1 for q in divisors):
            return w


_TABLES = {}


def _table(n):
    if n not in _TABLES:
        _TABLES[n] = _PrimeTable(n)
    return _TABLES[n]


def _evaluations(coeffs, p, rows):
    """The canonical representative evaluated at w^1, ..., w^(n-1), mod p."""
    return [sum(map(mul, coeffs, rows[j])) % p for j in range(1, len(rows))]


def _norm_threshold(n, spread):
    """T such that residues modulo any M with M^2 > T decide every norm N(s) with n*Q - F^2 <= spread.

    With Q the sum of squares and F the sum of the coefficients, Parseval over
    all n-th roots of unity gives |f(w^1)|^2 + ... + |f(w^(n-1))|^2 = n*Q - F^2,
    and AM-GM bounds their product: |N(s)|^2 <= ((n*Q - F^2) / (n-1))^(n-1).
    So M^2 * (n-1)^(n-1) > 4 * (n*Q - F^2)^(n-1) suffices for the symmetric
    residue modulo M to be N(s); for an integer M^2 that is M^2 > T with
    T = 4 * spread^(n-1) // (n-1)^(n-1).
    """
    return 4 * spread ** (n - 1) // (n - 1) ** (n - 1)


def _norm_residues(s):
    """Yield (p, N(s) mod p) over the table's primes until their product M decides N(s).

    M is large enough once M^2 exceeds _norm_threshold. At least one prime is
    always yielded.
    """
    n = s.n
    table = _table(n)
    f = sum(s.coeffs)
    threshold = _norm_threshold(n, n * sum(c * c for c in s.coeffs) - f * f)
    modulus = 1
    for k in itertools.count():
        p, _, rows = table[k]
        value = 1
        for v in _evaluations(s.coeffs, p, rows):
            value = value * v % p
        yield p, value
        modulus *= p
        if modulus * modulus > threshold:
            return


def norm(s):
    """The norm of s from S to Z: the product of its values at the roots of 1 + ... + x^(n-1).

    Equals the resultant of the canonical representative with
    1 + x + ... + x^(n-1) up to sign; computed exactly from residues modulo
    primes p = 1 (mod n), joined one prime at a time by the Chinese remainder
    theorem and read as the symmetric residue.
    """
    value, modulus = 0, 1
    for p, residue in _norm_residues(s):
        value += modulus * ((residue - value) * pow(modulus, -1, p) % p)
        modulus *= p
    return value - modulus if 2 * value > modulus else value


def is_unit(s):
    """Whether s is invertible in S, i.e. whether its norm is +-1.

    With the primes norm(s) would use, N(s) = +1 exactly when it is 1 modulo
    every one of them, and -1 exactly when it is -1 modulo each. The first
    prime that breaks the pattern rejects s; most non-units fail at the first.
    """
    residues = _norm_residues(s)
    p, first = next(residues)
    if first != 1 and first != p - 1:
        return False
    sign = 1 if first == 1 else -1
    return all(residue == sign % q for q, residue in residues)


def _multiplication_matrix(s):
    """Matrix of multiplication by s on the basis 1, rho, ..., rho^(n-2).

    Column j is the canonical form of s * rho^j: the lift of s rotated by j,
    minus its top entry.
    """
    n = s.n
    lifted = s.coeffs + (0,)
    cols = []
    for j in range(n - 1):
        rotated = lifted[n - j:] + lifted[:n - j]
        top = rotated[-1]
        cols.append([c - top for c in rotated[:-1]])
    return list(zip(*cols))


def solve_inverse(s):
    """Inverse of s found by the fraction-free integer linear solve, or None.

    Solves (multiplication by s) x = 1, which gives det and det * x; the
    inverse exists in S exactly when det is nonzero and divides every entry.
    Returns None otherwise. This is the route behind invert, and the oracle
    for is_unit: it shares nothing with the modular norm kernel. linalg is
    imported here, so only inversion loads it.
    """
    from . import linalg

    det, scaled = linalg.solve_integer(_multiplication_matrix(s), [1] + [0] * (s.n - 2))
    if det == 0 or any(c % det for c in scaled):
        return None
    return SElement(s.n, tuple(c // det for c in scaled))


def invert(s):
    """Inverse of a unit of S, by the fraction-free linear solve of solve_inverse.

    Raises NotInvertibleError when s is not a unit. The result is checked
    exactly; a product other than 1 would be an internal inconsistency and
    raises RuntimeError.
    """
    inverse = solve_inverse(s)
    if inverse is None:
        raise NotInvertibleError(f"{s!r} is not a unit of S")
    if s * inverse != SElement.one(s.n):
        raise RuntimeError("computed inverse failed verification")
    return inverse


def eps_bar(s):
    """Sum of canonical coefficients mod n (the residue of any preimage's augmentation)."""
    return sum(s.coeffs) % s.n


def tau_apply_s(s, tau):
    """Image of s under the ring automorphism rho -> rho^r."""
    return reduce(lift(s).tau_apply(tau))
