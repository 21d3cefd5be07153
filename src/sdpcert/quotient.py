"""Arithmetic in S = Z[rho]/(1 + rho + ... + rho^(n-1)) with the tau-action rho -> rho^r."""

from __future__ import annotations

import functools
import itertools
import operator
from math import gcd

from ._primes import _is_prime, _prime_divisors
from .group_ring import GroupRingElement, _IntegralElement, _is_fixed, _orbits


class NotInvertibleError(ArithmeticError):
    """Raised when inversion is requested for a non-unit of S."""


class SElement(_IntegralElement):
    """Canonical residue in S: the unique representative of degree <= n-2.

    coeffs[i] is the coefficient of rho^i; len(coeffs) == n - 1. Equality and
    hashing are coefficientwise on this canonical form.
    """

    __slots__ = ("n", "coeffs")

    def __new__(cls, n, coeffs):
        n = cls._order(n)
        return cls._checked(n, coeffs, n - 1)

    @staticmethod
    def _order(n):
        """n as an int, checked to be the order of a quotient ring."""
        n = operator.index(n)
        if n < 2:
            raise ValueError(f"quotient ring needs n >= 2, got {n}")
        return n

    @classmethod
    def zero(cls, n):
        n = cls._order(n)
        return cls._new(n, (0,) * (n - 1))

    @classmethod
    def one(cls, n):
        n = cls._order(n)
        return cls._new(n, (1,) + (0,) * (n - 2))

    @classmethod
    def constant(cls, n, value):
        n = cls._order(n)
        return cls._new(n, (operator.index(value),) + (0,) * (n - 2))

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

    def __mul__(self, other):
        if type(other) is not SElement:
            return self._scaled(other)
        self._require_same_order(other)
        return reduce(lift(self) * lift(other))

    __rmul__ = __mul__

    def inverse(self):
        return invert(self)


def reduce(element):
    """Canonical image of a group-ring element in S.

    Substitutes rho^(n-1) = -(1 + rho + ... + rho^(n-2)); this is a surjective
    ring homomorphism whose kernel is the integer multiples of the norm element.
    """
    top = element.coeffs[-1]
    return SElement._new(element.n, tuple(c - top for c in element.coeffs[:-1]))


def lift(s):
    """The canonical preimage in the group ring (top coefficient padded with 0)."""
    return GroupRingElement._new(s.n, s.coeffs + (0,))


# Kernel primes lie below 2^26, so that evaluation in int64 (coefficients and
# powers below p, n - 1 products summed) cannot overflow for n <= 2048.
_PRIME_CEILING = 1 << 26

_CACHE_SIZE = 128  # the most recently used n keep their kernel primes, and (n, r) their levels


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _prime_table(n):
    """The kernel primes of n found so far, as (p, powers) entries, and the iterator of the rest."""
    top = (_PRIME_CEILING - 2) // n * n + 1
    candidates = itertools.chain(range(top, n, -n), itertools.count(top + n, n))
    return [], (c for c in candidates if _is_prime(c))


def _prime(n, k):
    """The k-th kernel prime p = 1 (mod n), taken downward from 2^26, and powers[i] = w^i mod p.

    w has exact order n mod p and 0 <= i < n. Since p does not divide n,
    1 + x + ... + x^(n-1) splits mod p with the distinct roots w^1, ..., w^(n-1),
    so S/pS is the product of the evaluations at those roots.
    """
    entries, primes = _prime_table(n)
    while len(entries) <= k:
        p = next(primes)
        w = _root_of_exact_order(n, p)
        entries.append((p, [pow(w, i, p) for i in range(n)]))
    return entries[k]


def _root_of_exact_order(n, p):
    cofactor = (p - 1) // n
    divisors = _prime_divisors(n)
    for g in itertools.count(2):
        w = pow(g, cofactor, p)
        if all(pow(w, n // q, p) != 1 for q in divisors):
            return w


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _levels(n, r):
    """The cyclotomic levels of S under rho -> rho^r: ((d, size, roots), ...), fewest roots first.

    Levels with as many roots are ordered by d. roots holds the least j of
    each <r>-orbit (group_ring._orbits) of the j in Z/n of order d, for each
    divisor d > 1 of n; every such orbit has size ord_d(r),
    so the level's c_d = len(roots) orbits hold its phi(d) = c_d * size
    roots of unity. A tau-fixed s takes one value on each orbit, and the
    product P_d of its values at w^j over roots is the norm of s(zeta_d) from
    the fixed field of <r> in Q(zeta_d), an integer. N(s) is the product of
    the P_d ** size (Washington, Introduction to Cyclotomic Fields, ch. 2 and 8).

    Kept per (n, r), as _prime keeps its primes per n; all tuples, so that no
    caller can change a kept value.
    """
    levels = {}
    for orbit in _orbits(n, (r,))[1:]:
        d = n // gcd(orbit[0], n)
        levels.setdefault(d, (d, len(orbit), []))[2].append(orbit[0])
    return tuple(sorted(((d, size, tuple(roots)) for d, size, roots in levels.values()),
                        key=lambda level: (len(level[2]), level[0])))


def _prime_count(n, levels, spread):
    """How many kernel primes decide every P_d of levels for every fixed s with n*Q - F^2 <= spread.

    With Q the sum of squares and F the sum of the coefficients, Parseval over
    all n-th roots of unity gives |s(w^1)|^2 + ... + |s(w^(n-1))|^2 = n*Q - F^2.
    s takes one value on each orbit of a level, so AM-GM over the level's
    phi(d) = c_d * size roots bounds |P_d|^2 <= ((n*Q - F^2) / phi(d))^c_d.
    The symmetric residue modulo M is P_d once M^2 * phi(d)^c_d > 4 * spread^c_d;
    the first K primes whose product M does so at every level decide them
    all. K is at least 1.
    """
    threshold = max(4 * spread ** len(roots) // (len(roots) * size) ** len(roots)
                    for _, size, roots in levels)
    modulus = 1
    for k in itertools.count(1):
        modulus *= _prime(n, k - 1)[0]
        if modulus * modulus > threshold:
            return k


def _level_residues(s, levels):
    """Yield (p, residues) over the primes _prime_count calls for: residues yields P_d mod p, level by level."""
    n, coeffs = s.n, s.coeffs[::-1]
    f = sum(coeffs)
    for k in range(_prime_count(n, levels, n * sum(c * c for c in coeffs) - f * f)):
        p, powers = _prime(n, k)
        yield p, _level_values(coeffs, levels, p, powers)


def _level_values(reversed_coeffs, levels, p, powers):
    """Yield P_d mod p for each level: the product of the values at w^j, j in roots, by Horner's rule."""
    for _, _, roots in levels:
        product = 1
        for j in roots:
            x, value = powers[j], 0
            for c in reversed_coeffs:
                value = (value * x + c) % p
            product = product * value % p
        yield product


def norm(s):
    """The norm of s from S to Z: the product of its values at the roots of 1 + ... + x^(n-1).

    Equals the resultant of the canonical representative with
    1 + x + ... + x^(n-1) up to sign. It is the product of the P_d of the
    levels of rho -> rho, each computed exactly from residues modulo primes
    p = 1 (mod n), joined one prime at a time by the Chinese remainder
    theorem and read as the symmetric residue.
    """
    levels = _levels(s.n, 1)
    values, modulus = [0] * len(levels), 1
    for p, residues in _level_residues(s, levels):
        inverse = pow(modulus, -1, p)
        values = [value + modulus * ((residue - value) * inverse % p)
                  for value, residue in zip(values, residues)]
        modulus *= p
    product = 1
    for value in values:
        product *= value - modulus if 2 * value > modulus else value
    return product


def is_unit(s, tau=None):
    """Whether s is invertible in S, i.e. whether every P_d of its levels is +-1.

    tau is a TauData that fixes s, checked in O(n) (ValueError if it does
    not); None stands for rho -> rho, which fixes every s. The check is on
    the canonical lift: a permuted lift has the lift's coefficient sum, so it
    differs from the lift by a multiple k*N of the norm element only for
    k = 0, and s is fixed exactly when its lift is. With tau, s is
    evaluated at one root per <r>-orbit, and each level's prime count has
    exponent c_d, the number of its orbits. P_d = +1 exactly when it is 1
    modulo every prime _prime_count calls for, and -1 exactly when it is -1
    modulo each. The first prime that breaks the pattern rejects s; most
    non-units fail at the first.
    """
    if tau is not None:
        s._require_same_order(tau)
        if not _is_fixed(s.coeffs + (0,), tau.r):
            raise ValueError(f"{s!r} is not fixed by rho -> rho^{tau.r}")
    return _is_unit_fixed_by(s, 1 if tau is None else tau.r)


def _is_unit_fixed_by(s, r):
    """is_unit's test for an s known to be fixed by rho -> rho^r."""
    signs = {}
    for p, residues in _level_residues(s, _levels(s.n, r)):
        for level, residue in enumerate(residues):
            sign = 1 if residue == 1 else -1 if residue == p - 1 else 0
            if not sign or signs.setdefault(level, sign) != sign:
                return False
    return True


def _fixed_and_unit(s, tau):
    """(tau fixes s, s is a unit), fixedness tested once: the unit test uses tau only when it fixes s."""
    s._require_same_order(tau)
    fixed = _is_fixed(s.coeffs + (0,), tau.r)
    return fixed, _is_unit_fixed_by(s, tau.r if fixed else 1)


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
    return SElement._new(s.n, tuple(c // det for c in scaled))


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
