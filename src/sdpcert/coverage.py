"""Tau-fixed units of S, the residues they cover mod n, and a bounded exhaustive oracle."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

import numpy as np

from .finitefield import _is_prime
from .group_ring import GroupRingElement, TauData, partial_norm_product
from .quotient import (
    SElement,
    _norm_threshold,
    _table,
    eps_bar,
    is_unit,
    lift,
    reduce,
    tau_apply_s,
)

_EXHAUSTIVE_GUARD = 10**8
_BLOCK_LIMIT = 1 << 18


class SearchSpaceTooLargeError(ValueError):
    """Raised when the exhaustive enumeration exceeds desk scale."""


@dataclass(frozen=True)
class CoverageReport:
    """Residues of (Z/nZ)* reached by eps_bar over a family of tau-fixed units.

    generators pairs one witness unit with each residue it reaches directly;
    subgroup is the multiplicative closure of those residues. The reported
    subgroup is a lower bound for the full coverage: the generator strategy
    may miss units, which is why the strategy label is part of the report.
    """

    n: int
    r: int
    m: int
    generators: tuple
    subgroup: tuple
    is_full: bool
    strategy: str


def subgroup_closure(residues, n):
    """Multiplicative closure in (Z/nZ)* of the given unit residues."""
    for x in residues:
        if gcd(x, n) != 1:
            raise ValueError(f"{x} is not a unit mod {n}")
    known = {1}
    frontier = [x % n for x in residues]
    while frontier:
        x = frontier.pop()
        if x not in known:
            known.add(x)
            frontier.extend(x * y % n for y in list(known))
    return tuple(sorted(known))


def dihedral_generators(n):
    """Closed-form tau-fixed generators for r = n-1, n odd.

    Returns rho + rho^(-1) followed by the symmetric sums
    rho^(-k) + ... + rho^k for 3 <= 2k+1 < n. Each is fixed under rho -> rho^(-1);
    unit status is checked downstream, not assumed.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"dihedral generators require odd n >= 3, got {n}")
    gens = [SElement.from_exponents(n, (1, n - 1))]
    k = 1
    while 2 * k + 1 < n:
        gens.append(SElement.from_exponents(n, [e % n for e in range(-k, k + 1)]))
        k += 1
    return gens


def tau_symmetrize(s, tau):
    """Product of s over its tau-orbit; always tau-fixed, and a unit if s is."""
    acc = s
    cur = s
    for _ in range(tau.m - 1):
        cur = tau_apply_s(cur, tau)
        acc = acc * cur
    return acc


def coset_steps(n, r):
    """Coset representatives r^k of <r>/{+-1}: the first m/2 if r^(m/2) = -1, else all m."""
    steps = [pow(r, k, n) for k in range(TauData(n, r).m)]
    if n > 2 and n - 1 in steps:
        steps = steps[: len(steps) // 2]
    return steps


def cyclotomic_unit(n, steps, a):
    """The norm over steps of the real cyclotomic unit xi_a = rho^((1-a)/2) (1 + ... + rho^(a-1)).

    a is odd and coprime to n. xi_a is fixed by rho -> rho^(-1), so its norm
    over coset_steps(n, r) is tau-fixed, with norm +-1 and residue a^len(steps)
    (Washington, Introduction to Cyclotomic Fields, ch. 8). Closed form:
    partial_norm_product rotated by rho^((1-a)/2 * sum(steps)), reduced once.
    """
    if a % 2 == 0:
        raise ValueError(f"the cyclotomic unit needs an odd a, got {a}")
    rotation = GroupRingElement.sigma_power(n, (1 - a) // 2 * sum(steps))
    return reduce(rotation * partial_norm_product(n, steps, a))


def _checked_unit(n, steps, a):
    """cyclotomic_unit(n, steps, a) with its unit status and residue a^e checked exactly."""
    unit = cyclotomic_unit(n, steps, a)
    if not is_unit(unit) or eps_bar(unit) != pow(a, len(steps), n):
        raise RuntimeError(f"cyclotomic unit for a = {a} failed its check at n = {n}")
    return unit


def fixed_unit_generators(n, r):
    """-1, then cyclotomic_unit(n, coset_steps(n, r), a) for odd a = 3, 5, ... coprime to n.

    a is kept only when its residue a^e (e = len(steps)) is not yet covered.
    Odd a reach every unit up to sign (one of a and n - a is odd when n is,
    and every unit is odd when n is even), so the covered subgroup is
    {+-a^e : gcd(a, n) = 1}.
    """
    steps = coset_steps(n, r)
    units = [SElement.constant(n, -1)]
    covered = subgroup_closure([n - 1], n)
    for a in range(3, n, 2):
        power = pow(a, len(steps), n)
        if gcd(a, n) == 1 and power not in covered:
            units.append(_checked_unit(n, steps, a))
            covered = subgroup_closure(covered + (power,), n)
    return units


def coverage_subgroup(n, r):
    """Subgroup of (Z/nZ)* generated by eps_bar over the fixed units."""
    units = fixed_unit_generators(n, r)
    generators = tuple((u, eps_bar(u)) for u in units)
    subgroup = subgroup_closure([res for _, res in generators], n)
    units_mod_n = tuple(x for x in range(1, n) if gcd(x, n) == 1) or (1,)
    return CoverageReport(
        n=n,
        r=r,
        m=TauData(n, r).m,
        generators=generators,
        subgroup=subgroup,
        is_full=subgroup == units_mod_n,
        strategy="generator-based",
    )


def unit_witness(n, r, residue):
    """+-cyclotomic_unit(n, coset_steps(n, r), a) for the first odd a with +-a^e = residue mod n.

    None when there is no such a: {+-a^e} is the reported subgroup, so a
    witness exists exactly for the residues coverage_subgroup reports.
    """
    steps = coset_steps(n, r)
    residue %= n
    for a in range(1, n, 2):
        power = pow(a, len(steps), n)
        if gcd(a, n) == 1 and residue in (power, -power % n):
            unit = _checked_unit(n, steps, a)
            return unit if residue == power else -unit
    return None


def _reduce(values, p):
    """values % p in place, for values >= 0: numpy floor-divides by a scalar several times faster."""
    values -= values // p * p
    return values


def _pow_mod(values, exponent, p):
    """values ** exponent mod p, elementwise by square-and-multiply in int64 (values < p < 2^26)."""
    result = None
    while True:
        if exponent & 1:
            result = values if result is None else _reduce(result * values, p)
        exponent >>= 1
        if not exponent:
            return result
        values = _reduce(values * values, p)


def _orbit_sums_at_roots(n, r, orbits, k=0):
    """The k-th table prime q, the levels of the roots, and the orbit sums at the roots mod q.

    One root w^j is taken per nonzero <r>-orbit J of Z/n, one column each.
    Entry (e, i) of the array is the sum of w^(jx) over x in orbits[e], mod q,
    at root i. A level (d, size, columns) holds the columns whose roots have
    order d, for each divisor d > 1 of n; all its orbits have size ord_d(r).
    The levels come fewest columns first.
    """
    roots = [orbit for orbit in TauData(n, r).orbits() if orbit[0]]
    orders = [n // gcd(root[0], n) for root in roots]
    levels = [(d, len(roots[orders.index(d)]), [i for i, order in enumerate(orders) if order == d])
              for d in sorted(set(orders))]
    levels.sort(key=lambda level: len(level[2]))
    q, _, rows = _table(n)[k]
    sums = np.array(
        [[sum(rows[root[0]][x] for x in orbit) % q for root in roots] for orbit in orbits],
        dtype=np.int64,
    )
    return q, levels, sums


def _prime_count(n, spread):
    """How many table primes decide N(s) = +-1 for every s of S_n with n*Q - F^2 <= spread.

    Q is the sum of the squared coefficients of s and F their sum: the first K
    primes whose product M has M^2 > quotient._norm_threshold(n, spread) do.
    On the box [-B, B]^(n-1), n*Q - F^2 <= n*(n-1)*B^2.
    """
    threshold = _norm_threshold(n, spread)
    modulus = 1
    for k in itertools.count(1):
        modulus *= _table(n)[k - 1][0]
        if modulus * modulus > threshold:
            return k


def _level_product(columns, offset, group, p, rows=slice(None)):
    """P_d mod p at the given rows: the product over the level's columns of column + offset.

    Every column entry and offset lies below p, so a factor lies below 2p,
    and the first product, below 4p^2 < 2^54, needs no reduction before it.
    """
    product = columns[group[0], rows] + offset[group[0]]
    for i in group[1:]:
        product *= columns[i, rows] + offset[i]
        _reduce(product, p)
    return product if len(group) > 1 else _reduce(product, p)


def _level_filter(columns, offset, levels, p):
    """The rows of a block at which P_d = +-1 mod p at every level.

    The first level is formed at every row, and each later one only at the
    rows that passed the levels before it. A one-column level needs no
    product: its column is compared with -offset +- 1.
    """
    rows = slice(None)
    for _, _, group in levels:
        if len(group) == 1:
            values = columns[group[0], rows]
            plus, minus = (1 - offset[group[0]]) % p, (-1 - offset[group[0]]) % p
        else:
            values = _level_product(columns, offset, group, p, rows)
            plus, minus = 1, p - 1
        kept = np.flatnonzero((values == plus) | (values == minus))
        rows = kept if isinstance(rows, slice) else rows[kept]
        if not len(rows):
            break
    return rows


def _unit_mask(weights, levels, tables):
    """Whether N(s) is +1 modulo every prime of tables or -1 modulo each, per row of orbit weights.

    N(s) mod q is the product over the levels of P_d ** ord_d(r).
    """
    plus = minus = True
    for q, _, sums in tables:
        columns = sums.T @ weights.T % q
        norms = 1
        for _, size, group in levels:
            level = _pow_mod(_level_product(columns, [0] * len(columns), group, q), size, q)
            norms = _reduce(norms * level, q)
        plus &= norms == 1
        minus &= norms == q - 1
    return plus | minus


def exhaustive_fixed_units(n, r, bound=2):
    """Every tau-fixed unit whose canonical coefficients all lie in [-bound, bound].

    Independent oracle for the generator strategy. The canonical lift of a
    fixed element is fixed, so the fixed elements are exactly the integer
    weight vectors on the d free <r>-orbits of Z/n (all but the orbit of n - 1,
    whose weight the canonical form makes 0): the coefficient of rho^i is the
    weight of the orbit of i. The norm factors by cyclotomic levels
    (Washington, Introduction to Cyclotomic Fields, ch. 2 and 8):

    - One root per orbit. Evaluation at w^j is a ring map S -> F_p and s is
      tau-fixed, so s(w^(jr)) = s(w^j), and s is evaluated at one root w^j
      per nonzero <r>-orbit J of Z/n.
    - Levels. For each divisor d > 1 of n, the product P_d of those values
      over the orbits of roots of order d is the norm of s(zeta_d) from the
      fixed field of <r> in Q(zeta_d), an integer, and N(s) is the product of
      the P_d ** ord_d(r). So N(s) = +-1 exactly when every P_d = +-1.
    - Negation. s is a unit if and only if -s is, so only the vectors whose
      first nonzero weight is positive are tested, and each unit s brings -s
      with it. The zero vector is never a unit.

    The filter, modulo p the first kernel prime, keeps the vectors with
    P_d = +-1 mod p, one level at a time, fewest columns first; most vectors
    leave after one or two columns, and no unit is ever dropped. The box
    bounds n*Q - F^2 by n*(n-1)*bound^2, which fixes the table primes that
    decide N(s) = +-1 for every vector in it. When one prime does, as for
    every n <= 10 at bound <= 2, the filter's survivors are the units.
    Otherwise a block's survivors are units when their norm is +1 modulo
    each of the primes their own largest n*Q - F^2 calls for, or -1 modulo
    each, checked as arrays; a large n with a small box then builds no more
    prime tables than its units need.

    The (2*bound+1)^d vectors are split into an inner grid, evaluated once at
    the roots, one orbit weight at a time, and outer prefixes, each adding one
    constant offset per root. In lexicographic order the zero vector sits in
    the middle of the box, so only the prefixes after the middle are visited,
    and only the zero prefix masks the inner grid to its rows after the
    middle. With p < 2^26 every reduced value lies below p and a factor (a
    grid value plus an offset) below 2p, so each int64 product stays below
    2^54; a sum of d weights times values below p stays below d*bound*2^26,
    far from 2^63 while the guard holds. The grid holds at most _BLOCK_LIMIT
    values, whatever n; the final order is canonical.
    """
    orbits = [orbit for orbit in TauData(n, r).orbits() if n - 1 not in orbit]
    d = len(orbits)
    total = (2 * bound + 1) ** d
    if total > _EXHAUSTIVE_GUARD:
        raise SearchSpaceTooLargeError(
            f"(2*{bound}+1)^{d} = {total} weight vectors on the d = {d} free <r>-orbits "
            f"exceeds the desk-scale guard of {_EXHAUSTIVE_GUARD}"
        )
    weight_index = [d] * (n - 1)
    for k, orbit in enumerate(orbits):
        for e in orbit:
            weight_index[e] = k
    tables = [_orbit_sums_at_roots(n, r, orbits)]
    p, levels, orbit_values = tables[0]
    confirm = p * p <= _norm_threshold(n, n * (n - 1) * bound * bound)
    sizes = np.array([len(orbit) for orbit in orbits], dtype=object)
    weights = np.arange(-bound, bound + 1, dtype=np.int64)
    inner = d
    while inner and len(weights) ** inner * len(orbit_values[0]) > _BLOCK_LIMIT:
        inner -= 1
    columns = np.zeros((len(orbit_values[0]), 1), dtype=np.int64)
    for values in orbit_values[d - inner :]:
        step = np.multiply.outer(values, weights) % p
        columns = _reduce((columns[:, :, None] + step[:, None, :]).reshape(len(columns), -1), p)
    places = len(weights) ** np.arange(inner - 1, -1, -1)
    outer = itertools.product(weights.tolist(), repeat=d - inner)
    units = []
    for prefix in itertools.islice(outer, (len(weights) ** (d - inner) - 1) // 2, None):
        start = 0 if any(prefix) else (columns.shape[1] + 1) // 2
        offset = (np.array(prefix, dtype=np.int64) @ orbit_values[: d - inner] % p).tolist()
        rows = _level_filter(columns[:, start:], offset, levels, p) + start
        if not len(rows):
            continue
        vectors = np.empty((len(rows), d + 1), dtype=np.int64)
        vectors[:, : d - inner] = prefix
        vectors[:, d - inner : d] = rows[:, None] // places % len(weights) - bound
        vectors[:, d] = 0
        if confirm:
            block = vectors[:, :d]
            exact = block.astype(object)
            count = _prime_count(n, max(n * (exact * exact) @ sizes - (exact @ sizes) ** 2))
            tables += [_orbit_sums_at_roots(n, r, orbits, k) for k in range(len(tables), count)]
            vectors = vectors[_unit_mask(block, levels, tables[:count])]
        for coeffs in vectors[:, weight_index].tolist():
            units.append(SElement(n, coeffs))
            units.append(SElement(n, [-c for c in coeffs]))
    return sorted(units, key=lambda s: s.coeffs)


def reduce_to_cyclic(p, action_images):
    """Collapse a conjugation action on a prime-order cyclic group to (m, r).

    The images generate a subgroup of (Z/pZ)*, necessarily cyclic; m is its
    order and r its smallest positive generator.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    images = [x % p for x in action_images]
    if any(x == 0 for x in images):
        raise ValueError("action images must be nonzero mod p")
    subgroup = subgroup_closure(images, p)
    m = len(subgroup)
    return m, next(c for c in subgroup if len(subgroup_closure([c], p)) == m)


def verify_report(report):
    """Re-check the CoverageReport invariants; returns a list of violations."""
    problems = []
    tau = TauData(report.n, report.r)
    for residue in report.subgroup:
        if gcd(residue, report.n) != 1:
            problems.append(f"residue {residue} is not a unit mod {report.n}")
    closure = subgroup_closure(report.subgroup, report.n)
    if closure != report.subgroup:
        problems.append("subgroup is not multiplicatively closed")
    for unit, residue in report.generators:
        if eps_bar(unit) != residue:
            problems.append(f"generator residue mismatch for {unit!r}")
        if not is_unit(unit):
            problems.append(f"generator {unit!r} fails the unit test")
        if not lift(unit).is_tau_fixed(tau):
            problems.append(f"generator {unit!r} is not tau-fixed after lifting")
    return problems
