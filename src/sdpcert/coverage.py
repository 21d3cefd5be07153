"""Tau-fixed units of S, the residues they cover mod n, and a bounded exhaustive oracle.

numpy is imported only inside the oracle's kernel, so only exhaustive_fixed_units loads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from operator import index

from ._element import orbit_product
from ._primes import _is_prime
from .group_ring import GroupRingElement, TauData, _orbits, partial_norm_product
from .quotient import (
    SElement,
    _fixed_and_unit,
    _levels,
    _prime,
    _prime_count,
    eps_bar,
    is_unit,  # still a coverage name; verify_report tests units through _fixed_and_unit
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
    """Multiplicative closure in (Z/nZ)* of the given unit residues, sorted; n is at least 2.

    The orbit of 1 under the residues (group_ring._orbits): in a finite
    group the products of generators are the whole subgroup, so the walk
    costs one product per element and generator.
    """
    n = index(n)
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")
    residues = tuple(residues)
    for x in residues:
        if gcd(x, n) != 1:
            raise ValueError(f"{x} is not a unit mod {n}")
    return tuple(sorted(_orbits(n, residues, (1,))[0]))


def tau_symmetrize(s, tau):
    """Product of s over its tau-orbit; always tau-fixed, and a unit if s is."""
    return orbit_product(lambda x: tau_apply_s(x, tau), s, tau.m, SElement.one(s.n))


def coset_steps(n, r):
    """Coset representatives r^k of <r>/{+-1}, the orbit of 1: its first m/2 if r^(m/2) = -1, else all m."""
    TauData(n, r)  # checks n and r
    steps = _orbits(n, (r,), (1,))[0]
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


def cyclotomic_unit_inverse(n, steps, a):
    """The inverse of cyclotomic_unit(n, steps, a), in closed form.

    With b = a^(-1) mod n, rho = (rho^a)^b, so (rho - 1) / (rho^a - 1) is
    1 + rho^a + ... + rho^(a(b-1)) and xi_a^(-1) = rho^((a-1)/2) times that
    sum. Normed over steps: partial_norm_product over the steps a*t, rotated
    by rho^((a-1)/2 * sum(steps)), reduced once.
    """
    rotation = GroupRingElement.sigma_power(n, (a - 1) // 2 * sum(steps))
    return reduce(rotation * partial_norm_product(n, [a * t % n for t in steps], pow(a, -1, n)))


def _checked_unit(n, steps, a):
    """(cyclotomic_unit(n, steps, a), cyclotomic_unit_inverse(n, steps, a)), checked exactly.

    The exact product unit * inverse == 1 in S proves the unit with no norm
    test, and is the alpha * beta = 1 a certificate needs. The residue is
    checked against a^e, e = len(steps).
    """
    unit = cyclotomic_unit(n, steps, a)
    inverse = cyclotomic_unit_inverse(n, steps, a)
    if unit * inverse != SElement.one(n) or eps_bar(unit) != pow(a, len(steps), n):
        raise RuntimeError(f"cyclotomic unit for a = {a} failed its check at n = {n}")
    return unit, inverse


def fixed_unit_generators(n, r):
    """-1, then cyclotomic_unit(n, coset_steps(n, r), a) for odd a = 3, 5, ... coprime to n.

    a is kept only when its residue a^e (e = len(steps)) is not yet covered.
    Odd a reach every unit up to sign (one of a and n - a is odd when n is,
    and every unit is odd when n is even), so the covered subgroup is
    {+-a^e : gcd(a, n) = 1}.
    """
    steps = coset_steps(n, r)
    units = [SElement.constant(n, -1)]
    covered = {1, n - 1}
    for a in range(3, n, 2):
        power = pow(a, len(steps), n)
        if gcd(a, n) == 1 and power not in covered:
            units.append(_checked_unit(n, steps, a)[0])
            # the <power>-orbits of a subgroup's elements make up the subgroup it and power generate
            covered.update(itertools.chain.from_iterable(_orbits(n, (power,), covered)))
    return units


def _units_mod(n):
    """(Z/nZ)* as sorted residues, the value of a full CoverageReport.subgroup."""
    return tuple(x for x in range(1, n) if gcd(x, n) == 1) or (1,)


def coverage_subgroup(n, r):
    """Subgroup of (Z/nZ)* generated by eps_bar over the fixed units."""
    units = fixed_unit_generators(n, r)
    generators = tuple((u, eps_bar(u)) for u in units)
    subgroup = subgroup_closure([res for _, res in generators], n)
    return CoverageReport(
        n=n,
        r=r,
        m=TauData(n, r).m,
        generators=generators,
        subgroup=subgroup,
        is_full=subgroup == _units_mod(n),
        strategy="generator-based",
    )


def unit_witness(n, r, residue):
    """(+-u, +-u^(-1)), u = cyclotomic_unit(n, coset_steps(n, r), a), for the first odd a
    coprime to n with +-a^e = residue mod n, e = len(coset_steps(n, r)).

    None when there is no such a: {+-a^e} is the reported subgroup, so a
    witness exists exactly for the residues coverage_subgroup reports.
    """
    steps = coset_steps(n, r)
    residue %= n
    for a in range(1, n, 2):
        power = pow(a, len(steps), n)
        if gcd(a, n) == 1 and residue in (power, -power % n):
            sign = 1 if residue == power else -1
            unit, inverse = _checked_unit(n, steps, a)
            return sign * unit, sign * inverse
    return None


def _reduce(values, p):
    """values % p in place, for values >= 0: numpy floor-divides by a scalar several times faster."""
    values -= values // p * p
    return values


def _orbit_sums_at_roots(n, levels, orbits, k=0):
    """The k-th kernel prime q and the orbit sums mod q at the roots of the levels.

    Column i is the root w^j for the i-th j of the levels' roots, in order.
    Entry (e, i) is the sum of w^(jx) over x in orbits[e], mod q.
    """
    import numpy as np

    q, powers = _prime(n, k)
    roots = [j for _, _, level_roots in levels for j in level_roots]
    sums = np.array(
        [[sum(powers[j * x % n] for x in orbit) % q for j in roots] for orbit in orbits],
        dtype=np.int64,
    )
    return q, sums


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


def _level_filter(columns, offset, groups, p):
    """The rows of a block at which P_d = +-1 mod p at every level.

    The first level is formed at every row, and each later one only at the
    rows that passed the levels before it. A one-column level needs no
    product: its column is compared with -offset +- 1.
    """
    import numpy as np

    rows = slice(None)
    for group in groups:
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


def _unit_mask(weights, groups, tables):
    """Whether every level's P_d is +1 modulo each prime of tables or -1 modulo each, per row of orbit weights.

    The prime count decides each P_d, not their product N(s), so each level
    keeps its own sign.
    """
    columns = [(q, sums.T @ weights.T % q) for q, sums in tables]
    mask = True
    for group in groups:
        plus = minus = True
        for q, values in columns:
            level = _level_product(values, [0] * len(values), group, q)
            plus &= level == 1
            minus &= level == q - 1
        mask &= plus | minus
    return mask


def exhaustive_fixed_units(n, r, bound=2):
    """Every tau-fixed unit whose canonical coefficients all lie in [-bound, bound], for an int bound >= 0.

    Independent oracle for the generator strategy. The canonical lift of a
    fixed element is fixed, so the fixed elements are exactly the integer
    weight vectors on the d free <r>-orbits of Z/n (all but the orbit of n - 1,
    whose weight the canonical form makes 0): the coefficient of rho^i is the
    weight of the orbit of i. The unit test is by cyclotomic levels, as in
    quotient.is_unit: s is a unit exactly when every P_d = +-1.

    - One root per orbit. Evaluation at w^j is a ring map S -> F_p and s is
      tau-fixed, so s(w^(jr)) = s(w^j), and s is evaluated at one root w^j
      per nonzero <r>-orbit J of Z/n (quotient._levels).
    - Negation. s is a unit if and only if -s is, so only the vectors whose
      first nonzero weight is positive are tested, and each unit s brings -s
      with it. The zero vector is never a unit.

    The filter, modulo p the first kernel prime, keeps the vectors with
    P_d = +-1 mod p, one level at a time, fewest columns first; most vectors
    leave after one or two columns, and no unit is ever dropped. The box
    bounds n*Q - F^2 by n*(n-1)*bound^2, which fixes the primes that decide
    every P_d for every vector in it (quotient._prime_count). When one prime
    does, as for every n <= 10 at bound <= 2, the filter's survivors are the
    units. Otherwise a block's survivors are units when each P_d is +1 modulo
    each of the primes their own largest n*Q - F^2 calls for, or -1 modulo
    each, checked as arrays; a large n with a small box then evaluates its
    orbit sums modulo no more primes than its units need.

    The (2*bound+1)^d vectors are split into an inner grid, evaluated once at
    the roots, one orbit weight at a time, and outer prefixes, each adding one
    constant offset per root. In lexicographic order the zero vector sits in
    the middle of the box, so only the prefixes after the middle are visited,
    and only the zero prefix masks the inner grid to its rows after the
    middle. With p < 2^26 every reduced value lies below p and a factor (a
    grid value plus an offset) below 2p, so each int64 product stays below
    2^54; a sum of d weights times values below p stays below d*bound*2^26,
    far from 2^63 while the guard holds. The grid adds one reduced value per
    inner orbit and is reduced once, at the end: its sums of inner values
    below p stay below inner*2^26 < n*2^26, as far from 2^63. The grid holds
    at most _BLOCK_LIMIT values, whatever n; the final order is canonical.
    numpy is imported only once the guard has passed.
    """
    bound = index(bound)
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    orbits = [orbit for orbit in TauData(n, r).orbits() if n - 1 not in orbit]
    d = len(orbits)
    if (2 * bound + 1) ** d > _EXHAUSTIVE_GUARD:
        raise SearchSpaceTooLargeError(
            f"(2*{bound}+1)^{d} weight vectors on the d = {d} free <r>-orbits "
            f"exceed the desk-scale guard of {_EXHAUSTIVE_GUARD}"
        )
    import numpy as np

    weight_index = [d] * (n - 1)
    for k, orbit in enumerate(orbits):
        for e in orbit:
            weight_index[e] = k
    levels = _levels(n, r)
    ends = list(itertools.accumulate((len(roots) for _, _, roots in levels), initial=0))
    groups = [range(start, end) for start, end in zip(ends, ends[1:])]
    tables = [_orbit_sums_at_roots(n, levels, orbits)]
    p, orbit_values = tables[0]
    confirm = _prime_count(n, levels, n * (n - 1) * bound * bound) > 1
    sizes = np.array([len(orbit) for orbit in orbits], dtype=object)
    weights = np.arange(-bound, bound + 1, dtype=np.int64)
    inner = d
    while inner and len(weights) ** inner * len(orbit_values[0]) > _BLOCK_LIMIT:
        inner -= 1
    # the last inner orbit first, each later one prepended as the most significant axis,
    # so that the long axis of the broadcast is innermost
    columns = np.zeros((len(orbit_values[0]), 1), dtype=np.int64)
    for values in orbit_values[d - inner :][::-1]:
        step = np.multiply.outer(values, weights) % p
        columns = (step[:, :, None] + columns[:, None, :]).reshape(len(columns), -1)
    columns = _reduce(columns, p)
    places = len(weights) ** np.arange(inner - 1, -1, -1)
    outer = itertools.product(weights.tolist(), repeat=d - inner)
    units = []
    for prefix in itertools.islice(outer, (len(weights) ** (d - inner) - 1) // 2, None):
        start = 0 if any(prefix) else (columns.shape[1] + 1) // 2
        offset = (np.array(prefix, dtype=np.int64) @ orbit_values[: d - inner] % p).tolist()
        rows = _level_filter(columns[:, start:], offset, groups, p) + start
        if not len(rows):
            continue
        vectors = np.empty((len(rows), d + 1), dtype=np.int64)
        vectors[:, : d - inner] = prefix
        vectors[:, d - inner : d] = rows[:, None] // places % len(weights) - bound
        vectors[:, d] = 0
        if confirm:
            block = vectors[:, :d]
            exact = block.astype(object)
            count = _prime_count(n, levels, max(n * (exact * exact) @ sizes - (exact @ sizes) ** 2))
            tables += [_orbit_sums_at_roots(n, levels, orbits, k) for k in range(len(tables), count)]
            vectors = vectors[_unit_mask(block, groups, tables[:count])]
        coeffs = vectors[:, weight_index]
        for plus, minus in zip(coeffs.tolist(), (-coeffs).tolist()):
            units.append(SElement._new(n, tuple(plus)))
            units.append(SElement._new(n, tuple(minus)))
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
    """Re-check the CoverageReport invariants; returns a list of violations.

    The norm-kernel unit test is the one check of each generator independent
    of the exact product with the closed-form inverse that
    fixed_unit_generators proves it by. Fixedness is tested once, by
    quotient._is_fixed; the unit test then runs once, with r when tau fixes
    the generator and with rho -> rho otherwise.
    The subgroup must be the closure of the generator residues, is_full must
    say whether that is all of (Z/nZ)*, and m the order of r.
    """
    n = report.n
    problems = []
    tau = TauData(n, report.r)
    if report.m != tau.m:
        problems.append(f"m = {report.m} is not the order {tau.m} of {report.r} mod {n}")
    for residue in report.subgroup:
        if gcd(residue, n) != 1:
            problems.append(f"residue {residue} is not a unit mod {n}")
    for unit, residue in report.generators:
        if eps_bar(unit) != residue:
            problems.append(f"generator residue mismatch for {unit!r}")
        fixed, is_a_unit = _fixed_and_unit(unit, tau)
        if not is_a_unit:
            problems.append(f"generator {unit!r} fails the unit test")
        if not fixed:
            problems.append(f"generator {unit!r} is not tau-fixed after lifting")
    residues = [residue for _, residue in report.generators if gcd(residue, n) == 1]
    if subgroup_closure(residues, n) != report.subgroup:
        problems.append("subgroup is not the closure of the generator residues")
    if report.is_full != (report.subgroup == _units_mod(n)):
        problems.append(f"is_full = {report.is_full} disagrees with the subgroup")
    return problems
