"""Tau-fixed units of S, the residues they cover mod n, and a bounded exhaustive oracle."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

import numpy as np

from .finitefield import _is_prime
from .group_ring import GroupRingElement, TauData, partial_norm_product
from .quotient import SElement, _table, eps_bar, is_unit, lift, reduce, tau_apply_s

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


def _orbit_sums_at_roots(n, r, orbits):
    """The kernel prime p, the root columns grouped by orbit size, and the orbit sums at the roots.

    One root w^j is taken per nonzero <r>-orbit J of Z/n, one column each;
    groups pairs each size |J| with the columns of its orbits. Entry (k, i) of
    the array is the sum of w^(je) over e in orbits[k], mod p, at root i.
    """
    roots = [orbit for orbit in TauData(n, r).orbits() if orbit[0]]
    groups = [(size, [i for i, root in enumerate(roots) if len(root) == size])
              for size in sorted({len(root) for root in roots})]
    p, _, rows = _table(n)[0]
    sums = np.array(
        [[sum(rows[root[0]][e] for e in orbit) % p for root in roots] for orbit in orbits],
        dtype=np.int64,
    )
    return p, groups, sums


def _block_norms(columns, offset, groups, p):
    """N(s) mod p for each vector of a block, from its values at one root per orbit.

    columns[i] holds the block's values at root i (below p) and offset[i] the
    prefix's (below p). The values at the roots of one group are multiplied
    together, and the product is raised to the group's orbit size.
    """
    norms = None
    for size, group in groups:
        product = _reduce(columns[group[0]] + offset[group[0]], p)
        for i in group[1:]:
            product *= columns[i] + offset[i]
            _reduce(product, p)
        product = _pow_mod(product, size, p)
        norms = product if norms is None else _reduce(norms * product, p)
    return norms


def exhaustive_fixed_units(n, r, bound=2):
    """Every tau-fixed unit whose canonical coefficients all lie in [-bound, bound].

    Independent oracle for the generator strategy. The canonical lift of a
    fixed element is fixed, so the fixed elements are exactly the integer
    weight vectors on the d free <r>-orbits of Z/n (all but the orbit of n - 1,
    whose weight the canonical form makes 0): the coefficient of rho^i is the
    weight of the orbit of i. A mod-p norm filter, p the first kernel prime,
    which never discards a true unit, keeps the vectors with norm +-1, and each
    is confirmed by the exact unit test. Two exact symmetries halve and shrink
    the filter's work (Washington, Introduction to Cyclotomic Fields, ch. 8):

    - Negation. s is a unit if and only if -s is, so only the vectors whose
      first nonzero weight is positive are filtered, and each confirmed s
      brings -s with it. The zero vector is never a unit.
    - One root per orbit. Evaluation at w^j is a ring map S -> F_p and s is
      tau-fixed, so s(w^(jr)) = s(w^j): the norm is the product, over the
      nonzero <r>-orbits J of Z/n, of s(w^j) ** |J| at one j in J.

    The (2*bound+1)^d vectors are split into an inner grid, evaluated once at
    those roots, and outer prefixes, each adding one constant offset per root.
    In lexicographic order the zero vector sits in the middle of the box, so
    only the prefixes after the middle are visited, and only the zero prefix
    masks the inner grid to its rows after the middle. The values at roots with
    orbits of one size are multiplied together and raised to that size once.
    With p < 2^26 every reduced value lies below p and a factor (a grid value
    plus an offset) below 2p, so each int64 product stays below 2^53; a sum of
    d products below 2^52 cannot overflow while the guard holds (d <= 16
    unless bound = 0). The grid holds at most _BLOCK_LIMIT values, whatever n;
    the final order is canonical.
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
    p, groups, orbit_values = _orbit_sums_at_roots(n, r, orbits)
    weights = range(-bound, bound + 1)
    inner = d
    while inner and len(weights) ** inner * orbit_values.shape[1] > _BLOCK_LIMIT:
        inner -= 1
    grid = np.indices((len(weights),) * inner, dtype=np.int64)
    grid = grid.reshape(inner, len(weights) ** inner).T - bound
    columns = np.ascontiguousarray((grid % p @ orbit_values[d - inner :] % p).T)
    outer = itertools.product(weights, repeat=d - inner)
    units = []
    for prefix in itertools.islice(outer, (len(weights) ** (d - inner) - 1) // 2, None):
        start = 0 if any(prefix) else (len(grid) + 1) // 2
        offset = (np.array(prefix, dtype=np.int64) % p @ orbit_values[: d - inner] % p).tolist()
        norms = _block_norms(columns[:, start:], offset, groups, p)
        for idx in np.flatnonzero((norms == 1) | (norms == p - 1)).tolist():
            vector = prefix + tuple(grid[start + idx].tolist()) + (0,)
            s = SElement(n, [vector[k] for k in weight_index])
            if is_unit(s):
                units.extend((s, -s))
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
