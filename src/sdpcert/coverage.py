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


def exhaustive_fixed_units(n, r, bound=2):
    """Every tau-fixed unit whose canonical coefficients all lie in [-bound, bound].

    Independent oracle for the generator strategy. The canonical lift of a
    fixed element is fixed, so the fixed elements are exactly the integer
    weight vectors on the d free <r>-orbits of Z/n (all but the orbit of n - 1,
    whose weight the canonical form makes 0): the coefficient of rho^i is the
    weight of the orbit of i. The (2*bound+1)^d weight vectors are split into
    an inner grid, evaluated once at w^1, ..., w^(n-1) modulo the first kernel
    prime p, and outer prefixes, each adding one constant offset. A mod-p norm
    filter, which never discards a true unit, keeps the rows with norm +-1, and
    each is confirmed by the exact unit test. With p < 2^26, an offset value
    lies below 2p and every int64 product below 2^54; a sum of d products
    below 2^52 cannot overflow while the guard holds (d <= 16 unless bound = 0).
    The grid holds at most _BLOCK_LIMIT values, whatever n; the final order is
    canonical.
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
    p, _, rows = _table(n)[0]
    orbit_values = np.array(
        [[sum(rows[j][e] for e in orbit) % p for j in range(1, n)] for orbit in orbits],
        dtype=np.int64,
    )
    weights = range(-bound, bound + 1)
    inner = d
    while inner and len(weights) ** inner * (n - 1) > _BLOCK_LIMIT:
        inner -= 1
    grid = np.indices((len(weights),) * inner, dtype=np.int64)
    grid = grid.reshape(inner, len(weights) ** inner).T - bound
    columns = np.ascontiguousarray((grid % p @ orbit_values[d - inner :] % p).T)
    units = []
    for prefix in itertools.product(weights, repeat=d - inner):
        offset = np.array(prefix, dtype=np.int64) % p @ orbit_values[: d - inner] % p
        norms = (columns[0] + offset[0]) % p
        for column, shift in zip(columns[1:], offset[1:].tolist()):
            norms = norms * (column + shift) % p
        for idx in np.flatnonzero((norms == 1) | (norms == p - 1)).tolist():
            vector = prefix + tuple(grid[idx].tolist()) + (0,)
            s = SElement(n, [vector[k] for k in weight_index])
            if is_unit(s):
                units.append(s)
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
