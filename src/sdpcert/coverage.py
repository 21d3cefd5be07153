"""Tau-fixed units of S, the residues they cover mod n, and a bounded exhaustive oracle."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

import numpy as np

from .finitefield import _is_prime
from .group_ring import TauData, partial_norm_product
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
    frontier = {x % n for x in residues} | {1}
    while frontier:
        new = set()
        for a in frontier:
            for b in list(known) + list(frontier):
                c = (a * b) % n
                if c not in known and c not in frontier and c not in new:
                    new.add(c)
        known |= frontier
        frontier = new
    return tuple(sorted(known))


def dihedral_generators(n):
    """Closed-form tau-fixed generators for r = n-1, n odd.

    Returns rho + rho^(-1) followed by the symmetric sums
    rho^(-k) + ... + rho^k for 3 <= 2k+1 < n. Each is fixed under rho -> rho^(-1);
    unit status is checked downstream, not assumed.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"dihedral generators require odd n >= 3, got {n}")
    return _symmetric_sums(n)


def _symmetric_sums(n):
    # Well-defined and tau-fixed for r = n-1 over any n >= 3; the odd-n case
    # is the dihedral family.
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


def fixed_unit_generators(n, r):
    """Deduplicated tau-fixed units built from <r>-orbit products of monomials and norms.

    Candidates: +-(the orbit product of rho^i), the orbit products of the
    partial norms 1 + rho + ... + rho^(j-1) with j coprime to n, and the
    symmetric-sum family when r = n-1; the non-units among them are dropped.
    Each orbit product is taken in closed form, equal to tau_symmetrize of
    its factor: rho^i gives rho^(i(1 + r + ... + r^(m-1))), and the partial
    norm gives the product of partial_norm(n, r^k, j) over k < m, formed in
    the group ring by partial_norm_product and reduced to S once. Products of
    these units add no residue: eps_bar is a ring homomorphism S -> Z/n, so
    the residues of products lie in the subgroup the units' own residues
    generate. Returned in canonical sorted order.
    """
    steps = [pow(r, k, n) for k in range(TauData(n, r).m)]
    shift = sum(steps) % n
    candidates = []
    for i in range(n):
        u = SElement.rho_power(n, i * shift)
        candidates.append(u)
        candidates.append(-u)
    for j in range(1, n):
        if gcd(j, n) == 1:
            candidates.append(reduce(partial_norm_product(n, steps, j)))
    if n >= 3 and r % n == n - 1:
        candidates.extend(_symmetric_sums(n))
    units = [u for u in dict.fromkeys(candidates) if is_unit(u)]
    return sorted(units, key=lambda s: s.coeffs)


def coverage_subgroup(n, r):
    """Subgroup of (Z/nZ)* generated by eps_bar over the fixed units."""
    tau = TauData(n, r)
    units = fixed_unit_generators(n, r)
    witnesses = {}
    for u in units:
        res = eps_bar(u)
        if res not in witnesses:
            witnesses[res] = u
    subgroup = subgroup_closure(witnesses.keys(), n)
    units_mod_n = tuple(x for x in range(1, n) if gcd(x, n) == 1) or (1,)
    generators = tuple((witnesses[res], res) for res in sorted(witnesses))
    return CoverageReport(
        n=n,
        r=r,
        m=tau.m,
        generators=generators,
        subgroup=subgroup,
        is_full=subgroup == units_mod_n,
        strategy="generator-based",
    )


def unit_witnesses(n, r):
    """One tau-fixed unit per residue of the covered subgroup.

    Extends the direct witnesses of coverage_subgroup by multiplying them
    until every residue in the closure has a concrete unit.
    """
    report = coverage_subgroup(n, r)
    witnesses = {1 % n: SElement.one(n)}
    for unit, res in report.generators:
        witnesses.setdefault(res, unit)
    changed = True
    while changed:
        changed = False
        for res in sorted(witnesses):
            for gen_unit, gen_res in report.generators:
                new_res = (res * gen_res) % n
                if new_res not in witnesses:
                    witnesses[new_res] = witnesses[res] * gen_unit
                    changed = True
    return witnesses


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
    for candidate in subgroup:
        order = 1
        x = candidate
        while x != 1:
            x = (x * candidate) % p
            order += 1
        if order == m:
            return m, candidate
    raise RuntimeError("no generator found in a subgroup of (Z/pZ)*")  # unreachable


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
