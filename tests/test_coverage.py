import dataclasses
import functools
import itertools
import random
import time
import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpcert import coverage, quotient
from sdpcert.coverage import (
    CoverageReport,
    SearchSpaceTooLargeError,
    coset_steps,
    coverage_subgroup,
    cyclotomic_unit,
    cyclotomic_unit_inverse,
    exhaustive_fixed_units,
    fixed_unit_generators,
    reduce_to_cyclic,
    subgroup_closure,
    tau_symmetrize,
    unit_witness,
    verify_report,
)
from sdpcert.group_ring import GroupRingElement, TauData, partial_norm, partial_norm_product
from sdpcert.linalg import resultant
from sdpcert.quotient import (
    SElement,
    _level_residues,
    _levels,
    _prime,
    _prime_count,
    eps_bar,
    invert,
    is_unit,
    lift,
    norm,
    reduce,
    tau_apply_s,
)
from sdpcert.suites import random_fixed_s


def valid_r(n):
    return [r for r in range(1, n) if gcd(r, n) == 1]


def test_dihedral_generators_n3():
    # the dihedral generator rho + rho^(-1) is rho + rho^2 = -1 for n = 3
    gen = SElement.from_exponents(3, (1, 2))
    assert gen.coeffs == (-1, 0)
    assert eps_bar(gen) == 2
    assert gen in fixed_unit_generators(3, 2)


def test_dihedral_generators_n5():
    gens = [SElement.from_exponents(5, (1, 4)), cyclotomic_unit(5, [1], 3)]
    assert gens[1] == SElement.from_exponents(5, (4, 0, 1))
    assert [eps_bar(g) for g in gens] == [2, 3]


def test_dihedral_generators_are_tau_fixed():
    # rho + rho^(-1) and the symmetric sums rho^(-k) + ... + rho^k, 3 <= 2k+1 < n
    for n in (3, 5, 7, 9, 11, 13, 15):
        tau = TauData(n, n - 1)
        gens = [SElement.from_exponents(n, (1, n - 1))]
        gens += [SElement.from_exponents(n, [e % n for e in range(-k, k + 1)]) for k in range(1, (n - 1) // 2)]
        for g in gens:
            assert tau_apply_s(g, tau) == g


def test_symmetric_sums_are_fixed_cyclotomic_units():
    # rho^(-k) + ... + rho^k is xi_(2k+1) over the single step coset_steps(n, n - 1) == [1]
    for n in (3, 5, 7, 9, 11, 13, 15):
        tau = TauData(n, n - 1)
        assert coset_steps(n, n - 1) == [1]
        for a in range(1, n, 2):
            if gcd(a, n) == 1:
                k = (a - 1) // 2
                unit = cyclotomic_unit(n, [1], a)
                assert unit == SElement.from_exponents(n, [e % n for e in range(-k, k + 1)]), (n, a)
                assert tau_apply_s(unit, tau) == unit


def test_tau_symmetrize_fixed_input_gives_power():
    tau = TauData(5, 2)
    s = SElement.constant(5, -1)
    assert tau_symmetrize(s, tau) == s**tau.m


def test_tau_symmetrize_rho_n5_r2():
    # exponents 1 + 2 + 4 + 3 = 10 = 0 mod 5
    tau = TauData(5, 2)
    assert tau_symmetrize(SElement.rho_power(5, 1), tau) == SElement.one(5)


def test_tau_symmetrize_always_fixed():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(3, 12)
        tau = TauData(n, rng.choice(valid_r(n)))
        s = SElement(n, [rng.randint(-3, 3) for _ in range(n - 1)])
        sym = tau_symmetrize(s, tau)
        assert tau_apply_s(sym, tau) == sym


def orbit_steps(n, r):
    return [pow(r, k, n) for k in range(TauData(n, r).m)]


@functools.lru_cache(maxsize=None)
def symmetrized_partial_norm(n, r, j):
    # the reference route, m - 1 products in S; cached because two tests compare against it
    return tau_symmetrize(reduce(partial_norm(n, 1, j)), TauData(n, r))


@pytest.mark.parametrize("n", range(1, 13))
def test_partial_norm_product_equals_the_product_of_partial_norms(n):
    # exact in the group ring, for every unit step alone and for a seeded
    # multiset of steps, at every length up to past two whole cycles
    rng = random.Random(n)
    units = [s for s in range(n) if gcd(s, n) == 1]
    step_lists = [[s] for s in units] + [[rng.choice(units) for _ in range(3)]]
    for steps in step_lists:
        for j in range(2 * n + 2):
            expected = GroupRingElement.one(n)
            for s in steps:
                expected = expected * partial_norm(n, s, j)
            assert partial_norm_product(n, steps, j) == expected, (steps, j)


def test_partial_norm_product_validation():
    assert partial_norm_product(5, [], 3) == GroupRingElement.one(5)
    with pytest.raises(ValueError):
        partial_norm_product(6, [1, 2], 1)
    with pytest.raises(ValueError):
        partial_norm_product(5, [1], -1)


@pytest.mark.parametrize("n", range(2, 26))
def test_closed_form_orbit_products_match_tau_symmetrize(n):
    # closed-form <r>-orbit products: rho^i, and partial_norm_product behind cyclotomic_unit
    for r in valid_r(n):
        tau = TauData(n, r)
        steps = orbit_steps(n, r)
        for i in range(n):
            closed = SElement.rho_power(n, i * sum(steps))
            assert closed == tau_symmetrize(SElement.rho_power(n, i), tau), (r, i)
        for j in valid_r(n):
            closed = reduce(partial_norm_product(n, steps, j))
            assert closed == symmetrized_partial_norm(n, r, j), (r, j)


@pytest.mark.parametrize("n, r", [(61, 2), (97, 5)])
def test_closed_form_partial_norm_orbit_product_at_large_m(n, r):
    tau = TauData(n, r)
    assert tau.m == n - 1
    steps = orbit_steps(n, r)
    for j in (2, 7, n - 1):
        closed = reduce(partial_norm_product(n, steps, j))
        assert closed == tau_symmetrize(reduce(partial_norm(n, 1, j)), tau), j


def reference_fixed_unit_generators(n, r):
    # the former candidate family (+-rho^i, partial norms and, for r = n-1, the
    # symmetric sums), every <r>-orbit product formed by tau_symmetrize
    tau = TauData(n, r)
    candidates = []
    for i in range(n):
        u = tau_symmetrize(SElement.rho_power(n, i), tau)
        candidates.append(u)
        candidates.append(-u)
    for j in valid_r(n):
        candidates.append(symmetrized_partial_norm(n, r, j))
    if n >= 3 and r == n - 1:
        candidates.append(SElement.from_exponents(n, (1, n - 1)))
        k = 1
        while 2 * k + 1 < n:
            candidates.append(SElement.from_exponents(n, [e % n for e in range(-k, k + 1)]))
            k += 1
    units = [u for u in dict.fromkeys(candidates) if is_unit(u)]
    return sorted(units, key=lambda s: s.coeffs)


@pytest.mark.parametrize("n", range(2, 26))
def test_fixed_unit_generators_match_the_tau_symmetrize_loop(n):
    # the cyclotomic units cover every residue the former candidate family covered
    for r in valid_r(n):
        former = {eps_bar(u) for u in reference_fixed_unit_generators(n, r)}
        assert set(subgroup_closure(former, n)) <= set(coverage_subgroup(n, r).subgroup), r


def generator_residues_by_reclosing(n, r):
    """The residues fixed_unit_generators keeps, the subgroup re-closed after each; the reference."""
    e = len(coset_steps(n, r))
    residues = [n - 1]
    for a in range(3, n, 2):
        power = pow(a, e, n)
        if gcd(a, n) == 1 and power not in subgroup_closure(residues, n):
            residues.append(power)
    return residues


def test_fixed_unit_generators_grow_the_covered_subgroup_from_each_new_residue():
    pairs = [(n, r) for n in range(2, 80) for r in valid_r(n)]
    assert len(pairs) > 1900
    for n, r in pairs:
        residues = [eps_bar(u) for u in fixed_unit_generators(n, r)]
        assert residues == generator_residues_by_reclosing(n, r), (n, r)


def test_fixed_unit_generators_contains_minus_one():
    assert SElement.constant(3, -1) in fixed_unit_generators(3, 2)


def test_fixed_unit_generators_contains_dihedral_units_n5():
    # -1 (eps_bar 4) and xi_3 = rho^4 + 1 + rho (eps_bar 3) generate (Z/5Z)*; the
    # dihedral unit rho + rho^4 (eps_bar 2 = 3 * 4) is not needed
    pool = fixed_unit_generators(5, 4)
    assert pool == [SElement.constant(5, -1), SElement.from_exponents(5, (4, 0, 1))]
    assert pool[1] == cyclotomic_unit(5, [1], 3)


def test_fixed_unit_generators_all_unit_and_fixed():
    for n, r in ((3, 1), (5, 2), (7, 6), (8, 7), (9, 4)):
        tau = TauData(n, r)
        pool = fixed_unit_generators(n, r)
        assert pool
        for u in pool:
            assert is_unit(u)
            assert lift(u).is_tau_fixed(tau)


def test_coverage_subgroup_dihedral_small():
    assert coverage_subgroup(3, 2).subgroup == (1, 2)
    assert coverage_subgroup(3, 2).is_full
    report = coverage_subgroup(5, 4)
    assert report.subgroup == (1, 2, 3, 4)
    assert report.is_full


def test_coverage_subgroup_trivial_action_contains_partial_norm_residues():
    report = coverage_subgroup(5, 1)
    for j in valid_r(5):
        assert j in report.subgroup


def test_coverage_report_invariants():
    for n, r in ((3, 2), (5, 4), (7, 2), (7, 6), (9, 2)):
        report = coverage_subgroup(n, r)
        assert isinstance(report, CoverageReport)
        assert verify_report(report) == []
        assert report.m == TauData(n, r).m
        assert report.strategy == "generator-based"


def test_verify_report_rejects_forged_fields():
    # the only generator residue of (7, 2) is 6, so its subgroup is (1, 6)
    report = coverage_subgroup(7, 2)
    assert [res for _, res in report.generators] == [6] and verify_report(report) == []
    forged = [
        dataclasses.replace(report, subgroup=(1, 2, 3, 4, 5, 6)),
        dataclasses.replace(report, is_full=True),
        dataclasses.replace(report, m=5),
        dataclasses.replace(report, generators=report.generators + ((SElement.one(7), 1),),
                            subgroup=(1, 2, 4, 6)),
    ]
    for bad in forged:
        assert verify_report(bad), bad
    # rho is a unit that <2> does not fix: the report names it, and the unit test,
    # given no tau for it, still passes
    unfixed = dataclasses.replace(report, generators=report.generators + ((SElement.rho_power(7, 1), 1),))
    assert verify_report(unfixed) == [f"generator {SElement.rho_power(7, 1)!r} is not tau-fixed after lifting"]
    full = coverage_subgroup(7, 6)
    assert verify_report(dataclasses.replace(full, is_full=False))


def test_exhaustive_n3_r2_bound1_is_exactly_plus_minus_one():
    units = exhaustive_fixed_units(3, 2, 1)
    assert [u.coeffs for u in units] == [(-1, 0), (1, 0)]


def test_exhaustive_contains_dihedral_unit_n5():
    units = exhaustive_fixed_units(5, 4, 1)
    assert SElement.from_exponents(5, (1, 4)) in units


def test_exhaustive_outputs_are_units_and_fixed():
    for n, r in ((5, 2), (7, 6), (8, 3)):
        tau = TauData(n, r)
        for u in exhaustive_fixed_units(n, r, 2):
            assert is_unit(u)
            assert tau_apply_s(u, tau) == u


def is_unit_by_resultant(s):
    return abs(resultant(list(s.coeffs), [1] * s.n)) == 1


@pytest.mark.parametrize("n", range(2, 9))
def test_exhaustive_matches_the_coordinate_box_at_bound_one(n):
    # the whole box [-1, 1]^(n-1), with fixedness decided by tau_apply_s and unit
    # status by the Bareiss resultant: no orbit weights and no mod-p filter
    for r in valid_r(n):
        tau = TauData(n, r)
        expected = []
        for coeffs in itertools.product((-1, 0, 1), repeat=n - 1):
            s = SElement(n, coeffs)
            if tau_apply_s(s, tau) == s and is_unit_by_resultant(s):
                expected.append(coeffs)
        assert [u.coeffs for u in exhaustive_fixed_units(n, r, 1)] == expected, (n, r)


@pytest.mark.parametrize("n, r", [(101, 4), (61, 3), (12, 1)])
def test_exhaustive_at_large_n_within_block_memory(n, r):
    # (101, 4): r has order 50, so there are d = 2 free orbits. (61, 3): d = 6, and
    # the 5^6 weight vectors at 60 values each would take 7.5 MB per array unsplit.
    # (12, 1): d = 11, 5^11 weight vectors in 3 125 blocks of 5^6
    tau = TauData(n, r)
    tracemalloc.start()
    try:
        units = exhaustive_fixed_units(n, r, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert SElement.one(n) in units and -SElement.one(n) in units
    for u in units:
        assert tau_apply_s(u, tau) == u, u
        assert is_unit_by_resultant(u), u


def test_exhaustive_finds_residue_five_at_13_4():
    # the oracle's own unit of residue 5; the report reaches its class through -1 and 5^3 = 8
    tau = TauData(13, 4)
    witnesses = [u for u in exhaustive_fixed_units(13, 4, 2) if sum(u.coeffs) % 13 == 5]
    assert SElement(13, (-2, 0, -1, 0, 0, -1, -1, -1, -1, 0, 0, -1)) in witnesses
    for u in witnesses:
        assert tau_apply_s(u, tau) == u, u
        assert is_unit_by_resultant(u), u
    assert set(coverage_subgroup(13, 4).subgroup) <= {1, 5, 8, 12}


def test_exhaustive_guard():
    with pytest.raises(SearchSpaceTooLargeError):
        exhaustive_fixed_units(40, 3, 2)


def test_exhaustive_takes_a_nonnegative_integer_bound():
    assert len(exhaustive_fixed_units(7, 6, 1)) == 22
    assert len(exhaustive_fixed_units(7, 6, 2)) == 48
    assert exhaustive_fixed_units(7, 6, np.int64(1)) == exhaustive_fixed_units(7, 6, 1)
    assert exhaustive_fixed_units(7, 6, 0) == []
    for bound in (1.5, 2.0, Fraction(2), "2"):
        with pytest.raises(TypeError):
            exhaustive_fixed_units(7, 6, bound)
    with pytest.raises(ValueError, match="nonnegative"):
        exhaustive_fixed_units(7, 6, -1)


def reference_exhaustive_fixed_units(n, r, bound=2):
    """The whole box of orbit weights, filtered by the norm at every root w^1, ..., w^(n-1)."""
    orbits = [orbit for orbit in TauData(n, r).orbits() if n - 1 not in orbit]
    d = len(orbits)
    weight_index = [d] * (n - 1)
    for k, orbit in enumerate(orbits):
        for e in orbit:
            weight_index[e] = k
    p, powers = _prime(n, 0)
    orbit_values = np.array(
        [[sum(powers[j * e % n] for e in orbit) % p for j in range(1, n)] for orbit in orbits],
        dtype=np.int64,
    )
    weights = range(-bound, bound + 1)
    inner = d
    while inner and len(weights) ** inner * (n - 1) > coverage._BLOCK_LIMIT:
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


@pytest.mark.parametrize("n", range(2, 12))
def test_exhaustive_matches_the_whole_box_enumeration(n):
    for r in valid_r(n):
        for bound in (0, 1, 2):
            expected = reference_exhaustive_fixed_units(n, r, bound)
            assert exhaustive_fixed_units(n, r, bound) == expected, (n, r, bound)


@pytest.mark.parametrize("n, r", [(12, 5), (12, 7), (12, 11), (26, 3), (61, 3)])
def test_exhaustive_matches_the_whole_box_enumeration_beyond_eleven(n, r):
    # (12, *): several levels, with two table primes deciding the box. (26, 3): d = 9,
    # so the box is split into an inner grid and outer prefixes
    assert exhaustive_fixed_units(n, r, 2) == reference_exhaustive_fixed_units(n, r, 2)


@pytest.mark.parametrize("n, r", [(3, 2), (7, 1), (10, 1), (13, 4), (26, 3), (61, 3)])
def test_exhaustive_is_closed_under_negation(n, r):
    units = exhaustive_fixed_units(n, r, 2)
    assert units
    assert sorted((-u for u in units), key=lambda s: s.coeffs) == units


def test_orbit_sums_are_constant_on_the_orbits_of_j():
    # modulo the kernel prime, sum over e in O of w^(je) takes one value on each <r>-orbit of j
    for n in range(2, 27):
        p, powers = _prime(n, 0)
        for r in valid_r(n):
            orbits = TauData(n, r).orbits()
            for orbit in orbits:
                for roots in orbits:
                    values = {sum(powers[j * e % n] for e in orbit) % p for j in roots}
                    assert len(values) == 1, (n, r, orbit, roots)


def column_groups(levels):
    """The columns of each level in the arrays of _orbit_sums_at_roots, in the oracle's order."""
    groups, start = [], 0
    for _, _, roots in levels:
        groups.append(range(start, start + len(roots)))
        start += len(roots)
    return groups


def multiplicative_order(r, d):
    return next(k for k in itertools.count(1) if pow(r, k, d) == 1)


def orbits_by_powers(n, r):
    """The <r>-orbits of Z/n as [j * r^k mod n], k < ord_n(r), repeats dropped, by least element."""
    powers = [pow(r, k, n) for k in range(multiplicative_order(r, n))]
    orbits = {}
    for j in range(n):
        orbit = list(dict.fromkeys(j * power % n for power in powers))
        orbits.setdefault(min(orbit), orbit)
    return [orbits[j] for j in sorted(orbits)]


def test_levels_are_the_cyclotomic_factors_of_the_norm():
    # P_d ** ord_d(r) is the resultant of Phi_d with s, and the levels together give
    # N(s) mod p: a wrong exponent would still pass every unit, since each P_d of a
    # unit is +-1, so the value itself is checked on seeded fixed vectors. The oracle's
    # orbit sums and the unit test's residues give the same P_d. The orbits are built
    # from pow, not from the walk that _levels and TauData.orbits share
    rng = random.Random(11)
    x = sympy.Symbol("x")
    for n in range(2, 27):
        for r in valid_r(n):
            all_orbits = orbits_by_powers(n, r)
            orbits = [orbit for orbit in all_orbits if n - 1 not in orbit]
            levels = _levels(n, r)
            groups = column_groups(levels)
            p, sums = coverage._orbit_sums_at_roots(n, levels, orbits)
            roots = [j for _, _, level_roots in levels for j in level_roots]
            assert sorted(roots) == [orbit[0] for orbit in all_orbits if orbit[0]]
            assert sorted(d for d, _, _ in levels) == [d for d in range(2, n + 1) if n % d == 0]
            assert [len(level_roots) for _, _, level_roots in levels] == sorted(
                len(level_roots) for _, _, level_roots in levels)
            weights = np.array([[rng.randint(-3, 3) for _ in orbits] for _ in range(4)])
            columns = weights % p @ sums % p
            for row, values in zip(weights.tolist(), columns.tolist()):
                coeffs = [0] * (n - 1)
                for weight, orbit in zip(row, orbits):
                    for e in orbit:
                        coeffs[e] = weight
                kernel_prime, residues = next(_level_residues(SElement(n, coeffs), levels))
                assert kernel_prime == p
                total = 1
                for (d, size, level_roots), group, residue in zip(levels, groups, residues):
                    assert size == multiplicative_order(r, d), (n, r, d)
                    assert all(n // gcd(j, n) == d for j in level_roots), (n, r, d)
                    assert tuple(roots[i] for i in group) == level_roots, (n, r, d)
                    level = coverage._level_product(np.array(values)[:, None], [0] * len(values), group, p)
                    assert int(level[0]) == residue, (n, r, d, row)
                    level = pow(int(level[0]), size, p)
                    cyclotomic = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()[::-1]
                    assert level == resultant([int(c) for c in cyclotomic], coeffs) % p, (n, r, d, row)
                    total = total * level % p
                assert total == norm(SElement(n, coeffs)) % p, (n, r, row)


def fixed_weights(n, r, elements):
    """The orbit weights of tau-fixed elements, one row each."""
    orbits = [orbit for orbit in TauData(n, r).orbits() if n - 1 not in orbit]
    for s in elements:
        assert tau_apply_s(s, TauData(n, r)) == s, s
    return orbits, np.array([[s.coeffs[orbit[0]] for orbit in orbits] for s in elements])


def box_spread(n, bound):
    return n * (n - 1) * bound * bound


def spread(elements):
    """The largest n*Q - F^2 over the elements, Q the sum of squared coefficients and F their sum."""
    return max(s.n * sum(c * c for c in s.coeffs) - sum(s.coeffs) ** 2 for s in elements)


def unit_mask(n, r, elements, primes=None):
    orbits, weights = fixed_weights(n, r, elements)
    levels = _levels(n, r)
    primes = primes or _prime_count(n, levels, spread(elements))
    tables = [coverage._orbit_sums_at_roots(n, levels, orbits, k) for k in range(primes)]
    return coverage._unit_mask(weights, column_groups(levels), tables).tolist()


def level_threshold(n, r, spread):
    """The largest 4 * (spread / phi(d))^(c_d) over the divisors d > 1 of n, rounded down,
    with phi(d) from sympy and c_d = phi(d) / ord_d(r)."""
    levels = []
    for d in range(2, n + 1):
        if n % d == 0:
            phi = int(sympy.totient(d))
            levels.append((phi, phi // multiplicative_order(r, d)))
    return max(4 * spread**c // phi**c for phi, c in levels)


def test_prime_count_decides_the_box():
    for n in range(2, 11):
        for r in valid_r(n):
            for bound in (0, 1, 2):
                assert _prime_count(n, _levels(n, r), box_spread(n, bound)) == 1, (n, r, bound)
    # for prime n and r = 1 the one level is the whole norm, with exponent n - 1
    for n in range(11, 41):
        if sympy.isprime(n):
            assert _prime_count(n, _levels(n, 1), box_spread(n, 2)) >= 2, n
    for n in range(2, 41):
        for r, bound in itertools.product((1, n - 1), (1, 2, 7)):
            count = _prime_count(n, _levels(n, r), box_spread(n, bound))
            modulus = functools.reduce(lambda a, k: a * _prime(n, k)[0], range(count), 1)
            threshold = level_threshold(n, r, box_spread(n, bound))
            assert modulus * modulus > threshold, (n, r, bound)
            assert count == 1 or threshold >= (modulus // _prime(n, count - 1)[0]) ** 2, (n, r, bound)


@pytest.mark.parametrize("n, r", [(3, 2), (5, 1), (8, 3), (11, 10), (12, 1), (13, 4)])
def test_exact_confirmation_rejects_kernel_false_positives(n, r):
    # p0 + 1 and p0 - 1 have norm (p0 +- 1)^(n-1) = +-1 modulo the kernel prime p0
    # but are not units; the primes their bound calls for reject them
    p0 = _prime(n, 0)[0]
    constants = [SElement.constant(n, c) for c in (p0 + 1, p0 - 1)]
    assert unit_mask(n, r, constants, 1) == [True, True]
    assert _prime_count(n, _levels(n, r), spread(constants)) >= 2
    assert unit_mask(n, r, constants) == [False, False]


@pytest.mark.parametrize("n, r", [(4, 3), (10, 1), (12, 5), (5, 2), (7, 3), (9, 2)])
def test_exact_confirmation_needs_one_sign_at_every_prime(n, r):
    # a constant c = 1 mod p0 and c = -1 mod p1 has P_d = c^(c_d): +-1 at each prime,
    # but not one sign at both where c_d is odd. For odd n the norm c^(n-1) is +1 at
    # both, so only a sign per level rejects c
    assert any(len(roots) % 2 for _, _, roots in _levels(n, r))
    p0, p1 = _prime(n, 0)[0], _prime(n, 1)[0]
    mixed = 1 + p0 * ((-2 * pow(p0, -1, p1)) % p1)
    assert mixed % p0 == 1 and mixed % p1 == p1 - 1
    constants = [SElement.constant(n, c) for c in (mixed, -mixed, 1, -1, 2)]
    assert unit_mask(n, r, constants, 2) == [False, False, True, True, False]


def small_primes(n):
    """A stand-in for quotient._prime: the primes 1 (mod n) taken upward from n + 1."""
    candidates = (p for p in itertools.count(n + 1, n) if sympy.isprime(p))
    entries = []

    def prime(m, k):
        assert m == n
        while len(entries) <= k:
            p = next(candidates)
            w = quotient._root_of_exact_order(n, p)
            entries.append((p, [pow(w, i, p) for i in range(n)]))
        return entries[k]

    return prime


@pytest.mark.parametrize("n, r", [(5, 1), (7, 1), (8, 1), (9, 2), (10, 3)])
def test_exhaustive_confirms_the_survivors_of_a_small_kernel_prime(n, r, monkeypatch):
    # with the primes 1 (mod n) taken upward from n + 1, the kernel prime passes many
    # non-units, and the box calls for several primes to reject them: the survivors
    # go through the confirmation
    expected = reference_exhaustive_fixed_units(n, r, 2)
    prime = small_primes(n)
    monkeypatch.setattr(quotient, "_prime", prime)
    monkeypatch.setattr(coverage, "_prime", prime)
    count = {(5, 1): 3, (7, 1): 3, (8, 1): 3, (9, 2): 2, (10, 3): 2}[n, r]
    assert _prime_count(n, _levels(n, r), box_spread(n, 2)) == count
    masks = []
    real_mask = coverage._unit_mask
    monkeypatch.setattr(coverage, "_unit_mask",
                        lambda *args: masks.append(real_mask(*args)) or masks[-1])
    assert exhaustive_fixed_units(n, r, 2) == expected
    assert masks, (n, r)


def test_exhaustive_builds_only_the_prime_tables_its_survivors_need(monkeypatch):
    # at (103, 8) the box [-2, 2]^102 calls for two primes, but its only units, +-1,
    # need one; at (97, 8) its 38 units need one. At (101, 4) one prime decides the box
    built = []
    real = coverage._orbit_sums_at_roots
    monkeypatch.setattr(coverage, "_orbit_sums_at_roots",
                        lambda n, levels, orbits, k=0: built.append(k) or real(n, levels, orbits, k))
    for n, r, count, units in ((101, 4, 1, 2), (103, 8, 2, 2), (97, 8, 2, 38)):
        built.clear()
        found = exhaustive_fixed_units(n, r, 2)
        assert len(found) == units and {SElement.constant(n, -1), SElement.one(n)} <= set(found)
        assert built == [0], (n, r)
        assert _prime_count(n, _levels(n, r), box_spread(n, 2)) == count, (n, r)


@pytest.mark.parametrize("n", [5, 11, 12, 13, 21, 26])
def test_exact_confirmation_accepts_the_cyclotomic_units(n):
    for r in valid_r(n):
        units = fixed_unit_generators(n, r)
        units += [-u for u in units]
        assert unit_mask(n, r, units) == [True] * len(units), (n, r)
        non_units = [u + 1 for u in units if not is_unit_by_resultant(u + 1)]
        non_units.append(SElement.constant(n, 2))
        assert unit_mask(n, r, non_units) == [False] * len(non_units), (n, r)


def test_fixed_elements_take_one_value_at_w_j_and_w_jr():
    rng = random.Random(9)
    for n in range(2, 27):
        p, powers = _prime(n, 0)
        for r in valid_r(n):
            s = random_fixed_s(rng, n, TauData(n, r))
            # at w^1, ..., w^(n-1)
            values = [sum(c * powers[i * j % n] for i, c in enumerate(s.coeffs)) % p
                      for j in range(1, n)]
            for j in range(1, n):
                assert values[j - 1] == values[j * r % n - 1], (n, r, s, j)


@pytest.mark.parametrize("n", range(2, 10))
def test_oracle_agreement_up_to_nine(n):
    # mutual containment: the generator pool and the bounded oracle generate
    # the same subgroup of (Z/nZ)* for every valid r
    for r in valid_r(n):
        report = coverage_subgroup(n, r)
        oracle = exhaustive_fixed_units(n, r, 2)
        oracle_subgroup = subgroup_closure([eps_bar(u) for u in oracle], n)
        assert set(report.subgroup) <= set(oracle_subgroup), (n, r)
        assert set(oracle_subgroup) <= set(report.subgroup), (n, r)


def test_dihedral_coverage_full_up_to_fifteen():
    for n in (3, 5, 7, 9, 11, 13, 15):
        assert coverage_subgroup(n, n - 1).is_full


def test_unit_witnesses_cover_whole_subgroup():
    # a witness exists exactly for the reported residues
    for n, r in ((5, 4), (7, 6), (7, 2), (9, 8), (13, 4), (17, 2), (2, 1)):
        tau = TauData(n, r)
        covered = coverage_subgroup(n, r).subgroup
        for residue in range(-n, 2 * n):
            pair = unit_witness(n, r, residue)
            if residue % n not in covered:
                assert pair is None, (n, r, residue)
                continue
            unit, inverse = pair
            assert unit * inverse == SElement.one(n)
            assert inverse == invert(unit)
            assert eps_bar(unit) == residue % n
            assert is_unit(unit)
            assert lift(unit).is_tau_fixed(tau)


def test_reduce_to_cyclic_examples():
    assert reduce_to_cyclic(7, [6]) == (2, 6)
    assert reduce_to_cyclic(5, [1]) == (1, 1)
    assert reduce_to_cyclic(7, [2, 4]) == (3, 2)


def test_reduce_to_cyclic_validation():
    with pytest.raises(ValueError):
        reduce_to_cyclic(6, [5])
    with pytest.raises(ValueError):
        reduce_to_cyclic(7, [7])


def test_reduce_to_cyclic_properties():
    rng = random.Random(1)
    for _ in range(40):
        p = rng.choice([3, 5, 7, 11, 13, 17])
        images = [rng.randint(1, p - 1) for _ in range(rng.randint(1, 4))]
        m, r = reduce_to_cyclic(p, images)
        order = 1
        x = r
        while x != 1:
            x = (x * r) % p
            order += 1
        assert order == m
        generated = subgroup_closure([r], p)
        assert len(generated) == m
        assert all(img % p in generated for img in images)


def test_subgroup_closure_rejects_non_units():
    with pytest.raises(ValueError):
        subgroup_closure([2], 4)


def test_subgroup_closure_takes_a_modulus_of_at_least_two():
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2"):
            subgroup_closure([1], n)
    for n in (5.0, Fraction(5), "5"):
        with pytest.raises(TypeError):
            subgroup_closure([2], n)
    assert subgroup_closure([1], 2) == subgroup_closure([], 2) == (1,)
    assert subgroup_closure([2], np.int64(5)) == (1, 2, 3, 4)
    # residues are read once, so an iterator gives the closure too
    assert subgroup_closure(iter([2]), 5) == (1, 2, 3, 4)


def brute_force_closure(residues, n):
    """Every product of two known elements, repeated until nothing new appears."""
    known = {1} | {x % n for x in residues}
    while True:
        grown = known | {x * y % n for x in known for y in known}
        if grown == known:
            return tuple(sorted(known))
        known = grown


@pytest.mark.parametrize("n", range(2, 61))
def test_subgroup_closure_agrees_with_brute_force(n):
    rng = random.Random(n)
    units = [x for x in range(-n, 2 * n) if gcd(x, n) == 1]
    samples = [[], [1], [n - 1]] + [rng.choices(units, k=rng.randint(1, 4)) for _ in range(8)]
    for residues in samples:
        assert subgroup_closure(residues, n) == brute_force_closure(residues, n), residues


def test_subgroup_closure_walks_a_large_cyclic_group_quickly():
    start = time.perf_counter()
    closure = subgroup_closure([2], 5003)  # 2 is a primitive root mod the prime 5003
    assert time.perf_counter() - start < 0.5
    assert closure == tuple(range(1, 5003))


@pytest.mark.parametrize("n", range(2, 26))
def test_base_units_cover_what_depth_three_products_cover(n):
    # eps_bar is a ring homomorphism S -> Z/n, so products of up to three base
    # units reach no residue outside the subgroup the base units generate
    for r in valid_r(n):
        base = fixed_unit_generators(n, r)
        pool = set(base)
        frontier = list(base)
        for _ in range(2):
            new = []
            for x in frontier:
                for b in base:
                    y = x * b
                    if y not in pool:
                        pool.add(y)
                        new.append(y)
            frontier = new
        pool_subgroup = subgroup_closure({eps_bar(u) for u in pool}, n)
        assert coverage_subgroup(n, r).subgroup == pool_subgroup, (n, r)


def test_coset_steps():
    # -1 = r^(m/2) when -1 is in <r>; only the first m/2 powers are kept
    assert coset_steps(13, 4) == [1, 4, 3]  # m = 6, 4^3 = 12
    assert coset_steps(13, 3) == [1, 3, 9]  # m = 3, -1 not in <3>
    assert coset_steps(7, 6) == [1]
    assert coset_steps(5, 1) == [1]
    assert coset_steps(2, 1) == [1]


def test_cyclotomic_unit_closed_forms():
    # over the single step 1, xi_a is the symmetric sum rho^(-k) + ... + rho^k, a = 2k+1
    for n in (5, 8, 13):
        for k in range(n // 2):
            expected = SElement.from_exponents(n, [e % n for e in range(-k, k + 1)])
            assert cyclotomic_unit(n, [1], 2 * k + 1) == expected, (n, k)
    # at (13, 4), e = 3 and 5^3 = 8 = -5 (mod 13): the residue class the former family missed
    unit = cyclotomic_unit(13, coset_steps(13, 4), 5)
    assert unit == SElement(13, (1, 0, -1, 0, 0, -1, -1, -1, -1, 0, 0, -1))
    assert eps_bar(unit) == 8 and is_unit_by_resultant(unit)
    assert coverage_subgroup(13, 4).subgroup == (1, 5, 8, 12)
    with pytest.raises(ValueError):
        cyclotomic_unit(13, [1], 4)


@pytest.mark.parametrize("n", range(3, 26))
def test_tau_symmetrized_cyclotomic_unit_is_the_square_of_the_coset_norm(n):
    # xi_a is fixed by rho -> rho^(-1), so its <r>-orbit product is the square of
    # its norm over <r>/{+-1} when -1 is in <r>, and equal to it otherwise
    for r in valid_r(n):
        tau = TauData(n, r)
        reps = coset_steps(n, r)
        power = 2 if n - 1 in orbit_steps(n, r) else 1
        assert len(reps) * power == tau.m
        for a in range(1, n, 2):
            if gcd(a, n) == 1:
                xi = cyclotomic_unit(n, [1], a)
                assert tau_symmetrize(xi, tau) == cyclotomic_unit(n, reps, a) ** power, (r, a)


@st.composite
def cyclotomic_parameters(draw):
    n = draw(st.integers(min_value=3, max_value=60))
    r = draw(st.sampled_from(valid_r(n)))
    a = draw(st.sampled_from([a for a in range(1, n, 2) if gcd(a, n) == 1]))
    return n, r, a


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cyclotomic_parameters())
def test_cyclotomic_unit_is_a_fixed_unit_of_residue_a_to_the_e(params):
    n, r, a = params
    steps = coset_steps(n, r)
    unit = cyclotomic_unit(n, steps, a)
    assert eps_bar(unit) == pow(a, len(steps), n)
    assert is_unit(unit)
    assert tau_apply_s(unit, TauData(n, r)) == unit


@pytest.mark.parametrize("n", range(2, 26))
def test_each_generator_adds_a_residue(n):
    for r in valid_r(n):
        residues = [eps_bar(u) for u in fixed_unit_generators(n, r)]
        assert residues[0] == n - 1
        for k in range(1, len(residues)):
            assert residues[k] not in subgroup_closure(residues[:k], n), (r, residues)


@pytest.mark.parametrize("n", range(2, 26))
def test_cyclotomic_unit_inverse_matches_invert(n):
    for r in valid_r(n):
        steps = coset_steps(n, r)
        for a in range(1, n, 2):
            if gcd(a, n) == 1:
                unit = cyclotomic_unit(n, steps, a)
                assert cyclotomic_unit_inverse(n, steps, a) == invert(unit), (r, a)


def test_fixed_unit_generators_check_each_unit(monkeypatch):
    real = coverage.cyclotomic_unit_inverse
    # off by 1 - rho, which keeps the augmentation and so the residue
    monkeypatch.setattr(coverage, "cyclotomic_unit_inverse",
                        lambda n, steps, a: real(n, steps, a) + 1 - SElement.rho_power(n, 1))
    with pytest.raises(RuntimeError):
        fixed_unit_generators(13, 4)
    monkeypatch.setattr(coverage, "cyclotomic_unit_inverse", real)
    monkeypatch.setattr(coverage, "cyclotomic_unit", lambda n, steps, a: SElement.one(n))
    with pytest.raises(RuntimeError):
        fixed_unit_generators(13, 4)
    monkeypatch.setattr(coverage, "cyclotomic_unit", lambda n, steps, a: SElement.constant(n, 2))
    with pytest.raises(RuntimeError):
        unit_witness(13, 4, 5)


def test_generators_need_no_norm_test(monkeypatch):
    # the exact product with the closed-form inverse proves each generator a unit
    def refuse(s):
        raise AssertionError("is_unit called")

    monkeypatch.setattr(coverage, "is_unit", refuse)
    monkeypatch.setattr(quotient, "is_unit", refuse)
    for n, r in ((13, 12), (13, 4), (16, 15), (25, 24)):
        assert len(fixed_unit_generators(n, r)) > 1


def test_coverage_builds_no_prime_table(monkeypatch):
    # with no norm test, a large n costs no table of root powers
    def refuse(n):
        raise AssertionError(f"kernel prime table built for n = {n}")

    monkeypatch.setattr(quotient, "_prime_table", refuse)
    assert coverage_subgroup(503, 502).is_full


def test_coverage_is_plus_minus_the_e_th_powers():
    # the report is {+-a^e : gcd(a, n) = 1}, e = m/2 when -1 is in <r> and m otherwise
    for n in range(2, 41):
        for r in valid_r(n):
            e = len(coset_steps(n, r))
            powers = {pow(a, e, n) for a in valid_r(n)} | {1 % n}
            expected = tuple(sorted(powers | {-x % n for x in powers}))
            assert coverage_subgroup(n, r).subgroup == expected, (n, r)


def test_coverage_at_large_n():
    assert coverage_subgroup(211, 210).is_full
    assert coverage_subgroup(101, 2).subgroup == (1, 100)  # e = 50: the Legendre symbol
    report = coverage_subgroup(73, 27)
    assert len(report.subgroup) == 36
    assert verify_report(report) == []


def free_orbit_count(n, r):
    return len(TauData(n, r).orbits()) - 1


def oracle_subgroup(n, r):
    return subgroup_closure([eps_bar(u) for u in exhaustive_fixed_units(n, r, 2)], n)


@pytest.mark.parametrize("n", range(2, 41))
def test_oracle_finds_nothing_beyond_the_report(n):
    # every coprime pair whose 5^d orbit weights have d <= 9
    for r in valid_r(n):
        if free_orbit_count(n, r) <= 9:
            assert set(oracle_subgroup(n, r)) <= set(coverage_subgroup(n, r).subgroup), r


# every pair where the former candidate family reported less than the B = 2 oracle
FORMER_GAPS = (
    (13, 4), (13, 10), (17, 4), (17, 13), (21, 5), (21, 17),
    (25, 4), (25, 9), (25, 14), (25, 19),
    (29, 4), (29, 5), (29, 6), (29, 9), (29, 13), (29, 22),
    (34, 9), (34, 13), (34, 15), (34, 19), (34, 21), (34, 25),
    (35, 19), (35, 24), (37, 11), (37, 27), (39, 17), (39, 23),
)


@pytest.mark.parametrize("n, r", FORMER_GAPS)
def test_former_gaps_are_closed(n, r):
    assert set(oracle_subgroup(n, r)) <= set(coverage_subgroup(n, r).subgroup)


def report_problems_testing_fixedness_twice(report):
    """verify_report as it tested each generator with is_tau_fixed, then is_unit with tau; the reference."""
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
        fixed = lift(unit).is_tau_fixed(tau)
        if not is_unit(unit, tau if fixed else None):
            problems.append(f"generator {unit!r} fails the unit test")
        if not fixed:
            problems.append(f"generator {unit!r} is not tau-fixed after lifting")
    residues = [residue for _, residue in report.generators if gcd(residue, n) == 1]
    if subgroup_closure(residues, n) != report.subgroup:
        problems.append("subgroup is not the closure of the generator residues")
    if report.is_full != (report.subgroup == tuple(sorted(valid_r(n)))):
        problems.append(f"is_full = {report.is_full} disagrees with the subgroup")
    return problems


def reports_valid_tampered_and_random():
    for n, r in ((7, 2), (7, 6), (13, 12), (13, 4), (16, 15), (21, 20)):
        report = coverage_subgroup(n, r)
        yield report
        for extra in (SElement.rho_power(n, 1), SElement.constant(n, 2),
                      SElement.rho_power(n, 1) + 1, SElement.constant(n, -1)):
            yield dataclasses.replace(report, generators=report.generators + ((extra, 1),))
    rng = random.Random(29)
    for _ in range(150):
        n = rng.randint(2, 16)
        r = rng.choice(valid_r(n))
        units = [SElement(n, [rng.randint(-2, 2) for _ in range(n - 1)]) for _ in range(3)]
        units = [random_fixed_s(rng, n, TauData(n, r)) if rng.random() < 0.5 else s for s in units]
        yield dataclasses.replace(coverage_subgroup(n, r),
                                  generators=tuple((s, rng.randrange(n)) for s in units))


def test_report_fixedness_is_tested_once_with_the_problems_unchanged(monkeypatch):
    def refuse(self, tau):
        raise AssertionError("is_tau_fixed called")

    calls = []
    real_fixed = quotient._is_fixed

    def count_fixed(coeffs, r):
        calls.append(r)
        return real_fixed(coeffs, r)

    references = [(report, report_problems_testing_fixedness_twice(report))
                  for report in reports_valid_tampered_and_random()]
    assert sum("tau-fixed" in " ".join(problems) for _, problems in references) >= 10
    assert sum("unit test" in " ".join(problems) for _, problems in references) >= 10
    monkeypatch.setattr(GroupRingElement, "is_tau_fixed", refuse)
    monkeypatch.setattr(quotient, "_is_fixed", count_fixed)
    for report, reference in references:
        calls.clear()
        assert verify_report(report) == reference, report
        assert len(calls) == len(report.generators), report
