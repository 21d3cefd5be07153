"""Seeded property suites behind the CLI verify command, one per module.

The model layers (tower, crossed) and linalg are imported inside the suites
that use them: a suite that does not check a layer does not load it.
"""

from __future__ import annotations

import random
from math import gcd

from . import coverage as cov
from . import monomial as mon
from .checks import CheckResult, case_check
from .group_ring import GroupRingElement, TauData, full_norm, partial_norm, partial_norm_product
from .quotient import (
    SElement,
    eps_bar,
    is_unit,
    lift,
    norm,
    reduce,
    solve_inverse,
    tau_apply_s,
)


def _random_element(rng, n, span=10):
    return GroupRingElement(n, [rng.randint(-span, span) for _ in range(n)])


def _random_tau(rng, n):
    candidates = [r for r in range(1, n) if gcd(r, n) == 1]
    return TauData(n, rng.choice(candidates))


def suite_group_ring(seed=0):
    rng = random.Random(seed)
    checks = []

    cases, failure = 60, None
    for _ in range(cases):
        n = rng.randint(2, 24)
        a, b, c = (_random_element(rng, n) for _ in range(3))
        ok = (
            (a + b) + c == a + (b + c)
            and a * b == b * a
            and (a * b) * c == a * (b * c)
            and a * (b + c) == a * b + a * c
            and a * GroupRingElement.one(n) == a
        )
        if not ok and failure is None:
            failure = {"n": n, "a": a.coeffs, "b": b.coeffs, "c": c.coeffs}
    checks.append(case_check("ring laws on random triples", cases, failure))

    cases, failure = 40, None
    for _ in range(cases):
        n = rng.randint(2, 24)
        a, b = _random_element(rng, n), _random_element(rng, n)
        ok = (a + b).augmentation() == a.augmentation() + b.augmentation()
        ok = ok and (a * b).augmentation() == a.augmentation() * b.augmentation()
        if not ok and failure is None:
            failure = {"n": n, "a": a.coeffs, "b": b.coeffs}
    checks.append(case_check("augmentation is a ring homomorphism", cases, failure))

    cases, failure = 60, None
    for _ in range(cases):
        n = rng.randint(2, 24)
        g = rng.randrange(n)
        i = rng.randint(0, 8)
        j = rng.randint(0, 8 if i == 0 else 60 // max(i, 1))
        lhs = partial_norm(n, g, j) * partial_norm(n, (g * j) % n, i)
        if lhs != partial_norm(n, g, i * j) and failure is None:
            failure = {"n": n, "g": g, "i": i, "j": j}
    checks.append(case_check("partial-norm identity", cases, failure))

    cases, failure = 40, None
    for _ in range(cases):
        n = rng.randint(2, 24)
        tau = _random_tau(rng, n)
        a, b = _random_element(rng, n), _random_element(rng, n)
        image = a
        for _ in range(tau.m):
            image = image.tau_apply(tau)
        ok = (
            (a + b).tau_apply(tau) == a.tau_apply(tau) + b.tau_apply(tau)
            and (a * b).tau_apply(tau) == a.tau_apply(tau) * b.tau_apply(tau)
            and GroupRingElement.one(n).tau_apply(tau) == GroupRingElement.one(n)
            and a.tau_apply(tau).augmentation() == a.augmentation()
            and image == a
            and full_norm(n).tau_apply(tau) == full_norm(n)
        )
        if not ok and failure is None:
            failure = {"n": n, "r": tau.r, "a": a.coeffs, "b": b.coeffs}
    checks.append(
        case_check("tau acts as a ring automorphism of order dividing m", cases, failure)
    )
    return checks


def random_fixed_s(rng, n, tau, span=9):
    """A random tau-fixed element of S, from orbit sums with random weights.

    One weight is drawn from [-span, span] per <r>-orbit, in the order of
    TauData.orbits.
    """
    coeffs = [0] * n
    for orbit in tau.orbits():
        weight = rng.randint(-span, span)
        for e in orbit:
            coeffs[e] = weight
    return reduce(GroupRingElement(n, coeffs))


def suite_quotient(seed=0):
    from .linalg import resultant

    rng = random.Random(seed)
    checks = []

    cases, failure = 40, None
    for _ in range(cases):
        n = rng.randint(2, 20)
        c = rng.randint(-20, 20)
        p = _random_element(rng, n)
        ok = (
            reduce(c * full_norm(n)) == SElement.zero(n)
            and (reduce(p) != SElement.zero(n) or len(set(p.coeffs)) == 1)
            and reduce(lift(reduce(p))) == reduce(p)
        )
        if not ok and failure is None:
            failure = {"n": n, "c": c, "p": p.coeffs}
    checks.append(case_check("reduction kernel is exactly the norm line", cases, failure))

    cases, failure = 150, None
    for _ in range(cases):
        n = rng.randint(3, 7)
        s = SElement(n, [rng.randint(-2, 2) for _ in range(n - 1)])
        oracle = solve_inverse(s)
        agrees = is_unit(s) == (oracle is not None)
        if oracle is not None:
            agrees &= s * oracle == SElement.one(n)
        if not agrees and failure is None:
            failure = s
    checks.append(
        case_check("unit criterion matches the linear-solve oracle", cases, failure)
    )

    cases, failure = 60, None
    for _ in range(cases):
        n = rng.randint(2, 20)
        p = _random_element(rng, n)
        if eps_bar(reduce(p)) != p.augmentation() % n and failure is None:
            failure = {"n": n, "p": p.coeffs}
    checks.append(case_check("eps-bar commutes with reduction mod n", cases, failure))

    cases, failure = 100, None
    for _ in range(cases):
        n = rng.randint(2, 15)
        tau = _random_tau(rng, n)
        s = random_fixed_s(rng, n, tau)
        ok = tau_apply_s(s, tau) == s and lift(s).is_tau_fixed(tau)
        if not ok and failure is None:
            failure = {"n": n, "r": tau.r, "s": s}
    checks.append(case_check("canonical lifts of fixed elements are fixed", cases, failure))

    cases, failure = 40, None
    for _ in range(cases):
        n = rng.randint(3, 12)
        tau = _random_tau(rng, n)
        s = SElement.rho_power(n, rng.randrange(n)) * rng.choice([1, -1])
        image = tau_apply_s(s, tau)
        iterate = s
        for _ in range(tau.m):
            iterate = tau_apply_s(iterate, tau)
        ok = is_unit(image) and eps_bar(image) == eps_bar(s) and iterate == s
        if not ok and failure is None:
            failure = {"n": n, "r": tau.r, "s": s}
    checks.append(case_check("tau preserves units and eps-bar", cases, failure))

    cases, failure = 60, None
    for _ in range(cases):
        n = rng.randint(2, 12)
        span = rng.choice((2, 10, 10**6))
        s = SElement(n, [rng.randint(-span, span) for _ in range(n - 1)])
        if abs(norm(s)) != abs(resultant(list(s.coeffs), [1] * n)) and failure is None:
            failure = s
    checks.append(
        case_check("modular norm equals the Bareiss resultant up to sign", cases, failure)
    )
    return checks


def suite_coverage(seed=0):
    rng = random.Random(seed)
    checks = []

    odd = range(3, 16, 2)
    failure = None
    for n in odd:
        report = cov.coverage_subgroup(n, n - 1)
        if (not report.is_full or cov.verify_report(report)) and failure is None:
            failure = {"n": n, "r": n - 1, "subgroup": report.subgroup}
    checks.append(
        case_check("dihedral coverage is the full unit group for odd n <= 15", len(odd), failure)
    )

    # each case also checks the closed forms behind fixed_unit_generators against
    # tau_symmetrize; the orbit product of xi_a is the square of its coset norm if -1 is in <r>
    cases, failure = 25, None
    for _ in range(cases):
        n = rng.randint(3, 12)
        tau = _random_tau(rng, n)
        s = SElement(n, [rng.randint(-3, 3) for _ in range(n - 1)])
        sym = cov.tau_symmetrize(s, tau)
        ok = tau_apply_s(sym, tau) == sym
        steps = [pow(tau.r, k, n) for k in range(tau.m)]
        for j in range(1, n):
            if gcd(j, n) == 1:
                closed = reduce(partial_norm_product(n, steps, j))
                ok &= closed == cov.tau_symmetrize(reduce(partial_norm(n, 1, j)), tau)
        reps = cov.coset_steps(n, tau.r)
        power = 2 if n - 1 in steps else 1
        for a in range(1, n, 2):
            if gcd(a, n) == 1:
                orbit_product = cov.tau_symmetrize(cov.cyclotomic_unit(n, [1], a), tau)
                ok &= orbit_product == cov.cyclotomic_unit(n, reps, a) ** power
        if not ok and failure is None:
            failure = {"n": n, "r": tau.r, "s": s}
    checks.append(case_check("tau-symmetrization lands in the fixed ring", cases, failure))

    pairs = ((3, 1), (3, 2), (4, 3), (5, 2), (5, 4), (6, 5), (7, 3), (7, 6), (8, 7), (9, 8))
    failure = None
    for n, r in pairs:
        report = cov.coverage_subgroup(n, r)
        oracle = cov.exhaustive_fixed_units(n, r, 2)
        oracle_subgroup = cov.subgroup_closure([eps_bar(u) for u in oracle], n)
        if oracle_subgroup != report.subgroup and failure is None:
            failure = {"n": n, "r": r, "generator": report.subgroup, "oracle": oracle_subgroup}
    checks.append(
        case_check("generator coverage agrees with the bounded oracle", len(pairs), failure)
    )

    cases, failure = 20, None
    for _ in range(cases):
        p = rng.choice([3, 5, 7, 11, 13])
        images = [rng.randint(1, p - 1) for _ in range(rng.randint(1, 3))]
        m, r = cov.reduce_to_cyclic(p, images)
        order = 1
        x = r
        while x != 1:
            x = (x * r) % p
            order += 1
        subgroup = cov.subgroup_closure([r], p)
        ok = order == m and all(img % p in subgroup for img in images)
        if not ok and failure is None:
            failure = {"p": p, "images": images}
    checks.append(
        case_check(
            "prime-case reduction returns a generator of the action image", cases, failure
        )
    )
    return checks


def _random_norm_map(rng, n, source_exp, span=2):
    element = GroupRingElement(n, [rng.randint(-span, span) for _ in range(n)])
    return mon.NormSetMap(element, rng.randint(-2, 2), source_exp)


def suite_monomial(seed=0):
    from . import tower as tow

    rng = random.Random(seed)
    checks = []

    cases, failure = 40, None
    for _ in range(cases):
        n = rng.randint(2, 9)
        f1 = _random_norm_map(rng, n, rng.randint(-3, 3))
        f2 = _random_norm_map(rng, n, f1.target_exp)
        f3 = _random_norm_map(rng, n, f2.target_exp)
        ok = mon.compose(f3, mon.compose(f2, f1)) == mon.compose(mon.compose(f3, f2), f1)
        if not ok and failure is None:
            failure = (f1, f2, f3)
    checks.append(case_check("composition of norm-set maps is associative", cases, failure))

    cases, failure = 40, None
    for _ in range(cases):
        n = rng.randint(2, 9)
        tau = _random_tau(rng, n)
        f1 = _random_norm_map(rng, n, rng.randint(-3, 3))
        f2 = _random_norm_map(rng, n, f1.target_exp)
        lhs = mon.tau_conjugate(mon.compose(f2, f1), tau)
        rhs = mon.compose(mon.tau_conjugate(f2, tau), mon.tau_conjugate(f1, tau))
        if lhs != rhs and failure is None:
            failure = {"r": tau.r, "f1": f1, "f2": f2}
    checks.append(case_check("tau-conjugation is multiplicative", cases, failure))

    cases, failure = 40, None
    for _ in range(cases):
        n = rng.randint(2, 9)
        i = rng.randint(-3, 3)
        j, k = rng.randint(-4, 4), rng.randint(-4, 4)
        inner = mon.shift_map(n, k, i)
        composite = mon.compose(mon.shift_map(n, j, inner.target_exp), inner)
        if composite != mon.shift_map(n, j + k, i) and failure is None:
            failure = {"n": n, "i": i, "j": j, "k": k}
    checks.append(case_check("shift maps compose additively", cases, failure))

    cases, failure = 40, None
    for _ in range(cases):
        n = rng.randint(2, 9)
        i = rng.randint(-3, 3)
        k = rng.randint(-3, 3)
        element = GroupRingElement(n, [rng.randint(-2, 2) for _ in range(n)])
        phi_first = mon.compose(mon.monomial_map(element, i + n * k), mon.shift_map(n, k, i))
        monomial_first = mon.compose(
            mon.shift_map(n, element.augmentation() * k, i * element.augmentation()),
            mon.monomial_map(element, i),
        )
        if phi_first != monomial_first and failure is None:
            failure = {"n": n, "i": i, "k": k, "element": element.coeffs}
    checks.append(
        case_check("monomials commute with shifts via the augmentation", cases, failure)
    )

    cases, failure = 25, None
    finite = tow.builtin_finite(5, 3, 2)
    base_points = [x for x in finite.field.elements() if tow.norm(finite, x) == finite.b]
    for _ in range(cases):
        pt = tow.NormSetPoint(rng.choice(base_points), 1)
        element = GroupRingElement(3, [rng.randint(-2, 2) for _ in range(3)])
        shift = rng.randint(-2, 2)
        canonical = mon.NormSetMap(element, shift, pt.k)
        raw_value = tow.apply_monomial(finite, element, pt.x) * finite.b**shift
        canonical_value = (
            tow.apply_monomial(finite, canonical.monomial, pt.x) * finite.b**canonical.shift
        )
        ok = raw_value == canonical_value
        ok = ok and tow.norm(finite, raw_value) == finite.b**canonical.target_exp
        if not ok and failure is None:
            failure = {"x": pt.x, "element": element.coeffs, "shift": shift}
    checks.append(
        case_check("canonical and raw forms act identically on points", cases, failure)
    )

    cases, failure = 0, None
    for n in (3, 5):
        for r in range(1, n):
            if gcd(r, n) != 1:
                continue
            report = cov.coverage_subgroup(n, r)
            for l in report.subgroup:
                cases += 1
                record = mon.verify_certificate(mon.make_certificate(n, r, l))
                if not record.passed and failure is None:
                    failure = {"n": n, "r": r, "l": l}
    checks.append(
        case_check("certificates verify for every covered residue", cases, failure)
    )
    return checks


def s3_spanning_points(tw):
    """Norm-set points whose elements span the degree-6 field, including x = -1."""
    from . import tower as tow

    zeta = tw.basis_element(3)
    c_minus_1 = tw.basis_element(1) - tw.one
    units = [
        tw.one,
        zeta,
        c_minus_1,
        zeta * c_minus_1,
        c_minus_1 * c_minus_1,
        zeta * c_minus_1 * c_minus_1,
    ]
    points = [tow.make_norm_point(tw, u, 0) for u in units]
    points.extend(tow.make_norm_point(tw, -u, 1) for u in units)
    return points


def suite_tower(seed=0):
    from . import tower as tow
    from .linalg import rank_rational

    rng = random.Random(seed)
    checks = []
    s3 = tow.builtin_s3()

    lam, b = s3.lam, s3.b
    identities = [
        ("tau(b) = lam^3 * b^2", s3.tau(b) == lam**3 * b**2),
        ("r*t = s*n + 1", s3.r * s3.t == s3.s * s3.n + 1),
    ]
    for i in range(6):
        x = s3.basis_element(i)
        identities.append((f"tau sigma tau = sigma^2 on basis element {i}",
                           s3.tau(s3.sigma(s3.tau(x))) == s3.sigma(s3.sigma(x))))
    failure = next(({"identity": label} for label, ok in identities if not ok), None)
    checks.append(case_check("s3 construction self-checks", len(identities), failure))

    identity = [[int(i == j) for j in range(6)] for i in range(6)]
    sigma_fixed_dim = 6 - rank_rational(
        [[s3.sigma_matrix[i][j] - identity[i][j] for j in range(6)] for i in range(6)]
    )
    tau_fixed_dim = 6 - rank_rational(
        [[s3.tau_matrix[i][j] - identity[i][j] for j in range(6)] for i in range(6)]
    )
    checks.append(
        CheckResult(
            "fixed subfields have degrees m and n",
            sigma_fixed_dim == s3.m and tau_fixed_dim == s3.n,
            f"dim E^sigma = {sigma_fixed_dim}, dim E^tau = {tau_fixed_dim}",
        )
    )

    cases, failure = 20, None
    for _ in range(cases):
        x, y = s3.random_element(rng), s3.random_element(rng)
        nx = tow.norm(s3, x)
        ok = s3.sigma(nx) == nx and tow.norm(s3, x * y) == nx * tow.norm(s3, y)
        if not ok and failure is None:
            failure = {"x": x, "y": y}
    checks.append(case_check("norm is sigma-fixed and multiplicative", cases, failure))

    points = s3_spanning_points(s3)
    failure = next(
        ({"x": pt.x, "k": pt.k} for pt in points
         if not tow.point_is_valid(s3, tow.tau_hat(s3, pt))),
        None,
    )
    checks.append(case_check("tau-hat preserves norm sets", len(points), failure))

    failure = next(
        ({"x": pt.x, "k": pt.k} for pt in points
         if tow.tau_hat(s3, tow.tau_hat(s3, pt)).x != pt.x),
        None,
    )
    checks.append(case_check("tau-hat squares to the identity", len(points), failure))

    cases, failure = 0, None
    for a in range(-2, 3):
        for w in range(-2, 3):
            element = GroupRingElement(3, (a, w, w))
            if element == GroupRingElement.zero(3):
                continue
            for pt in points:
                if any(e < 0 for e in element.coeffs) and not pt.x:
                    continue
                cases += 1
                lhs = tow.tau_hat(s3, tow.apply_monomial_point(s3, element, pt))
                rhs = tow.apply_monomial_point(s3, element, tow.tau_hat(s3, pt))
                if (lhs.x != rhs.x or lhs.k != rhs.k) and failure is None:
                    failure = {"element": element.coeffs, "x": pt.x, "k": pt.k}
    checks.append(case_check("tau-hat commutes with fixed monomials", cases, failure))

    cases, failure = 0, None
    for k in range(-3, 4):
        for pt in points:
            cases += 1
            lhs = tow.tau_hat(s3, tow.phi_k_apply(s3, pt, k))
            rhs = tow.phi_k_apply(s3, tow.tau_hat(s3, pt), k)
            if (lhs.x != rhs.x or lhs.k != rhs.k) and failure is None:
                failure = {"shift": k, "x": pt.x, "k": pt.k}
    checks.append(case_check("phi_k commutes with tau-hat", cases, failure))

    cases, failure = 20, None
    for _ in range(cases):
        element = GroupRingElement(3, [rng.randint(-2, 2) for _ in range(3)])
        k = rng.randint(-2, 2)
        pt = rng.choice(points)
        via_shift_first = tow.apply_monomial_point(
            s3, element, tow.phi_k_apply(s3, pt, k)
        )
        via_monomial_first = tow.phi_k_apply(
            s3, tow.apply_monomial_point(s3, element, pt), element.augmentation() * k
        )
        ok = (
            via_shift_first.x == via_monomial_first.x
            and via_shift_first.k == via_monomial_first.k
            and tow.norm(s3, tow.apply_monomial(s3, element, pt.x))
            == s3.b ** (pt.k * element.augmentation())
        )
        if not ok and failure is None:
            failure = {"element": element.coeffs, "shift": k, "x": pt.x, "k": pt.k}
    checks.append(
        case_check("monomial/shift commutation and norm bookkeeping on points", cases, failure)
    )

    round_trip = tow.load_tower(tow.dump_tower(s3))
    differs = [
        part for part in ("table", "sigma_matrix", "tau_matrix")
        if getattr(round_trip, part) != getattr(s3, part)
    ]
    failure = {"tower": "builtin_s3", "differs": differs} if differs else None
    checks.append(case_check("fixture round trip reproduces the tower", 1, failure))
    return checks


def suite_crossed(seed=0):
    from . import crossed as cp
    from . import tower as tow

    rng = random.Random(seed)
    checks = []

    cases = 20
    failures = {"chain": None, "trip": None, "dimension": None}
    for _ in range(cases):
        q = rng.choice([3, 5])
        n = rng.choice([2, 3])
        algebra, chain, _ = cp.random_cyclic_instance(q, n, rng)
        inputs = {"q": q, "n": n, "chain": chain.values}
        if not cp.is_splitting_chain(algebra, chain) and failures["chain"] is None:
            failures["chain"] = inputs
        ideal = cp.ideal_from_chain(algebra, chain)
        if ideal.dimension != n * n - n and failures["dimension"] is None:
            failures["dimension"] = dict(inputs, dimension=ideal.dimension)
        recovered = cp.chain_from_ideal(algebra, ideal)
        trip = recovered.values == chain.values and cp.ideal_from_chain(algebra, recovered) == ideal
        if not trip and failures["trip"] is None:
            failures["trip"] = dict(inputs, recovered=recovered.values)
    checks.append(case_check("partial-norm chains satisfy delta z = c", cases, failures["chain"]))
    checks.append(
        case_check("chain/ideal round trips are mutually inverse", cases, failures["trip"])
    )
    checks.append(case_check("ideals have dimension n^2 - n", cases, failures["dimension"]))

    algebra, chain, _ = cp.random_cyclic_instance(3, 3, rng)
    corrupted = dict(algebra.cocycle)
    corrupted[(1, 1)] = corrupted[(1, 1)] * algebra.tower.field.from_int(2)
    broken = cp.CrossedProduct(algebra.tower, corrupted, validate=False)
    associative = True
    for _ in range(40):
        x, y, z = (
            tuple(algebra.tower.random_element(rng) for _ in range(3)) for _ in range(3)
        )
        if broken.multiply(broken.multiply(x, y), z) != broken.multiply(x, broken.multiply(y, z)):
            associative = False
            break
    holds = cp.cocycle_condition_holds(algebra.tower, corrupted)
    failure = None
    if associative or holds:
        failure = {"q": 3, "n": 3, "entry": (1, 1), "associative": associative,
                   "cocycle condition holds": holds}
    checks.append(case_check("corrupted cocycle breaks associativity", 1, failure))

    cases, failure = 5, None
    for _ in range(cases):
        q = rng.choice([3, 5])
        n = rng.choice([2, 3])
        algebra, chain, _ = cp.random_cyclic_instance(q, n, rng)
        bad = cp.corrupt_chain(algebra, chain)
        ok = not cp.is_splitting_chain(algebra, bad)
        try:
            cp.ideal_from_chain(algebra, bad)
            ok = False
        except ValueError:
            pass
        if not ok and failure is None:
            failure = {"q": q, "n": n, "chain": bad.values}
    checks.append(case_check("corrupted chains are rejected", cases, failure))

    algebra, _, _ = cp.random_cyclic_instance(5, 3, rng)
    spanning = algebra.tower.l_basis() + [algebra.tower.random_unit(rng) for _ in range(2)]
    cases = [(x, i) for x in spanning if x for i in range(1, 2 * algebra.n + 1)]
    failure = next(
        ({"x": x, "i": i} for x, i in cases if not cp.norm_element_check(algebra, x, i).passed),
        None,
    )
    checks.append(case_check("norm-element identity on a spanning set", len(cases), failure))

    s3_algebra = cp.CrossedProduct(tow.builtin_s3())
    checks.extend(cp.tau_action_check(s3_algebra))

    small, _, _ = cp.random_cyclic_instance(3, 2, rng)
    checks.extend(cp.tensor_power_check(small, 2))
    return checks


SUITES = {
    "group-ring": suite_group_ring,
    "quotient": suite_quotient,
    "coverage": suite_coverage,
    "monomial": suite_monomial,
    "tower": suite_tower,
    "crossed": suite_crossed,
}


def run_suites(names, seed=0):
    """Run the named suites; returns {suite: [CheckResult, ...]}."""
    return {name: SUITES[name](seed) for name in names}
