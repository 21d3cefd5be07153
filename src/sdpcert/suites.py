"""Seeded property suites behind the CLI verify command, one per module.

Each suite returns its list of checks. A seeded check is a generator of
(holds, inputs) cases that checks.case_check runs; the checks of a suite
draw from one seeded generator, in order.

The model layers (tower, crossed) and linalg are imported inside the suites
that use them: a suite that does not check a layer does not load it.
"""

from __future__ import annotations

import functools
import itertools
import random
from math import gcd

from . import coverage as cov
from . import monomial as mon
from ._element import orbit
from .checks import CheckResult, case_check, fact_check
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

    def ring_laws():
        for _ in range(60):
            n = rng.randint(2, 24)
            a, b, c = (_random_element(rng, n) for _ in range(3))
            yield (
                (a + b) + c == a + (b + c)
                and a * b == b * a
                and (a * b) * c == a * (b * c)
                and a * (b + c) == a * b + a * c
                and a * GroupRingElement.one(n) == a
            ), {"n": n, "a": a.coeffs, "b": b.coeffs, "c": c.coeffs}

    def augmentation():
        for _ in range(40):
            n = rng.randint(2, 24)
            a, b = _random_element(rng, n), _random_element(rng, n)
            yield (
                (a + b).augmentation() == a.augmentation() + b.augmentation()
                and (a * b).augmentation() == a.augmentation() * b.augmentation()
            ), {"n": n, "a": a.coeffs, "b": b.coeffs}

    def partial_norms():
        for _ in range(60):
            n = rng.randint(2, 24)
            g = rng.randrange(n)
            i = rng.randint(0, 8)
            j = rng.randint(0, 8 if i == 0 else 60 // max(i, 1))
            lhs = partial_norm(n, g, j) * partial_norm(n, (g * j) % n, i)
            yield lhs == partial_norm(n, g, i * j), {"n": n, "g": g, "i": i, "j": j}

    def tau_automorphism():
        for _ in range(40):
            n = rng.randint(2, 24)
            tau = _random_tau(rng, n)
            a, b = _random_element(rng, n), _random_element(rng, n)
            image = orbit(lambda x: x.tau_apply(tau), a, tau.m + 1)[-1]
            yield (
                (a + b).tau_apply(tau) == a.tau_apply(tau) + b.tau_apply(tau)
                and (a * b).tau_apply(tau) == a.tau_apply(tau) * b.tau_apply(tau)
                and GroupRingElement.one(n).tau_apply(tau) == GroupRingElement.one(n)
                and a.tau_apply(tau).augmentation() == a.augmentation()
                and image == a
                and full_norm(n).tau_apply(tau) == full_norm(n)
            ), {"n": n, "r": tau.r, "a": a.coeffs, "b": b.coeffs}

    return [
        case_check("ring laws on random triples", ring_laws()),
        case_check("augmentation is a ring homomorphism", augmentation()),
        case_check("partial-norm identity", partial_norms()),
        case_check("tau acts as a ring automorphism of order dividing m", tau_automorphism()),
    ]


def _orbit_weighted(tau, weights):
    """weights[i] on every exponent of the i-th <r>-orbit of tau, in the order of TauData.orbits."""
    coeffs = [0] * tau.n
    for orbit, weight in zip(tau.orbits(), weights):
        for e in orbit:
            coeffs[e] = weight
    return GroupRingElement(tau.n, coeffs)


def random_fixed_s(rng, n, tau, span=9):
    """A random tau-fixed element of S, from orbit sums with random weights.

    One weight is drawn from [-span, span] per <r>-orbit, in the order of
    TauData.orbits.
    """
    return reduce(_orbit_weighted(tau, [rng.randint(-span, span) for _ in tau.orbits()]))


def suite_quotient(seed=0):
    from .linalg import resultant

    rng = random.Random(seed)

    def norm_line_kernel():
        for _ in range(40):
            n = rng.randint(2, 20)
            c = rng.randint(-20, 20)
            p = _random_element(rng, n)
            yield (
                reduce(c * full_norm(n)) == SElement.zero(n)
                and (reduce(p) != SElement.zero(n) or len(set(p.coeffs)) == 1)
                and reduce(lift(reduce(p))) == reduce(p)
            ), {"n": n, "c": c, "p": p.coeffs}

    def unit_criterion():
        for _ in range(150):
            n = rng.randint(3, 7)
            s = SElement(n, [rng.randint(-2, 2) for _ in range(n - 1)])
            oracle = solve_inverse(s)
            agrees = is_unit(s) == (oracle is not None)
            yield agrees and (oracle is None or s * oracle == SElement.one(n)), s

    def eps_bar_mod_n():
        for _ in range(60):
            n = rng.randint(2, 20)
            p = _random_element(rng, n)
            yield eps_bar(reduce(p)) == p.augmentation() % n, {"n": n, "p": p.coeffs}

    def fixed_lifts():
        for _ in range(100):
            n = rng.randint(2, 15)
            tau = _random_tau(rng, n)
            s = random_fixed_s(rng, n, tau)
            yield (
                tau_apply_s(s, tau) == s and lift(s).is_tau_fixed(tau)
            ), {"n": n, "r": tau.r, "s": s}

    def tau_on_units():
        for _ in range(40):
            n = rng.randint(3, 12)
            tau = _random_tau(rng, n)
            s = SElement.rho_power(n, rng.randrange(n)) * rng.choice([1, -1])
            image = tau_apply_s(s, tau)
            iterate = orbit(lambda x: tau_apply_s(x, tau), s, tau.m + 1)[-1]
            yield (
                is_unit(image) and eps_bar(image) == eps_bar(s) and iterate == s
            ), {"n": n, "r": tau.r, "s": s}

    def norm_is_resultant():
        for _ in range(60):
            n = rng.randint(2, 12)
            span = rng.choice((2, 10, 10**6))
            s = SElement(n, [rng.randint(-span, span) for _ in range(n - 1)])
            yield abs(norm(s)) == abs(resultant(list(s.coeffs), [1] * n)), s

    return [
        case_check("reduction kernel is exactly the norm line", norm_line_kernel()),
        case_check("unit criterion matches the linear-solve oracle", unit_criterion()),
        case_check("eps-bar commutes with reduction mod n", eps_bar_mod_n()),
        case_check("canonical lifts of fixed elements are fixed", fixed_lifts()),
        case_check("tau preserves units and eps-bar", tau_on_units()),
        case_check("modular norm equals the Bareiss resultant up to sign", norm_is_resultant()),
    ]


def suite_coverage(seed=0):
    rng = random.Random(seed)

    def dihedral():
        for n in range(3, 16, 2):
            report = cov.coverage_subgroup(n, n - 1)
            yield (
                report.is_full and not cov.verify_report(report)
            ), {"n": n, "r": n - 1, "subgroup": report.subgroup}

    # each case also checks the closed forms behind fixed_unit_generators against
    # tau_symmetrize; the orbit product of xi_a is the square of its coset norm if -1 is in <r>
    def symmetrization():
        for _ in range(25):
            n = rng.randint(3, 12)
            tau = _random_tau(rng, n)
            s = SElement(n, [rng.randint(-3, 3) for _ in range(n - 1)])
            sym = cov.tau_symmetrize(s, tau)
            ok = tau_apply_s(sym, tau) == sym
            steps = orbit(lambda k: k * tau.r % n, 1, tau.m)
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
            yield ok, {"n": n, "r": tau.r, "s": s}

    def oracle_agreement():
        pairs = ((3, 1), (3, 2), (4, 3), (5, 2), (5, 4), (6, 5), (7, 3), (7, 6), (8, 7), (9, 8))
        for n, r in pairs:
            report = cov.coverage_subgroup(n, r)
            oracle = cov.exhaustive_fixed_units(n, r, 2)
            oracle_subgroup = cov.subgroup_closure([eps_bar(u) for u in oracle], n)
            yield oracle_subgroup == report.subgroup, {
                "n": n, "r": r, "generator": report.subgroup, "oracle": oracle_subgroup
            }

    def prime_reduction():
        for _ in range(20):
            p = rng.choice([3, 5, 7, 11, 13])
            images = [rng.randint(1, p - 1) for _ in range(rng.randint(1, 3))]
            m, r = cov.reduce_to_cyclic(p, images)
            order = 1
            x = r
            while x != 1:
                x = (x * r) % p
                order += 1
            subgroup = cov.subgroup_closure([r], p)
            yield (
                order == m and all(img % p in subgroup for img in images)
            ), {"p": p, "images": images}

    return [
        case_check("dihedral coverage is the full unit group for odd n <= 15", dihedral()),
        case_check("tau-symmetrization lands in the fixed ring", symmetrization()),
        case_check("generator coverage agrees with the bounded oracle", oracle_agreement()),
        case_check(
            "prime-case reduction returns a generator of the action image", prime_reduction()
        ),
    ]


def _random_norm_map(rng, n, source_exp, span=2):
    element = GroupRingElement(n, [rng.randint(-span, span) for _ in range(n)])
    return mon.NormSetMap(element, rng.randint(-2, 2), source_exp)


def suite_monomial(seed=0):
    from . import tower as tow

    rng = random.Random(seed)

    def associativity():
        for _ in range(40):
            n = rng.randint(2, 9)
            f1 = _random_norm_map(rng, n, rng.randint(-3, 3))
            f2 = _random_norm_map(rng, n, f1.target_exp)
            f3 = _random_norm_map(rng, n, f2.target_exp)
            yield (
                mon.compose(f3, mon.compose(f2, f1)) == mon.compose(mon.compose(f3, f2), f1)
            ), (f1, f2, f3)

    def conjugation():
        for _ in range(40):
            n = rng.randint(2, 9)
            tau = _random_tau(rng, n)
            f1 = _random_norm_map(rng, n, rng.randint(-3, 3))
            f2 = _random_norm_map(rng, n, f1.target_exp)
            lhs = mon.tau_conjugate(mon.compose(f2, f1), tau)
            rhs = mon.compose(mon.tau_conjugate(f2, tau), mon.tau_conjugate(f1, tau))
            yield lhs == rhs, {"r": tau.r, "f1": f1, "f2": f2}

    def shifts():
        for _ in range(40):
            n = rng.randint(2, 9)
            i = rng.randint(-3, 3)
            j, k = rng.randint(-4, 4), rng.randint(-4, 4)
            inner = mon.shift_map(n, k, i)
            composite = mon.compose(mon.shift_map(n, j, inner.target_exp), inner)
            yield composite == mon.shift_map(n, j + k, i), {"n": n, "i": i, "j": j, "k": k}

    def monomial_shift():
        for _ in range(40):
            n = rng.randint(2, 9)
            i = rng.randint(-3, 3)
            k = rng.randint(-3, 3)
            element = GroupRingElement(n, [rng.randint(-2, 2) for _ in range(n)])
            phi_first = mon.compose(mon.monomial_map(element, i + n * k), mon.shift_map(n, k, i))
            monomial_first = mon.compose(
                mon.shift_map(n, element.augmentation() * k, i * element.augmentation()),
                mon.monomial_map(element, i),
            )
            yield phi_first == monomial_first, {"n": n, "i": i, "k": k, "element": element.coeffs}

    def canonical_forms():
        finite = tow.FiniteTower(5, 3, 2)
        base_points = [x for x in finite.field.elements() if tow.norm(finite, x) == finite.b]
        for _ in range(25):
            pt = tow.NormSetPoint(rng.choice(base_points), 1)
            element = GroupRingElement(3, [rng.randint(-2, 2) for _ in range(3)])
            shift = rng.randint(-2, 2)
            canonical = mon.NormSetMap(element, shift, pt.k)
            raw_value = tow.apply_monomial(finite, element, pt.x) * finite.b**shift
            canonical_value = (
                tow.apply_monomial(finite, canonical.monomial, pt.x) * finite.b**canonical.shift
            )
            yield (
                raw_value == canonical_value
                and tow.norm(finite, raw_value) == finite.b**canonical.target_exp
            ), {"x": pt.x, "element": element.coeffs, "shift": shift}

    def certificates():
        for n in (3, 5):
            for r in range(1, n):
                if gcd(r, n) == 1:
                    for l in cov.coverage_subgroup(n, r).subgroup:
                        record = mon.verify_certificate(mon.make_certificate(n, r, l))
                        yield record.passed, {"n": n, "r": r, "l": l}

    return [
        case_check("composition of norm-set maps is associative", associativity()),
        case_check("tau-conjugation is multiplicative", conjugation()),
        case_check("shift maps compose additively", shifts()),
        case_check("monomials commute with shifts via the augmentation", monomial_shift()),
        case_check("canonical and raw forms act identically on points", canonical_forms()),
        case_check("certificates verify for every covered residue", certificates()),
    ]


def s3_spanning_points(tw):
    """Norm-set points of six units, with k = 0, and of their negatives, with k = 1.

    The units are 1, zeta, c - 1, zeta (c - 1), (c - 1)^2 and zeta (c - 1)^2,
    zeta and c found by their labels "z" and "c"; x = -1 is among the points.
    On builtin_s3 the units span the field.
    """
    from . import tower as tow

    zeta, c = (tw.basis_element(tw.labels.index(label)) for label in ("z", "c"))
    c_minus_1 = c - tw.one
    units = [z * d for d in (tw.one, c_minus_1, c_minus_1 * c_minus_1) for z in (tw.one, zeta)]
    points = [tow.make_norm_point(tw, u, 0) for u in units]
    points.extend(tow.make_norm_point(tw, -u, 1) for u in units)
    return points


def tower_checks(tw, points, rng):
    """The checks of a NumberTower tw on its norm-set points; rng draws the random cases.

    Every size and exponent comes from tw: tau sigma = sigma^r tau on the basis,
    tau-hat iterated m times, and the tau-fixed monomials as the weight vectors
    in [-2, 2] over the <r>-orbits, in itertools.product order.
    """
    from . import tower as tow
    from .linalg import rank_rational

    def construction():
        yield tw.tau(tw.b) == tw.lam**tw.n * tw.b**tw.r, {
            "identity": f"tau(b) = lam^{tw.n} * b^{tw.r}"
        }
        yield tw.r * tw.t == tw.s * tw.n + 1, {"identity": "r*t = s*n + 1"}
        for i in range(tw.dim):
            x = tw.basis_element(i)
            yield tw.tau(tw.sigma(x)) == orbit(tw.sigma, tw.tau(x), tw.r % tw.n + 1)[-1], {
                "identity": f"tau sigma = sigma^{tw.r} tau on basis element {i}"
            }

    def fixed_degrees():
        def fixed_dimension(matrix):
            size = range(tw.dim)
            return tw.dim - rank_rational([[matrix[i][j] - (i == j) for j in size] for i in size])

        sigma_dim, tau_dim = fixed_dimension(tw.sigma_matrix), fixed_dimension(tw.tau_matrix)
        return (sigma_dim == tw.m and tau_dim == tw.n,
                f"dim E^sigma = {sigma_dim}, dim E^tau = {tau_dim}")

    def norms():
        for _ in range(20):
            x, y = tw.random_element(rng), tw.random_element(rng)
            nx = tow.norm(tw, x)
            yield (
                tw.sigma(nx) == nx and tow.norm(tw, x * y) == nx * tow.norm(tw, y)
            ), {"x": x, "y": y}

    def tau_hat_order():
        for pt in points:
            image = orbit(lambda x: tow.tau_hat(tw, x), pt, tw.m + 1)[-1]
            yield image.x == pt.x, {"x": pt.x, "k": pt.k}

    def fixed_monomials():
        tau = TauData(tw.n, tw.r % tw.n)
        for weights in itertools.product(range(-2, 3), repeat=len(tau.orbits())):
            if not any(weights):
                continue
            element = _orbit_weighted(tau, weights)
            for pt in points:
                lhs = tow.tau_hat(tw, tow.apply_monomial_point(tw, element, pt))
                rhs = tow.apply_monomial_point(tw, element, tow.tau_hat(tw, pt))
                yield lhs == rhs, {"element": element.coeffs, "x": pt.x, "k": pt.k}

    def shifts():
        for k in range(-3, 4):
            for pt in points:
                lhs = tow.tau_hat(tw, tow.phi_k_apply(tw, pt, k))
                rhs = tow.phi_k_apply(tw, tow.tau_hat(tw, pt), k)
                yield lhs == rhs, {"shift": k, "x": pt.x, "k": pt.k}

    def monomial_shift():
        for _ in range(20):
            element = GroupRingElement(tw.n, [rng.randint(-2, 2) for _ in range(tw.n)])
            k = rng.randint(-2, 2)
            pt = rng.choice(points)
            via_shift_first = tow.apply_monomial_point(tw, element, tow.phi_k_apply(tw, pt, k))
            via_monomial_first = tow.phi_k_apply(
                tw, tow.apply_monomial_point(tw, element, pt), element.augmentation() * k
            )
            yield (
                via_shift_first == via_monomial_first
                and tow.norm(tw, tow.apply_monomial(tw, element, pt.x))
                == tw.b ** (pt.k * element.augmentation())
            ), {"element": element.coeffs, "shift": k, "x": pt.x, "k": pt.k}

    def round_trip():
        loaded = tow.load_tower(tow.dump_tower(tw))
        differs = [
            part for part in ("table", "sigma_matrix", "tau_matrix")
            if getattr(loaded, part) != getattr(tw, part)
        ]
        yield not differs, {"tower": repr(tw), "differs": differs}

    return [
        case_check("s3 construction self-checks", construction()),
        fact_check("fixed subfields have degrees m and n", fixed_degrees),
        case_check("norm is sigma-fixed and multiplicative", norms()),
        case_check(
            "tau-hat preserves norm sets",
            ((tow.point_is_valid(tw, tow.tau_hat(tw, pt)), {"x": pt.x, "k": pt.k})
             for pt in points),
        ),
        case_check("tau-hat squares to the identity", tau_hat_order()),
        case_check("tau-hat commutes with fixed monomials", fixed_monomials()),
        case_check("phi_k commutes with tau-hat", shifts()),
        case_check("monomial/shift commutation and norm bookkeeping on points", monomial_shift()),
        case_check("fixture round trip reproduces the tower", round_trip()),
    ]


def suite_tower(seed=0):
    from . import tower as tow

    s3 = tow.builtin_s3()
    return tower_checks(s3, s3_spanning_points(s3), random.Random(seed))


def crossed_checks(instances):
    """The delta z = c, round-trip, dimension and corrupted-chain checks, on any tower.

    instances() yields (algebra, chain) pairs; each check calls it inside its cases, so
    a raising build fails one case of each. A failing case names repr(algebra.tower) and the chain.
    """
    from . import crossed as cp

    ideal_of = functools.cache(cp.ideal_from_chain)

    def named(algebra, chain, **more):
        return {"tower": repr(algebra.tower), "chain": chain.values, **more}

    def splitting():
        for algebra, chain in instances():
            yield cp.is_splitting_chain(algebra, chain), named(algebra, chain)

    def round_trips():
        for algebra, chain in instances():
            ideal = ideal_of(algebra, chain)
            recovered = cp.chain_from_ideal(algebra, ideal)
            yield (
                recovered.values == chain.values
                and cp.ideal_from_chain(algebra, recovered) == ideal
            ), named(algebra, chain, recovered=recovered.values)

    def dimensions():
        for algebra, chain in instances():
            dimension = ideal_of(algebra, chain).dimension
            yield dimension == algebra.n**2 - algebra.n, named(algebra, chain, dimension=dimension)

    def corrupted_chains():
        for algebra, chain in instances():
            bad = cp.corrupt_chain(algebra, chain)
            ok = not cp.is_splitting_chain(algebra, bad)
            try:
                cp.ideal_from_chain(algebra, bad)
                ok = False
            except ValueError:
                pass
            yield ok, named(algebra, bad)

    return [
        case_check("partial-norm chains satisfy delta z = c", splitting()),
        case_check("chain/ideal round trips are mutually inverse", round_trips()),
        case_check("ideals have dimension n^2 - n", dimensions()),
        case_check("corrupted chains are rejected", corrupted_chains()),
    ]


def suite_crossed(seed=0):
    from . import crossed as cp
    from . import tower as tow

    rng = random.Random(seed)
    finite = [cp.random_cyclic_instance(rng.choice([3, 5]), rng.choice([2, 3]), rng)[:2]
              for _ in range(20)]
    # built once, inside the cases of the checks that use it: a raising build fails those alone
    s3 = functools.cache(lambda: cp.CrossedProduct(tow.builtin_s3()))

    def instances():
        yield from finite
        algebra = s3()
        for pt in s3_spanning_points(algebra.tower)[6:]:
            yield algebra, cp.chain_from_unit(algebra, pt.x)

    def corrupted_cocycle():
        algebra, _, _ = cp.random_cyclic_instance(3, 3, rng)
        corrupted = dict(algebra.cocycle)
        corrupted[(1, 1)] = corrupted[(1, 1)] * algebra.tower.field.from_int(2)
        broken = cp.CrossedProduct(algebra.tower, corrupted, validate=False)
        triples = (
            [tuple(algebra.tower.random_element(rng) for _ in range(3)) for _ in range(3)]
            for _ in range(40)
        )
        associative = all(
            broken.multiply(broken.multiply(x, y), z) == broken.multiply(x, broken.multiply(y, z))
            for x, y, z in triples
        )
        holds = cp.cocycle_condition_holds(algebra.tower, corrupted)
        yield not (associative or holds), {
            "q": 3, "n": 3, "entry": (1, 1), "associative": associative,
            "cocycle condition holds": holds,
        }

    def norm_elements():
        algebra, _, _ = cp.random_cyclic_instance(5, 3, rng)
        spanning = algebra.tower.l_basis() + [algebra.tower.random_unit(rng) for _ in range(2)]
        for x in spanning:
            for i in range(1, 2 * algebra.n + 1):
                yield cp.norm_element_check(algebra, x, i).passed, {"x": x, "i": i}

    chains = crossed_checks(instances)
    return [
        *chains[:3],
        case_check("corrupted cocycle breaks associativity", corrupted_cocycle()),
        chains[3],
        case_check("norm-element identity on a spanning set", norm_elements()),
        *cp.tau_action_check(s3),
        *cp.tensor_power_check(cp.random_cyclic_instance(3, 2, rng)[0], 2),
    ]


SUITES = {
    "group-ring": suite_group_ring,
    "quotient": suite_quotient,
    "coverage": suite_coverage,
    "monomial": suite_monomial,
    "tower": suite_tower,
    "crossed": suite_crossed,
}


def run_suites(names, seed=0):
    """Run the named suites; returns {suite: [CheckResult, ...]}.

    A suite that raises outside its cases is reported as one failed check,
    named "<suite> suite", that gives the error; the other suites still run.
    """
    outcome = {}
    for name in names:
        try:
            outcome[name] = SUITES[name](seed)
        except Exception as error:
            outcome[name] = [CheckResult(f"{name} suite", False, f"raised {error!r}")]
    return outcome
