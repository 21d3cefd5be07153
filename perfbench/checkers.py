"""Output checks that do not trust the program.

Each checker recomputes what it can with its own code: the tau-action as an
index permutation, convolution in the group ring, multiplicative closures,
unit tests by sympy's resultant or by the determinant of a multiplication
matrix, and arithmetic in the splitting field of x^3 - 2. Where an output can
only be judged by a property the method must have (an involution, a round
trip, a rejected corrupted chain), the checker calls the program again,
outside the timed section. Reported coverage must also contain the covered
subgroup recorded in ``expected``. A checker returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import gcd

from perfbench import expected

ORACLE_COMPLETE_LIMIT = 5**5


# --- shared exact helpers ---------------------------------------------------

def units_mod(n):
    return tuple(x for x in range(1, n) if gcd(x, n) == 1) or (1,)


def closure(residues, n):
    """Multiplicative closure in (Z/nZ)*, always containing 1."""
    known = {1 % n}
    frontier = [x % n for x in residues]
    while frontier:
        x = frontier.pop()
        if x in known:
            continue
        known.add(x)
        frontier.extend((x * y) % n for y in list(known))
    return tuple(sorted(known))


def tau_group_ring(coeffs, r):
    """sigma^i -> sigma^(i*r) on a length-n coefficient vector."""
    n = len(coeffs)
    out = [0] * n
    for i, c in enumerate(coeffs):
        out[(i * r) % n] = c
    return out


def tau_canonical(coeffs, r):
    """tau on canonical S-coordinates: lift with a zero top coefficient, permute, reduce."""
    image = tau_group_ring(list(coeffs) + [0], r)
    top = image[-1]
    return [c - top for c in image[:-1]]


def convolve(a, b):
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[(i + j) % n] += x * y
    return out


def sympy_is_unit(coeffs):
    """Resultant with 1 + x + ... + x^(n-1) by sympy; a unit of S exactly when it is +-1."""
    import sympy

    x = sympy.Symbol("x")
    n = len(coeffs) + 1
    f = sympy.Poly(list(reversed(coeffs)), x, domain="ZZ")
    if f.is_zero:
        return False
    return abs(sympy.resultant(f, sympy.Poly([1] * n, x, domain="ZZ"))) == 1


def _determinant(rows):
    """Fraction-free elimination; the benchmark's own copy, used on multiplication matrices."""
    mat = [list(row) for row in rows]
    size = len(mat)
    sign, prev = 1, 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            pivot = next((i for i in range(k + 1, size) if mat[i][k]), None)
            if pivot is None:
                return 0
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
        prev = mat[k][k]
    return sign * mat[-1][-1] if size else 1


def norm_is_unit(coeffs):
    """Unit test by the determinant of multiplication on S = Z[x]/(1 + ... + x^(n-1)).

    Multiplying by x^j is a cyclic shift of the lifted vector followed by
    the canonical reduction, since x^n = 1 in S.
    """
    lifted = list(coeffs) + [0]
    n = len(lifted)
    columns = []
    for j in range(n - 1):
        shifted = lifted[-j:] + lifted[:-j] if j else lifted
        top = shifted[-1]
        columns.append([c - top for c in shifted[:-1]])
    return abs(_determinant([list(row) for row in zip(*columns)])) == 1


# --- coverage ---------------------------------------------------------------

def _load(code, text, problems):
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        report = json.loads(text)
    except ValueError:
        problems.append("output is not JSON")
        return None
    if report.get("status") != "ok":
        problems.append(f"status {report.get('status')!r}")
    return report


def check_coverage_payload(payload, n, r):
    problems = []
    if (payload["n"], payload["r"]) != (n, r):
        problems.append("report is for another (n, r)")
    residues = []
    for gen in payload["generators"]:
        coeffs = gen["coeffs"]
        if len(coeffs) != n - 1:
            problems.append(f"generator {coeffs} has the wrong length")
            continue
        if tau_canonical(coeffs, r) != list(coeffs):
            problems.append(f"generator {coeffs} is not tau-fixed")
        if sum(coeffs) % n != gen["residue"]:
            problems.append(f"generator {coeffs} does not have residue {gen['residue']}")
        if not sympy_is_unit(coeffs):
            problems.append(f"generator {coeffs} is not a unit by sympy")
        residues.append(gen["residue"])
    if tuple(payload["subgroup"]) != closure(residues, n):
        problems.append("subgroup is not the closure of the generator residues")
    full = tuple(payload["subgroup"]) == units_mod(n)
    if payload["is_full"] != full:
        problems.append("is_full disagrees with the subgroup")
    if n % 2 == 1 and n >= 3 and r == n - 1 and not full:
        problems.append("r = n-1 with n odd must give full coverage")
    try:
        recorded = expected.covered(n, r)
    except KeyError:
        problems.append("no recorded coverage for this (n, <r>)")
    else:
        if not set(recorded) <= set(payload["subgroup"]):
            problems.append(f"subgroup does not contain the recorded coverage {recorded}")
    return problems


def check_coverage(op, output):
    code, text = output
    problems = []
    report = _load(code, text, problems)
    if report is not None:
        problems += check_coverage_payload(
            report["results"]["coverage"], op.params["n"], op.params["r"])
    return problems


# --- certificates -----------------------------------------------------------

def check_certificate_payload(cert, n, r, l):
    problems = []
    if (cert["n"], cert["r"], cert["l"]) != (n, r, l):
        problems.append("certificate is for another (n, r, l)")
    alpha, beta = cert["alpha_tilde"], cert["beta_tilde"]
    k, s = cert["k"], cert["s"]
    if len(alpha) != n or len(beta) != n:
        return problems + ["lifts do not have n coefficients"]
    if tau_group_ring(alpha, r) != alpha:
        problems.append("alpha_tilde is not tau-fixed")
    if tau_group_ring(beta, r) != beta:
        problems.append("beta_tilde is not tau-fixed")
    product = convolve(beta, alpha)
    product[0] -= 1
    if len(set(product)) != 1:
        problems.append("beta*alpha - 1 is not a multiple of N")
        r_prime = None
    else:
        r_prime = product[0]
    eps_alpha, eps_beta = sum(alpha), sum(beta)
    if eps_alpha != l + k * n:
        problems.append("eps(alpha) != l + k*n")
    if eps_beta * l != 1 + n * s:
        problems.append("eps(beta)*l != 1 + n*s")
    if r_prime is not None and r_prime - s - eps_beta * k != 0:
        problems.append("r' - s - eps(beta)*k != 0")
    return problems


def check_certificate(op, output):
    code, text = output
    problems = []
    report = _load(code, text, problems)
    if report is not None:
        results = report["results"]
        if not results.get("verification", {}).get("passed"):
            problems.append("program's own verification did not pass")
        problems += check_certificate_payload(
            results["certificate"], op.params["n"], op.params["r"], op.params["l"])
    return problems


# --- oracle -----------------------------------------------------------------

def orbit_labels(n, r):
    """Orbit index of each i in Z/n under i -> i*r."""
    labels = [-1] * n
    count = 0
    for i in range(n):
        if labels[i] < 0:
            j = i
            while labels[j] < 0:
                labels[j] = count
                j = (j * r) % n
            count += 1
    return labels, count


def fixed_units_by_orbits(n, r, bound):
    """Every tau-fixed unit in the box, enumerated as integer weights on the <r>-orbits.

    A canonical element is tau-fixed exactly when its lift, with top
    coefficient 0, is constant on orbits; the orbit of n-1 therefore has
    weight 0.
    """
    labels, count = orbit_labels(n, r)
    free = [o for o in range(count) if o != labels[n - 1]]
    found = set()
    for weights in itertools.product(range(-bound, bound + 1), repeat=len(free)):
        weight = dict(zip(free, weights))
        coeffs = tuple(weight.get(labels[i], 0) for i in range(n - 1))
        if any(coeffs) and norm_is_unit(coeffs):
            found.add(coeffs)
    return found


def oracle_is_small(n, r, bound):
    _, count = orbit_labels(n, r)
    return (2 * bound + 1) ** (count - 1) <= ORACLE_COMPLETE_LIMIT


def check_oracle(op, output):
    code, text, units = output
    n, r = op.params["n"], op.params["r"]
    problems = []
    report = _load(code, text, problems)
    if report is None:
        return problems
    results = report["results"]
    problems += check_coverage_payload(results["coverage"], n, r)
    oracle = results["oracle"]
    bound = oracle["bound"]
    if units is None:
        return problems + ["the oracle's unit list was not captured"]
    coeff_sets = [tuple(u.coeffs) for u in units]
    for coeffs in coeff_sets:
        if len(coeffs) != n - 1 or any(abs(c) > bound for c in coeffs):
            problems.append(f"unit {coeffs} is outside the box")
        elif tau_canonical(coeffs, r) != list(coeffs):
            problems.append(f"unit {coeffs} is not tau-fixed")
        elif not sympy_is_unit(coeffs):
            problems.append(f"unit {coeffs} is not a unit by sympy")
    if len(set(coeff_sets)) != len(coeff_sets):
        problems.append("the oracle returned a unit twice")
    if oracle["unit_count"] != len(coeff_sets):
        problems.append("unit_count differs from the units returned")
    residues = sorted({sum(c) % n for c in coeff_sets})
    if oracle["residues"] != residues:
        problems.append("oracle residues differ from the units' residues")
    if tuple(oracle["subgroup"]) != closure(residues, n):
        problems.append("oracle subgroup is not the closure of its residues")
    if not oracle["agrees"] or oracle["subgroup"] != results["coverage"]["subgroup"]:
        problems.append("oracle and generator coverage disagree")
    if oracle_is_small(n, r, bound) and fixed_units_by_orbits(n, r, bound) != set(coeff_sets):
        problems.append("unit set differs from the enumeration over orbit weights")
    return problems


# --- models: the splitting field of x^3 - 2 ------------------------------------
# Basis zeta^a c^e at index 3a + e, with c^3 = 2 and zeta^2 = -1 - zeta;
# sigma: c -> zeta*c, zeta fixed; tau: zeta -> zeta^2, c fixed; b = lambda = -1.

def _s3_add_monomial(out, coeff, a, e):
    if e >= 3:
        coeff, e = coeff * 2, e - 3
    a %= 3
    if a == 2:
        out[e] -= coeff
        out[3 + e] -= coeff
    else:
        out[3 * a + e] += coeff


def s3_mul(x, y):
    out = [Fraction(0)] * 6
    for i, u in enumerate(x):
        if u:
            for j, v in enumerate(y):
                if v:
                    _s3_add_monomial(out, u * v, i // 3 + j // 3, i % 3 + j % 3)
    return out


def s3_sigma(x):
    out = [Fraction(0)] * 6
    for i, u in enumerate(x):
        _s3_add_monomial(out, u, i // 3 + i % 3, i % 3)
    return out


def s3_tau(x):
    out = [Fraction(0)] * 6
    for i, u in enumerate(x):
        _s3_add_monomial(out, u, 2 * (i // 3), i % 3)
    return out


def s3_scale(x, c):
    return [c * u for u in x]


def s3_norm(x):
    return s3_mul(s3_mul(x, s3_sigma(x)), s3_sigma(s3_sigma(x)))


def s3_power(x, e):
    out = [Fraction(1)] + [Fraction(0)] * 5
    for _ in range(e):
        out = s3_mul(out, x)
    return out


def s3_constant(c):
    return [Fraction(c)] + [Fraction(0)] * 5


def s3_tau_hat(x, k):
    """x -> tau(x*sigma(x)) / (lambda^(2k) b^k) with t = 2, s = 1 and b = lambda = -1."""
    return s3_scale(s3_tau(s3_mul(x, s3_sigma(x))), (-1) ** k)


def check_s3_point(op, output):
    k, coeffs, shift = op.params["k"], op.params["monomial"], op.params["shift"]
    x = [Fraction(c) for c in op.params["x"]]
    problems = []
    if s3_norm(x) != s3_constant((-1) ** k):
        problems.append("input point is not in its norm set")
    image = output["tau_hat"]
    expected = s3_tau_hat(x, k)
    if list(image.x.coords) != expected or image.k != k:
        problems.append("tau-hat image differs from tau(x*sigma(x))*(-1)^k")
    if s3_norm(list(image.x.coords)) != s3_constant((-1) ** k):
        problems.append("tau-hat image left the norm set")
    if s3_tau_hat(expected, k) != x:
        problems.append("tau-hat is not an involution")
    mono = output["monomial"]
    positive, negative = s3_constant(1), s3_constant(1)
    conjugate = x
    for e in coeffs:
        if e > 0:
            positive = s3_mul(positive, s3_power(conjugate, e))
        elif e < 0:
            negative = s3_mul(negative, s3_power(conjugate, -e))
        conjugate = s3_sigma(conjugate)
    augmentation = sum(coeffs)
    if s3_mul(list(mono.x.coords), negative) != positive or mono.k != k * augmentation:
        problems.append("monomial image differs from prod sigma^i(x)^(e_i)")
    if s3_norm(list(mono.x.coords)) != s3_constant((-1) ** (k * augmentation)):
        problems.append("monomial image left the norm set")
    shifted = output["shift"]
    if list(shifted.x.coords) != s3_scale(x, (-1) ** shift) or shifted.k != k + 3 * shift:
        problems.append("shift image differs from x*b^k")
    if list(output["norm"].coords) != s3_norm(x):
        problems.append("norm differs from x*sigma(x)*sigma^2(x)")
    return problems


TAU_ACTION_CHECKS = frozenset({
    "tau(u)*tau(x) = tau(sigma(x))*tau(u)",
    "tau(u^n) = tau(b)",
    "tau is multiplicative on the algebra",
    "tau^m fixes u",
})


def check_tau_action(op, output):
    names = {c.name for c in output}
    problems = [f"check {c.name!r} failed" for c in output if not c.passed]
    if names != TAU_ACTION_CHECKS:
        problems.append(f"unexpected check set {sorted(names)}")
    return problems


def check_finite(op, output):
    from sdpcert import crossed

    n = op.params["n"]
    algebra, chain = output["algebra"], output["chain"]
    problems = []
    if algebra.tower.field.order != op.params["q"] ** n:
        problems.append("tower has the wrong order")
    if chain.values[0] != algebra.tower.one or chain.values[1] != output["y"]:
        problems.append("chain is not the partial-norm chain of y")
    if output["ideal"].dimension != n * n - n:
        problems.append(f"ideal has dimension {output['ideal'].dimension}, not n^2 - n")
    if output["recovered"].values != chain.values:
        problems.append("chain -> ideal -> chain is not the identity")
    if len(output["norm_checks"]) != 2 * n or not all(c.passed for c in output["norm_checks"]):
        problems.append("a norm-element identity failed")
    if not crossed.is_splitting_chain(algebra, chain):
        problems.append("chain does not satisfy delta z = c")
    bad = crossed.corrupt_chain(algebra, chain)
    try:
        crossed.ideal_from_chain(algebra, bad)
        problems.append("a corrupted chain was accepted")
    except ValueError:
        pass
    return problems


def check(op, output):
    """Problems with one op's output, by its kind."""
    if op.kind == "coverage":
        return check_coverage(op, output)
    if op.kind == "certificate":
        return check_certificate(op, output)
    if op.kind == "oracle":
        return check_oracle(op, output)
    if op.kind == "s3-point":
        return check_s3_point(op, output)
    if op.kind == "s3-tau-action":
        return check_tau_action(op, output)
    if op.kind == "finite":
        return check_finite(op, output)
    raise ValueError(f"no checker for op kind {op.kind!r}")


def fingerprint(op, output):
    """A string that is equal for equal outputs, to compare later rounds with the first."""
    if op.kind in ("coverage", "certificate"):
        return repr(output)
    if op.kind == "oracle":
        code, text, units = output
        return repr((code, text, None if units is None else [u.coeffs for u in units]))
    if op.kind == "s3-point":
        return repr({key: (getattr(v, "x", v), getattr(v, "k", None)) for key, v in
                     sorted(output.items())})
    if op.kind == "s3-tau-action":
        return repr([(c.name, c.passed) for c in output])
    return repr((output["chain"].values, output["y"], output["ideal"].rows,
                 output["recovered"].values, [c.passed for c in output["norm_checks"]]))
