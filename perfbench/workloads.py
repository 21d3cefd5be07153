"""The four workloads: seeded inputs and the ops that run them.

An op is one user-level call: an ``sdpcert`` command through the in-process
``sdpcert.cli.main`` with JSON output, or, for the exact models, which have
no command finer than a whole suite, one library call sequence. Every run
repeats one round of ops, so the same seed always attempts the same
operations in the same order.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from math import gcd

from perfbench import expected


@dataclass
class Op:
    """One timed operation; ``kind`` selects its checker, ``params`` are its inputs."""

    kind: str
    params: dict
    run: object = field(repr=False)

    @property
    def label(self):
        return self.kind + " " + " ".join(f"{k}={v}" for k, v in self.params.items())


@dataclass
class Workload:
    """A named op set; ``tail_pct`` is the percentile op_tail_ms reports for it."""

    name: str
    tail_pct: int
    build: object = field(repr=False)


def _cli_op(kind, params, argv):
    from sdpcert import cli

    def run():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        return code, buffer.getvalue()

    return Op(kind, params, run)


def subgroup_generators(n, orders):
    """Generators of each cyclic subgroup <r> of (Z/nZ)* with r not in {1, n-1} and order in orders.

    All generators of one subgroup fix the same subring of S, so picking
    one of them by seed varies the input while the work stays nearly the same.
    """
    groups = {}
    for r in range(2, n - 1):
        if gcd(r, n) == 1:
            group = expected.cyclic_subgroup(n, r)
            if len(group) in orders:
                groups.setdefault(group, []).append(r)
    return sorted(groups.values())


# --- coverage -------------------------------------------------------------

# r = n-1 for four odd n spread over the range: the expensive ops of a round.
# Odd n with r = n-1 must give full coverage, which the checks use.
COVERAGE_FIXED = tuple((n, n - 1) for n in (21, 25, 29, 33))
COVERAGE_N = range(20, 34)
COVERAGE_ORDERS = range(3, 7)


def coverage_op(n, r):
    return _cli_op("coverage", {"n": n, "r": r},
                   ["coverage", "--n", str(n), "--r", str(r), "--format", "json"])


def build_coverage(rng):
    """The fixed r = n-1 pairs, plus a seeded generator of every subgroup of order 3 to 6, n in 20..33."""
    pairs = list(COVERAGE_FIXED)
    for n in COVERAGE_N:
        pairs.extend((n, rng.choice(gens)) for gens in subgroup_generators(n, COVERAGE_ORDERS))
    rng.shuffle(pairs)
    return [coverage_op(n, r) for n, r in pairs]


# --- certificates -----------------------------------------------------------

CERTIFICATE_FIXED = ((13, 12), (16, 15), (20, 19))
CERTIFICATE_N = range(11, 22)


def certificate_op(n, r, l):
    return _cli_op("certificate", {"n": n, "r": r, "l": l},
                   ["certificate", "--n", str(n), "--r", str(r), "--l", str(l),
                    "--format", "json"])


def build_certificates(rng):
    """Every covered residue of three fixed r = n-1 actions and of a seeded generator of
    every other cyclic subgroup of (Z/nZ)*, n in 11..21; the residues of one (n, r) in a row.

    The residues are the recorded ones of ``expected``, not the program's.
    """
    pairs = list(CERTIFICATE_FIXED)
    for n in CERTIFICATE_N:
        pairs.extend((n, rng.choice(gens)) for gens in subgroup_generators(n, range(2, n)))
    rng.shuffle(pairs)
    return [certificate_op(n, r, l) for n, r in pairs for l in expected.covered(n, r)]


# --- oracle -----------------------------------------------------------------

ORACLE_BOUND = 2
ORACLE_MAX_N = 10


class UnitCapture:
    """Keeps the unit list each exhaustive oracle call returns, for the checks.

    The CLI prints only the count and residues of the oracle's units; the
    checks need the units themselves. The shim adds one Python call per op.
    """

    def __init__(self):
        self.last = None
        self._original = None

    def install(self):
        from sdpcert import coverage

        self._original = original = coverage.exhaustive_fixed_units

        def capture(*args, **kwargs):
            self.last = original(*args, **kwargs)
            return self.last

        coverage.exhaustive_fixed_units = capture

    def uninstall(self):
        from sdpcert import coverage

        coverage.exhaustive_fixed_units = self._original


def oracle_pairs():
    return [(n, r) for n in range(2, ORACLE_MAX_N + 1) for r in range(1, n) if gcd(r, n) == 1]


def oracle_op(n, r, capture):
    op = _cli_op("oracle", {"n": n, "r": r},
                 ["coverage", "--n", str(n), "--r", str(r), "--exhaustive",
                  str(ORACLE_BOUND), "--format", "json"])
    cli_run = op.run

    def run():
        capture.last = None
        code, text = cli_run()
        return code, text, capture.last

    op.run = run
    return op


def build_oracle(rng, capture):
    pairs = oracle_pairs()
    rng.shuffle(pairs)
    return [oracle_op(n, r, capture) for n, r in pairs]


# --- models -----------------------------------------------------------------

MODEL_POINTS = 24
FINITE_TOWERS = tuple((q, n) for q in (3, 5, 7) for n in (2, 3))


def s3_point_inputs(rng, s3):
    """A seeded norm-set point of the x^3 - 2 tower, a monomial with a negative exponent, a shift.

    Points are +-products of two norm-1 units (zeta, c-1 and their
    products) raised to exponents in {-1, 1, 2}; the sign sets k, since
    N(-1) = -1 = b.
    """
    zeta = s3.basis_element(3)
    c_minus_1 = s3.basis_element(1) - s3.one
    units = [zeta, c_minus_1, zeta * c_minus_1, c_minus_1 * c_minus_1]
    x = s3.one
    for unit in rng.sample(units, 2):
        x = x * unit ** rng.choice((-1, 1, 2))
    k = rng.randint(0, 1)
    if k:
        x = -x
    coeffs = [rng.randint(-2, 2) for _ in range(3)]
    coeffs[rng.randrange(3)] = rng.randint(-2, -1)
    return x, k, tuple(coeffs), rng.randint(-3, 3)


def s3_point_op(s3, x, k, coeffs, shift):
    from sdpcert import tower
    from sdpcert.group_ring import GroupRingElement

    point = tower.NormSetPoint(x, k)
    element = GroupRingElement(3, coeffs)

    def run():
        return {
            "tau_hat": tower.tau_hat(s3, point),
            "monomial": tower.apply_monomial_point(s3, element, point),
            "shift": tower.phi_k_apply(s3, point, shift),
            "norm": tower.norm(s3, point.x),
        }

    return Op("s3-point", {"k": k, "monomial": coeffs, "shift": shift, "x": x.coords}, run)


def tau_action_op(s3):
    from sdpcert import crossed

    def run():
        return crossed.tau_action_check(crossed.CrossedProduct(s3))

    return Op("s3-tau-action", {}, run)


def finite_op(q, n, instance_seed):
    from sdpcert import crossed

    def run():
        algebra, chain, y = crossed.random_cyclic_instance(q, n, random.Random(instance_seed))
        ideal = crossed.ideal_from_chain(algebra, chain)
        recovered = crossed.chain_from_ideal(algebra, ideal)
        norm_checks = [crossed.norm_element_check(algebra, y, i) for i in range(1, 2 * n + 1)]
        return {"algebra": algebra, "chain": chain, "y": y, "ideal": ideal,
                "recovered": recovered, "norm_checks": norm_checks}

    return Op("finite", {"q": q, "n": n, "instance_seed": instance_seed}, run)


def build_models(rng):
    from sdpcert import tower

    s3 = tower.builtin_s3()
    ops = [tau_action_op(s3)]
    ops.extend(finite_op(q, n, rng.randrange(1 << 30)) for q, n in FINITE_TOWERS)
    ops.extend(s3_point_op(s3, *s3_point_inputs(rng, s3)) for _ in range(MODEL_POINTS))
    rng.shuffle(ops)
    return ops


# Why each workload exists is recorded in BENCHMARK.json and README.md. The
# tail percentile is the highest with at least ten ops beyond it in the ops
# a run makes at its shortest (two rounds, or more for models).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("coverage", 75, build_coverage),
        Workload("certificates", 95, build_certificates),
        Workload("oracle", 75, build_oracle),
        Workload("models", 95, build_models),
    )
}


def build(name, seed, capture=None):
    """The ops of one round of the named workload; the same seed gives the same ops."""
    rng = random.Random(f"perfbench:{name}:{seed}")
    if name == "oracle":
        return build_oracle(rng, capture if capture is not None else UnitCapture())
    return WORKLOADS[name].build(rng)
