import dataclasses
import json
import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

from sdpcert import quotient
from sdpcert import tower as tow
from sdpcert.checks import CheckResult
from sdpcert.coverage import coverage_subgroup, tau_symmetrize
from sdpcert.group_ring import GroupRingElement, TauData, full_norm
from sdpcert.monomial import (
    Certificate,
    ExponentMismatchError,
    NormSetMap,
    NotCoveredError,
    compose,
    is_identity,
    make_certificate,
    monomial_map,
    shift_map,
    tau_conjugate,
    verify_certificate,
)
from sdpcert.quotient import SElement, invert, is_unit, lift, reduce


def random_map(rng, n, source_exp, span=2):
    element = GroupRingElement(n, [rng.randint(-span, span) for _ in range(n)])
    return NormSetMap(element, rng.randint(-3, 3), source_exp)


def test_shift_maps_compose_additively():
    inner = shift_map(7, 4, 2)
    outer = shift_map(7, -1, inner.target_exp)
    assert compose(outer, inner) == shift_map(7, 3, 2)


def test_monomial_commutes_with_shift():
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randint(2, 9)
        i = rng.randint(-3, 3)
        k = rng.randint(-3, 3)
        element = GroupRingElement(n, [rng.randint(-2, 2) for _ in range(n)])
        lhs = compose(monomial_map(element, i + n * k), shift_map(n, k, i))
        rhs = compose(
            shift_map(n, element.augmentation() * k, i * element.augmentation()),
            monomial_map(element, i),
        )
        assert lhs == rhs


def test_identity_composes_neutrally():
    rng = random.Random(1)
    f = random_map(rng, 5, 2)
    assert compose(f, shift_map(5, 0, 2)) == f
    assert compose(shift_map(5, 0, f.target_exp), f) == f


def test_compose_exponent_mismatch():
    f = shift_map(5, 1, 0)
    g = shift_map(5, 1, 1)
    with pytest.raises(ExponentMismatchError):
        compose(g, f)  # f targets 5, g starts at 1


def test_one_plus_norm_canonicalizes_to_shift():
    # 1 + N acting on [N = b] is x * N(x) = x * b, i.e. the shift by one;
    # composed with the shift by -1 it is the identity
    n = 6
    mp = NormSetMap(GroupRingElement.one(n) + full_norm(n), 0, 1)
    assert mp == shift_map(n, 1, 1)
    assert is_identity(NormSetMap(GroupRingElement.one(n) + full_norm(n), -1, 1))
    assert not is_identity(monomial_map(GroupRingElement.sigma_power(n, 1), 0))


def test_canonicalization_absorbs_norm_multiples():
    # adding c*N to the monomial while subtracting i*c from the shift is the
    # same map, and canonical forms agree exactly
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(2, 9)
        element = GroupRingElement(n, [rng.randint(-3, 3) for _ in range(n)])
        i = rng.randint(-3, 3)
        k = rng.randint(-3, 3)
        c = rng.randint(-2, 2)
        with_norm = NormSetMap(element + c * full_norm(n), k, i)
        plain = NormSetMap(element, k + i * c, i)
        assert with_norm == plain
        assert with_norm.target_exp == plain.target_exp


def test_canonical_form_subtracts_the_top_coefficient_times_the_norm():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 9)
        monomial = GroupRingElement(n, [rng.randint(-4, 4) for _ in range(n)])
        shift, source_exp = rng.randint(-3, 3), rng.randint(-3, 3)
        top = monomial.coeffs[-1]
        mp = NormSetMap(monomial, shift, source_exp)
        assert mp.monomial == monomial - top * full_norm(n)
        assert mp.shift == shift + source_exp * top


def test_composition_associative():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(2, 9)
        f1 = random_map(rng, n, rng.randint(-3, 3))
        f2 = random_map(rng, n, f1.target_exp)
        f3 = random_map(rng, n, f2.target_exp)
        assert compose(f3, compose(f2, f1)) == compose(compose(f3, f2), f1)


def test_tau_conjugate_examples():
    tau = TauData(3, 2)
    mp = monomial_map(GroupRingElement.sigma_power(3, 1), 1)
    assert tau_conjugate(mp, tau) == monomial_map(GroupRingElement.sigma_power(3, 2), 1)
    fixed = monomial_map(GroupRingElement(3, (1, 2, 2)), 1)
    assert tau_conjugate(fixed, tau) == fixed


def test_tau_conjugate_round_trip_and_multiplicativity():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(3, 9)
        tau = TauData(n, rng.choice([r for r in range(2, n) if gcd(r, n) == 1] or [1]))
        f = random_map(rng, n, rng.randint(-3, 3))
        g = random_map(rng, n, 0)
        h = random_map(rng, n, g.target_exp)
        image = tau_conjugate(f, tau)
        for _ in range(tau.m - 1):
            image = tau_conjugate(image, tau)
        assert image == f
        assert tau_conjugate(compose(h, g), tau) == compose(
            tau_conjugate(h, tau), tau_conjugate(g, tau)
        )


def test_normalization_agrees_with_pointwise_action():
    rng = random.Random(5)
    finite = tow.FiniteTower(5, 3, 2)
    points = [x for x in finite.field.elements() if tow.norm(finite, x) == finite.b]
    for _ in range(40):
        x = rng.choice(points)
        element = GroupRingElement(3, [rng.randint(-2, 2) for _ in range(3)])
        shift = rng.randint(-2, 2)
        canonical = NormSetMap(element, shift, 1)
        raw_value = tow.apply_monomial(finite, element, x) * finite.b**shift
        canonical_value = (
            tow.apply_monomial(finite, canonical.monomial, x) * finite.b**canonical.shift
        )
        assert raw_value == canonical_value
        assert tow.norm(finite, canonical_value) == finite.b**canonical.target_exp


def test_certificate_3_2_2():
    cert = make_certificate(3, 2, 2)
    assert reduce(cert.alpha_tilde) == SElement.constant(3, -1)
    assert reduce(cert.beta_tilde) == invert(reduce(cert.alpha_tilde))
    assert cert.alpha_tilde.augmentation() == 2 + cert.k * 3
    assert cert.beta_tilde.augmentation() * 2 == 1 + 3 * cert.s
    record = verify_certificate(cert)
    assert record.passed
    # the group-ring product is 1 + r'N with the exact zero identity
    deviation = cert.beta_tilde * cert.alpha_tilde - GroupRingElement.one(3)
    assert len(set(deviation.coeffs)) == 1
    r_prime = deviation.coeffs[0]
    assert r_prime - cert.s - cert.beta_tilde.augmentation() * cert.k == 0


def test_identity_certificate():
    cert = make_certificate(5, 2, 1)
    assert cert.alpha_tilde == GroupRingElement.one(5)
    assert cert.beta_tilde == GroupRingElement.one(5)
    assert cert.k == 0 and cert.s == 0
    assert verify_certificate(cert).passed


def test_certificate_5_4_2():
    cert = make_certificate(5, 4, 2)
    assert cert.beta_tilde.augmentation() * 2 % 5 == 1
    assert verify_certificate(cert).passed


def test_certificate_rejects_non_coprime_l():
    with pytest.raises(ValueError):
        make_certificate(6, 5, 3)


def test_certificate_not_covered():
    with pytest.raises(NotCoveredError):
        make_certificate(7, 2, 3)


def test_certificate_checks_the_closed_form_inverse(monkeypatch):
    from sdpcert import coverage

    cert = make_certificate(7, 6, 2)
    assert reduce(cert.beta_tilde) == invert(reduce(cert.alpha_tilde))
    # off by 1 - rho, which keeps the augmentation and so passes the bookkeeping
    real = coverage.cyclotomic_unit_inverse
    monkeypatch.setattr(coverage, "cyclotomic_unit_inverse",
                        lambda n, steps, a: real(n, steps, a) + 1 - SElement.rho_power(n, 1))
    with pytest.raises(RuntimeError):
        make_certificate(7, 6, 2)


def test_certificate_needs_no_norm_test(monkeypatch):
    # alpha * beta = 1, checked exactly, proves both units; only verify_certificate runs is_unit
    from sdpcert import coverage, quotient

    def refuse(s):
        raise AssertionError("is_unit called")

    monkeypatch.setattr(coverage, "is_unit", refuse)
    monkeypatch.setattr(quotient, "is_unit", refuse)
    for n, r in ((13, 12), (13, 4), (16, 15)):
        for l in coverage_subgroup(n, r).subgroup:
            cert = make_certificate(n, r, l)
            assert reduce(cert.alpha_tilde) * reduce(cert.beta_tilde) == SElement.one(n), (n, r, l)


def test_corrupted_certificate_fails_named_checks():
    cert = make_certificate(3, 2, 2)
    off_k = dataclasses.replace(cert, k=cert.k + 1)
    record = verify_certificate(off_k)
    assert not record.passed
    assert not record.named("augmentation-alpha").passed
    assert not record.named("exponent-identity").passed
    off_beta = dataclasses.replace(cert, beta_tilde=cert.beta_tilde + full_norm(3))
    record = verify_certificate(off_beta)
    assert not record.passed
    # a rotated alpha is still a unit but not tau-fixed: the unit test runs without tau
    cert = make_certificate(7, 6, 3)
    rotated = dataclasses.replace(cert, alpha_tilde=cert.alpha_tilde * GroupRingElement.sigma_power(7, 1))
    record = verify_certificate(rotated)
    assert not record.named("alpha-tau-fixed").passed and record.named("alpha-unit").passed
    assert record.named("beta-tau-fixed").passed and record.named("beta-unit").passed


def two_product_checks(cert):
    """mutually-inverse and product-is-one-plus-rN as (passed, detail), by two products.

    The reference for verify_certificate's one product: reduce(alpha)*reduce(beta)
    in S, and beta*alpha in the group ring.
    """
    n = cert.n
    mutual = reduce(cert.alpha_tilde) * reduce(cert.beta_tilde) == SElement.one(n)
    levels = set((cert.beta_tilde * cert.alpha_tilde - GroupRingElement.one(n)).coeffs)
    if len(levels) == 1:
        product = (True, f"beta*alpha = 1 + {levels.pop()}*N")
    else:
        product = (False, "beta*alpha - 1 is not a multiple of N")
    return {"mutually-inverse": (mutual, "reduce(alpha)*reduce(beta) must be 1 in S"),
            "product-is-one-plus-rN": product}


def certificates_to_check():
    """Valid certificates, the corrupted ones above, and lifts with a nonzero top coefficient."""
    cert = make_certificate(3, 2, 2)
    yield cert
    yield dataclasses.replace(cert, k=cert.k + 1)
    yield dataclasses.replace(cert, beta_tilde=cert.beta_tilde + full_norm(3))
    cert = make_certificate(7, 6, 3)
    yield cert
    yield dataclasses.replace(cert, alpha_tilde=cert.alpha_tilde * GroupRingElement.sigma_power(7, 1))
    # the same unit of S by another lift, and a lift of another element
    yield dataclasses.replace(cert, alpha_tilde=cert.alpha_tilde + 2 * full_norm(7))
    yield dataclasses.replace(cert, alpha_tilde=cert.alpha_tilde + GroupRingElement.sigma_power(7, 6))
    for l in coverage_subgroup(13, 12).subgroup:
        yield make_certificate(13, 12, l)
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(2, 9)
        alpha, beta = (GroupRingElement(n, [rng.randint(-2, 2) for _ in range(n)]) for _ in "ab")
        yield dataclasses.replace(cert, n=n, r=1, alpha_tilde=alpha, beta_tilde=beta)


def test_one_product_decides_both_product_checks_as_two_did():
    outcomes = set()
    for cert in certificates_to_check():
        record = verify_certificate(cert)
        for name, expected in two_product_checks(cert).items():
            check = record.named(name)
            assert (check.passed, check.detail) == expected, (name, cert)
            outcomes.add((name, check.passed))
    # each check both passes and fails on these certificates
    assert len(outcomes) == 4


def test_certificates_for_all_covered_residues_up_to_nine():
    for n in range(2, 10):
        for r in range(1, n):
            if gcd(r, n) != 1:
                continue
            for l in coverage_subgroup(n, r).subgroup:
                record = verify_certificate(make_certificate(n, r, l))
                assert record.passed, (n, r, l)


def test_certificate_for_negative_and_large_l():
    # l enters the bookkeeping as given, only its residue needs coverage
    for l in (7, -3, 12):
        cert = make_certificate(5, 4, l)
        assert cert.l == l
        assert verify_certificate(cert).passed


def unit_checks_testing_fixedness_twice(cert):
    """The four fixedness and unit checks made as is_tau_fixed, then is_unit with tau; the reference."""
    tau = TauData(cert.n, cert.r)
    alpha_fixed = cert.alpha_tilde.is_tau_fixed(tau)
    beta_fixed = cert.beta_tilde.is_tau_fixed(tau)
    return (
        CheckResult("alpha-tau-fixed", alpha_fixed),
        CheckResult("beta-tau-fixed", beta_fixed),
        CheckResult("alpha-unit", is_unit(reduce(cert.alpha_tilde), tau if alpha_fixed else None)),
        CheckResult("beta-unit", is_unit(reduce(cert.beta_tilde), tau if beta_fixed else None)),
    )


def certificates_valid_tampered_and_random():
    rho = GroupRingElement(7, (0, 1, 0, 0, 0, 0, 0))
    for n, r in ((7, 6), (13, 12), (13, 4), (16, 15), (9, 8)):
        for l in coverage_subgroup(n, r).subgroup:
            cert = make_certificate(n, r, l)
            yield cert
            if n == 7:
                yield dataclasses.replace(cert, alpha_tilde=cert.alpha_tilde + rho)
                yield dataclasses.replace(cert, beta_tilde=cert.beta_tilde + rho)
                yield dataclasses.replace(cert, alpha_tilde=rho, beta_tilde=rho * rho)
                yield dataclasses.replace(cert, alpha_tilde=cert.alpha_tilde + full_norm(7))
    rng = random.Random(29)
    for _ in range(120):
        n = rng.randint(2, 16)
        r = rng.choice([r for r in range(1, n) if gcd(r, n) == 1])
        tau = TauData(n, r)
        alpha, beta = (GroupRingElement(n, [rng.randint(-2, 2) for _ in range(n)]) for _ in "ab")
        if rng.random() < 0.5:
            alpha = lift(tau_symmetrize(reduce(alpha), tau))
        yield Certificate(n=n, r=r, l=rng.randint(1, n), alpha_tilde=alpha, k=rng.randint(-2, 2),
                          beta_tilde=beta, s=rng.randint(-2, 2))


def test_fixedness_is_tested_once_with_the_checks_unchanged(monkeypatch):
    def refuse(self, tau):
        raise AssertionError("is_tau_fixed called")

    calls = {"fixed": 0, "unit": 0}
    real_fixed, real_unit = quotient._is_fixed, quotient.is_unit

    def count_fixed(coeffs, r):
        calls["fixed"] += 1
        return real_fixed(coeffs, r)

    def count_unit(s, tau=None):
        calls["unit"] += 1
        return real_unit(s, tau)

    references = [(cert, unit_checks_testing_fixedness_twice(cert))
                  for cert in certificates_valid_tampered_and_random()]
    assert sum(not ref[0].passed for _, ref in references) >= 4
    assert sum(ref[0].passed and ref[1].passed and not ref[2].passed for _, ref in references) >= 1
    monkeypatch.setattr(GroupRingElement, "is_tau_fixed", refuse)
    monkeypatch.setattr(quotient, "_is_fixed", count_fixed)
    monkeypatch.setattr(quotient, "is_unit", count_unit)
    for cert, reference in references:
        calls.update(fixed=0, unit=0)
        record = verify_certificate(cert)
        assert record.checks[:4] == reference, cert
        # one fixedness test per element; a unit test per element, and one more
        # call for each element that is not fixed (its first call refuses it)
        assert calls["fixed"] == 2, cert
        assert calls["unit"] == 2 + (not reference[0].passed) + (not reference[1].passed), cert


VERIFIER_PROBE = """
import json, sys
import sdpcert.monomial as monomial
from sdpcert.group_ring import GroupRingElement

data = json.loads(sys.argv[1])
n = data["n"]
cert = monomial.Certificate(
    n=n, r=data["r"], l=data["l"], k=data["k"], s=data["s"],
    alpha_tilde=GroupRingElement(n, data["alpha"]), beta_tilde=GroupRingElement(n, data["beta"]))
print(monomial.verify_certificate(cert).passed, "sdpcert.coverage" in sys.modules)
"""


def test_verifying_a_certificate_does_not_load_the_producer():
    cert = make_certificate(13, 12, 5)
    data = {"n": cert.n, "r": cert.r, "l": cert.l, "k": cert.k, "s": cert.s,
            "alpha": list(cert.alpha_tilde.coeffs), "beta": list(cert.beta_tilde.coeffs)}
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", VERIFIER_PROBE, json.dumps(data)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False"]
