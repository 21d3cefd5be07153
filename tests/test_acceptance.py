"""Acceptance suite: every criterion runs exactly, with its stated runtime bound."""

import random
import time
from math import gcd

import pytest

from conftest import ACCEPTANCE_LINES
from sdpcert import coverage as cov
from sdpcert import crossed as cp
from sdpcert import monomial as mon
from sdpcert import tower as tow
from sdpcert.group_ring import GroupRingElement, TauData, partial_norm
from sdpcert.quotient import eps_bar, is_unit, lift, tau_apply_s
from sdpcert.suites import random_fixed_s, s3_spanning_points


def _run(label, bound, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        if bound is not None and elapsed >= bound:
            raise AssertionError(f"runtime {elapsed:.2f}s exceeded the {bound}s bound")
    except Exception:
        line = f"criterion {label}: FAIL"
        ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    line = f"criterion {label}: PASS ({elapsed:.2f}s)"
    ACCEPTANCE_LINES.append(line)
    print(line)


def valid_r(n):
    return [r for r in range(1, n) if gcd(r, n) == 1]


def test_criterion_1_dihedral_coverage():
    def body():
        for n in (3, 5, 7, 9, 11, 13, 15):
            report = cov.coverage_subgroup(n, n - 1)
            expected = tuple(x for x in range(1, n) if gcd(x, n) == 1)
            assert report.subgroup == expected, n
            assert report.is_full, n
            tau = TauData(n, n - 1)
            for unit, residue in report.generators:
                assert is_unit(unit), (n, unit)
                assert lift(unit).is_tau_fixed(tau), (n, unit)
                assert eps_bar(unit) == residue

    _run("1 (dihedral coverage, odd n <= 15)", 5.0, body)


def test_criterion_2_oracle_agreement():
    def body():
        for n in (3, 5, 7):
            for r in valid_r(n):
                report = cov.coverage_subgroup(n, r)
                oracle = cov.exhaustive_fixed_units(n, r, 2)
                oracle_subgroup = cov.subgroup_closure([eps_bar(u) for u in oracle], n)
                assert set(oracle_subgroup) <= set(report.subgroup), (n, r)
                assert set(report.subgroup) <= set(oracle_subgroup), (n, r)

    _run("2 (exhaustive oracle agreement, n in {3,5,7})", 60.0, body)


def test_criterion_3_certificate_suite():
    def body():
        for n in (3, 5, 7):
            for r in valid_r(n):
                covered = cov.coverage_subgroup(n, r).subgroup
                for l in covered:
                    cert = mon.make_certificate(n, r, l)
                    record = mon.verify_certificate(cert)
                    assert record.passed, (n, r, l, record)
                    deviation = cert.beta_tilde * cert.alpha_tilde - GroupRingElement.one(n)
                    assert len(set(deviation.coeffs)) == 1, (n, r, l)
                    r_prime = deviation.coeffs[0]
                    zero = r_prime - cert.s - cert.beta_tilde.augmentation() * cert.k
                    assert zero == 0, (n, r, l)

    _run("3 (certificates verify for every covered l)", 30.0, body)


def test_criterion_4_group_ring_laws():
    def body():
        rng = random.Random(0)
        for _ in range(600):
            n = rng.randint(2, 24)
            a, b, c = (
                GroupRingElement(n, [rng.randint(-10, 10) for _ in range(n)])
                for _ in range(3)
            )
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a * b).augmentation() == a.augmentation() * b.augmentation()
        for _ in range(400):
            n = rng.randint(2, 24)
            g = rng.randrange(n)
            i = rng.randint(0, 10)
            j = rng.randint(0, 60 // max(i, 1))
            lhs = partial_norm(n, g, j) * partial_norm(n, (g * j) % n, i)
            assert lhs == partial_norm(n, g, i * j)

    _run("4 (group-ring laws and partial-norm identity, 1000 cases)", None, body)


def _s3_spanning_points(tw):
    points = s3_spanning_points(tw)
    assert any(pt.x == tw.scalar(-1) for pt in points)
    return points


def test_criterion_5_s3_tower_identities():
    def body():
        tw = tow.builtin_s3()  # construction itself runs the self-checks
        for i in range(6):
            x = tw.basis_element(i)
            assert tw.tau(tw.sigma(tw.tau(x))) == tw.sigma(tw.sigma(x))
        assert tw.tau(tw.b) == tw.lam**3 * tw.b**2
        points = _s3_spanning_points(tw)
        for pt in points:
            image = tow.tau_hat(tw, pt)
            assert tow.point_is_valid(tw, image)
            twice = tow.tau_hat(tw, image)
            assert twice.x == pt.x and twice.k == pt.k
        # tau-fixed monomials of support <= 3: a + w*(sigma + sigma^2)
        for a in range(-2, 3):
            for w in range(-2, 3):
                element = GroupRingElement(3, (a, w, w))
                if element == GroupRingElement.zero(3):
                    continue
                for pt in points:
                    lhs = tow.tau_hat(tw, tow.apply_monomial_point(tw, element, pt))
                    rhs = tow.apply_monomial_point(tw, element, tow.tau_hat(tw, pt))
                    assert lhs.x == rhs.x and lhs.k == rhs.k
        for k in range(-3, 4):
            for pt in points:
                lhs = tow.tau_hat(tw, tow.phi_k_apply(tw, pt, k))
                rhs = tow.phi_k_apply(tw, tow.tau_hat(tw, pt), k)
                assert lhs.x == rhs.x and lhs.k == rhs.k

    _run("5 (degree-6 tower identities)", 10.0, body)


def test_criterion_6_crossed_product_correspondence():
    def body():
        rng = random.Random(0)
        for trial in range(100):
            q = (3, 5)[trial % 2]
            n = (2, 3)[(trial // 2) % 2]
            algebra, chain, _ = cp.random_cyclic_instance(q, n, rng)
            assert cp.is_splitting_chain(algebra, chain)
            ideal = cp.ideal_from_chain(algebra, chain)
            assert ideal.dimension == n * n - n
            recovered = cp.chain_from_ideal(algebra, ideal)
            assert recovered.values == chain.values
            assert cp.ideal_from_chain(algebra, recovered) == ideal
        # negative controls
        algebra, chain, _ = cp.random_cyclic_instance(3, 3, rng)
        corrupted = dict(algebra.cocycle)
        corrupted[(1, 1)] = corrupted[(1, 1)] * algebra.tower.field.from_int(2)
        assert not cp.cocycle_condition_holds(algebra.tower, corrupted)
        with pytest.raises(ValueError):
            cp.CrossedProduct(algebra.tower, corrupted)
        broken = cp.CrossedProduct(algebra.tower, corrupted, validate=False)
        tw = algebra.tower
        associative = True
        for _ in range(60):
            x, y, z = (tuple(tw.random_element(rng) for _ in range(3)) for _ in range(3))
            if broken.multiply(broken.multiply(x, y), z) != broken.multiply(
                x, broken.multiply(y, z)
            ):
                associative = False
                break
        assert not associative
        bad = cp.corrupt_chain(algebra, chain)
        assert not cp.is_splitting_chain(algebra, bad)
        with pytest.raises(ValueError):
            cp.ideal_from_chain(algebra, bad)

    _run("6 (chain/ideal correspondence, 100 seeded instances)", 30.0, body)


def test_criterion_7_norm_element_and_tensor_power():
    def body():
        rng = random.Random(1)
        for q, n in ((3, 2), (5, 2), (3, 3), (5, 3)):
            algebra, _, _ = cp.random_cyclic_instance(q, n, rng)
            spanning = algebra.tower.l_basis() + [algebra.tower.random_unit(rng)]
            for x in spanning:
                for i in range(1, 2 * n + 1):
                    assert cp.norm_element_check(algebra, x, i).passed, (q, n, i)
        s3_algebra = cp.CrossedProduct(tow.builtin_s3())
        for x in (s3_algebra.tower.basis_element(1), s3_algebra.tower.basis_element(3)):
            for i in range(1, 7):
                assert cp.norm_element_check(s3_algebra, x, i).passed, i
        algebra, _, _ = cp.random_cyclic_instance(3, 2, rng)
        assert all(c.passed for c in cp.tensor_power_check(algebra, 2))
        assert all(c.passed for c in cp.tensor_power_check(algebra, 1))

    _run("7 (norm-element and tensor-power identities)", 10.0, body)


def test_criterion_8_lift_fixedness():
    def body():
        rng = random.Random(2)
        count = 0
        while count < 500:
            n = rng.randint(2, 15)
            r = rng.choice(valid_r(n))
            tau = TauData(n, r)
            s = random_fixed_s(rng, n, tau, span=9)
            assert tau_apply_s(s, tau) == s
            assert lift(s).is_tau_fixed(tau)
            count += 1

    _run("8 (canonical lifts of 500 fixed elements are fixed)", None, body)
