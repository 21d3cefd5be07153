import random
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdpcert.group_ring import (
    GroupRingElement,
    OrderMismatchError,
    TauData,
    _orbits,
    full_norm,
    partial_norm,
)


def random_element(rng, n, span=10):
    return GroupRingElement(n, [rng.randint(-span, span) for _ in range(n)])


def test_add_coefficientwise():
    a = GroupRingElement(3, (1, 0, 0))
    b = GroupRingElement(3, (0, 1, 1))
    assert (a + b).coeffs == (1, 1, 1)


def test_add_identity_and_inverse():
    rng = random.Random(1)
    p = random_element(rng, 6)
    assert p + GroupRingElement.zero(6) == p
    assert GroupRingElement(3, (2, -1, 0)) + GroupRingElement(3, (-2, 1, 0)) == GroupRingElement.zero(3)


def test_add_order_mismatch():
    with pytest.raises(OrderMismatchError):
        GroupRingElement.one(3) + GroupRingElement.one(4)
    with pytest.raises(OrderMismatchError):
        GroupRingElement.one(3) * GroupRingElement.one(5)


def test_mul_exponent_arithmetic():
    s1 = GroupRingElement.sigma_power(3, 1)
    s2 = GroupRingElement.sigma_power(3, 2)
    assert (s1 * s2) == GroupRingElement.one(3)


def test_mul_square_of_sum():
    # (s + s^2)^2 = s^2 + 2 s^3 + s^4 = 2 + s + s^2 since s^3 = 1
    p = GroupRingElement(3, (0, 1, 1))
    assert (p * p).coeffs == (2, 1, 1)


def test_mul_identity():
    rng = random.Random(2)
    p = random_element(rng, 9)
    assert p * GroupRingElement.one(9) == p


def test_partial_norm_definition():
    assert partial_norm(5, 1, 3).coeffs == (1, 1, 1, 0, 0)
    assert partial_norm(7, 2, 0) == GroupRingElement.zero(7)
    assert partial_norm(4, 3, 9).augmentation() == 9


def test_partial_norm_composition_identity():
    lhs = partial_norm(7, 1, 2) * partial_norm(7, 2, 3)
    assert lhs == partial_norm(7, 1, 6)


@pytest.mark.parametrize("seed", range(4))
def test_partial_norm_identity_randomized(seed):
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(2, 24)
        g = rng.randrange(n)
        i = rng.randint(0, 10)
        j = rng.randint(0, 60 // max(i, 1))
        assert partial_norm(n, g, j) * partial_norm(n, (g * j) % n, i) == partial_norm(n, g, i * j)


def test_augmentation_examples():
    assert full_norm(3).augmentation() == 3
    for j in range(7):
        assert partial_norm(5, 1, j).augmentation() == j


def test_augmentation_is_ring_homomorphism():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 24)
        p, q = random_element(rng, n), random_element(rng, n)
        assert (p + q).augmentation() == p.augmentation() + q.augmentation()
        assert (p * q).augmentation() == p.augmentation() * q.augmentation()


def test_tau_sends_sigma_to_sigma_r():
    tau = TauData(3, 2)
    assert GroupRingElement.sigma_power(3, 1).tau_apply(tau) == GroupRingElement.sigma_power(3, 2)


def test_tau_fixes_full_norm():
    tau = TauData(5, 2)
    assert full_norm(5).tau_apply(tau) == full_norm(5)


def test_tau_order_divides_m():
    rng = random.Random(4)
    for n, r in ((3, 2), (5, 2), (7, 3), (8, 5), (15, 2)):
        tau = TauData(n, r)
        p = random_element(rng, n)
        image = p
        for _ in range(tau.m):
            image = image.tau_apply(tau)
        assert image == p


def test_is_tau_fixed():
    tau = TauData(3, 2)
    assert GroupRingElement(3, (0, 1, 1)).is_tau_fixed(tau)
    assert not GroupRingElement.sigma_power(3, 1).is_tau_fixed(tau)
    assert full_norm(5).is_tau_fixed(TauData(5, 2))


def test_ring_laws_randomized():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(2, 24)
        a, b, c = (random_element(rng, n) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_tau_is_ring_automorphism():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(2, 24)
        candidates = [r for r in range(1, n) if gcd(r, n) == 1]
        tau = TauData(n, rng.choice(candidates))
        a, b = random_element(rng, n), random_element(rng, n)
        assert (a + b).tau_apply(tau) == a.tau_apply(tau) + b.tau_apply(tau)
        assert (a * b).tau_apply(tau) == a.tau_apply(tau) * b.tau_apply(tau)
        assert GroupRingElement.one(n).tau_apply(tau) == GroupRingElement.one(n)
        assert a.tau_apply(tau).augmentation() == a.augmentation()


def test_tau_data_validation():
    with pytest.raises(ValueError):
        TauData(6, 2)  # gcd != 1
    with pytest.raises(ValueError):
        TauData(5, 0)
    with pytest.raises(ValueError):
        TauData(5, 5)
    assert TauData(5, 2).m == 4
    assert TauData(7, 6).m == 2
    assert TauData(9, 1).m == 1


modulus_and_generators = st.integers(min_value=2, max_value=200).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(-n, 2 * n), min_size=1, max_size=3))
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(modulus_and_generators)
@example((12, [5, 5]))  # a duplicate generator
@example((12, [2, 3]))  # two non-units
@example((15, [2, 4, 11]))  # a non-cyclic group generated by 2 and 11
@example((200, [3, 0, 199]))  # zero among units
def test_orbits_partition_z_mod_n_and_are_closed_under_every_generator(case):
    n, generators = case
    orbits = _orbits(n, generators)
    assert sorted(x for orbit in orbits for x in orbit) == list(range(n))
    units = all(gcd(g, n) == 1 for g in generators)
    reached = set()
    for orbit in orbits:
        # each orbit is listed from its start, the least point not yet reached
        assert orbit[0] == min(set(range(n)) - reached), (n, generators, orbit)
        reached.update(orbit)
        for x in orbit:
            for g in generators:
                # closed under every generator; a non-unit may lead into an earlier orbit
                assert x * g % n in (orbit if units else reached), (n, generators, orbit, x, g)
        if len(generators) == 1:
            r = generators[0]
            assert orbit == [orbit[0] * pow(r, k, n) % n for k in range(len(orbit))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(modulus_and_generators, st.lists(st.integers(0, 199), max_size=6))
def test_orbits_walk_from_the_given_starts_in_order(case, starts):
    n, generators = case
    starts = [j % n for j in starts]
    orbits = _orbits(n, generators, starts)
    whole = {x: set(orbit) for orbit in _orbits(n, generators) for x in orbit}
    units = all(gcd(g, n) == 1 for g in generators)
    reached, k = set(), 0
    for j in starts:
        if j in reached:
            continue
        # one orbit per start not yet reached, listed from that start
        assert orbits[k][0] == j, (n, generators, starts)
        assert not reached & set(orbits[k])
        if units:
            assert set(orbits[k]) == whole[j]
        reached.update(orbits[k])
        k += 1
    assert k == len(orbits)


def test_orbits_of_tau_data():
    assert TauData(7, 2).orbits() == [[0], [1, 2, 4], [3, 6, 5]]
    assert TauData(8, 3).orbits() == [[0], [1, 3], [2, 6], [4], [5, 7]]
    assert TauData(5, 1).orbits() == [[0], [1], [2], [3], [4]]
    assert _orbits(13, (4,), (1,)) == [[1, 4, 3, 12, 9, 10]]
    assert _orbits(13, (), (1, 1, 5)) == [[1], [5]]


def test_exponents_reduced_at_construction():
    assert GroupRingElement.sigma_power(5, 7) == GroupRingElement.sigma_power(5, 2)
    assert GroupRingElement.sigma_power(5, -1) == GroupRingElement.sigma_power(5, 4)
