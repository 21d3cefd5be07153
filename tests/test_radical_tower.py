import hashlib
import random
from pathlib import Path

import pytest

from sdpcert.suites import s3_spanning_points, suite_tower, tower_checks
from sdpcert.tower import (
    builtin_s3,
    dump_tower,
    load_tower,
    make_norm_point,
    point_is_valid,
    radical_tower,
    tau_hat,
)

# dump_tower(builtin_s3()) as the hand-written x^3 - 2 tower gave it
S3_FIXTURE = Path(__file__).parent / "fixtures" / "s3.tower"


@pytest.fixture(scope="module")
def p5():
    return radical_tower(5, 2, 2, -1, -1)


def test_builtin_s3_is_the_hand_written_tower():
    assert dump_tower(builtin_s3()) == S3_FIXTURE.read_text()
    assert dump_tower(radical_tower(3, 2, 2, -1, -1)) == S3_FIXTURE.read_text()


@pytest.mark.parametrize("fixture", ["s3.tower", "s3_rescaled.tower"])
def test_fixtures_read_the_parameters_of_their_headers(fixture):
    tw = load_tower((S3_FIXTURE.parent / fixture).read_text())
    assert (tw.n, tw.m, tw.r, tw.t, tw.s) == (3, 2, 2, 2, 1)


# sha256 of each dump, pinned from towers built with n, m, t and s written out by hand
@pytest.mark.parametrize("p, parameters, digest", [
    (5, (5, 4, 3, 2, 1), "1021d54cf455cc014d548dee46036c80485239fe74e7fd3e76fb4697f8644969"),
    (7, (7, 6, 3, 5, 2), "a0a4a93bea9f4232d7efef152a00dd0d358da7bc4b4183d8e6f6a6232c59af77"),
])
def test_radical_towers_read_their_parameters_and_dump_as_pinned(p, parameters, digest):
    tw = radical_tower(p, 2, 3, -1, 1)
    assert (tw.n, tw.m, tw.r, tw.t, tw.s) == parameters
    assert hashlib.sha256(dump_tower(tw).encode()).hexdigest() == digest


def test_p5_construction(p5):
    assert (p5.dim, p5.n, p5.m, p5.r, p5.t, p5.s) == (20, 5, 4, 2, 3, 1)
    assert p5.labels[:7] == ("1", "c", "c2", "c3", "c4", "z", "zc")
    assert p5.labels[-1] == "z3c4"
    assert p5.b == p5.scalar(-1) and p5.lam == p5.scalar(-1)
    c, z = p5.basis_element(1), p5.basis_element(5)
    assert c**5 == p5.scalar(2)
    assert z**5 == p5.one and z**4 == -sum((z**i for i in range(4)), p5.zero)
    assert p5.sigma(c) == z * c and p5.sigma(z) == z
    assert p5.tau(z) == z**2 and p5.tau(c) == c


def test_p5_inverse(p5):
    rng = random.Random(5)
    for _ in range(8):
        x = p5.random_element(rng, span=3)
        if x:
            assert x * x.inverse() == p5.one, x


def test_p5_tau_hat_keeps_a_point_of_the_norm_set(p5):
    # -1 = N(-1) since n = 5 is odd, and 1 = N(1); b = -1, so these lie in [N = b^k]
    for x, k in ((-p5.one, 1), (p5.one, 0), (-p5.one, 3)):
        point = make_norm_point(p5, x, k)
        image = tau_hat(p5, point)
        assert point_is_valid(p5, image) and image.k == k
    # a point that is no rational: x = y / sigma(y) has norm 1 = b^0
    y = p5.basis_element(1) + p5.basis_element(6) + 2
    point = make_norm_point(p5, y / p5.sigma(y), 0)
    assert point.x != p5.one
    assert point_is_valid(p5, tau_hat(p5, point))


def test_p5_dump_load_round_trip(p5):
    loaded = load_tower(dump_tower(p5))
    assert dump_tower(loaded) == dump_tower(p5)
    assert loaded.labels == p5.labels
    assert (loaded.table, loaded.sigma_matrix, loaded.tau_matrix) == (
        p5.table, p5.sigma_matrix, p5.tau_matrix)


@pytest.mark.parametrize("args, message", [
    ((9, 2, 2, -1, -1), "p = 9 is not prime"),
    ((1, 2, 1, -1, -1), "p = 1 is not prime"),
    ((5, 2, 4, -1, -1), "r = 4 is not a primitive root mod 5"),
    ((5, 2, 5, -1, -1), "r = 5 is not a primitive root mod 5"),
    ((7, 2, 2, -1, 1), "r = 2 is not a primitive root mod 7"),
    ((3, 0, 2, -1, -1), r"a = 0 is \(0\)\^3"),
    ((3, 1, 2, -1, -1), r"a = 1 is \(1\)\^3"),
    ((3, 8, 2, -1, -1), r"a = 8 is \(2\)\^3"),
    ((3, -8, 2, -1, -1), r"a = -8 is \(-2\)\^3"),
    ((3, -1, 2, -1, -1), r"a = -1 is \(-1\)\^3"),
    ((2, 9, 1, 1, 1), r"a = 9 is \(3\)\^2"),
    ((3, 10**39, 2, -1, -1), r"is \(10000000000000\)\^3"),
])
def test_radical_tower_refuses(args, message):
    with pytest.raises(ValueError, match=message):
        radical_tower(*args)


@pytest.mark.parametrize("args", [(3.0, 2, 2, -1, -1), (3, 2.0, 2, -1, -1), (3, 2, "2", -1, -1)])
def test_radical_tower_takes_integers(args):
    with pytest.raises(TypeError):
        radical_tower(*args)


def test_radical_tower_builds_for_every_a_that_is_no_power():
    # p = 2 and 3: every a in -30 ... 30 other than a p-th power gives a tower
    for p, r in ((2, 1), (3, 2)):
        powers = {x**p for x in range(-30, 31)}
        for a in range(-30, 31):
            if a in powers:
                with pytest.raises(ValueError):
                    radical_tower(p, a, r, -1, -1 if p == 3 else 1)
            else:
                tower = radical_tower(p, a, r, -1, -1 if p == 3 else 1)
                c = tower.basis_element(1)
                assert c**p == tower.scalar(a), (p, a)
    assert radical_tower(3, 10**39 + 1, 2, -1, -1).dim == 6


def test_radical_tower_refuses_exactly_the_pth_powers_of_large_integers():
    # the exact root test at 20 to 200 digits: x^p is refused, x^p + 1 and x^p - 1 are not
    rng = random.Random(7)
    for p, r, lam in ((2, 1, 1), (3, 2, -1), (5, 2, -1), (7, 3, 1)):
        for _ in range(20):
            x = rng.randrange(2, 10**rng.randint(3, 30)) * rng.choice((-1, 1))
            if p == 2 and x < 0:
                x = -x
            with pytest.raises(ValueError, match=r"is \(-?\d+\)"):
                radical_tower(p, x**p, r, -1, lam)
            if p <= 3:
                for a in (x**p + 1, x**p - 1):
                    assert radical_tower(p, a, r, -1, lam).dim == p * (p - 1), (p, a)


def test_tower_checks_pass_at_p5_with_r3():
    # r = 3 and m = 4: tau sigma tau = sigma^2 and tau-hat^2 = id, true for x^3 - 2, fail here
    tw = radical_tower(5, 2, 3, -1, 1)
    checks = tower_checks(tw, s3_spanning_points(tw), random.Random(0))
    assert [c.name for c in checks] == [c.name for c in suite_tower()]
    assert [c for c in checks if not c.passed] == []
    details = {c.name: c.detail for c in checks}
    assert details["s3 construction self-checks"] == "22 cases"
    assert details["fixed subfields have degrees m and n"] == "dim E^sigma = 4, dim E^tau = 5"
    assert details["tau-hat commutes with fixed monomials"] == "288 cases"
