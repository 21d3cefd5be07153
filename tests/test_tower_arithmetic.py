"""Tower elements as integer numerators over one denominator: laws, invariants, fixture I/O.

Inverses, powers and the monomial action are each checked against a general route kept here.
"""

import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdpcert._element import ExactElement
from sdpcert.group_ring import GroupRingElement
from sdpcert.linalg import nullspace_rational, rank_rational, rref
from sdpcert.tower import (
    FiniteTower,
    NumberTower,
    TowerElement,
    apply_monomial,
    builtin_s3,
    dump_tower,
    load_tower,
    norm,
    radical_tower,
)

S3 = builtin_s3()
FIXTURE = Path(__file__).parent / "fixtures" / "s3_rescaled.tower"
# The fixture's basis is f_i = SCALE[i] * e_i over the builtin basis e_i, which
# makes its structure constants and automorphism matrices non-integral.
SCALE = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1), Fraction(2), Fraction(3, 4))
RESCALED = load_tower(FIXTURE.read_text())

coordinate = st.fractions(min_value=-6, max_value=6, max_denominator=6)
element = st.lists(coordinate, min_size=6, max_size=6).map(S3.element)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def assert_lowest_terms(x):
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    assert x.coords == tuple(Fraction(a, x.den) for a in x.num)


@PROPERTY
@given(element, element, element)
def test_field_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == S3.zero
    assert x * S3.one == x


@PROPERTY
@given(element)
def test_inverse(x):
    if x:
        inverse = x.inverse()
        assert x * inverse == S3.one
        assert inverse.inverse() == x
        assert_lowest_terms(inverse)


@PROPERTY
@given(element, element)
def test_results_are_in_lowest_terms(x, y):
    for result in (x + y, x - y, x * y, -x, S3.sigma(x), S3.tau(y), norm(S3, x), x * Fraction(2, 3)):
        assert_lowest_terms(result)


@PROPERTY
@given(element, element)
def test_hash_agrees_with_equality(x, y):
    pairs = [(x * y, y * x), ((x + y) - y, x), (S3.element(x.coords), x),
             (S3.element([2 * c for c in x.coords]) * Fraction(1, 2), x)]
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b)
    assert len({x, S3.element(x.coords), x + S3.zero}) == 1


def test_common_denominator_is_reduced():
    x = S3.element((Fraction(2, 4), Fraction(3, 6), 0, 0, 0, Fraction(-4, 8)))
    assert (x.num, x.den) == ((1, 1, 0, 0, 0, -1), 2)
    y = S3.element((Fraction(1, 6), Fraction(1, 6), 0, 0, 0, 0)) + S3.element(
        (Fraction(1, 6), Fraction(-1, 6), 0, 0, 0, 0))
    assert (y.num, y.den) == ((1, 0, 0, 0, 0, 0), 3)
    assert (S3.zero.num, S3.zero.den) == ((0,) * 6, 1)


# --- a tower with rational structure constants ----------------------------------


def test_fixture_has_non_integral_constants_and_round_trips():
    text = FIXTURE.read_text()
    assert any(c.denominator > 1 for row in RESCALED.table for cell in row for c in cell)
    assert any(c.denominator > 1 for row in RESCALED.sigma_matrix for c in row)
    assert dump_tower(load_tower(text)) == text


def to_rescaled(x):
    return RESCALED.element([c / s for c, s in zip(x.coords, SCALE)])


@PROPERTY
@given(element, element)
def test_rescaled_tower_is_isomorphic_to_the_builtin(x, y):
    assert to_rescaled(x * y) == to_rescaled(x) * to_rescaled(y)
    assert to_rescaled(x + y) == to_rescaled(x) + to_rescaled(y)
    assert to_rescaled(S3.sigma(x)) == RESCALED.sigma(to_rescaled(x))
    assert to_rescaled(S3.tau(x)) == RESCALED.tau(to_rescaled(x))
    if x:
        assert to_rescaled(x.inverse()) == to_rescaled(x).inverse()
    assert_lowest_terms(to_rescaled(x) * to_rescaled(y))


@PROPERTY
@given(element)
def test_rescaled_flatten_gives_sigma_fixed_coordinates_over_the_l_basis(x):
    y = to_rescaled(x)
    coordinates = RESCALED.flatten(y)
    assert len(coordinates) == len(RESCALED.l_basis()) == RESCALED.n
    assert all(RESCALED.sigma(c) == c for c in coordinates)
    assert sum((c * e for c, e in zip(coordinates, RESCALED.l_basis())), RESCALED.zero) == y
    # the rescaled basis is f_e = SCALE[e] * c^e, so its coordinates are the builtin's / SCALE[e]
    assert [to_rescaled(c) * (1 / SCALE[e]) for e, c in enumerate(S3.flatten(x))] == coordinates


def test_constructor_checks_length():
    with pytest.raises(ValueError, match="expected 6 coordinates"):
        TowerElement(S3, (1, 2))


def gaussian_tower():
    """Q(i) over Q: n = 2, m = 1, sigma = diag(1, -1), b = -1."""
    return NumberTower(
        labels=["1", "i"],
        table=[[(1, 0), (0, 1)], [(0, 1), (-1, 0)]],
        sigma_matrix=[[1, 0], [0, -1]],
        tau_matrix=[[1, 0], [0, 1]],
        r=1,
        b_coords=(-1, 0),
        lam_coords=(1, 0),
    )


def test_elements_of_equal_towers_are_not_equal():
    loaded = load_tower(dump_tower(S3))
    x, y = S3.basis_element(1), loaded.basis_element(1)
    assert x != y
    assert not x == y
    assert len({x, y}) == 2
    assert x == S3.basis_element(1)
    with pytest.raises(ValueError, match="different towers"):
        x + y


def test_elements_of_different_towers_do_not_mix():
    gaussian = gaussian_tower()
    x, i = S3.basis_element(1), gaussian.basis_element(1)
    assert i * i == gaussian.scalar(-1)
    assert x != i
    for operation in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a - b,
                      lambda a, b: a / b):
        with pytest.raises(ValueError, match="different towers"):
            operation(x, i)
        with pytest.raises(ValueError, match="different towers"):
            operation(i, x)


def test_tower_maps_refuse_elements_of_another_tower():
    loaded = load_tower(dump_tower(S3))
    for x in (radical_tower(3, 3, 2, -1, -1).basis_element(1), loaded.basis_element(1)):
        for apply in (S3.sigma, S3.tau, S3.flatten):
            with pytest.raises(ValueError, match="different towers"):
                apply(x)


# --- inverse by the norm tower ------------------------------------------------------


def inverse_by_every_conjugate(tower, x):
    """1/x from the product of the nm - 1 maps sigma^i tau^j other than the identity.

    The product with x itself is the norm down to Q; this is the route of one
    conjugate per group element, kept as the oracle of NumberTower.inverse.
    """
    product = tower.one
    for i in range(tower.n):
        for j in range(tower.m):
            if i or j:
                conjugate = x
                for _ in range(j):
                    conjugate = tower.tau(conjugate)
                for _ in range(i):
                    conjugate = tower.sigma(conjugate)
                product = product * conjugate
    return product * (1 / (x * product).rational_part())


@PROPERTY
@given(element, coordinate)
def test_inverse_agrees_with_the_product_over_every_conjugate(x, q):
    for tower, y in ((S3, x), (RESCALED, to_rescaled(x))):
        # y in E, its norm and its coordinates over the E-over-L basis in L, and a rational
        for z in (y, norm(tower, y), *tower.flatten(y), tower.scalar(q)):
            if z:
                assert z.inverse() == inverse_by_every_conjugate(tower, z), (tower, z)


def test_inverse_agrees_on_basis_elements_and_the_gaussian_tower():
    gaussian = gaussian_tower()
    for tower in (S3, RESCALED, gaussian, biquadratic_tower(BIQUADRATIC_TAU)):
        for i in range(tower.dim):
            e = tower.basis_element(i)
            assert e.inverse() == inverse_by_every_conjugate(tower, e)
            assert e * e.inverse() == tower.one
    assert gaussian.element((1, 1)).inverse() == gaussian.element((Fraction(1, 2), Fraction(-1, 2)))


def test_inverse_applies_sigma_n_minus_1_times_and_tau_m_minus_1_times(monkeypatch):
    # the Gaussian tower has m = 1: no tau at all
    calls = []
    for name in ("sigma", "tau"):
        original = getattr(NumberTower, name)
        monkeypatch.setattr(NumberTower, name, lambda self, x, name=name, original=original: (
            calls.append(name), original(self, x))[1])
    gaussian = gaussian_tower()
    for tower, x in ((S3, S3.basis_element(1) - S3.one), (RESCALED, RESCALED.basis_element(4)),
                     (gaussian, gaussian.element((1, 1)))):
        calls.clear()
        inverse = x.inverse()
        assert calls == ["sigma"] * (tower.n - 1) + ["tau"] * (tower.m - 1), tower
        assert x * inverse == tower.one


BIQUADRATIC_SIGMA = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
BIQUADRATIC_TAU = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]


def biquadratic_tower(tau_matrix):
    """Q(sqrt 2, sqrt 3) on the basis 1, a = sqrt 2, c = sqrt 3, ac, with sigma: a -> -a.

    r = 1 and b = lambda = 1, so every parameter check holds whatever the involution
    tau_matrix; the tower reads n = m = 2, t = 1 and s = 0 off it.
    """
    products = {(1, 1): (2, 0, 0, 0), (1, 2): (0, 0, 0, 1), (1, 3): (0, 0, 2, 0),
                (2, 2): (3, 0, 0, 0), (2, 3): (0, 3, 0, 0), (3, 3): (6, 0, 0, 0)}
    table = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            if not i or not j:
                table[i][j] = tuple(int(k == i + j) for k in range(4))
            else:
                table[i][j] = products[min(i, j), max(i, j)]
    return NumberTower(
        labels=["1", "a", "c", "ac"], table=table, sigma_matrix=BIQUADRATIC_SIGMA,
        tau_matrix=tau_matrix, r=1, b_coords=(1, 0, 0, 0),
        lam_coords=(1, 0, 0, 0),
    )


def test_the_test_towers_read_their_parameters_off_their_maps():
    tw = gaussian_tower()
    assert (tw.n, tw.m, tw.r, tw.t, tw.s) == (2, 1, 1, 1, 0)
    tw = biquadratic_tower(BIQUADRATIC_TAU)
    assert (tw.n, tw.m, tw.r, tw.t, tw.s) == (2, 2, 1, 1, 0)


def test_construction_rejects_a_tau_power_inside_sigma():
    # tau = sigma fixes sqrt 3 as sigma does: the maps sigma^i tau^j are two, not four,
    # and inverting 1 + sqrt 3 through them would leave a norm that is not rational
    with pytest.raises(RuntimeError, match="tau\\^j with 0 < j < m lies in <sigma>"):
        biquadratic_tower(BIQUADRATIC_SIGMA)
    tower = biquadratic_tower(BIQUADRATIC_TAU)
    x = tower.element((1, 0, 1, 0))
    assert x.inverse() == tower.element((Fraction(-1, 2), 0, Fraction(1, 2), 0))


def greedy_l_coordinates(tower):
    """The E-over-L basis and flatten by the greedy route: one rank per candidate, then the inverse.

    A power product e_k joins the basis when the g_j e_k, g_j over a basis of the
    sigma-fixed subspace, raise the rank by their number; one rref then inverts
    the chosen columns.
    """
    dim = tower.dim
    sigma = tower.sigma_matrix
    l_elements = [tower.element(v) for v in nullspace_rational(
        [[sigma[i][j] - (i == j) for j in range(dim)] for i in range(dim)])]
    chosen, spanned = [], []
    for k in range(dim):
        trial = spanned + [(g * tower.basis_element(k)).coords for g in l_elements]
        if rank_rational(trial) == len(trial):
            chosen.append(tower.basis_element(k))
            spanned = trial
    augmented = [[row[i] for row in spanned] + [Fraction(int(i == j)) for j in range(dim)]
                 for i in range(dim)]
    inverse = [row[dim:] for row in rref(augmented, Fraction(0))[0]]
    d = len(l_elements)

    def flatten(x):
        a = [sum(c * v for c, v in zip(row, x.coords)) for row in inverse]
        return [sum((g * a[i * d + j] for j, g in enumerate(l_elements)), tower.zero)
                for i in range(len(chosen))]

    return chosen, flatten


@pytest.mark.parametrize("make", [
    builtin_s3, lambda: RESCALED, lambda: radical_tower(5, 2, 3, -1, 1), gaussian_tower,
    lambda: biquadratic_tower(BIQUADRATIC_TAU),
], ids=["s3", "s3_rescaled", "p5_r3", "gaussian", "biquadratic"])
def test_l_basis_and_flatten_agree_with_the_greedy_route(make):
    tower = make()
    chosen, flatten = greedy_l_coordinates(tower)
    assert tower.l_basis() == chosen and len(chosen) == tower.n
    rng = random.Random(tower.dim)
    samples = [tower.basis_element(k) for k in range(tower.dim)]
    samples += [tower.random_element(rng) * Fraction(rng.randint(1, 5), rng.randint(1, 7))
                for _ in range(5)]
    for x in samples:
        assert tower.flatten(x) == flatten(x), x


def test_a_table_that_is_not_a_field_has_no_e_over_l_basis():
    # Q^4 on the basis 1, i_1, i_2, i_3 of orthogonal idempotents (i_4 = 1 - i_1 - i_2 - i_3),
    # with sigma swapping i_1, i_2 and i_3, i_4, and tau swapping i_1, i_3 and i_2, i_4. L is
    # {(x, x, y, y)}, of dimension 2, but L i_1 = Q i_1: the block of i_1 holds one pivot of two
    def product(i, j):
        if i and j and i != j:
            return (0, 0, 0, 0)
        return tuple(int(k == max(i, j)) for k in range(4))

    table = [[product(i, j) for j in range(4)] for i in range(4)]
    sigma = [[1, 0, 0, 1], [0, 0, 1, -1], [0, 1, 0, -1], [0, 0, 0, -1]]
    tau = [[1, 0, 1, 0], [0, 0, -1, 1], [0, 0, -1, 0], [0, 1, -1, 0]]
    with pytest.raises(RuntimeError, match="no basis of E over L among the power products"):
        NumberTower(labels=["1", "i1", "i2", "i3"], table=table, sigma_matrix=sigma,
                    tau_matrix=tau, r=1, b_coords=(1, 0, 0, 0), lam_coords=(1, 0, 0, 0))


# --- rational elements, and the monomial action with one inverse -------------------


def power_by_squaring(x, exponent):
    """x ** exponent by the general route: square-and-multiply, the inverse by every conjugate."""
    base = inverse_by_every_conjugate(x.tower, x) if exponent < 0 else x
    return ExactElement.__pow__(base, abs(exponent))


exponent = st.integers(min_value=-4, max_value=4)


@PROPERTY
@given(coordinate, exponent)
def test_rational_reciprocal_and_powers_agree_with_the_general_route(q, e):
    for tower in (S3, RESCALED):
        x = tower.scalar(q)
        if not q:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
            if e < 0:
                with pytest.raises(ZeroDivisionError):
                    x**e
                continue
        else:
            reciprocal = x.inverse()
            assert reciprocal == tower.scalar(1 / q) == inverse_by_every_conjugate(tower, x)
            assert_lowest_terms(reciprocal)
        power = x**e
        assert power == tower.scalar(q**e) == power_by_squaring(x, e), (tower, q, e)
        assert_lowest_terms(power)
        assert all(type(a) is int for a in power.num) and type(power.den) is int


@PROPERTY
@given(element, exponent)
def test_powers_of_other_elements_agree_with_the_general_route(x, e):
    for tower, y in ((S3, x), (RESCALED, to_rescaled(x))):
        # the basis elements other than 1 are zero on basis element 1 and are not rational
        for z in (y, *(tower.basis_element(i) for i in range(1, tower.dim))):
            if z or e >= 0:
                assert z**e == power_by_squaring(z, e), (tower, z, e)


@pytest.mark.parametrize("x", [S3.scalar(2), S3.basis_element(1), S3.zero])
@pytest.mark.parametrize("e", [2.0, Fraction(2), "2"])
def test_powers_take_integer_exponents_only(x, e):
    with pytest.raises(TypeError):
        x**e


def test_rational_elements_are_powered_and_inverted_without_a_product(monkeypatch):
    spy = []
    monkeypatch.setattr(TowerElement, "__mul__", lambda self, other: spy.append(other))
    for q in (Fraction(-3, 4), Fraction(5, 2), Fraction(-1)):
        assert S3.scalar(q).inverse() == S3.scalar(1 / q)
        assert S3.scalar(q) ** -3 == S3.scalar(q**-3)
        assert S3.scalar(q) ** 5 == S3.scalar(q**5)
    assert spy == []


def monomial_by_each_conjugate(tower, coeffs, x):
    """prod_i sigma^i(x)^(e_i) with each power, and each inverse, taken by the general route."""
    result = tower.one
    for e in coeffs:
        if isinstance(x, TowerElement):
            result = result * power_by_squaring(x, e)
        else:
            result = result * (x.inverse() ** -e if e < 0 else x**e)
        x = tower.sigma(x)
    return result


monomial = st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3)


@PROPERTY
@given(element, monomial)
# negative exponents on sigma and sigma^2 of c - 1, which sigma does not fix
@example(S3.basis_element(1) - S3.one, [0, -1, 0])
@example(S3.basis_element(1) - S3.one, [1, -1, -2])
def test_apply_monomial_agrees_with_the_product_of_conjugate_powers(x, coeffs):
    element = GroupRingElement(3, coeffs)
    for tower, y in ((S3, x), (RESCALED, to_rescaled(x))):
        for z in (y, tower.scalar(-2), tower.basis_element(4)):
            if z or min(coeffs) >= 0:
                assert apply_monomial(tower, element, z) == monomial_by_each_conjugate(
                    tower, coeffs, z), (tower, z, coeffs)


FINITE_TOWERS = [FiniteTower(q, n, 1) for q, n in ((3, 2), (5, 3), (4, 2))]


@PROPERTY
@given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2**32), monomial)
def test_apply_monomial_agrees_on_finite_towers(which, seed, coeffs):
    tower = FINITE_TOWERS[which]
    coeffs = coeffs[:tower.n]
    x = tower.random_unit(random.Random(seed))
    assert apply_monomial(tower, GroupRingElement(tower.n, coeffs), x) == \
        monomial_by_each_conjugate(tower, coeffs, x)


@pytest.mark.parametrize("coeffs, inversions", [
    ((-1, -2, -1), 1), ((2, -1, -3), 1), ((-1, 0, 0), 1), ((1, 2, 0), 0), ((0, 0, 0), 0)])
def test_apply_monomial_inverts_the_point_at_most_once(monkeypatch, coeffs, inversions):
    calls = []
    for tower, x in ((S3, S3.basis_element(1) - S3.one),
                     (FINITE_TOWERS[1], FINITE_TOWERS[1].field.generator())):
        expected = monomial_by_each_conjugate(tower, coeffs, x)
        cls = NumberTower if tower is S3 else type(x)
        inverse = cls.inverse
        monkeypatch.setattr(cls, "inverse", lambda *args: calls.append(args) or inverse(*args))
        assert apply_monomial(tower, GroupRingElement(3, coeffs), x) == expected
        assert len(calls) == inversions, (tower, coeffs)
        monkeypatch.undo()
        calls.clear()
