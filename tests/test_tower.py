import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sdpcert.group_ring import GroupRingElement, full_norm, partial_norm
from sdpcert.linalg import rank_rational
from sdpcert.tower import (
    FiniteTower,
    NormSetPoint,
    NumberTower,
    apply_monomial,
    apply_monomial_point,
    builtin_s3,
    dump_tower,
    load_tower,
    make_norm_point,
    norm,
    phi_k_apply,
    point_is_valid,
    sigma_partial_product,
    tau_hat,
)
from sdpcert.suites import s3_spanning_points as spanning_points


@pytest.fixture(scope="module")
def s3():
    return builtin_s3()


def test_s3_parameters(s3):
    assert (s3.n, s3.m, s3.r, s3.t, s3.s) == (3, 2, 2, 2, 1)
    assert s3.b == s3.scalar(-1)
    assert s3.lam == s3.scalar(-1)
    assert s3.r * s3.t == s3.s * s3.n + 1


def test_s3_conjugation_relation(s3):
    # tau sigma tau^-1 = sigma^2 on every basis element (tau has order 2)
    for i in range(6):
        x = s3.basis_element(i)
        assert s3.tau(s3.sigma(s3.tau(x))) == s3.sigma(s3.sigma(x))


def test_s3_tau_b_relation(s3):
    assert s3.tau(s3.b) == s3.lam**3 * s3.b**2


def test_s3_fixed_subfield_degrees(s3):
    identity = [[int(i == j) for j in range(6)] for i in range(6)]
    sigma_fixed = 6 - rank_rational(
        [[s3.sigma_matrix[i][j] - identity[i][j] for j in range(6)] for i in range(6)]
    )
    tau_fixed = 6 - rank_rational(
        [[s3.tau_matrix[i][j] - identity[i][j] for j in range(6)] for i in range(6)]
    )
    assert sigma_fixed == s3.m
    assert tau_fixed == s3.n


def test_norm_examples(s3):
    assert norm(s3, s3.scalar(-1)) == s3.b
    # c * (zeta c) * (zeta^2 c) = zeta^3 c^3 = 2
    assert norm(s3, s3.basis_element(1)) == s3.scalar(2)


def test_norm_multiplicative_and_sigma_fixed(s3):
    rng = random.Random(0)
    for _ in range(20):
        x = s3.random_element(rng, span=3)
        y = s3.random_element(rng, span=3)
        assert norm(s3, x * y) == norm(s3, x) * norm(s3, y)
        assert s3.sigma(norm(s3, x)) == norm(s3, x)


def test_element_inversion(s3):
    rng = random.Random(1)
    for _ in range(15):
        x = s3.random_element(rng, span=3)
        if not x:
            continue
        assert x * x.inverse() == s3.one
    with pytest.raises(ZeroDivisionError):
        s3.zero.inverse()


def test_apply_monomial_examples(s3):
    x = s3.random_element(random.Random(2), span=2)
    assert apply_monomial(s3, GroupRingElement.one(3), x) == x
    minus_one = s3.scalar(-1)
    assert apply_monomial(s3, GroupRingElement(3, (0, 1, 1)), minus_one) == s3.one
    # the norm element acts as the norm
    pt = make_norm_point(s3, minus_one, 1)
    assert apply_monomial(s3, full_norm(3), pt.x) == s3.b**pt.k


def test_apply_monomial_negative_exponent_requires_unit(s3):
    element = GroupRingElement(3, (-1, 0, 0))
    with pytest.raises(ZeroDivisionError):
        apply_monomial(s3, element, s3.zero)


def test_norm_bookkeeping_on_points(s3):
    rng = random.Random(3)
    points = spanning_points(s3)
    for _ in range(25):
        element = GroupRingElement(3, [rng.randint(-2, 2) for _ in range(3)])
        pt = rng.choice(points)
        image = apply_monomial_point(s3, element, pt)
        assert image.k == pt.k * element.augmentation()
        assert point_is_valid(s3, image)


def test_tau_hat_example(s3):
    pt = make_norm_point(s3, s3.scalar(-1), 1)
    image = tau_hat(s3, pt)
    assert image.x == s3.scalar(-1)
    assert image.k == 1


def test_tau_hat_squares_to_identity(s3):
    for pt in spanning_points(s3):
        twice = tau_hat(s3, tau_hat(s3, pt))
        assert twice.x == pt.x and twice.k == pt.k


def test_tau_hat_preserves_norm_sets(s3):
    for pt in spanning_points(s3):
        assert point_is_valid(s3, tau_hat(s3, pt))


def test_tau_hat_rejects_invalid_points(s3):
    with pytest.raises(ValueError):
        tau_hat(s3, NormSetPoint(s3.scalar(2), 0))


def test_tau_hat_commutes_with_fixed_monomials(s3):
    points = spanning_points(s3)
    for a in range(-2, 3):
        for w in range(-2, 3):
            element = GroupRingElement(3, (a, w, w))
            if element == GroupRingElement.zero(3):
                continue
            for pt in points:
                lhs = tau_hat(s3, apply_monomial_point(s3, element, pt))
                rhs = apply_monomial_point(s3, element, tau_hat(s3, pt))
                assert lhs.x == rhs.x and lhs.k == rhs.k


def test_phi_k_examples(s3):
    pt = make_norm_point(s3, s3.scalar(-1), 1)
    assert phi_k_apply(s3, pt, 0) == pt
    shifted = phi_k_apply(s3, pt, 1)
    assert shifted.x == s3.one
    assert shifted.k == 4
    assert norm(s3, shifted.x) == s3.b**4
    back = phi_k_apply(s3, shifted, -1)
    assert back.x == pt.x and back.k == pt.k


def test_phi_commutes_with_tau_hat(s3):
    for pt in spanning_points(s3):
        for k in range(-3, 4):
            lhs = tau_hat(s3, phi_k_apply(s3, pt, k))
            rhs = phi_k_apply(s3, tau_hat(s3, pt), k)
            assert lhs.x == rhs.x and lhs.k == rhs.k


def test_formal_commutation_matches_points(s3):
    rng = random.Random(4)
    points = spanning_points(s3)
    for _ in range(25):
        element = GroupRingElement(3, [rng.randint(-2, 2) for _ in range(3)])
        k = rng.randint(-2, 2)
        pt = rng.choice(points)
        shift_first = apply_monomial_point(s3, element, phi_k_apply(s3, pt, k))
        monomial_first = phi_k_apply(
            s3, apply_monomial_point(s3, element, pt), element.augmentation() * k
        )
        assert shift_first.x == monomial_first.x
        assert shift_first.k == monomial_first.k


def test_builtin_finite_norm_counts():
    tw = FiniteTower(3, 2, 1)
    points = [x for x in tw.field.elements() if norm(tw, x) == tw.one]
    assert len(points) == 4  # (9 - 1) / (3 - 1)


def test_builtin_finite_frobenius_order():
    # every (q, n) that the models benchmark, verify and the tests build
    for q, n in [(q, n) for q in (2, 3, 4, 5, 7, 8, 9) for n in (2, 3, 4) if q**n <= 4096]:
        tw = FiniteTower(q, n, 1)
        gen = tw.field.generator()
        images = {gen}
        x = gen
        for _ in range(n - 1):
            x = tw.sigma(x)
            images.add(x)
        assert len(images) == n
        assert tw.sigma(x) == gen


def test_builtin_finite_norm_lands_in_base():
    rng = random.Random(5)
    tw = FiniteTower(5, 3, 2)
    for _ in range(20):
        x = tw.random_element(rng)
        assert tw.sigma(norm(tw, x)) == norm(tw, x)


def test_builtin_finite_prime_power_base():
    tw = FiniteTower(4, 2, 1)
    assert tw.field.order == 16
    rng = random.Random(6)
    x, y = tw.random_unit(rng), tw.random_unit(rng)
    assert (x * y) / y == x
    assert norm(tw, x) * norm(tw, y) == norm(tw, x * y)


def test_finite_tower_maps_refuse_elements_of_another_field():
    import copy

    tw = FiniteTower(3, 2, 1)
    foreign = FiniteTower(3, 3, 1).field.generator()
    for apply in (tw.sigma, tw.tau, tw.flatten):
        with pytest.raises(ValueError, match="different towers"):
            apply(foreign)
    # a field equal to the tower's but another object mixes, as in arithmetic
    twin = copy.deepcopy(tw.field)
    assert twin is not tw.field and twin == tw.field
    x = twin.generator()
    assert tw.sigma(x) == x**3 and tw.tau(x) is x
    assert tw.flatten(x) == tw.flatten(tw.field.generator())


@pytest.mark.parametrize("modulus", [(2, 1, 1), (2, 0, 1)], ids=["irreducible", "reducible"])
def test_finite_tower_reads_an_extension_b_in_the_canonical_field(modulus):
    from sdpcert.finitefield import ExtField, PrimeField, gf

    # y^2 + y + 2 is not gf(9)'s modulus, and y^2 - 1 is not irreducible
    other = ExtField(PrimeField(3), modulus)
    tw = FiniteTower(3, 2, other.element((2,)))
    assert tw.field is gf(9)
    assert tw.b == gf(9).element(2)
    with pytest.raises(ValueError, match="different towers"):
        tw.sigma(other.generator())
    with pytest.raises(ValueError, match="b must lie in the base field"):
        FiniteTower(3, 2, other.generator())


def test_finite_tower_refuses_a_b_over_another_gf9():
    from sdpcert.finitefield import ExtField, PrimeField

    # y of GF(3)[y]/(y^2 + y + 2) is a root of y^2 + y + 2, and the canonical y is not
    other = ExtField(PrimeField(3), (2, 1, 1))
    y = other.generator()
    squares = {x * x for x in other.elements()}
    c = next(x for x in other.elements() if x not in squares)
    over_other = ExtField(other, (-c, 0, 1))
    with pytest.raises(ValueError, match="different fields"):
        FiniteTower(9, 2, over_other.embed(y))


def test_finite_tower_refuses_a_b_from_an_extension_of_a_smaller_field():
    from sdpcert.finitefield import PrimeField, _smallest_extension

    # x = g^10 lies in the GF(9) inside GF(81) = GF(3)[y]/(f), but GF(81) holds
    # two images of the canonical gf(9), which differ by Frobenius
    field = _smallest_extension(PrimeField(3), 4)
    g = next(x for x in field.elements() if x and len({x**e for e in range(80)}) == 80)
    x = g**10
    assert x**9 == x and x**3 != x
    with pytest.raises(ValueError, match="b lies in an extension of a field of order 3, not of GF\\(9\\)"):
        FiniteTower(9, 2, x)


def test_builtin_finite_rejects_zero_b():
    with pytest.raises(ValueError):
        FiniteTower(3, 2, 0)


def test_make_norm_point_validates():
    tw = FiniteTower(3, 2, 2)
    with pytest.raises(ValueError):
        make_norm_point(tw, tw.one, 1)  # N(1) = 1 != b


def test_partial_norm_monomial_matches_product(s3):
    # evaluating the j'th partial norm as a monomial is the sigma-product
    x = s3.basis_element(1) - s3.one
    for j in range(4):
        assert apply_monomial(s3, partial_norm(3, 1, j), x) == sigma_partial_product(s3, x, j)
    with pytest.raises(ValueError, match="nonnegative"):
        sigma_partial_product(s3, x, -1)


@pytest.mark.parametrize("k", [0.0, 1.0, Fraction(1), Fraction(1, 2), "1"])
def test_norm_set_points_take_integer_exponents_only(s3, k):
    with pytest.raises(TypeError):
        NormSetPoint(s3.one, k)
    with pytest.raises(TypeError):
        make_norm_point(s3, s3.one, k)
    with pytest.raises(TypeError):
        phi_k_apply(s3, make_norm_point(s3, s3.one, 0), k)


def test_norm_set_points_convert_integers():
    import numpy as np

    tw = FiniteTower(3, 2, 2)
    pt = NormSetPoint(tw.one, np.int64(0))
    assert type(pt.k) is int
    assert pt == NormSetPoint(tw.one, False) == make_norm_point(tw, tw.one, 0)
    assert hash(pt) == hash(NormSetPoint(tw.one, 0))
    assert pt != NormSetPoint(tw.one, 1)
    assert repr(pt) == f"NormSetPoint(x={tw.one!r}, k=0)"


def test_fixture_round_trip(s3):
    text = dump_tower(s3)
    loaded = load_tower(text)
    assert loaded.table == s3.table
    assert loaded.sigma_matrix == s3.sigma_matrix
    assert loaded.tau_matrix == s3.tau_matrix
    assert loaded.b == loaded.scalar(-1)
    # evaluation agrees on a sample
    x = loaded.element((1, 2, Fraction(1, 2), 0, -1, 3))
    y = s3.element((1, 2, Fraction(1, 2), 0, -1, 3))
    assert loaded.sigma(x).coords == s3.sigma(y).coords
    assert norm(loaded, x).coords == norm(s3, y).coords


@pytest.mark.parametrize(
    "make",
    [
        lambda tw: tw.element((0.1, 0, 0, 0, 0, 0)),
        lambda tw: tw.element(("1/3", 0, 0, 0, 0, 0)),
        lambda tw: tw.element((0, 0, 0, 0, 0, 2.0)),
        lambda tw: tw.scalar(0.5),
        lambda tw: tw.scalar("2"),
    ],
    ids=["float coordinate", "string coordinate", "integral float", "float scalar", "string scalar"],
)
def test_tower_takes_rationals_only(s3, make):
    with pytest.raises(TypeError):
        make(s3)


def test_tower_takes_ints_bools_fractions_and_numpy_integers(s3):
    import numpy as np

    x = s3.element((np.int64(3), True, Fraction(-1, 2), 0, 0, 0))
    assert x == s3.element((3, 1, Fraction(-1, 2), 0, 0, 0))
    assert all(type(a) is int for a in x.num) and type(x.den) is int
    assert s3.scalar(np.int32(-1)) == s3.b


def s3_coordinates(tw, x):
    """The E-over-L coordinates of x in an x^3 - 2 tower: x_e + x_(3+e) * zeta on c^e."""
    return [tw.element([x.coords[e], 0, 0, x.coords[3 + e], 0, 0]) for e in range(3)]


def test_loaded_tower_flatten_agrees_with_builtin(s3):
    loaded = load_tower(dump_tower(s3))
    rng = random.Random(7)
    for _ in range(10):
        x = s3.random_element(rng, span=3)
        assert s3.flatten(x) == s3_coordinates(s3, x)
        assert loaded.flatten(loaded.element(x.coords)) == s3_coordinates(loaded, x)
    assert [e.coords for e in loaded.l_basis()] == [e.coords for e in s3.l_basis()]


@pytest.mark.parametrize("source", ["builtin", "loaded"])
def test_flatten_gives_sigma_fixed_coordinates_over_the_l_basis(s3, source):
    tw = s3 if source == "builtin" else load_tower(dump_tower(s3))
    rng = random.Random(8)
    basis = tw.l_basis()
    assert len(basis) == tw.n
    for _ in range(25):
        x = tw.random_element(rng, span=4) * Fraction(rng.randint(1, 5), rng.randint(1, 7))
        coordinates = tw.flatten(x)
        assert len(coordinates) == tw.n
        assert all(tw.sigma(c) == c for c in coordinates)
        assert sum((c * e for c, e in zip(coordinates, basis)), tw.zero) == x


def test_fixture_rejects_malformed_input():
    with pytest.raises(ValueError):
        load_tower("label 0 x\n")
    with pytest.raises(ValueError):
        load_tower("nonsense 1 2 3\n")


@pytest.mark.parametrize("bad_line, edit", [
    ("tower dim=6 m=2 r=2 t=2 s=1", "header without n"),
    ("tower dim=6 n=3 m=2 r=2 t=two s=1", "header value not an integer"),
    ("tower dim6 n=3 m=2 r=2 t=2 s=1", "header item without ="),
    ("tower dim=6 n=3 m=2 r=2 t=2", "header without s"),
    ("mul 0 1", "short mul line"),
    ("mul 0 1 2 3 4", "long mul line"),
    ("label 2", "short label line"),
    ("sigma 0 0", "short sigma line"),
    ("elem b 0", "short elem line"),
    ("mul 6 0 0 1", "mul index past dim"),
    ("mul 0 0 6 1", "mul target past dim"),
    ("label 6 x", "label index past dim"),
    ("tau 0 6 1", "tau index past dim"),
    ("elem b 6 1", "elem index past dim"),
    ("elem mu 0 1", "unknown element"),
    ("mul -6 0 0 1", "negative mul index"),
    ("sigma -6 -6 1", "negative sigma indices"),
    ("elem lambda -1 1", "negative elem index"),
    ("mul 0 0 0 x", "value not a rational"),
    ("tau 0 0 1/0", "zero denominator"),
    ("mul a 0 0 1", "index not an integer"),
    ("tower dim=6 n=3 m=2 r=2 t=2 s=1 dim=6", "header key repeated, same value"),
    ("tower dim=6 n=3 m=2 r=2 t=2 s=1 s=2", "header key repeated, another value"),
    ("tower dim=6 n=3 m=2 r=2 t=2 s=1 colour=red", "unknown header key"),
    ("tower dim=0 n=1 m=1 r=1 t=1 s=0", "zero dim"),
    ("tower dim=-3 n=1 m=1 r=1 t=1 s=0", "negative dim"),
    ("label 1 other", "a second label 1"),
    ("mul 1 1 2 1", "a repeated mul line"),
    ("mul 1 1 2 5", "a second mul 1 1 2"),
    ("sigma 1 4 1", "a second sigma 1 4"),
    ("tau 0 3 1", "a second tau 0 3"),
    ("elem b 0 2", "a second elem b 0"),
    ("elem lambda 0 -1", "a repeated elem lambda line"),
])
def test_fixture_rejects_each_malformed_line(s3, bad_line, edit):
    lines = dump_tower(s3).splitlines()
    if bad_line.startswith("tower"):
        lines[0] = bad_line
    else:
        lines.append(bad_line)
    with pytest.raises(ValueError, match="malformed fixture line") as info:
        load_tower("\n".join(lines) + "\n")
    assert repr(bad_line) in str(info.value), edit


def test_fixture_rejects_a_second_header(s3):
    header = dump_tower(s3).splitlines()[0]
    with pytest.raises(ValueError, match="malformed fixture line") as info:
        load_tower(dump_tower(s3) + header + "\n")
    assert repr(header) in str(info.value)


@pytest.mark.parametrize("label", ["", "c 2", "c#2"],
                         ids=["empty", "whitespace", "comment mark"])
def test_dump_refuses_a_label_the_fixture_cannot_hold(s3, label):
    # "c 2" and "" would give a fixture that fails to load, and "c#2" one that loads as "c"
    tw = load_tower(dump_tower(s3))
    tw.labels = tw.labels[:1] + (label,) + tw.labels[2:]
    with pytest.raises(ValueError, match="label 1 is " + re.escape(repr(label))):
        dump_tower(tw)


def test_construction_rejects_broken_parameters(s3):
    text = dump_tower(s3).replace("tower dim=6 n=3 m=2 r=2 t=2 s=1",
                                  "tower dim=6 n=3 m=2 r=2 t=2 s=2")
    with pytest.raises(RuntimeError):
        load_tower(text)


def test_construction_rejects_a_negative_t(s3):
    # r*t = s*n + 1 holds with t = s = -1, but tau-hat takes a partial norm of length t
    text = dump_tower(s3).replace("r=2 t=2 s=1", "r=2 t=-1 s=-1")
    with pytest.raises(RuntimeError, match="header's t = -1 is not the tower's t = 2"):
        load_tower(text)
    # a negative r reads t off r mod n: r = -1 acts as 2, and tau(b) = lambda^3 b^-1 needs lambda = 1
    tower = NumberTower(labels=s3.labels, table=s3.table, sigma_matrix=s3.sigma_matrix,
                        tau_matrix=s3.tau_matrix, r=-1, b_coords=s3.b.coords, lam_coords=s3.one.coords)
    assert (tower.r, tower.t, tower.s) == (-1, 2, -1)
    assert load_tower(dump_tower(tower)).t == 2


@pytest.mark.parametrize("values, key", [
    ("n=4 m=2 r=2 t=2 s=1", "n"),
    ("n=3 m=1 r=2 t=2 s=1", "m"),
    ("n=3 m=3 r=2 t=2 s=1", "m"),
    ("n=3 m=2 r=2 t=1 s=1", "t"),
    ("n=3 m=2 r=2 t=2 s=0", "s"),
    # 2*5 = 3*3 + 1, but t = 5 is not r^-1 mod n, which dump_tower writes
    ("n=3 m=2 r=2 t=5 s=3", "t"),
])
def test_a_header_value_other_than_the_towers_is_refused(s3, values, key):
    text = dump_tower(s3).replace("n=3 m=2 r=2 t=2 s=1", values)
    with pytest.raises(RuntimeError, match=f"^the header's {key} = .* is not the tower's {key} = "):
        load_tower(text)


def test_an_r_sharing_a_factor_with_n_fails_the_conjugation_check(s3):
    with pytest.raises(RuntimeError, match="tau sigma tau\\^-1 != sigma\\^r"):
        load_tower(dump_tower(s3).replace("r=2", "r=3"))


def test_a_tower_without_basis_elements_is_refused():
    with pytest.raises(RuntimeError, match="at least one basis element"):
        NumberTower(labels=[], table=[], sigma_matrix=[], tau_matrix=[], r=1, b_coords=[], lam_coords=[])


# Q[x]/(x^2) with sigma: x -> 2x passes the table and automorphism checks, and sigma has no order
INFINITE_ORDER_PROBE = """
from sdpcert.tower import NumberTower
try:
    NumberTower(labels=["1", "x"], table=[[(1, 0), (0, 1)], [(0, 1), (0, 0)]],
                sigma_matrix=[[1, 0], [0, 2]], tau_matrix=[[1, 0], [0, 1]], r=1,
                b_coords=(1, 0), lam_coords=(1, 0))
except RuntimeError as exc:
    print(exc)
"""


def test_an_automorphism_of_infinite_order_is_refused_instead_of_searched_forever():
    # a fresh interpreter, so an unbounded order search fails on the timeout
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", INFINITE_ORDER_PROBE], env=env,
                          capture_output=True, text=True, timeout=20)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "sigma has no order at most dim\n"


def test_construction_rejects_a_degree_other_than_n_times_m(s3):
    # every other invariant holds: tau is the identity of order m = 1, lambda = 1
    lines = [line for line in dump_tower(s3).splitlines()
             if not line.startswith(("tower ", "tau ", "elem lambda "))]
    lines.insert(0, "tower dim=6 n=3 m=1 r=1 t=1 s=0")
    lines += [f"tau {i} {i} 1" for i in range(6)] + ["elem lambda 0 1"]
    with pytest.raises(RuntimeError, match="not n\\*m"):
        load_tower("\n".join(lines) + "\n")
