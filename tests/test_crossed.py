import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import commuting_multiply
from sdpcert import linalg
from sdpcert.crossed import (
    CrossedProduct,
    LeftIdeal,
    SplittingChain,
    _ideal_coordinates,
    chain_from_ideal,
    chain_from_unit,
    cocycle_condition_holds,
    corrupt_chain,
    ideal_from_chain,
    is_splitting_chain,
    norm_element_check,
    random_cyclic_instance,
    standard_cyclic_cocycle,
    tau_action_check,
    tensor_power_check,
)
from sdpcert.linalg import rref
from sdpcert.suites import crossed_checks, s3_spanning_points
from sdpcert.tower import FiniteTower, builtin_s3, norm, radical_tower


@pytest.fixture(scope="module")
def s3_algebra():
    return CrossedProduct(builtin_s3())


def test_standard_cocycle_n2():
    tw = FiniteTower(3, 2, 2)
    table = standard_cyclic_cocycle(tw)
    assert table[(1, 1)] == tw.b
    assert table[(0, 0)] == tw.one
    assert table[(0, 1)] == tw.one
    assert table[(1, 0)] == tw.one


def test_standard_cocycle_satisfies_condition():
    for q, n in ((3, 2), (5, 3), (3, 3)):
        tw = FiniteTower(q, n, 2)
        assert cocycle_condition_holds(tw, standard_cyclic_cocycle(tw))


def test_standard_cocycle_rejects_bad_b():
    tw = FiniteTower(3, 2, 1)
    with pytest.raises(ValueError):
        standard_cyclic_cocycle(tw, tw.zero)
    with pytest.raises(ValueError):
        standard_cyclic_cocycle(tw, tw.field.generator())  # not sigma-fixed


def test_defining_relations():
    rng = random.Random(0)
    tw = FiniteTower(5, 3, 3)
    algebra = CrossedProduct(tw)
    for _ in range(20):
        x = tw.random_element(rng)
        lhs = algebra.multiply(algebra.u(1), algebra.from_field(x))
        rhs = algebra.multiply(algebra.from_field(tw.sigma(x)), algebra.u(1))
        assert lhs == rhs
    assert algebra.u_power(3) == algebra.from_field(tw.b)


def test_multiplication_is_associative():
    rng = random.Random(1)
    tw = FiniteTower(3, 3, 2)
    algebra = CrossedProduct(tw)
    for _ in range(30):
        x, y, z = (tuple(tw.random_element(rng) for _ in range(3)) for _ in range(3))
        assert algebra.multiply(algebra.multiply(x, y), z) == algebra.multiply(
            x, algebra.multiply(y, z)
        )


def test_corrupted_cocycle_breaks_associativity():
    rng = random.Random(2)
    tw = FiniteTower(3, 3, 2)
    algebra = CrossedProduct(tw)
    corrupted = dict(algebra.cocycle)
    corrupted[(1, 1)] = corrupted[(1, 1)] * tw.field.from_int(2)
    assert not cocycle_condition_holds(tw, corrupted)
    with pytest.raises(ValueError):
        CrossedProduct(tw, corrupted)
    broken = CrossedProduct(tw, corrupted, validate=False)
    failed = False
    for _ in range(60):
        x, y, z = (tuple(tw.random_element(rng) for _ in range(3)) for _ in range(3))
        if broken.multiply(broken.multiply(x, y), z) != broken.multiply(
            x, broken.multiply(y, z)
        ):
            failed = True
            break
    assert failed


def test_partial_norm_chain_splits():
    rng = random.Random(3)
    for q, n in ((3, 2), (5, 2), (3, 3), (5, 3)):
        algebra, chain, y = random_cyclic_instance(q, n, rng)
        assert algebra.tower.b == norm(algebra.tower, y)
        assert chain.values[0] == algebra.tower.one
        assert is_splitting_chain(algebra, chain)


def test_ideal_dimensions():
    rng = random.Random(4)
    for q, n in ((3, 2), (5, 3)):
        algebra, chain, _ = random_cyclic_instance(q, n, rng)
        ideal = ideal_from_chain(algebra, chain)
        assert ideal.dimension == n * n - n
        assert algebra.dimension() - ideal.dimension == n  # quotient has dimension |G|


def test_round_trips_are_mutually_inverse():
    rng = random.Random(5)
    for trial in range(25):
        q = (3, 5)[trial % 2]
        n = (2, 3)[(trial // 2) % 2]
        algebra, chain, _ = random_cyclic_instance(q, n, rng)
        ideal = ideal_from_chain(algebra, chain)
        recovered = chain_from_ideal(algebra, ideal)
        assert recovered.values == chain.values
        assert ideal_from_chain(algebra, recovered) == ideal


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from((3, 4, 5, 7)), st.sampled_from((2, 3)), st.integers(0, 2**32))
def test_chain_ideal_chain_round_trip(q, n, seed):
    algebra, chain, _ = random_cyclic_instance(q, n, random.Random(seed))
    ideal = ideal_from_chain(algebra, chain)
    assert ideal.dimension == n * n - n
    recovered = chain_from_ideal(algebra, ideal)
    assert recovered.values == chain.values
    assert ideal_from_chain(algebra, recovered) == ideal


def test_corrupted_chain_is_rejected():
    rng = random.Random(6)
    algebra, chain, _ = random_cyclic_instance(3, 3, rng)
    bad = corrupt_chain(algebra, chain)
    assert not is_splitting_chain(algebra, bad)
    with pytest.raises(ValueError):
        ideal_from_chain(algebra, bad)


def test_corrupted_chain_over_the_number_tower_is_rejected(s3_algebra):
    tw = s3_algebra.tower
    chain = chain_from_unit(s3_algebra, tw.scalar(-1))  # N(-1) = b
    assert is_splitting_chain(s3_algebra, chain)
    bad = corrupt_chain(s3_algebra, chain)
    assert not is_splitting_chain(s3_algebra, bad)
    assert bad.values[1] == chain.values[1] * tw.l_basis()[1]
    with pytest.raises(ValueError):
        ideal_from_chain(s3_algebra, bad)


def test_scaling_by_norm_one_element_gives_another_chain():
    # scaling z_1 by a norm-one scalar produces a different valid chain, a
    # different point of the same variety
    rng = random.Random(7)
    algebra, chain, _ = random_cyclic_instance(3, 2, rng)
    tw = algebra.tower
    scalar = tw.field.from_int(2)  # N(2) = 2^2 = 1 in GF(3)
    values = list(chain.values)
    values[1] = values[1] * scalar
    other = SplittingChain(tuple(values))
    assert is_splitting_chain(algebra, other)
    ideal = ideal_from_chain(algebra, other)
    assert chain_from_ideal(algebra, ideal).values == other.values


def test_ideal_containing_field_part_is_rejected():
    rng = random.Random(8)
    algebra, chain, _ = random_cyclic_instance(3, 2, rng)
    tw = algebra.tower
    field_rows = [_ideal_coordinates(algebra, algebra.from_field(e_b)) for e_b in tw.l_basis()]
    rows, pivots = rref(field_rows, tw.zero)
    fake = LeftIdeal(algebra, rows, pivots)
    with pytest.raises(ValueError, match="complementary"):
        chain_from_ideal(algebra, fake)


def test_a_non_complementary_ideal_of_another_algebra_is_refused_as_foreign():
    # the algebra is checked before the pivots, so the refusal names the algebra
    algebra, _, _ = random_cyclic_instance(3, 2, random.Random(8))
    tw = algebra.tower
    field_rows = [_ideal_coordinates(algebra, algebra.from_field(e_b)) for e_b in tw.l_basis()]
    fake = LeftIdeal(algebra, *rref(field_rows, tw.zero))
    assert fake.pivots != tuple(range(algebra.n**2 - algebra.n))
    with pytest.raises(ValueError, match="^the ideal belongs to another algebra$"):
        chain_from_ideal(CrossedProduct(tw), fake)


def test_ideal_of_the_right_dimension_meeting_the_field_part_is_rejected():
    # at n = 3: the field block plus the u_1 block, 6 = n^2 - n rows
    algebra, _, _ = random_cyclic_instance(5, 3, random.Random(15))
    tw = algebra.tower
    spanning = [algebra.scale(e_b, algebra.u(j)) for j in (0, 1) for e_b in tw.l_basis()]
    rows, pivots = rref([_ideal_coordinates(algebra, x) for x in spanning], tw.zero)
    fake = LeftIdeal(algebra, rows, pivots)
    assert fake.dimension == 6
    with pytest.raises(ValueError, match="complementary"):
        chain_from_ideal(algebra, fake)


def standard_rows(algebra, chain):
    """The rref of the generators e_b*(z_j - u_j) in flatten coordinates, field part first."""
    tw = algebra.tower
    generators = [
        algebra.flatten(
            algebra.scale(e_b, algebra.sub(algebra.from_field(chain.values[j]), algebra.u(j)))
        )
        for j in range(1, algebra.n)
        for e_b in tw.l_basis()
    ]
    return rref(generators, tw.zero)[0]


def reference_chain(algebra, rows):
    """Solve rows + field rows = u_j in flatten coordinates, one rref per j."""
    tw = algebra.tower
    basis = tw.l_basis()
    vectors = list(rows) + [algebra.flatten(algebra.from_field(e_b)) for e_b in basis]
    values = []
    for j in range(algebra.n):
        target = algebra.flatten(algebra.u(j))
        augmented = [[v[i] for v in vectors] + [target[i]] for i in range(len(target))]
        reduced, pivots = rref(augmented, tw.zero)
        assert pivots == tuple(range(len(vectors)))  # a unique solution
        z_j = tw.zero
        for b in range(algebra.n):
            z_j = z_j + reduced[len(rows) + b][-1] * basis[b]
        values.append(z_j)
    return tuple(values)


def assert_graph_route_matches_solve_route(algebra, chain):
    n = algebra.n
    ideal = ideal_from_chain(algebra, chain)
    rows = standard_rows(algebra, chain)
    rotated_back = [row[-n:] + row[:-n] for row in ideal.rows]
    assert rref(rotated_back, algebra.tower.zero)[0] == rows
    assert chain_from_ideal(algebra, ideal).values == reference_chain(algebra, rows)


REFERENCE_CASES = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9) for n in (2, 3, 4) if q**n <= 4096]


@pytest.mark.parametrize("q, n", REFERENCE_CASES)
def test_graph_route_matches_the_solve_route(q, n):
    for seed in range(2):
        algebra, chain, _ = random_cyclic_instance(q, n, random.Random(seed))
        assert_graph_route_matches_solve_route(algebra, chain)


@pytest.mark.parametrize("q, n", REFERENCE_CASES)
def test_crossed_checks_pass_on_every_reference_field(q, n):
    pairs = [random_cyclic_instance(q, n, random.Random(seed))[:2] for seed in range(2)]
    checks = crossed_checks(lambda: pairs)
    assert [(c.passed, c.detail) for c in checks] == [(True, "2 cases")] * 4
    for algebra, chain in pairs:
        # z_1 alone when n >= 3; z_0 alone where N(e_1) = 1, as in GF(4) over GF(2)
        bad = corrupt_chain(algebra, chain)
        changed = [j for j in range(n) if bad.values[j] != chain.values[j]]
        assert changed == [1] or (n == 2 and changed == [0])
        assert not is_splitting_chain(algebra, bad)


def test_graph_route_matches_the_solve_route_on_s3(s3_algebra):
    # N(-1) = b, and x / sigma(x) has norm 1 (Hilbert 90)
    tw = s3_algebra.tower
    x = tw.basis_element(1) + tw.one
    for y in (tw.scalar(-1), -x / tw.sigma(x)):
        chain = chain_from_unit(s3_algebra, y)
        assert is_splitting_chain(s3_algebra, chain)
        assert_graph_route_matches_solve_route(s3_algebra, chain)


@pytest.fixture(scope="module")
def p5_r3_algebra():
    """The crossed product over radical_tower(5, 2, 3, -1, 1), where m = 4."""
    return CrossedProduct(radical_tower(5, 2, 3, -1, 1))


def p5_r3_chains(algebra):
    # N(x) = b for the exponent-1 points, so their partial norms split the standard cocycle
    points = [pt for pt in s3_spanning_points(algebra.tower) if pt.k == 1]
    assert len(points) == 6
    return [chain_from_unit(algebra, pt.x) for pt in points]


def test_graph_route_matches_the_solve_route_with_m_above_2(p5_r3_algebra):
    assert p5_r3_algebra.tower.m == 4
    for chain in p5_r3_chains(p5_r3_algebra):
        assert_graph_route_matches_solve_route(p5_r3_algebra, chain)


def test_corrupted_chains_with_m_above_2_are_rejected(p5_r3_algebra):
    for chain in p5_r3_chains(p5_r3_algebra):
        bad = corrupt_chain(p5_r3_algebra, chain)
        assert not is_splitting_chain(p5_r3_algebra, bad)
        with pytest.raises(ValueError):
            ideal_from_chain(p5_r3_algebra, bad)


def test_crossed_checks_pass_with_m_above_2(p5_r3_algebra):
    pairs = [(p5_r3_algebra, chain) for chain in p5_r3_chains(p5_r3_algebra)]
    checks = crossed_checks(lambda: pairs)
    assert [(c.passed, c.detail) for c in checks] == [(True, "6 cases")] * 4


def test_crossed_checks_fail_each_check_on_a_raising_build():
    def build():
        raise RuntimeError("no algebra")

    checks = crossed_checks(build)
    raised = "1 case; first disagreement: case 1 raised RuntimeError('no algebra')"
    assert [(c.passed, c.detail) for c in checks] == [(False, raised)] * 4


def test_tau_action_and_norm_elements_with_m_above_2(p5_r3_algebra):
    assert all(c.passed for c in tau_action_check(p5_r3_algebra))
    for x in p5_r3_algebra.tower.l_basis():
        for i in range(1, 11):
            assert norm_element_check(p5_r3_algebra, x, i).passed


def test_round_trips_do_no_row_reduction(monkeypatch):
    # the towers are built first: a NumberTower row-reduces once, when it is made
    rng = random.Random(17)
    cases = [random_cyclic_instance(q, n, rng)[:2] for q in (3, 4) for n in (2, 3)]
    s3 = CrossedProduct(builtin_s3())
    cases.append((s3, chain_from_unit(s3, s3.tower.scalar(-1))))

    def refuse(*args):
        raise AssertionError("row reduction in a chain round trip")

    monkeypatch.setattr(linalg, "rref", refuse)
    monkeypatch.setattr(linalg, "rank_rational", refuse)
    monkeypatch.setattr(linalg, "reduce_against", refuse)
    monkeypatch.setattr(LeftIdeal, "contains", refuse)
    for algebra, chain in cases:
        ideal = ideal_from_chain(algebra, chain)
        recovered = chain_from_ideal(algebra, ideal)
        assert recovered.values == chain.values
        assert ideal_from_chain(algebra, recovered) == ideal


def test_closure_is_refused_exactly_where_a_chain_value_moves(monkeypatch):
    # with u x = x u in place of u x = sigma(x) u, the chain's form on u * e_b*(z_j - u_j)
    # reads e_b z_1 (z_j - sigma(z_j)), while delta z = c never calls multiply
    cases = [random_cyclic_instance(q, n, random.Random(seed))[:2]
             for q in (3, 5) for n in (2, 3) for seed in range(3)]
    s3 = CrossedProduct(builtin_s3())
    cases += [(s3, chain_from_unit(s3, pt.x)) for pt in s3_spanning_points(s3.tower)[6:]]
    monkeypatch.setattr(CrossedProduct, "multiply", commuting_multiply)
    verdicts = []
    for algebra, chain in cases:
        moves = any(algebra.tower.sigma(z_j) != z_j for z_j in chain.values[1:])
        if moves:
            with pytest.raises(RuntimeError, match="not closed under left multiplication by u"):
                ideal_from_chain(algebra, chain)
        else:
            assert ideal_from_chain(algebra, chain).dimension == algebra.n**2 - algebra.n
        verdicts.append(moves)
    # -1 and -zeta are sigma-fixed, so are their partial norms
    assert verdicts == [True] * 12 + [False] * 2 + [True] * 4


def test_chain_from_ideal_refuses_an_ideal_of_another_s3_algebra():
    algebra, other = CrossedProduct(builtin_s3()), CrossedProduct(builtin_s3())
    ideal = ideal_from_chain(algebra, _s3_chain(algebra))
    with pytest.raises(ValueError, match="^the ideal belongs to another algebra$"):
        chain_from_ideal(other, ideal)
    assert chain_from_ideal(algebra, ideal) == _s3_chain(algebra)


def test_chain_from_ideal_refuses_an_ideal_of_another_finite_algebra():
    algebra, chain, _ = random_cyclic_instance(5, 3, random.Random(18))
    ideal = ideal_from_chain(algebra, chain)
    tw = algebra.tower
    # the same tower, an equal one, and one over the same field with another b
    others = [CrossedProduct(tw), CrossedProduct(FiniteTower(5, 3, tw.b)),
              CrossedProduct(FiniteTower(5, 3, tw.b * tw.scalar(2)))]
    assert others[2].tower.field is tw.field and others[2].tower.b != tw.b
    for other in others:
        with pytest.raises(ValueError, match="^the ideal belongs to another algebra$"):
            chain_from_ideal(other, ideal)
    assert chain_from_ideal(algebra, ideal) == chain


def test_ideals_of_different_algebras_are_not_equal():
    tw = FiniteTower(5, 3, 2)
    algebra = CrossedProduct(tw)
    other = CrossedProduct(tw, standard_cyclic_cocycle(tw, tw.scalar(3)))
    assert algebra.cocycle != other.cocycle
    rows = [[tw.one if column == row else tw.zero for column in range(9)] for row in range(6)]
    ideal = LeftIdeal(algebra, rows, range(6))
    same_rows = LeftIdeal(other, rows, range(6))
    assert same_rows != ideal and ideal != same_rows
    assert hash(same_rows) == hash(ideal)
    assert LeftIdeal(algebra, rows, range(6)) == ideal


def test_ideal_rows_put_the_field_part_last():
    algebra, chain, _ = random_cyclic_instance(3, 3, random.Random(16))
    ideal = ideal_from_chain(algebra, chain)
    assert ideal.pivots == tuple(range(6))
    for j in range(1, 3):
        assert ideal.contains(algebra.sub(algebra.from_field(chain.values[j]), algebra.u(j)))
    assert not ideal.contains(algebra.u(1))
    assert not ideal.contains(algebra.one)


def test_corrupted_chain_over_gf4_is_rejected():
    # N: GF(4)* -> GF(2)* is trivial, so no scaling of z_1 breaks delta z = c
    for seed in range(4):
        algebra, chain, _ = random_cyclic_instance(2, 2, random.Random(seed))
        bad = corrupt_chain(algebra, chain)
        assert not is_splitting_chain(algebra, bad)
        assert bad.values[1] == chain.values[1]
        assert bad.values[0] not in (algebra.tower.zero, algebra.tower.one)
        with pytest.raises(ValueError):
            ideal_from_chain(algebra, bad)


def test_norm_element_identity_trivial_case():
    rng = random.Random(9)
    algebra, _, _ = random_cyclic_instance(5, 3, rng)
    x = algebra.tower.random_unit(rng)
    check = norm_element_check(algebra, x, 1)
    assert check.passed


def test_norm_element_identity_finite_sweep():
    rng = random.Random(10)
    algebra, _, _ = random_cyclic_instance(3, 3, rng)
    spanning = algebra.tower.l_basis() + [algebra.tower.random_unit(rng)]
    for x in spanning:
        for i in range(1, 2 * algebra.n + 1):
            assert norm_element_check(algebra, x, i).passed


def test_norm_element_identity_on_s3(s3_algebra):
    c = s3_algebra.tower.basis_element(1)
    for i in range(1, 7):
        assert norm_element_check(s3_algebra, c, i).passed


def test_tau_action_on_s3(s3_algebra):
    checks = tau_action_check(s3_algebra)
    assert all(c.passed for c in checks)
    names = [c.name for c in checks]
    assert "tau(u^n) = tau(b)" in names
    assert "tau^m fixes u" in names


def test_tensor_square_finite():
    rng = random.Random(11)
    algebra, _, _ = random_cyclic_instance(3, 2, rng)
    checks = tensor_power_check(algebra, 2)
    assert all(c.passed for c in checks)
    by_name = {c.name: c for c in checks}
    assert "v^n = b^l" in by_name
    assert "subalgebra has dimension n^2" in by_name


def test_tensor_power_one_is_the_algebra():
    rng = random.Random(12)
    algebra, _, _ = random_cyclic_instance(5, 2, rng)
    checks = tensor_power_check(algebra, 1)
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("l", [1, 2])
def test_tensor_power_check_fails_v_power_n_on_a_scaled_cocycle(l):
    # c(1, 1) scaled by 2 makes v^n = (2b)^l, and 2^l != 1 mod 5 for l = 1, 2
    tower = FiniteTower(5, 2, 2)
    table = standard_cyclic_cocycle(tower)
    table[(1, 1)] = table[(1, 1)] * tower.scalar(2)
    algebra = CrossedProduct(tower, table, validate=False)
    by_name = {c.name: c for c in tensor_power_check(algebra, l)}
    assert not by_name["v^n = b^l"].passed
    assert by_name["v^n = b^l"].detail.startswith("1 case; first disagreement: {'n': 2, 'l': ")
    assert by_name["v*x = sigma(x)*v"].passed
    assert by_name["subalgebra has dimension n^2"].passed


def test_tensor_power_check_fails_the_dimension_when_u_is_one(monkeypatch):
    # with u = 1, the elements e_b*v^i span only E, of dimension n
    algebra, _, _ = random_cyclic_instance(5, 2, random.Random(12))
    monkeypatch.setattr(algebra, "u", lambda j=1: algebra.one)
    check = next(c for c in tensor_power_check(algebra, 2)
                 if c.name == "subalgebra has dimension n^2")
    assert not check.passed
    assert check.detail == "rank 2 inside the 16-dimensional tensor power"


def test_tensor_power_guard():
    rng = random.Random(13)
    algebra, _, _ = random_cyclic_instance(3, 2, rng)
    with pytest.raises(ValueError):
        tensor_power_check(algebra, 3)


def test_chain_from_unit_values():
    rng = random.Random(14)
    algebra, chain, y = random_cyclic_instance(5, 3, rng)
    tw = algebra.tower
    assert chain == chain_from_unit(algebra, y)
    assert chain.values[1] == y
    assert chain.values[2] == y * tw.sigma(y)


def test_round_trip_over_number_field_points(s3_algebra):
    # the correspondence also runs over the degree-6 tower, where the point
    # field is the sigma-fixed quadratic subfield
    tw = s3_algebra.tower
    chain = chain_from_unit(s3_algebra, tw.scalar(-1))  # N(-1) = b
    assert is_splitting_chain(s3_algebra, chain)
    ideal = ideal_from_chain(s3_algebra, chain)
    assert ideal.dimension == 6
    recovered = chain_from_ideal(s3_algebra, ideal)
    assert recovered.values == chain.values
    assert ideal_from_chain(s3_algebra, recovered) == ideal


def test_crossed_product_over_loaded_fixture_tower():
    from sdpcert.tower import builtin_s3, dump_tower, load_tower

    loaded = load_tower(dump_tower(builtin_s3()))
    algebra = CrossedProduct(loaded)
    c = loaded.basis_element(1)
    for i in range(1, 7):
        assert norm_element_check(algebra, c, i).passed


def multiply_by_every_entry(algebra, x, y):
    """The crossed product with c(i, j) multiplied in at every pair, entries equal to one included.

    The route that twists by each cocycle entry, kept as the oracle of
    CrossedProduct.multiply.
    """
    tw = algebra.tower
    out = [tw.zero] * algebra.n
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out[(i + j) % algebra.n] += xi * _sigma_power(tw, yj, i) * algebra.cocycle[(i, j)]
    return tuple(out)


def _three_tables(tower, rng, unit):
    """The standard cocycle, one cohomologous to it, and the standard with c(1, 1) doubled."""
    standard = standard_cyclic_cocycle(tower)
    n = tower.n
    a = [tower.one] + [unit() for _ in range(n - 1)]
    cohomologous = {
        (i, j): c * a[i] * _sigma_power(tower, a[j], i) / a[(i + j) % n]
        for (i, j), c in standard.items()
    }
    corrupted = dict(standard)
    corrupted[(1, 1)] = corrupted[(1, 1)] * tower.scalar(2)
    return [CrossedProduct(tower, standard), CrossedProduct(tower, cohomologous),
            CrossedProduct(tower, corrupted, validate=False)]


def _sigma_power(tower, x, power):
    for _ in range(power):
        x = tower.sigma(x)
    return x


def _nonzero(random_element):
    while True:
        x = random_element()
        if x:
            return x


@pytest.mark.parametrize("q, n", [(None, 3), (3, 3), (5, 3), (7, 3)])
def test_multiply_agrees_with_twisting_by_every_entry(q, n):
    rng = random.Random(20 + n + (q or 0))
    tower = builtin_s3() if q is None else FiniteTower(q, n, 2)

    def draw():
        return tower.random_element(rng, 3) if q is None else tower.random_element(rng)

    algebras = _three_tables(tower, rng, lambda: _nonzero(draw))
    assert not cocycle_condition_holds(tower, algebras[2].cocycle)
    assert any(c != tower.one for key, c in algebras[1].cocycle.items() if key != (0, 0))
    for algebra in algebras:
        elements = [algebra.u(j) for j in range(n)] + [
            tuple(draw() if rng.random() < 0.7 else tower.zero for _ in range(n))
            for _ in range(6)
        ]
        for x in elements:
            for y in elements:
                assert algebra.multiply(x, y) == multiply_by_every_entry(algebra, x, y), (x, y)


# --- multiply: sigma applied once per step, against the route above --------------


def _counting_sigma(monkeypatch, tower):
    """Wrap the tower's sigma in a counter; the returned list holds the count."""
    count = [0]
    sigma = tower.sigma

    def counted(x):
        count[0] += 1
        return sigma(x)

    monkeypatch.setattr(tower, "sigma", counted, raising=False)
    return count


@pytest.mark.parametrize("q", [None, 5])
def test_multiply_applies_sigma_at_most_once_per_step(monkeypatch, q):
    rng = random.Random(40 + (q or 0))
    tower = builtin_s3() if q is None else FiniteTower(5, 3, 2)
    algebra = CrossedProduct(tower)

    def draw():
        return tower.random_element(rng, 3) if q is None else tower.random_element(rng)

    def operand():
        return tuple(_nonzero(draw) if rng.random() < 0.6 else tower.zero for _ in range(3))

    count = _counting_sigma(monkeypatch, tower)
    for _ in range(60):
        x, y = operand(), operand()
        expected = multiply_by_every_entry(algebra, x, y)
        count[0] = 0
        product = algebra.multiply(x, y)
        nonzero_y = sum(1 for yj in y if yj)
        # the count of a route that applies sigma^i to each nonzero y_j afresh
        assert count[0] <= sum(i * nonzero_y for i, xi in enumerate(x) if xi), (x, y)
        assert product == expected, (x, y)


def test_orbits_make_each_conjugate_once_with_n_5(monkeypatch):
    tower = radical_tower(5, 2, 3, -1, 1)
    n = tower.n
    units = [pt.x for pt in s3_spanning_points(tower) if pt.k == 1]
    count = _counting_sigma(monkeypatch, tower)
    algebra = CrossedProduct(tower)
    # sigma(b) once, then sigma^1 ... sigma^(n-1) of each of the n^2 cocycle entries
    assert count[0] == 1 + n * n * (n - 1) == 101
    for y in units:
        count[0] = 0
        chain = chain_from_unit(algebra, y)
        # sigma(y) ... sigma^(n-2)(y)
        assert count[0] == n - 2 == 3
        count[0] = 0
        assert is_splitting_chain(algebra, chain)
        # sigma^1 ... sigma^(n-1) of each of the n chain values
        assert count[0] == n * (n - 1) == 20


def test_tau_action_check_reads_w_n_off_its_kept_powers(monkeypatch):
    algebra = CrossedProduct(builtin_s3())
    count = [0]
    multiply = algebra.multiply

    def counted(x, y):
        count[0] += 1
        return multiply(x, y)

    monkeypatch.setattr(algebra, "multiply", counted, raising=False)
    assert all(c.passed for c in tau_action_check(algebra))
    # w^0 ... w^n are made once, by n - 1 products from w, for both the action and
    # tau(u^n) = tau(b); u^1 is u, with no product
    assert count[0] == 270


@pytest.mark.parametrize("q", [None, 5])
def test_building_an_algebra_makes_no_product(monkeypatch, q):
    # u^0 and u^1 are kept as built, so the kept powers cost no multiply
    tower = builtin_s3() if q is None else FiniteTower(5, 3, 2)
    count = [0]
    multiply = CrossedProduct.multiply

    def counted(self, x, y):
        count[0] += 1
        return multiply(self, x, y)

    monkeypatch.setattr(CrossedProduct, "multiply", counted)
    algebra = CrossedProduct(tower)
    assert count[0] == 0
    assert algebra.u_powers(1) == [algebra.one, algebra.u(1)]
    assert count[0] == 0


@pytest.mark.parametrize("validate", [True, False])
def test_an_incomplete_cocycle_table_is_refused(validate):
    tower = FiniteTower(5, 3, 2)
    with pytest.raises(ValueError, match=r"no entry for \(0, 0\)"):
        CrossedProduct(tower, {}, validate=validate)
    table = standard_cyclic_cocycle(tower)
    del table[(2, 2)]
    with pytest.raises(ValueError, match=r"no entry for \(2, 2\)"):
        CrossedProduct(tower, table, validate=validate)


@pytest.mark.parametrize("q", [None, 5])
def test_norm_element_check_applies_sigma_once_per_conjugate(monkeypatch, q):
    rng = random.Random(60 + (q or 0))
    tower = builtin_s3() if q is None else FiniteTower(5, 3, 2)
    algebra = CrossedProduct(tower)
    count = _counting_sigma(monkeypatch, tower)
    multiply = algebra.multiply

    def uncounted(x, y):
        # the sigma steps of a product are bounded by the multiply test above
        before = count[0]
        product = multiply(x, y)
        count[0] = before
        return product

    monkeypatch.setattr(algebra, "multiply", uncounted)
    for _ in range(4):
        x = _nonzero(lambda: tower.random_element(rng, 3) if q is None
                     else tower.random_element(rng))
        for i in range(1, 2 * algebra.n + 1):
            count[0] = 0
            assert norm_element_check(algebra, x, i).passed, (x, i)
            # sigma^1(x) ... sigma^(i-1)(x), each made once
            assert count[0] <= i - 1, (x, i, count[0])


@pytest.mark.parametrize("q", [None, 3])
def test_operands_of_the_wrong_length_are_refused(q):
    tower = builtin_s3() if q is None else FiniteTower(3, 2, 2)
    algebra = CrossedProduct(tower)
    n = algebra.n
    for short in [(tower.one,), algebra.u(1) + (tower.one,)]:
        for x, y in [(algebra.u(1), short), (short, algebra.u(1))]:
            lengths = f"lengths {len(x)} and {len(y)}"
            for operation in (algebra.add, algebra.sub, algebra.multiply):
                with pytest.raises(ValueError, match=lengths):
                    operation(x, y)
    if q is None:
        ideal = ideal_from_chain(algebra, _s3_chain(algebra))
    else:
        ideal = ideal_from_chain(*random_cyclic_instance(3, 2, random.Random(0))[:2])
    for short in [(tower.one,), algebra.u(1) + (tower.one,)]:
        lengths = f"lengths {len(short)};"
        with pytest.raises(ValueError, match=lengths):
            algebra.scale(tower.one, short)
        with pytest.raises(ValueError, match=lengths):
            ideal.contains(short)
    assert len(algebra.add(algebra.u(1), algebra.one)) == n
    assert len(algebra.scale(tower.one, algebra.u(1))) == n
    assert not ideal.contains(ideal.algebra.u(1))


@pytest.mark.parametrize("q", [None, 5])
def test_kept_u_powers_equal_repeated_products(q):
    tower = builtin_s3() if q is None else FiniteTower(5, 3, 2)
    algebra = CrossedProduct(tower)
    u = algebra.u(1)
    expected = [algebra.one]
    for _ in range(8):
        expected.append(algebra.multiply(expected[-1], u))
    assert algebra.u_powers(3) == expected[:4]
    assert algebra.u_powers(8) == expected
    assert [algebra.u_power(k) for k in range(9)] == expected
    assert algebra.u_power(3) == algebra.from_field(tower.b)
    returned = algebra.u_powers(4)
    returned.append(algebra.zero)
    returned[1] = algebra.zero
    assert algebra.u_powers(5) == expected[:6] and algebra.u_power(1) == u
    with pytest.raises(ValueError):
        algebra.u_powers(-1)


def _s3_chain(algebra):
    tw = algebra.tower
    y = -(tw.basis_element(1) - tw.one)  # -(c - 1), of norm -1 = b
    return chain_from_unit(algebra, y)


@pytest.mark.parametrize("q", [None, 3, 5, 7])
def test_ideal_membership_agrees_with_dense_reduction(q):
    rng = random.Random(50 + (q or 0))
    if q is None:
        algebra = CrossedProduct(builtin_s3())
        chain = _s3_chain(algebra)

        def draw():
            return algebra.tower.random_element(rng, 3)
    else:
        algebra, chain, _ = random_cyclic_instance(q, 3, rng)

        def draw():
            return algebra.tower.random_element(rng)
    tw = algebra.tower
    ideal = ideal_from_chain(algebra, chain)

    def form_vanishes(element):
        # the ideal is the kernel of the left-E-linear form x -> sum_j x_j z_j
        return sum((x_j * z_j for x_j, z_j in zip(element, chain.values)), tw.zero) == tw.zero

    members = [
        algebra.multiply(tuple(draw() for _ in range(3)),
                         algebra.sub(algebra.from_field(chain.values[j]), algebra.u(j)))
        for j in (1, 2) for _ in range(4)
    ]
    others = [tuple(draw() for _ in range(3)) for _ in range(8)] + [algebra.u(1), algebra.one]
    for element in members:
        assert ideal.contains(element) and form_vanishes(element), element
    verdicts = [ideal.contains(element) for element in others]
    assert verdicts == [form_vanishes(element) for element in others]
    assert not any(verdicts[-2:]) and not all(verdicts)


# --- the finite-model outputs, pinned ------------------------------------------------

# sha256 of the reprs below over (q, n) in {3, 5, 7} x {2, 3} and seeds 0-9, taken
# before elements carried their logarithm and multiply stepped sigma once per step
FINITE_MODELS_SHA256 = "c2d24c6770a589c9ab378e2e37341f90c043a9c72d662a9e30cc3c9b438fd552"


def test_finite_model_outputs_are_pinned():
    # the calls of the benchmark's finite op, and the parts of its output the checks read
    digest = hashlib.sha256()
    for q in (3, 5, 7):
        for n in (2, 3):
            for seed in range(10):
                algebra, chain, y = random_cyclic_instance(q, n, random.Random(seed))
                ideal = ideal_from_chain(algebra, chain)
                recovered = chain_from_ideal(algebra, ideal)
                passed = [norm_element_check(algebra, y, i).passed for i in range(1, 2 * n + 1)]
                digest.update(repr((chain.values, y, ideal.rows, recovered.values, passed)).encode())
    assert digest.hexdigest() == FINITE_MODELS_SHA256


# the same, over the nested towers (q = 4, 8, 9: a table field over a table field,
# whose base is reached through its raw operations), taken before those raw
# operations went through the interned elements
NESTED_FINITE_MODELS_SHA256 = "98016da701e2a017d94cdb6734e88bc8480bfed3ea3b94a2403a4df3d1efbf9a"


def test_nested_finite_model_outputs_are_pinned():
    digest = hashlib.sha256()
    for q, n, seed in itertools.product((4, 8, 9), (2, 3), range(10)):
        algebra, chain, y = random_cyclic_instance(q, n, random.Random(seed))
        ideal = ideal_from_chain(algebra, chain)
        recovered = chain_from_ideal(algebra, ideal)
        passed = [norm_element_check(algebra, y, i).passed for i in range(1, 2 * n + 1)]
        digest.update(repr((chain.values, y, ideal.rows, recovered.values, passed)).encode())
    assert digest.hexdigest() == NESTED_FINITE_MODELS_SHA256
