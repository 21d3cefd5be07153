"""Finite fields on raw int values: coercion, the irreducible search, canonical fields, log and
Zech tables, interned elements, and oracles."""

import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpcert.finitefield import (
    _LOG_TABLE_MAX_ORDER, ExtField, ExtFieldElement, PrimeField, PrimeFieldElement, _TableField,
    _is_irreducible, _poly_divmod, gf, smallest_irreducible,
)
from sdpcert.tower import FiniteTower, norm

# --- element() reduces plain-int coefficients into the base ---------------------


def test_int_coefficients_are_reduced_mod_p():
    field = gf(9)
    assert field.element((5, 0)) == field.element((2, 0))
    assert field.element((5, 0)).coeffs == (2, 0)
    assert field.element((-1, 7)) == field.element((2, 1))


def test_a_multiple_of_p_is_zero():
    field = gf(9)
    assert not field.element((3, 0))
    assert not field.element((3, -6))
    assert field.element((3, 0)) == field.zero


def test_equal_elements_hash_alike():
    field = gf(9)
    assert hash(field.element((5, 4))) == hash(field.element((2, 1)))
    assert len({field.element((5, 4)), field.element((2, 1)), field.element((-1, 1))}) == 1


def test_inverse_of_an_element_given_by_ints():
    field = gf(9)
    x = field.element((5, 0))
    assert x.inverse() == field.element((2, 0)).inverse()
    assert x * x.inverse() == field.one
    y = field.element((1, 2))
    assert (y * y).inverse() * y * y == field.one


def test_element_accepts_base_elements_and_rejects_foreign_ones():
    field = gf(9)
    a, b = field.base.element(1), field.base.element(2)
    assert field.element((a, b)) == field.element((1, 2))
    with pytest.raises(ValueError):
        field.element((PrimeField(5).element(1), 0))
    with pytest.raises(ValueError):
        field.element((1, 2, 0))


@pytest.mark.parametrize("build", [
    pytest.param(lambda: PrimeFieldElement(PrimeField(5), 2.5), id="prime_element"),
    pytest.param(lambda: PrimeField(3.0), id="prime_field"),
    pytest.param(lambda: gf(3.0), id="gf_prime"),
    pytest.param(lambda: gf(9.0), id="gf_prime_power"),
    # the int degree first, so that its canonical field is cached
    pytest.param(lambda: (FiniteTower(3, 2, 1), FiniteTower(3, 2.0, 1)), id="tower_degree"),
])
def test_floats_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


# --- which fields mix: the same object, or equal bases with the same modulus ----


def test_elements_of_one_field_built_twice_mix():
    f, g = ExtField(PrimeField(3), (1, 0, 1)), ExtField(PrimeField(3), (1, 0, 1))
    assert f == g and hash(f) == hash(g) and f == gf(9)
    x, y = f.generator(), g.generator()
    assert x == y and hash(x) == hash(y)
    assert x * y == y * x == f.element(-1)
    assert x + y == f.element((0, 2)) and x - y == f.zero
    assert g.element(x) == y


def test_same_order_with_another_modulus_does_not_mix():
    f1, f2 = ExtField(PrimeField(3), (1, 0, 1)), ExtField(PrimeField(3), (2, 1, 1))
    assert f1.order == f2.order and f1 != f2
    y1, y2 = f1.generator(), f2.generator()
    assert y1 != y2 and not y1 == y2
    for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a / b):
        with pytest.raises(ValueError):
            op(y1, y2)
        with pytest.raises(ValueError):
            op(y2, y1)
    with pytest.raises(ValueError):
        f2.element(y1)


def test_same_order_over_another_base_does_not_mix():
    nested = FiniteTower(4, 2, 1).field  # GF(16) over GF(4)
    flat = gf(16)  # GF(16) over GF(2)
    assert nested.order == flat.order == 16 and nested != flat
    assert nested.one != flat.one
    with pytest.raises(ValueError):
        nested.one * flat.one
    rebuilt = ExtField(gf(4), nested.modulus)
    assert rebuilt == nested
    assert rebuilt.generator() * nested.generator() == nested.generator() ** 2


def test_prime_fields_and_ints_mix_as_before():
    assert PrimeField(5) == PrimeField(5) and PrimeField(5) != PrimeField(7)
    assert PrimeField(5).element(3) * PrimeField(5).element(2) == 1
    with pytest.raises(ValueError):
        PrimeField(5).element(1) + PrimeField(7).element(1)
    field = gf(9)
    assert field.generator() * 2 == 2 * field.generator() == field.element((0, 2))
    assert field.generator() != PrimeField(3).element(0)


# --- the irreducible search ---------------------------------------------------


def test_irreducibility_matches_sympy_on_every_small_monic():
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    for p in (2, 3, 5):
        field = PrimeField(p)
        for degree in (2, 3, 4):
            for low in itertools.product(range(p), repeat=degree):
                coeffs = low + (1,)
                expected = gf_irreducible_p(list(reversed(coeffs)), p, ZZ)
                assert _is_irreducible(coeffs, field) == expected, (p, coeffs)


# Pinned: a different modulus changes every downstream fixture.
PINNED_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (2, 5): (1, 0, 0, 1, 0, 1),
    (3, 3): (1, 0, 2, 1),
    (3, 4): (1, 0, 1, 1, 1),
    (5, 2): (1, 1, 1),
    (7, 3): (1, 0, 1, 1),
    (7, 5): (1, 0, 0, 0, 3, 1),
    (11, 2): (1, 0, 1),
    (4, 2): ((0, 1), (0, 1), (1, 0)),
    (4, 3): ((0, 1), (0, 0), (0, 0), (1, 0)),
    (8, 2): ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    (9, 2): ((0, 1), (0, 1), (1, 0)),
    (25, 2): ((0, 1), (0, 2), (1, 0)),
}


@pytest.mark.parametrize("q, k", sorted(PINNED_MODULI))
def test_smallest_irreducible_is_pinned(q, k):
    assert smallest_irreducible(gf(q), k) == PINNED_MODULI[(q, k)]


def test_nested_base_runs_the_same_arithmetic():
    tower = FiniteTower(4, 2, 1)
    assert tower.field.order == 16
    assert tower.field.base.order == 4
    assert isinstance(tower.field.base, ExtField)
    # every nonzero element of GF(16) has multiplicative order dividing 15
    for x in tower.field.elements():
        if x:
            assert x**15 == tower.one
            assert x * x.inverse() == tower.one
    assert repr(tower.field.generator()) == "ExtFieldElement([ExtFieldElement([0, 0]), " \
                                            "ExtFieldElement([1, 0])])"


# --- GF(p^n) against sympy's dense polynomial arithmetic ------------------------

FIELDS = [(2, 3), (3, 2), (3, 3), (5, 3), (7, 2), (7, 3), (11, 4)]


def _sympy_ops():
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys import galoistools as gt

    def dense(coeffs):
        out = list(reversed(coeffs))
        while out and out[0] == 0:
            out.pop(0)
        return out

    def raw(poly, degree):
        out = list(reversed(poly))
        return tuple(out + [0] * (degree - len(out)))

    return ZZ, gt, dense, raw


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(FIELDS), st.data())
def test_arithmetic_matches_sympy(shape, data):
    ZZ, gt, dense, raw = _sympy_ops()
    p, n = shape
    field = gf(p**n)
    modulus = dense(field.modulus)
    coefficient = st.integers(min_value=0, max_value=p - 1)
    a = data.draw(st.tuples(*[coefficient] * n))
    b = data.draw(st.tuples(*[coefficient] * n))
    x, y = field.element(a), field.element(b)
    product = gt.gf_rem(gt.gf_mul(dense(a), dense(b), p, ZZ), modulus, p, ZZ)
    assert (x * y).coeffs == raw(product, n)
    assert (x + y).coeffs == raw(gt.gf_add(dense(a), dense(b), p, ZZ), n)
    assert (x - y).coeffs == raw(gt.gf_sub(dense(a), dense(b), p, ZZ), n)
    if y:
        s, _, g = gt.gf_gcdex(dense(b), modulus, p, ZZ)
        assert g == [1]
        assert y.inverse().coeffs == raw(s, n)
        assert (x / y) * y == x


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_nested_field_laws(data):
    field = FiniteTower(4, 2, 1).field
    value = st.sampled_from(field.elements())
    x, y, z = data.draw(value), data.draw(value), data.draw(value)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x + (-x) == field.zero
    if x:
        assert x * x.inverse() == field.one


# --- log tables against the polynomial route of the same modulus ------------------

TABLED_FIELDS = {
    "GF(4)": lambda: gf(4),
    "GF(8)": lambda: gf(8),
    "GF(9)": lambda: gf(9),
    "GF(16)": lambda: gf(16),
    "GF(16)/GF(4)": lambda: FiniteTower(4, 2, 1).field,
    "GF(25)": lambda: gf(25),
    "GF(27)": lambda: gf(27),
    "GF(49)": lambda: gf(49),
    "GF(125)": lambda: gf(125),
    "GF(343)": lambda: gf(343),
}


def _polynomial_twin(field):
    """The same field built directly, so that it and a nested base use the polynomial route only."""
    base = field.base
    if isinstance(base, ExtField):
        base = _polynomial_twin(base)
    return ExtField(base, field.modulus)


def _outcome(call):
    try:
        return call()
    except ZeroDivisionError:
        return ZeroDivisionError


@pytest.fixture(params=sorted(TABLED_FIELDS), scope="module")
def two_routes(request):
    field = TABLED_FIELDS[request.param]()
    twin = _polynomial_twin(field)
    assert field._by_log is not None and twin._by_log is None
    assert twin.base._by_log is None
    assert twin == field
    return field, twin


def test_log_tables_cover_every_nonzero_value_once(two_routes):
    field, _ = two_routes
    cycle = field.order - 1
    nonzero = [v for v in field._values() if v != field._raw_zero]
    first_round = field._by_log[:cycle]
    assert len(first_round) == len(nonzero) == cycle
    assert sorted(x.coeffs for x in first_round) == sorted(nonzero)
    assert sorted(field._elements) == sorted(field._values())
    # logarithm and value are inverse maps: each element sits at its own logarithm
    assert all(field._by_log[x._log] is x for x in field._elements.values() if x)


def test_table_products_match_polynomial_products(two_routes):
    field, twin = two_routes
    values = list(field._values())
    if field.order <= 125:
        pairs = itertools.product(values, repeat=2)
    else:
        rng = random.Random(field.order)
        pairs = [(rng.choice(values), rng.choice(values)) for _ in range(20_000)]
    for a, b in pairs:
        assert field._mul(a, b) == twin._mul(a, b), (a, b)


def test_table_inverses_match_extended_euclid(two_routes):
    field, twin = two_routes
    for a in field._values():
        assert _outcome(lambda: field._inv(a)) == _outcome(lambda: twin._inv(a)), a


def test_table_powers_match_square_and_multiply(two_routes):
    field, twin = two_routes
    q = field.base.order
    exponents = [*range(-3, q + 2), field.order - 1, field.order]
    for x, y in zip(field.elements(), twin.elements()):
        for e in exponents:
            assert _outcome(lambda: (x**e).coeffs) == _outcome(lambda: (y**e).coeffs), (x, e)
    assert field.zero**0 == field.one and field.zero**2 == field.zero
    with pytest.raises(ZeroDivisionError):
        field.zero**-1


def test_table_frobenius_is_the_q_fold_product(two_routes):
    field, twin = two_routes
    q = field.base.order
    for x, y in zip(field.elements(), twin.elements()):
        product = y
        for _ in range(q - 1):
            product = product * y
        assert (x**q).coeffs == product.coeffs, x


def test_zech_sums_differences_and_negatives_match_polynomial_ones(two_routes):
    # every pair, so that each Zech entry, the 1 + g^k = 0 entry among them, is read
    field, twin = two_routes
    values = list(field._values())
    for a in values:
        assert field._neg(a) == twin._neg(a), a
        for b in values:
            assert field._add(a, b) == twin._add(a, b), (a, b)
            assert field._sub(a, b) == twin._sub(a, b), (a, b)


def test_zech_table_marks_the_one_power_that_cancels_one(two_routes):
    field, twin = two_routes
    cancelling = [k for k, z in enumerate(field._zech) if z is None]
    assert cancelling == [field._elements[twin._neg(field._raw_one)]._log]
    x = field.one + field.one
    assert x + (-field.one) == field.one and field.one - field.one == field.zero


def test_each_element_of_a_table_field_is_made_once(two_routes):
    field, _ = two_routes
    assert field.zero is field.element(0) and field.one is field.element(1)
    assert field.zero is field.element(field._raw_zero) and field.one is field.element(field._raw_one)
    elements = field.elements()
    for v, x in zip(field._values(), elements):
        assert field.element(v) is x and ExtFieldElement(field, v) is x
    y = field.generator()
    assert y - y is field.zero and y * y.inverse() is field.one
    assert y + field.one is field.element((1,) + y.coeffs[1:])


# --- element arithmetic on logarithms against the plain field of the same modulus ---


def _interned(field, twin_result):
    """The table field's one element with the raw value of a twin result, or the raised error."""
    if twin_result is ZeroDivisionError:
        return ZeroDivisionError
    return field.element(twin_result.coeffs)


def test_element_logs_index_the_interned_elements(two_routes):
    field, twin = two_routes
    cycle = field.order - 1
    assert len(field._by_log) == 2 * cycle
    assert field.zero._log is None and twin.generator()._log is None
    # _by_log[k] is g^k, the powers taken by the polynomial route
    g, power = twin.element(field._by_log[1].coeffs), twin.one
    for k, x in enumerate(field._by_log):
        assert x._log == k % cycle and x is field.element(power.coeffs)
        power = power * g


def test_element_products_sums_and_differences_match_the_plain_field(two_routes):
    # every pair, both operands of the one table field: the route on logarithms
    field, twin = two_routes
    pairs = list(zip(field.elements(), twin.elements()))
    for x, tx in pairs:
        for y, ty in pairs:
            assert (x * y) is _interned(field, tx * ty), (x, y)
            assert (x + y) is _interned(field, tx + ty), (x, y)
            assert (x - y) is _interned(field, tx - ty), (x, y)
            assert (x == y) is (tx == ty) and (x != y) is (tx != ty), (x, y)


def test_element_negatives_inverses_and_powers_match_the_plain_field(two_routes):
    field, twin = two_routes
    exponents = (-2, 0, 1, field.base.order, field.order)
    for x, tx in zip(field.elements(), twin.elements()):
        assert -x is _interned(field, -tx), x
        assert _outcome(x.inverse) is _interned(field, _outcome(tx.inverse)), x
        for e in exponents:
            assert _outcome(lambda: x**e) is _interned(field, _outcome(lambda: tx**e)), (x, e)
        assert bool(x) is bool(tx), x


def test_ints_and_plain_field_elements_still_coerce(two_routes):
    field, twin = two_routes
    for x, tx in zip(field.elements(), twin.elements()):
        for c in (-1, 0, 1, 2, field.order + 3):
            assert (x + c) is (c + x) is _interned(field, tx + c), (x, c)
            assert (x - c) is _interned(field, tx - c) and (c - x) is _interned(field, c - tx)
            assert (x * c) is (c * x) is _interned(field, tx * c), (x, c)
            assert (x == c) is (tx == c), (x, c)
        # an element of the plain field mixes by value and gives the table field's element
        assert (x * tx) is _interned(field, tx * tx) and (x + tx) is _interned(field, tx + tx)
        assert x == tx and x - tx is field.zero


def test_int_operands_take_the_route_on_logarithms(two_routes, monkeypatch):
    # an int coerces to the table field's own element, so no raw operation runs
    field, _ = two_routes

    def refuse(self, *args):
        raise AssertionError("raw operation on an int operand")

    for name in ("_add", "_sub", "_mul"):
        monkeypatch.setattr(_TableField, name, refuse)
    for x in field.elements():
        for k in (-1, 0, 1, 2, field.order + 3):
            y = field.from_int(k)
            assert (x + k) is (k + x) is x + y and (x - k) is x - y and (k - x) is y - x, (x, k)
            assert (x * k) is (k * x) is x * y, (x, k)


@pytest.mark.parametrize("make", [
    pytest.param(copy.copy, id="copy"),
    pytest.param(copy.deepcopy, id="deepcopy"),
    pytest.param(lambda value: pickle.loads(pickle.dumps(value)), id="pickle"),
])
def test_copied_elements_compute_alone_and_with_the_originals(make):
    field = gf(27)
    twin = _polynomial_twin(field)
    values = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 2, 0), (2, 2, 1)]
    for a in values:
        x, tx = field.element(a), twin.element(a)
        c = make(x)
        assert c == x and hash(c) == hash(x) and bool(c) is bool(x)
        assert (c * c).coeffs == (tx * tx).coeffs and (c + c).coeffs == (tx + tx).coeffs
        assert (c - c).coeffs == twin.zero.coeffs and (-c).coeffs == (-tx).coeffs
        assert (c**3).coeffs == (tx**3).coeffs and (c**0).coeffs == twin.one.coeffs
        if x:
            assert c.inverse().coeffs == tx.inverse().coeffs
        for b in values:
            y, ty = field.element(b), twin.element(b)
            assert c * y == y * c == x * y and (c * y).coeffs == (tx * ty).coeffs
            assert c + y == y + c == x + y and (c - y).coeffs == (tx - ty).coeffs
            assert (y - c).coeffs == (ty - tx).coeffs and (c == y) is (x == y)


@pytest.mark.parametrize("make", [
    pytest.param(copy.copy, id="copy"),
    pytest.param(copy.deepcopy, id="deepcopy"),
    pytest.param(lambda value: pickle.loads(pickle.dumps(value)), id="pickle"),
])
def test_table_field_elements_and_towers_copy_and_pickle(make):
    field = gf(27)
    x = field.element((1, 2, 0))
    assert make(x) == x and hash(make(x)) == hash(x)
    tower = FiniteTower(5, 3, 2)
    y = tower.field.element((3, 1, 4))
    copied = make(tower)
    z = copied.field.element(y.coeffs)
    assert copied.field == tower.field and z == y
    assert copied.sigma(z) == tower.sigma(y) and norm(copied, z) == norm(tower, y)
    assert copied.field.element(z.coeffs) is copied.field.element(z.coeffs)
    assert copied.field.zero is copied.field.element(0) and copied.field.one is copied.field.one * 1
    assert z - copied.one == y - tower.one and -z == -y


# --- one canonical field per (base, degree), built out of the tracer's sight -----

FINITE_TRACE_PROBE = """
from perfbench.tracer import profile_counts
from perfbench.workloads import finite_op

for q, n in ((7, 3), (4, 2), (9, 2)):
    op = finite_op(q, n, 5)
    first = profile_counts(op.run)
    second = profile_counts(op.run)
    print(bool(first) and first == second)
"""


def test_a_finite_op_makes_the_same_traced_calls_cold_and_warm():
    # the first op of a (q, n) builds its canonical fields; a miss that called a
    # traced function, such as smallest_irreducible or ExtField.generator, would
    # make a traced benchmark's first round count more calls than the next.
    # A fresh interpreter, so that every field starts unbuilt
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    done = subprocess.run([sys.executable, "-c", FINITE_TRACE_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True", "True"]


def test_equal_bases_share_one_canonical_field():
    assert gf(9) is gf(9) and FiniteTower(3, 2, 1).field is gf(9)
    assert FiniteTower(9, 2, 1).field is FiniteTower(9, 2, 2).field
    assert FiniteTower(9, 2, 1).field.base is gf(9)


# --- which fields get tables ---------------------------------------------------


def test_directly_built_fields_keep_the_polynomial_route():
    reducible = ExtField(PrimeField(3), (2, 0, 1))  # y^2 - 1 = (y - 1)(y + 1)
    assert reducible._by_log is None
    with pytest.raises(ZeroDivisionError):
        reducible.element((2, 1)).inverse()
    assert reducible.element((2, 1)) * reducible.element((1, 1)) == reducible.zero
    assert ExtField(PrimeField(3), (1, 0, 1))._by_log is None  # the modulus of gf(9)
    assert gf(9)._by_log is not None


def test_fields_above_the_order_bound_keep_the_polynomial_route():
    assert gf(_LOG_TABLE_MAX_ORDER)._by_log is not None
    big = gf(2 * _LOG_TABLE_MAX_ORDER)
    assert big._by_log is None
    x = big.generator() + big.one
    assert x * x.inverse() == big.one
    assert x ** (big.order - 1) == big.one and x**big.order == x


def test_towers_built_twice_share_tables_and_mix():
    t1, t2 = FiniteTower(5, 3, 2), FiniteTower(5, 3, 2)
    assert t1.field is t2.field
    # the same field built directly, with no tables: its elements mix with the towers'
    direct = ExtField(PrimeField(5), t1.field.modulus)
    assert direct is not t1.field and direct == t1.field and direct._by_log is None
    x, y = t1.field.generator(), direct.generator()
    assert x == y and hash(x) == hash(y)
    assert t1.sigma(x) == t2.sigma(y) == y**5
    assert x * y == x**2 and (x / y) == t2.one


def test_an_extension_over_a_table_field_runs_on_its_raw_operations():
    # GF(4^7) is above the order bound, so a plain ExtField: every coefficient
    # operation is a raw operation of the table field GF(4), and none of its own
    # arithmetic reaches the element route of GF(4)
    field = FiniteTower(4, 7, 1).field
    assert field.order > _LOG_TABLE_MAX_ORDER and field._by_log is None
    assert field.base is gf(4) and field.base._by_log is not None
    twin = _polynomial_twin(field)
    rng = random.Random(47)
    xs = [field.zero, field.one, field.generator()] + [field.random_element(rng) for _ in range(9)]
    for x in xs:
        tx = twin.element(x.coeffs)
        assert (-x).coeffs == (-tx).coeffs and x - x == field.zero and x + -x == field.zero
        if x:
            assert x.inverse().coeffs == tx.inverse().coeffs and x * x.inverse() == field.one
            assert (x**-2).coeffs == (tx**-2).coeffs
        for y in xs:
            ty = twin.element(y.coeffs)
            assert (x * y).coeffs == (tx * ty).coeffs and x * y == y * x, (x, y)
            assert (x + y).coeffs == (tx + ty).coeffs and x + y == y + x, (x, y)
            assert (x - y).coeffs == (tx - ty).coeffs, (x, y)
    for x, y, z in itertools.islice(itertools.product(xs, repeat=3), 0, None, 7):
        assert (x * y) * z == x * (y * z) and (x + y) + z == x + (y + z), (x, y, z)
        assert x * (y + z) == x * y + x * z, (x, y, z)
    with pytest.raises(ZeroDivisionError):
        field.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        field.zero**-1
    # Frobenius x -> x^4 has order 7: the generator returns after seven steps, not before
    g = field.generator()
    power = g
    for _ in range(6):
        power = power**4
        assert power != g
    assert power**4 == g
    assert all((x**4).coeffs == (twin.element(x.coeffs) ** 4).coeffs for x in xs)


# --- a field whose _mul and _inv disagree fails instead of hanging --------------

# GF(4) with its own Zech and element tables, built apart from gf(4),
# once with _inv the identity, once with _mul one power of the primitive
# element too far: the remainder's top coefficient never cancels, so the
# division would loop forever.
INCONSISTENT_FIELD_PROBE = """
from sdpcert.finitefield import PrimeField, _poly_divmod, gf, smallest_irreducible

def broken_gf4():
    good = gf(4)
    field = type(good)(PrimeField(2), good.modulus)
    assert field is not good and field._zech == good._zech
    return field

def outcome(call):
    try:
        call()
    except ArithmeticError as exc:
        return str(exc)
    return "no error"

wrong_inv = broken_gf4()
wrong_inv._inv = lambda a: a
print(outcome(lambda: _poly_divmod([(0, 0), (0, 0), (1, 0)], [(1, 0), (0, 1)], wrong_inv)))

wrong_mul = broken_gf4()
def off_by_one(a, b):
    x, y = wrong_mul._elements[a], wrong_mul._elements[b]
    if not x or not y:
        return wrong_mul._raw_zero
    return wrong_mul._by_log[x._log + y._log + 1].coeffs
wrong_mul._mul = off_by_one
print(outcome(lambda: smallest_irreducible(wrong_mul, 2)))
"""


def test_inconsistent_field_raises_instead_of_looping():
    # a fresh interpreter, so a division that never ends fails on the timeout
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", INCONSISTENT_FIELD_PROBE], env=env,
                          capture_output=True, text=True, timeout=20)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert line.startswith("ExtField(order=4): a division step left the top coefficient"), line


def test_division_by_a_non_monic_divisor_recombines():
    field = gf(4)
    zero, one, y = field._raw_zero, field._raw_one, field.generator().coeffs
    dividend, divisor = [zero, one, y, one], [one, y]
    quotient, rem = _poly_divmod(dividend, divisor, field)
    assert len(rem) < len(divisor)
    total = list(rem) + [zero] * (len(dividend) - len(rem))
    for i, q in enumerate(quotient):
        total[i:i + len(divisor)] = field._axpy(q, divisor, total[i:i + len(divisor)])
    assert total == dividend
