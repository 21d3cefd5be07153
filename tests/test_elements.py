"""Laws the shared element base supplies to all five exact element classes."""

import copy
import pickle
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sdpcert._element import _Immutable, orbit, orbit_product
from sdpcert.coverage import cyclotomic_unit, cyclotomic_unit_inverse, exhaustive_fixed_units
from sdpcert.finitefield import ExtFieldElement, PrimeField, PrimeFieldElement, gf
from sdpcert.group_ring import GroupRingElement, TauData, partial_norm, partial_norm_product
from sdpcert.monomial import NormSetMap
from sdpcert.quotient import SElement, invert, lift, reduce, tau_apply_s
from sdpcert.tower import NormSetPoint, TowerElement, builtin_s3

SRC = Path(__file__).resolve().parent.parent / "src" / "sdpcert"


def _group_ring():
    return GroupRingElement(5, (1, -2, 0, 3, 1)), GroupRingElement(5, (0, 1, 1, 0, -4))


def _quotient():
    # 1 + rho is a unit of S for n = 5
    return SElement(5, (2, -1, 0, 3)), SElement(5, (1, 1, 0, 0))


def _prime_field():
    field = PrimeField(7)
    return field.element(3), field.element(5)


def _extension_field():
    field = gf(9)
    a, b = field.base.element(1), field.base.element(2)
    return field.element((a, b)), field.element((b, a))


def _tower():
    tw = builtin_s3()
    return tw.element((1, 2, 0, -1, 0, 3)), tw.element((0, 1, 0, 1, 0, 0))


CASES = {
    "group_ring": _group_ring,
    "quotient": _quotient,
    "prime_field": _prime_field,
    "extension_field": _extension_field,
    "tower": _tower,
}
FIELDS = ("prime_field", "extension_field", "tower")


@pytest.mark.parametrize("name", sorted(CASES))
def test_element_laws(name):
    x, y = CASES[name]()
    one = x ** 0

    assert x - y == x + (-y)
    assert x - 3 == x + (-3)
    assert 3 - x == (-x) + 3
    assert x - x == x + (-x)
    assert one * y == y
    assert x ** 3 == x * x * x
    assert x ** 6 == (x * x) * (x * x) * (x * x)

    if name == "group_ring":
        with pytest.raises(ValueError):
            x ** -1
        with pytest.raises(ValueError):
            x / y
    else:
        inverse = invert(y) if name == "quotient" else y.inverse()
        assert y.inverse() == inverse
        assert y * inverse == one
        for k in (1, 2, 3):
            assert y ** -k == inverse ** k

    if name in FIELDS:
        assert x / y == x * y.inverse()
        assert 2 / y == y.inverse() * 2
        assert x / 2 == x * (one * 2).inverse()

    with pytest.raises(AttributeError):
        x.coeffs = ()
    with pytest.raises(AttributeError):
        x.anything = 0


def _other_integral_ring(x):
    """x's coefficients in the other one of Z[C_n] and S; for a field element, an element of S."""
    if isinstance(x, GroupRingElement):
        return SElement(len(x.coeffs) + 1, x.coeffs)
    if isinstance(x, SElement):
        return GroupRingElement(len(x.coeffs), x.coeffs)
    return _quotient()[0]


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize(
    "foreign", ["a", 0.5, None, pytest.param(_other_integral_ring, id="other_ring")]
)
def test_foreign_operands_raise_type_error(name, foreign):
    x, _ = CASES[name]()
    if callable(foreign):
        foreign = foreign(x)
    for operation in (
        lambda: x + foreign,
        lambda: foreign + x,
        lambda: x * foreign,
        lambda: foreign * x,
        lambda: x - foreign,
        lambda: foreign - x,
        lambda: x / foreign,
        lambda: foreign / x,
    ):
        with pytest.raises(TypeError):
            operation()
    assert x != foreign and foreign != x


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("exponent", [0.0, 2.0, -1.0, Fraction(0), Fraction(2), "2"],
                         ids=repr)
def test_powers_reject_non_integer_exponents(name, exponent):
    # operator.index, so the error is about the exponent, and 0.0 is not the identity
    x, _ = CASES[name]()
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        x ** exponent


@pytest.mark.parametrize("name", sorted(CASES))
def test_powers_take_bools_and_numpy_integers(name):
    x, _ = CASES[name]()
    assert x ** np.int64(2) == x * x
    assert x ** True == x and x ** False == x ** 0


@pytest.mark.parametrize("name", ["group_ring", "quotient"])
def test_integral_hash_is_a_function_of_order_and_coefficients(name):
    # no str in the key, so the order of a set of elements is the same in every process
    for x in CASES[name]():
        assert hash(x) == hash((x.n, x.coeffs))


@pytest.mark.parametrize("name", ["prime_field", "extension_field"])
def test_field_hash_is_a_function_of_order_and_raw_value(name):
    for x in CASES[name]():
        raw = x.value if name == "prime_field" else x.coeffs
        assert hash(x) == hash((x.field.order, raw))


@pytest.mark.parametrize("build", [
    pytest.param(lambda: GroupRingElement(3, [1.5, 0, 0]), id="float_coefficient"),
    pytest.param(lambda: SElement(3, [Fraction(1, 2), 2]), id="fraction_coefficient"),
    pytest.param(lambda: GroupRingElement(3, ["7", 0, 0]), id="str_coefficient"),
    pytest.param(lambda: GroupRingElement(3.9, [0, 0, 0]), id="float_order"),
    pytest.param(lambda: SElement(Fraction(3), [0, 0]), id="fraction_order"),
    pytest.param(lambda: TauData(5.0, 2), id="float_tau"),
    pytest.param(lambda: NormSetMap(GroupRingElement.one(3), 2.5, 1), id="float_shift"),
])
def test_integral_constructors_reject_non_integers(build):
    # operator.index, not int(): nothing is truncated or parsed
    with pytest.raises(TypeError):
        build()


def test_integral_constructors_take_bools_and_numpy_integers():
    x = GroupRingElement(np.int64(3), [True, np.int32(-2), 0])
    assert x == GroupRingElement(3, (1, -2, 0))
    assert type(x.n) is int and all(type(c) is int for c in x.coeffs)
    assert TauData(np.int64(7), np.int64(2)) == TauData(7, 2)


@pytest.mark.parametrize("name", ["group_ring", "quotient"])
def test_fraction_operand_is_foreign_to_the_integral_rings(name):
    x, _ = CASES[name]()
    with pytest.raises(TypeError):
        x * Fraction(1, 2)
    with pytest.raises(TypeError):
        x + Fraction(1, 2)


def _tau_fixed_units(x, y):
    return [u for n, r in ((7, 1), (8, 3), (13, 4)) for u in exhaustive_fixed_units(n, r, 2)]


def _field_arithmetic(case):
    def results(x, y):
        a, b = case()
        return [a + b, a - 2, -a, a * b, a / b, b.inverse(), a ** 5]

    return results


# Every site that builds an element by _new, without the public constructor's
# checks, applied to the group-ring pair x, y
COMPUTED = {
    "group_ring_add": lambda x, y: [x + y, x + 3, 3 + x, x + True],
    "group_ring_neg_sub": lambda x, y: [-x, x - y, x - 2, 2 - x],
    "group_ring_scale": lambda x, y: [3 * x, x * -2, x * True],
    "group_ring_mul": lambda x, y: [x * y, y * x, x ** 3],
    "tau_apply": lambda x, y: [x.tau_apply(TauData(5, 2)), y.tau_apply(TauData(5, 4))],
    "group_ring_named": lambda x, y: [GroupRingElement.zero(4), GroupRingElement.one(np.int64(5)),
                                      GroupRingElement.sigma_power(6, -7, np.int32(-3)),
                                      partial_norm(6, 2, 5), partial_norm(1, 3, 2)],
    "quotient_named": lambda x, y: [SElement.zero(2), SElement.one(np.int64(5)),
                                    SElement.constant(4, True), SElement.constant(3, -7)],
    "partial_norm_product": lambda x, y: [partial_norm_product(7, [1, 3], 4),
                                          partial_norm_product(9, [2, 4], 11)],
    "reduce": lambda x, y: [reduce(x), reduce(y)],
    "lift": lambda x, y: [lift(reduce(x)), lift(SElement(5, (2, -1, 0, 3)))],
    "quotient_add": lambda x, y: [reduce(x) + reduce(y), reduce(x) + 3, 3 + reduce(y)],
    "quotient_neg_sub": lambda x, y: [-reduce(x), reduce(x) - reduce(y), 2 - reduce(y)],
    "quotient_scale": lambda x, y: [3 * reduce(x), reduce(y) * -2],
    "quotient_mul": lambda x, y: [reduce(x) * reduce(y), reduce(x) ** 2],
    "quotient_inverse": lambda x, y: [invert(SElement(5, (1, 1, 0, 0)))],
    "tau_apply_s": lambda x, y: [tau_apply_s(reduce(x), TauData(5, 2))],
    "cyclotomic_unit": lambda x, y: [cyclotomic_unit(13, [1, 4, 3], 5),
                                     cyclotomic_unit_inverse(13, [1, 4, 3], 5)],
    "oracle_units": _tau_fixed_units,
    "tower": _field_arithmetic(_tower),
    "prime_field": _field_arithmetic(_prime_field),
    "extension_field": _field_arithmetic(_extension_field),
}


def _exact_ints_and_twin(value):
    """The tuple of ints a computed value holds, and the value rebuilt by its public constructor."""
    if isinstance(value, TowerElement):
        assert type(value.den) is int
        return value.num, TowerElement(value.tower, value.coords)
    if isinstance(value, ExtFieldElement):
        return value.coeffs, ExtFieldElement(value.field, value.coeffs)
    if isinstance(value, PrimeFieldElement):
        assert value.value in range(value.field.p), value
        return (value.value,), PrimeFieldElement(value.field, value.value)
    return value.coeffs, type(value)(value.n, value.coeffs)


@pytest.mark.parametrize("site", sorted(COMPUTED))
def test_computed_elements_are_built_as_the_public_constructor_builds_them(site):
    values = COMPUTED[site](*_group_ring())
    assert values
    for value in values:
        ints, twin = _exact_ints_and_twin(value)
        assert type(ints) is tuple and all(type(c) is int for c in ints), value
        assert value == twin and hash(value) == hash(twin), value


# Each named constructor of Z[C_n] and S, as a function of the order n alone
NAMED = {
    "GroupRingElement.zero": (GroupRingElement, GroupRingElement.zero),
    "GroupRingElement.one": (GroupRingElement, GroupRingElement.one),
    "GroupRingElement.sigma_power": (GroupRingElement,
                                     lambda n: GroupRingElement.sigma_power(n, 1, 2)),
    "partial_norm": (GroupRingElement, lambda n: partial_norm(n, 1, 2)),
    "SElement.zero": (SElement, SElement.zero),
    "SElement.one": (SElement, SElement.one),
    "SElement.constant": (SElement, lambda n: SElement.constant(n, 3)),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_constructors_check_the_order_as_the_public_constructor_does(name):
    cls, build = NAMED[name]
    for n in (0, -1, 1):
        if cls is SElement or n < 1:
            with pytest.raises(ValueError) as public:
                cls(n, ())
            with pytest.raises(ValueError) as named:
                build(n)
            assert str(named.value) == str(public.value), n
    for n in (3.0, Fraction(3), "3", None):
        with pytest.raises(TypeError):
            build(n)


def test_named_constructors_check_their_other_arguments():
    for build in (lambda: GroupRingElement.sigma_power(5, 1, 1.5),
                  lambda: GroupRingElement.sigma_power(5, 1.0),
                  lambda: SElement.constant(5, Fraction(1, 2)),
                  lambda: SElement.constant(5, "7")):
        with pytest.raises(TypeError):
            build()
    with pytest.raises(ValueError, match="nonnegative"):
        partial_norm(0, 1, -1)


def test_only_the_element_base_builds_objects_by_hand():
    # _Immutable._new is the one constructor that skips the checks of a public one
    for path in sorted(SRC.glob("*.py")):
        if path.name != "_element.py":
            text = path.read_text()
            assert "object.__setattr__" not in text and "object.__new__" not in text, path.name


def _leaf_classes(cls):
    subclasses = cls.__subclasses__()
    return set().union(*map(_leaf_classes, subclasses)) if subclasses else {cls}


# one value of every concrete immutable class
IMMUTABLE = {
    GroupRingElement: lambda: _group_ring()[0],
    SElement: lambda: _quotient()[0],
    PrimeFieldElement: lambda: _prime_field()[0],
    ExtFieldElement: lambda: _extension_field()[0],
    TowerElement: lambda: _tower()[0],
    TauData: lambda: TauData(5, 2),
    NormSetMap: lambda: NormSetMap(GroupRingElement(5, (1, 0, 2, 0, 1)), 3, 2),
    NormSetPoint: lambda: NormSetPoint(_extension_field()[0], 2),
}


def test_every_immutable_class_has_a_copy_case():
    assert _leaf_classes(_Immutable) == set(IMMUTABLE)


@pytest.mark.parametrize("cls", sorted(IMMUTABLE, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_immutable_values_copy_and_pickle(cls):
    x = IMMUTABLE[cls]()
    shallow, deep, pickled = copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))
    for value in (shallow, deep, pickled):
        assert type(value) is cls
    assert shallow == x and hash(shallow) == hash(x)
    for value in (deep, pickled):
        if cls is TowerElement:
            # the copy carries a copied tower, and elements of two towers never mix
            assert value.coords == x.coords and value.tower is not x.tower and value != x
        else:
            assert value == x and hash(value) == hash(x)


# --- the orbit walk -------------------------------------------------------------


def _recording_double(calls):
    def step(x):
        calls.append(x)
        return 2 * x

    return step


def test_orbit_lists_the_iterates_by_count_minus_one_steps():
    calls = []
    step = _recording_double(calls)
    assert orbit(step, 3, 0) == [] and orbit(step, 3, 1) == [3] and calls == []
    assert orbit(step, 3, 4) == [3, 6, 12, 24] and calls == [3, 6, 12]
    with pytest.raises(ValueError, match="nonnegative"):
        orbit(step, 3, -1)


def test_orbit_product_multiplies_the_iterates_and_never_the_identity():
    calls = []
    step = _recording_double(calls)
    one = object()  # multiplying it in raises TypeError
    assert orbit_product(step, 3, 0, one) is one and orbit_product(step, 3, 1, one) == 3
    assert calls == []
    assert orbit_product(step, 3, 4, one) == 3 * 6 * 12 * 24 and calls == [3, 6, 12]
    with pytest.raises(ValueError, match="nonnegative"):
        orbit_product(step, 3, -1, one)
