"""Laws the shared element base supplies to all five exact element classes."""

from fractions import Fraction

import pytest

from sdpcert.finitefield import PrimeField, gf
from sdpcert.group_ring import GroupRingElement
from sdpcert.quotient import SElement, invert
from sdpcert.tower import builtin_s3


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


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("foreign", ["a", 0.5, None])
def test_foreign_operands_raise_type_error(name, foreign):
    x, _ = CASES[name]()
    for operation in (
        lambda: x + foreign,
        lambda: foreign + x,
        lambda: x * foreign,
        lambda: foreign * x,
        lambda: x - foreign,
        lambda: foreign - x,
    ):
        with pytest.raises(TypeError):
            operation()


@pytest.mark.parametrize("name", ["group_ring", "quotient"])
def test_fraction_operand_is_foreign_to_the_integral_rings(name):
    x, _ = CASES[name]()
    with pytest.raises(TypeError):
        x * Fraction(1, 2)
    with pytest.raises(TypeError):
        x + Fraction(1, 2)
