"""The two eliminations of linalg checked against each other.

The fraction-free integer solve must agree with rref over Fraction on regular,
singular and non-integral systems, and the Bareiss determinant must carry the
exact sign of the Leibniz expansion.
"""

import itertools
import random
from fractions import Fraction

import pytest

from sdpcert.linalg import bareiss_determinant, rank_rational, rref, solve_integer


def _rref_solution(matrix, rhs):
    """The unique solution of A x = rhs by rref of the augmented matrix, or None if A is singular."""
    size = len(matrix)
    augmented = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    rows, pivots = rref(augmented, Fraction(0))
    if pivots[:size] != tuple(range(size)):
        return None
    return [row[size] for row in rows]


def _random_system(rng, size, span):
    matrix = [[rng.randint(-span, span) for _ in range(size)] for _ in range(size)]
    rhs = [rng.randint(-span, span) for _ in range(size)]
    return matrix, rhs


def _leibniz(matrix):
    size = len(matrix)
    total = 0
    for perm in itertools.permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


@pytest.mark.parametrize("seed", range(4))
def test_solve_integer_matches_rref_on_regular_systems(seed):
    rng = random.Random(seed)
    regular = 0
    for _ in range(60):
        matrix, rhs = _random_system(rng, rng.randint(1, 7), rng.choice((1, 3, 50)))
        expected = _rref_solution(matrix, rhs)
        if expected is None:
            continue
        regular += 1
        det, scaled = solve_integer(matrix, rhs)
        assert det == bareiss_determinant(matrix) != 0
        assert [Fraction(y, det) for y in scaled] == expected, (matrix, rhs)
    assert regular >= 30


@pytest.mark.parametrize("seed", range(4))
def test_solve_integer_reports_singular_systems(seed):
    rng = random.Random(seed)
    for _ in range(40):
        size = rng.randint(2, 7)
        matrix, rhs = _random_system(rng, size, 5)
        # make the last row a combination of two others
        a, b = rng.randrange(size - 1), rng.randrange(size - 1)
        u, v = rng.randint(-3, 3), rng.randint(-3, 3)
        matrix[-1] = [u * x + v * y for x, y in zip(matrix[a], matrix[b])]
        assert rank_rational(matrix) < size
        assert _rref_solution(matrix, rhs) is None
        assert solve_integer(matrix, rhs) == (0, None)
        assert bareiss_determinant(matrix) == 0


def test_solve_integer_detects_non_integral_solutions():
    rng = random.Random(7)
    integral = fractional = 0
    for _ in range(300):
        matrix, rhs = _random_system(rng, rng.randint(1, 5), 4)
        expected = _rref_solution(matrix, rhs)
        if expected is None:
            continue
        det, scaled = solve_integer(matrix, rhs)
        divides = all(y % det == 0 for y in scaled)
        assert divides == all(x.denominator == 1 for x in expected), (matrix, rhs)
        if divides:
            integral += 1
            assert [y // det for y in scaled] == expected
        else:
            fractional += 1
    assert integral >= 10 and fractional >= 10
    # a fixed case: 2x = 1
    assert solve_integer([[2]], [1]) == (2, [1])


def test_bareiss_determinant_sign_matches_leibniz_and_rref():
    rng = random.Random(11)
    for _ in range(200):
        size = rng.randint(1, 4)
        matrix = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        if rng.random() < 0.5:
            # zero the top-left entry so the elimination must swap rows
            matrix[0][0] = 0
        det = bareiss_determinant(matrix)
        assert det == _leibniz(matrix), matrix
        assert (det == 0) == (rank_rational(matrix) < size)
        if det:
            # Cramer's rule ties the determinant's sign to the rref solution
            rhs = [rng.randint(-3, 3) for _ in range(size)]
            solution = _rref_solution(matrix, rhs)
            for i in range(size):
                replaced = [row[:i] + [b] + row[i + 1:] for row, b in zip(matrix, rhs)]
                assert bareiss_determinant(replaced) == solution[i] * det
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([]) == 1
    with pytest.raises(ValueError):
        bareiss_determinant([[1, 2]])
