"""Exact linear algebra: two eliminations.

Fraction-free (Bareiss) elimination on integer matrices gives determinants,
resultants and integer solves; rref reduces over any exact field and serves
ranks, kernels and spans.
"""

from __future__ import annotations

from fractions import Fraction


def _bareiss(mat, size):
    """Fraction-free (Bareiss) elimination below the diagonal of the leading size columns.

    Works in place on an integer matrix with size rows and at least size
    columns; columns past size are carried along. Every division is exact,
    and afterwards mat[k][k] is the (k+1)-th leading principal minor of the
    row-permuted matrix. Returns the sign of that row permutation, or 0 when
    the leading block is found singular before its last pivot.
    """
    sign = 1
    prev = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            pivot = next((i for i in range(k + 1, size) if mat[i][k] != 0), None)
            if pivot is None:
                return 0
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, len(mat[i])):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign


def _square_integer_matrix(rows):
    mat = [[int(x) for x in row] for row in rows]
    if any(len(row) != len(mat) for row in mat):
        raise ValueError("matrix is not square")
    return mat


def bareiss_determinant(rows):
    """Determinant of a square integer matrix by fraction-free elimination."""
    mat = _square_integer_matrix(rows)
    if not mat:
        return 1
    return _bareiss(mat, len(mat)) * mat[-1][-1]


def solve_integer(matrix, rhs):
    """Solve the square integer system A x = rhs without fractions: returns (det A, det A * x).

    By Cramer's rule det A * x is an integer vector; it is found by back
    substitution on the eliminated system, where every division is exact.
    x is integral exactly when det A divides every entry. A singular A gives
    (0, None).
    """
    mat = _square_integer_matrix(matrix)
    size = len(mat)
    if size == 0:
        return 1, []
    for row, value in zip(mat, rhs):
        row.append(int(value))
    det = _bareiss(mat, size) * mat[-1][size - 1]
    if det == 0:
        return 0, None
    scaled = [0] * size
    for i in reversed(range(size)):
        row = mat[i]
        total = det * row[size] - sum(row[j] * scaled[j] for j in range(i + 1, size))
        scaled[i] = total // row[i]
    return det, scaled


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def resultant(f, g):
    """Resultant of two integer polynomials given by ascending coefficients.

    Computed as the determinant of the Sylvester matrix via Bareiss
    elimination. Returns 0 when f is the zero polynomial (g is assumed
    nonzero by every caller).
    """
    f = _trim(f)
    g = _trim(g)
    if not f or not g:
        return 0
    df = len(f) - 1
    dg = len(g) - 1
    if df == 0:
        return f[0] ** dg
    if dg == 0:
        return g[0] ** df
    size = df + dg
    rows = []
    frev = f[::-1]
    grev = g[::-1]
    for i in range(dg):
        rows.append([0] * i + frev + [0] * (size - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + grev + [0] * (size - dg - 1 - i))
    return bareiss_determinant(rows)


def rank_rational(rows):
    """Rank of a rational matrix: the number of pivots of its reduced row echelon form."""
    return len(rref([[Fraction(x) for x in row] for row in rows], Fraction(0))[1])


def nullspace_rational(rows):
    """A basis of the rational kernel of the matrix, as Fraction vectors."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    reduced, pivots = rref(mat, Fraction(0))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, piv in zip(reduced, pivots):
            vec[piv] = -row[f]
        basis.append(vec)
    return basis


def rref(rows, zero):
    """Reduced row echelon form over any exact field.

    Entries must support +, -, *, == and 1 / x. Each pivot is inverted once,
    and only the nonzero entries of the pivot row are carried into the other
    rows. Returns (rows, pivot_columns) with zero rows dropped; the result
    is a canonical basis of the row space.
    """
    mat = [list(row) for row in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != zero), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        row = mat[r]
        inverse = 1 / row[c]
        support = [j for j in range(c, ncols) if row[j] != zero]
        for j in support:
            row[j] = row[j] * inverse
        for i, other in enumerate(mat):
            if i != r and other[c] != zero:
                factor = other[c]
                for j in support:
                    other[j] = other[j] - factor * row[j]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def reduce_against(vector, rows, pivots, zero):
    """Reduce a vector against RREF rows; the remainder is zero iff it lies in the span.

    Each row with a nonzero entry of the vector on its pivot is subtracted
    over its nonzero entries. crossed.LeftIdeal.contains reduces through it.
    """
    vec = list(vector)
    for row, piv in zip(rows, pivots):
        factor = vec[piv]
        if factor != zero:
            for j, entry in enumerate(row):
                if entry != zero:
                    vec[j] = vec[j] - factor * entry
    return vec

