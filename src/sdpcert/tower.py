"""Exact Galois tower models: radical number-field towers and finite cyclic towers.

Both models expose the same surface: a cyclic automorphism sigma of order n,
an automorphism tau of order m with tau sigma tau^-1 = sigma^r, distinguished
base elements b and lambda with tau(b) = lambda^n * b^r, and t = r^-1 mod n
and s = (rt - 1)/n. Norm sets, monomial maps, the shift maps and the induced
tau-action on norm-set points are implemented on top of that surface.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from ._element import ExactElement, _Immutable, orbit_product
from ._primes import _is_prime
from .finitefield import ExtFieldElement, _smallest_extension, gf
from .group_ring import GroupRingElement, TauData


class TowerElement(ExactElement):
    """Field element as integer numerators over one common denominator, on a fixed basis.

    The coordinate on basis element i is num[i] / den, with den > 0 and
    gcd(num[0], ..., num[dim-1], den) == 1, so equal elements have equal
    (num, den). Elements of different towers never mix: == between them is
    False, and arithmetic and the tower maps sigma, tau and flatten raise
    ValueError.
    """

    __slots__ = ("tower", "num", "den")

    def __new__(cls, tower, coords):
        coords = [_rational(c) for c in coords]
        if len(coords) != tower.dim:
            raise ValueError(f"expected {tower.dim} coordinates, got {len(coords)}")
        den = lcm(*(d for _, d in coords))
        return cls._new(tower, tuple(a * (den // d) for a, d in coords), den)

    @property
    def coords(self):
        """The coordinates as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.num)

    def _coerce(self, other):
        if isinstance(other, TowerElement):
            if other.tower is not self.tower:
                raise ValueError("elements belong to different towers")
            return other
        if isinstance(other, (int, Fraction)):
            return self.tower.scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return _element(self.tower, [a + b for a, b in zip(self.num, other.num)], da)
        num = [a * db + b * da for a, b in zip(self.num, other.num)]
        return _element(self.tower, num, da * db)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.tower, [-a for a in self.num], self.den)

    def __mul__(self, other):
        """A rational factor (nonzero only on basis element 1) scales the other's numerators;
        any other pair goes through the tower's compiled product."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        tower = self.tower
        if not any(other.num[1:]):
            return _scaled(tower, self, other)
        if not any(self.num[1:]):
            return _scaled(tower, other, self)
        product, den = tower._product
        return _element(tower, product(self.num, other.num), self.den * other.den * den)

    __rmul__ = __mul__

    def inverse(self):
        return self.tower.inverse(self)

    def __pow__(self, exponent):
        """A rational element is powered on its one coordinate; any other by square-and-multiply.

        The exponent is converted by operator.index, so a float raises TypeError.
        """
        exponent = operator.index(exponent)
        if any(self.num[1:]):
            return super().__pow__(exponent)
        x = self.inverse() if exponent < 0 else self
        exponent = abs(exponent)
        # num[0] and den are coprime, and so are their powers
        return TowerElement._new(self.tower, (x.num[0]**exponent,) + x.num[1:], x.den**exponent)

    def __eq__(self, other):
        if isinstance(other, TowerElement):
            return other.tower is self.tower and self.num == other.num and self.den == other.den
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("tower", id(self.tower), self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def rational_part(self):
        """The coordinate on the basis element 1, when the element is rational."""
        if any(self.num[1:]):
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def __repr__(self):
        return f"TowerElement({[str(c) for c in self.coords]})"


def _rational(value):
    """(numerator, denominator) of value as ints, in lowest terms as numbers.Rational requires.

    A float or a string raises TypeError, as in the integral element classes.
    """
    if not isinstance(value, numbers.Rational):
        raise TypeError(f"tower coordinates must be rational, not {type(value).__name__}")
    return operator.index(value.numerator), operator.index(value.denominator)


def _scaled(tower, x, q):
    """x times the rational element q."""
    a = q.num[0]
    return _element(tower, [a * c for c in x.num], x.den * q.den)


def _element(tower, num, den):
    """The TowerElement num / den (den > 0), brought to lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [a // g for a in num]
            den //= g
    return TowerElement._new(tower, tuple(num), den)


class _Matrix:
    """A rational matrix as integer rows over one positive denominator, in lowest terms.

    sparse[i] lists the (column, numerator) pairs of the nonzero entries of row i.
    """

    __slots__ = ("rows", "den", "sparse")

    def __init__(self, rows, den=1):
        rows = [list(row) for row in rows]
        g = gcd(den, *(c for row in rows for c in row))
        if g != 1:
            rows = [[c // g for c in row] for row in rows]
            den //= g
        self.rows = tuple(tuple(row) for row in rows)
        self.den = den
        self.sparse = tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in self.rows)

    @classmethod
    def from_rational(cls, rows):
        # an int is its own numerator over denominator 1: only the other entries need a Fraction
        rows = [[c if isinstance(c, int) else Fraction(c) for c in row] for row in rows]
        den = lcm(*(c.denominator for row in rows for c in row))
        return cls([[c.numerator * (den // c.denominator) for c in row] for row in rows], den)

    def fractions(self):
        return tuple(tuple(Fraction(c, self.den) for c in row) for row in self.rows)

    def __matmul__(self, other):
        columns = list(zip(*other.rows))
        rows = [[sum(map(operator.mul, row, column)) for column in columns] for row in self.rows]
        return _Matrix(rows, self.den * other.den)

    def __eq__(self, other):
        return isinstance(other, _Matrix) and self.rows == other.rows and self.den == other.den

    __hash__ = None


def _cycle(matrix, name):
    """[matrix^0, ..., matrix^(k-1)] for the order k of matrix; a field automorphism has k <= dim."""
    dim = len(matrix.rows)
    powers = [_Matrix([[int(i == j) for j in range(dim)] for i in range(dim)])]
    while len(powers) <= dim:
        if (power := matrix @ powers[-1]) == powers[0]:
            return powers
        powers.append(power)
    raise RuntimeError(f"{name} has no order at most dim")


# Terms per parenthesized group of a generated sum: one flat chain of a few thousand
# terms exceeds the compiler's nesting limit.
_GROUP = 256


def _sum_source(terms):
    """The source of c1*v1 + c2*v2 + ... over the (c, v) pairs, every c an int literal; 0 when empty.

    A coefficient of 1 or -1 is written as a sign alone.
    """
    if not terms:
        return "0"
    signed = [("- " if c < 0 else "+ ") + (v if abs(c) == 1 else f"{abs(c)}*{v}") for c, v in terms]
    groups = [" ".join(signed[i:i + _GROUP]).removeprefix("+ ") for i in range(0, len(signed), _GROUP)]
    return groups[0] if len(groups) == 1 else " + ".join(f"({group})" for group in groups)


def _kernel_source(name, operands, outputs):
    """def name(x, ...): unpack each operand x into x0, x1, ..., return the tuple of the output sums."""
    dim = len(outputs)
    lines = [f"def {name}({', '.join(operands)}):"]
    lines += [f"    {', '.join(f'{x}{i}' for i in range(dim))}, = {x}" for x in operands]
    lines += ["    return ("] + [f"        {_sum_source(terms)}," for terms in outputs] + ["    )"]
    return "\n".join(lines) + "\n"


def _product_source(table, dim):
    """def product(a, b): the numerators of a*b over table.den.

    Output k is the sum of c*a_i*b_j over the cells e_i e_j whose entry on e_k is c.
    """
    outputs = [[] for _ in range(dim)]
    for cell, entries in enumerate(table.sparse):
        i, j = divmod(cell, dim)
        for k, c in entries:
            outputs[k].append((c, f"a{i}*b{j}"))
    return _kernel_source("product", ("a", "b"), outputs)


def _map_source(matrix):
    """def linear_map(x): the numerators of matrix @ x over matrix.den, one sum per row."""
    return _kernel_source("linear_map", ("x",), [[(c, f"x{j}") for j, c in row] for row in matrix.sparse])


def _compile(source, name):
    """The function name that source defines; the source holds only int literals and fixed names."""
    namespace = {}
    exec(source, namespace)
    return namespace[name]


def _map_kernel(matrix):
    """(the compiled map of matrix on numerators, the denominator of its results)."""
    return _compile(_map_source(matrix), "linear_map"), matrix.den


def _pack(entries, width):
    """sum c * 2^(width*k) over the (k, c) pairs: vectors whose entries are all below
    2^(width-1) in absolute value pack to equal integers exactly when they are equal."""
    return sum(c << (width * k) for k, c in entries)


# The compiled kernels, which do not pickle: unpickling compiles them again.
_KERNELS = ("_product", "_sigma_map", "_tau_map", "_flatten_maps")


class NumberTower:
    """Structure-constant model of a Galois field tower over Q.

    The multiplication table (one row per pair of basis elements) and the
    automorphism matrices are kept as integer matrices over a common
    denominator. The table, the automorphism matrices and the distinguished
    elements are all validated at construction, the nm maps sigma^i tau^j
    being distinct; a failed check raises, so a constructed tower always
    satisfies its invariants. n and m are read there as the orders of sigma
    and tau, and t and s off r; the E-over-L basis and its coordinate maps
    are derived there too, once per tower.

    The table compiles into one straight-line product, and sigma, tau and the
    coordinate maps each into one straight-line linear map, all on numerators;
    the kernels hold int literals and fixed names only. They do not pickle, so
    a copied or unpickled tower compiles its own.
    """

    def __init__(self, labels, table, sigma_matrix, tau_matrix, r, b_coords, lam_coords):
        if not labels:
            raise RuntimeError("a tower needs at least one basis element")
        self.dim = len(labels)
        self.labels = tuple(labels)
        self._table = _Matrix.from_rational([cell for row in table for cell in row])
        self._sigma = _Matrix.from_rational(sigma_matrix)
        self._tau = _Matrix.from_rational(tau_matrix)
        self.r = r
        self._compile_kernels()
        self.one = self.basis_element(0)
        self.zero = _element(self, [0] * self.dim, 1)
        self.b = TowerElement(self, b_coords)
        self.lam = TowerElement(self, lam_coords)
        self._self_check()
        self._l_basis, self._projections = self._l_coordinates()
        self._flatten_maps = tuple(map(_map_kernel, self._projections))

    def _compile_kernels(self):
        """The product and the sigma and tau maps; the coordinate maps follow the E-over-L basis."""
        self._product = _compile(_product_source(self._table, self.dim), "product"), self._table.den
        self._sigma_map = _map_kernel(self._sigma)
        self._tau_map = _map_kernel(self._tau)

    def __getstate__(self):
        """The attributes but the kernels (see _KERNELS), for copy, deepcopy and pickle."""
        return {name: value for name, value in self.__dict__.items() if name not in _KERNELS}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._compile_kernels()
        self._flatten_maps = tuple(map(_map_kernel, self._projections))

    @property
    def table(self):
        """The structure constants as Fractions: table[i][j][k] is the e_k-coordinate of e_i e_j."""
        cells = self._table.fractions()
        return tuple(cells[i * self.dim:(i + 1) * self.dim] for i in range(self.dim))

    @property
    def sigma_matrix(self):
        return self._sigma.fractions()

    @property
    def tau_matrix(self):
        return self._tau.fractions()

    def basis_element(self, index):
        return _element(self, [int(i == index) for i in range(self.dim)], 1)

    def scalar(self, value):
        numerator, denominator = _rational(value)
        return _element(self, [numerator] + [0] * (self.dim - 1), denominator)

    def element(self, coords):
        return TowerElement(self, coords)

    def _apply(self, kernel, x):
        if x.tower is not self:
            raise ValueError("elements belong to different towers")
        linear_map, den = kernel
        return _element(self, linear_map(x.num), x.den * den)

    def sigma(self, x):
        return self._apply(self._sigma_map, x)

    def tau(self, x):
        return self._apply(self._tau_map, x)

    def inverse(self, x):
        """The reciprocal of a rational x; of any other x, the inverse by the norm tower.

        A rational x (nonzero only on basis element 1) is a/d with gcd(a, d) == 1,
        so its inverse is d/a with the sign moved to the numerator. Otherwise
        N_E/Q = N_L/Q o N_E/L: sc = sigma(x) ... sigma^(n-1)(x) makes y = x * sc
        the norm of x down to L, and tc = tau(y) ... tau^(m-1)(y) makes
        N = y * tc its norm down to Q, a rational scalar; so 1/x = sc * tc / N.
        tau generates Gal(L/Q), since no tau^j with 0 < j < m lies in <sigma>
        (checked at construction).
        """
        if not x:
            raise ZeroDivisionError("0 has no inverse")
        if not any(x.num[1:]):
            a, d = x.num[0], x.den
            return TowerElement._new(self, (d if a > 0 else -d,) + x.num[1:], abs(a))
        sc = orbit_product(self.sigma, self.sigma(x), self.n - 1, self.one)
        y = x * sc
        tc = self.one if self.m == 1 else orbit_product(self.tau, self.tau(y), self.m - 1, self.one)
        denom = (y * tc).rational_part()
        if denom == 0:
            raise ZeroDivisionError("norm to the base field vanished")
        return sc * tc * self.scalar(1 / denom)

    def _l_coordinates(self):
        """The E-over-L basis e_0 ... e_(n-1) and, per i, the matrix of x -> x_i.

        L is the sigma-fixed subspace with a basis g_0 ... g_(d-1), read off
        the kernel of sigma - 1, and its size d sets the blocks. One rref of
        [G | I], where the columns of G are the g_j e_k, ordered by k and then
        j, does the rest. In a field the L-span of e_k meets the span of the
        earlier columns in 0 or in all of it, so the pivots of G fill whole
        blocks, and the power products e_k of those blocks are the e_i, each
        the first one outside the L-span of those before it. The right block
        is then the inverse of the pivot columns: writing
        x = sum_(i,j) a_ij g_j e_i, its rows i*d ... i*d + d - 1 map x to the
        a_ij, and x_i = sum_j a_ij g_j. A partial pivot block means the table
        is not a field. Each map is stored as an integer matrix over one
        denominator, like sigma and tau.
        """
        if self.dim != self.n * self.m:
            raise RuntimeError("total degree is not n*m; no E-over-L structure exists")
        sigma = self.sigma_matrix
        delta = [[sigma[i][j] - (i == j) for j in range(self.dim)] for i in range(self.dim)]
        l_elements = [TowerElement(self, v) for v in linalg.nullspace_rational(delta)]
        if len(l_elements) != self.m:
            raise RuntimeError("sigma-fixed subspace does not have dimension m")
        block = len(l_elements)
        columns = [(g * self.basis_element(k)).coords for k in range(self.dim) for g in l_elements]
        augmented = [[column[i] for column in columns] + [Fraction(int(i == j)) for j in range(self.dim)]
                     for i in range(self.dim)]
        rows, pivots = linalg.rref(augmented, Fraction(0))
        chosen = [pivot // block for pivot in pivots[::block]]
        if pivots[-1] >= len(columns) or pivots != tuple(k * block + j for k in chosen for j in range(block)):
            raise RuntimeError("no basis of E over L among the power products")
        inverse = [row[len(columns):] for row in rows]
        l_columns = _Matrix.from_rational(zip(*(g.coords for g in l_elements)))
        projections = tuple(
            l_columns @ _Matrix.from_rational(inverse[i * block:(i + 1) * block])
            for i in range(self.n)
        )
        return tuple(map(self.basis_element, chosen)), projections

    def flatten(self, x):
        """Coordinates of x over the E-over-L basis of l_basis(), as elements of L."""
        return [self._apply(kernel, x) for kernel in self._flatten_maps]

    def l_basis(self):
        return list(self._l_basis)

    def random_element(self, rng, span=5):
        return _element(self, [rng.randint(-span, span) for _ in range(self.dim)], 1)

    def _is_ring_automorphism(self, matrix, packs, width):
        """A(e_0) = e_0 and A(e_i) A(e_j) = A(e_i e_j) for every i, j, on the packed cells.

        Over the denominator a^2 D: A(e_i) A(e_j) is the sum of A_pi A_qj (e_p e_q) over
        p and q, and a A(e_i e_j) the sum of a c_l A(e_l) over the entries c_l of e_i e_j.
        """
        dim, a = self.dim, matrix.den
        if [row[0] for row in matrix.rows] != [a] + [0] * (dim - 1):
            return False
        columns = [[(p, row[i]) for p, row in enumerate(matrix.rows) if row[i]] for i in range(dim)]
        images = [a * _pack(column, width) for column in columns]
        # half[p][j] packs e_p A(e_j)
        half = [[sum(y * packs[p * dim + q] for q, y in column) for column in columns]
                for p in range(dim)]
        cells = self._table.sparse
        return all(
            sum(x * half[p][j] for p, x in columns[i])
            == sum(c * images[l] for l, c in cells[i * dim + j])
            for i in range(dim) for j in range(i, dim)
        )

    def _self_check(self):
        """Validate the tower and read n, m, t, s off it; a failed check raises RuntimeError naming it.

        The table and the automorphisms are checked on the integer cells, with no
        product of elements, since products run through the kernels compiled from
        them. Cell i*dim + j holds the numerators of e_i e_j over the denominator D;
        packed by a width at which every vector compared below fits, one integer
        stands for each product of basis elements.
        """
        dim, table = self.dim, self._table
        cells, den = table.sparse, table.den
        if any(cells[j] != ((j, den),) for j in range(dim)):
            raise RuntimeError("basis element 0 is not the multiplicative identity")
        rows = table.rows
        if any(rows[i * dim + j] != rows[j * dim + i] for i in range(dim) for j in range(i + 1, dim)):
            raise RuntimeError("multiplication table is not commutative")
        largest = max((abs(c) for cell in cells for _, c in cell), default=0)
        widest = max((sum(abs(c) for _, c in cell) for cell in cells), default=0)
        # no entry compared below exceeds bound: e_i (e_j e_k) has entries at most widest *
        # largest; for A over a, with columns summing to at most column in absolute value
        # and entries at most entry, A(e_i) A(e_j) at most column^2 * largest and
        # a A(e_i e_j) at most a * widest * entry
        bound = widest * largest
        for matrix in (self._sigma, self._tau):
            column = max((sum(map(abs, c)) for c in zip(*matrix.rows)), default=0)
            entry = max((abs(c) for row in matrix.rows for c in row), default=0)
            bound = max(bound, column * column * largest, matrix.den * widest * entry)
        width = bound.bit_length() + 2
        packs = [_pack(cell, width) for cell in cells]
        # right[j*dim + k][i] packs e_i (e_j e_k), and (e_i e_j) e_k = e_k (e_i e_j)
        right = [[sum(c * packs[i * dim + l] for l, c in cell) for i in range(dim)] for cell in cells]
        if any(right[j * dim + k][i] != right[i * dim + j][k]
               for i in range(dim) for j in range(dim) for k in range(dim)):
            raise RuntimeError("multiplication table is not associative")
        for name, matrix in (("sigma", self._sigma), ("tau", self._tau)):
            if not self._is_ring_automorphism(matrix, packs, width):
                raise RuntimeError(f"{name} is not a ring automorphism")
        sigma_powers = _cycle(self._sigma, "sigma")
        tau_powers = _cycle(self._tau, "tau")
        self.n, self.m = len(sigma_powers), len(tau_powers)
        # the nm maps sigma^i tau^j are distinct exactly when no tau^j, 0 < j < m, is a sigma^i
        if any(power in sigma_powers for power in tau_powers[1:]):
            raise RuntimeError("a power tau^j with 0 < j < m lies in <sigma>")
        if self._tau @ (self._sigma @ tau_powers[-1]) != sigma_powers[self.r % self.n]:
            raise RuntimeError("tau sigma tau^-1 != sigma^r")
        # sigma^r has the order n of its conjugate sigma, so r is a unit mod n
        self.t = pow(self.r, -1, self.n)
        self.s = (self.r * self.t - 1) // self.n
        for name, x in (("b", self.b), ("lambda", self.lam)):
            if not x:
                raise RuntimeError(f"{name} must be nonzero")
        if self.sigma(self.b) != self.b or self.sigma(self.lam) != self.lam:
            raise RuntimeError("b and lambda must be sigma-fixed")
        if self.tau(self.b) != (self.lam**self.n) * (self.b**self.r):
            raise RuntimeError("tau(b) != lambda^n * b^r")

    def __repr__(self):
        return f"NumberTower(dim={self.dim}, n={self.n}, m={self.m}, r={self.r})"


def radical_tower(p, a, r, b, lam):
    """Q(zeta_p, c) with c^p = a: an exact tower of degree p(p - 1) with group C_p x| C_(p-1).

    Basis zeta^i c^e (i < p - 1, e < p) at index p*i + e, labelled 1, c, c2, z, zc, ..., z2c3, ...;
    sigma: c -> zeta*c, tau: zeta -> zeta^r, rationals b and lambda; NumberTower reads n = p and
    m = p - 1 off sigma and tau and checks the rest. ValueError when p is not prime,
    when r is not a primitive root mod p, or when a is x^p for an integer x, as then X^p - a
    splits and the table is no field's.
    """
    p, a, r = operator.index(p), operator.index(a), operator.index(r)
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if r % p == 0 or TauData(p, r % p).m != p - 1:
        raise ValueError(f"r = {r} is not a primitive root mod {p}")
    root, high = 0, 1 << (abs(a).bit_length() // p + 1)  # bisect root^p <= |a| < high^p
    while high - root > 1:
        middle = (root + high) // 2
        root, high = (middle, high) if middle**p <= abs(a) else (root, middle)
    if root**p == abs(a) and (a >= 0 or p % 2):
        raise ValueError(f"a = {a} is ({root if a >= 0 else -root})^{p}, so X^{p} - a splits over Q")
    dim = p * (p - 1)

    def monomial(i, e):
        """The coordinates of zeta^i c^e for any i and e >= 0, by c^p = a and zeta^p = 1."""
        coords, i, e, scale = [0] * dim, i % p, e % p, a ** (e // p)
        for k in [i] if i < p - 1 else range(p - 1):  # zeta^(p-1) = -(1 + ... + zeta^(p-2))
            coords[p * k + e] = scale if i < p - 1 else -scale
        return coords

    basis = [(i, e) for i in range(p - 1) for e in range(p)]
    return NumberTower(
        labels=["z" * (i > 0) + str(i) * (i > 1) + "c" * (e > 0) + str(e) * (e > 1) or "1" for i, e in basis],
        table=[[monomial(i + j, e + f) for j, f in basis] for i, e in basis],
        sigma_matrix=list(zip(*(monomial(i + e, e) for i, e in basis))),
        tau_matrix=list(zip(*(monomial(r * i, e) for i, e in basis))),
        r=r,
        b_coords=[b] + [0] * (dim - 1), lam_coords=[lam] + [0] * (dim - 1),
    )


def builtin_s3():
    """The splitting field of x^3 - 2, with (b, lambda) = (-1, -1), r = t = 2 and s = 1."""
    return radical_tower(3, 2, 2, -1, -1)


class FiniteTower:
    """Degree-n extension of a q-element field with sigma the q-power map.

    A cyclic testbed: m = 1 and tau is the identity, with r = t = 1, s = 0.
    The field is always the canonical one, _smallest_extension(gf(q), n),
    whose modulus is irreducible of degree n, so sigma has order n. b is an
    int, an element of the base field, or an element of any extension of
    order q^n that lies in that extension's base field, read as its base
    coefficient; a coefficient in a field other than GF(p) or the tower's
    base raises ValueError. sigma, tau and flatten raise ValueError for an
    element of another field.
    """

    def __init__(self, q, n, b):
        n = operator.index(n)  # a float n would hit the field cache kept for its int value
        if n < 2:
            raise ValueError("extension degree must be at least 2")
        base = gf(q)
        if isinstance(b, ExtFieldElement) and b.field.order == base.order**n:
            # an element of an extension of order q^n; it must lie in the base field, and its
            # coefficient stays an element of that field, which embed refuses if foreign
            if b != b.field.embed(b.coeffs[0]):
                raise ValueError("b must lie in the base field")
            b = b.field.base.element(b.coeffs[0])
        self.field = _smallest_extension(base, n)
        self.b = self.field.embed(b)
        if not self.b:
            raise ValueError("b must be nonzero")
        self.q = q
        self.base = base
        self.n = n
        self.m = 1
        self.r = 1
        self.t = 1
        self.s = 0
        self.one = self.field.one
        self.zero = self.field.zero
        self.lam = self.field.one
        field = self.field
        # flatten looks each base coefficient up here
        self._embedded = {v: field.embed(v) for v in base._values()}
        gen = field.generator()
        self._l_basis = tuple(gen**e for e in range(n))

    def _own(self, x):
        """x, if it is an element of the tower's field: that object or an equal one, as in arithmetic."""
        if x.field is not self.field and x.field != self.field:
            raise ValueError("elements belong to different towers")
        return x

    def sigma(self, x):
        return self._own(x) ** self.q

    def tau(self, x):
        return self._own(x)

    def scalar(self, value):
        return self.field.from_int(value)

    def flatten(self, x):
        embedded = self._embedded
        return [embedded[c] for c in self._own(x).coeffs]

    def l_basis(self):
        return list(self._l_basis)

    def random_element(self, rng):
        return self.field.random_element(rng)

    def random_unit(self, rng):
        while True:
            x = self.field.random_element(rng)
            if x:
                return x

    def __repr__(self):
        return f"FiniteTower(q={self.q}, n={self.n})"


@dataclass(frozen=True, init=False)
class NormSetPoint(_Immutable):
    """A field element x together with its claimed norm exponent: N(x) = b^k.

    k is converted by operator.index, so a float, a Fraction or a string
    raises TypeError. A dataclass without __init__: __new__ builds it.
    """

    __slots__ = ("x", "k")
    x: object
    k: int

    def __new__(cls, x, k):
        return cls._new(x, operator.index(k))


def sigma_partial_product(tw, x, length):
    """x * sigma(x) * ... * sigma^(length-1)(x); a negative length raises ValueError."""
    return orbit_product(tw.sigma, x, length, tw.one)


def norm(tw, x):
    """The cyclic norm down to the sigma-fixed field: the full sigma-product."""
    return sigma_partial_product(tw, x, tw.n)


def make_norm_point(tw, x, k):
    """A verified norm-set point; raises when N(x) != b^k."""
    point = NormSetPoint(x, k)
    if not point_is_valid(tw, point):
        raise ValueError(f"norm of element is not b^{point.k}")
    return point


def point_is_valid(tw, pt):
    return norm(tw, pt.x) == tw.b**pt.k


def apply_monomial(tw, element, x):
    """Evaluate the monomial action of a group-ring element: prod_i sigma^i(x^(e_i)).

    Negative exponents require x invertible, which every norm-set point is.
    x is inverted once, and sigma is stepped on the inverse alongside x:
    sigma is a ring automorphism, so sigma^i(x)^-1 = sigma^i(x^-1). No
    identity is multiplied in.
    """
    if not isinstance(element, GroupRingElement):
        raise TypeError("monomial part must be a GroupRingElement")
    if element.n != tw.n:
        raise ValueError(f"monomial order {element.n} does not match tower degree {tw.n}")
    inverse = None
    if any(e < 0 for e in element.coeffs):
        if not x:
            raise ZeroDivisionError("negative exponent applied to a non-invertible element")
        inverse = x.inverse()
    result = None
    for i, e in enumerate(element.coeffs):
        if i:
            x = tw.sigma(x)
            if inverse is not None:
                inverse = tw.sigma(inverse)
        if e:
            term = x**e if e > 0 else inverse ** -e
            result = term if result is None else result * term
    return tw.one if result is None else result


def apply_monomial_point(tw, element, pt):
    """The image norm-set point under a monomial map: exponent scales by the augmentation."""
    image = NormSetPoint(apply_monomial(tw, element, pt.x), pt.k * element.augmentation())
    if not point_is_valid(tw, image):
        raise RuntimeError("monomial image left the norm set")
    return image


def tau_hat(tw, pt):
    """The induced tau-action on [N = b^k]: x -> tau(N_sigma^t(x)) / (lambda^(kt) b^(ks)).

    The input and the output are both checked against the norm invariant.
    """
    if not point_is_valid(tw, pt):
        raise ValueError("input does not satisfy its norm invariant")
    numerator = tw.tau(sigma_partial_product(tw, pt.x, tw.t))
    denominator = tw.lam ** (pt.k * tw.t) * tw.b ** (pt.k * tw.s)
    image = NormSetPoint(numerator / denominator, pt.k)
    if not point_is_valid(tw, image):
        raise RuntimeError("tau-hat image left the norm set")
    return image


def phi_k_apply(tw, pt, k):
    """The shift map: x -> x * b^k, moving exponent i to i + n*k."""
    image = NormSetPoint(pt.x * tw.b**k, pt.k + tw.n * k)
    if not point_is_valid(tw, image):
        raise RuntimeError("shift image left the norm set")
    return image


def dump_tower(tw):
    """Serialize a NumberTower as the plain-text structure-constant fixture format.

    One entry per line: `mul i j k value` rows give the coefficient of basis
    element k in the product of basis elements i and j; `sigma`/`tau` rows give
    automorphism matrix entries; `elem` rows give coordinates of b and lambda.
    Values are exact rationals rendered as p/q strings. A label that load_tower
    could not read back (empty, or holding whitespace or the comment mark #)
    raises ValueError naming it.
    """
    lines = [f"tower dim={tw.dim} n={tw.n} m={tw.m} r={tw.r} t={tw.t} s={tw.s}"]
    for i, label in enumerate(tw.labels):
        if not label or "#" in label or any(c.isspace() for c in label):
            raise ValueError(f"label {i} is {label!r}, which the fixture format cannot hold")
        lines.append(f"label {i} {label}")
    table = tw.table
    for i in range(tw.dim):
        for j in range(tw.dim):
            for k, value in enumerate(table[i][j]):
                if value:
                    lines.append(f"mul {i} {j} {k} {value}")
    for name, matrix in (("sigma", tw.sigma_matrix), ("tau", tw.tau_matrix)):
        for i in range(tw.dim):
            for j in range(tw.dim):
                if matrix[i][j]:
                    lines.append(f"{name} {i} {j} {matrix[i][j]}")
    for name, element in (("b", tw.b), ("lambda", tw.lam)):
        for k, value in enumerate(element.coords):
            if value:
                lines.append(f"elem {name} {k} {value}")
    return "\n".join(lines) + "\n"


_HEADER_KEYS = ("dim", "n", "m", "r", "t", "s")
_FIELD_COUNTS = {"label": 2, "mul": 4, "sigma": 3, "tau": 3, "elem": 3}


def _fixture_index(field, dim):
    index = int(field)
    if not 0 <= index < dim:
        raise ValueError(f"index {index} is outside 0 ... {dim - 1}")
    return index


def load_tower(text):
    """Parse the fixture format of dump_tower and build a validated NumberTower.

    A malformed line (an unknown keyword, a wrong field count, a value that
    does not parse, an index outside 0 ... dim-1, a header without one of
    dim, n, m, r, t, s or with a key repeated or not among them, a dim below 1,
    a second header, a line that repeats an earlier line's keyword and indices)
    raises ValueError naming the line; a header n, m, t or s other than the
    tower's raises RuntimeError. Loaded towers
    support every tower-level operation and carry crossed products: like
    every NumberTower, they derive their E-over-L basis and coordinate maps
    at construction, which refuses a fixture whose dim is not n*m.
    """
    header = None
    entries = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *fields = line.split()
        try:
            if keyword == "tower":
                if header is not None:
                    raise ValueError("a second tower header")
                items = dict(field.split("=", 1) for field in fields)
                if len(items) < len(fields):
                    raise ValueError("the header repeats a key")
                unknown = sorted(set(items) - set(_HEADER_KEYS))
                if unknown:
                    raise ValueError(f"the header has unknown keys {', '.join(unknown)}")
                missing = [key for key in _HEADER_KEYS if key not in items]
                if missing:
                    raise ValueError(f"the header lacks {', '.join(missing)}")
                header = {key: int(items[key]) for key in _HEADER_KEYS}
                if header["dim"] < 1:
                    raise ValueError(f"dim = {header['dim']} is not positive")
            elif _FIELD_COUNTS.get(keyword) == len(fields):
                entries.append((raw, keyword, fields))
            else:
                raise ValueError("unknown keyword or wrong field count")
        except ValueError as exc:
            raise ValueError(f"malformed fixture line {raw!r}: {exc}") from None
    if header is None:
        raise ValueError("fixture is missing the tower header line")
    dim = header["dim"]
    labels = {}
    table = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    matrices = {name: [[Fraction(0)] * dim for _ in range(dim)] for name in ("sigma", "tau")}
    elements = {name: [Fraction(0)] * dim for name in ("b", "lambda")}
    seen = set()
    for raw, keyword, fields in entries:
        try:
            # the slot a line sets: its element name, if any, and its indices
            if keyword == "elem":
                if fields[0] not in elements:
                    raise ValueError(f"unknown element {fields[0]!r}")
                slot = (fields[0], _fixture_index(fields[1], dim))
            else:
                slot = tuple(_fixture_index(field, dim) for field in fields[:-1])
            if (keyword, *slot) in seen:
                raise ValueError(f"it sets {keyword} {' '.join(map(str, slot))} again")
            seen.add((keyword, *slot))
            if keyword == "label":
                labels[slot[0]] = fields[1]
            elif keyword == "mul":
                i, j, k = slot
                table[i][j][k] = Fraction(fields[3])
            elif keyword == "elem":
                elements[slot[0]][slot[1]] = Fraction(fields[2])
            else:
                i, j = slot
                matrices[keyword][i][j] = Fraction(fields[2])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed fixture line {raw!r}: {exc}") from None
    tower = NumberTower(
        labels=[labels.get(i, f"e{i}") for i in range(dim)],
        table=table,
        sigma_matrix=matrices["sigma"],
        tau_matrix=matrices["tau"],
        r=header["r"],
        b_coords=elements["b"],
        lam_coords=elements["lambda"],
    )
    for key in ("n", "m", "t", "s"):
        if header[key] != (value := getattr(tower, key)):
            raise RuntimeError(f"the header's {key} = {header[key]} is not the tower's {key} = {value}")
    return tower
