"""Structure-constant crossed products, splitting chains, left ideals, and identity checks."""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from . import linalg
from ._element import orbit
from .checks import CheckResult, case_check, fact_check
from .tower import norm


def standard_cyclic_cocycle(tw, b=None):
    """The standard normalized 2-cocycle of a cyclic extension: c(i,j) = 1 or b.

    b defaults to the tower's distinguished element; it must be nonzero and
    sigma-fixed. The table is not checked here: CrossedProduct checks the
    cocycle condition on every table it is given or builds.
    """
    if b is None:
        b = tw.b
    if not b:
        raise ValueError("b must be nonzero")
    if tw.sigma(b) != b:
        raise ValueError("b must be sigma-fixed")
    n = tw.n
    table = {}
    for i in range(n):
        for j in range(n):
            table[(i, j)] = b if i + j >= n else tw.one
    return table


def cocycle_condition_holds(tw, table):
    """Exact check of normalization and the 2-cocycle condition on all triples.

    Each entry's conjugates sigma^0(c) ... sigma^(n-1)(c) are made once.
    """
    n = tw.n
    if table[(0, 0)] != tw.one:
        return False
    orbits = {(j, k): orbit(tw.sigma, table[(j, k)], n) for j in range(n) for k in range(n)}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = orbits[(j, k)][i] * table[(i, (j + k) % n)]
                rhs = table[(i, j)] * table[((i + j) % n, k)]
                if lhs != rhs:
                    return False
    return True


class CrossedProduct:
    """The crossed product (E, <sigma>, c) over the sigma-fixed field L.

    Elements are length-n tuples of E-coefficients indexed by group elements,
    representing sum_j x_j u_j with u x = sigma(x) u and u_i u_j = c(i,j) u_(i+j).
    multiply twists by c(i,j) only where the entry is not one. The powers
    u^0, u^1, ... are kept as they are made. A table without an entry for
    some pair (i, j) of range(n)^2 raises ValueError naming the first.
    """

    def __init__(self, tower, cocycle=None, validate=True):
        self.tower = tower
        self.n = n = tower.n
        self.cocycle = cocycle if cocycle is not None else standard_cyclic_cocycle(tower)
        missing = [(i, j) for i in range(n) for j in range(n) if (i, j) not in self.cocycle]
        if missing:
            raise ValueError(f"the cocycle table has no entry for {missing[0]}")
        if validate and not cocycle_condition_holds(tower, self.cocycle):
            raise ValueError("table is not a normalized 2-cocycle")
        # _twists[i][j] is c(i, j), None where it is one
        self._twists = [[None if self.cocycle[(i, j)] == tower.one else self.cocycle[(i, j)]
                         for j in range(n)] for i in range(n)]
        self.zero = (tower.zero,) * n
        self.one = self.from_field(tower.one)
        self._u_powers = [self.one, self.u(1)]

    def from_field(self, x):
        return (x,) + (self.tower.zero,) * (self.n - 1)

    def u(self, j=1):
        return tuple(self.tower.one if idx == j % self.n else self.tower.zero for idx in range(self.n))

    def u_powers(self, power):
        """The list [u^0, u^1, ..., u^power]; each power is made once per algebra."""
        if power < 0:
            raise ValueError("negative powers are not supported in the crossed product")
        powers = self._u_powers
        while len(powers) <= power:
            powers.append(self.multiply(powers[-1], powers[1]))
        return powers[:power + 1]

    def u_power(self, power):
        return self.u_powers(power)[-1]

    def _check_lengths(self, *operands):
        for x in operands:
            if len(x) != self.n:
                lengths = " and ".join(str(len(y)) for y in operands)
                raise ValueError(f"operands of lengths {lengths}; the algebra has n = {self.n}")

    def add(self, x, y):
        self._check_lengths(x, y)
        return tuple(a + b for a, b in zip(x, y))

    def sub(self, x, y):
        self._check_lengths(x, y)
        return tuple(a - b for a, b in zip(x, y))

    def scale(self, coefficient, x):
        self._check_lengths(x)
        return tuple(coefficient * a for a in x)

    def multiply(self, x, y):
        """sum over i, j of x_i sigma^i(y_j) c(i, j) u_(i+j).

        sigma^i(y_j) is made from sigma^(i-1)(y_j), one sigma step for each
        nonzero y_j, up to the last nonzero x_i.
        """
        self._check_lengths(x, y)
        n, tower = self.n, self.tower
        conjugates = [(j, yj) for j, yj in enumerate(y) if yj]  # (j, sigma^step(y_j))
        step = 0
        out = [None] * n
        for i, xi in enumerate(x):
            if not xi:
                continue
            for _ in range(i - step):
                conjugates = [(j, tower.sigma(yj)) for j, yj in conjugates]
            step = i
            twists = self._twists[i]
            for j, yj in conjugates:
                term = xi * yj
                twist = twists[j]
                if twist is not None:
                    term = term * twist
                idx = i + j - n if i + j >= n else i + j
                previous = out[idx]
                out[idx] = term if previous is None else previous + term
        zero = tower.zero
        return tuple([zero if c is None else c for c in out])

    def flatten(self, x):
        """Coordinates over L: each E-coefficient expanded along the E-over-L basis.

        A zero coefficient, the most common one, expands to n zeros without the tower.
        """
        out = []
        for coeff in x:
            out.extend(self.tower.flatten(coeff) if coeff else self.zero)
        return out

    def basis_elements(self):
        """The n^2 elements e_b * u_g spanning the algebra over L."""
        out = []
        field_basis = self.tower.l_basis()
        for g in range(self.n):
            for e_b in field_basis:
                out.append(self.scale(e_b, self.u(g)))
        return out

    def dimension(self):
        return self.n * self.n

    def __repr__(self):
        return f"CrossedProduct(n={self.n}, tower={self.tower!r})"


@dataclass(frozen=True)
class SplittingChain:
    """A 1-chain z on the cyclic group; splitting means delta z equals the cocycle."""

    values: tuple

    def __len__(self):
        return len(self.values)


def chain_from_unit(algebra, y):
    """The partial-norm chain z_j = y * sigma(y) * ... * sigma^(j-1)(y).

    When b = N(y) this satisfies delta z = c for the standard cocycle; the
    property is checked by callers, never assumed. One running product over
    y ... sigma^(n-2)(y) makes z_1 ... z_(n-1): n - 2 sigma steps and products.
    """
    tw = algebra.tower
    conjugates = orbit(tw.sigma, y, algebra.n - 1)
    return SplittingChain((tw.one, *itertools.accumulate(conjugates, operator.mul)))


def is_splitting_chain(algebra, chain):
    """Exact check of delta z = c: sigma^i(z_j) * z_i == c(i,j) * z_(i+j) for all pairs.

    Each value's conjugates sigma^0(z_j) ... sigma^(n-1)(z_j) are made once.
    """
    tw = algebra.tower
    z = chain.values
    if len(z) != algebra.n or any(not zj for zj in z):
        return False
    orbits = [orbit(tw.sigma, zj, algebra.n) for zj in z]
    for i in range(algebra.n):
        for j in range(algebra.n):
            lhs = orbits[j][i] * z[i]
            rhs = algebra.cocycle[(i, j)] * z[(i + j) % algebra.n]
            if lhs != rhs:
                return False
    return True


def _ideal_coordinates(algebra, x):
    """L-coordinates with the field part last: the blocks of u_1 ... u_(n-1), then u_0."""
    return algebra.flatten(x[1:] + x[:1])


class LeftIdeal:
    """A left ideal of one algebra as a reduced row-echelon basis over L (canonical row space).

    The rows are in _ideal_coordinates, the field part last, so an ideal
    complementary to the field part has the first n^2 - n columns as pivots:
    its rows are the graph of the L-linear map u_j -> z_j. contains reduces
    a vector's coordinates against the rows by linalg.reduce_against. Two
    ideals are equal when they belong to the same algebra object and have
    the same rows; the hash reads the rows only.
    """

    def __init__(self, algebra, rows, pivots):
        self.algebra = algebra
        self.rows = tuple(tuple(row) for row in rows)
        self.pivots = tuple(pivots)

    @property
    def dimension(self):
        return len(self.rows)

    def contains(self, element):
        self.algebra._check_lengths(element)
        residue = linalg.reduce_against(_ideal_coordinates(self.algebra, element), self.rows,
                                        self.pivots, self.algebra.tower.zero)
        return not any(residue)

    def __eq__(self, other):
        return (isinstance(other, LeftIdeal) and self.algebra is other.algebra
                and self.rows == other.rows)

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"LeftIdeal(dimension={self.dimension})"


def ideal_from_chain(algebra, chain):
    """The left ideal spanned by E*(z_j - u_j) over all group elements, written in reduced form.

    Requires delta z = c. With p = e_b*z_j, the generator e_b*(z_j - u_j) is
    p at u_0 and -e_b at u_j, so minus it is already the reduced row (j, b):
    1 on column (j - 1)*n + b and -flatten(p) on the field part. These rows,
    the graph of u_j -> z_j, span an (n^2 - n)-dimensional complement of the
    field part with no elimination. They span the kernel of the left-E-linear
    form x -> sum_k x_k z_k, which is onto E (z_0 = 1), so u*g, made by
    multiply, lies in the span exactly when the form vanishes on it: that is
    the check of closure under left multiplication by u, one per generator g.
    """
    if not is_splitting_chain(algebra, chain):
        raise ValueError("chain does not satisfy delta z = c")
    tw, n, z = algebra.tower, algebra.n, chain.values
    u = algebra.u(1)
    rows = []
    for j in range(1, n):
        for b, e_b in enumerate(tw.l_basis()):
            p = e_b * z[j]
            row = [tw.zero] * (n * n - n)
            row[(j - 1) * n + b] = tw.one
            rows.append(row + tw.flatten(-p))
            generator = [tw.zero] * n
            generator[0], generator[j] = p, -e_b
            if sum(map(operator.mul, algebra.multiply(u, tuple(generator)), z), tw.zero):
                raise RuntimeError("span is not closed under left multiplication by u")
    return LeftIdeal(algebra, rows, range(n * n - n))


def chain_from_ideal(algebra, ideal):
    """Recover the splitting chain: z_j is the unique field part with z_j - u_j in the ideal.

    An ideal complementary to the field part has pivots on the first n^2 - n
    columns. Since e_0 = 1, u_j is 1 on column (j - 1)*n alone, so of the
    reduced rows only row (j, 0) acts on it, and u_j reduces to minus that
    row's field part: z_j is read off it, and z_0 = 1. Other pivots, or a
    zero z_j, mean the ideal lies outside the open locus where the
    correspondence is defined. An ideal of another algebra object is refused
    first, before its pivots or rows are read.
    """
    if ideal.algebra is not algebra:
        raise ValueError("the ideal belongs to another algebra")
    n = algebra.n
    if ideal.pivots != tuple(range(n * n - n)):
        raise ValueError("ideal is not complementary to the field part")
    tw = algebra.tower
    field_basis = tw.l_basis()
    values = [tw.one]
    for j in range(1, n):
        z_j = tw.zero
        for coordinate, e_b in zip(ideal.rows[(j - 1) * n][-n:], field_basis):
            z_j = z_j - coordinate * e_b
        if not z_j:
            raise ValueError("recovered chain value is zero; ideal is outside the open locus")
        values.append(z_j)
    chain = SplittingChain(tuple(values))
    if not is_splitting_chain(algebra, chain):
        raise ValueError("recovered chain does not satisfy delta z = c")
    return chain


def corrupt_chain(algebra, chain):
    """Scale z_1, or else z_0, by e_1 = l_basis()[1] so that delta z = c fails (negative control).

    One rule for every tower. e_1 is neither 0 nor 1. Scaling z_1 by any c != 1
    breaks delta z = c at (n - 1, 1) when n >= 3; when n = 2 it breaks unless
    N(c) = 1, as for every nonzero c of GF(4) over GF(2), and z_0 is scaled
    instead: delta z = c forces z_0 = 1.
    """
    e_1, z = algebra.tower.l_basis()[1], chain.values
    bad = SplittingChain((z[0], z[1] * e_1, *z[2:]))
    if is_splitting_chain(algebra, bad):
        bad = SplittingChain((z[0] * e_1, *z[1:]))
    return bad


def norm_element_check(algebra, x, i):
    """Exact check that a * (x - u) = N_sigma^i(x) - u^i for the displayed element a.

    a = sum_k (sigma^(i-1)(x) ... sigma^(i-k)(x)) u^(i-k-1), k = 0 ... i-1; the
    conjugates sigma^0(x) ... sigma^(i-1)(x) are built once, the powers
    u^0 ... u^i are the algebra's kept ones, and each coefficient grows from
    the one before it, added into a entry by entry. The last coefficient
    times x is the partial norm x sigma(x) ... sigma^(i-1)(x).
    """
    tw = algebra.tower
    conjugates = orbit(tw.sigma, x, i)
    u_powers = algebra.u_powers(i)
    a = list(algebra.zero)
    coefficient = tw.one
    for k in range(i):
        if k:
            coefficient = coefficient * conjugates[i - k]
        for j, entry in enumerate(u_powers[i - k - 1]):
            if entry:
                a[j] = a[j] + coefficient * entry
    partial_norm = coefficient * x if i else tw.one
    lhs = algebra.multiply(tuple(a), algebra.sub(algebra.from_field(x), algebra.u(1)))
    rhs = algebra.sub(algebra.from_field(partial_norm), u_powers[i])
    return CheckResult(
        name=f"norm-element identity (i={i})",
        passed=lhs == rhs,
        detail="a*(x - u) must equal (partial norm of x) - u^i",
    )


def _tau_on_algebra(algebra):
    """The semilinear extension of tau, and the powers w^0 ... w^n of w = tau(u) = lambda*u^r.

    Coefficients go through tau, and u^j through w^j.
    """
    tw = algebra.tower
    w = algebra.multiply(algebra.from_field(tw.lam), algebra.u_power(tw.r))
    w_powers = [algebra.one, *orbit(lambda v: algebra.multiply(v, w), w, algebra.n)]

    def apply(x):
        out = algebra.zero
        for j, coeff in enumerate(x):
            if coeff:
                out = algebra.add(
                    out, algebra.multiply(algebra.from_field(tw.tau(coeff)), w_powers[j])
                )
        return out

    return apply, w_powers


def tau_action_check(algebra):
    """Verify the tau-action on a crossed product over a NumberTower.

    Checks the defining relation against every basis element, the image of
    u^n, multiplicativity on the full algebra basis, and that the m-fold
    iterate fixes u. algebra is a CrossedProduct, or a function of no
    arguments that builds one. The build and the setup run once per call,
    inside the checks: if they raise, each check fails and names the error.
    """
    build = algebra if callable(algebra) else lambda: algebra

    @functools.cache
    def setup():
        algebra = build()
        tau_map, w_powers = _tau_on_algebra(algebra)
        return algebra, algebra.tower, tau_map, w_powers

    def relation():
        algebra, tw, _, w_powers = setup()
        w = w_powers[1]
        for x in map(tw.basis_element, range(tw.dim)):
            yield algebra.multiply(w, algebra.from_field(tw.tau(x))) == algebra.multiply(
                algebra.from_field(tw.tau(tw.sigma(x))), w
            ), {"x": x}

    def u_power():
        algebra, tw, _, w_powers = setup()
        return (w_powers[algebra.n] == algebra.from_field(tw.tau(tw.b)),
                "lambda^n * b^r must equal tau(b) inside the algebra")

    def multiplicative():
        algebra, _, tau_map, _ = setup()
        basis = algebra.basis_elements()
        images = [tau_map(p) for p in basis]
        for i, p in enumerate(basis):
            for j, q in enumerate(basis):
                holds = tau_map(algebra.multiply(p, q)) == algebra.multiply(images[i], images[j])
                yield holds, {"basis pair": (i, j)}

    def iterate():
        algebra, tw, tau_map, _ = setup()
        image = orbit(tau_map, algebra.u(1), tw.m + 1)[-1]
        yield image == algebra.u(1), {"m": tw.m, "image": image}

    return [
        case_check("tau(u)*tau(x) = tau(sigma(x))*tau(u)", relation()),
        fact_check("tau(u^n) = tau(b)", u_power),
        case_check("tau is multiplicative on the algebra", multiplicative()),
        case_check("tau^m fixes u", iterate()),
    ]


def tensor_power_check(algebra, l):
    """Inside the l-fold tensor power, the span of E and v = u⊗...⊗u is (E, sigma, b^l).

    Verifies v^n = b^l, v x = sigma(x) v, and that the spanned subalgebra has
    dimension n^2. Every element formed is a pure tensor a_1⊗...⊗a_l, kept as
    the tuple of its factors: two are multiplied factor by factor through
    algebra.multiply, and compared and ranked by their L-coordinates, the
    products of the factors' flatten coordinates in Kronecker order, so
    L-scalars move freely between factors. Only the nonzero coordinates are
    kept, keyed by one flatten index per factor, and the n^2 rows are ranked
    over the union of their supports. E enters as x⊗1⊗...⊗1.

    At l >= 2 the dimension fact says no more than at l = 1. For i < n the
    later factors of e_b*v^i are all u^i, which lies in the block of u_i: rows
    of different i have disjoint supports, rows of one i share their tail,
    and the rank is that of the e_b*u^i in the algebra. What l adds is
    checked by v^n = b^l and the commutation.
    """
    n = algebra.n
    tw = algebra.tower
    if l < 1:
        raise ValueError("l must be positive")

    field_basis = tw.l_basis()

    def times(x, y):
        return tuple(map(algebra.multiply, x, y))

    def coordinates(x):
        # a product of nonzero field elements is nonzero, so the dict keeps every nonzero
        out = {(): tw.one}
        for factor in x:
            flat = [(k, c) for k, c in enumerate(algebra.flatten(factor)) if c]
            out = {key + (k,): a * c for key, a in out.items() for k, c in flat}
        return out

    def from_field(x):
        return (algebra.from_field(x),) + (algebra.one,) * (l - 1)

    v = (algebra.u(1),) * l

    @functools.cache
    def v_powers():
        return [(algebra.one,) * l, *orbit(lambda power: times(power, v), v, n)]

    def v_power_n():
        power = v_powers()[n]
        expected = from_field(tw.b**l)
        yield coordinates(power) == coordinates(expected), {"n": n, "l": l, "v^n": power}

    def commutation():
        for x in field_basis:
            left = times(v, from_field(x))
            yield coordinates(left) == coordinates(times(from_field(tw.sigma(x)), v)), {"x": x}

    def dimension():
        rows = [coordinates(times(from_field(e_b), v_powers()[i]))
                for e_b in field_basis for i in range(n)]
        # a column that is zero in every row adds no rank
        columns = sorted(set().union(*rows))
        reduced, _ = linalg.rref([[row.get(k, tw.zero) for k in columns] for row in rows], tw.zero)
        return (len(reduced) == n * n,
                f"rank {len(reduced)} inside the {n ** (2 * l)}-dimensional tensor power")

    return [
        case_check("v^n = b^l", v_power_n()),
        case_check("v*x = sigma(x)*v", commutation()),
        fact_check("subalgebra has dimension n^2", dimension),
    ]


def random_cyclic_instance(q, n, rng):
    """A seeded random instance: a unit y, the tower with b = N(y), and the chain from y."""
    from .tower import FiniteTower

    scaffold = FiniteTower(q, n, 1)
    y = scaffold.random_unit(rng)
    # a unit of a field has a unit norm, so b is a valid, nonzero parameter
    tower = FiniteTower(q, n, norm(scaffold, y))
    algebra = CrossedProduct(tower)
    chain = chain_from_unit(algebra, y)
    return algebra, chain, y
