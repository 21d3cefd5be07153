import functools
import itertools
import random
import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpcert import quotient
from sdpcert.coverage import (
    _checked_unit,
    coset_steps,
    coverage_subgroup,
    cyclotomic_unit,
    cyclotomic_unit_inverse,
    fixed_unit_generators,
    tau_symmetrize,
    verify_report,
)
from sdpcert._primes import _prime_divisors
from sdpcert.finitefield import PrimeField, _is_prime
from sdpcert.group_ring import GroupRingElement, OrderMismatchError, TauData, _is_fixed, full_norm
from sdpcert.linalg import resultant
from sdpcert.quotient import (
    NotInvertibleError,
    SElement,
    _level_residues,
    _levels,
    _multiplication_matrix,
    _prime,
    _prime_count,
    eps_bar,
    invert,
    is_unit,
    lift,
    norm,
    reduce,
    solve_inverse,
    tau_apply_s,
)


def random_element(rng, n, span=10):
    return GroupRingElement(n, [rng.randint(-span, span) for _ in range(n)])


def random_tau(rng, n):
    return TauData(n, rng.choice([r for r in range(1, n) if gcd(r, n) == 1]))


def test_reduce_kills_norm():
    assert reduce(full_norm(3)) == SElement.zero(3)
    assert reduce(5 * full_norm(7)) == SElement.zero(7)


def test_reduce_of_sigma_plus_sigma_squared():
    assert reduce(GroupRingElement(3, (0, 1, 1))) == SElement(3, (-1, 0))


def test_reduce_of_one():
    assert reduce(GroupRingElement.one(4)) == SElement.one(4)


def test_reduce_kernel_is_norm_line():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(2, 20)
        p = random_element(rng, n)
        if reduce(p) == SElement.zero(n):
            assert len(set(p.coeffs)) == 1
        c = rng.randint(-30, 30)
        assert reduce(p + c * full_norm(n)) == reduce(p)


def test_lift_examples():
    assert lift(SElement.one(3)) == GroupRingElement.one(3)
    assert lift(SElement.constant(3, -1)) == GroupRingElement(3, (-1, 0, 0))


def test_reduce_lift_round_trip():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(2, 20)
        s = SElement(n, [rng.randint(-10, 10) for _ in range(n - 1)])
        assert reduce(lift(s)) == s


def test_rho_is_unit_for_every_n():
    for n in range(2, 12):
        assert is_unit(SElement.rho_power(n, 1))


def test_zero_and_two_are_not_units():
    assert not is_unit(SElement.zero(5))
    assert not is_unit(SElement.constant(5, 2))


def test_symmetric_binomials_are_units_n5():
    # resultants of x^3 + x and of the canonical form of rho + rho^4 with
    # 1 + x + x^2 + x^3 + x^4 are both +-1 (checked against an independent
    # resultant computation)
    assert is_unit(SElement(5, (0, 1, 0, 1)))  # rho + rho^3
    assert is_unit(SElement.from_exponents(5, (1, 4)))  # rho + rho^-1


def test_symmetric_sum_with_common_factor_is_not_unit():
    # 1 + rho + rho^8 for n = 9 has eps_bar 3, not a unit mod 9
    assert not is_unit(SElement.from_exponents(9, (0, 1, 8)))


def test_invert_examples():
    assert invert(SElement.one(4)) == SElement.one(4)
    minus_one = SElement.constant(3, -1)
    assert invert(minus_one) == minus_one
    for n in (3, 5, 8):
        assert invert(SElement.rho_power(n, 1)) == SElement(n, (-1,) * (n - 1))


def test_invert_rejects_non_units():
    with pytest.raises(NotInvertibleError):
        invert(SElement.zero(5))
    with pytest.raises(NotInvertibleError):
        invert(SElement.constant(7, 3))


def test_multiplication_matrix_columns_are_the_products_with_rho_powers():
    # reference: column j as the ring product s * rho^j, through the group ring
    rng = random.Random(10)
    for _ in range(300):
        n = rng.randint(2, 15)
        s = SElement(n, [rng.randint(-3, 3) for _ in range(n - 1)])
        matrix = _multiplication_matrix(s)
        assert len(matrix) == n - 1 and all(len(row) == n - 1 for row in matrix)
        for j in range(n - 1):
            column = tuple(row[j] for row in matrix)
            assert column == (s * SElement.rho_power(n, j)).coeffs, (s, j)


def refuse_prime_table(n):
    raise AssertionError(f"kernel prime table built for n = {n}")


def test_invert_builds_no_prime_table(monkeypatch):
    # the linear solve shares nothing with the modular norm kernel
    monkeypatch.setattr(quotient, "_prime_table", refuse_prime_table)
    steps = coset_steps(211, 210)
    unit = cyclotomic_unit(211, steps, 3)
    assert invert(unit) == cyclotomic_unit_inverse(211, steps, 3)


def test_unit_criterion_against_linear_solve_oracle():
    # dual-route check over the full coefficient box [-2, 2]
    for n in (3, 4, 5, 6, 7):
        for coeffs in itertools.product(range(-2, 3), repeat=n - 1):
            s = SElement(n, coeffs)
            oracle = solve_inverse(s)
            assert is_unit(s) == (oracle is not None), (n, coeffs)
            if oracle is not None:
                assert s * oracle == SElement.one(n)
                assert all(abs(c) <= 50 for c in oracle.coeffs)


def test_eps_bar_examples():
    assert eps_bar(SElement.rho_power(7, 1)) == 1
    assert eps_bar(SElement.constant(3, -1)) == 2
    assert eps_bar(SElement.zero(6)) == 0


def test_eps_bar_commutes_with_reduction():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(2, 20)
        p = random_element(rng, n)
        assert eps_bar(reduce(p)) == p.augmentation() % n


def test_tau_apply_s_examples():
    assert tau_apply_s(SElement.rho_power(5, 1), TauData(5, 2)) == SElement.rho_power(5, 2)
    minus_one = SElement.constant(7, -1)
    assert tau_apply_s(minus_one, TauData(7, 3)) == minus_one


def test_tau_apply_s_order_divides_m():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(2, 15)
        tau = random_tau(rng, n)
        s = SElement(n, [rng.randint(-5, 5) for _ in range(n - 1)])
        image = s
        for _ in range(tau.m):
            image = tau_apply_s(image, tau)
        assert image == s


def test_tau_preserves_units_and_eps_bar():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(3, 12)
        tau = random_tau(rng, n)
        s = SElement.rho_power(n, rng.randrange(n)) * rng.choice([1, -1])
        image = tau_apply_s(s, tau)
        assert is_unit(image)
        assert eps_bar(image) == eps_bar(s)


def random_fixed_s(rng, n, tau, span=9):
    seen = set()
    acc = GroupRingElement.zero(n)
    for start in range(n):
        if start in seen:
            continue
        orbit = []
        e = start
        while e not in orbit:
            orbit.append(e)
            seen.add(e)
            e = (e * tau.r) % n
        weight = rng.randint(-span, span)
        for e in orbit:
            acc = acc + GroupRingElement.sigma_power(n, e, weight)
    return reduce(acc)


def test_canonical_lift_of_fixed_element_is_fixed():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 15)
        tau = random_tau(rng, n)
        s = random_fixed_s(rng, n, tau)
        assert tau_apply_s(s, tau) == s
        assert lift(s).is_tau_fixed(tau)


def test_every_preimage_of_fixed_element_differs_by_norm():
    # preimages of a fixed s are lift(s) + c*N, all of them fixed
    rng = random.Random(6)
    tau = TauData(9, 2)
    s = random_fixed_s(rng, 9, tau)
    for c in (-2, 0, 5):
        preimage = lift(s) + c * full_norm(9)
        assert reduce(preimage) == s
        assert preimage.is_tau_fixed(tau)


def test_s_element_ring_operations():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 12)
        a = SElement(n, [rng.randint(-6, 6) for _ in range(n - 1)])
        b = SElement(n, [rng.randint(-6, 6) for _ in range(n - 1)])
        c = SElement(n, [rng.randint(-6, 6) for _ in range(n - 1)])
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
    # reduce is multiplicative: reduce(PQ) = reduce(P) * reduce(Q)
    for _ in range(50):
        n = rng.randint(2, 12)
        p, q = random_element(rng, n), random_element(rng, n)
        assert reduce(p * q) == reduce(p) * reduce(q)


def test_rho_pow_inverse_via_negative_exponent():
    rho = SElement.rho_power(7, 1)
    assert rho ** (-1) == invert(rho)
    assert rho**7 == SElement.one(7)


def norm_cases():
    """n = 2, zero elements, coefficients near +-10^6, and random elements of each size."""
    rng = random.Random(8)
    cases = [SElement(2, (c,)) for c in (-7, -1, 0, 1, 10**6)]
    cases += [SElement.zero(n) for n in (2, 3, 11)]
    for _ in range(120):
        n = rng.randint(2, 14)
        span = rng.choice((1, 2, 10, 10**6))
        cases.append(SElement(n, [rng.randint(-span, span) for _ in range(n - 1)]))
    for _ in range(20):
        n = rng.randint(2, 10)
        cases.append(SElement(n, [rng.choice((-1, 1)) * (10**6 - rng.randint(0, 3))
                                  for _ in range(n - 1)]))
    return cases


def trimmed_degree(coeffs):
    return max((i for i, c in enumerate(coeffs) if c), default=0)


def test_norm_matches_bareiss_resultant():
    # N(s) = Res(1 + ... + x^(n-1), f) = (-1)^(deg f * (n-1)) Res(f, 1 + ... + x^(n-1))
    for s in norm_cases():
        expected = resultant(list(s.coeffs), [1] * s.n)
        sign = (-1) ** (trimmed_degree(s.coeffs) * (s.n - 1))
        assert norm(s) == sign * expected, s
        assert is_unit(s) == (abs(expected) == 1), s


def test_norm_matches_sympy_resultant():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for s in norm_cases()[::4]:
        f = sympy.Poly(list(reversed(s.coeffs)), x, domain="ZZ")
        g = sympy.Poly([1] * s.n, x, domain="ZZ")
        expected = 0 if f.is_zero else int(sympy.resultant(f, g))
        assert abs(norm(s)) == abs(expected), s


def test_norm_at_the_crt_bound():
    # |N(c * rho^k)| = |c|^(n-1) = L^(n-1), the largest norm the CRT bound allows for
    # L = |c|; the sign is (-1)^(k(n-1)) since the roots of 1 + ... + x^(n-1) multiply
    # to (-1)^(n-1)
    for n in (2, 3, 8, 13, 30):
        for c in (-(10**6), -3, 2, 10**6 - 1):
            for k in {0, n // 2, n - 2}:
                s = c * SElement.rho_power(n, k)
                assert norm(s) == c ** (n - 1) * (-1) ** (k * (n - 1)), (n, c, k)
                assert not is_unit(s)
        assert norm(SElement.rho_power(n, n - 1)) == (-1) ** (n - 1)
        assert is_unit(-SElement.rho_power(n, n - 1))


def test_parseval_bound_needs_fewer_primes_than_the_triangle_bound():
    # L = 50 and n = 11: the triangle bound 2 * 50^10 takes three kernel primes, the
    # Parseval/AM-GM bound 2 * 275^5 two; |N(s)| exceeds one prime, so CRT still joins.
    # n = 11 is prime, so at r = 1 its one level is the whole norm
    s = SElement(11, (5, -5) * 5)
    primes = [_prime(11, k)[0] for k in range(3)]
    assert primes[0] * primes[1] <= 2 * 50**10 < primes[0] * primes[1] * primes[2]
    assert [p for p, _ in _level_residues(s, _levels(11, 1))] == primes[:2]
    expected = resultant(list(s.coeffs), [1] * 11)
    assert norm(s) == (-1) ** (trimmed_degree(s.coeffs) * 10) * expected
    assert abs(norm(s)) > primes[0]


def test_kernel_tables_hold_primes_with_roots_of_exact_order():
    for n in (2, 3, 12, 30, 61):
        primes = []
        for k in range(4):
            p, powers = _prime(n, k)
            w = powers[1]
            primes.append(p)
            assert p % n == 1 and n < p < 2**26
            assert all(p % q for q in range(2, int(p**0.5) + 1)), p
            assert pow(w, n, p) == 1
            assert all(pow(w, d, p) != 1 for d in range(1, n) if n % d == 0), (n, p)
            assert powers == [pow(w, i, p) for i in range(n)]
        assert primes == sorted(set(primes), reverse=True)


def test_miller_rabin_against_trial_division():
    for p in range(-2, 5000):
        assert _is_prime(p) == (p >= 2 and all(p % q for q in range(2, int(p**0.5) + 1))), p
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37 in turn
    for composite in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(composite)
    assert _is_prime(2**61 - 1) and _is_prime(67108859)
    with pytest.raises(ValueError):
        _is_prime(2**127 - 1)
    with pytest.raises(ValueError):
        PrimeField(91)
    for not_an_integer in (3.0, 7.0, 4.5, "7"):
        with pytest.raises(TypeError):
            _is_prime(not_an_integer)
        with pytest.raises(TypeError):
            _prime_divisors(not_an_integer)


def unit_pairs(n, r):
    """(-1, -1), then the (unit, closed-form inverse) pairs from _checked_unit behind
    fixed_unit_generators(n, r), in its order."""
    generators = fixed_unit_generators(n, r)
    steps = coset_steps(n, r)
    pairs = [(generators[0], generators[0])]
    for a in range(3, n, 2):
        if gcd(a, n) == 1:
            pair = _checked_unit(n, steps, a)
            if pair[0] in generators:
                pairs.append(pair)
    assert [unit for unit, _ in pairs] == generators
    return pairs


def test_invert_matches_closed_form_inverses_on_unit_products():
    # the inverse of a product of cyclotomic units is the product of their closed-form
    # inverses: a route independent of the linear solve behind invert
    rng = random.Random(9)
    for n in (2, 3, 6, 9, 14, 20):
        base = unit_pairs(n, n - 1) + unit_pairs(n, 1)
        for _ in range(6):
            u = expected = SElement.one(n)
            for _ in range(rng.randint(1, 8)):
                unit, inverse = rng.choice(base)
                u, expected = u * unit, expected * inverse
            assert invert(u) == expected, (n, u)


@st.composite
def element_pairs(draw):
    n = draw(st.integers(2, 15))
    coeffs = st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1)
    return SElement(n, draw(coeffs)), SElement(n, draw(coeffs))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(element_pairs())
def test_norm_is_multiplicative(pair):
    a, b = pair
    assert norm(a * b) == norm(a) * norm(b)


def fixed_unit_test_cases(rng, n, tau):
    """Seeded tau-fixed elements, units and not: random orbit sums, the fixed-unit
    generators with their negatives and products, and those plus 1 or 2."""
    generators = fixed_unit_generators(n, tau.r)
    units = generators + [-u for u in generators]
    units += [rng.choice(units) * rng.choice(units) for _ in range(3)]
    cases = [random_fixed_s(rng, n, tau, span) for span in (1, 1, 2, 9)]
    return cases + units + [u + c for u in units for c in (1, 2)]


@pytest.mark.parametrize("n", range(2, 16))
def test_is_unit_with_tau_agrees_with_the_linear_solve(n):
    rng = random.Random(n)
    for r in range(1, n):
        if gcd(r, n) == 1:
            tau = TauData(n, r)
            for s in fixed_unit_test_cases(rng, n, tau):
                assert is_unit(s, tau) == (solve_inverse(s) is not None), (n, r, s)


def test_is_unit_with_tau_refuses_an_element_tau_does_not_fix():
    rng = random.Random(12)
    assert is_unit(SElement.rho_power(7, 1))
    with pytest.raises(ValueError):
        is_unit(SElement.rho_power(7, 1), TauData(7, 6))
    for n in (5, 12, 21):
        for r in range(2, n):
            if gcd(r, n) == 1:
                s = SElement(n, [rng.randint(-3, 3) for _ in range(n - 1)])
                while tau_apply_s(s, TauData(n, r)) == s:
                    s = SElement(n, [rng.randint(-3, 3) for _ in range(n - 1)])
                with pytest.raises(ValueError):
                    is_unit(s, TauData(n, r))
    assert is_unit(SElement.constant(12, -1), TauData(12, 5))


def crt_constant(primes, signs):
    """The symmetric residue x modulo the product of primes with x = signs[k] mod primes[k]."""
    modulus = functools.reduce(lambda a, b: a * b, primes)
    x = sum(sign * (modulus // p) * pow(modulus // p, -1, p) for p, sign in zip(primes, signs))
    x %= modulus
    return x - modulus if 2 * x > modulus else x


def levels_by_one_bytearray_walk(n, r):
    """_levels as it walked j -> j*r itself, over 1 ... n-1 with one bytearray; the reference.

    Tuples all the way down, as _levels keeps them.
    """
    levels = {}
    seen = bytearray(n)
    for j in range(1, n):
        if seen[j]:
            continue
        size, k = 0, j
        while not seen[k]:
            seen[k] = 1
            size += 1
            k = k * r % n
        d = n // gcd(j, n)
        levels.setdefault(d, (d, size, []))[2].append(j)
    levels = sorted(levels.values(), key=lambda level: (len(level[2]), level[0]))
    return tuple((d, size, tuple(roots)) for d, size, roots in levels)


def test_levels_agree_with_one_bytearray_walk():
    pairs = [(n, r) for n in range(2, 80) for r in range(1, n) if gcd(r, n) == 1]
    assert len(pairs) > 1900
    for n, r in pairs:
        assert _levels(n, r) == levels_by_one_bytearray_walk(n, r), (n, r)


@st.composite
def coprime_pairs(draw, top=60):
    n = draw(st.integers(2, top))
    return n, draw(st.sampled_from([r for r in range(1, n) if gcd(r, n) == 1]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(coprime_pairs())
def test_levels_are_kept_per_pair_as_tuples(pair):
    n, r = pair
    _levels.cache_clear()
    cold = _levels(n, r)
    assert cold == levels_by_one_bytearray_walk(n, r), (n, r)
    # a hit returns the kept object, which no caller can change
    assert _levels(n, r) is cold
    assert type(cold) is tuple
    assert all(type(level) is tuple and type(level[2]) is tuple for level in cold)


def test_a_cold_levels_cache_gives_what_a_warm_one_does():
    pairs = [(12, 5), (21, 4), (33, 32), (7, 1)]
    warm = [_levels(n, r) for n, r in pairs]
    _levels.cache_clear()
    cold = [_levels(n, r) for n, r in pairs]
    assert cold == warm
    # the four pairs, and only they, are kept: asking again is a hit on each
    assert _levels.cache_info().currsize == 4
    assert [_levels(n, r) for n, r in pairs] == cold
    assert _levels.cache_info().hits == 4


def test_a_sweep_keeps_at_most_the_cache_bound():
    # a long-lived process that sweeps pairs keeps a bounded set, the latest ones
    assert quotient._CACHE_SIZE >= 64
    pairs = [(n, r) for n in range(2, 200) for r in range(1, n) if gcd(r, n) == 1][:2000]
    assert len(pairs) == 2000
    for n, r in pairs:
        _levels(n, r)
        quotient._prime_table(n)
    assert _levels.cache_info().currsize == quotient._CACHE_SIZE
    assert quotient._prime_table.cache_info().currsize <= quotient._CACHE_SIZE
    # a hit returns the kept object; an evicted pair is rebuilt equal
    n, r = pairs[-1]
    assert _levels(n, r) is _levels(n, r)
    assert quotient._prime_table(n) is quotient._prime_table(n)
    n, r = pairs[0]
    assert _levels(n, r) == levels_by_one_bytearray_walk(n, r)
    assert _levels.cache_info().currsize == quotient._CACHE_SIZE


def test_an_evicted_prime_table_is_rebuilt_with_the_same_primes():
    first = [quotient._prime(97, k) for k in range(3)]
    quotient._prime_table.cache_clear()
    assert [quotient._prime(97, k) for k in range(3)] == first


def tau_fixed_by_image(g, tau):
    """GroupRingElement.is_tau_fixed as it built the image and compared; the reference."""
    return g.tau_apply(tau) == g


@st.composite
def elements_and_tau(draw):
    n, r = draw(coprime_pairs())
    tau = TauData(n, r)
    s = SElement(n, draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1)))
    if draw(st.booleans()):
        # fixed, with coefficients that grow with the order of r
        s = tau_symmetrize(SElement(n, [draw(st.integers(-1, 1)) for _ in range(n - 1)]), tau)
    return s, tau


@settings(max_examples=300, deadline=None, derandomize=True)
@given(elements_and_tau())
def test_the_fixedness_test_reads_the_coefficients_alone(case):
    s, tau = case
    fixed = tau_apply_s(s, tau) == s
    assert _is_fixed(s.coeffs + (0,), tau.r) == fixed
    assert lift(s).is_tau_fixed(tau) == tau_fixed_by_image(lift(s), tau) == fixed
    g = lift(s) + GroupRingElement.sigma_power(s.n, 1)
    assert g.is_tau_fixed(tau) == tau_fixed_by_image(g, tau) == _is_fixed(g.coeffs, tau.r)
    if fixed:
        assert is_unit(s, tau) == is_unit(s)
    else:
        with pytest.raises(ValueError) as caught:
            is_unit(s, tau)
        assert str(caught.value) == f"{s!r} is not fixed by rho -> rho^{tau.r}"


def test_is_unit_refuses_a_tau_of_another_order():
    with pytest.raises(OrderMismatchError):
        is_unit(SElement.one(5), TauData(7, 1))
    with pytest.raises(OrderMismatchError):
        GroupRingElement.one(5).is_tau_fixed(TauData(7, 1))


@pytest.mark.parametrize("n, r", [(2, 1), (3, 2), (5, 2), (7, 3), (9, 2), (13, 2)])
def test_is_unit_needs_one_sign_per_level_at_every_prime(n, r):
    # a constant c = +-1 modulo each of the primes its own bound calls for, with both
    # signs among them: every P_d = c^(c_d) is +-1 at each prime, and a level with odd
    # c_d is +1 at some and -1 at others, so c is not a unit
    tau, levels = TauData(n, r), _levels(n, r)
    assert any(len(roots) % 2 for _, _, roots in levels)
    decided = 0
    for count in (2, 3):
        primes = [_prime(n, k)[0] for k in range(count)]
        for signs in itertools.product((1, -1), repeat=count):
            c = crt_constant(primes, signs)
            if len(set(signs)) == 1 or _prime_count(n, levels, (n - 1) * c * c) != count:
                continue
            decided += 1
            s = SElement.constant(n, c)
            for p, residues in _level_residues(s, levels):
                assert all(residue in (1, p - 1) for residue in residues), (n, r, c, p)
            assert not is_unit(s, tau) and not is_unit(s), (n, r, c)
            assert solve_inverse(s) is None
    assert decided >= 2, (n, r)


def test_unit_test_of_a_report_stays_small():
    # (211, 14): each kernel prime keeps n root powers, and the levels of <14> need
    # one root per orbit, so the report and its unit tests stay within a few MiB
    tracemalloc.start()
    try:
        report = coverage_subgroup(211, 14)
        problems = verify_report(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert problems == [] and len(report.generators) > 1
    assert peak < 8 * 2**20, peak
