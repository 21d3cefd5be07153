"""Deterministic primality and trial-division prime factors of small integers."""

import operator

# Miller-Rabin with these bases decides primality for every p below the limit
# (Sorenson and Webster, 2015); the first twelve alone stop at 3.2 * 10^23.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p):
    """Deterministic Miller-Rabin primality test, proven below 3.3 * 10^24."""
    p = operator.index(p)
    if p < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if p % q == 0:
            return p == q
    if p >= _MILLER_RABIN_LIMIT:
        raise ValueError(f"{p} is beyond the range of the deterministic primality test")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _prime_divisors(n):
    """The distinct prime divisors of n, ascending, by trial division."""
    n = operator.index(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out
