"""Formal calculus of monomial maps between norm sets, shift maps, and certificates."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

from ._element import _Immutable
from .checks import CheckResult, all_passed
from .group_ring import GroupRingElement, TauData
from .quotient import SElement, _fixed_and_unit, lift, reduce


class ExponentMismatchError(ValueError):
    """Raised when norm-set maps are chained across mismatched exponents."""


class NotCoveredError(LookupError):
    """Raised when no tau-fixed unit reaching the requested residue was found."""


class NormSetMap(_Immutable):
    """The map x -> P(x) * b^shift from [N = b^i] to [N = b^(i*eps(P) + n*shift)].

    Stored in canonical form: the coefficient of sigma^(n-1) in the monomial
    part is removed by absorbing a multiple of the norm element into the
    shift (the norm element acts on [N = b^i] as multiplication by b^i).
    Canonical forms of equal maps are identical, so == decides map equality.
    """

    __slots__ = ("n", "monomial", "shift", "source_exp")

    def __new__(cls, monomial, shift, source_exp):
        top = monomial.coeffs[-1]
        if top:
            # monomial - top * N, where N has every coefficient 1
            monomial = GroupRingElement._new(monomial.n, tuple(c - top for c in monomial.coeffs))
            shift = shift + source_exp * top
        return cls._new(monomial.n, monomial, operator.index(shift), operator.index(source_exp))

    @property
    def target_exp(self):
        return self.source_exp * self.monomial.augmentation() + self.n * self.shift

    def __eq__(self, other):
        return (
            isinstance(other, NormSetMap)
            and self.n == other.n
            and self.monomial == other.monomial
            and self.shift == other.shift
            and self.source_exp == other.source_exp
        )

    def __hash__(self):
        return hash((self.n, self.monomial, self.shift, self.source_exp))

    def __repr__(self):
        return (
            f"NormSetMap(monomial={self.monomial.coeffs}, shift={self.shift}, "
            f"source_exp={self.source_exp})"
        )


def monomial_map(element, source_exp):
    """The norm-set map induced by a group-ring element, with no shift."""
    return NormSetMap(element, 0, source_exp)


def shift_map(n, k, source_exp):
    """The map x -> x * b^k from [N = b^i] to [N = b^(i + n*k)]."""
    return NormSetMap(GroupRingElement.one(n), k, source_exp)


def compose(f, g):
    """The composite f after g, in canonical form.

    Normalization moves the shift of g past the monomial of f: a shift by k
    commutes with a monomial P at the cost of multiplying k by eps(P).
    """
    f.monomial._require_same_order(g.monomial)
    if f.source_exp != g.target_exp:
        raise ExponentMismatchError(
            f"cannot chain: source exponent {f.source_exp} != target exponent {g.target_exp}"
        )
    monomial = f.monomial * g.monomial
    shift = f.shift + g.shift * f.monomial.augmentation()
    return NormSetMap(monomial, shift, g.source_exp)


def tau_conjugate(mp, tau):
    """Conjugation by tau: the monomial part maps through sigma -> sigma^r."""
    return NormSetMap(mp.monomial.tau_apply(tau), mp.shift, mp.source_exp)


def is_identity(mp):
    return mp.monomial == GroupRingElement.one(mp.n) and mp.shift == 0


@dataclass(frozen=True)
class Certificate:
    """Witness data for the birational map from [N = b] to [N = b^l].

    alpha_tilde and beta_tilde are tau-fixed group-ring lifts of mutually
    inverse units of S; k and s record the augmentation bookkeeping
    eps(alpha_tilde) = l + k*n and eps(beta_tilde)*l = 1 + n*s.
    """

    n: int
    r: int
    l: int
    alpha_tilde: GroupRingElement
    k: int
    beta_tilde: GroupRingElement
    s: int


def make_certificate(n, r, l):
    """Build a certificate for residue l from a single cyclotomic-unit witness.

    The unit alpha with eps_bar(alpha) = l mod n and its inverse beta in S
    are the pair unit_witness returns, which covers exactly the residues
    coverage_subgroup reports and has alpha * beta = 1 checked exactly. Both
    are lifted canonically (the canonical lift of a tau-fixed element is
    tau-fixed). Importing coverage here keeps it out of certificate checking.
    """
    from .coverage import unit_witness

    if gcd(l, n) != 1:
        raise ValueError(f"l must be coprime to n: gcd({l}, {n}) != 1")
    pair = unit_witness(n, r, l)
    if pair is None:
        raise NotCoveredError(
            f"residue {l % n} is not covered by the fixed-unit generators for (n={n}, r={r})"
        )
    alpha_tilde, beta_tilde = (lift(x) for x in pair)
    k, k_rem = divmod(alpha_tilde.augmentation() - l, n)
    s, s_rem = divmod(beta_tilde.augmentation() * l - 1, n)
    if k_rem or s_rem:
        raise RuntimeError("augmentation bookkeeping failed; witness residue is wrong")
    return Certificate(n=n, r=r, l=l, alpha_tilde=alpha_tilde, k=k, beta_tilde=beta_tilde, s=s)


@dataclass(frozen=True)
class VerificationRecord:
    checks: tuple

    @property
    def passed(self):
        return all_passed(self.checks)

    def named(self, name):
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)


def verify_certificate(cert):
    """Recompute every certificate identity exactly; a failed identity is recorded, not raised.

    A certificate that cannot be read raises instead: an r outside [1, n - 1]
    or sharing a factor with n raises ValueError (from TauData), and a lift
    whose group order is not n raises group_ring.OrderMismatchError, itself
    a ValueError.
    """
    tau = TauData(cert.n, cert.r)
    n = cert.n
    alpha_fixed, alpha_unit = _fixed_and_unit(reduce(cert.alpha_tilde), tau)
    beta_fixed, beta_unit = _fixed_and_unit(reduce(cert.beta_tilde), tau)
    checks = [
        CheckResult("alpha-tau-fixed", alpha_fixed),
        CheckResult("beta-tau-fixed", beta_fixed),
        CheckResult("alpha-unit", alpha_unit),
        CheckResult("beta-unit", beta_unit),
    ]
    # reduce is a ring homomorphism with kernel Z*N, so reduce(alpha)*reduce(beta)
    # is reduce(beta*alpha): one product decides both checks below
    product = cert.beta_tilde * cert.alpha_tilde
    checks.append(
        CheckResult(
            "mutually-inverse",
            reduce(product) == SElement.one(n),
            "reduce(alpha)*reduce(beta) must be 1 in S",
        )
    )

    deviation = product - GroupRingElement.one(n)
    levels = set(deviation.coeffs)
    if len(levels) == 1:
        r_prime = levels.pop()
        checks.append(
            CheckResult("product-is-one-plus-rN", True, f"beta*alpha = 1 + {r_prime}*N")
        )
    else:
        r_prime = None
        checks.append(
            CheckResult("product-is-one-plus-rN", False, "beta*alpha - 1 is not a multiple of N")
        )

    eps_alpha = cert.alpha_tilde.augmentation()
    eps_beta = cert.beta_tilde.augmentation()
    checks.append(
        CheckResult(
            "augmentation-alpha",
            eps_alpha == cert.l + cert.k * n,
            f"eps(alpha)={eps_alpha}, l + k*n = {cert.l + cert.k * n}",
        )
    )
    checks.append(
        CheckResult(
            "augmentation-beta",
            eps_beta * cert.l == 1 + n * cert.s,
            f"eps(beta)*l={eps_beta * cert.l}, 1 + n*s = {1 + n * cert.s}",
        )
    )

    # phi_{-s} o beta o phi_{-k} o alpha, chained from source exponent 1
    alpha_map = monomial_map(cert.alpha_tilde, 1)
    step = compose(shift_map(n, -cert.k, alpha_map.target_exp), alpha_map)
    step = compose(monomial_map(cert.beta_tilde, step.target_exp), step)
    composite = compose(shift_map(n, -cert.s, step.target_exp), step)
    checks.append(
        CheckResult(
            "composite-is-identity",
            is_identity(composite) and composite.target_exp == 1,
            f"canonical composite: monomial={composite.monomial.coeffs}, shift={composite.shift}",
        )
    )

    if r_prime is None:
        checks.append(
            CheckResult("exponent-identity", False, "no r' available: product check failed")
        )
    else:
        value = r_prime - cert.s - eps_beta * cert.k
        checks.append(
            CheckResult(
                "exponent-identity",
                value == 0,
                f"r' - s - eps(beta)*k = {value}",
            )
        )
    return VerificationRecord(tuple(checks))
