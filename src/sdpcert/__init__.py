"""Exact arithmetic for cyclic crossed products and their birational-map certificates.

The package computes, for a cyclic group of order n with a conjugation action
sigma -> sigma^r, the tau-fixed units of Z[rho]/(1 + rho + ... + rho^(n-1)),
the subgroup of (Z/nZ)* their residues cover, and symbolic certificates whose
exact identities realize birational maps between the Severi-Brauer varieties
of a crossed-product algebra and its tensor powers. Concrete field-tower and
crossed-product models validate the underlying identities with no floating
point anywhere.

Every public name below is imported from its module on first use, so
`import sdpcert` loads no submodule and each command loads only the modules
it runs.
"""

import importlib

# module -> the public names it exports; sdpcert.norm is tower.norm
_MODULE_EXPORTS = {
    "checks": ("CheckResult", "all_passed"),
    "coverage": (
        "CoverageReport", "SearchSpaceTooLargeError", "coverage_subgroup",
        "exhaustive_fixed_units", "fixed_unit_generators", "reduce_to_cyclic",
        "subgroup_closure", "tau_symmetrize", "unit_witness",
    ),
    "crossed": (
        "CrossedProduct", "LeftIdeal", "SplittingChain", "chain_from_ideal",
        "chain_from_unit", "cocycle_condition_holds", "ideal_from_chain",
        "is_splitting_chain", "norm_element_check", "random_cyclic_instance",
        "standard_cyclic_cocycle", "tau_action_check", "tensor_power_check",
    ),
    "group_ring": (
        "GroupRingElement", "OrderMismatchError", "TauData", "full_norm",
        "partial_norm",
    ),
    "monomial": (
        "Certificate", "ExponentMismatchError", "NormSetMap", "NotCoveredError",
        "VerificationRecord", "compose", "is_identity", "make_certificate",
        "monomial_map", "shift_map", "tau_conjugate", "verify_certificate",
    ),
    "quotient": (
        "NotInvertibleError", "SElement", "eps_bar", "invert", "is_unit", "lift",
        "reduce", "tau_apply_s",
    ),
    "tower": (
        "FiniteTower", "NormSetPoint", "NumberTower", "apply_monomial",
        "apply_monomial_point", "builtin_s3", "dump_tower",
        "load_tower", "make_norm_point", "norm", "phi_k_apply", "radical_tower",
        "tau_hat",
    ),
}

_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """Import a public name's module on first access and keep the name here (PEP 562)."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
