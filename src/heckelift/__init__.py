"""Exact verification of prime-power congruences for torus knot invariants.

Everything is exact: Laurent polynomials in q and a with int exponents and
int coefficients (Fraction only where a value is genuinely rational),
denominators kept as products of quantum brackets {k} = q^k - q^-k,
symmetric group characters, and the change of basis into z^2 = (q - 1/q)^2.
The central check is that the lifting defect of the framed invariant at a
prime p carries the factor (a - 1/a) [p]^2 with integral coefficients.
"""

from importlib import import_module

__version__ = "0.1.0"

# every public name, by the module that defines it; the module is imported
# when one of its names is first read (PEP 562), so `heckelift verify` never
# loads lmov or alexlimit
_EXPORTS = {
    "alexlimit": (
        "HookAlexanderReport", "LimitMembership", "framing_correction",
        "hook_alexander_check", "limit_identity_check", "limit_membership_verdict",
    ),
    "combinatorics": (
        "CharacterTable", "HookShape", "WeightMismatch", "character_table", "chi",
        "conjugate", "hook_shapes", "kappa", "partition_key", "partitions_of", "z_mu",
    ),
    "exactring": (
        "LaurentQA", "NonExactDivision", "NotDivisible", "ResidualFractionalExponent",
        "RingFraction", "abracket", "divide_out_abracket", "exact_div", "qbracket",
    ),
    "hecke": (
        "CongruenceReport", "PreconditionViolated", "defect_cofactor", "defect_sign",
        "divisible_family_check", "is_prime", "lifting_defect",
        "nondivisible_family_check", "verify_hecke",
    ),
    "lmov": (
        "LmovReport", "PSeries", "extract_f", "free_energy", "lmov_verdict",
        "m_inverse", "m_matrix", "partition_function", "reassemble_free_energy",
    ),
    "torus": (
        "FramedUnknot", "TorusKnot", "alexander", "cable_params", "power_sum_invariant",
        "scaled_invariant", "unknot_schur_value",
    ),
    "zbasis": (
        "CongruenceFragment", "NotInSubring", "ZAPoly", "congruence_verdict",
        "divide_by_qnum_sq", "double_root_residual", "qnum_sq_z2", "to_z2",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
