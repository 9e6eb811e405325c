"""Constructive finite free resolutions over finitely presented algebras.

Exact Groebner-based decision procedures: depth via Kronecker sequences,
determinantal/Fitting/characteristic ideals, exactness certification of
free complexes, Cayley determinants and MacRae invariants, Hilbert-Burch,
and Taylor resolutions of monomial ideals.

The names below are imported from their layer on first access (PEP 562),
so `import ffr` loads no layer and each `ffr` subcommand loads only the
layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_LAYER_NAMES = {  # layer module -> the names the package exports from it
    "ring": ("CoefField", "FFRError", "ParseError", "Poly", "PolyRing", "QQ",
             "RingMismatchError", "VerificationError", "content_ideal",
             "kronecker_poly", "parse_poly"),
    "groebner": ("GroebnerBasis", "IdealGens", "ideal_colon",
                 "krull_dimension", "module_membership", "radical_membership",
                 "saturation", "syzygy_module"),
    "algebra": ("AIdeal", "AModule", "FPAlgebra", "annihilator",
                "ideal_times_module_is_module", "is_faithful_ideal",
                "is_regular_element", "is_trivial", "module_colon_element"),
    "depth": ("DepthCertificate", "KroneckerSequence", "depth_at_least",
              "depth_dim_identity", "depth_value", "is_completely_secant",
              "is_E_regular_sequence", "is_singular_sequence",
              "kronecker_sequence", "triangular_regularization",
              "wiebe_check", "INFINITY"),
    "exterior": ("MultiVector", "are_proportional", "decomposable",
                 "hodge_right", "interior_right", "pairing", "subsets_colex",
                 "sylvester_plucker", "wedge"),
    "complexes": ("ExactnessReport", "FreeComplex", "RingMatrix",
                  "certify_exact", "characteristic_ideal",
                  "characteristic_ideals", "determinantal_ideal",
                  "elementary_modification", "euler_characteristic",
                  "fitting_ideal", "is_stable_rank", "koszul_complex",
                  "mccoy_injective", "pfaffian_data", "stable_rank_at_least"),
    "cayley": ("CayleyData", "MacRaeCertificate", "StrongGcd",
               "cayley_determinant", "cayley_factorize", "hilbert_burch",
               "is_cayley_complex", "macrae_invariant",
               "resultant_via_cayley", "strong_gcd", "sylvester_complex"),
    "monomial": ("MonomialList", "TaylorComplex", "homotopy_identity_check",
                 "is_taylor_minimal", "monomial_syzygies", "taylor_complex",
                 "taylor_homotopy"),
}
_LAYER_OF = {name: layer for layer, names in _LAYER_NAMES.items()
             for name in names}
__all__ = list(_LAYER_OF)


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
