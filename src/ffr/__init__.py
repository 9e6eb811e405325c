"""Constructive finite free resolutions over finitely presented algebras.

Exact Groebner-based decision procedures: depth via Kronecker sequences,
determinantal/Fitting/characteristic ideals, exactness certification of
free complexes, Cayley determinants and MacRae invariants, Hilbert-Burch,
and Taylor resolutions of monomial ideals.
"""

__version__ = "0.1.0"

from .ring import (CoefField, FFRError, ParseError, Poly, PolyRing, QQ,
                   RingMismatchError, VerificationError, content_ideal,
                   kronecker_poly, parse_poly)
from .groebner import (GroebnerBasis, IdealGens, ideal_colon,
                       krull_dimension, module_membership, radical_membership,
                       saturation, syzygy_module)
from .algebra import (AIdeal, AModule, FPAlgebra, annihilator,
                      ideal_times_module_is_module, is_faithful_ideal,
                      is_regular_element, is_trivial, module_colon_element)
from .depth import (DepthCertificate, KroneckerSequence, depth_at_least,
                    depth_dim_identity, depth_value, is_completely_secant,
                    is_E_regular_sequence, is_singular_sequence,
                    kronecker_sequence, triangular_regularization,
                    wiebe_check, INFINITY)
from .exterior import (MultiVector, are_proportional, decomposable,
                       hodge_right, interior_right, pairing, subsets_colex,
                       sylvester_plucker, wedge)
from .complexes import (ExactnessReport, FreeComplex, RingMatrix,
                        certify_exact, characteristic_ideal,
                        characteristic_ideals, determinantal_ideal,
                        elementary_modification, euler_characteristic,
                        fitting_ideal, is_stable_rank, koszul_complex,
                        mccoy_injective, pfaffian_data, stable_rank_at_least)
from .cayley import (CayleyData, MacRaeCertificate, StrongGcd,
                     cayley_determinant, cayley_factorize, hilbert_burch,
                     is_cayley_complex, macrae_invariant,
                     resultant_via_cayley, strong_gcd, sylvester_complex)
from .monomial import (MonomialList, TaylorComplex, homotopy_identity_check,
                       is_taylor_minimal, monomial_syzygies, taylor_complex,
                       taylor_homotopy)
