"""Exact modular data of quantum-group fusion categories at roots of unity,
with a type-A Macdonald polynomial engine and identity-verification suites.
"""

from .lie import (RootSystemData, Weight, build_root_system, form,
                  lattice_index, pairing)
from .numeric import (CycNum, PoleAtEpsilonError, QRatFn, approx_eq,
                      default_tolerance, epsilon_power, q_number, sqrt_of_int)
from .weyl import (AffineFoldResult, enumerate_alcove, fold_to_alcove,
                   make_dominant, star, star_positions, weyl_orbit)
from .chardata import (char_value, quantum_dim,
                       vanishing_criterion, weight_multiplicities,
                       weyl_denominator_value, weyl_dimension)
from .modular import (ModularData, build_modular_data, s_entry_extended,
                      twist, verify_modular_relations)
from .fusion import (FusionConsistencyError, FusionTable, build_fusion_table,
                     classical_tensor, fusion_coefficients,
                     verify_fusion, verify_grothendieck)
from .macdonald import (MacdonaldContext, SUData, WPoly, build_context,
                        build_su_data, delta_k_product, dominance_leq,
                        inner_product_k, macdonald_norm,
                        macdonald_polynomial, monomial_sum, norm_formula,
                        verify_generic_macdonald, verify_section5)
from .report import CheckResult, VerificationReport

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
