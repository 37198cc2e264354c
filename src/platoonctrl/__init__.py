"""Heterogeneous decentralised platoon control.

Two constructions around one obstruction: a frequency-scaled family of
mistuned predecessor-following controllers whose amplification bands never
overlap, and a bidirectional design whose closed-loop sensitivity has
length-invariant leading blocks thanks to an exact UL factorization.
"""

from .bidir import (BodeTable, LemmaStructures, RationalMatrix, bode_table,
                    build_structures, invariance_check, invert_bidiagonal,
                    sensitivity_matrix, time_scale, verify_factorization)
from .cascade import (CascadeProfile, GrowthTable, MiddletonResult,
                      MistuneReport, cascade_gain, homogeneous_growth,
                      middleton_integral, pd_mistune_experiment)
from .errors import (BandwidthViolation, DivergentAtOrigin, IllPosed,
                     InvalidRange, NonPositiveGamma, NonPositiveScale,
                     ParseError, PeakExceedsBudget, PlatoonError,
                     PoleAtPoint, SearchExhausted, SingularDiagonal,
                     StabilityCheckFailed, UnstableEntry, ZeroDenominator,
                     ZeroPolynomial)
from .freq import (FrequencyGrid, HinfResult, default_grid, hinf_norm,
                   rf_abs_jomega, rf_log_abs_jomega)
from .parsing import parse_rational
from .poly import Polynomial, hurwitz_stable, poly_gcd
from .ratfun import (RationalFunction, StabilityReport, closed_loop,
                     internal_stability, scale_frequency)
from .synthesis import (Certificate, ControllerFamily, YoulaData, band_grid,
                        candidate_controller, certify_closed_loop,
                        certify_controller, family_from_json, family_grid,
                        family_product_check, family_to_json, lift_order,
                        plant, q1_shape, scaled_family, search_parameters,
                        verify_bandwidth, youla_closed_loop, youla_coprime)

__version__ = "0.1.0"

__all__ = [
    "BandwidthViolation", "BodeTable", "CascadeProfile", "Certificate",
    "ControllerFamily", "DivergentAtOrigin", "FrequencyGrid", "GrowthTable",
    "HinfResult", "IllPosed", "InvalidRange", "LemmaStructures",
    "MiddletonResult", "MistuneReport", "NonPositiveGamma",
    "NonPositiveScale", "ParseError", "PeakExceedsBudget", "PlatoonError",
    "PoleAtPoint", "Polynomial", "RationalFunction", "RationalMatrix",
    "SearchExhausted", "SingularDiagonal", "StabilityCheckFailed",
    "StabilityReport", "UnstableEntry", "YoulaData", "ZeroDenominator",
    "ZeroPolynomial", "band_grid", "bode_table", "build_structures",
    "candidate_controller", "cascade_gain", "certify_closed_loop",
    "certify_controller",
    "closed_loop", "default_grid", "family_from_json", "family_grid",
    "family_product_check", "family_to_json", "hinf_norm",
    "homogeneous_growth", "hurwitz_stable", "internal_stability",
    "invariance_check", "invert_bidiagonal", "lift_order",
    "middleton_integral", "parse_rational", "pd_mistune_experiment",
    "plant", "poly_gcd", "q1_shape", "rf_abs_jomega", "rf_log_abs_jomega",
    "scale_frequency", "scaled_family", "search_parameters",
    "sensitivity_matrix", "time_scale", "verify_bandwidth",
    "verify_factorization", "youla_closed_loop", "youla_coprime",
]
