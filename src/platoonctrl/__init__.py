"""Heterogeneous decentralised platoon control.

Two constructions around one obstruction: a frequency-scaled family of
mistuned predecessor-following controllers whose amplification bands never
overlap, and a bidirectional design whose closed-loop sensitivity has
length-invariant leading blocks thanks to an exact UL factorization.
"""

from .bidir import BodeTable, bode_table, sensitivity_matrix, verify_factorization
from .cascade import (GrowthTable, MistuneReport, homogeneous_growth, middleton_integral,
                      pd_cascade_peak, pd_mistune_experiment)
from .errors import (BandwidthViolation, DivergentAtOrigin, IllPosed,
                     InvalidRange, NonPositiveGamma, ParseError,
                     PeakExceedsBudget, PlatoonError, PoleAtPoint,
                     SearchExhausted, StabilityCheckFailed, ZeroDenominator,
                     ZeroPolynomial)
from .freq import (FrequencyGrid, HinfResult, LogGrid, default_grid, hinf_norm,
                   log_abs_evaluator)
from .parsing import parse_rational
from .poly import Polynomial, hurwitz_stable, poly_gcd
from .ratfun import RationalFunction, StableLoop, internal_stability, plant, scale_frequency
from .synthesis import (Certificate, ControllerFamily, Design, band_grid,
                        candidate_controller, certify_closed_loop,
                        check_certificate, family_from_json, family_product_check,
                        family_to_json, lift_order, scaled_family,
                        search_parameters, synthesize, youla_closed_loop)

__version__ = "0.1.0"

__all__ = [
    "BandwidthViolation", "BodeTable", "Certificate",
    "ControllerFamily", "Design", "DivergentAtOrigin", "FrequencyGrid",
    "GrowthTable", "HinfResult", "IllPosed", "InvalidRange", "LogGrid",
    "MistuneReport",
    "NonPositiveGamma", "ParseError", "PeakExceedsBudget", "PlatoonError",
    "PoleAtPoint", "Polynomial", "RationalFunction", "StableLoop",
    "SearchExhausted", "StabilityCheckFailed",
    "ZeroDenominator", "ZeroPolynomial", "band_grid", "bode_table",
    "candidate_controller",
    "certify_closed_loop", "check_certificate", "default_grid",
    "family_from_json", "family_product_check", "family_to_json",
    "hinf_norm", "homogeneous_growth", "hurwitz_stable",
    "internal_stability", "lift_order",
    "log_abs_evaluator", "middleton_integral", "parse_rational",
    "pd_cascade_peak", "pd_mistune_experiment", "plant", "poly_gcd", "scale_frequency",
    "scaled_family", "search_parameters", "sensitivity_matrix",
    "synthesize", "verify_factorization", "youla_closed_loop",
]
