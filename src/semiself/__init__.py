"""Toolkit for semi-selfdecomposable laws: triplets, the span-b mapping,
discrete Ornstein-Uhlenbeck type processes and nested class membership."""

from .errors import (DomainError, InvalidTripletError, SemiselfError,
                     ToleranceError, UnsupportedComponentError)
from .mapping import (FactorizationReport, InverseFactor,
                      SpanMembershipCertificate, factorization_check,
                      forward_cumulant, forward_triplet, inverse_factor,
                      is_semi_selfdecomposable)
from .measures import Atoms, LevyMeasure, ScaleLattice, Segment, log_moment
from .nested import (NestedCertificate, SemiStableCertificate, SemiStableSpec,
                     is_nested_member, is_semi_stable,
                     iterated_forward_triplet, semi_stable_triplet)
from .ou import (OUConfig, PathBundle, limit_cumulant, sample_limit_law,
                 solve_path, transition_cumulant, validate_limit,
                 verify_langevin)
from .sampling import EmpiricalCF, SampleBatch, Sampler, ecf, sample
from .specio import SpecError, load_triplet, spec_hash, triplet_from_dict, \
    triplet_to_dict
from .suites import run_suite
from .triplets import (CumulantGrid, LevyTriplet, compound_poisson, cumulant,
                       cumulant_at, gaussian, poisson_unit, require_valid,
                       validate)

__all__ = [
    "Atoms", "CumulantGrid", "DomainError", "EmpiricalCF",
    "FactorizationReport", "InvalidTripletError", "InverseFactor",
    "LevyMeasure", "LevyTriplet", "NestedCertificate", "OUConfig",
    "PathBundle", "SampleBatch", "Sampler", "ScaleLattice", "Segment",
    "SemiStableCertificate", "SemiStableSpec", "SemiselfError",
    "SpanMembershipCertificate", "SpecError", "ToleranceError",
    "UnsupportedComponentError", "compound_poisson", "cumulant",
    "cumulant_at", "ecf", "factorization_check", "forward_cumulant",
    "forward_triplet", "gaussian", "inverse_factor", "is_nested_member",
    "is_semi_selfdecomposable", "is_semi_stable", "iterated_forward_triplet",
    "limit_cumulant", "load_triplet", "log_moment", "poisson_unit",
    "require_valid", "run_suite", "sample", "sample_limit_law",
    "semi_stable_triplet", "solve_path", "spec_hash", "transition_cumulant",
    "triplet_from_dict", "triplet_to_dict", "validate", "validate_limit",
    "verify_langevin",
]

__version__ = "0.1.0"
