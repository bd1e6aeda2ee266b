"""Symmetry-reduced sum-of-squares certificates over exact rationals."""

from .certificates import (BitSizeReport, SosCertificate, VerificationOutcome,
                           bit_size, order_unit_certificate, parse_certificate,
                           serialize_certificate, verify)
from .errors import (DimensionMismatch, InvalidDomain, InvalidInstance,
                     InvalidSystem, InvalidWitness, ParseError,
                     ReconstructionError, ResourceLimit, SymsosError)
from .groebner import (DivisionResult, GroebnerBasis, boolean_basis, divide,
                       finite_domain_basis, reconstruct_proof, reduce_polynomial)
from .linalg import PsdOutcome, psd_certificate
from .pipeline import (PipelineResult, ProblemInstance, Pseudoexpectation,
                       VariableCountReport, check_pseudoexpectation,
                       find_pseudoexpectation, point_pseudoexpectation,
                       prove_invariant, refute_invariant_system,
                       variable_count_report)
from .poly import Monomial, MonomialBasis, Polynomial, coefficient_norm
from .problem import ProblemFile, parse_polynomial, parse_problem, serialize_problem
from .sdp import (FeasibilitySystem, RationalizeOutcome, SolveOutcome,
                  combination, rationalize, simplest_in_interval,
                  solve_feasibility)
from .symmetry import (GramMatrix, GroupSpec, OrbitTable, canonical_monomial,
                       enumerate_monomial_orbits, enumerate_pair_orbits,
                       is_invariant, is_invariant_system, monomial_orbit_size,
                       orbit_indicator_matrices, reynolds_gram,
                       reynolds_polynomial)

__version__ = "0.1.0"
