"""Exact finite duality between ordered spaces and function algebras.

Finite quasi-orders stand in for compact ordered spaces; their monotone
cones inside the algebra of rational-valued functions play the role of
the function-theoretic side.  Everything is decided in exact rational
arithmetic: envelopes, proximities, ordered spectra, the constructive
approximation and interpolation procedures, and the positive-cone
functors, each with machine-checkable certificates.
"""

from .approx import (DieudonneTrace, FamilyMember, SWCertificate, SWGrid,
                     dieudonne_claim, dieudonne_sequence, sw_approximate)
from .errors import (AntisymmetryViolation, CarrierMismatch, EmptyCarrier,
                     NoApproximantWithinTolerance, NonPositiveEpsilon,
                     NotAMorphism, NotBlockConstant, NotInSkeleton,
                     NotMonotone, NotRepresentable, OrdalgError,
                     TooLargeToEnumerate, UnknownElement)
from .fnalg import (RationalFn, SubalgebraPartition, as_fraction,
                    check_carrier, generate_closed_subalgebra)
from .order import (FinitePoset, QuasiOrder, antichain, antisymmetrize,
                    chain, complete_quasi_order, enumerate_monotone_maps,
                    enumerate_posets, is_monotone, linear_extension,
                    monotone_envelope, posets_up_to, random_poset,
                    require_monotone)
from .proximity import (ProximityOracle, check_axioms, combined_order,
                        is_nachbin, positive_below, prox_decide,
                        separation_point)
from .rng import DEFAULT_SEED, child_seed, rng_for
from .sbal import (AxiomReport, AxiomResult, EnvelopePair, SbalSkeleton,
                   archimedean_premise, check_skeleton_axioms,
                   concrete_envelope, difference_decompose, envelope_umt)
from .sbal_plus import PQRoundtripReport, q_contains, q_decompose, roundtrip_pq
from .spectrum import (AdjunctionReport, EtaReport, MaxIdeal, OrderedSpectrum,
                       PhiReport, canonical_witness, dual_morphism,
                       enumerate_adjunction, eta, induced_order, phi,
                       phi_respects_proximity, point_ideal, recover_point_map,
                       spectrum)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
