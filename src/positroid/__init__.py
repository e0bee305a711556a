"""Exact-arithmetic combinatorics and commutative algebra of global
positroid varieties."""

from .patterns import (AnchorSet, JugglingPattern, KSubset, PatternError,
                       components_of_special_fiber, enumerate_patterns,
                       parse_pattern, pattern_from_anchor, rotate)
from .poly import Monomial, Polynomial
from .groebner import GroebnerBasis, Ideal, buchberger
from .hilbert import graded_component_dim
from .ideals import (classical_plucker_generators, global_positroid_ideal,
                     pattern_free_generators, schubert_vanishing_generators,
                     transport)
from .fibers import (FiberPoint, Subspace, in_classical_positroid,
                     in_opposite_schubert, in_positroid_fiber,
                     is_subrepresentation, k1_point, plucker_vector,
                     project_and_check, torus_fixed_point)
from .k1basis import (NormalForm, ZeroInQuotient, count_admissible,
                      enumerate_admissible, is_admissible,
                      rewrite_to_normal_form, verify_basis)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
