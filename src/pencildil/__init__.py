"""Minimal isometric and unitary dilations of contractive linear pencils."""

from .errors import (ContainmentViolation, DimensionMismatch, FactorMismatch,
                     NoConvergence, NotADilation, NotContractive,
                     NotHermitian, NotIsometric, NotPSD, PencilError,
                     ShapeMismatch)
from .factorization import (FejerRieszFactor, GramCoefficients,
                            bauer_factorize, gram_coefficients, outer_roots,
                            outer_surrogate_check)
from .isodil import (BuiltinExample, StructuredIsometricPencil,
                     build_canonical, builtin_example, check_dilation,
                     check_minimality, check_uniform, coefficient_norms)
from .linalg import (SubspaceBasis, numerical_rank, orthocomplement_within,
                     orthonormal_range, projector, psd_sqrt)
from .pencil import (LinearPencil, PencilClass, PencilKind, classify,
                     evaluate, evaluate_all, isometry_defect, unit_circle_grid)
from .reporting import Report
from .unidil import (CoreSubspaces, QPencil, UnitaryDilation, build_q,
                     build_unitary, check_biinner, check_unitarity,
                     core_subspaces, q_identity_defect)
from .verify import (CanonicalChain, DemoName, canonical_chain,
                     classical_slice, demo, equivalence_falsifier,
                     run_pipeline, seeded_corpus)

__version__ = "0.1.0"
