"""Spectral analysis of affine self-similar measures.

The package is the pipeline the command line runs: validate a scaling system
(R, B, L), evaluate the measure's Fourier transform by truncated products
with tail bounds, enumerate the candidate spectrum P(L) and decide
orthogonality and completeness of its exponentials by partial sums, run the
transfer operator with its contractivity constants, and compute the
attractor geometry exactly.  The reference oracles the acceptance criteria
check against (closed forms, exact moments, quadrature, the Lebesgue second
fixed point, the derivative identities) live with the tests.
"""

from .system import (AffineSystem, ScalingMatrix, ValidationReport, chi_B, chi_B_batch,
                     chi_B_sq_grad, eiffel_system, get_system, hadamard_matrix,
                     load_system_file, make_system, planar_collapse_system,
                     system_from_json, system_to_json, two_digit_system,
                     unitarity_defect, validate_system)
from .measure import SelfSimilarMeasure
from .spectrum import (CompletenessReport, GramReport, Q1Profile, SpectrumEnumeration,
                       completeness_test, enumerate_P, gram_matrix, max_orthogonal_family,
                       q1_depth, q1_profile, uniform_discreteness)
from .transfer import (ContractivityReport, FixedPointResult, GridFunction,
                       TransferOperator, apply_C, beta_constant, gamma_1d,
                       gamma_eiffel, gamma_supnorm, grid_frame, iterate_fixed_point)
from .geometry import (AttractorSample, Chart, Polytope, attractor_points, convex_hull,
                       dual_hull, hausdorff_dimension, hull_diameter, hull_volume,
                       invariance_check, simplex_Y)

__version__ = "0.1.0"
