"""Spectral analysis of affine self-similar measures.

The package walks the full pipeline: validate a scaling system (R, B, L),
evaluate the measure's Fourier transform by truncated products with tail
bounds, enumerate candidate spectra and certify orthogonality/completeness of
the exponential family, run the transfer operator with its contractivity
constants, and compute the attractor geometry exactly.
"""

from .system import (AffineSystem, ScalingMatrix, ValidationReport, chi_B, chi_B_batch,
                     chi_B_sq, chi_B_sq_grad, eiffel_system, get_system, hadamard_matrix,
                     load_system_file, make_system, map_omega, map_rho, map_sigma, map_tau,
                     planar_collapse_system, system_from_json, system_to_json,
                     two_digit_system, unitarity_defect, validate_system)
from .measure import (ConvolvedMeasure, FourierEvaluation, SelfSimilarMeasure,
                      ZeroSetPredicate, growth_bound_check, moments,
                      mu2_closed_form, transform_profile, write_transform_csv)
from .spectrum import (CompletenessReport, GramReport, Q1Profile, SpectrumEnumeration,
                       completeness_test, digits_of, enumerate_P, gram_matrix,
                       hardy_embedding, max_orthogonal_family, projection_norm_checks,
                       q1_depth, q1_profile, reconstruct, uniform_discreteness)
from .transfer import (ContractivityReport, FixedPointResult, GridFunction,
                       TransferOperator, apply_C, beta_constant, gamma_1d,
                       gamma_eiffel, gamma_supnorm, grad_norm, grid_frame,
                       iterate_fixed_point, lebesgue_Q)
from .geometry import (AttractorSample, Chart, Polytope, attractor_points, convex_hull,
                       dual_hull, hausdorff_dimension, hull_diameter, hull_volume,
                       invariance_check, polytope_to_json, simplex_Y, support_hull,
                       word_images)

__version__ = "0.1.0"
