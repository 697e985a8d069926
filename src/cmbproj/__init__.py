"""Projection-matrix computation between primordial and late-time
bispectrum bases: exact and approximate geometric weights on the sparse
triangular multipole domain, a separable (mu-quadrature) engine and a
direct (triple-sum) engine, with naive oracles, deterministic parallel
sweeps and a validation harness.
"""

from .basis import (BasisTables, ModeMapping, RadialGrid,
                    default_mode_mapping, default_radial_grid,
                    load_mode_mapping, save_mode_mapping, synthesize_basis)
from .engine2d import (build_ptable, default_mu_points, gamma2d_entry_naive,
                       gamma2d_matrix, gamma2d_matrix_naive)
from .engine3d import (gamma3d_matrices, gamma3d_matrix, gamma3d_naive,
                       gamma3d_unordered_reference, late_product_y,
                       radial_integral_x)
from .gamma import GammaMatrix
from .geometry import (TriangularDomain, enumerate_domain,
                       geometric_prefactor, h2_exact, h2_gosper,
                       permutation_multiplicity, theta_indicator)
from .harness import (ComparisonReport, RunConfig, deserialize_gamma,
                      max_rel_deviation, rmse_percent,
                      run_convergence_study, run_crosscheck, run_gamma,
                      serialize_gamma)
from .quadrature import (QuadratureRule, gauss_legendre, integrate_hermite,
                         integrate_spline, integrate_trapezium,
                         integration_weights, legendre_table)
from .scheduler import make_weighted_plan

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
