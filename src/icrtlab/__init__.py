"""Simulation and verification laboratory for continuum random trees built
from jump paths: cadlag step paths with drift, the cyclic-shift transform,
LIFO-queue genealogies, recursive spanning-tree extraction, the glued-segment
(line-breaking) construction, exact weighted-tree combinatorics, and the
degree/distance recovery estimators, plus a statistical verification suite.
"""

from .experiments import EXPERIMENTS, ExperimentReport, run_experiment
from .linebreak import (LineBrokenTree, branch_count_on_path, branch_degree,
                        distance, reduced_tree, rescale, sample_line_breaking)
from .paths import (AmbiguousInfimumError, PathDomainError, StepPath, g_d,
                    infimum_point, record_ancestors, running_min, sigma, tau,
                    vervaat, vervaat_inverse)
from .ptree import PTree, cayley_pmf, enumerate_rooted_trees, shape_census
from .recovery import (EstimateResult, Normalizer, estimate_distance,
                       estimate_local_time, icrt_normalizer,
                       path_distance_estimate, stable_normalizer)
from .rng import make_generator
from .samplers import (sample_marks, sample_ptree, sample_stable_jump_surrogate,
                       sample_X_n, sample_X_theta, sample_Y_n, sample_Y_theta)
from .stats import (chi_square_gof, chi_square_two_sample, ks_two_sample,
                    ks_uniform)
from .theta import (StableConstants, ThetaParam, check_asymptotics,
                    gamma_coverage, parse_theta_spec, psi, psi_inv,
                    stable_constants, stable_phi_integral)
from .trees import (CEMETERY, LabelledTree, MarkedGenealogy, OrderedTree,
                    extract_tree, lifo_tree, serve_projection,
                    spanning_from_marks, spanning_from_projection, to_labelled)

__version__ = "0.1.0"
