"""Spectral clustering of time-evolving graphs.

Builds the spatio-temporal graph Laplacian of a sequence of weighted
adjacency snapshots from transfer operators, solves its eigenproblem, and
clusters the folded eigenvectors jointly across all time views. Includes a
supra-Laplacian baseline, benchmark generators, and a double-gyre
application discretized with Ulam's method.
"""

from .benchmarks import (BenchmarkSpec, gen_benchmark1, gen_benchmark2,
                         gen_line_graph, gen_planted_partition, static_blocks)
from .clustering import (ClusteringResult, Embedding, PipelineResult,
                         adjusted_rand_index, kmeans, score_against,
                         select_spatial, spectral_cluster)
from .errors import (ConvergenceFailure, DegenerateInput, DensityVanished,
                     DirectedInput, GraphFormatError,
                     InsufficientSpatialEigenvectors, StepTooLarge, StglError,
                     UnknownGenerator, ZeroOutDegree, ZeroVariance)
from .graph import TimeEvolvingGraph
from .gyre import (GyreParams, UlamGrid, boundary_columns, gyre_graph,
                   integrate_rk4, ulam_counts, ulam_transition, velocity)
from .io import load_graph, save_graph
from .laplacian import (SpatioTemporalSystem, SpectralEmbedding,
                        assemble_system, eigendecompose, laplacian_spectrum)
from .operators import (OperatorSequence, correlation, covariance_matrices,
                        koopman_apply, propagate_densities,
                        reweighted_pf_apply, row_normalize)
from .supra import SupraSystem, build_supra, supra_cluster, symmetrize
from .walks import escape_rate, occupancy, simulate_walks

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
