"""Diffusion-geometry active learning (LAND) and unsupervised clustering (LUND).

Build a kNN diffusion graph over high-dimensional points, score candidates
by density times diffusion distance to higher density, query a labeling
oracle within a budget, and propagate labels; plus linkage/CBAL baselines,
evaluation metrics, synthetic generators, and an experiment CLI.
"""

from .baselines import Dendrogram, cbal, cut_purity_curve, land_random, linkage
from .cache import DiffusionCache
from .datagen import gen_bottleneck, gen_gaussians, gen_geometric, gen_hierarchical
from .dataset import (
    DataError,
    HsiCubeHeader,
    PointCloud,
    load_csv,
    load_hsi_cube,
    load_hsi_header,
    load_labels,
    save_csv,
    save_hsi_cube,
    save_hsi_header,
    save_labels,
    validate_labels,
)
from .geometry import (
    DensityEstimate,
    DiffusionEmbedding,
    ModeScores,
    diffusion_embed,
    kde,
    mode_scores,
    nearest_denser_points,
)
from .graph import (
    NeighborLists,
    NumericalError,
    SparseKernelMatrix,
    SpectralDecomposition,
    default_num_eigs,
    default_num_neighbors,
    default_sigma,
    kernel_matrix,
    knn_search,
    spectral_decompose,
    truncate_small_eigenvalues,
)
from .land import (
    ActiveResult,
    BudgetExceededError,
    GroundTruthOracle,
    InteractiveOracle,
    land,
)
from .lund import (
    ClusteringResult,
    SeparationDiagnostics,
    estimate_num_clusters,
    lund,
    lund_k,
    lund_purity_curve,
    propagate_labels,
    separation_diagnostics,
)
from .metrics import (
    accuracy_scores,
    align_labels,
    average_accuracy,
    cohens_kappa,
    overall_accuracy,
    purity,
)
from .pipeline import DiffusionModel, build_model, log_t_grid

__version__ = "0.1.0"
