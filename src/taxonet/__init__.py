"""Consensus microbial association networks from taxa-abundance tables.

Runs up to ten association-inference methods on one count table, binarizes
each result, and sums the votes into a weighted consensus network with
thresholding, sweep, distance, export, and rendering utilities.
"""

from .correlation import (
    correlation_matrix,
    latent_correlation,
    nearest_psd_correlation,
    tau_bridge,
)
from .data import (
    CountTable,
    clr_transform,
    filter_taxa,
    load_count_table,
    mclr_transform,
    write_count_table,
)
from .errors import (
    EstimatorError,
    FilterError,
    LoadError,
    PathError,
    SelectionError,
    SolverError,
    TransformError,
)
from .estimators import gcoda_fit, spieceasi_fit, spring_fit
from .selection import LambdaPath, StarsParams, ebic_score, lambda_path, stars_select
from .solvers import graphical_lasso
from .sparcc import SparccParams, sparcc_fit

__version__ = "0.1.0"
