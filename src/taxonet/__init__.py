"""Consensus microbial association networks from taxa-abundance tables.

Runs up to ten association-inference methods on one count table, binarizes
each result, and sums the votes into a weighted consensus network with
thresholding, sweep, distance, export, and rendering utilities.
"""

from .cclasso import CclassoParams, CclassoResult, cclasso_fit, cclasso_solve
from .cmi import CmimnParams, CmimnResult, cmimn_fit, conditional_mi, gaussian_mi
from .config import PipelineConfig, build_config, load_config, parse_rule
from .consensus import (
    BinarizationRule,
    EdgeRecord,
    SweepRow,
    WeightedConsensus,
    binarize,
    build_consensus,
    edge_records,
    hamming_distance,
    hamming_matrix,
    threshold_network,
    threshold_sweep,
)
from .correlation import (
    CorrelationMatrix,
    correlation_matrix,
    kendall_matrix,
    latent_correlation,
    nearest_psd_correlation,
    tau_bridge,
)
from .data import (
    CompositionTable,
    CountTable,
    TransformedTable,
    clr_transform,
    filter_taxa,
    load_count_table,
    log_transform,
    mclr_transform,
    to_composition,
    write_count_table,
)
from .errors import (
    ConfigError,
    ConsensusError,
    EstimatorError,
    ExportError,
    FilterError,
    LoadError,
    PathError,
    RenderError,
    RuleError,
    SelectionError,
    SolverError,
    TaxonetError,
    ThresholdError,
    TransformError,
)
from .estimators import (
    GcodaParams,
    SpieceasiParams,
    SpringParams,
    gcoda_fit,
    spieceasi_fit,
    spring_fit,
)
from .exports import export_graph, import_edgelist_tsv
from .methods import (
    METHOD_ORDER,
    CorrelationParams,
    default_params,
    default_rule,
    method_seed,
    run_method,
)
from .network import BinaryNetwork, MethodResult, network_from_mask
from .pipeline import PipelineRun, load_consensus, run_pipeline
from .render import fr_layout, render_hamming_heatmap, render_network_svg, render_threshold_panel
from .selection import (
    EbicResult,
    LambdaPath,
    StarsParams,
    StarsResult,
    ebic_score,
    ebic_select,
    lambda_path,
    stars_select,
)
from .solvers import graphical_lasso
from .sparcc import SparccParams, log_ratio_variance, sparcc_fit

__version__ = "0.1.0"
