"""Character-network metrics for TV episodes and their correlation with
review scores.

Pipeline: parse per-episode segment graphs (ingest), aggregate them into
weighted episode graphs (graph), compute the 12-column metric suite
(metrics), rank-correlate each metric against review scores (stats), and
render tables, plots, and the manifest (report, cli).
"""

from .errors import CharnetError
from .graph import (
    EpisodeGraph,
    EpisodeKey,
    SegmentGraph,
    add_interaction,
    aggregate_segments,
)
from .ingest import (
    load_dataset,
    parse_ratings_csv,
    parse_segment_file,
    serialize_episode,
)
from .metrics import (
    METRICS,
    EpisodeMetrics,
    MetricsConfig,
    active_nodes,
    compute_episode_metrics,
    connected_components,
    degree_vector,
    density,
    efficiency_metric,
    eigenvector_vector,
    global_efficiency,
    harmonic_vector,
    node_strengths,
    summarize,
    transitivity,
)
from .stats import (
    CorrelationReport,
    CorrelationResult,
    add_permutation_pvalues,
    correlate_all,
    permutation_pvalue,
    rank_with_ties,
    spearman_pvalue,
    spearman_rho,
)

__version__ = "0.1.0"

__all__ = [
    "CharnetError",
    "EpisodeGraph",
    "EpisodeKey",
    "SegmentGraph",
    "add_interaction",
    "aggregate_segments",
    "connected_components",
    "load_dataset",
    "parse_ratings_csv",
    "parse_segment_file",
    "serialize_episode",
    "METRICS",
    "EpisodeMetrics",
    "MetricsConfig",
    "active_nodes",
    "compute_episode_metrics",
    "degree_vector",
    "density",
    "efficiency_metric",
    "eigenvector_vector",
    "global_efficiency",
    "harmonic_vector",
    "node_strengths",
    "summarize",
    "transitivity",
    "CorrelationReport",
    "CorrelationResult",
    "add_permutation_pvalues",
    "correlate_all",
    "permutation_pvalue",
    "rank_with_ties",
    "spearman_pvalue",
    "spearman_rho",
    "__version__",
]
