"""Geometry-based stochastic channel simulator for massive MIMO with
aura-based multi-user cluster sharing, per-sub-array non-stationarity,
and spherical-wave coefficient synthesis."""

from .clustergen import (
    ClusterGeometry,
    ClusterRow,
    ClusterSet,
    angle_draws,
    angles_from_draws,
    assemble_clusters,
    gen_delays,
    group_powers,
)
from .coefficients import (
    ChannelTensor,
    laplacian_offsets,
    planar_vs_spherical_error,
    synthesize,
)
from .config import RunConfig, load_config, parse_config
from .errors import (
    ChannelModelError,
    ComponentTooLarge,
    ConfigError,
    DegenerateGeometry,
    EmptyArray,
    IncompleteViews,
    InvalidScenario,
    MissingLsp,
    UnknownSegment,
    UnknownUser,
    UnsynchronizedTracks,
)
from .geom import SPEED_OF_LIGHT_M_S
from .grouping import (
    GroupShare,
    OverlapGraph,
    ShareTable,
    build_overlap_graph,
    compute_proportions,
    connected_components,
    normalize_and_count,
    share_table_for_segment,
)
from .layout import (
    ArrayGeometry,
    Aura,
    Segment,
    Track,
    UserLayout,
    build_layout,
    build_segments,
    linear_track,
    partition_subarrays,
    uniform_linear_array,
)
from .lsp import LspDraw, LspValues, ScenarioConfig, draw_lsp
from .metrics import MetricsReport, correlation_metrics
from .pipeline import RunResult, run, run_segment, share_tables, write_outputs
from .sharing import (
    MODE_GENERATOR,
    MODE_KEPT_FOCAL,
    MODE_KEPT_PARAMETERS,
    OwnerView,
    OwnerViews,
    choose_recalc_mode,
    recalculate_views,
    share_clusters,
)
from .spherical import attach_focal_points, solve_focal_lengths, total_path_length
from .tensorio import read_tensor_binary, write_tensor_binary, write_tensor_text

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
