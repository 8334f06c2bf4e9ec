"""Seeded end-to-end orchestration.

Per segment, in order: sharing proportions and counts, initial cluster
parameters with their owners, focal points, each owner slot's cluster
row, then the segment's one `OwnerViews`, (user, cluster) columns naming
rows of one geometry table, the joining owners' re-solved rows appended.
One pass over the segments then synthesizes each one's slice of the run
tensor and computes its planar error row over the views' geometry rows;
`run` builds one frozen report and logs at most one warning, the count
of clamped interior paths over every slot. Cluster ids are unique across
the whole run (each segment's allocation starts where the previous
ended), which keys the per-cluster scatterer randomness globally.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from .clustergen import ClusterSet, assemble_clusters
from .coefficients import ChannelTensor, planar_vs_spherical_error, synthesize
from .config import RunConfig
from .grouping import ShareTable, share_table_for_segment
from .lsp import draw_lsp
from .metrics import MetricsReport, correlation_metrics
from .sharing import OwnerViews, recalculate_views, share_clusters
from .spherical import attach_focal_points
from .tables import write_tables
from .tensorio import write_tensor_binary, write_tensor_text

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SegmentResult:
    share_table: ShareTable
    cluster_set: ClusterSet
    views: OwnerViews


@dataclass(frozen=True)
class RunResult:
    config: RunConfig
    segments: list[SegmentResult]
    tensor: ChannelTensor
    metrics: MetricsReport


def share_tables(config: RunConfig) -> Iterator[ShareTable]:
    """Every segment's share table, in order; each segment's cluster ids
    start where the previous segment's ended."""
    id_base = 0
    for segment in config.layout.segments:
        table = share_table_for_segment(
            config.layout, segment.index, config.total_clusters_per_user, id_base=id_base
        )
        if table.cluster_ids:
            id_base = max(table.cluster_ids) + 1
        yield table


def run_segment(config: RunConfig, lsp_draw, table: ShareTable) -> SegmentResult:
    """The per-segment stages after grouping, in order, for the segment
    of `table`."""
    layout = config.layout
    clusters = assemble_clusters(table, lsp_draw, layout, config.scenario, config.seed)
    geometries = attach_focal_points(clusters, layout)
    views = recalculate_views(share_clusters(clusters), geometries, clusters, layout)
    return SegmentResult(share_table=table, cluster_set=clusters, views=views)


def run(config: RunConfig) -> RunResult:
    layout = config.layout
    lsp_draw = draw_lsp(config.scenario, layout, config.seed)
    segments = [run_segment(config, lsp_draw, table) for table in share_tables(config)]

    # One run tensor, complex64 as in channel.bin; segments fill its snapshot slices.
    n_users, n_clusters = len(layout.user_ids), config.total_clusters_per_user
    n_snap = sum(s.n_snapshots for s in layout.segments)
    coefficients = np.empty(
        (n_users, 1, layout.array.n_elements, n_clusters, n_snap), dtype=np.complex64
    )
    delays = np.empty((n_users, n_clusters, n_snap))
    worst = np.zeros(layout.array.n_subarrays)
    for seg in segments:
        span = layout.segments[seg.views.segment_index]
        snapshots = slice(span.first_snapshot, span.first_snapshot + span.n_snapshots)
        synthesize(
            seg.views,
            layout,
            config.carrier_hz,
            config.seed,
            cluster_angle_spread_deg=config.scenario.cluster_angle_spread_deg,
            out=(coefficients[..., snapshots], delays[..., snapshots]),
        )
        errors = planar_vs_spherical_error(seg.views.geometry.fbs, layout, config.carrier_hz)
        np.maximum(worst, errors.max(axis=0), out=worst)
    # Checks every value once: the segments fill their slices unchecked.
    tensor = ChannelTensor(
        user_ids=layout.user_ids,
        coefficients=coefficients,
        delays=delays,
        carrier_hz=config.carrier_hz,
        seed=config.seed,
    )

    # Each cluster id belongs to exactly one group, so a group's count is
    # shared by every pair of its members and by no other pair.
    shared = dict.fromkeys(combinations(layout.user_ids, 2), 0)
    for seg in segments:
        for group in seg.share_table.groups:
            for pair in combinations(group.members, 2):
                shared[pair] += group.count

    views = [seg.views for seg in segments]
    interiors = np.concatenate([v.geometry.interior_raw_m[v.slot_geometry.ravel()] for v in views])
    clamped = int((interiors < 0.0).sum())
    if clamped:
        message = "interior path length clamped to 0 for %d of %d cluster views"
        log.warning(message, clamped, len(interiors))

    metrics = replace(
        correlation_metrics(tensor),
        shared_cluster_counts=shared,
        planar_error_max_rad=dict(enumerate(worst.tolist())),
    )
    return RunResult(config=config, segments=segments, tensor=tensor, metrics=metrics)


def write_outputs(result: RunResult, out_dir=None) -> dict[str, Path]:
    """Write the tensor, then the tables (`tables.write_tables`); returns
    the file paths by kind."""
    config = result.config
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if config.out_format == "binary":
        tensor_path = out / "channel.bin"
        write_tensor_binary(result.tensor, tensor_path)
    else:
        tensor_path = out / "channel.tsv"
        write_tensor_text(result.tensor, tensor_path)
    return {"tensor": tensor_path, **write_tables(result, out)}
