"""Seeded end-to-end orchestration.

Per segment, in order: sharing proportions and counts, initial cluster
parameters with their owners, focal points, the generator views, then
one recalculated view per joining owner; then coefficient synthesis and
metrics. Cluster ids are unique across the whole run (each segment's
allocation starts where the previous ended), which keys the per-cluster
scatterer randomness globally.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
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
    shared = share_clusters(clusters, geometries)
    views = recalculate_views(shared, clusters, layout)
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
    # Checks every value once: the segments fill their slices unchecked.
    tensor = ChannelTensor(
        user_ids=layout.user_ids,
        coefficients=coefficients,
        delays=delays,
        carrier_hz=config.carrier_hz,
        seed=config.seed,
    )

    report = correlation_metrics(tensor)
    _fill_sharing_and_planar_metrics(report, segments, config)
    return RunResult(config=config, segments=segments, tensor=tensor, metrics=report)


def _fill_sharing_and_planar_metrics(
    report: MetricsReport, segments: list[SegmentResult], config: RunConfig
) -> None:
    users = config.layout.user_ids
    per_segment = [
        {u: set(ids) for u, ids in seg.cluster_set.by_user.items()} for seg in segments
    ]
    for i, u in enumerate(users):
        for v in users[i + 1 :]:
            report.shared_cluster_counts[(u, v)] = sum(
                len(ids[u] & ids[v]) for ids in per_segment
            )

    worst = np.zeros(config.layout.array.n_subarrays)
    for seg in segments:
        distinct = {v.fbs.tobytes(): v.fbs for v in seg.views.views.values()}
        fbs = np.stack(list(distinct.values()))
        errors = planar_vs_spherical_error(fbs, config.layout, config.carrier_hz)
        worst = np.maximum(worst, errors.max(axis=0))
    report.planar_error_max_rad.update(enumerate(worst.tolist()))


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
