"""Model and output counts computed by the harness from the run result,
the layout and the written files, never read from the program.

Counts that follow from a formula over the layout or the result, rather
than from observed calls, are listed in COMPUTED so reports can label
them.
"""

from __future__ import annotations

from pathlib import Path

# Scatterers per cluster in synthesis (see the README, "How a run works").
SCATTERERS_PER_CLUSTER = 20

COMPUTED = (
    "lsp.field_points",
    "grouping.subsets_enumerated",
    "spherical.focal_solves",
    "coefficients.scatterer_distances",
)


def segment_components(layout, segment_index: int) -> tuple[tuple[int, ...], ...]:
    """Aura-overlap components of one segment, as grouping forms them."""
    from auramimo import build_overlap_graph, connected_components

    auras = {u: layout.aura_of(u, segment_index) for u in layout.user_ids}
    return connected_components(build_overlap_graph(auras))


def count(result, out_dir: Path) -> dict[str, int | float]:
    """Every per-layer count of one run whose outputs are in `out_dir`."""
    layout = result.config.layout
    n_tx = layout.array.n_elements
    n_sub = layout.array.n_subarrays

    enumerated = 0
    largest = 0
    for segment in layout.segments:
        for component in segment_components(layout, segment.index):
            n = len(component)
            enumerated += 2**n - n - 1
            largest = max(largest, n)

    kept = clusters = non_boresight = 0
    views = kept_parameters = kept_focal = clamped = distances = 0
    for seg in result.segments:
        kept += sum(1 for g in seg.share_table.groups if len(g.members) > 1)
        clusters += len(seg.cluster_set.clusters)
        non_boresight += sum(1 for c in seg.cluster_set.clusters.values() if not c.boresight)
        seg_views = list(seg.views.views.values())
        views += len(seg_views)
        kept_parameters += sum(1 for v in seg_views if v.recalc_mode == "kept-parameters")
        kept_focal += sum(1 for v in seg_views if v.recalc_mode == "kept-focal-point")
        clamped += sum(1 for v in seg_views if v.interior_raw_m < 0.0)
        n_snap = layout.segments[seg.cluster_set.segment_index].n_snapshots
        distances += len(seg_views) * SCATTERERS_PER_CLUSTER * (n_tx + n_snap)

    return {
        "lsp.field_points": len(layout.user_ids) * len(layout.segments),
        "grouping.subsets_enumerated": enumerated,
        "grouping.groups_kept": kept,
        "grouping.kept_ratio": kept / enumerated if enumerated else 0.0,
        "grouping.largest_component": largest,
        "clustergen.clusters": clusters,
        "spherical.focal_solves": non_boresight * (n_sub + 1),
        "sharing.views": views,
        "sharing.views_kept_parameters": kept_parameters,
        "sharing.views_kept_focal": kept_focal,
        "sharing.clamped_views": clamped,
        "coefficients.scatterer_distances": distances,
        "metrics.pairs": len(result.metrics.pair_correlation_mean),
        "tensorio.bytes": (out_dir / "channel.bin").stat().st_size,
        "pipeline.table_bytes": sum(p.stat().st_size for p in out_dir.glob("*.tsv")),
    }
