"""Tab-separated output tables (share, per-user cluster, owner-view and
metrics); floats are written by `repr`, which round-trips exactly. A
view's parameter columns are formatted once per run, one float64 matrix
per segment read off its `OwnerViews` columns, with a row per (user,
cluster) slot in slot order (delay, power, AoA azimuth/elevation, AoD
azimuth/elevation per sub-array, LBS, FBS x/y/z per sub-array), and
written to its user's table and to `cluster_views.tsv` alike. The delay
is read from the run tensor: its delay at the segment's first snapshot
less the direct path's. The angles are read from the focal points: AoD
from each sub-array centre toward its FBS, AoA from the owner's
segment-start position toward the LBS. A collapsed arrival leg (the LBS
at the owner, as for boresight clusters) has no direction; its AoA is
that of the direct path, toward the reference sub-array centre."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .geom import SPEED_OF_LIGHT_M_S, angles_from_vector

SHARE_HEADER = "segment\tmembers\tproportion\tscaled_proportion\tcount\tcluster_ids"
METRICS_HEADER = "metric\tkey1\tkey2\tvalue"


def _joined(ids) -> str:
    return "+".join(map(str, ids))


def share_rows(table) -> list[str]:
    """One segment's share-table rows; proportions are written as plain floats."""
    return [
        f"{table.segment_index}\t{_joined(g.members)}\t{float(g.proportion)!r}\t"
        f"{float(g.scaled_proportion)!r}\t{g.count}\t{_joined(g.cluster_ids)}"
        for g in table.groups
    ]


def metrics_rows(report) -> list[str]:
    """Pair correlation means, per-snapshot correlations, shared-cluster
    counts and planar errors, each sorted by key."""
    return (
        [
            f"pair_correlation_mean\t{u}\t{v}\t{float(mean)!r}"
            for (u, v), mean in sorted(report.pair_correlation_mean.items())
        ]
        + [
            f"pair_correlation\t{u}\t{v}\t{'+'.join(repr(float(x)) for x in per_snap)}"
            for (u, v), per_snap in sorted(report.pair_correlation.items())
        ]
        + [
            f"shared_clusters\t{u}\t{v}\t{count}"
            for (u, v), count in sorted(report.shared_cluster_counts.items())
        ]
        + [
            f"planar_error_max_rad\t{sub}\t\t{err!r}"
            for sub, err in sorted(report.planar_error_max_rad.items())
        ]
    )


def param_header(n_subarrays: int) -> str:
    aod = [f"aod_{c}_deg_{a}" for a in range(n_subarrays) for c in ("az", "el")]
    fbs = [f"fbs{a}_{c}_m" for a in range(n_subarrays) for c in "xyz"]
    head = ["delay_s", "power", "aoa_az_deg", "aoa_el_deg", *aod]
    return "\t".join(head + ["lbs_x_m", "lbs_y_m", "lbs_z_m"] + fbs)


def _param_rows(views, tensor, layout) -> dict[tuple[int, int], str]:
    """A segment's `OwnerViews` parameter columns, tab-joined, by (user,
    cluster id) in slot order, from one float64 matrix; `tolist` turns it
    into Python floats, whose repr is that of the value."""
    array, segment = layout.array, layout.segments[views.segment_index]
    ref, n_clusters = array.subarray_centers[array.reference_subarray], views.cluster_id.shape[1]
    rx0 = [layout.segment_start_position(u, segment.index) for u in views.user_id.tolist()]
    owners = np.repeat(rx0, n_clusters, axis=0)
    lbs, fbs = views.lbs.reshape(-1, 3), views.fbs.reshape(len(owners), -1, 3)
    # Tensor slot (k, c) is the views' slot (k, c).
    direct = np.divide([math.dist(x, ref) for x in rx0], SPEED_OF_LIGHT_M_S)
    delays = (tensor.delays[:, :, segment.first_snapshot] - direct[:, None]).ravel()
    # A collapsed arrival leg takes the direction of the direct path.
    collapsed = (lbs == owners).all(axis=1, keepdims=True)
    arrival = np.where(collapsed, ref, lbs) - owners
    legs = np.concatenate([arrival[:, None], fbs - array.subarray_centers], axis=1)
    angles = np.stack(angles_from_vector(legs), axis=-1)  # (az, el) per leg
    rows = np.column_stack(
        [delays, views.power.ravel(), angles.reshape(len(lbs), -1), lbs, fbs.reshape(len(lbs), -1)]
    )
    keys = zip(np.repeat(views.user_id, n_clusters).tolist(), views.cluster_id.ravel().tolist())
    return {k: "\t".join(map(repr, r.tolist())) for k, r in zip(keys, rows)}


def write_tables(result, out: Path) -> dict[str, Path]:
    """Write the tables of a `RunResult` into `out`; returns the file
    paths by kind."""
    segments = result.segments
    paths = {"share_table": out / "share_table.tsv"}
    with open(paths["share_table"], "w") as f:
        f.write(SHARE_HEADER + "\n")
        for seg in segments:
            f.writelines(line + "\n" for line in share_rows(seg.share_table))

    layout = result.config.layout
    header = param_header(layout.array.n_subarrays)
    # By segment: parameter rows by (user, cluster id); members, generating
    # user and boresight flag by cluster id.
    rows, clusters = [], []
    for seg in segments:
        rows.append(_param_rows(seg.views, result.tensor, layout))
        groups, cs = seg.share_table.groups, seg.cluster_set
        members = {c: _joined(g.members) for g in groups for c in g.cluster_ids}
        columns = zip(cs.cluster_id.tolist(), cs.generating_user.tolist(), cs.boresight.tolist())
        clusters.append({c: f"{members[c]}\t{u}\t{int(b)}" for c, u, b in columns})

    for user in layout.user_ids:
        path = paths[f"clusters_user{user}"] = out / f"clusters_user{user}.tsv"
        with open(path, "w") as f:
            f.write("segment\tcluster_id\tmembers\tgenerating_user\tboresight\t")
            f.write(header + "\n")
            for seg, seg_rows, seg_clusters in zip(segments, rows, clusters):
                for cluster_id in seg.cluster_set.by_user[user]:
                    f.write(
                        f"{seg.share_table.segment_index}\t{cluster_id}\t"
                        f"{seg_clusters[cluster_id]}\t{seg_rows[(user, cluster_id)]}\n"
                    )

    paths["cluster_views"] = out / "cluster_views.tsv"
    with open(paths["cluster_views"], "w") as f:
        f.write("segment\tcluster_id\towner\trecalc_mode\t" + header + "\n")
        for seg, seg_rows in zip(segments, rows):
            modes = seg.views.recalc_mode.ravel().tolist()
            for ((user, cluster_id), row), mode in zip(seg_rows.items(), modes):
                f.write(f"{seg.share_table.segment_index}\t{cluster_id}\t{user}\t{mode}\t{row}\n")

    paths["metrics"] = out / "metrics.tsv"
    with open(paths["metrics"], "w") as f:
        f.write(METRICS_HEADER + "\n")
        f.writelines(line + "\n" for line in metrics_rows(result.metrics))
    return paths
