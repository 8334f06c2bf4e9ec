"""Focal points for spherical-wave synthesis.

A cluster's total path length is fixed by its excess delay plus the
straight-line distance between the sub-array center and the user. Given
a departure (or arrival) direction, the law of cosines pins the distance
from the array (or user) to the single bounce point that closes the path
at exactly that total length; those bounce points are the transmitter-
and receiver-side focal points. The closed form is

    len = (d_c^2 - |r0|^2) / (2 * (d_c - r0 . dir))

with r0 the anchor-to-far-end vector, which always satisfies the closure
len + |focal - far_end| = d_c. It degenerates only when there is no
excess path (d_c -> |r0|, i.e. zero excess delay).

A segment's clusters are solved in one call, which flags degenerate
clusters for redrawing. Zero-excess-delay (boresight) clusters, one per
sharing group, collapse both focal points onto the user position: the
direct path for every element, without geometry the delay cannot support.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .clustergen import (
    Cluster,
    ClusterGeometry,
    ClusterSet,
    gen_arrival_angles,
    gen_departure_angles,
)
from .errors import DegenerateGeometry
from .geom import SPEED_OF_LIGHT_M_S, unit_from_angles
from .layout import ArrayGeometry, UserLayout
from .lsp import STREAM_REDRAW, LspDraw

EPSILON_M = 1e-9
MAX_ANGLE_RETRIES = 16


def total_path_length(tau_s: float, apos, user_pos) -> float:
    """Total propagation path length: excess delay times c plus the
    direct anchor-user distance, of points (x, y, z)."""
    if tau_s < 0:
        raise ValueError(f"excess delay must be nonnegative, got {tau_s}")
    return tau_s * SPEED_OF_LIGHT_M_S + math.dist(apos, user_pos)


def solve_focal_lengths(
    d_c: np.ndarray, r0: np.ndarray, directions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closed form for any leading shape S, from float arrays d_c S,
    anchor-to-far-end vectors r0 S + (3,) and directions S + (3,)
    (normalized unless unit to 1e-12). Returns (anchor-to-bounce
    distances S, unit directions S + (3,), degenerate S): a degenerate
    solve has no excess path or a direction inconsistent with the delay,
    and its distance is 0.
    """
    norm = np.sqrt(np.vecdot(directions, directions))
    rescale = np.abs(norm - 1.0) > 1e-12
    directions = np.where(rescale[..., None], directions / norm[..., None], directions)
    r0_norm = np.sqrt(np.vecdot(r0, r0))
    denom = 2.0 * (d_c - np.vecdot(r0, directions))
    degenerate = (d_c <= r0_norm + EPSILON_M) | (denom <= EPSILON_M)
    lengths = np.divide(
        d_c * d_c - r0_norm * r0_norm, denom, out=np.zeros_like(denom), where=~degenerate
    )
    return lengths, directions, degenerate


def solve_cluster_geometry(
    clusters: list[Cluster], users: np.ndarray, array: ArrayGeometry
) -> tuple[list[ClusterGeometry], np.ndarray]:
    """Both focal points of n clusters, each seen from its row of `users`
    (n, 3): one departure solve over every (cluster, sub-array) row, then
    one arrival solve (anchor = user, far end = reference sub-array
    center, direction = arrival) with the same closed form. Returns (the
    geometries, degenerate (n,)); a degenerate cluster's geometry is
    meaningless. A boresight cluster has both focal points at its user."""
    ref = array.reference_subarray().index
    centers = array.subarray_centers
    # One math.dist per row: numpy has no bit-identical twin of it.
    xyz, pairs = centers.tolist(), zip(clusters, users.tolist())
    d_c = np.array(
        [total_path_length(c.tau_s, x, u) for c, u in pairs for x in xyz]
    ).reshape(len(clusters), -1)
    aod = np.array([(c.aod_az_deg, c.aod_el_deg) for c in clusters])  # (n, 2, A)
    aoa = np.array([(c.aoa_az_deg, c.aoa_el_deg) for c in clusters])  # (n, 2)
    e_len, e_hat, e_degenerate = solve_focal_lengths(
        d_c, users[:, None] - centers, unit_from_angles(aod[:, 0], aod[:, 1])
    )
    lbs_len, g_hat, g_degenerate = solve_focal_lengths(
        d_c[:, ref], centers[ref] - users, unit_from_angles(aoa[:, 0], aoa[:, 1])
    )
    lbs = users + lbs_len[:, None] * g_hat
    g_len = np.array([math.dist(u, b) for u, b in zip(users.tolist(), lbs.tolist())])
    interior = d_c[:, ref] - e_len[:, ref] - g_len
    boresight = np.array([c.boresight for c in clusters])
    fbs = centers + e_len[..., None] * e_hat
    lbs = np.where(boresight[:, None], users, lbs)
    fbs = np.where(boresight[:, None, None], users[:, None], fbs)
    e_len = np.where(boresight[:, None], d_c, e_len)
    interior = np.where(boresight, 0.0, interior).tolist()
    geometries = list(map(ClusterGeometry, lbs, fbs, e_len, interior))
    return geometries, (e_degenerate.any(axis=1) | g_degenerate) & ~boresight


def _redrawn(
    cluster: Cluster, user: np.ndarray, layout: UserLayout, lsp_draw: LspDraw, seed: int
) -> Cluster:
    """A copy of a degenerate `cluster` with angles redrawn from its own
    (seed, segment, cluster id) stream until the solve from `user` (3,)
    succeeds."""
    lsp = lsp_draw.of(cluster.generating_user, cluster.segment_index)
    rng = np.random.default_rng(
        np.random.SeedSequence(
            seed, spawn_key=(STREAM_REDRAW, cluster.segment_index, cluster.cluster_id)
        )
    )
    for _ in range(MAX_ANGLE_RETRIES):
        aod_az, aod_el = gen_departure_angles(
            cluster.n_subarrays, lsp.sigma_aod_deg, lsp.sigma_eod_deg, rng
        )
        aoa_az, aoa_el = gen_arrival_angles(
            np.ones(1), lsp.sigma_aoa_deg, lsp.sigma_eoa_deg, rng
        )
        redrawn = replace(
            cluster,
            aod_az_deg=aod_az,
            aod_el_deg=aod_el,
            aoa_az_deg=float(aoa_az[0]),
            aoa_el_deg=float(aoa_el[0]),
        )
        (geometry,), (degenerate,) = solve_cluster_geometry(
            [redrawn], user[None], layout.array
        )
        if not degenerate:
            return replace(redrawn, geometry=geometry)
    raise DegenerateGeometry(
        f"cluster {cluster.cluster_id}: geometry still degenerate after "
        f"{MAX_ANGLE_RETRIES} angle redraws"
    )


def attach_focal_points(
    cluster_set: ClusterSet, layout: UserLayout, lsp_draw: LspDraw, seed: int
) -> ClusterSet:
    """A new set whose clusters carry one LBS and A FBS each, seen from
    their generating users' segment-start positions; the input set is
    left as it is.

    The whole segment is one `solve_cluster_geometry` call. Only a
    cluster whose drawn angles make it degenerate has its angles redrawn,
    from its own stream (up to MAX_ANGLE_RETRIES); delays make degeneracy
    unreachable for nonzero excess delay, so this is a safety net.
    """
    clusters = [cluster_set.clusters[c] for c in sorted(cluster_set.clusters)]
    position = layout.segment_start_position
    users = np.array([position(c.generating_user, c.segment_index) for c in clusters])
    geometries, degenerate = solve_cluster_geometry(clusters, users, layout.array)
    attached = [
        _redrawn(c, u, layout, lsp_draw, seed) if bad else replace(c, geometry=g)
        for c, u, g, bad in zip(clusters, users, geometries, degenerate)
    ]
    return replace(cluster_set, clusters={c.cluster_id: c for c in attached})
