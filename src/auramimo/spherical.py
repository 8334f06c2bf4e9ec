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

Zero-excess-delay clusters (one per sharing group by construction) are
handled by collapsing both focal points onto the generating user's
segment-start position, which reproduces the direct-path length for
every element without inventing geometry the delay cannot support.
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
) -> tuple[np.ndarray, np.ndarray]:
    """The closed form for A anchors at once, from float arrays d_c (A,),
    anchor-to-far-end vectors r0 (A, 3) and directions (A, 3) (normalized
    unless unit to 1e-12). Returns (anchor-to-bounce distances (A,), unit
    directions (A, 3)); raises DegenerateGeometry for the first solve in
    index order that has no excess path or a direction inconsistent with
    the delay.
    """
    norm = np.sqrt(np.vecdot(directions, directions))
    rescale = np.abs(norm - 1.0) > 1e-12
    directions = np.where(rescale[:, None], directions / norm[:, None], directions)
    r0_norm = np.sqrt(np.vecdot(r0, r0))
    no_excess = d_c <= r0_norm + EPSILON_M
    denom = 2.0 * (d_c - np.vecdot(r0, directions))
    bad = np.flatnonzero(no_excess | (denom <= EPSILON_M))
    if bad.size:
        a = bad[0]
        if no_excess[a]:
            raise DegenerateGeometry(
                f"no excess path: d_c={float(d_c[a])!r} vs direct {float(r0_norm[a])!r}"
            )
        raise DegenerateGeometry(
            f"direction inconsistent with delay: denominator {float(denom[a])!r}"
        )
    return (d_c * d_c - r0_norm * r0_norm) / denom, directions


def solve_cluster_geometry(
    cluster: Cluster, user: np.ndarray, array: ArrayGeometry
) -> ClusterGeometry:
    """Both focal points of a cluster with excess delay, from the user
    position `user` (3,): one departure solve over all sub-arrays, then
    the arrival solve (anchor = user, far end = reference sub-array
    center, direction = arrival) with the same closed form."""
    ref = array.reference_subarray()
    centers = array.subarray_centers
    tau = cluster.tau_s
    # One math.dist per sub-array: numpy has no bit-identical twin of it.
    user_xyz = user.tolist()
    d_c = np.array([total_path_length(tau, c, user_xyz) for c in centers.tolist()])
    e_len, e_hat = solve_focal_lengths(
        d_c, user - centers, unit_from_angles(cluster.aod_az_deg, cluster.aod_el_deg)
    )
    fbs = centers + e_len[:, None] * e_hat
    lbs_len, g_hat = solve_focal_lengths(
        d_c[ref.index : ref.index + 1],
        (ref.center - user)[None],
        unit_from_angles(cluster.aoa_az_deg, cluster.aoa_el_deg)[None],
    )
    lbs = user + lbs_len[0] * g_hat[0]
    interior = float(d_c[ref.index]) - float(e_len[ref.index]) - math.dist(user, lbs)
    return ClusterGeometry(lbs, fbs, e_len, interior)


def _geometry(cluster: Cluster, gen_pos: np.ndarray, layout: UserLayout) -> ClusterGeometry:
    """LBS, per-sub-array FBS and path lengths seen from the generating
    user's segment-start position."""
    if not cluster.boresight:
        return solve_cluster_geometry(cluster, gen_pos, layout.array)
    # Zero excess delay: both bounce points collapse onto the generating
    # user's position. Drawn angles are kept in the table; the geometry
    # simply cannot bend the path.
    centers = layout.array.subarray_centers
    gen_xyz = gen_pos.tolist()
    e_len = np.array([math.dist(gen_xyz, c) for c in centers.tolist()])
    fbs = np.broadcast_to(gen_pos, centers.shape)
    return ClusterGeometry(gen_pos, fbs, e_len, 0.0)


def _attached(
    cluster: Cluster, layout: UserLayout, lsp_draw: LspDraw | None, seed: int
) -> Cluster:
    """A copy of `cluster` with its geometry, after angle redraws if the
    drawn angles make the solve degenerate."""
    segment_index = cluster.segment_index
    gen_pos = layout.segment_start_position(cluster.generating_user, segment_index)
    try:
        return replace(cluster, geometry=_geometry(cluster, gen_pos, layout))
    except DegenerateGeometry:
        if lsp_draw is None:
            raise
    lsp = lsp_draw.of(cluster.generating_user, segment_index)
    rng = np.random.default_rng(
        np.random.SeedSequence(
            seed, spawn_key=(STREAM_REDRAW, segment_index, cluster.cluster_id)
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
        try:
            return replace(redrawn, geometry=_geometry(redrawn, gen_pos, layout))
        except DegenerateGeometry:
            pass
    raise DegenerateGeometry(
        f"cluster {cluster.cluster_id}: geometry still degenerate after "
        f"{MAX_ANGLE_RETRIES} angle redraws"
    )


def attach_focal_points(
    cluster_set: ClusterSet,
    layout: UserLayout,
    lsp_draw: LspDraw | None = None,
    seed: int = 0,
) -> ClusterSet:
    """A new set whose clusters carry one LBS and A FBS each; the input
    set is left as it is.

    On a degenerate solve the cluster's arrival and departure angles are
    redrawn from a dedicated per-cluster stream (up to
    MAX_ANGLE_RETRIES, needs lsp_draw); delays make degeneracy
    unreachable for nonzero excess delay, so this is a safety net, not a
    hot path.
    """
    clusters = {
        cluster_id: _attached(cluster_set.clusters[cluster_id], layout, lsp_draw, seed)
        for cluster_id in sorted(cluster_set.clusters)
    }
    return replace(cluster_set, clusters=clusters)
