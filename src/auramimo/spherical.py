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

A segment's clusters are solved in one call over the columns of its
`ClusterSet`, which flags degenerate clusters; a flagged cluster is an
error, since only an excess path of at most EPSILON_M flags a row and no
angle redraw can add excess path.
Zero-excess-delay (boresight) clusters, one per sharing group, are
exempt: they collapse both focal points onto the user position, the
direct path for every element, without geometry the delay cannot
support. A solve returns one `ClusterGeometry`, the columns of its
clusters; the owner views, not the clusters, hold the focal points.
"""

from __future__ import annotations

import math

import numpy as np

from .clustergen import ClusterGeometry, ClusterSet
from .errors import DegenerateGeometry
from .geom import SPEED_OF_LIGHT_M_S, unit_from_angles
from .layout import ArrayGeometry, UserLayout

EPSILON_M = 1e-9


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
    clusters: ClusterSet, rows, users: np.ndarray, array: ArrayGeometry
) -> tuple[ClusterGeometry, np.ndarray]:
    """Both focal points of the n clusters at `rows` (an index array or a
    slice) of `clusters`, each seen from its row of `users` (n, 3): one
    departure solve over every (cluster, sub-array) row, then one arrival
    solve (anchor = user, far end = reference sub-array center, direction
    = arrival) with the same closed form. Returns (their `ClusterGeometry`,
    a row per row of `rows`, and degenerate (n,)); a degenerate row is
    meaningless. A
    boresight cluster has both focal points at its user; a negative excess
    delay is a ValueError."""
    ref = array.reference_subarray
    centers = array.subarray_centers
    tau = clusters.tau_s[rows]
    if (tau < 0).any():
        raise ValueError(f"excess delay must be nonnegative, got {float(tau[tau < 0][0])}")
    # One math.dist per row (numpy has no bit-identical twin), as total_path_length.
    xyz, pairs = centers.tolist(), zip(tau.tolist(), users.tolist())
    d_c = np.array(
        [t * SPEED_OF_LIGHT_M_S + math.dist(x, u) for t, u in pairs for x in xyz]
    ).reshape(len(tau), -1)
    e_hat = unit_from_angles(clusters.aod_az_deg[rows], clusters.aod_el_deg[rows])
    g_hat = unit_from_angles(clusters.aoa_az_deg[rows], clusters.aoa_el_deg[rows])
    e_len, e_hat, e_degenerate = solve_focal_lengths(d_c, users[:, None] - centers, e_hat)
    lbs_len, g_hat, g_degenerate = solve_focal_lengths(d_c[:, ref], centers[ref] - users, g_hat)
    lbs = users + lbs_len[:, None] * g_hat
    g_len = np.array([math.dist(u, b) for u, b in zip(users.tolist(), lbs.tolist())])
    interior = d_c[:, ref] - e_len[:, ref] - g_len
    boresight = clusters.boresight[rows]
    fbs = centers + e_len[..., None] * e_hat
    lbs = np.where(boresight[:, None], users, lbs)
    fbs = np.where(boresight[:, None, None], users[:, None], fbs)
    e_len = np.where(boresight[:, None], d_c, e_len)
    interior = np.where(boresight, 0.0, interior)
    geometry = ClusterGeometry(lbs, fbs, e_len, interior)
    return geometry, (e_degenerate.any(axis=1) | g_degenerate) & ~boresight


def attach_focal_points(cluster_set: ClusterSet, layout: UserLayout) -> ClusterGeometry:
    """Every cluster's geometry (one LBS and A FBS), a row per cluster row,
    seen from its generating user's segment-start position, for the
    generator views of `sharing.share_clusters`; the clusters are left as
    they are.

    The whole segment is one `solve_cluster_geometry` call. A degenerate
    cluster raises DegenerateGeometry: for rows under about 2 500 km the
    mask is the angle-free term d_c <= |r0| + EPSILON_M (no excess path),
    which no other angles could clear.
    """
    segment, position = cluster_set.segment_index, layout.segment_start_position
    generators = cluster_set.generating_user.tolist()
    users = np.array([position(u, segment) for u in generators])
    geometry, degenerate = solve_cluster_geometry(cluster_set, slice(None), users, layout.array)
    if degenerate.any():
        bad = int(np.argmax(degenerate))
        raise DegenerateGeometry(
            f"cluster {cluster_set.cluster_id[bad]}: no focal points from generating user "
            f"{generators[bad]}"
        )
    return geometry
