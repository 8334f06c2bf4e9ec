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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clustergen import Cluster, ClusterSet, gen_arrival_angles, gen_departure_angles
from .errors import DegenerateGeometry
from .geom import SPEED_OF_LIGHT_M_S, unit_from_angles
from .layout import ArrayGeometry, Position, UserLayout
from .lsp import STREAM_REDRAW, LspDraw

EPSILON_M = 1e-9
MAX_ANGLE_RETRIES = 16


@dataclass(frozen=True)
class FocalGeometry:
    """Solved single-bounce geometry on the departure side.

    r0: anchor-to-user vector (meters); d_c: total path length; e_hat:
    unit departure direction; e_len: anchor-to-focal distance.
    """

    r0: np.ndarray
    d_c: float
    e_hat: np.ndarray
    e_len: float


class ClusterGeometry(NamedTuple):
    """Focal points and path bookkeeping of one cluster seen from one
    user position; field names match the attributes of `Cluster`."""

    lbs: Position
    fbs: tuple[Position, ...]
    e_len_m: np.ndarray
    g_len_m: float
    d_c_ref_m: float
    interior_raw_m: float


def total_path_length(tau_s: float, apos: Position, user_pos: Position) -> float:
    """Total propagation path length: excess delay times c plus the
    direct anchor-user distance."""
    if tau_s < 0:
        raise ValueError(f"excess delay must be nonnegative, got {tau_s}")
    return tau_s * SPEED_OF_LIGHT_M_S + apos.distance_to(user_pos)


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


def solve_departure_geometry(
    apos: Position, user_pos: Position, e_hat: np.ndarray, d_c: float
) -> FocalGeometry:
    """One departure-side solve (solve_focal_lengths with A = 1)."""
    r0 = user_pos.as_array() - apos.as_array()
    e_len, e_hat = solve_focal_lengths(
        np.array([d_c], dtype=float), r0[None], np.asarray(e_hat, dtype=float)[None]
    )
    return FocalGeometry(r0=r0, d_c=float(d_c), e_hat=e_hat[0], e_len=float(e_len[0]))


def fbs_focal_point(geom: FocalGeometry, apos: Position) -> Position:
    """Transmitter-side bounce point: anchor plus e_len along e_hat."""
    p = apos.as_array() + geom.e_len * geom.e_hat
    return Position(float(p[0]), float(p[1]), float(p[2]))


def lbs_focal_point(
    user_pos: Position, apos: Position, g_hat: np.ndarray, d_c: float
) -> Position:
    """Receiver-side bounce point; the same solve with the roles swapped
    (anchor = user, far end = sub-array center, direction = arrival)."""
    geom = solve_departure_geometry(user_pos, apos, g_hat, d_c)
    return fbs_focal_point(geom, user_pos)


def solve_cluster_geometry(
    cluster: Cluster, user_pos: Position, array: ArrayGeometry
) -> ClusterGeometry:
    """Both focal points of a cluster with excess delay, from `user_pos`:
    one departure solve over all sub-arrays, then the arrival solve
    against the reference sub-array."""
    ref = array.reference_subarray()
    centers = array.subarray_centers
    tau = cluster.tau_s
    # One math.dist per sub-array: numpy has no bit-identical twin of it.
    d_c = np.array([total_path_length(tau, s.center, user_pos) for s in array.subarrays])
    e_len, e_hat = solve_focal_lengths(
        d_c,
        user_pos.as_array() - centers,
        unit_from_angles(cluster.aod_az_deg, cluster.aod_el_deg),
    )
    fbs = tuple(Position(*p) for p in (centers + e_len[:, None] * e_hat).tolist())
    d_c_ref = float(d_c[ref.index])
    g_hat = unit_from_angles(cluster.aoa_az_deg, cluster.aoa_el_deg)
    lbs = lbs_focal_point(user_pos, ref.center, g_hat, d_c_ref)
    g_len = user_pos.distance_to(lbs)
    interior = d_c_ref - float(e_len[ref.index]) - g_len
    return ClusterGeometry(lbs, fbs, e_len, g_len, d_c_ref, interior)


def _attach_one(cluster, gen_pos: Position, layout: UserLayout) -> None:
    """Solve and store LBS, per-sub-array FBS, and path bookkeeping."""
    if cluster.boresight:
        # Zero excess delay: both bounce points collapse onto the
        # generating user's segment-start position. Drawn angles are kept
        # in the table; the geometry simply cannot bend the path.
        subarrays = layout.array.subarrays
        e_len = np.array([gen_pos.distance_to(s.center) for s in subarrays])
        ref_len = float(e_len[layout.array.reference_subarray().index])
        fbs = (gen_pos,) * len(subarrays)
        geometry = ClusterGeometry(gen_pos, fbs, e_len, 0.0, ref_len, 0.0)
    else:
        geometry = solve_cluster_geometry(cluster, gen_pos, layout.array)
    for name, value in geometry._asdict().items():
        setattr(cluster, name, value)


def attach_focal_points(
    cluster_set: ClusterSet,
    layout: UserLayout,
    lsp_draw: LspDraw | None = None,
    seed: int = 0,
) -> ClusterSet:
    """Attach one LBS and A FBS positions to every cluster in place.

    On a degenerate solve the cluster's angles are redrawn from a
    dedicated per-cluster stream (up to MAX_ANGLE_RETRIES, needs
    lsp_draw); delays make degeneracy unreachable for nonzero excess
    delay, so this is a safety net, not a hot path.
    """
    for cluster_id in sorted(cluster_set.clusters):
        cluster = cluster_set.clusters[cluster_id]
        gen_pos = layout.segment_start_position(
            cluster.generating_user, cluster_set.segment_index
        )
        try:
            _attach_one(cluster, gen_pos, layout)
            continue
        except DegenerateGeometry:
            if lsp_draw is None:
                raise
        lsp = lsp_draw.of(cluster.generating_user, cluster_set.segment_index)
        rng = np.random.default_rng(
            np.random.SeedSequence(
                seed, spawn_key=(STREAM_REDRAW, cluster_set.segment_index, cluster_id)
            )
        )
        for attempt in range(MAX_ANGLE_RETRIES):
            aod_az, aod_el = gen_departure_angles(
                cluster.n_subarrays, lsp.sigma_aod_deg, lsp.sigma_eod_deg, rng
            )
            aoa_az, aoa_el = gen_arrival_angles(
                np.ones(1), lsp.sigma_aoa_deg, lsp.sigma_eoa_deg, rng
            )
            cluster.aod_az_deg = aod_az
            cluster.aod_el_deg = aod_el
            cluster.aoa_az_deg = float(aoa_az[0])
            cluster.aoa_el_deg = float(aoa_el[0])
            try:
                _attach_one(cluster, gen_pos, layout)
                break
            except DegenerateGeometry:
                if attempt == MAX_ANGLE_RETRIES - 1:
                    raise DegenerateGeometry(
                        f"cluster {cluster_id}: geometry still degenerate after "
                        f"{MAX_ANGLE_RETRIES} angle redraws"
                    )
    return cluster_set
