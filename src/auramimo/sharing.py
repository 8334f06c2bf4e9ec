"""Per-owner materialization of shared clusters.

Every cluster is duplicated into one view per owner. The generating
user's view is a verbatim copy. Other owners either keep the generated
parameters and re-solve both focal points from their own position
(kept-parameters, for far clusters), or keep the focal points and read
angles and delay off the fixed geometry (kept-focal-point, for clusters
within three segment lengths of the joining owner).

A joining owner standing exactly at the generating user's position gets
a verbatim copy in either mode: both rules are fixed points there, and
copying keeps the equality bit-exact instead of round-trip-rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .clustergen import Cluster, ClusterSet
from .errors import IncompleteViews
from .geom import SPEED_OF_LIGHT_M_S, angles_from_vector, read_only
from .layout import UserLayout
from .spherical import solve_cluster_geometry

MODE_GENERATOR = "generator"
MODE_KEPT_PARAMETERS = "kept-parameters"
MODE_KEPT_FOCAL = "kept-focal-point"


@dataclass(frozen=True)
class OwnerView:
    """Effective cluster parameters as seen by one owner; the geometry
    fields are those of `ClusterGeometry`, and every array is read-only."""

    user_id: int
    cluster_id: int
    recalc_mode: str
    delay_s: float
    power: float
    aoa_az_deg: float
    aoa_el_deg: float
    aod_az_deg: np.ndarray
    aod_el_deg: np.ndarray
    lbs: np.ndarray
    fbs: np.ndarray
    e_len_m: np.ndarray
    interior_raw_m: float
    boresight: bool

    def __post_init__(self) -> None:
        for a in (self.aod_az_deg, self.aod_el_deg, self.lbs, self.fbs, self.e_len_m):
            if a is not None:
                read_only(a)


@dataclass(frozen=True)
class OwnerViews:
    """All owner views of one segment, indexed (user, cluster)."""

    segment_index: int
    views: dict[tuple[int, int], OwnerView] = field(repr=False, default_factory=dict)
    by_user: dict[int, tuple[int, ...]] = field(repr=False, default_factory=dict)

    def views_of_user(self, user_id: int) -> list[OwnerView]:
        return [self.views[(user_id, c)] for c in self.by_user[user_id]]

    @property
    def user_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.by_user))


def _verbatim_view(
    cluster: Cluster, user_id: int, mode: str, power: float
) -> OwnerView:
    if cluster.geometry is None:
        raise IncompleteViews(f"cluster {cluster.cluster_id} has no focal points")
    return OwnerView(
        user_id=user_id,
        cluster_id=cluster.cluster_id,
        recalc_mode=mode,
        delay_s=cluster.tau_s,
        power=power,
        aoa_az_deg=cluster.aoa_az_deg,
        aoa_el_deg=cluster.aoa_el_deg,
        aod_az_deg=cluster.aod_az_deg,
        aod_el_deg=cluster.aod_el_deg,
        boresight=cluster.boresight,
        **cluster.geometry._asdict(),
    )


def choose_recalc_mode(
    cluster: Cluster, owner_pos: np.ndarray, segment_length_m: float
) -> str:
    """Kept-focal-point iff the receiver-side focal point lies strictly
    within three segment lengths of the joining owner."""
    distance = math.dist(cluster.geometry.lbs, owner_pos)
    if distance < 3.0 * segment_length_m:
        return MODE_KEPT_FOCAL
    return MODE_KEPT_PARAMETERS


def _at_generator(cluster: Cluster, owner_pos: np.ndarray, layout: UserLayout) -> bool:
    """Whether the owner stands exactly at the generating user's position."""
    gen_pos = layout.segment_start_position(cluster.generating_user, cluster.segment_index)
    return bool(np.array_equal(owner_pos, gen_pos))


def recalc_kept_parameters(
    cluster: Cluster,
    owner_id: int,
    owner_pos: np.ndarray,
    layout: UserLayout,
    power: float,
) -> OwnerView:
    """Keep delay/power/angles; re-solve both focal points from the
    owner's position with the owner's own total path length."""
    view = _verbatim_view(cluster, owner_id, MODE_KEPT_PARAMETERS, power)
    if _at_generator(cluster, owner_pos, layout):
        return view
    return replace(view, **solve_cluster_geometry(cluster, owner_pos, layout.array)._asdict())


def recalc_kept_focal_point(
    cluster: Cluster,
    owner_id: int,
    owner_pos: np.ndarray,
    layout: UserLayout,
    power: float,
) -> OwnerView:
    """Keep both focal points; recompute angles from the frozen geometry
    and the delay from the owner's own end-to-end path length.

    The delay reuses the cluster's signed interior length so that the
    generating position is an exact fixed point; the result is floored
    at zero.
    """
    view = _verbatim_view(cluster, owner_id, MODE_KEPT_FOCAL, power)
    if _at_generator(cluster, owner_pos, layout):
        return view

    geometry = cluster.geometry
    aod_az, aod_el = angles_from_vector(geometry.fbs - layout.array.subarray_centers)
    aoa_az, aoa_el = angles_from_vector(geometry.lbs - owner_pos)

    ref = layout.array.reference_subarray()
    e_ref = float(geometry.e_len_m[ref.index])
    g_len = math.dist(owner_pos, geometry.lbs)
    direct = math.dist(owner_pos, ref.center)
    delay = (e_ref + geometry.interior_raw_m + g_len - direct) / SPEED_OF_LIGHT_M_S
    delay = max(0.0, delay)

    return replace(
        view,
        delay_s=delay,
        aoa_az_deg=aoa_az,
        aoa_el_deg=aoa_el,
        aod_az_deg=aod_az,
        aod_el_deg=aod_el,
    )


def share_clusters(cluster_set: ClusterSet, layout: UserLayout) -> OwnerViews:
    """One view per (owner, cluster), all verbatim copies of the stored
    parameters; non-generators still carry their own normalized power."""
    views: dict[tuple[int, int], OwnerView] = {}
    for user_id, cluster_ids in cluster_set.by_user.items():
        for cluster_id in cluster_ids:
            cluster = cluster_set.clusters[cluster_id]
            mode = MODE_GENERATOR if user_id == cluster.generating_user else "shared"
            views[(user_id, cluster_id)] = _verbatim_view(
                cluster, user_id, mode, cluster_set.effective_power(user_id, cluster_id)
            )
    return OwnerViews(
        segment_index=cluster_set.segment_index,
        views=views,
        by_user=dict(cluster_set.by_user),
    )


def recalculate_views(
    shared: OwnerViews,
    cluster_set: ClusterSet,
    layout: UserLayout,
    segment_length_m: float,
) -> OwnerViews:
    """Resolve every non-generating view through its recalculation mode.

    Zero-excess-delay clusters always keep their focal points: their
    collapsed geometry cannot support a re-solve (there is no excess path
    to distribute), and the focal points are the physically meaningful
    part of such a cluster.
    """
    views: dict[tuple[int, int], OwnerView] = {}
    for (user_id, cluster_id), view in shared.views.items():
        cluster = cluster_set.clusters[cluster_id]
        if user_id == cluster.generating_user:
            views[(user_id, cluster_id)] = view
            continue
        owner_pos = layout.segment_start_position(user_id, shared.segment_index)
        if cluster.boresight:
            mode = MODE_KEPT_FOCAL
        else:
            mode = choose_recalc_mode(cluster, owner_pos, segment_length_m)
        if mode == MODE_KEPT_FOCAL:
            views[(user_id, cluster_id)] = recalc_kept_focal_point(
                cluster, user_id, owner_pos, layout, view.power
            )
        else:
            views[(user_id, cluster_id)] = recalc_kept_parameters(
                cluster, user_id, owner_pos, layout, view.power
            )
    return OwnerViews(
        segment_index=shared.segment_index, views=views, by_user=dict(shared.by_user)
    )
