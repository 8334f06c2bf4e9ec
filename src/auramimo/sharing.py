"""Per-owner materialization of shared clusters.

Every cluster has one view per owner (`ClusterSet.by_user`), each built
once. `share_clusters` copies every cluster verbatim for its generating
user. `recalculate_views` adds the joining owners' views in one pass
per segment: they either keep the generated parameters and re-solve both
focal points from their own position (kept-parameters, for far
clusters), or keep the focal points and read angles and delay off the
fixed geometry (kept-focal-point, for zero-excess-delay clusters and for
clusters within three segment lengths of the joining owner).

A joining owner standing exactly at the generating user's position gets
a verbatim copy in either mode: both rules are fixed points there, and
copying keeps the equality bit-exact instead of round-trip-rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clustergen import Cluster, ClusterSet
from .errors import DegenerateGeometry, IncompleteViews
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

    def __post_init__(self) -> None:
        for a in (self.aod_az_deg, self.aod_el_deg, self.lbs, self.fbs, self.e_len_m):
            if a is not None:
                read_only(a)


@dataclass(frozen=True)
class OwnerViews:
    """All owner views of one segment, keyed (user, cluster) in sorted
    order; which user owns which cluster is `ClusterSet.by_user`."""

    segment_index: int
    views: dict[tuple[int, int], OwnerView] = field(repr=False, default_factory=dict)


def _view(cluster: Cluster, user_id: int, mode: str, power: float, **fields) -> OwnerView:
    """`cluster` as `user_id` sees it: its stored parameters and focal
    points, with `fields` in place of the recalculated ones."""
    if cluster.geometry is None:
        raise IncompleteViews(f"cluster {cluster.cluster_id} has no focal points")
    stored = dict(
        delay_s=cluster.tau_s,
        aoa_az_deg=cluster.aoa_az_deg,
        aoa_el_deg=cluster.aoa_el_deg,
        aod_az_deg=cluster.aod_az_deg,
        aod_el_deg=cluster.aod_el_deg,
        **cluster.geometry._asdict(),
    )
    return OwnerView(
        user_id=user_id,
        cluster_id=cluster.cluster_id,
        recalc_mode=mode,
        power=power,
        **(stored | fields),
    )


def choose_recalc_mode(
    cluster: Cluster, owner_pos: np.ndarray, segment_length_m: float
) -> str:
    """Kept-focal-point iff the cluster has zero excess delay (boresight:
    its collapsed geometry has no excess path to re-solve) or its
    receiver-side focal point lies strictly within three segment lengths
    of the joining owner."""
    if cluster.boresight:
        return MODE_KEPT_FOCAL
    if math.dist(cluster.geometry.lbs, owner_pos) < 3.0 * segment_length_m:
        return MODE_KEPT_FOCAL
    return MODE_KEPT_PARAMETERS


def share_clusters(cluster_set: ClusterSet, layout: UserLayout) -> OwnerViews:
    """Every cluster's generator view: a verbatim copy of the stored
    parameters with the generating user's normalized power."""
    keys = sorted((c.generating_user, c.cluster_id) for c in cluster_set.clusters.values())
    views = {
        (user_id, cluster_id): _view(
            cluster_set.clusters[cluster_id],
            user_id,
            MODE_GENERATOR,
            cluster_set.effective_power(user_id, cluster_id),
        )
        for user_id, cluster_id in keys
    }
    return OwnerViews(segment_index=cluster_set.segment_index, views=views)


def recalculate_views(
    shared: OwnerViews, cluster_set: ClusterSet, layout: UserLayout
) -> OwnerViews:
    """The generator views of `shared` plus one view for every joining
    (owner, cluster) pair of `cluster_set.by_user`, in one pass.

    Each pair takes its mode from `choose_recalc_mode`. Owners that moved
    off the generating user's position are recalculated: every
    kept-parameters pair in one `solve_cluster_geometry` call, every
    kept-focal-point pair in one angle pass, its delay from its own
    end-to-end path length. That delay reuses the cluster's signed
    interior length, so that the generating position is an exact fixed
    point, and is floored at zero.
    """
    segment = layout.segments[cluster_set.segment_index]
    position = layout.segment_start_position
    keys = [(u, c) for u, ids in sorted(cluster_set.by_user.items()) for c in ids]
    joining = [key for key in keys if key not in shared.views]
    clusters = [cluster_set.clusters[c] for _, c in joining]
    owners = np.array([position(u, segment.index) for u, _ in joining]).reshape(-1, 3)
    generators = [position(c.generating_user, segment.index) for c in clusters]
    moved = (owners != np.reshape(generators, (-1, 3))).any(axis=1).tolist()
    modes = [choose_recalc_mode(c, o, segment.length_m) for c, o in zip(clusters, owners)]
    resolve = [i for i, m in enumerate(modes) if moved[i] and m == MODE_KEPT_PARAMETERS]
    refocus = [i for i, m in enumerate(modes) if moved[i] and m == MODE_KEPT_FOCAL]
    fields: dict[int, dict] = {}

    if resolve:
        geometries, degenerate = solve_cluster_geometry(
            [clusters[i] for i in resolve], owners[resolve], layout.array
        )
        if degenerate.any():
            i = resolve[int(np.argmax(degenerate))]
            raise DegenerateGeometry(
                f"cluster {clusters[i].cluster_id}: no focal points from owner "
                f"{joining[i][0]}"
            )
        fields.update((i, g._asdict()) for i, g in zip(resolve, geometries))

    if refocus:
        kept = [clusters[i].geometry for i in refocus]
        departure = np.stack([g.fbs for g in kept]) - layout.array.subarray_centers
        arrival = np.stack([g.lbs for g in kept]) - owners[refocus]
        az, el = angles_from_vector(np.concatenate([departure, arrival[:, None]], axis=1))
        aoa_az, aoa_el = az[:, -1].tolist(), el[:, -1].tolist()
        ref = layout.array.reference_subarray
        for j, (i, g) in enumerate(zip(refocus, kept)):
            owner = owners[i]
            path = float(g.e_len_m[ref.index]) + g.interior_raw_m + math.dist(owner, g.lbs)
            delay = (path - math.dist(owner, ref.center)) / SPEED_OF_LIGHT_M_S
            fields[i] = dict(
                delay_s=max(0.0, delay),
                aoa_az_deg=aoa_az[j],
                aoa_el_deg=aoa_el[j],
                aod_az_deg=az[j, :-1],
                aod_el_deg=el[j, :-1],
            )

    power = cluster_set.effective_power
    built = {
        key: _view(cluster, key[0], mode, power(*key), **fields.get(i, {}))
        for i, (key, cluster, mode) in enumerate(zip(joining, clusters, modes))
    }
    views = shared.views | built
    return OwnerViews(
        segment_index=shared.segment_index, views={key: views[key] for key in keys}
    )
