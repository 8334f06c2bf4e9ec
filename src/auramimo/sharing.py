"""Per-owner materialization of shared clusters.

Every cluster has one view per owner (`ClusterSet.by_user`), each built
once, and the views hold the focal points. `share_clusters` builds every
cluster's generator view from its parameters and geometry.
`recalculate_views` adds the joining owners' views, copies of generator
views, in one pass and returns the segment's one `OwnerViews`: joining
views either keep the generated parameters and re-solve both focal
points from their own position (kept-parameters, for far clusters), or
keep the generator's focal points verbatim (kept-focal-point, for
zero-excess-delay clusters and for clusters within three segment lengths
of the joining owner). Views check themselves when built. A view holds
no delay and no angle: synthesis computes the path its focal points fix,
and the tables read the delay from the tensor and the angles from the
focal points.

A joining owner standing exactly at the generating user's position gets
a verbatim copy in kept-parameters mode too: re-solving is a fixed point
there, and copying keeps the equality bit-exact instead of
round-trip-rounded."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .clustergen import ClusterGeometry, ClusterSet
from .errors import DegenerateGeometry, IncompleteViews
from .geom import read_only
from .layout import UserLayout
from .spherical import solve_cluster_geometry

MODE_GENERATOR = "generator"
MODE_KEPT_PARAMETERS = "kept-parameters"
MODE_KEPT_FOCAL = "kept-focal-point"


@dataclass(frozen=True)
class OwnerView:
    """Effective cluster parameters as seen by one owner; the geometry
    fields are those of `ClusterGeometry`, and every array is read-only.
    A view without focal points is IncompleteViews."""

    user_id: int
    cluster_id: int
    recalc_mode: str
    power: float
    lbs: np.ndarray
    fbs: np.ndarray
    e_len_m: np.ndarray
    interior_raw_m: float

    def __post_init__(self) -> None:
        if self.lbs is None or self.fbs is None or self.e_len_m is None:
            raise IncompleteViews(
                f"view (user {self.user_id}, cluster {self.cluster_id}) has no focal points"
            )
        for a in (self.lbs, self.fbs, self.e_len_m):
            read_only(a)


@dataclass(frozen=True)
class OwnerViews:
    """A segment's owner views, keyed (user, cluster) in sorted order; owners
    are `ClusterSet.by_user`. Empty, or uneven across users, is IncompleteViews."""

    segment_index: int
    views: dict[tuple[int, int], OwnerView] = field(repr=False)

    def __post_init__(self) -> None:
        counts = set(Counter(u for u, _ in self.views).values())
        if not counts:
            raise IncompleteViews(f"segment {self.segment_index} has no owner views")
        if len(counts) != 1:
            raise IncompleteViews(f"users disagree on cluster count: {sorted(counts)}")


def choose_recalc_mode(
    boresight: bool, lbs: np.ndarray, owner_pos: np.ndarray, segment_length_m: float
) -> str:
    """Kept-focal-point iff the cluster has zero excess delay (boresight:
    its collapsed geometry has no excess path to re-solve) or its
    receiver-side focal point `lbs` lies strictly within three segment
    lengths of the joining owner."""
    if boresight or math.dist(lbs, owner_pos) < 3.0 * segment_length_m:
        return MODE_KEPT_FOCAL
    return MODE_KEPT_PARAMETERS


def share_clusters(
    cluster_set: ClusterSet, geometries: dict[int, ClusterGeometry]
) -> dict[int, OwnerView]:
    """Every cluster's generator view, keyed by cluster id: its parameters,
    the generating user's normalized power and its entry of `geometries` (as
    from `spherical.attach_focal_points`); a missing entry is IncompleteViews."""
    ids, users = cluster_set.cluster_id.tolist(), cluster_set.generating_user.tolist()
    missing = [c for c in ids if c not in geometries]
    if missing:
        raise IncompleteViews(f"cluster {missing[0]} has no focal points")
    return {
        cluster_id: OwnerView(
            user_id=user_id,
            cluster_id=cluster_id,
            recalc_mode=MODE_GENERATOR,
            power=power,
            **geometries[cluster_id]._asdict(),
        )
        for cluster_id, user_id, power in zip(ids, users, cluster_set.effective_power(users, ids))
    }


def recalculate_views(
    shared: dict[int, OwnerView], cluster_set: ClusterSet, layout: UserLayout
) -> OwnerViews:
    """The segment's owner views: the generator views of `shared`, by cluster
    id (IncompleteViews if one is missing), and one per joining owner, in one pass.

    Each pair's view is its cluster's generator view with the owner, its
    mode from `choose_recalc_mode` and its power. Kept-parameters owners
    that moved off the generating user's position re-solve their focal
    points, every such pair in one `solve_cluster_geometry` call.
    """
    segment = layout.segments[cluster_set.segment_index]
    position = layout.segment_start_position
    keys = [(u, c) for u, ids in sorted(cluster_set.by_user.items()) for c in ids]
    missing = sorted({c for _, c in keys} - shared.keys())
    if missing:
        raise IncompleteViews(f"cluster {missing[0]} has no generator view")
    joining = [(u, c) for u, c in keys if u != shared[c].user_id]
    users, ids = [u for u, _ in joining], [c for _, c in joining]
    rows = cluster_set.rows(ids)
    generator_views = [shared[c] for c in ids]
    owners = np.array([position(u, segment.index) for u in users]).reshape(-1, 3)
    generators = [position(g.user_id, segment.index) for g in generator_views]
    moved = (owners != np.reshape(generators, (-1, 3))).any(axis=1).tolist()
    modes = [
        choose_recalc_mode(b, g.lbs, o, segment.length_m)
        for b, g, o in zip(cluster_set.boresight[rows].tolist(), generator_views, owners)
    ]
    resolve = [i for i, m in enumerate(modes) if moved[i] and m == MODE_KEPT_PARAMETERS]
    powers = cluster_set.effective_power(users, ids)
    fields = [dict(user_id=u, recalc_mode=m, power=p) for u, m, p in zip(users, modes, powers)]

    if resolve:
        geometries, degenerate = solve_cluster_geometry(
            cluster_set, rows[resolve], owners[resolve], layout.array
        )
        if degenerate.any():
            i = resolve[int(np.argmax(degenerate))]
            raise DegenerateGeometry(
                f"cluster {joining[i][1]}: no focal points from owner {joining[i][0]}"
            )
        for i, g in zip(resolve, geometries):
            fields[i].update(g._asdict())

    built = {key: replace(v, **f) for key, v, f in zip(joining, generator_views, fields)}
    views = {key: built.get(key, shared[key[1]]) for key in keys}
    return OwnerViews(segment_index=cluster_set.segment_index, views=views)
