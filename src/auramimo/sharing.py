"""Per-owner materialization of shared clusters.

A segment's owner views are the read-only columns of one `OwnerViews`:
slot (k, c) holds user k's view of its c-th cluster (users and each
user's cluster ids ascending, as in `ClusterSet.by_user`), the run
tensor's slot, and names its row of the views' one `ClusterGeometry`.
`share_clusters` names each slot's cluster row; `recalculate_views` gives
each slot its mode and power. Joining views either keep the generated
parameters and re-solve both focal points from their own position
(kept-parameters, for far clusters: a row appended per slot), or keep the
generator's row (kept-focal-point, for zero-excess-delay clusters and for
clusters within three segment lengths of the joining owner). A view holds
no delay and no angle: synthesis computes the path its focal points fix,
and the tables read the delay from the tensor and the angles from them.

A joining owner standing exactly at the generating user's position keeps
the generator's row in kept-parameters mode too: re-solving is a fixed
point there, and sharing the row keeps the equality bit-exact instead of
round-trip-rounded."""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .clustergen import ClusterGeometry, ClusterSet
from .errors import DegenerateGeometry, IncompleteViews
from .geom import read_only
from .layout import UserLayout
from .spherical import solve_cluster_geometry

MODE_GENERATOR = "generator"
MODE_KEPT_PARAMETERS = "kept-parameters"
MODE_KEPT_FOCAL = "kept-focal-point"


class OwnerView(NamedTuple):
    """One slot of an `OwnerViews` as a row, with its columns' names; only
    `OwnerViews.views` builds them."""

    user_id: int
    cluster_id: int
    recalc_mode: str
    power: float
    lbs: np.ndarray
    fbs: np.ndarray
    e_len_m: np.ndarray
    interior_raw_m: float


@dataclass(frozen=True, eq=False)
class OwnerViews:
    """A segment's owner views as read-only columns: the user ids (U,),
    ascending; per slot the cluster id, mode, power and `geometry` row
    (U, C); and the focal geometries, G rows. No views, a slot column not
    leading with (U, C), a slot naming no row or geometry columns of
    unequal length is IncompleteViews."""

    segment_index: int
    user_id: np.ndarray
    cluster_id: np.ndarray
    recalc_mode: np.ndarray
    power: np.ndarray
    slot_geometry: np.ndarray
    geometry: ClusterGeometry

    def __post_init__(self) -> None:
        if not self.cluster_id.size:
            raise IncompleteViews(f"segment {self.segment_index} has no owner views")
        shape = (len(read_only(self.user_id)), self.cluster_id.shape[-1])
        for name in ("cluster_id", "recalc_mode", "power", "slot_geometry"):
            got = read_only(getattr(self, name)).shape[:2]
            if got != shape:
                raise IncompleteViews(f"{name} has leading shape {got}, not (U, C) = {shape}")
        n_rows = {len(read_only(column)) for column in self.geometry}
        if len(n_rows) != 1:
            raise IncompleteViews(f"geometry columns have unequal lengths {sorted(n_rows)}")
        n_rows, rows = n_rows.pop(), self.slot_geometry
        if rows.dtype.kind not in "iu" or ((rows < 0) | (rows >= n_rows)).any():
            raise IncompleteViews(f"a slot names no row of the {n_rows} geometry rows")

    @cached_property
    def views(self) -> Mapping[tuple[int, int], OwnerView]:
        """Every slot's row by (user, cluster id), in slot order, with its
        geometry row gathered, read-only and built on first use: the run
        reads the columns."""
        users, slots = np.repeat(self.user_id, self.cluster_id.shape[1]), self.slot_geometry.ravel()
        columns = [getattr(self, name).ravel() for name in OwnerView._fields[1:4]]
        flat = [users, *columns, *(read_only(column[slots]) for column in self.geometry)]
        rows = zip(*(c if c.ndim > 1 else c.tolist() for c in flat))
        return MappingProxyType({row[:2]: OwnerView(*row) for row in rows})


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


def share_clusters(cluster_set: ClusterSet) -> np.ndarray:
    """Every slot's cluster row, (U, C): slot (k, c) holds the row of user
    k's c-th cluster, and so of its geometry from
    `spherical.attach_focal_points`."""
    return cluster_set.rows(list(cluster_set.by_user.values()))


def recalculate_views(
    rows: np.ndarray, geometry: ClusterGeometry, cluster_set: ClusterSet, layout: UserLayout
) -> OwnerViews:
    """The segment's owner views, from each slot's cluster row `rows` (as
    from `share_clusters`) and the clusters' generator `geometry`.

    A generating user's slot keeps its cluster's row; a joining owner's
    gets its mode from `choose_recalc_mode`, one row at a time. Every slot's
    power is its cluster's renormalized for the owner. Kept-parameters
    owners that moved off the generating user's position re-solve their
    focal points in one `solve_cluster_geometry` call, a row per slot in
    slot order after the clusters' rows.
    """
    segment = layout.segments[cluster_set.segment_index]
    users, ids = list(cluster_set.by_user), cluster_set.cluster_id[rows]
    positions = np.array([layout.segment_start_position(u, segment.index) for u in users])
    # Each slot's generating user, as a row of `users`.
    generators = np.searchsorted(users, cluster_set.generating_user[rows])
    joining = generators != np.arange(len(users))[:, None]
    boresight, owners = cluster_set.boresight[rows[joining]].tolist(), np.nonzero(joining)[0]
    modes = np.full(ids.shape, MODE_GENERATOR, dtype=object)
    modes[joining] = [
        choose_recalc_mode(b, lbs, positions[k], segment.length_m)
        for b, lbs, k in zip(boresight, geometry.lbs[rows[joining]], owners)
    ]
    moved = (positions[:, None] != positions[generators]).any(axis=-1)
    resolve = moved & (modes == MODE_KEPT_PARAMETERS)

    slot_geometry = rows.copy()
    if resolve.any():
        owners = np.nonzero(resolve)[0]
        solved, degenerate = solve_cluster_geometry(
            cluster_set, rows[resolve], positions[owners], layout.array
        )
        if degenerate.any():
            i = int(np.argmax(degenerate))
            raise DegenerateGeometry(
                f"cluster {ids[resolve][i]}: no focal points from owner {users[owners[i]]}"
            )
        slot_geometry[resolve] = len(geometry.lbs) + np.arange(len(owners))
        geometry = ClusterGeometry._make(map(np.concatenate, zip(geometry, solved)))

    denominators = [cluster_set.power_denominator[u] for u in users]
    return OwnerViews(
        segment_index=cluster_set.segment_index,
        user_id=np.array(users),
        cluster_id=ids,
        recalc_mode=modes,
        power=cluster_set.power_raw[rows] / np.reshape(denominators, (-1, 1)),
        slot_geometry=slot_geometry,
        geometry=geometry,
    )
