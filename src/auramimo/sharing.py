"""Per-owner materialization of shared clusters.

A segment's owner views are the read-only columns of one `OwnerViews`:
slot (k, c) holds user k's view of its c-th cluster (users and each
user's cluster ids ascending, as in `ClusterSet.by_user`), the run
tensor's slot. `share_clusters` gathers every cluster's generator
geometry into each of its owners' slots. `recalculate_views` gives each
slot its mode and power and returns the segment's one `OwnerViews`:
joining views either keep the generated parameters and re-solve both
focal points from their own position (kept-parameters, for far
clusters), or keep the generator's focal points verbatim
(kept-focal-point, for zero-excess-delay clusters and for clusters within
three segment lengths of the joining owner). A view holds no delay and no
angle: synthesis computes the path its focal points fix, and the tables
read the delay from the tensor and the angles from the focal points.

A joining owner standing exactly at the generating user's position gets
a verbatim copy in kept-parameters mode too: re-solving is a fixed point
there, and copying keeps the equality bit-exact instead of
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
    ascending, and per slot the cluster id, mode, power and signed
    interior leg (U, C), the LBS (U, C, 3), one FBS per sub-array
    (U, C, A, 3) and the departure leg lengths (U, C, A). No views, or a
    column whose leading shape is not (U, C), is IncompleteViews."""

    segment_index: int
    user_id: np.ndarray
    cluster_id: np.ndarray
    recalc_mode: np.ndarray
    power: np.ndarray
    lbs: np.ndarray
    fbs: np.ndarray
    e_len_m: np.ndarray
    interior_raw_m: np.ndarray

    def __post_init__(self) -> None:
        if not self.cluster_id.size:
            raise IncompleteViews(f"segment {self.segment_index} has no owner views")
        shape = (len(read_only(self.user_id)), self.cluster_id.shape[-1])
        for name in OwnerView._fields[1:]:
            got = read_only(getattr(self, name)).shape[:2]
            if got != shape:
                raise IncompleteViews(f"{name} has leading shape {got}, not (U, C) = {shape}")

    @cached_property
    def views(self) -> Mapping[tuple[int, int], OwnerView]:
        """Every slot's row by (user, cluster id), in slot order, read-only
        and built on first use: the run reads the columns."""
        users = np.repeat(self.user_id, self.cluster_id.shape[1])
        columns = [getattr(self, name) for name in OwnerView._fields[1:]]
        flat = [users, *(c.reshape(len(users), *c.shape[2:]) for c in columns)]
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


def share_clusters(cluster_set: ClusterSet, geometry: ClusterGeometry) -> ClusterGeometry:
    """Every slot's generator geometry, leading shape (U, C): slot (k, c)
    holds the row of `geometry` (a row per cluster row, as from
    `spherical.attach_focal_points`) of user k's c-th cluster."""
    rows = cluster_set.rows(list(cluster_set.by_user.values()))
    return ClusterGeometry._make(column[rows] for column in geometry)


def recalculate_views(
    shared: ClusterGeometry, cluster_set: ClusterSet, layout: UserLayout
) -> OwnerViews:
    """The segment's owner views, from each slot's generator geometry
    `shared` (as from `share_clusters`).

    A generating user's slot keeps it; a joining owner's gets its mode
    from `choose_recalc_mode`, one row at a time. Every slot's power is
    its cluster's renormalized for the owner. Kept-parameters owners that
    moved off the generating user's position re-solve their focal points,
    every such slot in one `solve_cluster_geometry` call.
    """
    segment = layout.segments[cluster_set.segment_index]
    users, ids = list(cluster_set.by_user), np.array(list(cluster_set.by_user.values()))
    rows = cluster_set.rows(ids)
    positions = np.array([layout.segment_start_position(u, segment.index) for u in users])
    # Each slot's generating user, as a row of `users`.
    generators = np.searchsorted(users, cluster_set.generating_user[rows])
    joining = generators != np.arange(len(users))[:, None]
    boresight, owners = cluster_set.boresight[rows[joining]].tolist(), np.nonzero(joining)[0]
    modes = np.full(ids.shape, MODE_GENERATOR, dtype=object)
    modes[joining] = [
        choose_recalc_mode(b, lbs, positions[k], segment.length_m)
        for b, lbs, k in zip(boresight, shared.lbs[joining], owners)
    ]
    moved = (positions[:, None] != positions[generators]).any(axis=-1)
    resolve = moved & (modes == MODE_KEPT_PARAMETERS)

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
        shared = ClusterGeometry._make(column.copy() for column in shared)
        for column, new in zip(shared, solved):
            column[resolve] = new

    denominators = [cluster_set.power_denominator[u] for u in users]
    return OwnerViews(
        segment_index=cluster_set.segment_index,
        user_id=np.array(users),
        cluster_id=ids,
        recalc_mode=modes,
        power=cluster_set.power_raw[rows] / np.reshape(denominators, (-1, 1)),
        **shared._asdict(),
    )
