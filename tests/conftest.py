"""Shared fixtures and layout builders for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from auramimo import (
    ChannelTensor,
    ClusterRow,
    ClusterSet,
    OwnerView,
    OwnerViews,
    RunConfig,
    SPEED_OF_LIGHT_M_S,
    ScenarioConfig,
    build_layout,
    linear_track,
    synthesize,
    uniform_linear_array,
)


def make_scenario(**overrides) -> ScenarioConfig:
    params = dict(
        delay_spread_median_s=1e-7,
        delay_spread_log_std=0.3,
        aoa_spread_median_deg=40.0,
        aoa_spread_log_std=0.2,
        aod_spread_median_deg=20.0,
        aod_spread_log_std=0.2,
        eoa_spread_median_deg=5.0,
        eoa_spread_log_std=0.2,
        eod_spread_median_deg=3.0,
        eod_spread_log_std=0.2,
        shadow_std_db=3.0,
        r_tau=2.5,
        clusters_per_user=7,
        carrier_hz=3.5e9,
        correlation_distance_m=50.0,
        cluster_angle_spread_deg=3.0,
    )
    params.update(overrides)
    return ScenarioConfig(**params)


def make_two_user_layout(
    separation_m: float,
    *,
    stationarity_m: float = 5.0,
    n_snapshots: int = 4,
    snapshot_spacing_m: float = 0.5,
    n_elements: int = 64,
    element_spacing_m: float = 0.05,
    bs_stationarity_m: float = 0.8,
    start_x: float = 30.0,
):
    """Two users on parallel tracks (heading +y), given start separation."""
    tracks = [
        linear_track(
            1, (start_x, 0.0, 1.5), 90.0, n_snapshots, snapshot_spacing_m
        ),
        linear_track(
            2,
            (start_x + separation_m, 0.0, 1.5),
            90.0,
            n_snapshots,
            snapshot_spacing_m,
        ),
    ]
    elements = uniform_linear_array(
        n_elements, element_spacing_m, (0.0, 0.0, 10.0)
    )
    return build_layout(
        tracks,
        elements,
        stationarity_user_m=stationarity_m,
        bs_stationarity_m=bs_stationarity_m,
    )


def make_point_layout(
    positions_by_user: dict[int, tuple[float, float, float]],
    stationarity_m: float,
    *,
    n_elements: int = 8,
    element_spacing_m: float = 0.05,
    bs_stationarity_m: float = 10.0,
):
    """Static single-snapshot users at explicit positions (one segment)."""
    tracks = [
        linear_track(u, xyz, 0.0, 1, 0.5)
        for u, xyz in sorted(positions_by_user.items())
    ]
    elements = uniform_linear_array(
        n_elements, element_spacing_m, (0.0, 0.0, 10.0)
    )
    return build_layout(
        tracks,
        elements,
        stationarity_user_m=stationarity_m,
        bs_stationarity_m=bs_stationarity_m,
    )


def make_random_config(seed: int) -> RunConfig:
    """One random layout of 2-4 segments, the last one shorter in most:
    2-5 users, some exactly co-located with an earlier user, the others
    within 1.6 aura radii of one; half of the layouts have segments of
    0.5-1.5 m, short enough that joining owners re-solve
    (kept-parameters)."""
    rng = np.random.default_rng([7, seed])
    spacing = 0.5
    stationarity = float(rng.choice([0.5, 1.0, 1.5, 3.0, 5.0, 8.0]))
    per_segment = max(1, int(stationarity / spacing))
    n_snapshots = per_segment * int(rng.integers(2, 4)) + int(rng.integers(per_segment))
    starts = [(rng.uniform(15.0, 60.0), rng.uniform(-20.0, 20.0))]
    for _ in range(int(rng.integers(1, 5))):
        x, y = starts[int(rng.integers(len(starts)))]
        if rng.random() >= 0.3:
            radius, bearing = rng.uniform(0.0, 1.6 * stationarity), rng.uniform(0, 2 * np.pi)
            x, y = x + radius * np.cos(bearing), y + radius * np.sin(bearing)
        starts.append((x, y))
    heading = float(rng.uniform(-180.0, 180.0))
    tracks = [
        linear_track(u + 1, (x, y, 1.5), heading, n_snapshots, spacing)
        for u, (x, y) in enumerate(starts)
    ]
    elements = uniform_linear_array(int(rng.integers(4, 40)), 0.05, (0.0, 0.0, 10.0))
    layout = build_layout(
        tracks,
        elements,
        stationarity_user_m=stationarity,
        bs_stationarity_m=float(rng.uniform(0.1, 1.0)),
    )
    return RunConfig(
        scenario=make_scenario(clusters_per_user=int(rng.integers(2, 8))),
        layout=layout,
        seed=seed,
        out_dir="unused",
        out_format="binary",
    )


def owners(cluster_set, cluster_id: int) -> tuple[int, ...]:
    """The users who own a cluster, ascending, read from `by_user`."""
    return tuple(u for u, ids in sorted(cluster_set.by_user.items()) if cluster_id in ids)


def cluster_columns(rows, *, by_user=None, power_denominator=None) -> ClusterSet:
    """A segment-0 `ClusterSet` whose rows are `rows`, `ClusterRow`s in
    ascending id order."""
    columns = {name: np.array([getattr(r, name) for r in rows]) for name in ClusterRow._fields}
    by_user, denominator = by_user or {}, power_denominator or {}
    return ClusterSet(segment_index=0, by_user=by_user, power_denominator=denominator, **columns)


def views_from_rows(rows, segment_index: int = 0) -> OwnerViews:
    """The `OwnerViews` whose slots are `rows`, `OwnerView`s in slot order:
    users ascending, each user's clusters ascending."""
    users = list(dict.fromkeys(r.user_id for r in rows))
    columns = {}
    for name in OwnerView._fields[1:]:
        column = np.array([getattr(r, name) for r in rows])
        columns[name] = column.reshape(len(users), -1, *column.shape[1:])
    return OwnerViews(segment_index=segment_index, user_id=np.array(users), **columns)


def view_users(views) -> tuple[int, ...]:
    """The users of an `OwnerViews`, ascending."""
    return tuple(sorted({u for u, _ in views.views}))


def subarray_sizes(array) -> list[int]:
    """Elements per sub-array of an `ArrayGeometry`, from its starts."""
    return np.diff([*array.subarray_starts, array.n_elements]).tolist()


def user_views(views, user: int) -> list:
    """One user's views, by ascending cluster id: the user's slot order
    in synthesis."""
    return [v for (u, _), v in sorted(views.views.items()) if u == user]


def synthesize_segment(views, layout, carrier_hz, seed, **kwargs) -> ChannelTensor:
    """One segment's channel: allocates the (coefficients, delays) arrays,
    has `synthesize` fill them and returns them as a checked tensor."""
    users = view_users(views)
    n_clusters = max((len(user_views(views, u)) for u in users), default=0)
    n_snap = layout.segments[views.segment_index].n_snapshots
    coefficients = np.empty(
        (len(users), 1, layout.array.n_elements, n_clusters, n_snap), complex
    )
    delays = np.empty((len(users), n_clusters, n_snap))
    synthesize(views, layout, carrier_hz, seed, out=(coefficients, delays), **kwargs)
    return ChannelTensor(
        user_ids=users,
        coefficients=coefficients,
        delays=delays,
        carrier_hz=carrier_hz,
        seed=seed,
    )


def view_excess_delays(views, layout) -> dict[tuple[int, int], float]:
    """Each view's synthesized delay at the segment's first snapshot less
    |rx0 - reference sub-array centre| / c, by (user, cluster id), one
    view at a time: the delay the tables write. One scatterer suffices, as
    the delay is the centre path's."""
    tensor = synthesize_segment(views, layout, 3.5e9, seed=0, n_scatterers=1)
    ref_center = layout.array.subarray_centers[layout.array.reference_subarray]
    excess = {}
    for k, user in enumerate(tensor.user_ids):
        rx0 = layout.segment_start_position(user, views.segment_index)
        direct = math.dist(rx0, ref_center) / SPEED_OF_LIGHT_M_S
        for c, view in enumerate(user_views(views, user)):
            excess[user, view.cluster_id] = float(tensor.delays[k, c, 0]) - direct
    return excess


@pytest.fixture
def scenario() -> ScenarioConfig:
    return make_scenario()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250818)
