"""Initial cluster parameters: delays, powers, arrival and per-sub-array
departure angles, generated per sharing group from one member's LSPs.

A segment's clusters are the read-only columns of one `ClusterSet`, a row
per cluster in ascending id order. Each group draws from its own RNG
stream, keyed by (segment, group), so groups can be generated in any
order without changing a single draw. The arithmetic on the raw draws
(power profile and shadowing, angle magnitudes and signs, wrapping and
clipping) is elementwise, so it runs once per segment over every group's
draws. Focal points belong to the owner views the sharing module builds
from the columns.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import InvalidScenario
from .geom import SPEED_OF_LIGHT_M_S, clip_elevation_deg, read_only, wrap_azimuth_deg
from .grouping import ShareTable
from .layout import UserLayout
from .lsp import STREAM_CLUSTERS, LspDraw, ScenarioConfig


class ClusterGeometry(NamedTuple):
    """Focal points and path lengths of clusters, each seen from one user
    position, as columns of a common leading shape S: the LBS S + (3,),
    one FBS per sub-array S + (A, 3), the departure leg lengths S + (A,)
    and the signed interior leg S. `spherical.solve_cluster_geometry`
    returns those of n clusters (S = (n,)); `sharing.share_clusters`
    gathers them into (user, cluster) slots (S = (U, C)). A boresight
    cluster has both focal points at the user, direct-path legs and no
    interior."""

    lbs: np.ndarray
    fbs: np.ndarray
    e_len_m: np.ndarray
    interior_raw_m: np.ndarray


class ClusterRow(NamedTuple):
    """One row of a `ClusterSet`'s columns, with the columns' names."""

    cluster_id: int
    generating_user: int
    tau_s: float
    power_raw: float
    aoa_az_deg: float
    aoa_el_deg: float
    aod_az_deg: np.ndarray
    aod_el_deg: np.ndarray
    boresight: bool


@dataclass(frozen=True, eq=False)
class ClusterSet:
    """All clusters of one segment as read-only columns, a row per cluster
    in ascending id order: the id, the generating user, the excess delay,
    the within-group power share (divided by `power_denominator[u]`, it
    sums to 1 over user u's clusters), the arrival azimuth and elevation
    (C,), one departure azimuth and elevation per sub-array (C, A) and the
    boresight flag. Focal points depend on where a cluster is seen from,
    so the owner views (`sharing.OwnerViews`) hold them. `by_user` maps
    each user, ascending, to its cluster ids, ascending: the one record of
    who owns which cluster."""

    segment_index: int
    cluster_id: np.ndarray
    generating_user: np.ndarray
    tau_s: np.ndarray
    power_raw: np.ndarray
    aoa_az_deg: np.ndarray
    aoa_el_deg: np.ndarray
    aod_az_deg: np.ndarray
    aod_el_deg: np.ndarray
    boresight: np.ndarray
    by_user: dict[int, tuple[int, ...]] = field(repr=False)
    power_denominator: dict[int, float] = field(repr=False)

    def __post_init__(self) -> None:
        for name in ClusterRow._fields:
            read_only(getattr(self, name))

    def rows(self, cluster_ids) -> np.ndarray:
        """The row of each of `cluster_ids`, clusters of this set."""
        return np.searchsorted(self.cluster_id, cluster_ids)

    @cached_property
    def clusters(self) -> Mapping[int, ClusterRow]:
        """Every row by cluster id, read-only and built on first use: the
        run reads the columns."""
        columns = [getattr(self, name) for name in ClusterRow._fields]
        rows = zip(*(c if c.ndim > 1 else c.tolist() for c in columns))
        return MappingProxyType({row[0]: ClusterRow(*row) for row in rows})


def gen_delays(n: int, sigma_tau_s: float, r_tau: float, rng) -> np.ndarray:
    """n excess delays: exponential draws with scale r_tau * sigma_tau,
    sorted ascending, shifted so the first is exactly 0; InvalidScenario if
    the longest path overflows when squared (`spherical.solve_focal_lengths`)."""
    if n < 1:
        raise ValueError("need at least one cluster")
    with np.errstate(all="ignore"):  # an infinite scale draws inf - inf = NaN
        raw = rng.exponential(scale=r_tau * sigma_tau_s, size=n)
        raw.sort()
        delays = raw - raw[0]
    path = float(delays[-1]) * SPEED_OF_LIGHT_M_S
    if not path * path < np.inf:
        keys = f"r_tau {r_tau!r} and delay_spread_median_s draw"
        raise InvalidScenario(f"{keys} an excess path of {path!r} m, whose square overflows")
    return delays


def group_powers(
    delays: np.ndarray, sigma_tau_s, shadow_db: np.ndarray, counts, scenario: ScenarioConfig
) -> np.ndarray:
    """Exponentially decaying powers with log-normal shadowing (dB draws
    `shadow_db`), normalized to sum 1 within each group: the runs of
    `counts` entries, with `sigma_tau_s` per entry or one for all.
    InvalidScenario if the shadowing leaves float range."""
    r_tau = scenario.r_tau
    with np.errstate(all="ignore"):
        p = np.exp(-delays * (r_tau - 1.0) / (r_tau * sigma_tau_s)) * 10.0 ** (
            -shadow_db / 10.0
        )
    ends = np.cumsum(counts).tolist()
    totals = np.array([p[start:end].sum() for start, end in zip([0, *ends], ends)])
    if not np.all((0.0 < totals) & (totals < np.inf)):  # inf, NaN (0 * inf) or 0
        std = scenario.shadow_std_db
        raise InvalidScenario(f"shadow_std_db {std!r}: powers do not normalize")
    return p / np.repeat(totals, counts)


def angle_draws(
    shape, sigma_az_deg: float, sigma_el_deg: float, rng
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The raw draws of (azimuth, elevation) pairs of `shape`, in draw
    order: Gaussian azimuth magnitudes (std sigma_az), sign bits, Gaussian
    elevations (std sigma_el)."""
    return (
        rng.normal(0.0, sigma_az_deg, size=shape),
        rng.integers(0, 2, size=shape),
        rng.normal(0.0, sigma_el_deg, size=shape),
    )


def angles_from_draws(magnitude, sign_bit, elevation) -> tuple[np.ndarray, np.ndarray]:
    """(azimuth, elevation) in degrees from `angle_draws`: the magnitude
    with a random sign (so N(0, sigma) in law), wrapped to (-180, 180];
    the elevation clipped to [-90, 90]."""
    azimuth = wrap_azimuth_deg((sign_bit * 2 - 1) * np.abs(magnitude))
    return azimuth, clip_elevation_deg(elevation)


def group_rng(seed: int, segment_index: int, group_row: int) -> np.random.Generator:
    """The RNG stream of one sharing group; keyed, not sequential."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(STREAM_CLUSTERS, segment_index, group_row))
    )


def assemble_clusters(
    share_table: ShareTable,
    lsp_draw: LspDraw,
    layout: UserLayout,
    scenario: ScenarioConfig,
    seed: int,
) -> ClusterSet:
    """Generate every group's clusters from a uniformly chosen member's LSPs.

    Per group, in its own RNG stream, the draw order is: generating user
    (multi-user groups only), delays, shadowing, arrival angles, then per
    cluster the per-sub-array departure angles (`angle_draws`). Powers
    are group-normalized; `ClusterSet.power_denominator` renormalizes
    them for each owner. The arithmetic on the draws is one pass
    over the segment.
    """
    n_subarrays = layout.array.n_subarrays
    segment_index = share_table.segment_index
    members: dict[int, list[int]] = {}
    ids, counts, generators, sigma_tau, delays, shadow, arrival, departure = ([] for _ in range(8))

    for group_row, group in enumerate(share_table.groups):
        for u in group.members:
            members.setdefault(u, []).extend(group.cluster_ids)
        if group.count == 0:
            continue
        rng = group_rng(seed, segment_index, group_row)
        if len(group.members) == 1:
            generator = group.members[0]
        else:
            generator = group.members[int(rng.integers(len(group.members)))]
        lsp = lsp_draw.of(generator, segment_index)

        delays.append(gen_delays(group.count, lsp.sigma_tau_s, scenario.r_tau, rng))
        shadow.append(rng.normal(0.0, scenario.shadow_std_db, size=group.count))
        arrival.append(angle_draws(group.count, lsp.sigma_aoa_deg, lsp.sigma_eoa_deg, rng))
        for _ in range(group.count):
            departure.append(angle_draws(n_subarrays, lsp.sigma_aod_deg, lsp.sigma_eod_deg, rng))
        ids += group.cluster_ids
        counts.append(group.count)
        generators.append(generator)
        sigma_tau.append(lsp.sigma_tau_s)

    tau = np.concatenate(delays)
    sigma_tau = np.repeat(sigma_tau, counts)
    powers = group_powers(tau, sigma_tau, np.concatenate(shadow), counts, scenario)
    aoa = angles_from_draws(*map(np.concatenate, zip(*arrival)))
    aod = angles_from_draws(*map(np.array, zip(*departure)))
    # Drawn group by group; stored by ascending id.
    order = np.argsort(ids)
    columns = dict(
        cluster_id=np.array(ids),
        generating_user=np.repeat(generators, counts),
        tau_s=tau,
        power_raw=powers,
        aoa_az_deg=aoa[0],
        aoa_el_deg=aoa[1],
        aod_az_deg=aod[0],
        aod_el_deg=aod[1],
        boresight=tau == 0.0,
    )
    columns = {name: column[order] for name, column in columns.items()}

    # Ascending ids: each denominator is Python's left-to-right sum in that order.
    by_user = {u: tuple(sorted(ids)) for u, ids in sorted(members.items())}
    power = dict(zip(columns["cluster_id"].tolist(), columns["power_raw"].tolist()))
    denominator = {u: float(sum(power[c] for c in ids)) for u, ids in by_user.items()}
    return ClusterSet(
        segment_index=segment_index, by_user=by_user, power_denominator=denominator, **columns
    )
