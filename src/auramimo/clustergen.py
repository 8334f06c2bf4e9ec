"""Initial cluster parameters: delays, powers, arrival and per-sub-array
departure angles, generated per sharing group from one member's LSPs.

Shared clusters are single objects referenced from every owner's list;
per-user parameter views are materialized later by the sharing module.
RNG streams are keyed by (segment, group) so groups can be generated in
any order or in parallel without changing a single draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geom import clip_elevation_deg, read_only, wrap_azimuth_deg
from .grouping import ShareTable
from .layout import UserLayout
from .lsp import STREAM_CLUSTERS, LspDraw, ScenarioConfig


class ClusterGeometry(NamedTuple):
    """Focal points and path lengths of one cluster seen from one user
    position, one per cluster of a `spherical.solve_cluster_geometry`
    call, as read-only arrays: the LBS (3,), one FBS per sub-array (A, 3),
    the departure leg lengths (A,) and the signed interior leg. A boresight
    cluster has both focal points at the user, direct-path legs and no
    interior. The field names are those of `sharing.OwnerView`."""

    lbs: np.ndarray
    fbs: np.ndarray
    e_len_m: np.ndarray
    interior_raw_m: float


@dataclass(frozen=True)
class Cluster:
    """One multipath cluster with per-sub-array departure parameters.

    `power_raw` is the within-group share; `ClusterSet.effective_power`
    renormalizes it for each owner. `geometry` (one LBS, A FBS and the
    path lengths) is None until `spherical.attach_focal_points` returns
    a copy with it. Every array it holds, the geometry's included, is
    read-only.
    """

    cluster_id: int
    segment_index: int
    owner_set: tuple[int, ...]
    generating_user: int
    tau_s: float
    power_raw: float
    aoa_az_deg: float
    aoa_el_deg: float
    aod_az_deg: np.ndarray
    aod_el_deg: np.ndarray
    boresight: bool = False
    geometry: ClusterGeometry | None = None

    def __post_init__(self) -> None:
        arrays = [self.aod_az_deg, self.aod_el_deg]
        if self.geometry is not None:
            arrays += [self.geometry.lbs, self.geometry.fbs, self.geometry.e_len_m]
        for a in arrays:
            if a is not None:
                read_only(a)

    @property
    def n_subarrays(self) -> int:
        return len(self.aod_az_deg)


@dataclass(frozen=True)
class ClusterSet:
    """All clusters of one segment plus per-user ordered membership."""

    segment_index: int
    clusters: dict[int, Cluster] = field(repr=False, default_factory=dict)
    by_user: dict[int, tuple[int, ...]] = field(repr=False, default_factory=dict)
    power_denominator: dict[int, float] = field(repr=False, default_factory=dict)

    def effective_power(self, user_id: int, cluster_id: int) -> float:
        """Cluster power renormalized so this user's powers sum to 1."""
        return self.clusters[cluster_id].power_raw / self.power_denominator[user_id]


def gen_delays(n: int, sigma_tau_s: float, r_tau: float, rng) -> np.ndarray:
    """n excess delays: exponential draws with scale r_tau * sigma_tau,
    sorted ascending, shifted so the first is exactly 0."""
    if n < 1:
        raise ValueError("need at least one cluster")
    raw = rng.exponential(scale=r_tau * sigma_tau_s, size=n)
    raw.sort()
    return raw - raw[0]


def gen_powers(
    delays: np.ndarray,
    sigma_tau_s: float,
    r_tau: float,
    shadow_std_db: float,
    rng,
) -> np.ndarray:
    """Exponentially decaying powers with per-cluster log-normal shadowing,
    normalized to sum 1."""
    delays = np.asarray(delays, dtype=float)
    shadow_db = rng.normal(0.0, shadow_std_db, size=delays.shape)
    p = np.exp(-delays * (r_tau - 1.0) / (r_tau * sigma_tau_s)) * 10.0 ** (
        -shadow_db / 10.0
    )
    return p / p.sum()


def gen_arrival_angles(
    powers: np.ndarray, sigma_aoa_deg: float, sigma_eoa_deg: float, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster arrival (azimuth, elevation) in degrees.

    Azimuth magnitudes are Gaussian with std sigma_aoa and get a random
    sign, then wrap to (-180, 180]; elevations are Gaussian with std
    sigma_eoa clipped to [-90, 90].
    """
    n = len(powers)
    az_mag = np.abs(rng.normal(0.0, sigma_aoa_deg, size=n))
    signs = rng.integers(0, 2, size=n) * 2 - 1
    az = wrap_azimuth_deg(signs * az_mag)
    el = clip_elevation_deg(rng.normal(0.0, sigma_eoa_deg, size=n))
    return np.atleast_1d(az), np.atleast_1d(el)


def gen_departure_angles(
    n_subarrays: int, sigma_aod_deg: float, sigma_eod_deg: float, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Independent departure (azimuth, elevation) per sub-array: the
    arrival-angle law and draw order with departure spreads."""
    if n_subarrays < 1:
        raise ValueError("need at least one sub-array")
    return gen_arrival_angles(np.ones(n_subarrays), sigma_aod_deg, sigma_eod_deg, rng)


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
    (multi-user groups only), delays, shadowed powers, arrival angles,
    then per cluster the per-sub-array departure angles. Powers are
    group-normalized; `ClusterSet.effective_power` gives each owner's
    per-user-normalized share.
    """
    n_subarrays = layout.array.n_subarrays
    segment_index = share_table.segment_index
    clusters: dict[int, Cluster] = {}

    for group_row, group in enumerate(share_table.groups):
        if group.count == 0:
            continue
        rng = group_rng(seed, segment_index, group_row)
        if len(group.members) == 1:
            generator = group.members[0]
        else:
            generator = group.members[int(rng.integers(len(group.members)))]
        lsp = lsp_draw.of(generator, segment_index)

        delays = gen_delays(group.count, lsp.sigma_tau_s, scenario.r_tau, rng)
        powers = gen_powers(
            delays, lsp.sigma_tau_s, scenario.r_tau, scenario.shadow_std_db, rng
        )
        aoa_az, aoa_el = gen_arrival_angles(
            powers, lsp.sigma_aoa_deg, lsp.sigma_eoa_deg, rng
        )
        for k, cluster_id in enumerate(group.cluster_ids):
            aod_az, aod_el = gen_departure_angles(
                n_subarrays, lsp.sigma_aod_deg, lsp.sigma_eod_deg, rng
            )
            clusters[cluster_id] = Cluster(
                cluster_id=cluster_id,
                segment_index=segment_index,
                owner_set=group.members,
                generating_user=generator,
                tau_s=float(delays[k]),
                power_raw=float(powers[k]),
                aoa_az_deg=float(aoa_az[k]),
                aoa_el_deg=float(aoa_el[k]),
                aod_az_deg=aod_az,
                aod_el_deg=aod_el,
                boresight=(delays[k] == 0.0),
            )

    by_user = {
        u: tuple(sorted(share_table.clusters_of_user(u))) for u in share_table.users
    }
    denominator = {
        u: float(sum(clusters[c].power_raw for c in ids)) for u, ids in by_user.items()
    }
    return ClusterSet(
        segment_index=segment_index,
        clusters=clusters,
        by_user=by_user,
        power_denominator=denominator,
    )
