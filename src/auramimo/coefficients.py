"""Channel coefficient synthesis from owner views.

Each cluster expands into 20 scatterers. Their angular offsets are the
centers of 20 equal-mass bins of a zero-mean Laplacian, normalized to
unit RMS and scaled by the intra-cluster spread; they rotate the focal
directions in azimuth, so every scatterer gets its own bounce points at
the focal distances. Per transmit element i (in sub-array a) and
snapshot t the scatterer path is

    L(i, l, t) = |elem_i - FBS_{a,l}| + D_int + |LBS_l - rx(t)|

and the coefficient is the sum over scatterers of
sqrt(power/20) * exp(-j*2*pi/lambda * L + j*phi_l). Scatterer positions
are frozen per segment; only the receiver term moves with the snapshot
(drifting). All randomness (per-cluster phases and the departure-side
offset pairing) is keyed by cluster id, so synthesis order cannot change
a single value. Synthesis is single-threaded: the `workers` setting is
accepted and ignored, and results do not depend on it. The work along
the sub-array axis (scatterer fans, planar error) runs as array code
over all sub-arrays at once.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import IncompleteViews
from .geom import SPEED_OF_LIGHT_M_S, azimuth_rotation, norms, rotate_azimuth
from .layout import ArrayGeometry, UserLayout, as_matrix
from .lsp import STREAM_SCATTERERS
from .sharing import OwnerView, OwnerViews

log = logging.getLogger(__name__)

N_SCATTERERS = 20


def laplacian_offsets(n: int = N_SCATTERERS) -> np.ndarray:
    """n angular offsets at the centers of n equal-mass Laplacian bins,
    normalized to unit RMS; exactly symmetric in +/- pairs.

    The lower half comes from the Laplacian quantile function ln(2q)
    (q < 1/2) and is mirrored, so the sum is exactly zero.
    """
    if n == 1:
        return np.zeros(1)
    if n % 2 != 0:
        raise ValueError("scatterer count must be even (or 1)")
    half = n // 2
    # q_k = (k + 0.5)/n for the lower half; quantile(q) = ln(2q).
    lower = np.log((2.0 * np.arange(half) + 1.0) / n)
    offsets = np.concatenate([lower, -lower[::-1]])
    rms = math.sqrt(float(np.mean(offsets**2)))
    return offsets / rms


def scatterer_randomness(
    seed: int, cluster_id: int, n: int = N_SCATTERERS
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster initial phases and the departure-side offset
    permutation, keyed by cluster id alone so every owner of a shared
    cluster sees the same scatterers."""
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(STREAM_SCATTERERS, cluster_id))
    )
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    perm = rng.permutation(n)
    return phases, perm


def _fan_positions(
    anchors: np.ndarray, focals: np.ndarray, rotation: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Scatterer bounce points (..., n, 3) of anchor/focal pairs (..., 3):
    each anchor->focal direction rotated in azimuth by the n offsets of
    `rotation`, at the focal distance. A zero-length leg collapses its
    fan onto the focal point."""
    delta = focals - anchors
    dist = np.sqrt(np.vecdot(delta, delta))[..., None, None]
    direction = delta[..., None, :] / np.where(dist == 0.0, 1.0, dist)
    points = anchors[..., None, :] + dist * rotate_azimuth(direction, rotation=rotation)
    return np.where(dist == 0.0, focals[..., None, :], points)


@dataclass(frozen=True)
class ChannelTensor:
    """Synthesized coefficients and path delays.

    coefficients: complex, (user, rx antenna, tx element, cluster,
    snapshot); delays: seconds, (user, cluster, snapshot). Users are
    ordered by id along the first axis.
    """

    user_ids: tuple[int, ...]
    coefficients: np.ndarray
    delays: np.ndarray
    carrier_hz: float
    seed: int

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("non-finite channel coefficients")
        if not np.all(np.isfinite(self.delays)) or np.any(self.delays < 0):
            raise ValueError("delays must be finite and nonnegative")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.coefficients.shape

    def user_index(self, user_id: int) -> int:
        return self.user_ids.index(user_id)


def _synthesize_user(
    views: list[OwnerView],
    coeff: np.ndarray,
    delays: np.ndarray,
    rx_positions: np.ndarray,
    anchor: np.ndarray,
    array: ArrayGeometry,
    wavenumber: float,
    rotation: tuple[np.ndarray, np.ndarray],
    randomness: dict[int, tuple[np.ndarray, np.ndarray]],
) -> int:
    """Fill one user's coefficients (tx, cluster, snapshot) and delays
    (cluster, snapshot); returns how many views had a negative interior
    length clamped away."""
    elements = array.element_matrix()
    sub_of_element = array.subarray_of_element()
    ref_index = array.reference_subarray().index
    clamped = 0

    for c, view in enumerate(views):
        phases, perm = randomness[view.cluster_id]
        n_sc = len(phases)
        amp = math.sqrt(view.power / n_sc)
        interior = view.interior_raw_m
        if interior < 0.0:
            clamped += 1
            interior = 0.0

        # Frozen scatterer bounce points for this owner's segment.
        lbs = view.lbs.as_array()
        lbs_points = _fan_positions(anchor, lbs, rotation)
        fbs_points = _fan_positions(
            array.subarray_centers,
            as_matrix(view.fbs),
            (rotation[0][perm], rotation[1][perm]),
        )  # (A, n_sc, 3)

        # Element -> departure bounce point, per scatterer: (tx, n_sc).
        d_tx = norms(elements[:, None, :] - fbs_points[sub_of_element])
        # Arrival bounce point -> rx position, per snapshot: (snap, n_sc).
        d_rx = norms(rx_positions[:, None, :] - lbs_points[None, :, :])

        tx_phase = np.exp(-1j * wavenumber * (d_tx + interior))
        rx_phase = np.exp(1j * (phases[None, :] - wavenumber * d_rx))
        coeff[:, c, :] = amp * np.einsum("il,tl->it", tx_phase, rx_phase)

        # Center-path delay: reference-sub-array leg + interior + moving
        # receiver leg, all scatterer offsets at zero.
        d_center_rx = norms(rx_positions - lbs)
        delays[c, :] = (
            float(view.e_len_m[ref_index]) + interior + d_center_rx
        ) / SPEED_OF_LIGHT_M_S

    return clamped


def synthesize(
    views: OwnerViews,
    layout: UserLayout,
    carrier_hz: float,
    seed: int,
    *,
    cluster_angle_spread_deg: float = 3.0,
    n_scatterers: int = N_SCATTERERS,
    workers: int = 1,
) -> ChannelTensor:
    """Synthesize the channel tensor for one segment, one user after
    another in this thread.

    Scatterer phases and offset pairings are derived from (seed, cluster
    id), so no value depends on the order in which users are synthesized.
    `workers` is accepted for config compatibility and ignored.
    `n_scatterers` exists as a test hook (1 collapses the cluster to its
    center ray).
    """
    user_ids = views.user_ids
    if not user_ids:
        raise IncompleteViews("no owner views to synthesize")
    per_user = [views.views_of_user(u) for u in user_ids]
    counts = {len(v) for v in per_user}
    if len(counts) != 1:
        raise IncompleteViews(f"users disagree on cluster count: {sorted(counts)}")
    for u, user_views in zip(user_ids, per_user):
        for v in user_views:
            if v.lbs is None or v.fbs is None or v.e_len_m is None:
                raise IncompleteViews(
                    f"view (user {u}, cluster {v.cluster_id}) has no focal points"
                )

    rotation = azimuth_rotation(laplacian_offsets(n_scatterers) * cluster_angle_spread_deg)
    all_cluster_ids = sorted({v.cluster_id for uv in per_user for v in uv})
    randomness = {
        cid: scatterer_randomness(seed, cid, n_scatterers) for cid in all_cluster_ids
    }

    wavenumber = 2.0 * math.pi * carrier_hz / SPEED_OF_LIGHT_M_S
    n_users, n_clusters = len(user_ids), counts.pop()
    segment = views.segment_index
    n_snap = layout.segments[segment].n_snapshots
    coefficients = np.empty(
        (n_users, 1, layout.array.n_elements, n_clusters, n_snap), dtype=np.complex128
    )
    delays = np.empty((n_users, n_clusters, n_snap))

    total_clamped = 0
    for k, u in enumerate(user_ids):
        total_clamped += _synthesize_user(
            per_user[k],
            coefficients[k, 0],
            delays[k],
            layout.segment_positions(u, segment),
            layout.segment_start_position(u, segment).as_array(),
            layout.array,
            wavenumber,
            rotation,
            randomness,
        )
    if total_clamped:
        log.warning(
            "segment %d: interior path length clamped to 0 for %d cluster view(s)",
            segment,
            total_clamped,
        )

    return ChannelTensor(
        user_ids=user_ids,
        coefficients=coefficients,
        delays=delays,
        carrier_hz=carrier_hz,
        seed=seed,
    )


def planar_vs_spherical_error(
    view: OwnerView, layout: UserLayout, carrier_hz: float
) -> np.ndarray:
    """Max absolute per-element phase deviation (radians) per sub-array
    between spherical distances to the departure focal point and the
    far-field linear phase along the sub-array's departure direction."""
    wavenumber = 2.0 * math.pi * carrier_hz / SPEED_OF_LIGHT_M_S
    array = layout.array
    elements = array.element_matrix()
    sub = array.subarray_of_element()
    centers = array.subarray_centers
    focal = as_matrix(view.fbs)
    leg = focal - centers
    dist = np.sqrt(np.vecdot(leg, leg))
    direction = leg / np.where(dist == 0.0, 1.0, dist)[:, None]
    d_spherical = norms(elements - focal[sub])
    # Stacked matrix-vector products over runs of equal-size sub-arrays:
    # per-element dot products (vecdot, einsum) round differently.
    local = elements - centers[sub]
    projection = np.concatenate(
        [
            np.matmul(
                local[e0:e1].reshape(a1 - a0, -1, 3), direction[a0:a1, :, None]
            ).ravel()
            for a0, a1, e0, e1 in array.equal_size_runs
        ]
    )
    deviation = np.abs(d_spherical - (dist[sub] - projection))
    starts = [s.element_range[0] for s in array.subarrays]
    errors = np.maximum.reduceat(deviation, starts) * wavenumber
    errors[dist == 0.0] = 0.0
    return errors
