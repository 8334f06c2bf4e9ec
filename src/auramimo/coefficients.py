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
over all sub-arrays at once, and element distances are taken plane-wise
(ArrayGeometry.element_distances). The departure phase depends only on
the cluster id, the FBS set and the clamped interior length, so it is
computed once per distinct departure geometry of a segment and shared by
the owners that copy all three (kept-focal-point, co-located owners).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import IncompleteViews
from .geom import SPEED_OF_LIGHT_M_S, azimuth_rotation, norms, rotate_azimuth
from .layout import ArrayGeometry, UserLayout
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


def _departure_phase(
    fbs: np.ndarray,
    interior: float,
    array: ArrayGeometry,
    wavenumber: float,
    rotation: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """exp(-j k (|elem_i - FBS_{a,l}| + interior)), (tx, n_sc): the
    departure fans of one FBS set (rotated by the cluster's permuted
    `rotation`) and the element-to-bounce-point distances."""
    fbs_points = _fan_positions(array.subarray_centers, fbs, rotation)
    return np.exp(-1j * wavenumber * (array.element_distances(fbs_points) + interior))


def synthesize(
    views: OwnerViews,
    layout: UserLayout,
    carrier_hz: float,
    seed: int,
    *,
    cluster_angle_spread_deg: float = 3.0,
    n_scatterers: int = N_SCATTERERS,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> ChannelTensor | None:
    """Synthesize the channel tensor for one segment, one user after
    another in this thread.

    Scatterer phases and offset pairings are derived from (seed, cluster
    id), so no value depends on the order in which users are synthesized.
    `n_scatterers` exists as a test hook (1 collapses the cluster to its
    center ray). `out` takes (coefficients, delays) arrays to fill (a run
    tensor's snapshot slices); then None is returned, and the caller checks them.
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
    array = layout.array
    n_users, n_clusters = len(user_ids), counts.pop()
    segment = views.segment_index
    n_snap = layout.segments[segment].n_snapshots
    shape = (n_users, 1, array.n_elements, n_clusters, n_snap)
    coefficients, delays = out or (np.empty(shape, complex), np.empty(shape[:1] + shape[3:]))
    if coefficients.shape != shape or delays.shape != shape[:1] + shape[3:]:
        raise ValueError(f"output arrays do not have the segment's shape {shape}")
    ref_index = array.reference_subarray().index

    # Views by departure geometry, with its FBS and the (user, cluster)
    # slots it fills: one departure phase serves them all.
    by_geometry: dict[tuple, tuple[np.ndarray, list[tuple[int, int]]]] = {}
    for k, user_views in enumerate(per_user):
        for c, v in enumerate(user_views):
            key = (v.cluster_id, v.fbs.tobytes(), max(v.interior_raw_m, 0.0))
            by_geometry.setdefault(key, (v.fbs, []))[1].append((k, c))
    rx_positions = [layout.segment_positions(u, segment) for u in user_ids]
    anchors = [layout.segment_start_position(u, segment).as_array() for u in user_ids]

    for (cluster_id, _, interior), (fbs, slots) in by_geometry.items():
        phases, perm = randomness[cluster_id]
        tx_phase = _departure_phase(
            fbs, interior, array, wavenumber, (rotation[0][perm], rotation[1][perm])
        )
        for k, c in slots:
            view = per_user[k][c]
            # Frozen arrival bounce points; only the receiver moves.
            lbs_points = _fan_positions(anchors[k], view.lbs, rotation)
            d_rx = norms(rx_positions[k][:, None, :] - lbs_points[None, :, :])
            rx_phase = np.exp(1j * (phases[None, :] - wavenumber * d_rx))
            amp = math.sqrt(view.power / len(phases))
            coefficients[k, 0, :, c, :] = amp * np.einsum("il,tl->it", tx_phase, rx_phase)

            # Center-path delay: reference-sub-array leg + interior + moving
            # receiver leg, all scatterer offsets at zero.
            d_center_rx = norms(rx_positions[k] - view.lbs)
            delays[k, c, :] = (
                float(view.e_len_m[ref_index]) + interior + d_center_rx
            ) / SPEED_OF_LIGHT_M_S

    clamped = sum(v.interior_raw_m < 0.0 for uv in per_user for v in uv)
    if clamped:
        log.warning(
            "segment %d: interior path length clamped to 0 for %d cluster view(s)",
            segment,
            clamped,
        )

    if out is None:
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
    focal = view.fbs
    leg = focal - centers
    dist = np.sqrt(np.vecdot(leg, leg))
    direction = leg / np.where(dist == 0.0, 1.0, dist)[:, None]
    d_spherical = array.element_distances(focal[:, None, :])[:, 0]
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
