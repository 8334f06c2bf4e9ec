"""Channel coefficient synthesis from owner views, read off the (user,
cluster) columns of a segment's `OwnerViews`, whose slot (k, c) is the
tensor's.

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
a single value. The departure phase depends only on the cluster id, the
FBS set and the clamped interior length, so it is computed once per
distinct departure geometry of a segment and shared by the owners that
copy all three (kept-focal-point, co-located owners); each geometry's
coefficients are one matrix product of its departure phases with the
stacked arrival phases of the m slots it serves. The arrival side (fans,
receiver distances, phases, amplitudes and center-path delays) of every
(user, cluster) slot is one array pass per segment, and so are the
departure fans of every geometry. The geometries are cut into blocks of
at most BLOCK_VALUES departure phases, each computed in one pass over all
sub-arrays (ArrayGeometry.element_distances). The geometries are ordered
by m, and a block's run of geometries with the same m is one stacked
product and one store; each item keeps the (tx, n_sc) @ (n_sc, m *
snapshots) shape of one geometry's product, because BLAS rounds the same
sums over other shapes differently. The blocks run on one thread per CPU
the process may use, less the threads BLAS may start itself
(`_synthesis_threads`), each worker on a CPU other than the caller's.
Each thread makes one set of work arrays per segment, in which it
computes its blocks' lengths and phases in place; thread i fills block i,
then the next block no thread has taken. Each block fills its own (user,
cluster) slots, so results are identical for any thread count.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import suppress
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .geom import SPEED_OF_LIGHT_M_S, azimuth_rotation, distances, rotate_azimuth
from .layout import ArrayGeometry, UserLayout
from .lsp import STREAM_SCATTERERS
from .sharing import OwnerViews

N_SCATTERERS = 20
# Departure-phase values per block: one 1024-element geometry of 20
# scatterers, or four 256-element ones.
BLOCK_VALUES = 20480


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
    # In place: one (..., n, 3) array, the size of the result.
    points = rotate_azimuth(direction, rotation=rotation)
    points *= dist
    points += anchors[..., None, :]
    np.copyto(points, focals[..., None, :], where=dist == 0.0)
    return points


@dataclass(frozen=True)
class ChannelTensor:
    """Synthesized coefficients and path delays.

    coefficients: complex64 (computed in complex128, stored at channel.bin's
    precision), (user, rx antenna, tx element, cluster, snapshot); delays:
    float64 seconds, (user, cluster, snapshot). Users are in id order.
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


def _work_arrays(n_values: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One thread's lengths, distance planes and phases of n_values paths."""
    return np.empty(n_values), np.empty(n_values), np.empty(n_values, dtype=complex)


def _departure_phase(
    fans: np.ndarray,
    interiors: np.ndarray,
    array: ArrayGeometry,
    wavenumber: float,
    work: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """exp(-j k (|elem_i - FBS_{g,a,l}| + interior_g)), (tx, g * n_sc),
    for g departure geometries at once: scatterer fans (g, A, n_sc, 3) and
    interiors (g,). Geometry g owns columns g * n_sc to (g + 1) * n_sc.
    Computed in place in `work` (`_work_arrays` of at least that many
    values), a view of whose phases is returned."""
    shape = (array.n_elements, fans.shape[0] * fans.shape[2])
    size = shape[0] * shape[1]
    lengths, planes, phase = (a[:size].reshape(shape) for a in work or _work_arrays(size))
    # (g, A, n_sc, 3) -> (A, g * n_sc, 3): each sub-array's bounce points.
    points = fans.transpose(1, 0, 2, 3).reshape(array.n_subarrays, -1, 3)
    array.element_distances(points, lengths, planes)
    lengths += np.repeat(interiors, fans.shape[2])
    # The operand exp(-1j * k * lengths) gets: real part 0, imaginary -k L.
    np.multiply(lengths, -wavenumber, out=phase.imag)
    phase.real = 0.0
    return np.exp(phase, out=phase)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _synthesis_threads() -> int:
    """One thread per CPU, shared with the threads BLAS may start for each
    matrix product: CPUs // BLAS threads. BLAS takes every CPU unless its
    own thread variable caps it (OpenBLAS, MKL, then OpenMP)."""
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > 0:
            return max(1, _cpu_count() // int(value))
    return 1


def _current_cpu() -> int:
    """The calling thread's CPU now: field 39, `processor`, of its stat (proc(5))."""
    with open("/proc/thread-self/stat") as stat:
        return int(stat.read().rsplit(")", 1)[1].split()[36])


def _run_blocks(fill, blocks: list, make_work) -> None:
    """fill(block, work) for every block (there is at least one), on
    `_synthesis_threads()` threads (at most one per block). Thread i makes
    its `work = make_work()`, fills block i, then takes the next block no
    thread has taken, so a stalled thread holds back only its own block.

    Worker i moves to the i-th CPU of the affinity set less the caller's, wrapping
    around, as a cpuset without load balancing can keep new threads on the caller's
    CPU; the caller never moves. Where placement fails, workers run unplaced."""
    n_threads = min(_synthesis_threads(), len(blocks))
    rest = iter(blocks[n_threads:])  # next() on a list iterator holds the GIL
    try:
        cpus = sorted(os.sched_getaffinity(0) - {_current_cpu()})
    except (OSError, AttributeError, ValueError, IndexError):
        cpus = []
    errors = []

    def fill_share(first: int) -> None:
        try:
            if first and cpus:
                with suppress(OSError, AttributeError):  # best effort
                    os.sched_setaffinity(0, {cpus[(first - 1) % len(cpus)]})
            work = make_work()
            fill(blocks[first], work)
            for block in rest:
                fill(block, work)
        except BaseException as error:  # raised again in the calling thread
            errors.append(error)

    # The calling thread fills a share too: leaving it idle beside n
    # workers raised the wide benchmark's peak RSS by 2.6 MB instead of
    # 1.4 MB (2-CPU host). A thread per share, not a pool: a pool thread
    # done with its share could start another and make a second work set.
    workers = [threading.Thread(target=fill_share, args=(i,)) for i in range(1, n_threads)]
    for worker in workers:
        worker.start()
    fill_share(0)
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]


def synthesize(
    views: OwnerViews,
    layout: UserLayout,
    carrier_hz: float,
    seed: int,
    *,
    cluster_angle_spread_deg: float = 3.0,
    n_scatterers: int = N_SCATTERERS,
    out: tuple[np.ndarray, np.ndarray],
) -> None:
    """Fill `out`, the caller's complex64 or complex128 coefficients and
    float64 delays arrays, with one segment's channel, in blocks of departure
    geometries on `_synthesis_threads()` threads, each computed in complex128
    and rounded to the coefficients' dtype as stored; the caller checks values.
    `views` checked itself when built, and its slot (k, c) is the tensor's.

    Scatterer phases and offset pairings are derived from (seed, cluster
    id), and each block writes only its own (user, cluster) slots, so no
    value depends on the order in which blocks run or on the thread count.
    `n_scatterers` exists as a test hook (1 collapses the cluster to its
    center ray).
    """
    # Slot k * C + c holds user k's view of its c-th cluster.
    ids = views.cluster_id.ravel().tolist()
    rotation = azimuth_rotation(laplacian_offsets(n_scatterers) * cluster_angle_spread_deg)
    randomness = {cid: scatterer_randomness(seed, cid, n_scatterers) for cid in sorted(set(ids))}

    wavenumber = 2.0 * math.pi * carrier_hz / SPEED_OF_LIGHT_M_S
    array = layout.array
    n_users, n_clusters = views.cluster_id.shape
    segment = views.segment_index
    n_snap = layout.segments[segment].n_snapshots
    shape = (n_users, 1, array.n_elements, n_clusters, n_snap)
    coefficients, delays = out
    if coefficients.shape != shape or delays.shape != shape[:1] + shape[3:]:
        raise ValueError(f"output arrays do not have the segment's shape {shape}")
    if coefficients.dtype not in (np.complex64, np.complex128) or delays.dtype != np.float64:
        got = f"{coefficients.dtype} and {delays.dtype}"
        raise ValueError(f"output arrays must be complex64/128 and float64, got {got}")
    ref_index = array.reference_subarray

    # The arrival side of every slot at once, in (user, cluster, snapshot,
    # scatterer) arrays: the frozen arrival bounce points (only the
    # receiver moves), amp * exp(j(phi - k d_rx)), and the center-path
    # delay (reference-sub-array leg + interior + moving receiver leg, all
    # scatterer offsets at zero).
    interiors = np.maximum(views.interior_raw_m, 0.0)
    user_ids = views.user_id.tolist()
    rx = np.stack([layout.segment_positions(u, segment) for u in user_ids])[:, None]
    lbs_points = _fan_positions(rx[:, :, 0], views.lbs, rotation)
    phases = np.stack([randomness[cid][0] for cid in ids])
    rx_phase = 1j * (
        phases.reshape(n_users, n_clusters, 1, n_scatterers)
        - wavenumber * distances(rx[..., None, :], lbs_points[:, :, None])
    )
    np.exp(rx_phase, out=rx_phase)
    rx_phase *= np.sqrt(views.power / n_scatterers)[..., None, None]
    rx_phase = rx_phase.reshape(-1, n_snap, n_scatterers)
    delays[...] = (
        (views.e_len_m[..., ref_index] + interiors)[..., None]
        + distances(rx, views.lbs[:, :, None])
    ) / SPEED_OF_LIGHT_M_S

    # Slots by departure geometry (cluster id, FBS set, clamped interior):
    # one departure phase serves them all. Ordered by slot count, so that a
    # block's geometries of one count are adjacent.
    fbs = views.fbs.reshape(n_users * n_clusters, array.n_subarrays, 3)
    by_geometry: dict[tuple, list[int]] = {}
    for s, key in enumerate(zip(ids, map(np.ndarray.tobytes, fbs), interiors.ravel().tolist())):
        by_geometry.setdefault(key, []).append(s)
    geometries = sorted(by_geometry.items(), key=lambda item: len(item[1]))

    # Every geometry's departure fan, (G, A, n_sc, 3), in one pass.
    perms = np.stack([randomness[cluster_id][1] for (cluster_id, _, _), _ in geometries])
    fans = _fan_positions(
        array.subarray_centers,
        fbs[[slots[0] for _, slots in geometries]],
        (rotation[0][perms][:, None, :], rotation[1][perms][:, None, :]),
    )
    fan_interiors = np.array([interior for (_, _, interior), _ in geometries])
    fan_slots = [slots for _, slots in geometries]

    def fill(block: slice, work: tuple) -> None:
        tx_phase = _departure_phase(fans[block], fan_interiors[block], array, wavenumber, work)
        tx_phase = tx_phase.reshape(array.n_elements, -1, n_scatterers).transpose(1, 0, 2)
        # One stacked product per run of geometries with m slots each, whose
        # items keep the bits of each geometry's own (tx, n_sc) @ (n_sc, m * T)
        # product.
        start = 0
        for m, run in groupby(fan_slots[block], len):
            slots = np.array(list(run))  # (b, m)
            stop = start + len(slots)
            rx = rx_phase[slots].reshape(len(slots), m * n_snap, n_scatterers)
            product = np.matmul(tx_phase[start:stop], rx.transpose(0, 2, 1))  # (b, tx, m * T)
            ks, cs = np.divmod(slots, n_clusters)
            coefficients[ks, 0, :, cs, :] = product.reshape(
                len(slots), array.n_elements, m, n_snap
            ).transpose(0, 2, 1, 3)
            start = stop

    per_block = min(len(fans), max(1, BLOCK_VALUES // (array.n_elements * n_scatterers)))
    blocks = [slice(i, i + per_block) for i in range(0, len(fans), per_block)]
    _run_blocks(fill, blocks, lambda: _work_arrays(per_block * array.n_elements * n_scatterers))


def planar_vs_spherical_error(
    fbs: np.ndarray, layout: UserLayout, carrier_hz: float
) -> np.ndarray:
    """Max absolute per-element phase deviation (radians), (n, A), of n
    FBS sets (n, A, 3): per sub-array, between the spherical distances to
    its departure focal point and the far-field linear phase along the
    sub-array's departure direction."""
    wavenumber = 2.0 * math.pi * carrier_hz / SPEED_OF_LIGHT_M_S
    array = layout.array
    sub = array.subarray_of_element
    centers = array.subarray_centers
    leg = fbs - centers
    dist = np.sqrt(np.vecdot(leg, leg))
    direction = leg / np.where(dist == 0.0, 1.0, dist)[..., None]
    d_spherical = array.element_distances(fbs.transpose(1, 0, 2)).T
    # Stacked matrix-vector products over runs of equal-size sub-arrays:
    # per-element dot products (vecdot, einsum) round differently.
    local = array.element_positions - centers[sub]
    projection = np.concatenate(
        [
            np.matmul(
                local[e0:e1].reshape(a1 - a0, -1, 3), direction[:, a0:a1, :, None]
            ).reshape(len(fbs), -1)
            for a0, a1, e0, e1 in array.equal_size_runs
        ],
        axis=1,
    )
    deviation = np.abs(d_spherical - (dist[:, sub] - projection))
    errors = np.maximum.reduceat(deviation, array.subarray_starts, axis=1) * wavenumber
    errors[dist == 0.0] = 0.0
    return errors
