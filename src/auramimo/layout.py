"""Users, tracks, segments, auras, and the base-station array.

Points are read-only float64 arrays of Cartesian (x, y, z) in meters,
converted and checked once by the constructors. Tracks are explicit
snapshot position lists; the segment schedule is shared by all users
(segment transitions must be synchronized). The base-station array is
split into contiguous sub-arrays whose extent fits within the
base-station stationarity interval. Both splits follow one rule,
`_chunk_size`, so the array's partition is one number,
`ArrayGeometry.subarray_size`, from which every array constant is derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EmptyArray, UnknownSegment, UnknownUser, UnsynchronizedTracks
from .geom import distances, read_only

# Spacing / center agreement tolerance, meters.
GEOMETRY_TOL_M = 1e-9

# Largest coordinate magnitude, meters: up to 1e6 m a float64 ulp is at most
# 1.2e-10 m, below the focal solve's tolerance `spherical.EPSILON_M` (1e-9 m);
# far beyond, squared distances lose the excess path, then overflow.
MAX_COORDINATE_M = 1e6


def _points(points, what: str) -> np.ndarray:
    """Read-only float64 copy of `points`, rows (x, y, z); ValueError
    unless every coordinate is finite and within MAX_COORDINATE_M. Every
    track and array point passes through here."""
    a = np.array(points, dtype=float)
    if a.size == 0:
        a = a.reshape(0, 3)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"{what}: expected rows [x, y, z], got shape {a.shape}")
    bad = np.flatnonzero(~(np.abs(a) <= MAX_COORDINATE_M).all(axis=1))
    if bad.size:
        raise ValueError(
            f"{what}: coordinates must be finite and at most {MAX_COORDINATE_M:g} m in "
            f"magnitude, got {a[bad[0]].tolist()} at point {bad[0]}"
        )
    return read_only(a)


def _require_bounded(**values) -> None:
    """ValueError naming the first argument not finite or beyond
    MAX_COORDINATE_M in magnitude: no point computed from it overflows."""
    for name, value in values.items():
        if not (np.abs(value) <= MAX_COORDINATE_M).all():
            raise ValueError(
                f"{name} must be finite and at most {MAX_COORDINATE_M:g} in magnitude, "
                f"got {value!r}"
            )


@dataclass(frozen=True)
class Track:
    """Snapshot positions (n, 3) of one user, equally spaced along the
    trajectory; the points are a read-only copy of the input."""

    user_id: int
    points: np.ndarray
    snapshot_spacing_m: float

    def __post_init__(self) -> None:
        if len(self.points) < 1:
            raise ValueError(f"track of user {self.user_id} has no points")
        points = _points(self.points, f"track of user {self.user_id}")
        object.__setattr__(self, "points", points)
        if self.snapshot_spacing_m <= 0:
            raise ValueError("snapshot_spacing_m must be positive")
        rows = points.tolist()
        for i in range(1, len(rows)):
            step = math.dist(rows[i - 1], rows[i])
            if abs(step - self.snapshot_spacing_m) > GEOMETRY_TOL_M:
                raise ValueError(
                    f"track of user {self.user_id}: spacing {step!r} at snapshot "
                    f"{i} differs from declared {self.snapshot_spacing_m!r}"
                )

    def __len__(self) -> int:
        return len(self.points)


def linear_track(
    user_id: int,
    start,
    heading_deg: float,
    n_snapshots: int,
    snapshot_spacing_m: float,
) -> Track:
    """Straight horizontal track starting at `start` (x, y, z) (heading
    measured from +x)."""
    _require_bounded(heading_deg=heading_deg, snapshot_spacing_m=snapshot_spacing_m)
    h = math.radians(heading_deg)
    dx = math.cos(h) * snapshot_spacing_m
    dy = math.sin(h) * snapshot_spacing_m
    x, y, z = start
    i = np.arange(n_snapshots)
    points = np.column_stack([x + i * dx, y + i * dy, np.full(n_snapshots, float(z))])
    return Track(user_id=user_id, points=points, snapshot_spacing_m=snapshot_spacing_m)


@dataclass(frozen=True)
class Segment:
    """Contiguous snapshot range with constant large-scale parameters."""

    index: int
    first_snapshot: int
    n_snapshots: int
    length_m: float


@dataclass(frozen=True)
class Aura:
    """Circle around a user's segment-start position (3,); overlap governs
    sharing."""

    center: np.ndarray
    radius_m: float

    def __post_init__(self) -> None:
        if self.radius_m <= 0:
            raise ValueError("aura radius must be positive")


@dataclass(frozen=True)
class ArrayGeometry:
    """Element positions (n_elements, 3) split into contiguous sub-arrays
    of `subarray_size` elements each, the last one shorter when the
    division is not exact. The array constants (starts, sub-array of each
    element, centers, runs, reference sub-array) are derived from these two
    fields once; arrays are read-only."""

    element_positions: np.ndarray
    subarray_size: int

    def __post_init__(self) -> None:
        if self.subarray_size < 1:
            raise ValueError(f"subarray_size must be at least 1, got {self.subarray_size}")

    @property
    def n_elements(self) -> int:
        return len(self.element_positions)

    @property
    def n_subarrays(self) -> int:
        return -(-self.n_elements // self.subarray_size)

    @cached_property
    def subarray_starts(self) -> np.ndarray:
        """First element of every sub-array, (n_subarrays,)."""
        return read_only(np.arange(0, self.n_elements, self.subarray_size))

    @cached_property
    def subarray_of_element(self) -> np.ndarray:
        """Sub-array index for every element."""
        return read_only(np.arange(self.n_elements) // self.subarray_size)

    @cached_property
    def subarray_centers(self) -> np.ndarray:
        """(n_subarrays, 3) float array of sub-array centers, each the mean
        of its own slice of elements: numpy does not fix the summation
        order of a reshaped batch."""
        e, size = self.element_positions, self.subarray_size
        return read_only(np.array([e[i : i + size].mean(axis=0) for i in self.subarray_starts]))

    @cached_property
    def equal_size_runs(self) -> tuple[tuple[int, int, int, int], ...]:
        """The full-size sub-arrays, then the shorter last one if any, as
        (first sub-array, stop sub-array, first element, stop element)."""
        n, size = self.n_elements, self.subarray_size
        full = n // size
        runs = [(0, full, 0, full * size)] if full else []
        if full * size < n:
            runs.append((full, full + 1, full * size, n))
        return tuple(runs)

    @cached_property
    def reference_subarray(self) -> int:
        """Index of the sub-array whose center is closest to the whole-array
        centroid.

        Used as the anchor for receiver-side focal points and interior
        path lengths. Distances within GEOMETRY_TOL_M of the smallest tie,
        and the lowest index wins, so that rounding, which depends on where
        the array stands, cannot pick between equidistant centers.
        """
        centroid = self.element_positions.mean(axis=0)
        distance = [float(np.linalg.norm(c - centroid)) for c in self.subarray_centers]
        return next(a for a, d in enumerate(distance) if d <= min(distance) + GEOMETRY_TOL_M)

    def element_distances(self, points: np.ndarray, out=None, scratch=None) -> np.ndarray:
        """Distances (n_elements, n) from each element to the n points
        (n_subarrays, n, 3) of its sub-array, by `geom.distances` per run
        of equal-size sub-arrays, into `out` when given; `scratch`, of the
        same shape, takes `geom.distances`' planes."""
        n = points.shape[1]
        out = np.empty((self.n_elements, n)) if out is None else out
        for a0, a1, e0, e1 in self.equal_size_runs:
            elements = self.element_positions[e0:e1].reshape(a1 - a0, -1, 1, 3)
            run = (a1 - a0, (e1 - e0) // (a1 - a0), n)
            planes = None if scratch is None else scratch[e0:e1].reshape(run)
            distances(elements, points[a0:a1, None], out[e0:e1].reshape(run), planes)
        return out


def _chunk_size(interval_m: float, step_m: float, n: int) -> int:
    """Samples per chunk when n samples, `step_m` apart, are split into
    chunks of one interval: floor(interval / step), at least 1, and all n
    when the step is not positive or the interval spans them all (which
    also covers a ratio too large for an int)."""
    if step_m <= 0 or not interval_m / step_m < n:
        return n
    return max(1, int(interval_m / step_m + GEOMETRY_TOL_M))


def build_segments(tracks: list[Track], stationarity_user_m: float) -> tuple[Segment, ...]:
    """Split the (synchronized) tracks into segments of one stationarity interval.

    All tracks must agree in point count and snapshot spacing; the returned
    schedule is shared by every user. The last segment absorbs fewer
    snapshots when the division is not exact.
    """
    if not tracks:
        raise UnsynchronizedTracks("no tracks given")
    if stationarity_user_m <= 0:
        raise ValueError("stationarity_user_m must be positive")
    ref = tracks[0]
    for t in tracks[1:]:
        if len(t) != len(ref):
            raise UnsynchronizedTracks(
                f"user {t.user_id} has {len(t)} snapshots but user "
                f"{ref.user_id} has {len(ref)}"
            )
        if abs(t.snapshot_spacing_m - ref.snapshot_spacing_m) > GEOMETRY_TOL_M:
            raise UnsynchronizedTracks(
                f"user {t.user_id} snapshot spacing {t.snapshot_spacing_m} differs "
                f"from user {ref.user_id} spacing {ref.snapshot_spacing_m}"
            )

    spacing, n = ref.snapshot_spacing_m, len(ref)
    size = _chunk_size(stationarity_user_m, spacing, n)
    return tuple(
        Segment(
            index=i,
            first_snapshot=first,
            n_snapshots=min(size, n - first),
            length_m=min(size, n - first) * spacing,
        )
        for i, first in enumerate(range(0, n, size))
    )


def partition_subarrays(elements: np.ndarray, bs_stationarity_m: float) -> int:
    """Elements per sub-array when ordered element positions (n, 3) are
    split into contiguous sub-arrays.

    The count is floor(stationarity / element step), counting each element
    as occupying one step, so no sub-array extends past the stationarity
    interval; leftover elements form a final shorter sub-array. A
    stationarity interval larger than the aperture yields a single
    sub-array (stationary model).
    """
    if len(elements) == 0:
        raise EmptyArray("array has no elements")
    if bs_stationarity_m <= 0:
        raise ValueError("bs_stationarity_m must be positive")
    rows = elements.tolist()
    step = max((math.dist(a, b) for a, b in zip(rows, rows[1:])), default=0.0)
    return _chunk_size(bs_stationarity_m, step, len(elements))


def uniform_linear_array(
    n_elements: int,
    spacing_m: float,
    origin,
    axis: tuple[float, float, float] = (1.0, 0.0, 0.0),
) -> np.ndarray:
    """Element positions (n_elements, 3), read-only, of a uniform linear
    array starting at `origin` (x, y, z)."""
    _require_bounded(spacing_m=spacing_m, axis=axis)
    a = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(a)
    if norm == 0:
        raise ValueError("array axis must be nonzero")
    a = a / norm
    base = np.asarray(origin, dtype=float)
    steps = np.arange(n_elements) * spacing_m
    return _points(base + steps[:, None] * a, "array elements")


@dataclass(frozen=True)
class UserLayout:
    """Immutable simulation layout: synchronized tracks, shared segment
    schedule, per-user per-segment auras, and the partitioned array."""

    tracks: tuple[Track, ...]
    segments: tuple[Segment, ...]
    array: ArrayGeometry
    stationarity_user_m: float
    _track_by_user: dict[int, Track] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        self._track_by_user.update((t.user_id, t) for t in self.tracks)
        if len(self._track_by_user) != len(self.tracks):
            raise ValueError("duplicate user ids in layout")

    @property
    def user_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._track_by_user))

    def track_of(self, user_id: int) -> Track:
        try:
            return self._track_by_user[user_id]
        except KeyError:
            raise UnknownUser(f"user {user_id} not in layout") from None

    def segment(self, segment_index: int) -> Segment:
        if not 0 <= segment_index < len(self.segments):
            raise UnknownSegment(
                f"segment {segment_index} outside schedule of {len(self.segments)}"
            )
        return self.segments[segment_index]

    def segment_start_position(self, user_id: int, segment_index: int) -> np.ndarray:
        """First position (3,) of the user in the segment (the aura anchor),
        a row of the track."""
        track = self.track_of(user_id)
        seg = self.segment(segment_index)
        return track.points[seg.first_snapshot]

    def segment_positions(self, user_id: int, segment_index: int) -> np.ndarray:
        """(n_snapshots, 3) rx positions of the user across the segment, a
        slice of the track."""
        track = self.track_of(user_id)
        seg = self.segment(segment_index)
        return track.points[seg.first_snapshot : seg.first_snapshot + seg.n_snapshots]

    def aura_of(self, user_id: int, segment_index: int) -> Aura:
        return Aura(
            center=self.segment_start_position(user_id, segment_index),
            radius_m=self.stationarity_user_m,
        )


def build_layout(
    tracks: list[Track],
    array_elements,
    stationarity_user_m: float,
    bs_stationarity_m: float,
) -> UserLayout:
    """Assemble a validated layout from tracks and array element positions
    (n, 3)."""
    segments = build_segments(tracks, stationarity_user_m)
    elements = _points(array_elements, "array elements")
    array = ArrayGeometry(
        element_positions=elements,
        subarray_size=partition_subarrays(elements, bs_stationarity_m),
    )
    return UserLayout(
        tracks=tuple(tracks),
        segments=segments,
        array=array,
        stationarity_user_m=stationarity_user_m,
    )
