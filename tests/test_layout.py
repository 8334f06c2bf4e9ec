import math
from itertools import groupby

import numpy as np
import pytest

from auramimo import (
    Aura,
    EmptyArray,
    Segment,
    Track,
    UnknownSegment,
    UnknownUser,
    UnsynchronizedTracks,
    build_layout,
    build_overlap_graph,
    build_segments,
    linear_track,
    partition_subarrays,
    uniform_linear_array,
)
from auramimo.layout import GEOMETRY_TOL_M, ArrayGeometry
from conftest import subarray_sizes


def test_position_distance():
    # Auras are circles: centers 13 m apart in 3D are 5 m apart in x-y,
    # so radii summing past 5 m overlap and tangent circles do not.
    a, b = (0.0, 0.0, 0.0), (3.0, 4.0, 12.0)
    assert math.dist(a, b) == 13.0
    for radius, edges in ((2.5, frozenset()), (2.51, {(1, 2)})):
        auras = {1: Aura(a, radius), 2: Aura(b, radius)}
        assert build_overlap_graph(auras).edges == edges


def test_position_rejects_non_finite():
    # The layout constructors check every point once, as they convert it.
    tracks = [linear_track(1, (0.0, 0.0, 1.5), 0.0, 3, 0.5)]
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            linear_track(1, (bad, 0.0, 1.5), 0.0, 3, 0.5)
        with pytest.raises(ValueError, match="finite"):
            Track(user_id=1, points=[(0.0, 0.0, 1.5), (0.0, bad, 1.5)], snapshot_spacing_m=0.5)
        with pytest.raises(ValueError, match="finite"):
            uniform_linear_array(4, 0.05, (0.0, 0.0, bad))
        with pytest.raises(ValueError, match="finite"):
            build_layout(tracks, [(0.0, 0.0, 10.0), (bad, 0.0, 10.0)], 5.0, 0.8)


def test_layout_arguments_must_be_finite():
    # A non-finite spacing, heading or axis is named before any arithmetic,
    # so no "invalid value" RuntimeWarning or math domain error comes first.
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="^snapshot_spacing_m must be finite"):
            linear_track(1, (0.0, 0.0, 1.5), 0.0, 3, bad)
        with pytest.raises(ValueError, match="^heading_deg must be finite"):
            linear_track(1, (0.0, 0.0, 1.5), bad, 3, 0.5)
        with pytest.raises(ValueError, match="^spacing_m must be finite"):
            uniform_linear_array(4, bad, (0.0, 0.0, 10.0))
        with pytest.raises(ValueError, match="^axis must be finite"):
            uniform_linear_array(4, 0.05, (0.0, 0.0, 10.0), (1.0, bad, 0.0))


def test_points_are_read_only_arrays():
    layout = _example_layout()
    track = layout.track_of(1)
    array = layout.array
    assert track.points.shape == (20, 3) and track.points.dtype == np.float64
    assert array.element_positions.shape == (64, 3)
    assert array.subarray_centers[0].shape == (3,)
    for points in (track.points, array.element_positions, array.subarray_centers[0]):
        with pytest.raises(ValueError):
            points[0] = 1.0
    # Segment positions are rows of the track, not copies.
    assert np.shares_memory(layout.segment_positions(1, 1), track.points)
    assert np.shares_memory(layout.segment_start_position(1, 1), track.points)


def test_constructors_copy_their_inputs():
    points = np.array([[0.0, 0.0, 1.5], [0.5, 0.0, 1.5]])
    track = Track(user_id=1, points=points, snapshot_spacing_m=0.5)
    points[0, 0] = 9.0
    assert track.points[0, 0] == 0.0 and points.flags.writeable


def test_linear_track_positions_follow_heading():
    track = linear_track(3, (1.0, 2.0, 1.5), 90.0, 4, 0.5)
    assert track.user_id == 3
    xs = [p[0] for p in track.points]
    ys = [p[1] for p in track.points]
    assert xs == pytest.approx([1.0] * 4, abs=1e-12)
    assert ys == pytest.approx([2.0, 2.5, 3.0, 3.5], abs=1e-12)


def test_track_requires_uniform_spacing():
    pts = (
        (0.0, 0.0, 1.5),
        (0.5, 0.0, 1.5),
        (1.2, 0.0, 1.5),
    )
    with pytest.raises(ValueError):
        Track(user_id=1, points=pts, snapshot_spacing_m=0.5)


def _tracks(n_snapshots, spacing=0.5):
    return [linear_track(1, (0.0, 0.0, 1.5), 0.0, n_snapshots, spacing)]


def test_segments_even_split():
    # 20 snapshots at 0.5 m spacing, 5 m stationarity -> two segments of 10.
    segs = build_segments(_tracks(20), 5.0)
    assert [(s.first_snapshot, s.n_snapshots) for s in segs] == [(0, 10), (10, 10)]
    assert segs[0].length_m == pytest.approx(5.0)


def test_segments_remainder_is_last_and_shorter():
    segs = build_segments(_tracks(21), 5.0)
    assert [s.n_snapshots for s in segs] == [10, 10, 1]
    assert segs[-1].first_snapshot == 20


def test_segments_tiny_stationarity_still_one_snapshot_each():
    segs = build_segments(_tracks(3), 0.1)
    assert [s.n_snapshots for s in segs] == [1, 1, 1]


def test_unsynchronized_tracks_names_offender():
    tracks = [
        linear_track(1, (0.0, 0.0, 1.5), 0.0, 4, 0.5),
        linear_track(7, (5.0, 0.0, 1.5), 0.0, 3, 0.5),
    ]
    elements = uniform_linear_array(8, 0.05, (0.0, 0.0, 10.0))
    with pytest.raises(UnsynchronizedTracks, match="7"):
        build_layout(tracks, elements, stationarity_user_m=5.0, bs_stationarity_m=0.8)


def test_mismatched_spacing_is_unsynchronized():
    tracks = [
        linear_track(1, (0.0, 0.0, 1.5), 0.0, 4, 0.5),
        linear_track(2, (5.0, 0.0, 1.5), 0.0, 4, 0.25),
    ]
    with pytest.raises(UnsynchronizedTracks):
        build_segments(tracks, 5.0)


def test_uniform_linear_array_extent():
    elements = uniform_linear_array(64, 0.05, (0.0, 0.0, 10.0))
    assert len(elements) == 64
    assert elements[-1][0] - elements[0][0] == pytest.approx(63 * 0.05)
    assert all(e[2] == 10.0 for e in elements)


def test_partition_64_elements_into_four_subarrays():
    elements = uniform_linear_array(64, 0.05, (0.0, 0.0, 10.0))
    assert partition_subarrays(elements, 0.8) == 16
    array = _array_geometry(64)
    assert subarray_sizes(array) == [16, 16, 16, 16]
    # Starts tile the array without gaps.
    assert array.subarray_starts.tolist() == [0, 16, 32, 48]


def test_partition_remainder_subarray():
    elements = uniform_linear_array(70, 0.05, (0.0, 0.0, 10.0))
    assert partition_subarrays(elements, 0.8) == 16
    assert subarray_sizes(_array_geometry(70)) == [16, 16, 16, 16, 6]


def test_partition_whole_array_when_stationarity_large():
    elements = uniform_linear_array(8, 0.05, (0.0, 0.0, 10.0))
    assert partition_subarrays(elements, 100.0) == 8
    array = _array_geometry(8, bs_stationarity=100.0)
    assert array.n_subarrays == 1
    assert subarray_sizes(array) == [8]


def test_partition_empty_array_raises():
    with pytest.raises(EmptyArray):
        partition_subarrays([], 0.8)


def test_subarray_center_is_element_mean():
    array = _array_geometry(32)
    elements, starts = array.element_positions, array.subarray_starts
    for a, (start, size) in enumerate(zip(starts, subarray_sizes(array))):
        mean = np.mean(elements[start : start + size], axis=0)
        np.testing.assert_allclose(array.subarray_centers[a], mean, atol=1e-12)


def _array_geometry(n_elements, bs_stationarity=0.8):
    elements = uniform_linear_array(n_elements, 0.05, (0.0, 0.0, 10.0))
    return ArrayGeometry(
        element_positions=elements,
        subarray_size=partition_subarrays(elements, bs_stationarity),
    )


def test_reference_subarray_is_central():
    # 48 elements -> 3 sub-arrays; the middle one sits on the centroid.
    array = _array_geometry(48)
    assert array.reference_subarray == 1
    # Single sub-array -> trivially the reference.
    assert _array_geometry(8, bs_stationarity=100.0).reference_subarray == 0


def test_reference_subarray_ignores_where_the_array_stands():
    # With an even sub-array count the two middle centers are equidistant
    # from the centroid; rounding their distances, which depends on where
    # the array stands, must not choose between them: the lower one wins.
    rng = np.random.default_rng(71)
    for trial in range(400):
        n_subarrays = 2 * int(rng.integers(1, 33))
        size = int(rng.integers(1, 17))
        spacing = float(rng.uniform(0.01, 0.2))
        axis = tuple(rng.normal(size=3))
        shift = rng.uniform(-1.0, 1.0, size=3) * 10.0 ** rng.uniform(-3, 4)
        elements = uniform_linear_array(n_subarrays * size, spacing, shift, axis)
        array = ArrayGeometry(element_positions=elements, subarray_size=size)
        assert array.n_subarrays == n_subarrays
        assert array.reference_subarray == n_subarrays // 2 - 1, (trial, shift.tolist())


def test_subarray_of_element_lookup():
    array = _array_geometry(64)
    idx = array.subarray_of_element
    assert idx.shape == (64,)
    assert idx[0] == 0 and idx[15] == 0 and idx[16] == 1 and idx[63] == 3


def _example_layout():
    tracks = [
        linear_track(1, (30.0, 0.0, 1.5), 90.0, 20, 0.5),
        linear_track(2, (34.0, 0.0, 1.5), 90.0, 20, 0.5),
    ]
    elements = uniform_linear_array(64, 0.05, (0.0, 0.0, 10.0))
    return build_layout(
        tracks, elements, stationarity_user_m=5.0, bs_stationarity_m=0.8
    )


def test_layout_segmentation_and_aura():
    layout = _example_layout()
    assert layout.user_ids == (1, 2)
    assert len(layout.segments) == 2
    aura = layout.aura_of(1, 0)
    start = layout.segment_start_position(1, 0)
    assert np.array_equal(aura.center, start)
    assert aura.radius_m == 5.0
    # Aura recenters at the next segment boundary.
    aura1 = layout.aura_of(1, 1)
    assert aura1.center[1] == pytest.approx(start[1] + 10 * 0.5)


def test_layout_unknown_user_and_segment():
    layout = _example_layout()
    with pytest.raises(UnknownUser):
        layout.track_of(99)
    with pytest.raises(UnknownUser):
        layout.aura_of(99, 0)
    with pytest.raises(UnknownSegment):
        layout.segment_positions(1, 5)


def test_segment_positions_slice():
    layout = _example_layout()
    pts = layout.segment_positions(2, 1)
    assert pts.shape == (10, 3)
    assert pts[0, 1] == pytest.approx(5.0)
    assert pts[-1, 1] == pytest.approx(9.5)
    np.testing.assert_allclose(pts[:, 0], 34.0)


def test_array_constants_are_cached_and_read_only():
    array = _array_geometry(70)  # four 16-element sub-arrays and one of 6
    for get in (
        lambda: array.element_positions,
        lambda: array.subarray_starts,
        lambda: array.subarray_of_element,
        lambda: array.subarray_centers,
    ):
        first = get()
        assert get() is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = first[1]
    assert array.reference_subarray is array.reference_subarray
    elements = array.element_positions
    np.testing.assert_array_equal(
        array.subarray_centers, [elements[s : s + 16].mean(axis=0) for s in range(0, 70, 16)]
    )


def test_equal_size_runs_cover_the_array():
    assert _array_geometry(70).equal_size_runs == ((0, 4, 0, 64), (4, 5, 64, 70))
    assert _array_geometry(64).equal_size_runs == ((0, 4, 0, 64),)
    assert _array_geometry(8, bs_stationarity=100.0).equal_size_runs == ((0, 1, 0, 8),)


def test_subarray_size_must_be_positive():
    elements = uniform_linear_array(4, 0.05, (0.0, 0.0, 10.0))
    for size in (0, -3):
        with pytest.raises(ValueError, match="subarray_size"):
            ArrayGeometry(element_positions=elements, subarray_size=size)


# ---------------------------------------------------------------------------
# Both partitions against the loops they replaced, over seeded cases
# ---------------------------------------------------------------------------


def _reference_subarrays(elements, bs_stationarity_m):
    """(start, stop, center) per sub-array: the loop that built one
    sub-array object at a time before the partition became a size."""
    if len(elements) == 1:
        step = 0.0
    else:
        rows = elements.tolist()
        step = max(math.dist(rows[i], rows[i + 1]) for i in range(len(rows) - 1))
    if step <= 0:
        per_subarray = len(elements)
    else:
        per_subarray = max(1, int(bs_stationarity_m / step + GEOMETRY_TOL_M))
    subarrays = []
    start = 0
    while start < len(elements):
        stop = min(start + per_subarray, len(elements))
        subarrays.append((start, stop, elements[start:stop].mean(axis=0)))
        start = stop
    return subarrays


def _reference_segments(tracks, stationarity_user_m):
    """The segment loop with its own floor(stationarity / spacing)."""
    ref = tracks[0]
    spacing = ref.snapshot_spacing_m
    per_segment = max(1, int(stationarity_user_m / spacing + GEOMETRY_TOL_M))
    segments = []
    first = 0
    while first < len(ref):
        count = min(per_segment, len(ref) - first)
        segments.append(Segment(len(segments), first, count, count * spacing))
        first += count
    return tuple(segments)


def _check_partition(elements, stationarity):
    want = _reference_subarrays(elements, stationarity)
    array = ArrayGeometry(elements, partition_subarrays(elements, stationarity))
    sizes = [stop - start for start, stop, _ in want]
    assert array.n_subarrays == len(want)
    assert subarray_sizes(array) == sizes
    assert array.subarray_starts.tolist() == [start for start, _, _ in want]
    assert np.array_equal(
        array.subarray_of_element, np.repeat(np.arange(len(want)), sizes)
    )
    assert np.array_equal(array.subarray_centers, [center for _, _, center in want])
    runs = []
    for _, group in groupby(enumerate(want), key=lambda s: s[1][1] - s[1][0]):
        group = list(group)
        (a0, (e0, _, _)), (a1, (_, e1, _)) = group[0], group[-1]
        runs.append((a0, a1 + 1, e0, e1))
    assert array.equal_size_runs == tuple(runs)
    # The documented rule: the lowest index within GEOMETRY_TOL_M of the
    # smallest centroid distance.
    centroid = elements.mean(axis=0)
    distance = [float(np.linalg.norm(center - centroid)) for _, _, center in want]
    reference = min(a for a, d in enumerate(distance) if d - min(distance) <= GEOMETRY_TOL_M)
    assert array.reference_subarray == reference
    return sizes


def _random_elements(rng):
    """A ULA, or explicit non-uniform rows, some of them coincident."""
    n = int(rng.integers(1, 301))
    if rng.random() < 0.6:
        axis = tuple(rng.normal(size=3))
        return uniform_linear_array(n, rng.uniform(0.005, 0.3), rng.uniform(-5, 5, 3), axis)
    steps = rng.normal(size=(n, 3)) * rng.uniform(0.01, 0.2)
    steps[rng.random(n) < 0.2] = 0.0  # coincident neighbours
    if rng.random() < 0.1:
        steps[:] = 0.0  # every element at one point
    return np.cumsum(steps, axis=0) + rng.uniform(-5, 5, 3)


def test_partitions_equal_the_replaced_loops():
    rng = np.random.default_rng(23)
    seen = dict.fromkeys(
        ["one", "exact", "remainder", "size one", "coincident", "beyond aperture"], 0
    )
    for trial in range(200):
        elements = _random_elements(rng)
        rows = elements.tolist()
        step = max((math.dist(a, b) for a, b in zip(rows, rows[1:])), default=0.0)
        n = len(elements)
        k = int(rng.integers(1, n + 1))
        choice = rng.random()
        if step == 0.0:
            stationarity = float(rng.uniform(1e-3, 10.0))
        elif choice < 0.3:
            stationarity = k * step  # exact division, up to rounding
        elif choice < 0.5:
            stationarity = float(rng.uniform(0.05, 1.0)) * step  # below one step
        elif choice < 0.6:
            stationarity = float(rng.uniform(1.0, 3.0)) * n * step  # beyond the aperture
        else:
            stationarity = float(rng.uniform(1.0, n + 1.0)) * step
        sizes = _check_partition(elements, stationarity)
        seen["one"] += len(sizes) == 1
        seen["exact"] += len(sizes) > 1 and sizes[-1] == sizes[0]
        seen["remainder"] += sizes[-1] != sizes[0]
        seen["size one"] += sizes[0] == 1 < n
        seen["coincident"] += any(a == b for a, b in zip(rows, rows[1:]))
        seen["beyond aperture"] += stationarity >= n * step > 0

        n_snapshots = int(rng.integers(1, 301))
        spacing = float(rng.uniform(0.01, 2.0))
        tracks = [
            linear_track(u, (3.0 * u, 0.0, 1.5), 90.0, n_snapshots, spacing) for u in (1, 2)
        ]
        user_stationarity = float(rng.choice([k * spacing, rng.uniform(0.1, 2.0 * n_snapshots)]))
        want = _reference_segments(tracks, user_stationarity)
        assert build_segments(tracks, user_stationarity) == want, trial
    assert min(seen.values()) >= 5, seen
