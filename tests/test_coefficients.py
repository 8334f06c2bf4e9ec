import math
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

from auramimo import (
    IncompleteViews,
    assemble_clusters,
    attach_focal_points,
    build_layout,
    draw_lsp,
    laplacian_offsets,
    linear_track,
    partition_subarrays,
    planar_vs_spherical_error,
    recalculate_views,
    share_clusters,
    share_table_for_segment,
    synthesize,
    uniform_linear_array,
)
from auramimo import coefficients
from auramimo.coefficients import _fan_positions, scatterer_randomness
from auramimo.layout import ArrayGeometry
from auramimo.geom import SPEED_OF_LIGHT_M_S, azimuth_rotation, distances
from auramimo.sharing import OwnerView, OwnerViews
from conftest import (
    make_point_layout,
    make_scenario,
    make_two_user_layout,
    subarray_sizes,
    synthesize_segment,
    user_views,
    view_users,
    views_from_rows,
)

C0 = SPEED_OF_LIGHT_M_S


def norms(x):
    """Euclidean norms along the last axis, as synthesis formed them before
    plane-by-plane distances."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


# ---------------------------------------------------------------------------
# Scatterer offsets
# ---------------------------------------------------------------------------


def test_offsets_zero_mean_unit_rms():
    off = laplacian_offsets(20)
    assert len(off) == 20
    assert abs(off.sum()) < 1e-13
    assert np.sqrt(np.mean(off**2)) == pytest.approx(1.0, abs=1e-12)
    # Mirror symmetry is exact.
    np.testing.assert_array_equal(off, -off[::-1])


def test_offsets_match_laplace_quantiles():
    # Oracle: equal-mass bin centers are the Laplace quantiles at
    # (k + 1/2)/n, then unit-RMS normalized.
    n = 20
    q = (np.arange(n) + 0.5) / n
    ref = scipy.stats.laplace.ppf(q)
    ref = ref / np.sqrt(np.mean(ref**2))
    np.testing.assert_allclose(laplacian_offsets(n), ref, atol=1e-9)


def test_offsets_edge_counts():
    assert laplacian_offsets(1).tolist() == [0.0]
    with pytest.raises(ValueError):
        laplacian_offsets(7)


def test_scatterer_randomness_keyed_and_valid():
    p1, perm1 = scatterer_randomness(5, 13)
    p2, perm2 = scatterer_randomness(5, 13)
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(perm1, perm2)
    p3, _ = scatterer_randomness(5, 14)
    assert not np.array_equal(p1, p3)
    assert sorted(perm1.tolist()) == list(range(20))
    assert np.all(p1 >= 0) and np.all(p1 < 2 * np.pi)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


def _manual_view(layout, lbs, fbs, interior, power=0.04):
    centers = layout.array.subarray_centers
    lbs, fbs = np.array(lbs, dtype=float), np.array(fbs, dtype=float)
    e_len = np.array([math.dist(c, f) for c, f in zip(centers, fbs)])
    return OwnerView(
        user_id=1,
        cluster_id=0,
        recalc_mode="generator",
        power=power,
        lbs=lbs,
        fbs=fbs,
        e_len_m=e_len,
        interior_raw_m=interior,
    )


def _single_user_views(layout, view):
    return views_from_rows([view])


def test_single_scatterer_phase_arithmetic():
    # With one scatterer the coefficient must be exactly
    # sqrt(P) * exp(j*(phi - k*(|elem - FBS| + D_int + |LBS - rx|))).
    layout = make_point_layout({1: (20.0, 0.0, 1.5)}, 5.0)
    lbs = np.array([15.0, 4.0, 2.0])
    fbs = np.array([[3.0, 6.0, 5.0]])
    interior = 11.0
    view = _manual_view(layout, lbs, fbs, interior, power=0.25)
    carrier = 3.5e9
    tensor = synthesize_segment(
        _single_user_views(layout, view), layout, carrier, seed=5, n_scatterers=1
    )

    k = 2 * math.pi * carrier / C0
    phi = scatterer_randomness(5, 0, 1)[0][0]
    elements = layout.array.element_positions
    rx = np.array([20.0, 0.0, 1.5])
    total = (
        np.linalg.norm(elements - fbs[0], axis=1)
        + interior
        + np.linalg.norm(lbs - rx)
    )
    expected = math.sqrt(0.25) * np.exp(1j * (phi - k * total))
    np.testing.assert_allclose(tensor.coefficients[0, 0, :, 0, 0], expected, rtol=1e-12)
    # Magnitude is exactly the amplitude for a single scatterer.
    np.testing.assert_allclose(
        np.abs(tensor.coefficients[0, 0, :, 0, 0]), 0.5, rtol=1e-12
    )
    # Delay is the center path over c.
    want = (view.e_len_m[0] + interior + math.dist(lbs, rx)) / C0
    assert tensor.delays[0, 0, 0] == pytest.approx(want, rel=1e-12)


def test_negative_interior_clamped_and_logged(caplog):
    layout = make_point_layout({1: (20.0, 0.0, 1.5)}, 5.0)
    view = _manual_view(layout, (15.0, 4.0, 2.0), [(3.0, 6.0, 5.0)], -5.0)
    with caplog.at_level("DEBUG", logger="auramimo"):
        tensor = synthesize_segment(
            _single_user_views(layout, view), layout, 3.5e9, seed=5, n_scatterers=1
        )
    # Synthesis only fills arrays: the run logs its clamped views once
    # (test_pipeline.py::test_run_logs_one_clamp_warning).
    assert caplog.records == []
    assert np.all(tensor.delays >= 0)
    # The clamped interior contributes zero length, not a negative one.
    zero_interior = _manual_view(layout, (15.0, 4.0, 2.0), [(3.0, 6.0, 5.0)], 0.0)
    ref = synthesize_segment(
        _single_user_views(layout, zero_interior), layout, 3.5e9, seed=5, n_scatterers=1
    )
    np.testing.assert_array_equal(tensor.coefficients, ref.coefficients)


def _full_views(layout, seed=3, total=7):
    """(cluster set, owner views) of segment 0."""
    scenario = make_scenario(clusters_per_user=total)
    table = share_table_for_segment(layout, 0, total)
    lsp = draw_lsp(scenario, layout, seed=seed)
    cs = assemble_clusters(table, lsp, layout, scenario, seed=seed)
    shared = share_clusters(cs, attach_focal_points(cs, layout))
    return cs, recalculate_views(shared, cs, layout)


def _full_tensor(layout, seed=3, total=7):
    _, views = _full_views(layout, seed, total)
    tensor = synthesize_segment(views, layout, make_scenario().carrier_hz, seed=seed)
    return tensor, views, layout


def test_tensor_shape_and_user_order():
    tensor, views, layout = _full_tensor(make_two_user_layout(2.0))
    assert tensor.coefficients.shape == (2, 1, 64, 7, 4)
    assert tensor.delays.shape == (2, 7, 4)
    assert tensor.user_ids == (1, 2)


def test_magnitude_bounded_by_coherent_sum():
    # Each of the 20 scatterers carries amplitude sqrt(P/20); the triangle
    # inequality caps the row magnitude at sqrt(20 P).
    tensor, views, layout = _full_tensor(make_two_user_layout(2.0))
    for k, user in enumerate(tensor.user_ids):
        for c, view in enumerate(user_views(views, user)):
            cap = math.sqrt(20.0 * view.power) * (1 + 1e-12)
            assert np.all(np.abs(tensor.coefficients[k, 0, :, c, :]) <= cap)


def test_colocated_users_get_identical_rows():
    tensor, views, layout = _full_tensor(make_two_user_layout(0.0))
    np.testing.assert_array_equal(
        tensor.coefficients[0], tensor.coefficients[1]
    )
    np.testing.assert_array_equal(tensor.delays[0], tensor.delays[1])


def _solved_path(cluster, interior_raw_m, rx0, ref_center):
    """The centre path a focal solve from rx0 closes: the excess delay
    (lengthened by an interior leg that synthesis clamps) plus the direct
    reference distance."""
    clamped = max(0.0, -interior_raw_m)
    return cluster.tau_s * C0 + clamped + math.dist(rx0, ref_center)


def test_generator_center_path_delay_closes():
    # For every view, clamped interiors and joining owners included, the
    # snapshot-0 delay is the path its focal points close, to within 1e-9 m:
    # a generator or kept-parameters view's solved path; a kept-focal-point
    # view's is its generator's with the last leg, LBS to receiver, swapped.
    layout = make_two_user_layout(2.0)
    cs, views = _full_views(layout)
    tensor = synthesize_segment(views, layout, make_scenario().carrier_hz, seed=3)
    ref_center = layout.array.subarray_centers[layout.array.reference_subarray]
    checked = []
    for k, user in enumerate(tensor.user_ids):
        rx0 = layout.segment_start_position(user, 0)
        for c, view in enumerate(user_views(views, user)):
            cluster = cs.clusters[view.cluster_id]
            if view.recalc_mode == "kept-focal-point":
                gen_user = cluster.generating_user
                gen0 = layout.segment_start_position(gen_user, 0)
                gen = views.views[gen_user, view.cluster_id]
                want = _solved_path(cluster, gen.interior_raw_m, gen0, ref_center)
                want += math.dist(rx0, view.lbs) - math.dist(gen0, view.lbs)
            else:
                want = _solved_path(cluster, view.interior_raw_m, rx0, ref_center)
            assert abs(tensor.delays[k, c, 0] * C0 - want) <= 1e-9, (user, c)
            checked.append((view.recalc_mode, view.interior_raw_m < 0.0))
    assert len(checked) == 14
    want = {("generator", True), ("kept-focal-point", False), ("kept-parameters", False)}
    assert want <= set(checked), checked


def test_drifting_delay_steps_bounded_by_snapshot_spacing():
    tensor, views, layout = _full_tensor(make_two_user_layout(2.0))
    spacing = layout.tracks[0].snapshot_spacing_m
    bound = spacing / C0 * (1 + 1e-6)
    steps = np.abs(np.diff(tensor.delays, axis=2))
    assert np.all(steps <= bound)
    # The receiver moves, so delays do drift.
    assert np.any(steps > 0)


def test_incomplete_views_rejected():
    # An empty set and a column that does not lead with (user, cluster) are
    # rejected when they are built, so synthesis never receives one.
    layout = make_point_layout({1: (20.0, 0.0, 1.5), 2: (22.0, 0.0, 1.5)}, 5.0)
    view = _manual_view(layout, (15.0, 4.0, 2.0), [(3.0, 6.0, 5.0)], 1.0)
    # Two users with two clusters each: (U, C) = (2, 2).
    rows = [view._replace(user_id=u, cluster_id=c) for u in (1, 2) for c in (0, 1)]
    columns = vars(views_from_rows(rows))
    with pytest.raises(IncompleteViews, match="segment 0 has no owner views"):
        OwnerViews(**{**columns, "cluster_id": np.empty((2, 0), int)})
    for name in OwnerView._fields[1:]:
        column = columns[name]
        for bad in (column[:1], column[:, :1], column.reshape(4, *column.shape[2:])):
            with pytest.raises(IncompleteViews) as info:
                OwnerViews(**{**columns, name: bad})
            message = str(info.value)
            if name == "cluster_id" and bad.shape == (2, 1):  # C is read off the ids
                assert message == "recalc_mode has leading shape (2, 2), not (U, C) = (2, 1)"
            else:
                assert message.startswith(f"{name} has leading shape {bad.shape[:2]}, not (U, C)")
    # A user id column of another length disagrees with every other column.
    with pytest.raises(IncompleteViews, match="not \\(U, C\\) = \\(3, 2\\)$"):
        OwnerViews(**{**columns, "user_id": np.array([1, 2, 3])})


def test_users_must_agree_on_cluster_count():
    # User 1 holds two clusters and user 2 one: three slots do not lead with
    # (U, C) for two users, so the set is rejected when it is built.
    layout = make_point_layout({1: (20.0, 0.0, 1.5), 2: (22.0, 0.0, 1.5)}, 5.0)
    view = _manual_view(layout, (15.0, 4.0, 2.0), [(3.0, 6.0, 5.0)], 1.0)
    rows = [view._replace(user_id=u, cluster_id=c) for u, c in ((1, 0), (1, 1), (2, 0))]
    columns = {
        name: np.array([getattr(r, name) for r in rows]) for name in OwnerView._fields[1:]
    }
    with pytest.raises(
        IncompleteViews, match=r"^cluster_id has leading shape \(3,\), not \(U, C\) = \(2, 3\)$"
    ):
        OwnerViews(segment_index=0, user_id=np.array([1, 2]), **columns)


# ---------------------------------------------------------------------------
# Planar vs spherical phase deviation
# ---------------------------------------------------------------------------


def _broadside_fbs(layout, distances):
    """FBS sets (n, A, 3), one per distance: each sub-array's focal point
    that far from its center along +y."""
    return np.array(
        [[c + (0.0, d, 0.0) for c in layout.array.subarray_centers] for d in distances]
    )


def test_far_focal_point_is_planar():
    layout = make_two_user_layout(2.0)
    err = planar_vs_spherical_error(_broadside_fbs(layout, [1e6, 1e7]), layout, 3.5e9)
    assert err.shape == (2, 4)
    assert np.all(err < 1e-3)


def test_near_focal_point_is_not_planar():
    layout = make_two_user_layout(2.0)
    err = planar_vs_spherical_error(_broadside_fbs(layout, [1.5, 2.0]), layout, 3.5e9)
    assert np.all(err > 0.5)


def test_single_element_subarrays_have_no_deviation():
    layout = make_two_user_layout(2.0, n_elements=4, bs_stationarity_m=0.05)
    assert layout.array.n_subarrays == 4
    assert subarray_sizes(layout.array) == [1, 1, 1, 1]
    err = planar_vs_spherical_error(_broadside_fbs(layout, [2.0, 7.0]), layout, 3.5e9)
    np.testing.assert_array_equal(err, np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# Batched sub-array geometry against the per-sub-array scalar forms
# ---------------------------------------------------------------------------


def _scalar_rotate(vec, delta_deg):
    d = np.radians(delta_deg)
    c, s = np.cos(d), np.sin(d)
    x, y, z = vec
    return np.array([c * x - s * y, s * x + c * y, z])


def _scalar_fan(anchor, focal, offsets_deg):
    # One fan, one rotation call per offset: the form the batch replaced.
    delta = focal - anchor
    dist = float(np.linalg.norm(delta))
    if dist == 0.0:
        return np.tile(focal, (len(offsets_deg), 1))
    direction = delta / dist
    return anchor + dist * np.array([_scalar_rotate(direction, d) for d in offsets_deg])


def _scalar_planar_error(fbs, layout, carrier_hz):
    # One FBS set and one sub-array at a time: the form the batch replaced.
    wavenumber = 2.0 * math.pi * carrier_hz / C0
    array = layout.array
    elements = np.array(array.element_positions)
    errors = np.zeros(len(fbs))
    stops = [*array.subarray_starts[1:], array.n_elements]
    for a, (start, stop) in enumerate(zip(array.subarray_starts, stops)):
        focal = fbs[a]
        center = array.subarray_centers[a]
        leg = focal - center
        dist = float(np.linalg.norm(leg))
        if dist == 0.0:
            continue
        direction = leg / dist
        elems = elements[start:stop]
        d_spherical = np.linalg.norm(elems - focal, axis=1)
        d_linear = dist - (elems - center) @ direction
        errors[a] = float(np.max(np.abs(d_spherical - d_linear))) * wavenumber
    return errors


def test_batched_fan_equals_scalar_fans():
    rng = np.random.default_rng(21)
    for trial in range(250):
        n_sub = int(rng.integers(1, 70))
        anchors = rng.uniform(-50.0, 50.0, size=(n_sub, 3))
        focals = anchors + rng.normal(size=(n_sub, 3)) * rng.uniform(1e-3, 200.0)
        # Zero-length legs collapse onto the focal point.
        zero = rng.random(n_sub) < 0.2
        focals[zero] = anchors[zero]
        offsets = laplacian_offsets(20) * rng.uniform(0.5, 10.0)
        perm = rng.permutation(20)
        d = np.radians(offsets)
        got = _fan_positions(anchors, focals, (np.cos(d)[perm], np.sin(d)[perm]))
        want = np.array(
            [_scalar_fan(anchors[a], focals[a], offsets[perm]) for a in range(n_sub)]
        )
        assert np.array_equal(got, want), trial
        assert np.array_equal(got[zero], np.repeat(focals[zero][:, None, :], 20, axis=1))
        # A single fan (the arrival side) is the n_sub = 1 case without the axis.
        one = _fan_positions(anchors[0], focals[0], (np.cos(d), np.sin(d)))
        assert np.array_equal(one, _scalar_fan(anchors[0], focals[0], offsets))


def _random_array_layout(rng):
    n_elements = int(rng.integers(1, 200))
    if rng.random() < 0.5:
        axis = tuple(rng.normal(size=3))
        elements = uniform_linear_array(
            n_elements, rng.uniform(0.01, 0.2), rng.uniform(-5, 5, 3), axis
        )
    else:
        elements = np.cumsum(rng.normal(size=(n_elements, 3)) * 0.05, axis=0)
    stationarity = rng.uniform(0.01, 3.0)
    array = ArrayGeometry(
        element_positions=elements,
        subarray_size=partition_subarrays(elements, stationarity),
    )
    return SimpleNamespace(array=array)


def test_batched_planar_error_equals_scalar_loop():
    rng = np.random.default_rng(22)
    uneven = 0
    for trial in range(250):
        layout = _random_array_layout(rng)
        centers = layout.array.subarray_centers
        uneven += len(layout.array.equal_size_runs) > 1
        n = int(rng.integers(1, 6))
        scale = 10.0 ** rng.uniform(-1, 6, size=(n, 1, 1))
        fbs = centers + rng.normal(size=(n, *centers.shape)) * scale
        # Zero-length focal legs have no planar error.
        zero = rng.random(fbs.shape[:2]) < 0.2
        fbs[zero] = np.broadcast_to(centers, fbs.shape)[zero]
        carrier = rng.uniform(1e9, 30e9)
        got = planar_vs_spherical_error(fbs, layout, carrier)
        assert got.shape == fbs.shape[:2], trial
        for i in range(n):
            want = _scalar_planar_error(fbs[i], layout, carrier)
            assert np.array_equal(got[i], want), (trial, i)
        assert np.all(got[zero] == 0.0)
    assert uneven >= 50  # runs of unequal sub-array sizes are exercised


def test_element_distances_equal_gathered_norms():
    rng = np.random.default_rng(23)
    uneven = 0
    for trial in range(250):
        array = _random_array_layout(rng).array
        uneven += len(array.equal_size_runs) > 1
        n = int(rng.integers(1, 25))
        scale = 10.0 ** rng.uniform(-2, 4)
        points = array.subarray_centers[:, None, :] + rng.normal(
            size=(array.n_subarrays, n, 3)
        ) * scale
        want = norms(array.element_positions[:, None, :] - points[array.subarray_of_element])
        assert np.array_equal(array.element_distances(points), want), trial
    assert uneven >= 50


# ---------------------------------------------------------------------------
# Shared departure phases against the per-view synthesis loop
# ---------------------------------------------------------------------------


def _reference_synthesize(views, layout, carrier_hz, seed, spread_deg, n_scatterers):
    # Every view computes its own fans, gathered distances and phases: the
    # loop that per-geometry departure phases replaced.
    array = layout.array
    elements = array.element_positions
    sub_of_element = array.subarray_of_element
    ref_index = array.reference_subarray
    rotation = azimuth_rotation(laplacian_offsets(n_scatterers) * spread_deg)
    wavenumber = 2.0 * math.pi * carrier_hz / C0
    segment = views.segment_index
    user_ids = view_users(views)
    n_clusters = len(user_views(views, user_ids[0]))
    n_snap = layout.segments[segment].n_snapshots
    coeff = np.empty((len(user_ids), 1, array.n_elements, n_clusters, n_snap), complex)
    delays = np.empty((len(user_ids), n_clusters, n_snap))
    for k, u in enumerate(user_ids):
        rx_positions = layout.segment_positions(u, segment)
        anchor = layout.segment_start_position(u, segment)
        for c, view in enumerate(user_views(views, u)):
            phases, perm = scatterer_randomness(seed, view.cluster_id, n_scatterers)
            amp = math.sqrt(view.power / len(phases))
            interior = view.interior_raw_m
            if interior < 0.0:
                interior = 0.0
            lbs = view.lbs
            lbs_points = _fan_positions(anchor, lbs, rotation)
            fbs_points = _fan_positions(
                array.subarray_centers, view.fbs, (rotation[0][perm], rotation[1][perm])
            )
            d_tx = norms(elements[:, None, :] - fbs_points[sub_of_element])
            d_rx = norms(rx_positions[:, None, :] - lbs_points[None, :, :])
            tx_phase = np.exp(-1j * wavenumber * (d_tx + interior))
            rx_phase = np.exp(1j * (phases[None, :] - wavenumber * d_rx))
            coeff[k, 0, :, c, :] = amp * np.einsum("il,tl->it", tx_phase, rx_phase)
            d_center_rx = norms(rx_positions - lbs)
            delays[k, c, :] = (
                float(view.e_len_m[ref_index]) + interior + d_center_rx
            ) / C0
    return coeff, delays


def _departure_keys(views):
    return {
        (v.cluster_id, v.fbs.tobytes(), 0.0 if v.interior_raw_m < 0.0 else v.interior_raw_m)
        for v in views.views.values()
    }


def _seeded_views(rng, seed):
    """Owner views, layout and cluster set of one segment of a random
    multi-user layout, run through the real stages; some users share a
    start position."""
    n_users = int(rng.integers(2, 5))
    n_snap = int(rng.integers(1, 4))
    spacing = rng.uniform(0.3, 4.0)
    starts = []
    for _ in range(n_users):
        if starts and rng.random() < 0.3:
            starts.append(starts[int(rng.integers(len(starts)))])
        else:
            starts.append(rng.uniform([20.0, -3.0, 1.5], [28.0, 3.0, 1.5]))
    tracks = [linear_track(u + 1, p, 90.0, n_snap, spacing) for u, p in enumerate(starts)]
    elements = uniform_linear_array(
        int(rng.integers(2, 41)), 0.05, (0.0, 0.0, 10.0)
    )
    layout = build_layout(
        tracks,
        elements,
        stationarity_user_m=n_snap * spacing + 1.0,
        bs_stationarity_m=rng.uniform(0.1, 1.0),
    )
    total = int(rng.integers(3, 7))
    scenario = make_scenario(clusters_per_user=total)
    table = share_table_for_segment(layout, 0, total)
    lsp = draw_lsp(scenario, layout, seed=seed)
    cs = assemble_clusters(table, lsp, layout, scenario, seed=seed)
    shared = share_clusters(cs, attach_focal_points(cs, layout))
    views = recalculate_views(shared, cs, layout)
    return views, layout, cs


def _perturb(views, rng):
    """Views with equal-valued FBS copies and changed interiors, so that
    owners of one cluster share an FBS set but not always an interior."""
    changed = {}
    for key, view in views.views.items():
        r = rng.random()
        if r < 0.15:
            view = view._replace(interior_raw_m=-rng.uniform(0.0, 30.0))
        elif r < 0.25:
            view = view._replace(interior_raw_m=view.interior_raw_m + rng.uniform(0.1, 5.0))
        elif r < 0.3:
            view = view._replace(interior_raw_m=float(rng.choice([0.0, -0.0])))
        elif r < 0.4:
            view = view._replace(fbs=view.fbs.copy())
        changed[key] = view
    return views_from_rows(list(changed.values()), views.segment_index)


def test_shared_departure_phases_equal_per_view_loop():
    rng = np.random.default_rng(24)
    seen = dict.fromkeys(
        "kept-focal-point kept-parameters colocated clamped boresight reused uneven single"
        .split(),
        0,
    )
    for trial in range(220):
        seed = 1000 + trial
        views, layout, cs = _seeded_views(rng, seed)
        if trial % 2:
            views = _perturb(views, rng)
        n_sc = 1 if rng.random() < 0.15 else 20
        spread = rng.uniform(0.5, 10.0)
        carrier = rng.uniform(1e9, 30e9)
        tensor = synthesize_segment(
            views, layout, carrier, seed, cluster_angle_spread_deg=spread, n_scatterers=n_sc
        )
        coeff, delays = _reference_synthesize(views, layout, carrier, seed, spread, n_sc)
        # One matrix product per geometry sums in another order than the
        # reference's einsum: a bound of 1e-12 of the tensor's largest value.
        error = np.max(np.abs(tensor.coefficients - coeff))
        assert error <= 1e-12 * np.max(np.abs(coeff)), trial
        assert np.array_equal(tensor.delays, delays), trial

        all_views = list(views.views.values())
        for v in all_views:
            seen[v.recalc_mode] = seen.get(v.recalc_mode, 0) + 1
            seen["clamped"] += v.interior_raw_m < 0.0
            seen["boresight"] += cs.clusters[v.cluster_id].boresight
        starts = [tuple(layout.segment_start_position(u, 0)) for u in layout.user_ids]
        seen["colocated"] += len(set(starts)) < len(starts)
        seen["reused"] += len(_departure_keys(views)) < len(all_views)
        seen["uneven"] += len(layout.array.equal_size_runs) > 1
        seen["single"] += n_sc == 1
    assert min(seen.values()) >= 20, seen


def test_departure_phase_computed_once_per_distinct_geometry(monkeypatch):
    calls = []
    original = coefficients._departure_phase

    def spy(fbs, *args):
        result = original(fbs, *args)
        calls.append((len(fbs), result.size))
        return result

    monkeypatch.setattr(coefficients, "_departure_phase", spy)
    _, views, _ = _full_tensor(make_two_user_layout(0.0))
    assert sum(n for n, _ in calls) == len(_departure_keys(views)) < len(views.views)

    for n_elements in (64, 250, 1000):
        calls.clear()
        _, views, _ = _full_tensor(make_two_user_layout(40.0, n_elements=n_elements))
        assert view_users(views) == (1, 2)
        owned = [{c for u, c in views.views if u == user} for user in (1, 2)]
        assert not owned[0] & owned[1]  # nothing shared
        assert sum(n for n, _ in calls) == len(views.views)
        # Each block stays within the value budget, and at most one is short.
        assert all(size <= coefficients.BLOCK_VALUES for _, size in calls), calls
        full = coefficients.BLOCK_VALUES // (n_elements * coefficients.N_SCATTERERS)
        assert sum(n != full for n, _ in calls) <= 1, calls


def test_outputs_independent_of_cpu_count(monkeypatch):
    # Blocks of one geometry (1000 elements) and of four (250 elements,
    # the last block short); both arrays end in a short sub-array.
    original = coefficients._departure_phase
    threads = set()

    def spy(*args):
        threads.add(threading.current_thread())
        return original(*args)

    monkeypatch.setattr(coefficients, "_departure_phase", spy)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    switch_interval = sys.getswitchinterval()
    for n_elements in (1000, 250):
        layout = make_two_user_layout(2.0, n_elements=n_elements)
        tensors = []
        for cpus in (1, 1, 2, 2, 3, 3):
            monkeypatch.setattr(coefficients, "_cpu_count", lambda: cpus)
            threads.clear()
            sys.setswitchinterval(1e-5)  # threads interleave as often as they can
            try:
                tensor, views, _ = _full_tensor(layout)
            finally:
                sys.setswitchinterval(switch_interval)
            tensors.append(tensor)
            # The calling thread, and with more CPUs up to cpus - 1 workers.
            per_block = coefficients.BLOCK_VALUES // (n_elements * coefficients.N_SCATTERERS)
            assert len(_departure_keys(views)) > 2 * per_block  # at least three blocks
            assert threading.current_thread() in threads
            assert (len(threads) == 1) == (cpus == 1) and len(threads) <= cpus, cpus
        for tensor in tensors[1:]:
            assert np.array_equal(tensor.coefficients, tensors[0].coefficients)
            assert np.array_equal(tensor.delays, tensors[0].delays)


def test_synthesis_threads_share_the_cpus_with_blas(monkeypatch):
    names = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
    monkeypatch.setattr(coefficients, "_cpu_count", lambda: 4)
    cases = [
        ({}, 1),  # BLAS may take every CPU
        ({"OPENBLAS_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        ({"MKL_NUM_THREADS": "3"}, 1),
        ({"OMP_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "8"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "abc"}, 1),
    ]
    for env, expected in cases:
        for name in names:
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert coefficients._synthesis_threads() == expected, env


def test_import_does_not_load_the_thread_pool():
    # Synthesis runs its blocks on plain threads: importing auramimo
    # stays cheap and loads no pool module.
    src = str(Path(coefficients.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import auramimo, sys; assert 'concurrent.futures' not in sys.modules",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr


def test_output_arrays_must_have_the_segment_shape():
    _, views, layout = _full_tensor(make_two_user_layout(2.0))
    coeff = np.empty((2, 1, 64, 7, 5), dtype=complex)  # one snapshot too many
    with pytest.raises(ValueError, match="shape"):
        synthesize(views, layout, 3.5e9, seed=3, out=(coeff, np.empty((2, 7, 5))))


@pytest.mark.parametrize(
    "coeff_dtype, delay_dtype, got",
    [
        (np.float64, np.float64, "float64 and float64"),
        # Accepted: the run tensor's dtype, the precision channel.bin stores.
        (np.complex64, np.float64, "complex64 and float64"),
        (np.complex128, np.float32, "complex128 and float32"),
    ],
)
def test_output_arrays_must_have_full_precision_dtypes(coeff_dtype, delay_dtype, got):
    # A float64 coefficients array would keep only the real parts.
    full, views, layout = _full_tensor(make_two_user_layout(2.0))
    coeff = np.zeros((2, 1, 64, 7, 4), dtype=coeff_dtype)
    delays = np.zeros((2, 7, 4), dtype=delay_dtype)
    if coeff_dtype is np.complex64:
        # Every block is computed in complex128 and rounded as it is stored.
        synthesize(views, layout, 3.5e9, seed=3, out=(coeff, delays))
        rounded = full.coefficients.astype(np.complex64)
        assert coeff.tobytes() == rounded.tobytes()
        assert delays.tobytes() == full.delays.tobytes()
        return
    with pytest.raises(ValueError, match=f"got {got}$"):
        synthesize(views, layout, 3.5e9, seed=3, out=(coeff, delays))
    assert not coeff.any() and not delays.any()  # no block ran


# ---------------------------------------------------------------------------
# The segment-wide arrival pass against the per-slot arrival loop
# ---------------------------------------------------------------------------


def _per_slot_synthesize(views, layout, carrier_hz, seed, spread_deg, n_scatterers, out):
    # Synthesis as it was with one arrival side per (user, cluster) slot,
    # computed inside each block, on the same blocks and threads.
    per_user = [user_views(views, u) for u in view_users(views)]
    rotation = azimuth_rotation(laplacian_offsets(n_scatterers) * spread_deg)
    randomness = {
        v.cluster_id: scatterer_randomness(seed, v.cluster_id, n_scatterers)
        for slots in per_user
        for v in slots
    }
    wavenumber = 2.0 * math.pi * carrier_hz / C0
    array = layout.array
    segment = views.segment_index
    n_snap = layout.segments[segment].n_snapshots
    coeff, delays = out
    ref_index = array.reference_subarray
    by_geometry = {}
    for k, slots in enumerate(per_user):
        for c, v in enumerate(slots):
            key = (v.cluster_id, v.fbs.tobytes(), max(v.interior_raw_m, 0.0))
            by_geometry.setdefault(key, (v.fbs, []))[1].append((k, c))
    rx_positions = [layout.segment_positions(u, segment) for u in view_users(views)]
    anchors = [layout.segment_start_position(u, segment) for u in view_users(views)]

    def fill(block, work):
        perms = np.stack([randomness[cluster_id][1] for (cluster_id, _, _), _ in block])
        fans = _fan_positions(
            array.subarray_centers,
            np.stack([fbs for _, (fbs, _) in block]),
            (rotation[0][perms][:, None, :], rotation[1][perms][:, None, :]),
        )
        tx_phase = coefficients._departure_phase(
            fans,
            np.array([interior for (_, _, interior), _ in block]),
            array,
            wavenumber,
            work,
        )
        for j, ((cluster_id, _, interior), (_, slots)) in enumerate(block):
            phases = randomness[cluster_id][0]
            rx_phase = np.empty((len(slots) * n_snap, n_scatterers), complex)
            for s, (k, c) in enumerate(slots):
                view = per_user[k][c]
                lbs_points = _fan_positions(anchors[k], view.lbs, rotation)
                d_rx = norms(rx_positions[k][:, None, :] - lbs_points[None, :, :])
                np.multiply(
                    math.sqrt(view.power / n_scatterers),
                    np.exp(1j * (phases[None, :] - wavenumber * d_rx)),
                    out=rx_phase[s * n_snap : (s + 1) * n_snap],
                )
                d_center_rx = norms(rx_positions[k] - view.lbs)
                delays[k, c, :] = (
                    float(view.e_len_m[ref_index]) + interior + d_center_rx
                ) / C0
            product = tx_phase[:, j * n_scatterers : (j + 1) * n_scatterers] @ rx_phase.T
            for s, (k, c) in enumerate(slots):
                coeff[k, 0, :, c, :] = product[:, s * n_snap : (s + 1) * n_snap]

    geometries = list(by_geometry.items())
    per_block = max(1, coefficients.BLOCK_VALUES // (array.n_elements * n_scatterers))
    coefficients._run_blocks(
        fill,
        [geometries[i : i + per_block] for i in range(0, len(geometries), per_block)],
        lambda: None,  # each block allocates its own arrays
    )


def _two_segment_views(rng, seed):
    """A random multi-user layout of two segments (the second one often
    short) and each segment's owner views, run through the real stages;
    some users share a start position."""
    n_users = int(rng.integers(2, 5))
    spacing = rng.uniform(0.3, 2.0)
    first = int(rng.integers(1, 4))
    n_snap = first + int(rng.integers(1, first + 1))
    stationarity = first * spacing + 1e-6
    starts = []
    for _ in range(n_users):
        if starts and rng.random() < 0.3:
            starts.append(starts[int(rng.integers(len(starts)))])
        else:
            starts.append(rng.uniform([20.0, -1.0, 1.5], [20.0 + stationarity, 1.0, 1.5]))
    tracks = [linear_track(u + 1, p, 90.0, n_snap, spacing) for u, p in enumerate(starts)]
    n_elements = int(rng.integers(1, 41))
    elements = uniform_linear_array(n_elements, 0.05, (0.0, 0.0, 10.0))
    layout = build_layout(
        tracks,
        elements,
        stationarity_user_m=stationarity,
        bs_stationarity_m=rng.choice([rng.uniform(0.1, 1.0), 5.0]),
    )
    total = int(rng.integers(3, 7))
    scenario = make_scenario(clusters_per_user=total)
    lsp = draw_lsp(scenario, layout, seed=seed)
    segments, id_base = [], 0
    for segment in layout.segments:
        table = share_table_for_segment(layout, segment.index, total, id_base=id_base)
        id_base = max(table.cluster_ids) + 1
        cs = assemble_clusters(table, lsp, layout, scenario, seed)
        shared = share_clusters(cs, attach_focal_points(cs, layout))
        segments.append(recalculate_views(shared, cs, layout))
    return segments, layout, total


def test_arrival_pass_equals_per_slot_loop(monkeypatch):
    rng = np.random.default_rng(25)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    seen = dict.fromkeys(
        "colocated kept-focal-point kept-parameters clamped one-subarray uneven single"
        " 1-thread 2-threads".split(),
        0,
    )
    original = coefficients._departure_phase
    threads = set()

    def spy(*args):
        threads.add(threading.current_thread())
        return original(*args)

    monkeypatch.setattr(coefficients, "_departure_phase", spy)
    for trial in range(40):
        seed = 2000 + trial
        segments, layout, total = _two_segment_views(rng, seed)
        assert len(segments) == 2, trial
        n_sc = 1 if trial % 5 == 0 else 20
        spread = rng.uniform(0.5, 10.0)
        carrier = rng.uniform(1e9, 30e9)
        cpus = 1 + trial % 2
        monkeypatch.setattr(coefficients, "_cpu_count", lambda: cpus)
        # Small blocks give a second thread blocks to take.
        monkeypatch.setattr(coefficients, "BLOCK_VALUES", [1, 20480][trial % 4 // 2])
        shape = (len(layout.user_ids), 1, layout.array.n_elements, total)
        n_snap = sum(s.n_snapshots for s in layout.segments)
        got = np.empty((*shape, n_snap), complex), np.empty((shape[0], total, n_snap))
        want = np.empty_like(got[0]), np.empty_like(got[1])
        n_threads = 0
        for views, span in zip(segments, layout.segments):
            snapshots = slice(span.first_snapshot, span.first_snapshot + span.n_snapshots)
            kwargs = dict(cluster_angle_spread_deg=spread, n_scatterers=n_sc)
            threads.clear()
            synthesize(
                views, layout, carrier, seed, **kwargs, out=tuple(a[..., snapshots] for a in got)
            )
            n_threads = max(n_threads, len(threads))
            _per_slot_synthesize(
                views, layout, carrier, seed, spread, n_sc, tuple(a[..., snapshots] for a in want)
            )
        assert np.array_equal(got[0], want[0]), trial
        assert np.array_equal(got[1], want[1]), trial

        all_views = [v for views in segments for v in views.views.values()]
        for mode in ("kept-focal-point", "kept-parameters"):
            seen[mode] += any(v.recalc_mode == mode for v in all_views)
        seen["clamped"] += any(v.interior_raw_m < 0.0 for v in all_views)
        starts = [tuple(p) for p in (t.points[0] for t in layout.tracks)]
        seen["colocated"] += len(set(starts)) < len(starts)
        seen["one-subarray"] += layout.array.n_subarrays == 1
        sizes = subarray_sizes(layout.array)
        seen["uneven"] += sizes[-1] != sizes[0]
        seen["single"] += n_sc == 1
        seen[f"{n_threads}-thread" + "s" * (n_threads > 1)] += 1
    assert min(seen.values()) >= 5, seen


def test_stacked_products_keep_the_per_geometry_shape(monkeypatch):
    # Three co-located owners and a fourth 2 m away share clusters whose
    # geometries serve several slots (co-located copies, kept focal points);
    # a far fifth user's geometries serve one. Blocks of one geometry each
    # and blocks of many, mixed slot counts: every stacked item must be the
    # (tx, n_sc) @ (n_sc, m * T) product of one geometry and its m slots,
    # bit for bit (per-slot products round differently).
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    rng = np.random.default_rng(26)
    seen = dict.fromkeys(["multi-slot", "one per block", "mixed block", "multi-slot block"], 0)
    for trial in range(12):
        start = rng.uniform([25.0, -2.0, 1.5], [35.0, 2.0, 1.5])
        starts = [start] * 3 + [start + (2.0, 0.0, 0.0), start + (60.0, 0.0, 0.0)]
        spacing = float(rng.choice([0.5, 0.7]))
        n_snap = 2 * int(rng.choice([5, 7, 10]))
        tracks = [linear_track(u + 1, p, 90.0, n_snap, spacing) for u, p in enumerate(starts)]
        n_elements = int(rng.choice([16, 64, 256]))
        layout = build_layout(
            tracks,
            uniform_linear_array(n_elements, 0.05, (0.0, 0.0, 10.0)),
            stationarity_user_m=n_snap // 2 * spacing,
            bs_stationarity_m=0.8,
        )
        assert len(layout.segments) == 2, trial
        scenario = make_scenario(clusters_per_user=7)
        lsp = draw_lsp(scenario, layout, seed=trial)
        monkeypatch.setattr(coefficients, "BLOCK_VALUES", [1, 20480][trial % 2])
        per_block = max(1, coefficients.BLOCK_VALUES // (n_elements * coefficients.N_SCATTERERS))
        id_base = 0
        for segment in layout.segments:
            table = share_table_for_segment(layout, segment.index, 7, id_base=id_base)
            id_base = max(table.cluster_ids) + 1
            cs = assemble_clusters(table, lsp, layout, scenario, trial)
            shared = share_clusters(cs, attach_focal_points(cs, layout))
            views = recalculate_views(shared, cs, layout)
            shape = (5, 1, n_elements, 7, segment.n_snapshots)
            got = np.empty(shape, complex), np.empty((5, 7, segment.n_snapshots))
            want = np.empty_like(got[0]), np.empty_like(got[1])
            synthesize(views, layout, 3.5e9, trial, out=got)
            _per_slot_synthesize(views, layout, 3.5e9, trial, 3.0, 20, want)
            assert np.array_equal(got[0], want[0]), (trial, segment.index)
            assert np.array_equal(got[1], want[1]), (trial, segment.index)

            counts = {}
            for v in views.views.values():
                key = (v.cluster_id, v.fbs.tobytes(), max(v.interior_raw_m, 0.0))
                counts[key] = counts.get(key, 0) + 1
            slots = sorted(counts.values())  # per geometry, in synthesis order
            blocks = [slots[i : i + per_block] for i in range(0, len(slots), per_block)]
            seen["multi-slot"] += sum(m > 1 for m in slots)
            seen["one per block"] += per_block == 1 and max(slots) > 1
            seen["mixed block"] += sum(len(set(b)) > 1 for b in blocks)
            seen["multi-slot block"] += sum(len(b) > 1 and min(b) > 1 for b in blocks)
    assert min(seen.values()) >= 5, seen


# ---------------------------------------------------------------------------
# The in-place departure kernel and the block schedule
# ---------------------------------------------------------------------------


def _allocating_distances(a, b):
    # geom.distances as it was: a fresh array for every plane.
    acc = (a[..., 0] - b[..., 0]) ** 2
    for j in (1, 2):
        acc += (a[..., j] - b[..., j]) ** 2
    return np.sqrt(acc, out=acc)


def _allocating_departure_phase(fans, interiors, array, wavenumber):
    # The departure phase as it was computed with fresh arrays per block.
    points = fans.transpose(1, 0, 2, 3).reshape(array.n_subarrays, -1, 3)
    lengths = np.empty((array.n_elements, points.shape[1]))
    for a0, a1, e0, e1 in array.equal_size_runs:
        elements = array.element_positions[e0:e1].reshape(a1 - a0, -1, 1, 3)
        lengths[e0:e1] = _allocating_distances(elements, points[a0:a1, None]).reshape(
            e1 - e0, -1
        )
    return np.exp(-1j * wavenumber * (lengths + np.repeat(interiors, fans.shape[2])))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_in_place_departure_phase_keeps_every_bit():
    rng = np.random.default_rng(26)
    seen = dict.fromkeys(("uneven", "n_sc=1", "n_sc=20", "short-after-full"), 0)
    for trial in range(120):
        array = _random_array_layout(rng).array
        centers = array.subarray_centers
        n_sc = 1 if trial % 3 == 0 else 20
        full = int(rng.integers(1, 6))
        short = int(rng.integers(1, full + 1))
        rotation = azimuth_rotation(laplacian_offsets(n_sc) * rng.uniform(0.5, 10.0))
        wavenumber = 2.0 * math.pi * rng.uniform(1e9, 30e9) / C0
        # One block's work arrays serve a full block, then a shorter one.
        work = coefficients._work_arrays(full * array.n_elements * n_sc)
        for g in (full, short):
            fbs = centers + rng.normal(size=(g, *centers.shape)) * 10.0 ** rng.uniform(-1, 3)
            perms = np.stack([rng.permutation(n_sc) for _ in range(g)])
            fans = _fan_positions(
                centers, fbs, (rotation[0][perms][:, None, :], rotation[1][perms][:, None, :])
            )
            interiors = np.where(rng.random(g) < 0.2, 0.0, rng.uniform(0.0, 100.0, g))
            want = _allocating_departure_phase(fans, interiors, array, wavenumber)
            got = coefficients._departure_phase(fans, interiors, array, wavenumber, work)
            assert got.shape == want.shape == (array.n_elements, g * n_sc), trial
            assert np.shares_memory(got, work[2])
            assert np.array_equal(_bits(got), _bits(want)), (trial, g)
            alone = coefficients._departure_phase(fans, interiors, array, wavenumber)
            assert np.array_equal(_bits(alone), _bits(want)), (trial, g)
        seen["uneven"] += len(array.equal_size_runs) > 1
        seen[f"n_sc={n_sc}"] += 1
        seen["short-after-full"] += short < full
    assert min(seen.values()) >= 20, seen


def test_distances_into_given_arrays_keep_every_bit():
    rng = np.random.default_rng(27)
    for trial in range(100):
        m, n = (int(x) for x in rng.integers(1, 30, size=2))
        a = rng.normal(size=(m, 1, 3)) * 10.0 ** rng.uniform(-3, 5)
        b = rng.normal(size=(1, n, 3)) * 10.0 ** rng.uniform(-3, 5)
        out, scratch = np.full((m, n), np.nan), np.full((m, n), np.nan)
        got = distances(a, b, out=out, scratch=scratch)
        assert got is out
        assert np.array_equal(_bits(got), _bits(distances(a, b))), trial
        assert np.array_equal(_bits(got), _bits(_allocating_distances(a, b))), trial


def _spy_departure_phase(monkeypatch, before=None):
    """Record (thread, first geometry, work) of every _departure_phase call;
    `before(thread, first geometry)` runs ahead of each."""
    calls = []
    original = coefficients._departure_phase

    def spy(fans, *args):
        # A block's fans are a slice of the segment's fan array.
        first = (fans.ctypes.data - fans.base.ctypes.data) // fans.strides[0]
        if before is not None:
            before(threading.current_thread(), first)
        calls.append((threading.current_thread(), first, args[3]))
        return original(fans, *args)

    monkeypatch.setattr(coefficients, "_departure_phase", spy)
    return calls


def test_each_thread_makes_its_work_arrays_once(monkeypatch):
    n_elements = 250
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    # One geometry per block: many blocks for every thread.
    monkeypatch.setattr(coefficients, "BLOCK_VALUES", n_elements * coefficients.N_SCATTERERS)
    made = []
    make = coefficients._work_arrays

    def spy_make(n_values):
        work = make(n_values)
        made.append((threading.current_thread(), work))
        return work

    monkeypatch.setattr(coefficients, "_work_arrays", spy_make)
    calls = _spy_departure_phase(monkeypatch)
    layout = make_two_user_layout(2.0, n_elements=n_elements)
    switch_interval = sys.getswitchinterval()
    for cpus in (1, 2, 3, 1, 2, 3):
        monkeypatch.setattr(coefficients, "_cpu_count", lambda: cpus)
        made.clear()
        calls.clear()
        sys.setswitchinterval(1e-5)  # threads race for the next block
        try:
            _, views, _ = _full_tensor(layout)
        finally:
            sys.setswitchinterval(switch_interval)
        # Every block is taken by exactly one thread.
        n_blocks = len(_departure_keys(views))
        assert sorted(first for _, first, _ in calls) == list(range(n_blocks)), cpus
        assert n_blocks > cpus
        makers = [thread for thread, _ in made]
        # Thread i fills block i, so every thread fills at least one.
        assert len(makers) == len(set(makers)) == cpus
        assert set(makers) == {thread for thread, _, _ in calls}
        works = dict(made)
        assert all(work is works[thread] for thread, _, work in calls), cpus


def test_stalled_worker_holds_back_only_its_block(monkeypatch):
    n_elements = 250
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(coefficients, "BLOCK_VALUES", n_elements * coefficients.N_SCATTERERS)
    layout = make_two_user_layout(2.0, n_elements=n_elements)
    monkeypatch.setattr(coefficients, "_cpu_count", lambda: 1)
    serial, views, _ = _full_tensor(layout)
    n_blocks = len(_departure_keys(views))
    assert n_blocks >= 4

    caller = threading.current_thread()
    others_filled = threading.Event()
    worker_firsts = []

    def before(thread, first):
        if thread != caller and not worker_firsts:
            # The worker's first block waits until the caller filled the rest.
            worker_firsts.append(first)
            assert others_filled.wait(timeout=30), "the caller left blocks to the worker"
        elif thread == caller and sum(t == caller for t, _, _ in calls) == n_blocks - 2:
            others_filled.set()  # the caller has taken its last block

    calls = _spy_departure_phase(monkeypatch, before)
    monkeypatch.setattr(coefficients, "_cpu_count", lambda: 2)
    tensor, _, _ = _full_tensor(layout)
    by_caller = sorted(first for thread, first, _ in calls if thread == caller)
    assert by_caller == [b for b in range(n_blocks) if b != 1]
    assert [first for thread, first, _ in calls if thread != caller] == worker_firsts == [1]
    assert np.array_equal(_bits(tensor.coefficients), _bits(serial.coefficients))
    assert np.array_equal(_bits(tensor.delays), _bits(serial.delays))


def _record_placements(monkeypatch, affinity, caller_cpu):
    """Fake the process's affinity set and the calling thread's CPU; record
    (thread, pid, cpus) of every sched_setaffinity call."""
    placed = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity), raising=False)
    monkeypatch.setattr(
        os,
        "sched_setaffinity",
        lambda pid, cpus: placed.append((threading.current_thread(), pid, set(cpus))),
        raising=False,
    )
    monkeypatch.setattr(coefficients, "_current_cpu", lambda: caller_cpu)
    return placed


def test_each_worker_places_itself_on_one_other_cpu(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    placed = _record_placements(monkeypatch, {7, 0, 2, 5}, caller_cpu=2)
    others = [0, 5, 7]  # the affinity set less the caller's CPU, in order
    made, firsts = [], {}

    def make_work():
        # Whether this thread had asked for its CPU before making its work.
        thread = threading.current_thread()
        made.append((thread, any(t is thread for t, _, _ in placed)))

    def fill(block, work):
        firsts.setdefault(threading.current_thread(), block)

    for n_threads in range(1, 8):
        monkeypatch.setattr(coefficients, "_cpu_count", lambda: n_threads)
        placed.clear()
        made.clear()
        firsts.clear()
        coefficients._run_blocks(fill, list(range(10)), make_work)
        # Each worker asks once, for itself (pid 0), before make_work; the
        # calling thread never asks.
        assert len(made) == n_threads
        assert all(asked == (thread is not threading.main_thread()) for thread, asked in made)
        assert len(placed) == n_threads - 1 and all(pid == 0 for _, pid, _ in placed)
        # Worker i (which fills block i first) asks for the i-th other CPU,
        # wrapping around, and never for the caller's.
        assert {firsts[thread]: cpus for thread, _, cpus in placed} == {
            i: {others[(i - 1) % 3]} for i in range(1, n_threads)
        }


def test_current_cpu_reads_the_pinned_cpu():
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no thread placement on this platform")
    seen = []

    def pinned(cpu):
        os.sched_setaffinity(0, {cpu})
        seen.append((cpu, coefficients._current_cpu()))

    for cpu in sorted(os.sched_getaffinity(0)):
        thread = threading.Thread(target=pinned, args=(cpu,))
        thread.start()
        thread.join()
    assert seen and all(cpu == got for cpu, got in seen), seen


def test_workers_run_on_one_cpu_each_and_the_caller_never_moves(monkeypatch):
    if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs thread placement and at least 2 CPUs")
    n_elements = 250
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(coefficients, "BLOCK_VALUES", n_elements * coefficients.N_SCATTERERS)
    layout = make_two_user_layout(2.0, n_elements=n_elements)
    before = os.sched_getaffinity(0)
    seen = []
    calls = _spy_departure_phase(
        monkeypatch, lambda thread, first: seen.append((thread, os.sched_getaffinity(0)))
    )
    tensor, views, _ = _full_tensor(layout)
    assert os.sched_getaffinity(0) == before
    caller = threading.current_thread()
    assert {thread for thread, _, _ in calls} - {caller}, "no worker ran"
    for thread, cpus in seen:
        assert cpus == before if thread is caller else len(cpus) == 1 and cpus <= before
    monkeypatch.setattr(coefficients, "_cpu_count", lambda: 1)
    serial, _, _ = _full_tensor(layout)
    assert np.array_equal(_bits(tensor.coefficients), _bits(serial.coefficients))


@pytest.mark.parametrize("fault", ["setaffinity raises", "one cpu", "no stat", "no setaffinity"])
def test_synthesis_runs_unplaced_when_placement_fails(monkeypatch, fault):
    n_elements = 250
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(coefficients, "BLOCK_VALUES", n_elements * coefficients.N_SCATTERERS)
    layout = make_two_user_layout(2.0, n_elements=n_elements)
    monkeypatch.setattr(coefficients, "_cpu_count", lambda: 1)
    serial, _, _ = _full_tensor(layout)

    placed = _record_placements(monkeypatch, {0, 1}, caller_cpu=0)
    if fault == "setaffinity raises":

        def refuse(pid, cpus):
            placed.append(cpus)
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
    elif fault == "one cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif fault == "no stat":

        def unreadable():
            raise FileNotFoundError("/proc/thread-self/stat")

        monkeypatch.setattr(coefficients, "_current_cpu", unreadable)
    else:
        monkeypatch.delattr(os, "sched_setaffinity")
    threads = set()
    _spy_departure_phase(monkeypatch, lambda thread, first: threads.add(thread))
    monkeypatch.setattr(coefficients, "_cpu_count", lambda: 3)
    tensor, _, _ = _full_tensor(layout)
    assert len(threads) > 1  # workers ran, unplaced
    assert (len(placed) == 2) == (fault == "setaffinity raises"), placed
    assert np.array_equal(_bits(tensor.coefficients), _bits(serial.coefficients))
    assert np.array_equal(_bits(tensor.delays), _bits(serial.delays))
