import math
from types import SimpleNamespace

import numpy as np
import pytest

import auramimo.spherical as spherical
from auramimo import (
    DegenerateGeometry,
    assemble_clusters,
    attach_focal_points,
    draw_lsp,
    partition_subarrays,
    share_table_for_segment,
    solve_focal_lengths,
    total_path_length,
    uniform_linear_array,
)
from auramimo.clustergen import (
    Cluster,
    ClusterSet,
    gen_arrival_angles,
    gen_departure_angles,
)
from auramimo.layout import ArrayGeometry
from auramimo.lsp import STREAM_REDRAW
from auramimo.spherical import solve_cluster_geometry
from auramimo.geom import SPEED_OF_LIGHT_M_S, unit_from_angles
from conftest import make_scenario, make_two_user_layout

C0 = SPEED_OF_LIGHT_M_S


def _solve_one(apos, far_end, direction, d_c):
    """solve_focal_lengths with A = 1, which must not be degenerate:
    (anchor-to-bounce length, unit direction, bounce point)."""
    length, unit, degenerate = solve_focal_lengths(
        np.array([d_c], dtype=float),
        np.subtract(far_end, apos)[None],
        np.asarray(direction, dtype=float)[None],
    )
    assert not degenerate[0]
    point = np.add(apos, length[0] * unit[0])
    return float(length[0]), unit[0], point


def test_total_path_length_is_excess_plus_direct():
    apos = (0.0, 0.0, 10.0)
    user = (20.0, 0.0, 1.5)
    direct = np.sqrt(20.0**2 + 8.5**2)
    assert total_path_length(0.0, apos, user) == pytest.approx(direct)
    assert total_path_length(1e-7, apos, user) == pytest.approx(
        1e-7 * C0 + direct, rel=1e-15
    )
    with pytest.raises(ValueError):
        total_path_length(-1e-9, apos, user)


# Hand-solved cases: anchor at origin, user 10 m along +x, total path 20 m.
@pytest.mark.parametrize(
    "e_hat,expected_len,expected_focal",
    [
        ((0.0, 1.0, 0.0), 7.5, (0.0, 7.5, 0.0)),  # perpendicular departure
        ((1.0, 0.0, 0.0), 15.0, (15.0, 0.0, 0.0)),  # straight through the user
        ((-1.0, 0.0, 0.0), 5.0, (-5.0, 0.0, 0.0)),  # directly away
    ],
)
def test_focal_solve_worked_examples(e_hat, expected_len, expected_focal):
    apos = (0.0, 0.0, 0.0)
    user = (10.0, 0.0, 0.0)
    e_len, _, focal = _solve_one(apos, user, e_hat, 20.0)
    assert e_len == pytest.approx(expected_len, rel=1e-12)
    np.testing.assert_allclose(focal, expected_focal, atol=1e-9)
    # Closure: anchor->focal->user equals the prescribed total length.
    assert e_len + math.dist(focal, user) == pytest.approx(20.0, rel=1e-12)


def test_zero_excess_delay_is_degenerate():
    # Rows: no excess path; excess below the geometric tolerance; a
    # direction within 1e-12 of unit length, used as given, pointed at a
    # far user so it overshoots an excess path of a few nanometres; and
    # one solvable row.
    near, far = (10.0, 0.0, 0.0), (1e4, 0.0, 0.0)
    d_c = np.array([10.0, 10.0 + 1e-10, 1e4 + 2e-9, 20.0])
    r0 = np.array([near, near, far, near])
    directions = np.array(
        [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0 + 9e-13, 0.0, 0.0], [0.0, 1.0, 0.0]]
    )
    lengths, units, degenerate = solve_focal_lengths(d_c, r0, directions)
    assert degenerate.tolist() == [True, True, True, False]
    # The third row has an excess path; its direction makes it degenerate.
    assert d_c[2] > np.linalg.norm(r0[2]) + spherical.EPSILON_M
    assert lengths.tolist() == [0.0, 0.0, 0.0, 7.5]
    # Any leading shape gives the same rows.
    grid = solve_focal_lengths(
        d_c.reshape(2, 2), r0.reshape(2, 2, 3), directions.reshape(2, 2, 3)
    )
    for got, want in zip(grid, (lengths, units, degenerate)):
        assert np.array_equal(got.reshape(want.shape), want)


def test_unnormalized_direction_is_normalized():
    apos = (0.0, 0.0, 0.0)
    user = (10.0, 0.0, 0.0)
    a_len, a_dir, _ = _solve_one(apos, user, [0.0, 2.0, 0.0], 20.0)
    b_len, b_dir, _ = _solve_one(apos, user, [0.0, 1.0, 0.0], 20.0)
    assert a_len == pytest.approx(b_len, rel=1e-15)
    np.testing.assert_array_equal(a_dir, b_dir)


def test_lbs_mirrors_departure_solve():
    user = np.array([10.0, 0.0, 0.0])
    apos = (0.0, 0.0, 0.0)
    g_hat = unit_from_angles(137.0, 12.0)
    _, _, lbs = _solve_one(user, apos, g_hat, 20.0)
    # The arrival-side closure holds.
    assert math.dist(user, lbs) + math.dist(lbs, apos) == pytest.approx(
        20.0, rel=1e-12
    )
    # The cluster solve's LBS is the same closed form with the roles
    # swapped (anchor = user, far end = reference sub-array center).
    array = make_two_user_layout(2.0).array
    ref = array.reference_subarray()
    cluster = _random_cluster(np.random.default_rng(5), array.n_subarrays, 2e-8)
    (got,), (degenerate,) = solve_cluster_geometry([cluster], user[None], array)
    assert not degenerate
    d_ref = total_path_length(cluster.tau_s, ref.center, user)
    g_hat = unit_from_angles(cluster.aoa_az_deg, cluster.aoa_el_deg)
    assert np.array_equal(got.lbs, _solve_one(user, ref.center, g_hat, d_ref)[2])


def _random_cases(n, rng):
    apos = rng.uniform([-50, -50, 0], [50, 50, 30], size=(n, 3))
    user = rng.uniform([-50, -50, 0], [50, 50, 3], size=(n, 3))
    tau = rng.uniform(1e-9, 1e-6, size=n)
    az = rng.uniform(-180.0, 180.0, size=n)
    el = rng.uniform(-89.0, 89.0, size=n)
    e_hat = np.stack(
        [
            np.cos(np.radians(el)) * np.cos(np.radians(az)),
            np.cos(np.radians(el)) * np.sin(np.radians(az)),
            np.sin(np.radians(el)),
        ],
        axis=1,
    )
    d_c = tau * C0 + np.linalg.norm(user - apos, axis=1)
    return apos, user, e_hat, d_c


def test_closure_holds_over_random_geometries(rng):
    apos, user, e_hat, d_c = _random_cases(2000, rng)
    for i in range(len(d_c)):
        a = apos[i]
        u = user[i]
        e_len, _, focal = _solve_one(a, u, e_hat[i], float(d_c[i]))
        total = e_len + math.dist(focal, u)
        assert abs(total - d_c[i]) / d_c[i] <= 1e-9
        assert e_len > 0


def test_solver_matches_bisection_oracle(rng):
    # Oracle: solve len + |apos + len*e - user| = d_c by bisection on
    # [0, d_c]; the left end is negative (no path), the right end
    # nonnegative, and the function is nondecreasing in len.
    apos, user, e_hat, d_c = _random_cases(2000, rng)

    lo = np.zeros_like(d_c)
    hi = d_c.copy()
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        focal = apos + mid[:, None] * e_hat
        f = mid + np.linalg.norm(focal - user, axis=1) - d_c
        hi = np.where(f >= 0, mid, hi)
        lo = np.where(f < 0, mid, lo)
    oracle = 0.5 * (lo + hi)

    for i in range(len(d_c)):
        e_len, _, _ = _solve_one(
            apos[i], user[i], e_hat[i], float(d_c[i])
        )
        assert abs(e_len - oracle[i]) <= 1e-6


def test_focal_point_lies_along_departure_direction(rng):
    apos, user, e_hat, d_c = _random_cases(200, rng)
    for i in range(len(d_c)):
        a = apos[i]
        e_len, _, focal = _solve_one(a, user[i], e_hat[i], float(d_c[i]))
        direction = (focal - apos[i]) / e_len
        np.testing.assert_allclose(direction, e_hat[i], atol=1e-9)


# ---------------------------------------------------------------------------
# Attachment to generated cluster sets
# ---------------------------------------------------------------------------


def _attached(layout, seed=3):
    scenario = make_scenario()
    table = share_table_for_segment(layout, 0, 7)
    lsp = draw_lsp(scenario, layout, seed=seed)
    cs = assemble_clusters(table, lsp, layout, scenario, seed=seed)
    return attach_focal_points(cs, layout, lsp_draw=lsp, seed=seed), layout


def test_attach_full_set_with_four_subarrays():
    cs, layout = _attached(make_two_user_layout(2.0))
    subs = layout.array.subarrays
    ref = layout.array.reference_subarray().index
    for c in cs.clusters.values():
        geometry = c.geometry
        assert geometry.lbs is not None and len(geometry.fbs) == 4
        # delay, power, arrival az/el, A departure az/el pairs, LBS, A FBS
        n_entries = 4 + len(c.aod_az_deg) + len(c.aod_el_deg) + 1 + len(geometry.fbs)
        assert n_entries == 5 + 3 * 4
        gen_pos = layout.segment_start_position(c.generating_user, 0)
        gen_xyz = gen_pos
        if c.boresight:
            assert np.array_equal(geometry.lbs, gen_xyz)
            assert all(np.array_equal(f, gen_xyz) for f in geometry.fbs)
            assert geometry.interior_raw_m == 0.0
            assert math.dist(gen_xyz, geometry.lbs) == 0.0
            continue
        # Departure-side closure per sub-array.
        for sub in subs:
            d_c = total_path_length(c.tau_s, sub.center, gen_pos)
            total = geometry.e_len_m[sub.index] + math.dist(geometry.fbs[sub.index], gen_xyz)
            assert abs(total - d_c) / d_c <= 1e-9
        # Arrival-side closure against the reference sub-array.
        d_ref = total_path_length(c.tau_s, subs[ref].center, gen_pos)
        g_len = math.dist(gen_xyz, geometry.lbs)
        lbs_total = g_len + math.dist(geometry.lbs, subs[ref].center)
        assert abs(lbs_total - d_ref) / d_ref <= 1e-9
        assert geometry.interior_raw_m == pytest.approx(
            d_ref - geometry.e_len_m[ref] - g_len, abs=1e-9
        )


def test_attach_returns_a_new_set_and_leaves_the_input_alone():
    layout = make_two_user_layout(2.0)
    scenario = make_scenario()
    table = share_table_for_segment(layout, 0, 7)
    lsp = draw_lsp(scenario, layout, seed=3)
    cs = assemble_clusters(table, lsp, layout, scenario, seed=3)
    # Clusters carry no focal points until they are attached.
    assert all(c.geometry is None for c in cs.clusters.values())
    before = dict(cs.clusters)
    attached = attach_focal_points(cs, layout, lsp_draw=lsp, seed=3)
    assert attached is not cs
    assert attached.segment_index == cs.segment_index
    assert attached.by_user == cs.by_user
    assert attached.power_denominator == cs.power_denominator
    assert cs.clusters.keys() == before.keys()
    assert all(cs.clusters[k] is c for k, c in before.items())
    assert all(c.geometry is None for c in cs.clusters.values())
    assert sorted(attached.clusters) == sorted(cs.clusters)
    for cluster_id, c in attached.clusters.items():
        assert c.geometry is not None
        assert c.tau_s == cs.clusters[cluster_id].tau_s


def _degenerate_cluster_set():
    # Zero excess delay without the boresight marker cannot be solved.
    cluster = Cluster(
        cluster_id=0,
        segment_index=0,
        owner_set=(1,),
        generating_user=1,
        tau_s=0.0,
        power_raw=1.0,
        aoa_az_deg=30.0,
        aoa_el_deg=0.0,
        aod_az_deg=np.array([10.0]),
        aod_el_deg=np.array([0.0]),
        boresight=False,
    )
    return ClusterSet(
        segment_index=0,
        clusters={0: cluster},
        by_user={1: (0,)},
        power_denominator={1: 1.0},
    )


def test_degenerate_cluster_exhausts_retries():
    layout = make_two_user_layout(2.0)
    lsp = draw_lsp(make_scenario(), layout, seed=1)
    # Redrawn angles cannot fix a zero excess delay; the retry loop must
    # give up with a descriptive error rather than spin forever.
    with pytest.raises(DegenerateGeometry, match="redraws"):
        attach_focal_points(_degenerate_cluster_set(), layout, lsp_draw=lsp, seed=1)




# ---------------------------------------------------------------------------
# Batched segment solve against the per-cluster and per-sub-array solves
# ---------------------------------------------------------------------------


def _per_cluster_focal_lengths(d_c, r0, directions):
    # The closed form over one cluster's A rows as it was before the
    # segment batch: raises on the first degenerate row.
    norm = np.sqrt(np.vecdot(directions, directions))
    rescale = np.abs(norm - 1.0) > 1e-12
    directions = np.where(rescale[:, None], directions / norm[:, None], directions)
    r0_norm = np.sqrt(np.vecdot(r0, r0))
    no_excess = d_c <= r0_norm + spherical.EPSILON_M
    denom = 2.0 * (d_c - np.vecdot(r0, directions))
    bad = np.flatnonzero(no_excess | (denom <= spherical.EPSILON_M))
    if bad.size:
        raise DegenerateGeometry(f"row {bad[0]}")
    return (d_c * d_c - r0_norm * r0_norm) / denom, directions


def _per_cluster_geometry(cluster, user, array):
    # One cluster's geometry as it was before the segment batch: the
    # boresight collapse, else one departure solve over the sub-arrays
    # and one arrival solve; (lbs, fbs, e_len, interior).
    centers = array.subarray_centers
    user_xyz = user.tolist()
    if cluster.boresight:
        e_len = np.array([math.dist(user_xyz, c) for c in centers.tolist()])
        return user, np.broadcast_to(user, centers.shape), e_len, 0.0
    ref = array.reference_subarray()
    tau = cluster.tau_s
    d_c = np.array([total_path_length(tau, c, user_xyz) for c in centers.tolist()])
    e_len, e_hat = _per_cluster_focal_lengths(
        d_c, user - centers, unit_from_angles(cluster.aod_az_deg, cluster.aod_el_deg)
    )
    fbs = centers + e_len[:, None] * e_hat
    lbs_len, g_hat = _per_cluster_focal_lengths(
        d_c[ref.index : ref.index + 1],
        (ref.center - user)[None],
        unit_from_angles(cluster.aoa_az_deg, cluster.aoa_el_deg)[None],
    )
    lbs = user + lbs_len[0] * g_hat[0]
    interior = float(d_c[ref.index]) - float(e_len[ref.index]) - math.dist(user, lbs)
    return lbs, fbs, e_len, interior


def _scalar_unit(az_deg, el_deg):
    az, el = np.radians(az_deg), np.radians(el_deg)
    ce = np.cos(el)
    return np.array([ce * np.cos(az), ce * np.sin(az), np.sin(el)])


def _scalar_departure(apos, user_pos, e_hat, d_c):
    # One sub-array's solve, as it was before any batch: returns the
    # anchor-to-bounce length and the bounce point.
    e_hat = np.asarray(e_hat, dtype=float)
    norm = float(np.linalg.norm(e_hat))
    if abs(norm - 1.0) > 1e-12:
        e_hat = e_hat / norm
    r0 = np.subtract(user_pos, apos)
    r0_norm = float(np.linalg.norm(r0))
    if d_c <= r0_norm + spherical.EPSILON_M:
        raise DegenerateGeometry(f"no excess path: d_c={d_c!r} vs direct {r0_norm!r}")
    denom = 2.0 * (d_c - float(r0 @ e_hat))
    if denom <= spherical.EPSILON_M:
        raise DegenerateGeometry(
            f"direction inconsistent with delay: denominator {denom!r}"
        )
    e_len = (d_c * d_c - r0_norm * r0_norm) / denom
    return e_len, apos + e_len * e_hat


def _scalar_cluster_geometry(cluster, user_pos, array):
    subarrays = array.subarrays
    ref_index = array.reference_subarray().index
    e_len = np.empty(len(subarrays))
    fbs = []
    for sub in subarrays:
        d_c = total_path_length(cluster.tau_s, sub.center, user_pos)
        e_hat = _scalar_unit(
            float(cluster.aod_az_deg[sub.index]), float(cluster.aod_el_deg[sub.index])
        )
        e_len[sub.index], focal = _scalar_departure(sub.center, user_pos, e_hat, d_c)
        fbs.append(focal)
    ref_center = subarrays[ref_index].center
    d_c_ref = total_path_length(cluster.tau_s, ref_center, user_pos)
    g_hat = _scalar_unit(cluster.aoa_az_deg, cluster.aoa_el_deg)
    _, lbs = _scalar_departure(user_pos, ref_center, g_hat, d_c_ref)
    g_len = math.dist(user_pos, lbs)
    interior = d_c_ref - float(e_len[ref_index]) - g_len
    return lbs, np.array(fbs), e_len, interior


def _random_array(rng):
    n_elements = int(rng.integers(1, 300))
    axis = tuple(rng.normal(size=3))
    origin = rng.uniform([-20, -20, 0], [20, 20, 30])
    elements = uniform_linear_array(n_elements, rng.uniform(0.01, 0.2), origin, axis)
    stationarity = rng.uniform(0.01, 5.0)
    return ArrayGeometry(
        element_positions=elements,
        subarrays=partition_subarrays(elements, stationarity),
    )


def _random_cluster(rng, n_sub, tau_s, boresight=False):
    return SimpleNamespace(
        tau_s=tau_s,
        aod_az_deg=rng.uniform(-180.0, 180.0, size=n_sub),
        aod_el_deg=rng.uniform(-90.0, 90.0, size=n_sub),
        aoa_az_deg=float(rng.uniform(-180.0, 180.0)),
        aoa_el_deg=float(rng.uniform(-90.0, 90.0)),
        boresight=boresight,
    )


def _assert_same_geometry(got, want, label):
    lbs, fbs, e_len, interior = want
    assert np.array_equal(got.lbs, lbs), label
    assert np.array_equal(got.fbs, fbs), label
    assert np.array_equal(got.e_len_m, e_len), label
    assert got.interior_raw_m == interior, label


def test_batched_cluster_geometry_equals_scalar_loop():
    rng = np.random.default_rng(31)
    seen = {"one subarray": 0, "uneven last": 0, "boresight": 0, "solved": 0}
    for trial in range(250):
        array = _random_array(rng)
        sizes = [sub.n_elements for sub in array.subarrays]
        seen["one subarray"] += array.n_subarrays == 1
        seen["uneven last"] += sizes[-1] != sizes[0]
        n = int(rng.integers(1, 13))
        users = rng.uniform([-200, -200, 0], [200, 200, 3], size=(n, 3))
        boresight = rng.random(n) < 0.25
        clusters = [
            _random_cluster(
                rng, array.n_subarrays, 0.0 if b else float(10.0 ** rng.uniform(-10, -5)), b
            )
            for b in boresight
        ]
        geometries, degenerate = solve_cluster_geometry(clusters, users, array)
        assert len(geometries) == n and not degenerate.any(), trial
        for i, (cluster, user, got) in enumerate(zip(clusters, users, geometries)):
            label = (trial, i)
            _assert_same_geometry(got, _per_cluster_geometry(cluster, user, array), label)
            if cluster.boresight:
                seen["boresight"] += 1
                continue
            seen["solved"] += 1
            _assert_same_geometry(got, _scalar_cluster_geometry(cluster, user, array), label)
    assert min(seen.values()) >= 10, seen


def test_batched_solve_masks_exactly_where_the_per_cluster_solve_raises():
    # An excess path of ~1e-9 m sits on the degeneracy threshold, so
    # rounding makes some clusters degenerate and others not.
    rng = np.random.default_rng(32)
    outcomes = {"degenerate": 0, "solved": 0}
    for trial in range(60):
        array = _random_array(rng)
        n = int(rng.integers(1, 13))
        users = rng.uniform([-100, -100, 0], [100, 100, 3], size=(n, 3))
        clusters = [
            _random_cluster(
                rng, array.n_subarrays, (spherical.EPSILON_M + rng.normal() * 2e-14) / C0
            )
            for _ in range(n)
        ]
        geometries, degenerate = solve_cluster_geometry(clusters, users, array)
        for i, (cluster, user, got) in enumerate(zip(clusters, users, geometries)):
            try:
                want = _per_cluster_geometry(cluster, user, array)
            except DegenerateGeometry:
                assert degenerate[i], (trial, i)
                outcomes["degenerate"] += 1
            else:
                assert not degenerate[i], (trial, i)
                _assert_same_geometry(got, want, (trial, i))
                outcomes["solved"] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_degenerate_solve_redraws_from_the_cluster_stream(monkeypatch):
    # The segment solve flags one cluster as degenerate; only its angles
    # are redrawn from the (seed, segment, cluster id) redraw stream and
    # re-solved, and every other cluster keeps its first solve.
    layout = make_two_user_layout(2.0)
    scenario = make_scenario()
    table = share_table_for_segment(layout, 0, 7)
    lsp = draw_lsp(scenario, layout, seed=3)
    cs = assemble_clusters(table, lsp, layout, scenario, seed=3)
    victim = next(c for _, c in sorted(cs.clusters.items()) if not c.boresight)
    real_solve = spherical.solve_cluster_geometry
    calls = []

    def flag_victim(clusters, users, array):
        geometries, degenerate = real_solve(clusters, users, array)
        calls.append(len(clusters))
        if len(calls) == 1:
            degenerate = degenerate | [c is victim for c in clusters]
        return geometries, degenerate

    monkeypatch.setattr(spherical, "solve_cluster_geometry", flag_victim)
    attached = attach_focal_points(cs, layout, lsp_draw=lsp, seed=3)
    assert calls == [len(cs.clusters), 1]
    redrawn = attached.clusters[victim.cluster_id]
    assert redrawn is not victim and victim.geometry is None
    for cluster_id, cluster in attached.clusters.items():
        if cluster_id != victim.cluster_id:
            assert cluster.aoa_az_deg == cs.clusters[cluster_id].aoa_az_deg

    rng = np.random.default_rng(
        np.random.SeedSequence(3, spawn_key=(STREAM_REDRAW, 0, victim.cluster_id))
    )
    values = lsp.of(victim.generating_user, 0)
    aod_az, aod_el = gen_departure_angles(
        layout.array.n_subarrays, values.sigma_aod_deg, values.sigma_eod_deg, rng
    )
    aoa_az, aoa_el = gen_arrival_angles(
        np.ones(1), values.sigma_aoa_deg, values.sigma_eoa_deg, rng
    )
    assert np.array_equal(redrawn.aod_az_deg, aod_az)
    assert np.array_equal(redrawn.aod_el_deg, aod_el)
    assert not (redrawn.aod_az_deg.flags.writeable or redrawn.aod_el_deg.flags.writeable)
    assert (redrawn.aoa_az_deg, redrawn.aoa_el_deg) == (aoa_az[0], aoa_el[0])
    gen_pos = layout.segment_start_position(victim.generating_user, 0)
    _assert_same_geometry(
        redrawn.geometry, _per_cluster_geometry(redrawn, gen_pos, layout.array), "redraw"
    )
