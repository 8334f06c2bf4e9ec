import math
from dataclasses import replace

import numpy as np
import pytest

from auramimo import (
    MODE_GENERATOR,
    MODE_KEPT_FOCAL,
    MODE_KEPT_PARAMETERS,
    DegenerateGeometry,
    assemble_clusters,
    attach_focal_points,
    choose_recalc_mode,
    draw_lsp,
    linear_track,
    recalculate_views,
    share_clusters,
    share_table_for_segment,
    share_tables,
    total_path_length,
)
from auramimo import RunConfig, sharing, tables
from auramimo.clustergen import ClusterGeometry, ClusterRow
from auramimo.geom import SPEED_OF_LIGHT_M_S, angles_from_vector, wrap_azimuth_deg
from auramimo.grouping import GroupShare, ShareTable
from auramimo.metrics import MetricsReport
from auramimo.pipeline import RunResult, SegmentResult, run, write_outputs
from auramimo.sharing import OwnerView
from auramimo.spherical import solve_cluster_geometry
from auramimo.tables import write_tables
from conftest import (
    cluster_columns,
    make_random_config,
    make_scenario,
    make_two_user_layout,
    owners,
    synthesize_segment,
    view_excess_delays,
)
from test_pipeline import make_run_config

# How far a synthesized delay may sit from the delay its path was solved
# for: float rounding of the focal solve, about 3e-13 m of path.
CLOSURE_S = 1e-21


def _synthesized_delay(tau_s, interior_raw_m):
    """The excess delay, lengthened by a negative interior leg that
    synthesis clamps to 0."""
    return tau_s + max(0.0, -interior_raw_m) / SPEED_OF_LIGHT_M_S


def _cluster():
    return ClusterRow(
        cluster_id=0,
        generating_user=1,
        tau_s=1e-7,
        power_raw=0.5,
        aoa_az_deg=10.0,
        aoa_el_deg=0.0,
        aod_az_deg=np.array([5.0]),
        aod_el_deg=np.array([0.0]),
        boresight=False,
    )


def _mode_case(lbs_distance, expected, boresight=False):
    tag = "-boresight" if boresight else ""
    return pytest.param(
        lbs_distance, boresight, expected, id=f"{lbs_distance}{tag}-{expected}"
    )


@pytest.mark.parametrize(
    "lbs_distance,boresight,expected",
    [
        _mode_case(5.0, MODE_KEPT_FOCAL),
        _mode_case(14.999999, MODE_KEPT_FOCAL),
        _mode_case(15.0, MODE_KEPT_PARAMETERS),  # boundary is strict
        _mode_case(20.0, MODE_KEPT_PARAMETERS),
        # No excess path to re-solve: the focal points are kept at any range.
        _mode_case(20.0, MODE_KEPT_FOCAL, boresight=True),
    ],
)
def test_mode_threshold_three_segment_lengths(lbs_distance, boresight, expected):
    owner = (0.0, 0.0, 1.5)
    lbs = np.array([lbs_distance, 0.0, 1.5])
    assert choose_recalc_mode(boresight, lbs, owner, segment_length_m=5.0) == expected


def _full_pipeline(layout, seed=3, total=7):
    scenario = make_scenario(clusters_per_user=total)
    table = share_table_for_segment(layout, 0, total)
    lsp = draw_lsp(scenario, layout, seed=seed)
    cs = assemble_clusters(table, lsp, layout, scenario, seed=seed)
    shared = share_clusters(cs, attach_focal_points(cs, layout))
    return cs, shared, layout


def _generator(cs, shared, cluster):
    """The generator geometry of `cluster`: its generating user's slot of
    `shared`, as from `share_clusters`."""
    user = cluster.generating_user
    k, c = list(cs.by_user).index(user), cs.by_user[user].index(cluster.cluster_id)
    return ClusterGeometry._make(column[k, c] for column in shared)


def _written_rows(views, layout):
    """Each view's parameter columns as the tables write them, parsed back
    to floats, by (user, cluster id): delay, power, AoA azimuth and
    elevation, then AoD azimuth and elevation per sub-array, LBS and FBS."""
    tensor = synthesize_segment(views, layout, 3.5e9, seed=0, n_scatterers=1)
    rows = tables._param_rows(views, tensor, layout)
    return {key: np.array(row.split("\t"), dtype=float) for key, row in rows.items()}


def _angles(row, n_subarrays):
    """The angle columns of a parsed row: AoA (az, el), then (az, el) per
    sub-array."""
    return row[2 : 4 + 2 * n_subarrays]


def test_share_clusters_verbatim_and_power():
    cs, shared, layout = _full_pipeline(make_two_user_layout(2.0))
    attached = attach_focal_points(cs, layout)
    views = recalculate_views(shared, cs, layout)
    excess = view_excess_delays(views, layout)
    # Every owner's slot holds its cluster's generator geometry, verbatim.
    assert [c.shape[:2] for c in shared] == [views.cluster_id.shape] * 4 == [(2, 7)] * 4
    for k, (user, ids) in enumerate(cs.by_user.items()):
        for c, cid in enumerate(ids):
            for got, want in zip(shared, attached):
                assert np.array_equal(got[k, c], want[cs.rows(cid)]), (user, cid)
    # One generator view per cluster.
    generators = [v for v in views.views.values() if v.recalc_mode == MODE_GENERATOR]
    assert sorted(v.cluster_id for v in generators) == sorted(cs.clusters)
    for view in generators:
        cid = view.cluster_id
        cluster = cs.clusters[cid]
        user = cluster.generating_user
        assert view.user_id == user
        # The synthesized path closes to the excess delay, lengthened only
        # if the interior leg is clamped; a boresight path is the direct one.
        delay = excess[user, cid]
        assert abs(delay - _synthesized_delay(cluster.tau_s, view.interior_raw_m)) <= CLOSURE_S
        assert (abs(delay - cluster.tau_s) <= CLOSURE_S) == (view.interior_raw_m >= 0.0)
        assert (delay == 0.0) == cluster.boresight
        # Geometry and power verbatim.
        for name, value in attached._asdict().items():
            assert np.array_equal(getattr(view, name), value[cs.rows(cid)]), name
        assert view.power == cluster.power_raw / cs.power_denominator[user]
    assert any(v.interior_raw_m < 0.0 for v in generators)


def _shared_nonboresight(cs):
    return [
        c
        for c in cs.clusters.values()
        if len(owners(cs, c.cluster_id)) == 2 and not c.boresight
    ]


def _with_segment_length(layout, length_m):
    """`layout` with every segment `length_m` long: the mode rule then
    keeps every non-boresight cluster's parameters (tiny lengths) or its
    focal points (huge ones)."""
    segments = tuple(replace(s, length_m=length_m) for s in layout.segments)
    return replace(layout, segments=segments)


KEEP_PARAMETERS_M, KEEP_FOCAL_M = 1e-6, 1e6


def _joining(cs, cluster):
    return next(u for u in owners(cs, cluster.cluster_id) if u != cluster.generating_user)


def test_kept_parameters_keeps_scalars_and_resolves_geometry():
    cs, shared, layout = _full_pipeline(make_two_user_layout(2.0))
    views = recalculate_views(shared, cs, _with_segment_length(layout, KEEP_PARAMETERS_M))
    excess = view_excess_delays(views, layout)
    written = _written_rows(views, layout)
    centers = layout.array.subarray_centers
    ref = layout.array.reference_subarray
    clusters = _shared_nonboresight(cs)
    assert clusters
    for cluster in clusters:
        owner = _joining(cs, cluster)
        owner_pos = layout.segment_start_position(owner, 0)
        owner_xyz = owner_pos
        view = views.views[owner, cluster.cluster_id]
        assert view.recalc_mode == MODE_KEPT_PARAMETERS
        # The synthesized delay is the kept excess delay, lengthened by the
        # re-solved interior leg if clamped.
        want = _synthesized_delay(cluster.tau_s, view.interior_raw_m)
        assert abs(excess[owner, cluster.cluster_id] - want) <= CLOSURE_S
        # The angles are kept: read back from the re-solved focal points,
        # the written row holds the drawn ones.
        drawn = [cluster.aoa_az_deg, cluster.aoa_el_deg]
        drawn += np.column_stack([cluster.aod_az_deg, cluster.aod_el_deg]).ravel().tolist()
        got = _angles(written[owner, cluster.cluster_id], len(centers))
        assert np.abs(wrap_azimuth_deg(got - drawn)).max() <= 1e-9
        # Focal points are re-solved against the owner.
        assert not np.array_equal(view.lbs, _generator(cs, shared, cluster).lbs)
        for a, center in enumerate(centers):
            d_c = total_path_length(cluster.tau_s, center, owner_pos)
            got = view.e_len_m[a] + math.dist(view.fbs[a], owner_xyz)
            assert abs(got - d_c) / d_c <= 1e-9
        d_ref = total_path_length(cluster.tau_s, centers[ref], owner_pos)
        ref_xyz = centers[ref]
        got = math.dist(owner_xyz, view.lbs) + math.dist(view.lbs, ref_xyz)
        assert abs(got - d_ref) / d_ref <= 1e-9


def test_kept_parameters_degenerate_solve_names_cluster_and_owner():
    # No excess delay without the boresight marker cannot be re-solved.
    cs, shared, layout = _full_pipeline(make_two_user_layout(2.0))
    cluster = _shared_nonboresight(cs)[0]
    tau = cs.tau_s.copy()
    tau[cs.rows(cluster.cluster_id)] = 0.0
    cs = replace(cs, tau_s=tau)
    owner = _joining(cs, cluster)
    match = f"cluster {cluster.cluster_id}: no focal points from owner {owner}"
    with pytest.raises(DegenerateGeometry, match=match):
        recalculate_views(shared, cs, _with_segment_length(layout, KEEP_PARAMETERS_M))


def test_kept_focal_point_keeps_geometry_and_reads_angles():
    cs, shared, layout = _full_pipeline(make_two_user_layout(2.0))
    views = recalculate_views(shared, cs, _with_segment_length(layout, KEEP_FOCAL_M))
    excess = view_excess_delays(views, layout)
    written = _written_rows(views, layout)
    centers = layout.array.subarray_centers
    clusters = _shared_nonboresight(cs)
    assert clusters
    for cluster in clusters:
        owner = _joining(cs, cluster)
        owner_pos = layout.segment_start_position(owner, 0)
        view = views.views[owner, cluster.cluster_id]
        generator = _generator(cs, shared, cluster)
        assert view.recalc_mode == MODE_KEPT_FOCAL
        assert np.array_equal(view.lbs, generator.lbs)
        assert np.array_equal(view.fbs, generator.fbs)
        assert np.array_equal(view.e_len_m, generator.e_len_m)
        # The written row reads its angles off the kept focal points, seen
        # from the owner; the arrival azimuth is the bearing to the LBS.
        aoa = angles_from_vector(generator.lbs - owner_pos)
        aod = np.column_stack(angles_from_vector(generator.fbs - centers)).ravel()
        got = _angles(written[owner, cluster.cluster_id], len(centers))
        assert got.tolist() == [*aoa, *aod.tolist()]
        dx = generator.lbs[0] - owner_pos[0]
        dy = generator.lbs[1] - owner_pos[1]
        expected_az = math.degrees(math.atan2(dy, dx))
        assert got[0] == pytest.approx(expected_az, abs=1e-9)
        assert excess[owner, cluster.cluster_id] >= 0.0


def test_colocated_owner_gets_bit_identical_view_in_both_modes():
    cs, shared, layout = _full_pipeline(make_two_user_layout(0.0))
    modes = set()
    for length_m in (KEEP_PARAMETERS_M, KEEP_FOCAL_M):
        views = recalculate_views(shared, cs, _with_segment_length(layout, length_m))
        excess = view_excess_delays(views, layout)
        written = _written_rows(views, layout)
        n_sub = layout.array.n_subarrays
        for cluster in cs.clusters.values():
            if len(owners(cs, cluster.cluster_id)) < 2:
                continue
            owner = _joining(cs, cluster)
            view = views.views[owner, cluster.cluster_id]
            generator = _generator(cs, shared, cluster)
            modes.add(view.recalc_mode)
            generator_key = (cluster.generating_user, cluster.cluster_id)
            assert excess[owner, cluster.cluster_id] == excess[generator_key]
            owner_angles = _angles(written[owner, cluster.cluster_id], n_sub)
            assert owner_angles.tolist() == _angles(written[generator_key], n_sub).tolist()
            assert np.array_equal(view.lbs, generator.lbs)
            assert np.array_equal(view.fbs, generator.fbs)
            assert view.interior_raw_m == generator.interior_raw_m
    assert modes == {MODE_KEPT_PARAMETERS, MODE_KEPT_FOCAL}


def _move_user(layout, user_id, start):
    """`layout` with `user_id`'s track restarted at `start`."""
    track = layout.track_of(user_id)
    spacing = track.snapshot_spacing_m
    moved = linear_track(user_id, start, 90.0, len(track), spacing)
    tracks = tuple(moved if t.user_id == user_id else t for t in layout.tracks)
    return replace(layout, tracks=tracks)


def test_moving_toward_lbs_shortens_kept_focal_delay():
    cs, shared, layout = _full_pipeline(make_two_user_layout(2.0))
    cluster = _shared_nonboresight(cs)[0]
    gen_pos = layout.segment_start_position(cluster.generating_user, 0)
    generator = _generator(cs, shared, cluster)
    to_lbs = generator.lbs - gen_pos
    step = 0.3 * to_lbs / np.linalg.norm(to_lbs)
    owner = _joining(cs, cluster)
    moved = _move_user(_with_segment_length(layout, KEEP_FOCAL_M), owner, gen_pos + step)
    views = recalculate_views(shared, cs, moved)
    view = views.views[owner, cluster.cluster_id]
    excess = view_excess_delays(views, moved)
    delay = excess[owner, cluster.cluster_id]
    generator_delay = excess[cluster.generating_user, cluster.cluster_id]
    assert view.recalc_mode == MODE_KEPT_FOCAL
    assert delay < generator_delay
    assert generator_delay - delay > 1e-15


def test_kept_focal_path_shorter_than_direct_writes_negative_delay(tmp_path):
    # A synthetic geometry whose frozen path, seen from user 2 at
    # (35, 0, 1.5), is only the 5 m leg from the LBS: shorter than the
    # direct path. The tables write the tensor's negative excess delay,
    # not 0.
    layout = _with_segment_length(make_two_user_layout(5.0), KEEP_FOCAL_M)
    n_sub = layout.array.n_subarrays
    lbs = np.array([30.0, 0.0, 1.5])
    geometry = ClusterGeometry(
        lbs=lbs[None],
        fbs=np.tile(lbs, (1, n_sub, 1)),
        e_len_m=np.zeros((1, n_sub)),
        interior_raw_m=np.array([-100.0]),
    )
    cs = cluster_columns(
        [_cluster()], by_user={1: (0,), 2: (0,)}, power_denominator={1: 0.5, 2: 0.5}
    )
    views = recalculate_views(share_clusters(cs, geometry), cs, layout)
    assert views.views[2, 0].recalc_mode == MODE_KEPT_FOCAL
    group = GroupShare(
        members=(1, 2), proportion=1.0, scaled_proportion=1.0, count=1, cluster_ids=(0,)
    )
    result = RunResult(
        config=RunConfig(make_scenario(clusters_per_user=1), layout, 0, "unused", "binary"),
        segments=[SegmentResult(ShareTable(0, 1, (group,)), cs, views)],
        tensor=synthesize_segment(views, layout, 3.5e9, seed=0),
        metrics=MetricsReport(),
    )
    write_tables(result, tmp_path)
    rows = [r.split("\t") for r in (tmp_path / "cluster_views.tsv").read_text().splitlines()]
    written = {int(r[2]): float(r[4]) for r in rows[1:]}
    rx0 = layout.segment_start_position(2, 0)
    ref_center = layout.array.subarray_centers[layout.array.reference_subarray]
    want = (math.dist(rx0, lbs) - math.dist(rx0, ref_center)) / SPEED_OF_LIGHT_M_S
    assert written[2] == view_excess_delays(views, layout)[2, 0] < 0.0
    assert written[2] == pytest.approx(want, rel=1e-12)


def test_recalculate_views_modes_and_power():
    # A 1 m segment puts the focal points beyond three segment lengths, so
    # only the boresight rule keeps a shared boresight view's focal points.
    short = make_two_user_layout(1.0, stationarity_m=1.0)
    for layout in (make_two_user_layout(2.0), short):
        cs, shared, _ = _full_pipeline(layout)
        modes = set()
        seg_len = layout.segments[0].length_m
        final = recalculate_views(shared, cs, layout)
        assert list(final.views) == sorted(
            (u, c) for u, ids in cs.by_user.items() for c in ids
        )
        assert sorted(cs.by_user) == [1, 2]
        for (user, cid), view in final.views.items():
            cluster = cs.clusters[cid]
            modes.add((cluster.boresight, view.recalc_mode))
            if user == cluster.generating_user:
                assert view.recalc_mode == MODE_GENERATOR
                for got, want in zip(view[4:], _generator(cs, shared, cluster)):
                    assert np.array_equal(got, want)
            elif cluster.boresight:
                # No excess path to re-solve; geometry must be kept.
                assert view.recalc_mode == MODE_KEPT_FOCAL
            else:
                assert view.recalc_mode in (MODE_KEPT_PARAMETERS, MODE_KEPT_FOCAL)
                owner_pos = layout.segment_start_position(user, 0)
                lbs = final.views[cluster.generating_user, cid].lbs
                expected = choose_recalc_mode(cluster.boresight, lbs, owner_pos, seg_len)
                assert view.recalc_mode == expected
        for user in (1, 2):
            total = sum(v.power for (u, _), v in final.views.items() if u == user)
            assert total == pytest.approx(1.0, abs=1e-12)
    assert {(True, MODE_KEPT_FOCAL), (False, MODE_KEPT_PARAMETERS)} <= modes


def test_recalculated_views_are_deterministic():
    def build():
        cs, shared, layout = _full_pipeline(make_two_user_layout(2.0))
        final = recalculate_views(shared, cs, layout)
        return [(k, row.tolist()) for k, row in sorted(_written_rows(final, layout).items())]

    assert build() == build()


# ---------------------------------------------------------------------------
# Seeded random layouts: the one-pass recalculation against the per-view
# code, and the view invariants
# ---------------------------------------------------------------------------


def _segments(config):
    """(layout, cluster set, generator geometry) of every segment of a
    run config."""
    layout, seed = config.layout, config.seed
    lsp = draw_lsp(config.scenario, layout, seed)
    for table in share_tables(config):
        cs = assemble_clusters(table, lsp, layout, config.scenario, seed)
        yield layout, cs, attach_focal_points(cs, layout)


def _random_segments(seed):
    """`_segments` of `make_random_config(seed)`."""
    return _segments(make_random_config(seed))


# The per-view recalculation as it was before the views became columns:
# one view object per (user, cluster), each joining owner's built from
# its cluster's generator geometry looked up by cluster id. It is kept
# here as the reference of the gate below. Each returns the view and the
# delay of the path it fixes, which synthesis must reproduce.


def _geometry_row(geometry, row):
    """One cluster's geometry, row `row` of a solve's columns, with its
    interior as a Python float."""
    lbs, fbs, e_len_m, interior = (column[row] for column in geometry)
    return ClusterGeometry(lbs, fbs, e_len_m, float(interior))


def _effective_power(cluster_set, user_id, cluster_id):
    """The cluster's power share renormalized for one owner."""
    row = cluster_set.rows([cluster_id])
    (power,) = np.divide(cluster_set.power_raw[row], [cluster_set.power_denominator[user_id]])
    return float(power)


def _verbatim_view(cluster, geometry, user_id, mode, power):
    view = OwnerView(
        user_id=user_id,
        cluster_id=cluster.cluster_id,
        recalc_mode=mode,
        power=power,
        **geometry._asdict(),
    )
    return view, _synthesized_delay(cluster.tau_s, geometry.interior_raw_m)


def _at_generator(cluster, owner_pos, layout, segment_index):
    """Whether the owner stands exactly at the generating user's position."""
    gen_pos = layout.segment_start_position(cluster.generating_user, segment_index)
    return bool(np.array_equal(owner_pos, gen_pos))


def recalc_kept_parameters(cluster, geometry, owner_id, owner_pos, layout, power, segment):
    """Keep delay/power/angles; re-solve both focal points from the
    owner's position with the owner's own total path length."""
    view, delay = _verbatim_view(cluster, geometry, owner_id, MODE_KEPT_PARAMETERS, power)
    if _at_generator(cluster, owner_pos, layout, segment):
        return view, delay
    solved, (degenerate,) = solve_cluster_geometry(
        cluster_columns([cluster]), slice(None), owner_pos[None], layout.array
    )
    if degenerate:
        raise DegenerateGeometry(
            f"cluster {cluster.cluster_id}: no focal points from owner {owner_id}"
        )
    solved = _geometry_row(solved, 0)
    delay = _synthesized_delay(cluster.tau_s, solved.interior_raw_m)
    return view._replace(**solved._asdict()), delay


def recalc_kept_focal_point(cluster, geometry, owner_id, owner_pos, layout, power, segment):
    """Keep both focal points; recompute the delay from the owner's own
    end-to-end path length.

    The delay reuses the cluster's interior length, clamped at 0 as in
    synthesis, so that the generating position is an exact fixed point.
    """
    view, delay = _verbatim_view(cluster, geometry, owner_id, MODE_KEPT_FOCAL, power)
    if _at_generator(cluster, owner_pos, layout, segment):
        return view, delay

    ref = layout.array.reference_subarray
    e_ref = float(geometry.e_len_m[ref])
    g_len = math.dist(owner_pos, geometry.lbs)
    direct = math.dist(owner_pos, layout.array.subarray_centers[ref])
    interior = max(geometry.interior_raw_m, 0.0)
    delay = (e_ref + interior + g_len - direct) / SPEED_OF_LIGHT_M_S
    return view, delay


def _per_view_views(cluster_set, attached, layout):
    """The reference views and their delays, both by (user, cluster id),
    from the generator geometry `attached` (a row per cluster row)."""
    segment = layout.segments[cluster_set.segment_index]
    rows = range(len(cluster_set.cluster_id))
    solved = [_geometry_row(attached, row) for row in rows]
    geometries = dict(zip(cluster_set.cluster_id.tolist(), solved))
    views, delays = {}, {}
    for user_id, cluster_ids in sorted(cluster_set.by_user.items()):
        owner_pos = layout.segment_start_position(user_id, segment.index)
        for cluster_id in cluster_ids:
            cluster = cluster_set.clusters[cluster_id]
            geometry = geometries[cluster_id]
            power = _effective_power(cluster_set, user_id, cluster_id)
            if user_id == cluster.generating_user:
                view, delay = _verbatim_view(cluster, geometry, user_id, MODE_GENERATOR, power)
            else:
                kept_focal = (
                    cluster.boresight
                    or math.dist(geometry.lbs, owner_pos) < 3.0 * segment.length_m
                )
                recalc = recalc_kept_focal_point if kept_focal else recalc_kept_parameters
                view, delay = recalc(
                    cluster, geometry, user_id, owner_pos, layout, power, segment.index
                )
            views[user_id, cluster_id], delays[user_id, cluster_id] = view, delay
    return views, delays


def _moved_kept_parameters(views, cs, layout):
    """How many kept-parameters views belong to an owner off the
    generating user's position."""
    position = layout.segment_start_position
    return sum(
        view.recalc_mode == MODE_KEPT_PARAMETERS
        and not np.array_equal(
            position(user, cs.segment_index),
            position(cs.clusters[cid].generating_user, cs.segment_index),
        )
        for (user, cid), view in views.views.items()
    )


def test_recalculate_views_equal_per_view_reference():
    seen = {"layouts": 0, "kept-parameters": 0, "co-located": 0}
    configs = [make_random_config(seed) for seed in [*range(60), *range(100, 140)]]
    # Two segments in which a joining owner re-solves (kept-parameters).
    configs.append(make_run_config(n_snapshots=20))
    for n, config in enumerate(configs):
        kept_parameters = co_located = False
        for layout, cs, attached in _segments(config):
            label = (n, cs.segment_index)
            new = recalculate_views(share_clusters(cs, attached), cs, layout)
            old, old_delays = _per_view_views(cs, attached, layout)
            excess = view_excess_delays(new, layout)
            assert new.segment_index == cs.segment_index
            # Every column, slot (k, c) holding user k's c-th view.
            assert new.user_id.tolist() == list(dict.fromkeys(u for u, _ in old)), label
            for name in OwnerView._fields[1:]:
                column = getattr(new, name)
                want = np.array([getattr(v, name) for v in old.values()])
                assert column.shape == new.cluster_id.shape + want.shape[1:], (label, name)
                assert np.array_equal(column, want.reshape(column.shape)), (label, name)
            # Every row of the mapping, its values and their Python types.
            assert list(new.views) == list(old) == sorted(old)
            for key, view in new.views.items():
                for name, a, b in zip(OwnerView._fields, view, old[key]):
                    same = np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                    assert same and type(a) is type(b), (label, key, name)
                assert abs(excess[key] - old_delays[key]) <= CLOSURE_S, (label, key)
                cluster = cs.clusters[key[1]]
                kept_parameters |= view.recalc_mode == MODE_KEPT_PARAMETERS
                co_located |= key[0] != cluster.generating_user and np.array_equal(
                    layout.segment_start_position(key[0], cs.segment_index),
                    layout.segment_start_position(cluster.generating_user, cs.segment_index),
                )
        seen["layouts"] += 1
        seen["kept-parameters"] += kept_parameters
        seen["co-located"] += co_located
    assert kept_parameters  # the last config's
    assert seen["layouts"] == 101, seen
    assert seen["kept-parameters"] >= 10 and seen["co-located"] >= 10, seen


def test_one_solve_per_segment(monkeypatch):
    calls = []
    original = sharing.solve_cluster_geometry

    def spy(clusters, rows, users, array):
        calls.append(len(users))
        return original(clusters, rows, users, array)

    monkeypatch.setattr(sharing, "solve_cluster_geometry", spy)
    seen = {"none": 0, "several": 0}
    for seed in range(40):
        for layout, cs, geometries in _random_segments(seed):
            calls.clear()
            views = recalculate_views(share_clusters(cs, geometries), cs, layout)
            moved = _moved_kept_parameters(views, cs, layout)
            # Every moved kept-parameters view is a row of the one call.
            assert calls == ([moved] if moved else []), (seed, cs.segment_index)
            seen["none"] += not moved
            seen["several"] += moved > 1
    assert seen["none"] >= 10 and seen["several"] >= 10, seen


def test_every_owned_cluster_has_one_view_and_each_user_full_power():
    modes = {MODE_GENERATOR, MODE_KEPT_FOCAL, MODE_KEPT_PARAMETERS}
    seen = {mode: 0 for mode in modes}
    for seed in range(100, 140):
        for layout, cs, geometries in _random_segments(seed):
            views = recalculate_views(share_clusters(cs, geometries), cs, layout)
            pairs = [(u, c) for u, ids in cs.by_user.items() for c in ids]
            assert sorted(views.views) == sorted(pairs)
            assert len(set(pairs)) == len(pairs)
            for (user, cluster_id), view in views.views.items():
                assert (view.user_id, view.cluster_id) == (user, cluster_id)
                assert view.recalc_mode in modes
                seen[view.recalc_mode] += 1
            for user, ids in cs.by_user.items():
                total = sum(views.views[user, c].power for c in ids)
                assert abs(total - 1.0) <= 1e-12, (seed, user, total)
    assert min(seen.values()) >= 50, seen


# ---------------------------------------------------------------------------
# The rows of `OwnerViews.views`, built only for readers of rows
# ---------------------------------------------------------------------------


def test_owner_view_rows_are_built_on_first_read(monkeypatch, tmp_path):
    # A run and its written tables read the columns: they build no row
    # mapping, no `OwnerView` and no geometry of a single cluster.
    rows, geometries = [], []
    new_row, new_geometry = OwnerView.__new__, ClusterGeometry.__new__
    make_geometry = ClusterGeometry._make

    def counting_row(cls, *args, **kwargs):
        rows.append(args)
        return new_row(cls, *args, **kwargs)

    def counting_geometry(cls, *args, **kwargs):
        geometries.append(new_geometry(cls, *args, **kwargs))
        return geometries[-1]

    def counting_make(cls, iterable):
        geometries.append(make_geometry(iterable))
        return geometries[-1]

    monkeypatch.setattr(OwnerView, "__new__", staticmethod(counting_row))
    monkeypatch.setattr(ClusterGeometry, "__new__", staticmethod(counting_geometry))
    monkeypatch.setattr(ClusterGeometry, "_make", classmethod(counting_make))
    result = run(make_run_config(n_snapshots=20))
    write_outputs(result, tmp_path)
    assert len(result.segments) == 2
    assert rows == []
    # Columns of solved rows (n, 3) and of slots (U, C, 3), never one cluster.
    assert {g.lbs.ndim for g in geometries} == {2, 3}
    for seg in result.segments:
        assert "views" not in vars(seg.views)
        n_views = seg.views.cluster_id.size
        assert len(seg.views.views) == len(rows) == n_views
        assert "views" in vars(seg.views)
        assert seg.views.views is seg.views.views and len(rows) == n_views
        rows.clear()


def test_owner_view_rows_equal_the_columns():
    configs = [make_random_config(seed) for seed in range(10)]
    configs.append(make_run_config(n_snapshots=20))  # kept-parameters views
    types = [int, int, str, float, np.ndarray, np.ndarray, np.ndarray, float]
    for n, config in enumerate(configs):
        for seg in run(config).segments:
            views = seg.views
            n_users, n_clusters = views.cluster_id.shape
            slots = [(k, c) for k in range(n_users) for c in range(n_clusters)]
            keys = [(views.user_id[k], views.cluster_id[k, c]) for k, c in slots]
            # In slot order, a row per slot.
            assert list(views.views) == keys, n
            for (k, c), row in zip(slots, views.views.values()):
                assert [type(x) for x in row] == types, (n, k, c)
                assert row.user_id == views.user_id[k], (n, k, c)
                for name in OwnerView._fields[1:]:
                    assert np.array_equal(getattr(row, name), getattr(views, name)[k, c])
                for a in (row.lbs, row.fbs, row.e_len_m):
                    with pytest.raises(ValueError, match="read-only"):
                        a.flat[0] = a.flat[0]
            with pytest.raises(TypeError):
                views.views[keys[0]] = row
