import math
from dataclasses import replace

import numpy as np
import pytest

from auramimo import (
    MODE_GENERATOR,
    MODE_KEPT_FOCAL,
    MODE_KEPT_PARAMETERS,
    DegenerateGeometry,
    IncompleteViews,
    assemble_clusters,
    attach_focal_points,
    choose_recalc_mode,
    draw_lsp,
    recalc_kept_focal_point,
    recalc_kept_parameters,
    recalculate_views,
    share_clusters,
    share_table_for_segment,
    total_path_length,
)
from auramimo.clustergen import Cluster, ClusterGeometry
from auramimo.geom import SPEED_OF_LIGHT_M_S
from conftest import make_scenario, make_two_user_layout


def _cluster_with_lbs(lbs, fbs=np.zeros((0, 3)), e_len_m=None, interior_raw_m=None):
    return Cluster(
        cluster_id=0,
        segment_index=0,
        owner_set=(1, 2),
        generating_user=1,
        tau_s=1e-7,
        power_raw=0.5,
        aoa_az_deg=10.0,
        aoa_el_deg=0.0,
        aod_az_deg=np.array([5.0]),
        aod_el_deg=np.array([0.0]),
        geometry=ClusterGeometry(lbs, fbs, e_len_m, interior_raw_m),
    )


@pytest.mark.parametrize(
    "lbs_distance,expected",
    [
        (5.0, MODE_KEPT_FOCAL),
        (14.999999, MODE_KEPT_FOCAL),
        (15.0, MODE_KEPT_PARAMETERS),  # boundary is strict
        (20.0, MODE_KEPT_PARAMETERS),
    ],
)
def test_mode_threshold_three_segment_lengths(lbs_distance, expected):
    owner = (0.0, 0.0, 1.5)
    cluster = _cluster_with_lbs(np.array([lbs_distance, 0.0, 1.5]))
    assert choose_recalc_mode(cluster, owner, segment_length_m=5.0) == expected


def _full_pipeline(layout, seed=3, total=7):
    scenario = make_scenario(clusters_per_user=total)
    table = share_table_for_segment(layout, 0, total)
    lsp = draw_lsp(scenario, layout, seed=seed)
    cs = assemble_clusters(table, lsp, layout, scenario, seed=seed)
    cs = attach_focal_points(cs, layout, lsp_draw=lsp, seed=seed)
    views = share_clusters(cs, layout)
    return cs, views, layout


def test_share_clusters_verbatim_and_power():
    cs, views, layout = _full_pipeline(make_two_user_layout(2.0))
    for (user, cid), view in views.views.items():
        cluster = cs.clusters[cid]
        assert view.delay_s == cluster.tau_s
        assert np.array_equal(view.lbs, cluster.geometry.lbs)
        assert view.power == cs.effective_power(user, cid)
        if user == cluster.generating_user:
            assert view.recalc_mode == MODE_GENERATOR
        else:
            assert view.recalc_mode == "shared"
    for user in (1, 2):
        total = sum(v.power for v in views.views_of_user(user))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_share_clusters_without_focal_points_is_a_typed_error():
    layout = make_two_user_layout(2.0)
    scenario = make_scenario()
    table = share_table_for_segment(layout, 0, scenario.clusters_per_user)
    lsp = draw_lsp(scenario, layout, seed=3)
    cs = assemble_clusters(table, lsp, layout, scenario, seed=3)
    first = min(cs.clusters)
    with pytest.raises(IncompleteViews, match=f"cluster {first} has no focal points"):
        share_clusters(cs, layout)


def _shared_nonboresight(cs):
    return [
        c
        for c in cs.clusters.values()
        if len(c.owner_set) == 2 and not c.boresight
    ]


def test_kept_parameters_keeps_scalars_and_resolves_geometry():
    cs, views, layout = _full_pipeline(make_two_user_layout(2.0))
    subs = layout.array.subarrays
    ref = layout.array.reference_subarray().index
    for cluster in _shared_nonboresight(cs):
        owner = next(u for u in cluster.owner_set if u != cluster.generating_user)
        owner_pos = layout.segment_start_position(owner, 0)
        owner_xyz = owner_pos
        view = recalc_kept_parameters(cluster, owner, owner_pos, layout, 0.1)
        # Kept fields are bit-identical.
        assert view.delay_s == cluster.tau_s
        assert view.aoa_az_deg == cluster.aoa_az_deg
        assert view.aoa_el_deg == cluster.aoa_el_deg
        assert np.array_equal(view.aod_az_deg, cluster.aod_az_deg)
        assert np.array_equal(view.aod_el_deg, cluster.aod_el_deg)
        # Focal points are re-solved against the owner.
        assert not np.array_equal(view.lbs, cluster.geometry.lbs)
        for sub in subs:
            d_c = total_path_length(cluster.tau_s, sub.center, owner_pos)
            got = view.e_len_m[sub.index] + math.dist(view.fbs[sub.index], owner_xyz)
            assert abs(got - d_c) / d_c <= 1e-9
        d_ref = total_path_length(cluster.tau_s, subs[ref].center, owner_pos)
        ref_xyz = subs[ref].center
        got = math.dist(owner_xyz, view.lbs) + math.dist(view.lbs, ref_xyz)
        assert abs(got - d_ref) / d_ref <= 1e-9


def test_kept_parameters_degenerate_solve_names_cluster_and_owner():
    # No excess delay without the boresight marker cannot be re-solved.
    cs, views, layout = _full_pipeline(make_two_user_layout(2.0))
    cluster = replace(_shared_nonboresight(cs)[0], tau_s=0.0)
    owner = next(u for u in cluster.owner_set if u != cluster.generating_user)
    owner_pos = layout.segment_start_position(owner, 0)
    match = f"cluster {cluster.cluster_id}: no focal points from owner {owner}"
    with pytest.raises(DegenerateGeometry, match=match):
        recalc_kept_parameters(cluster, owner, owner_pos, layout, 0.1)


def test_kept_focal_point_keeps_geometry_and_reads_angles():
    cs, views, layout = _full_pipeline(make_two_user_layout(2.0))
    for cluster in _shared_nonboresight(cs):
        owner = next(u for u in cluster.owner_set if u != cluster.generating_user)
        owner_pos = layout.segment_start_position(owner, 0)
        view = recalc_kept_focal_point(cluster, owner, owner_pos, layout, 0.1)
        assert np.array_equal(view.lbs, cluster.geometry.lbs)
        assert np.array_equal(view.fbs, cluster.geometry.fbs)
        assert np.array_equal(view.e_len_m, cluster.geometry.e_len_m)
        # Arrival azimuth is the atan2 bearing from owner to the LBS.
        dx = cluster.geometry.lbs[0] - owner_pos[0]
        dy = cluster.geometry.lbs[1] - owner_pos[1]
        expected_az = math.degrees(math.atan2(dy, dx))
        assert view.aoa_az_deg == pytest.approx(expected_az, abs=1e-9)
        assert view.delay_s >= 0.0


def test_colocated_owner_gets_bit_identical_view_in_both_modes():
    cs, views, layout = _full_pipeline(make_two_user_layout(2.0))
    for cluster in list(cs.clusters.values())[:4]:
        gen_pos = layout.segment_start_position(cluster.generating_user, 0)
        for fn in (recalc_kept_parameters, recalc_kept_focal_point):
            power = cs.effective_power(cluster.generating_user, cluster.cluster_id)
            view = fn(cluster, 99, gen_pos, layout, power)
            assert view.delay_s == cluster.tau_s
            assert view.aoa_az_deg == cluster.aoa_az_deg
            assert view.aoa_el_deg == cluster.aoa_el_deg
            assert np.array_equal(view.aod_az_deg, cluster.aod_az_deg)
            assert np.array_equal(view.lbs, cluster.geometry.lbs)
            assert np.array_equal(view.fbs, cluster.geometry.fbs)
            assert view.interior_raw_m == cluster.geometry.interior_raw_m


def test_moving_toward_lbs_shortens_kept_focal_delay():
    cs, views, layout = _full_pipeline(make_two_user_layout(2.0))
    cluster = _shared_nonboresight(cs)[0]
    gen_pos = layout.segment_start_position(cluster.generating_user, 0)
    to_lbs = cluster.geometry.lbs - gen_pos
    step = 0.3 * to_lbs / np.linalg.norm(to_lbs)
    owner_pos = gen_pos + step
    view = recalc_kept_focal_point(cluster, 99, owner_pos, layout, 0.1)
    assert view.delay_s < cluster.tau_s
    assert cluster.tau_s - view.delay_s > 1e-15


def test_kept_focal_delay_floors_at_zero():
    # A synthetic geometry where the frozen interior is so negative that
    # the reconstructed delay would dip below zero.
    layout = make_two_user_layout(2.0)
    ref_center = layout.array.reference_subarray().center
    cluster = _cluster_with_lbs(
        np.array([30.0, 0.0, 1.5]),
        fbs=np.tile([30.0, 0.0, 1.5], (len(layout.array.subarrays), 1)),
        e_len_m=np.zeros(len(layout.array.subarrays)),
        interior_raw_m=-100.0,
    )
    owner_pos = (35.0, 0.0, 1.5)
    view = recalc_kept_focal_point(cluster, 2, owner_pos, layout, 0.1)
    assert view.delay_s == 0.0


def test_recalculate_views_modes_and_power():
    cs, shared, layout = _full_pipeline(make_two_user_layout(2.0))
    # A 1 mm segment puts every focal point beyond three segment lengths,
    # so only the boresight rule keeps a shared boresight view's focal points.
    for seg_len in (layout.segments[0].length_m, 1e-3):
        final = recalculate_views(shared, cs, layout, seg_len)
        assert final.user_ids == (1, 2)
        modes = set()
        for (user, cid), view in final.views.items():
            cluster = cs.clusters[cid]
            modes.add((cluster.boresight, view.recalc_mode))
            if user == cluster.generating_user:
                assert view.recalc_mode == MODE_GENERATOR
            elif cluster.boresight:
                # No excess path to re-solve; geometry must be kept.
                assert view.recalc_mode == MODE_KEPT_FOCAL
            else:
                assert view.recalc_mode in (MODE_KEPT_PARAMETERS, MODE_KEPT_FOCAL)
                owner_pos = layout.segment_start_position(user, 0)
                expected = choose_recalc_mode(cluster, owner_pos, seg_len)
                assert view.recalc_mode == expected
        for user in (1, 2):
            total = sum(v.power for v in final.views_of_user(user))
            assert total == pytest.approx(1.0, abs=1e-12)
    assert {(True, MODE_KEPT_FOCAL), (False, MODE_KEPT_PARAMETERS)} <= modes


def test_recalculated_views_are_deterministic():
    def build():
        cs, shared, layout = _full_pipeline(make_two_user_layout(2.0))
        final = recalculate_views(shared, cs, layout, layout.segments[0].length_m)
        return [
            (k, v.delay_s, v.aoa_az_deg, tuple(map(float, v.aod_az_deg)))
            for k, v in sorted(final.views.items())
        ]

    assert build() == build()
