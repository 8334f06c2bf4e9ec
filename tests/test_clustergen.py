import dataclasses

import numpy as np
import pytest

from auramimo import (
    MODE_KEPT_FOCAL,
    InvalidScenario,
    MissingLsp,
    assemble_clusters,
    draw_lsp,
    gen_arrival_angles,
    gen_delays,
    gen_departure_angles,
    gen_powers,
    share_clusters,
    share_table_for_segment,
)
from auramimo.clustergen import Cluster, ClusterGeometry, group_rng
from auramimo.pipeline import run
from conftest import make_point_layout, make_scenario, make_two_user_layout, owners
from test_pipeline import make_run_config


def test_single_delay_is_zero(rng):
    assert gen_delays(1, 1e-7, 2.5, rng).tolist() == [0.0]


def test_delays_sorted_and_anchored(rng):
    d = gen_delays(40, 1e-7, 2.5, rng)
    assert d[0] == 0.0
    assert np.all(np.diff(d) >= 0)
    assert np.all(d >= 0)


def test_delay_tail_distribution(rng):
    # After subtracting the minimum of n iid exponentials, the remaining
    # n-1 values are again a sorted iid exponential sample (memoryless),
    # so their mean and std both equal the scale r_tau * sigma.
    sigma, r_tau = 1e-7, 2.5
    scale = r_tau * sigma
    d = gen_delays(5001, sigma, r_tau, rng)
    tail = d[1:]
    assert tail.mean() == pytest.approx(scale, rel=0.05)
    assert tail.std() == pytest.approx(scale, rel=0.06)


def test_delays_whose_squared_path_overflows_are_a_typed_error(rng):
    # The focal solve squares the path: about 1.3e154 m is the float limit.
    assert np.all(np.isfinite(gen_delays(7, 1e-7, 1e150, rng)))
    with pytest.raises(InvalidScenario, match="r_tau 1e[+]200 and delay_spread_median_s"):
        gen_delays(7, 1e-7, 1e200, rng)
    # A scale past float range draws inf - inf = NaN delays, also rejected.
    with pytest.raises(InvalidScenario, match="overflows"):
        gen_delays(7, 1e300, 1e10, rng)


def test_powers_match_exponential_profile_without_shadowing(rng):
    sigma, r_tau = 1e-7, 2.5
    d = gen_delays(30, sigma, r_tau, rng)
    p = gen_powers(d, sigma, r_tau, 0.0, rng)
    expected = np.exp(-d * (r_tau - 1.0) / (r_tau * sigma))
    expected /= expected.sum()
    np.testing.assert_allclose(p, expected, rtol=1e-12)
    assert abs(p.sum() - 1.0) < 1e-12


def test_powers_with_shadowing_still_normalized(rng):
    d = gen_delays(30, 1e-7, 2.5, rng)
    p = gen_powers(d, 1e-7, 2.5, 3.0, rng)
    assert np.all(p > 0)
    assert abs(p.sum() - 1.0) < 1e-12


def test_arrival_angles_bounded(rng):
    az, el = gen_arrival_angles(500, 60.0, 20.0, rng)
    assert np.all(az > -180.0) and np.all(az <= 180.0)
    assert np.all(el >= -90.0) and np.all(el <= 90.0)


def test_arrival_angle_spread_matches_sigma(rng):
    # |N(0, s)| with a random sign has the same law as N(0, s).
    az, el = gen_arrival_angles(20000, 40.0, 5.0, rng)
    assert az.std() == pytest.approx(40.0, rel=0.03)
    assert az.mean() == pytest.approx(0.0, abs=1.0)
    assert el.std() == pytest.approx(5.0, rel=0.03)


def test_zero_spread_collapses_angles(rng):
    az, el = gen_arrival_angles(10, 0.0, 0.0, rng)
    assert np.all(az == 0.0) and np.all(el == 0.0)


def test_departure_angles_per_subarray_independent(rng):
    draws = np.array([gen_departure_angles(4, 20.0, 3.0, rng)[0] for _ in range(4000)])
    assert draws.shape == (4000, 4)
    corr = np.corrcoef(draws.T)
    off_diag = corr[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off_diag) < 0.05)


def _assembled(layout, seed=3, total=7, scenario=None):
    scenario = scenario or make_scenario(clusters_per_user=total)
    table = share_table_for_segment(layout, 0, total)
    lsp = draw_lsp(scenario, layout, seed=seed)
    return assemble_clusters(table, lsp, layout, scenario, seed=seed)


def _of_user(cs, user):
    return [cs.clusters[c] for c in cs.by_user[user]]


def test_assemble_counts_and_determinism():
    layout = make_two_user_layout(2.0)
    a = _assembled(layout)
    b = _assembled(layout)
    for user in (1, 2):
        ca, cb = _of_user(a, user), _of_user(b, user)
        assert len(ca) == 7
        assert [c.tau_s for c in ca] == [c.tau_s for c in cb]
        assert [a.effective_power(c.generating_user, c.cluster_id) for c in ca] == [
            b.effective_power(c.generating_user, c.cluster_id) for c in cb
        ]
    c = _assembled(layout, seed=4)
    assert [x.tau_s for x in _of_user(c, 1)] != [x.tau_s for x in _of_user(a, 1)]


def test_shared_cluster_is_one_object():
    layout = make_two_user_layout(2.0)
    cs = _assembled(layout)
    shared_ids = [
        c.cluster_id for c in _of_user(cs, 1) if owners(cs, c.cluster_id) == (1, 2)
    ]
    assert shared_ids
    by_id_1 = {c.cluster_id: c for c in _of_user(cs, 1)}
    by_id_2 = {c.cluster_id: c for c in _of_user(cs, 2)}
    for cid in shared_ids:
        assert by_id_1[cid] is by_id_2[cid]


def test_effective_power_sums_to_one_per_user():
    layout = make_two_user_layout(2.0)
    cs = _assembled(layout)
    for user in (1, 2):
        total = sum(
            cs.effective_power(user, c.cluster_id) for c in _of_user(cs, user)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_first_cluster_of_each_group_is_boresight():
    layout = make_two_user_layout(2.0)
    cs = _assembled(layout)
    groups = {}
    for c in cs.clusters.values():
        groups.setdefault((owners(cs, c.cluster_id), c.generating_user), []).append(c)
    for members in groups.values():
        members.sort(key=lambda c: c.tau_s)
        assert members[0].boresight and members[0].tau_s == 0.0
        assert all(not c.boresight for c in members[1:] if c.tau_s > 0)


def test_pre_focal_parameter_count_tracks_subarrays():
    # A=4 sub-arrays -> 4 + 2*4 = 12 scalars per cluster before focal
    # points; A=1 -> 6.
    def n_scalars(c):
        # delay, power, arrival az/el and one departure az/el per sub-array
        return 4 + len(c.aod_az_deg) + len(c.aod_el_deg)

    wide = _assembled(make_two_user_layout(2.0))
    assert all(n_scalars(c) == 12 for c in wide.clusters.values())
    narrow = _assembled(
        make_point_layout({1: (20.0, 0.0, 1.5), 2: (22.0, 0.0, 1.5)}, 5.0)
    )
    assert all(n_scalars(c) == 6 for c in narrow.clusters.values())
    assert all(len(c.aod_az_deg) == 1 for c in narrow.clusters.values())


def test_clusters_are_frozen():
    assembled = _assembled(make_two_user_layout(2.0))
    cluster = next(iter(assembled.clusters.values()))
    for f in dataclasses.fields(Cluster):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cluster, f.name, getattr(cluster, f.name))
    for c in assembled.clusters.values():
        for a in (c.aod_az_deg, c.aod_el_deg):
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = a.flat[0]

    # A hand-built geometry is frozen by the generator view that holds it.
    geometry = ClusterGeometry(np.zeros(3), np.ones((2, 3)), np.ones(2), 0.0)
    share_clusters(assembled, dict.fromkeys(assembled.clusters, geometry))
    for a in geometry[:3]:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]

    # Frozen all the way down: every array of every cluster and owner view
    # of a two-segment run is read-only, kept-focal-point views included;
    # the focal points are the views' arrays.
    result = run(make_run_config(n_snapshots=20))
    assert len(result.segments) == 2
    views = [v for seg in result.segments for v in seg.views.views.values()]
    clusters = [c for seg in result.segments for c in seg.cluster_set.clusters.values()]
    boresight = {c.cluster_id for c in clusters if c.boresight}  # ids are run-unique
    assert any(v.recalc_mode == MODE_KEPT_FOCAL and v.cluster_id not in boresight for v in views)
    arrays = [a for c in clusters for a in (c.aod_az_deg, c.aod_el_deg)]
    arrays += [a for v in views for a in (v.lbs, v.fbs, v.e_len_m)]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]


def test_each_cluster_is_built_once(monkeypatch):
    # Focal points go into the owner views, so a run builds each of its
    # clusters once: no second, attached copy of any cluster.
    built = []
    original = Cluster.__post_init__

    def counting(self):
        built.append(self.cluster_id)
        original(self)

    monkeypatch.setattr(Cluster, "__post_init__", counting)
    result = run(make_run_config(n_snapshots=20))
    clusters = [c for seg in result.segments for c in seg.cluster_set.clusters.values()]
    assert len(result.segments) == 2 and clusters
    assert sorted(built) == sorted(c.cluster_id for c in clusters)


def test_generating_user_uniform_over_members():
    # The generating user of a two-member group should be a fair coin
    # across seeds; chi-square test at the 1% level.
    layout = make_point_layout({1: (20.0, 0.0, 1.5), 2: (22.0, 0.0, 1.5)}, 5.0)
    scenario = make_scenario(clusters_per_user=3)
    table = share_table_for_segment(layout, 0, 3)
    picks = []
    for seed in range(1000):
        lsp = draw_lsp(scenario, layout, seed=seed)
        cs = assemble_clusters(table, lsp, layout, scenario, seed=seed)
        shared = [c for c in cs.clusters.values() if len(owners(cs, c.cluster_id)) == 2]
        picks.append(shared[0].generating_user)
    n1 = picks.count(1)
    chi2 = (n1 - 500) ** 2 / 250.0  # (o-e)^2/e summed over both cells
    assert chi2 < 6.635, f"generator choice biased: {n1}/1000 picked user 1"


def test_group_streams_keyed_not_sequential():
    # With the same LSP values, adding a far-away third user must not
    # change the draws of the existing groups: streams are keyed by group
    # row and prior rows keep their row numbers.
    scenario = make_scenario()
    close = {1: (20.0, 0.0, 1.5), 2: (22.0, 0.0, 1.5)}
    with_far = {**close, 3: (90.0, 0.0, 1.5)}
    layout_a = make_point_layout(close, 5.0)
    layout_b = make_point_layout(with_far, 5.0)
    lsp = draw_lsp(scenario, layout_b, seed=3)  # covers users 1..3
    cs_a = assemble_clusters(
        share_table_for_segment(layout_a, 0, 7), lsp, layout_a, scenario, seed=3
    )
    cs_b = assemble_clusters(
        share_table_for_segment(layout_b, 0, 7), lsp, layout_b, scenario, seed=3
    )
    for ca, cb in zip(_of_user(cs_a, 1), _of_user(cs_b, 1)):
        assert ca.cluster_id == cb.cluster_id
        assert ca.tau_s == cb.tau_s
        assert ca.aoa_az_deg == cb.aoa_az_deg


def test_group_rng_streams_are_distinct():
    a = group_rng(5, 0, 0).random(4)
    b = group_rng(5, 0, 1).random(4)
    c = group_rng(5, 1, 0).random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_assemble_requires_lsp_for_all_users():
    layout = make_two_user_layout(2.0)
    scenario = make_scenario()
    table = share_table_for_segment(layout, 0, 7)
    partial = draw_lsp(scenario, make_two_user_layout(2.0, n_snapshots=2), seed=1)

    class OnlyUserOne:
        def of(self, user, segment):
            if user != 1:
                raise MissingLsp(f"no LSP draw for user {user}, segment {segment}")
            return partial.of(user, segment)

    with pytest.raises(MissingLsp):
        assemble_clusters(table, OnlyUserOne(), layout, scenario, seed=1)
