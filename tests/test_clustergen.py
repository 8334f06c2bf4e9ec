import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from auramimo import (
    MODE_GENERATOR,
    MODE_KEPT_FOCAL,
    MODE_KEPT_PARAMETERS,
    InvalidScenario,
    MissingLsp,
    assemble_clusters,
    attach_focal_points,
    angle_draws,
    angles_from_draws,
    draw_lsp,
    gen_delays,
    group_powers,
    share_table_for_segment,
    total_path_length,
)
from auramimo.clustergen import ClusterGeometry, ClusterRow, ClusterSet, group_rng
from auramimo.sharing import OwnerView, OwnerViews
from auramimo.geom import clip_elevation_deg, unit_from_angles, wrap_azimuth_deg
from auramimo.pipeline import run, write_outputs
from auramimo.spherical import solve_focal_lengths
from conftest import (
    make_point_layout,
    make_random_config,
    make_scenario,
    make_two_user_layout,
    owners,
)
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
    p = group_powers(d, sigma, np.zeros(30), [30], make_scenario(r_tau=r_tau))
    expected = np.exp(-d * (r_tau - 1.0) / (r_tau * sigma))
    expected /= expected.sum()
    np.testing.assert_allclose(p, expected, rtol=1e-12)
    assert abs(p.sum() - 1.0) < 1e-12


def test_powers_with_shadowing_still_normalized(rng):
    d = gen_delays(30, 1e-7, 2.5, rng)
    p = group_powers(d, 1e-7, rng.normal(0.0, 3.0, size=30), [30], make_scenario(r_tau=2.5))
    assert np.all(p > 0)
    assert abs(p.sum() - 1.0) < 1e-12


def test_arrival_angles_bounded(rng):
    az, el = angles_from_draws(*angle_draws(500, 60.0, 20.0, rng))
    assert np.all(az > -180.0) and np.all(az <= 180.0)
    assert np.all(el >= -90.0) and np.all(el <= 90.0)


def test_arrival_angle_spread_matches_sigma(rng):
    # |N(0, s)| with a random sign has the same law as N(0, s).
    az, el = angles_from_draws(*angle_draws(20000, 40.0, 5.0, rng))
    assert az.std() == pytest.approx(40.0, rel=0.03)
    assert az.mean() == pytest.approx(0.0, abs=1.0)
    assert el.std() == pytest.approx(5.0, rel=0.03)


def test_zero_spread_collapses_angles(rng):
    az, el = angles_from_draws(*angle_draws(10, 0.0, 0.0, rng))
    assert np.all(az == 0.0) and np.all(el == 0.0)


def test_departure_angles_per_subarray_independent():
    # Assembly's AoD column: one independent azimuth per sub-array.
    layout = make_two_user_layout(40.0)
    cs = _assembled(layout, total=2000, scenario=make_scenario(clusters_per_user=2000))
    draws = cs.aod_az_deg
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
        assert [c.power_raw for c in ca] == [c.power_raw for c in cb]
    assert a.power_denominator == b.power_denominator
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
    # Each owner's effective power is the share over its denominator.
    for user in (1, 2):
        ids = cs.by_user[user]
        total = sum(cs.power_raw[cs.rows(ids)] / cs.power_denominator[user])
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
    for f in dataclasses.fields(ClusterSet):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(assembled, f.name, getattr(assembled, f.name))
    for name in ClusterRow._fields:
        column = getattr(assembled, name)
        assert len(column) == len(assembled.clusters)
        with pytest.raises(ValueError, match="read-only"):
            column.flat[0] = column.flat[0]
    # The rows by id are a read-only mapping over the columns.
    cluster = next(iter(assembled.clusters.values()))
    with pytest.raises(TypeError):
        assembled.clusters[cluster.cluster_id] = cluster
    for c in assembled.clusters.values():
        for a in (c.aod_az_deg, c.aod_el_deg):
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = a.flat[0]

    # Hand-built columns are frozen by the owner views that hold them.
    geometry = ClusterGeometry(
        np.zeros((1, 1, 3)), np.ones((1, 1, 2, 3)), np.ones((1, 1, 2)), np.zeros((1, 1))
    )
    columns = dict(
        user_id=np.array([1]),
        cluster_id=np.zeros((1, 1), int),
        recalc_mode=np.array([[MODE_GENERATOR]]),
        power=np.ones((1, 1)),
        **geometry._asdict(),
    )
    views = OwnerViews(segment_index=0, **columns)
    for a in columns.values():
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        views.power = columns["power"]

    # Frozen all the way down: every array of every cluster and owner view
    # of a two-segment run is read-only, kept-focal-point views included;
    # the focal points are the views' columns, and their rows' arrays.
    result = run(make_run_config(n_snapshots=20))
    assert len(result.segments) == 2
    views = [v for seg in result.segments for v in seg.views.views.values()]
    sets = [seg.cluster_set for seg in result.segments]
    boresight = {c for cs in sets for c in cs.cluster_id[cs.boresight].tolist()}  # run-unique
    assert any(v.recalc_mode == MODE_KEPT_FOCAL and v.cluster_id not in boresight for v in views)
    arrays = [getattr(cs, name) for cs in sets for name in ClusterRow._fields]
    arrays += [getattr(seg.views, name) for seg in result.segments for name in OwnerView._fields]
    arrays += [a for v in views for a in (v.lbs, v.fbs, v.e_len_m)]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]


def test_each_cluster_is_built_once(monkeypatch, tmp_path):
    # Focal points go into the owner views, so a run builds one cluster set
    # per segment, a row per cluster of its share table, and nothing else:
    # neither a run nor its written tables build the rows by id.
    built = []
    original = ClusterSet.__post_init__

    def counting(self):
        built.append(self.cluster_id.tolist())
        original(self)

    monkeypatch.setattr(ClusterSet, "__post_init__", counting)
    result = run(make_run_config(n_snapshots=20))
    write_outputs(result, tmp_path)
    assert len(result.segments) == 2
    assert built == [list(seg.share_table.cluster_ids) for seg in result.segments]
    for seg in result.segments:
        assert "clusters" not in vars(seg.cluster_set)
        assert list(seg.cluster_set.clusters) == list(seg.share_table.cluster_ids)
        assert "clusters" in vars(seg.cluster_set)


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


# ---------------------------------------------------------------------------
# Columns gate: the columns, the geometries and the views against the
# per-cluster assembly and focal solve that the columns replaced
# ---------------------------------------------------------------------------


def _per_call_angles(n, sigma_az_deg, sigma_el_deg, rng):
    az_mag = np.abs(rng.normal(0.0, sigma_az_deg, size=n))
    signs = rng.integers(0, 2, size=n) * 2 - 1
    az = wrap_azimuth_deg(signs * az_mag)
    el = clip_elevation_deg(rng.normal(0.0, sigma_el_deg, size=n))
    return az, el


def _per_cluster_assembly(table, lsp_draw, layout, scenario, seed):
    """One namespace per cluster, by id, from per-group arithmetic and
    per-cluster departure angles; with by_user and the denominators."""
    clusters, members = {}, {}
    for group_row, group in enumerate(table.groups):
        for u in group.members:
            members.setdefault(u, []).extend(group.cluster_ids)
        if group.count == 0:
            continue
        rng = group_rng(seed, table.segment_index, group_row)
        if len(group.members) == 1:
            generator = group.members[0]
        else:
            generator = group.members[int(rng.integers(len(group.members)))]
        lsp = lsp_draw.of(generator, table.segment_index)
        delays = gen_delays(group.count, lsp.sigma_tau_s, scenario.r_tau, rng)
        shadow_db = rng.normal(0.0, scenario.shadow_std_db, size=delays.shape)
        r_tau = scenario.r_tau
        p = np.exp(-delays * (r_tau - 1.0) / (r_tau * lsp.sigma_tau_s)) * 10.0 ** (
            -shadow_db / 10.0
        )
        powers = p / p.sum()
        aoa_az, aoa_el = _per_call_angles(group.count, lsp.sigma_aoa_deg, lsp.sigma_eoa_deg, rng)
        for k, cluster_id in enumerate(group.cluster_ids):
            aod_az, aod_el = _per_call_angles(
                layout.array.n_subarrays, lsp.sigma_aod_deg, lsp.sigma_eod_deg, rng
            )
            clusters[cluster_id] = SimpleNamespace(
                cluster_id=cluster_id,
                generating_user=generator,
                tau_s=float(delays[k]),
                power_raw=float(powers[k]),
                aoa_az_deg=float(aoa_az[k]),
                aoa_el_deg=float(aoa_el[k]),
                aod_az_deg=aod_az,
                aod_el_deg=aod_el,
                boresight=bool(delays[k] == 0.0),
            )
    by_user = {u: tuple(sorted(ids)) for u, ids in sorted(members.items())}
    denominator = {
        u: float(sum(clusters[c].power_raw for c in ids)) for u, ids in by_user.items()
    }
    return clusters, by_user, denominator


def _per_cluster_solve(clusters, users, array):
    """(lbs, fbs, e_len, interior) per cluster from a list of clusters and
    their users (n, 3), each row's path from `total_path_length`."""
    ref = array.reference_subarray
    centers = array.subarray_centers
    xyz, pairs = centers.tolist(), zip(clusters, users.tolist())
    d_c = np.array(
        [total_path_length(c.tau_s, x, u) for c, u in pairs for x in xyz]
    ).reshape(len(clusters), -1)
    aod = np.array([(c.aod_az_deg, c.aod_el_deg) for c in clusters])
    aoa = np.array([(c.aoa_az_deg, c.aoa_el_deg) for c in clusters])
    e_len, e_hat, e_degenerate = solve_focal_lengths(
        d_c, users[:, None] - centers, unit_from_angles(aod[:, 0], aod[:, 1])
    )
    lbs_len, g_hat, g_degenerate = solve_focal_lengths(
        d_c[:, ref], centers[ref] - users, unit_from_angles(aoa[:, 0], aoa[:, 1])
    )
    lbs = users + lbs_len[:, None] * g_hat
    g_len = np.array([math.dist(u, b) for u, b in zip(users.tolist(), lbs.tolist())])
    interior = d_c[:, ref] - e_len[:, ref] - g_len
    boresight = np.array([c.boresight for c in clusters])
    fbs = centers + e_len[..., None] * e_hat
    lbs = np.where(boresight[:, None], users, lbs)
    fbs = np.where(boresight[:, None, None], users[:, None], fbs)
    e_len = np.where(boresight[:, None], d_c, e_len)
    interior = np.where(boresight, 0.0, interior).tolist()
    assert not ((e_degenerate.any(axis=1) | g_degenerate) & ~boresight).any()
    return list(zip(lbs, fbs, e_len, interior))


def _assert_view(view, want, label):
    lbs, fbs, e_len, interior = want
    assert np.array_equal(view.lbs, lbs), label
    assert np.array_equal(view.fbs, fbs), label
    assert np.array_equal(view.e_len_m, e_len), label
    assert view.interior_raw_m == interior, label


def test_columns_equal_the_per_cluster_assembly_and_solve():
    configs = [make_random_config(seed) for seed in range(20)]
    configs.append(make_run_config(n_snapshots=20))  # moved kept-parameters owners
    seen = dict.fromkeys(["boresight", "shared", MODE_KEPT_FOCAL, "re-solved", "copied"], 0)
    for n, config in enumerate(configs):
        layout, scenario = config.layout, config.scenario
        lsp_draw = draw_lsp(scenario, layout, config.seed)
        position = layout.segment_start_position
        for seg in run(config).segments:
            cs, index = seg.cluster_set, seg.cluster_set.segment_index
            clusters, by_user, denominator = _per_cluster_assembly(
                seg.share_table, lsp_draw, layout, scenario, config.seed
            )
            label = (n, index)
            # The columns, row by row in ascending id order.
            assert cs.cluster_id.tolist() == sorted(clusters), label
            for name in ClusterRow._fields:
                want = np.array([getattr(clusters[c], name) for c in sorted(clusters)])
                assert np.array_equal(getattr(cs, name), want), (label, name)
            assert cs.by_user == by_user, label
            assert list(cs.power_denominator.items()) == list(denominator.items()), label

            # The generator geometries, one focal solve per segment.
            ordered = [clusters[c] for c in sorted(clusters)]
            users = np.array([position(c.generating_user, index) for c in ordered])
            solved = _per_cluster_solve(ordered, users, layout.array)
            generator = dict(zip(sorted(clusters), solved))
            attached = attach_focal_points(cs, layout)
            for row, (cluster_id, want) in enumerate(generator.items()):
                got = ClusterGeometry._make(column[row] for column in attached)
                _assert_view(got, want, (label, cluster_id))

            # Every owner view: mode, power and focal points.
            for (user, cluster_id), view in seg.views.views.items():
                cluster, key = clusters[cluster_id], (label, user, cluster_id)
                gen_user = cluster.generating_user
                assert view.power == cluster.power_raw / denominator[user], key
                seen["boresight"] += cluster.boresight
                if user == gen_user:
                    assert view.recalc_mode == MODE_GENERATOR, key
                    _assert_view(view, generator[cluster_id], key)
                    continue
                seen["shared"] += 1
                owner = position(user, index)
                lbs = generator[cluster_id][0]
                far = math.dist(lbs, owner) >= 3.0 * layout.segments[index].length_m
                if cluster.boresight or not far:
                    assert view.recalc_mode == MODE_KEPT_FOCAL, key
                    seen[MODE_KEPT_FOCAL] += 1
                    _assert_view(view, generator[cluster_id], key)
                    continue
                assert view.recalc_mode == MODE_KEPT_PARAMETERS, key
                if np.array_equal(owner, position(gen_user, index)):
                    seen["copied"] += 1
                    _assert_view(view, generator[cluster_id], key)
                else:
                    seen["re-solved"] += 1
                    (want,) = _per_cluster_solve([cluster], owner[None], layout.array)
                    _assert_view(view, want, key)
    assert min(seen.values()) >= 5, seen
