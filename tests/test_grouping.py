import math
from itertools import combinations

import numpy as np
import pytest

from auramimo import (
    Aura,
    ComponentTooLarge,
    build_layout,
    build_overlap_graph,
    compute_proportions,
    connected_components,
    grouping,
    linear_track,
    normalize_and_count,
    share_table_for_segment,
    uniform_linear_array,
)
from conftest import make_point_layout


def _auras(centers, radius):
    return {
        u: Aura(center=tuple(c), radius_m=radius) for u, c in centers.items()
    }


def _positions(centers):
    return {u: tuple(c) for u, c in centers.items()}


# ---------------------------------------------------------------------------
# Overlap graph
# ---------------------------------------------------------------------------


def test_overlap_edge_requires_distance_below_diameter():
    auras = _auras({1: (0.0, 0.0, 1.5), 2: (3.9, 0.0, 1.5)}, 2.0)
    g = build_overlap_graph(auras)
    assert g.edges == frozenset({(1, 2)})


def test_overlap_boundary_distance_is_not_an_edge():
    # Exactly 2R apart: circles touch but do not overlap.
    auras = _auras({1: (0.0, 0.0, 1.5), 2: (4.0, 0.0, 1.5)}, 2.0)
    g = build_overlap_graph(auras)
    assert g.edges == frozenset()


def test_overlap_ignores_height_difference():
    auras = _auras({1: (0.0, 0.0, 0.0), 2: (3.0, 0.0, 50.0)}, 2.0)
    g = build_overlap_graph(auras)
    assert (1, 2) in g.edges


def test_overlap_requires_identical_radii():
    auras = {
        1: Aura(center=(0.0, 0.0, 0.0), radius_m=2.0),
        2: Aura(center=(1.0, 0.0, 0.0), radius_m=3.0),
    }
    with pytest.raises(ValueError):
        build_overlap_graph(auras)


def test_components_chain_merges():
    auras = _auras(
        {
            1: (0.0, 0.0, 0.0),
            2: (3.0, 0.0, 0.0),
            3: (6.0, 0.0, 0.0),
            4: (100.0, 0.0, 0.0),
        },
        2.0,
    )
    comps = connected_components(build_overlap_graph(auras))
    assert list(comps) == [(1, 2, 3), (4,)]


def _closure_components(centers, radius):
    """Oracle: reachability via boolean matrix squaring of the adjacency."""
    ids = sorted(centers)
    n = len(ids)
    pts = np.array([centers[u][:2] for u in ids])
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    adj = (d < 2 * radius) | np.eye(n, dtype=bool)
    reach = adj
    for _ in range(int(math.ceil(math.log2(max(n, 2)))) + 1):
        reach = reach | (reach @ reach)
    seen = set()
    comps = []
    for i in range(n):
        if i in seen:
            continue
        members = tuple(ids[j] for j in range(n) if reach[i, j])
        seen.update(j for j in range(n) if reach[i, j])
        comps.append(members)
    return sorted(comps, key=lambda c: c[0])


def test_components_match_transitive_closure_oracle():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        centers = {
            u + 1: (float(x), float(y), 1.5)
            for u, (x, y) in enumerate(rng.uniform(0, 40, size=(n, 2)))
        }
        radius = float(rng.uniform(1.0, 8.0))
        got = connected_components(build_overlap_graph(_auras(centers, radius)))
        assert list(got) == _closure_components(centers, radius)


# ---------------------------------------------------------------------------
# Proportions
# ---------------------------------------------------------------------------


def test_pair_proportion_linear_in_distance():
    # Users at distance d share p = 1 - (d/2)/R for d < 2R.
    radius = 4.0
    expected = {0.0: 1.0, 2.0: 0.75, 4.0: 0.5, 6.0: 0.25}
    for d, p in expected.items():
        pos = _positions({1: (0.0, 0.0, 1.5), 2: (d, 0.0, 1.5)})
        raw = compute_proportions((1, 2), pos, radius)
        assert raw[(1, 2)] == p  # exact: d/2 and R are powers of two
        assert raw[(1,)] == 1.0 - p
        assert raw[(2,)] == 1.0 - p


def test_pair_at_diameter_shares_nothing():
    pos = _positions({1: (0.0, 0.0, 1.5), 2: (8.0, 0.0, 1.5)})
    raw = compute_proportions((1, 2), pos, 4.0)
    assert (1, 2) not in raw
    assert raw[(1,)] == 1.0 and raw[(2,)] == 1.0


def test_three_coincident_users_trace():
    # All at one point: triple gets 1, pairs keep 0.5, singletons go to -1.
    pos = _positions({u: (5.0, 5.0, 1.5) for u in (1, 2, 3)})
    raw = compute_proportions((1, 2, 3), pos, 3.0)
    assert raw[(1, 2, 3)] == 1.0
    for pair in [(1, 2), (1, 3), (2, 3)]:
        assert raw[pair] == 0.5
    for single in [(1,), (2,), (3,)]:
        assert raw[single] == -1.0


def test_centroid_gate_blocks_wide_subset():
    # 1-2 and 2-3 overlap, but the 1-3 pair and the triple fail the
    # within-one-radius-of-centroid test, so only adjacent pairs share.
    R = 4.0
    pos = _positions({1: (0.0, 0.0, 1.5), 2: (7.0, 0.0, 1.5), 3: (14.0, 0.0, 1.5)})
    raw = compute_proportions((1, 2, 3), pos, R)
    assert (1, 2) in raw and (2, 3) in raw
    assert (1, 3) not in raw
    assert (1, 2, 3) not in raw
    assert raw[(1, 2)] == pytest.approx(1.0 - 3.5 / R)
    # 2 pays into both pairs.
    assert raw[(2,)] == pytest.approx(1.0 - 2 * (1.0 - 3.5 / R))


def test_triple_debits_come_from_raw_proportion():
    # Equilateral triangle, side s: every pair has md = s/2, the triple
    # has md = s/sqrt(3).  The triple's debit hits the pairs only.
    R = 4.0
    s = 3.0
    pos = _positions(
        {
            1: (0.0, 0.0, 1.5),
            2: (s, 0.0, 1.5),
            3: (s / 2, s * math.sqrt(3) / 2, 1.5),
        }
    )
    raw = compute_proportions((1, 2, 3), pos, R)
    p3 = 1.0 - (s / math.sqrt(3)) / R
    p2_raw = 1.0 - (s / 2) / R
    assert raw[(1, 2, 3)] == pytest.approx(p3, abs=1e-12)
    for pair in [(1, 2), (1, 3), (2, 3)]:
        assert raw[pair] == pytest.approx(p2_raw - p3 / 2, abs=1e-12)
    assert raw[(1,)] == pytest.approx(1.0 - 2 * p2_raw, abs=1e-12)


def test_component_cap():
    pos = _positions({u: (0.0, 0.0, 1.5) for u in range(1, 22)})
    with pytest.raises(ComponentTooLarge):
        compute_proportions(tuple(range(1, 22)), pos, 3.0)


def _reference_proportions(component, positions, radius_m):
    """Exhaustive reference: tests every subset of the component, in
    `combinations` order, with the same arithmetic as the huddle test."""
    members = tuple(sorted(component))
    proportions = {(u,): 1.0 for u in members}
    for size in range(2, len(members) + 1):
        for subset in combinations(members, size):
            pts = np.array([[positions[u][0], positions[u][1]] for u in subset])
            dists = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
            md, far = float(dists.mean()), float(dists.max())
            if far >= radius_m:
                continue
            p = 1.0 - md / radius_m
            proportions[subset] = proportions.get(subset, 0.0) + p
            debit = p / (size - 1)
            for sub in combinations(subset, size - 1):
                proportions[sub] = proportions.get(sub, 0.0) - debit
    return proportions


def _oracle_layout(rng, kind, n, radius):
    if kind == "scatter":
        return rng.uniform(0.0, 6.0 * radius, size=(n, 2))
    if kind == "coincident":
        # A few distinct spots, several users on each.
        spots = rng.uniform(0.0, 3.0 * radius, size=(max(1, n // 3), 2))
        return spots[rng.integers(0, len(spots), size=n)]
    if kind == "collinear":
        t = rng.uniform(0.0, 5.0 * radius, size=n)
        angle = rng.uniform(0.0, math.pi)
        return np.stack([t * math.cos(angle), t * math.sin(angle)], axis=1)
    if kind == "rim":
        # A random walk of steps at or just under 2r: pairs on the edge of
        # the 2r limit, some of which pass the centroid test by rounding.
        shrink = 1.0 - rng.choice([0.0, 1e-12, 1e-4], size=n)
        angle = rng.uniform(0.0, 2.0 * math.pi, size=n)
        steps = 2.0 * radius * shrink[:, None] * np.stack([np.cos(angle), np.sin(angle)], 1)
        return rng.uniform(0.0, 30.0, size=2) + np.cumsum(steps, axis=0)
    # "grid": integer multiples of r, so many pairs sit exactly 2r apart.
    return rng.integers(0, 5, size=(n, 2)) * radius


def test_clique_enumeration_matches_exhaustive_reference():
    # Same values and same dict order: normalize_and_count sums the loads
    # in insertion order, so both matter for byte-identical tables.
    rng = np.random.default_rng(2026)
    kinds = ("scatter", "coincident", "collinear", "grid", "rim")
    for trial in range(250):
        n = int(rng.integers(1, 13))
        radius = float(rng.choice([0.5, 1.5, 2.0, 3.0, 4.0, 5.0, 7.25]))
        pts = _oracle_layout(rng, kinds[trial % len(kinds)], n, radius)
        # Sparse ids, so that set iteration order differs from id order.
        ids = [int(u) for u in rng.choice(100_000, size=n, replace=False)]
        positions = {u: (float(x), float(y), 1.5) for u, (x, y) in zip(ids, pts)}
        component = tuple(ids)
        got = compute_proportions(component, positions, radius)
        want = _reference_proportions(component, positions, radius)
        assert list(got.items()) == list(want.items()), (trial, n, radius)


def _centroid_and_mean_distance(subset, xy):
    # The per-subset huddle arithmetic that the per-size pass replaced.
    pts = np.array([xy[u] for u in subset])
    dists = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
    return float(dists.mean()), float(dists.max())


def test_centroid_distances_per_size_equal_the_per_subset_helper():
    # Every clique size up to the largest allowed: the (S, N, 2) pass must
    # round each subset's mean and maximum exactly as one subset at a time.
    rng = np.random.default_rng(2027)
    n_users = grouping.MAX_CLIQUE_USERS
    for trial in range(40):
        scale = 10.0 ** rng.uniform(-3.0, 4.0)
        pts = rng.uniform(-1.0, 1.0, size=(n_users, 2)) * scale + rng.uniform(-1e4, 1e4, 2)
        if trial % 4 == 0:
            pts[: n_users // 2] = pts[0]  # coincident members
        xy = dict(enumerate(pts.tolist()))
        for size in range(2, n_users + 1):
            draws = [rng.choice(n_users, size, replace=False) for _ in range(8)]
            subsets = sorted({tuple(sorted(d.tolist())) for d in draws})
            mean, far = grouping._centroid_distances(pts[np.array(subsets)])
            want = [_centroid_and_mean_distance(s, xy) for s in subsets]
            assert list(zip(mean, far)) == want, (trial, size)


def test_huddle_chunks_do_not_change_proportions(monkeypatch):
    # Cliques are tested a bounded chunk at a time; chunks of 1 and 5 (a
    # size's cliques split across passes, a short last chunk) give the same
    # values in the same dict order as one pass per size.
    rng = np.random.default_rng(2028)
    for trial in range(60):
        n = int(rng.integers(2, 11))
        radius = float(rng.choice([1.5, 3.0, 5.0]))
        pts = _oracle_layout(rng, ("scatter", "coincident", "grid")[trial % 3], n, radius)
        positions = {u: (float(x), float(y), 1.5) for u, (x, y) in enumerate(pts)}
        want = list(compute_proportions(tuple(positions), positions, radius).items())
        for chunk in (1, 5):
            monkeypatch.setattr(grouping, "HUDDLE_CHUNK", chunk)
            got = compute_proportions(tuple(positions), positions, radius)
            assert list(got.items()) == want, (trial, chunk)
        monkeypatch.undo()


def test_pair_kept_by_rounding_at_2r_is_enumerated():
    # A pair 2r apart whose rounded centroid distances fall just below r
    # while its rounded pair distance is not below 2r: the old exhaustive
    # scan kept it, so the clique graph must contain it too.
    rng = np.random.default_rng(5)
    for _ in range(100_000):
        radius = float(rng.choice([0.5, 1.5, 3.0, 5.0, 7.25]))
        a = rng.uniform(0.0, 30.0, size=2)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        b = a + 2.0 * radius * np.array([math.cos(angle), math.sin(angle)])
        positions = {1: (*a, 1.5), 2: (*b, 1.5)}
        want = _reference_proportions((1, 2), positions, radius)
        if (1, 2) in want and np.linalg.norm(a - b) >= 2.0 * radius:
            break
    else:
        pytest.fail("no rounding case found")
    assert list(compute_proportions((1, 2), positions, radius).items()) == list(want.items())


def test_long_sparse_line_is_not_capped():
    # 40 users 3 m apart with r = 5 m: one 40-user component whose largest
    # clique (users pairwise closer than 10 m) has 4 members.
    layout = make_point_layout(
        {u: (20.0 + 3.0 * u, 0.0, 1.5) for u in range(40)}, stationarity_m=5.0
    )
    auras = {u: layout.aura_of(u, 0) for u in layout.user_ids}
    assert connected_components(build_overlap_graph(auras)) == (tuple(range(40)),)
    table = share_table_for_segment(layout, 0, 7)
    assert table.users == tuple(range(40))
    for u in table.users:
        assert sum(g.count for g in table.groups if u in g.members) == 7
    assert max(len(g.members) for g in table.groups) <= 4


@pytest.fixture
def no_huddle_test(monkeypatch):
    def fail(points):
        raise AssertionError(f"huddle test ran for {len(points)} cliques before the cap")

    monkeypatch.setattr(grouping, "_centroid_distances", fail)


def test_clique_cap_raises_before_any_huddle_test(no_huddle_test):
    pos = _positions({u: (0.0, 0.0, 1.5) for u in range(1, 22)})
    with pytest.raises(ComponentTooLarge, match="clique"):
        compute_proportions(tuple(range(1, 22)), pos, 3.0)


def test_clique_count_cap_raises_before_any_huddle_test(no_huddle_test):
    # 25 users 0.55 m apart with r = 5 m: no clique has more than 19 users,
    # but there are more cliques than one 20-user clique has.
    pos = _positions({u: (0.55 * u, 0.0, 1.5) for u in range(25)})
    with pytest.raises(ComponentTooLarge, match="clique"):
        compute_proportions(tuple(range(25)), pos, 5.0)


def test_clique_count_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        close = np.triu(rng.random((n, n)) < rng.uniform(0.2, 0.9), 1)
        later = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in close]
        cliques = [
            c
            for k in range(2, n + 1)
            for c in combinations(range(n), k)
            if all(close[i, j] for i, j in combinations(c, 2))
        ]
        assert grouping._clique_count(later, 10**6) == len(cliques)
        if cliques:
            assert grouping._clique_count(later, len(cliques) - 1) >= len(cliques)


def test_clique_cap_admits_one_full_clique_of_the_largest_size():
    n = grouping.MAX_CLIQUE_USERS
    later = [((1 << n) - 1) >> (i + 1) << (i + 1) for i in range(n)]
    assert grouping._clique_count(later, grouping.MAX_CLIQUES) == grouping.MAX_CLIQUES


# ---------------------------------------------------------------------------
# Normalization and counts
# ---------------------------------------------------------------------------


def _by_members(table):
    return {g.members: g for g in table.groups}


def test_counts_for_half_shared_pair():
    table = normalize_and_count({(1, 2): 0.5}, 7)
    groups = _by_members(table)
    assert groups[(1, 2)].count == 3
    assert groups[(1,)].count == 4
    assert groups[(2,)].count == 4


def test_counts_three_coincident():
    raw = {
        (1, 2, 3): 1.0,
        (1, 2): 0.5,
        (1, 3): 0.5,
        (2, 3): 0.5,
        (1,): -1.0,
        (2,): -1.0,
        (3,): -1.0,
    }
    table = normalize_and_count(raw, 7)
    groups = _by_members(table)
    # Load per user is 1.0 + 2 * 0.5 = 2.0, so every group scales by 1/2.
    assert groups[(1, 2, 3)].count == 3  # floor(0.5 * 7)
    assert groups[(1, 2)].count == 1  # floor(0.25 * 7)
    assert groups[(1,)].count == 7 - 3 - 1 - 1


def test_floor_uses_tiny_nudge():
    # 0.3 * 10 is 2.9999999999999996 in binary floating point; the
    # intended count is 3.
    table = normalize_and_count({(1, 2): 0.3}, 10)
    groups = _by_members(table)
    assert groups[(1, 2)].count == 3
    assert groups[(1,)].count == 7


def test_fully_shared_pair_has_empty_singletons():
    table = normalize_and_count({(1, 2): 1.0, (1,): 0.0, (2,): 0.0}, 7)
    groups = _by_members(table)
    assert groups[(1, 2)].count == 7
    assert groups[(1,)].count == 0
    assert groups[(2,)].count == 0


def test_cluster_ids_contiguous_from_base():
    table = normalize_and_count({(1, 2): 0.5}, 7, id_base=100)
    ids = [i for g in table.groups for i in g.cluster_ids]
    assert sorted(ids) == list(range(100, 100 + len(ids)))


def test_conservation_random_tables():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        centers = {
            u + 1: (float(x), float(y), 1.5)
            for u, (x, y) in enumerate(rng.uniform(0, 25, size=(n, 2)))
        }
        radius = float(rng.uniform(2.0, 9.0))
        total = int(rng.integers(1, 30))
        per_user = {u: 0 for u in centers}
        for comp in connected_components(build_overlap_graph(_auras(centers, radius))):
            raw = compute_proportions(comp, _positions(centers), radius)
            # ShareTable construction itself checks conservation; count by
            # hand anyway so a silent constructor change cannot hide it.
            for g in normalize_and_count(raw, total).groups:
                for u in g.members:
                    per_user[u] += g.count
        assert all(c == total for c in per_user.values())


# ---------------------------------------------------------------------------
# Whole-segment table
# ---------------------------------------------------------------------------


def test_share_table_segment_smoke():
    layout = make_point_layout(
        {1: (20.0, 0.0, 1.5), 2: (22.0, 0.0, 1.5), 3: (80.0, 0.0, 1.5)},
        stationarity_m=5.0,
    )
    table = share_table_for_segment(layout, 0, 7)
    assert table.users == (1, 2, 3)
    assert sum(len(g.cluster_ids) for g in table.groups if 3 in g.members) == 7
    shared = [g for g in table.groups if len(g.members) > 1]
    assert shared and shared[0].members == (1, 2)
    # p = 1 - 1/5 = 0.8 -> floor(5.6) = 5 shared clusters.
    assert shared[0].count == 5
    for cid in shared[0].cluster_ids:
        assert [g.members for g in table.groups if cid in g.cluster_ids] == [(1, 2)]


def test_share_table_scale_invariance():
    # Scaling all distances and the radius by 4 leaves proportions alone.
    base = {1: (0.0, 0.0, 1.5), 2: (3.0, 1.0, 1.5), 3: (5.0, 4.0, 1.5)}
    big = {u: (4 * x, 4 * y, z) for u, (x, y, z) in base.items()}
    t1 = share_table_for_segment(
        make_point_layout(base, stationarity_m=4.0), 0, 9
    )
    t2 = share_table_for_segment(
        make_point_layout(big, stationarity_m=16.0), 0, 9
    )
    p1 = {g.members: g.proportion for g in t1.groups}
    p2 = {g.members: g.proportion for g in t2.groups}
    assert set(p1) == set(p2)
    for members, p in p1.items():
        assert p2[members] == pytest.approx(p, abs=1e-12)
    assert {g.members: g.count for g in t1.groups} == {
        g.members: g.count for g in t2.groups
    }


def test_share_table_independent_of_track_order():
    starts = {1: (20.0, 0.0, 1.5), 2: (22.0, 0.0, 1.5), 3: (24.0, 0.0, 1.5)}
    elements = uniform_linear_array(8, 0.05, (0.0, 0.0, 10.0))

    def table(track_order):
        tracks = [
            linear_track(u, starts[u], 0.0, 1, 0.5) for u in track_order
        ]
        layout = build_layout(
            tracks, elements, stationarity_user_m=5.0, bs_stationarity_m=10.0
        )
        return share_table_for_segment(layout, 0, 7)

    t_fwd, t_rev = table([1, 2, 3]), table([3, 2, 1])
    assert [(g.members, g.count, g.cluster_ids) for g in t_fwd.groups] == [
        (g.members, g.count, g.cluster_ids) for g in t_rev.groups
    ]


def test_monotone_sharing_with_distance():
    # Closer users never share fewer clusters.
    prev = None
    for d in [0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0]:
        layout = make_point_layout(
            {1: (20.0, 0.0, 1.5), 2: (20.0 + d, 0.0, 1.5)}, stationarity_m=5.0
        )
        table = share_table_for_segment(layout, 0, 20)
        shared = sum(g.count for g in table.groups if len(g.members) == 2)
        if prev is not None:
            assert shared <= prev
        prev = shared
