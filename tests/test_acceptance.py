"""Release acceptance gate.

Twelve numbered criteria, each printed as one visible pass/fail line on
the terminal reporter as it completes:

    [acceptance] 01 proportion-law: PASS

A FAIL line appears before the failing test's traceback. The whole gate
is self-contained (it builds its own configs) and runs well under a
minute.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from auramimo import (
    Aura,
    OwnerView,
    assemble_clusters,
    attach_focal_points,
    build_overlap_graph,
    compute_proportions,
    connected_components,
    draw_lsp,
    normalize_and_count,
    parse_config,
    planar_vs_spherical_error,
    read_tensor_binary,
    share_table_for_segment,
    solve_focal_lengths,
)
from auramimo.clustergen import Cluster, ClusterGeometry
from auramimo.pipeline import run, write_outputs
from auramimo.tables import param_header
from auramimo.sharing import (
    MODE_KEPT_FOCAL,
    MODE_KEPT_PARAMETERS,
    choose_recalc_mode,
    recalc_kept_focal_point,
    recalc_kept_parameters,
    share_clusters,
)
from conftest import make_point_layout, make_scenario

AURA_RADIUS_M = 5.0  # stationarity interval used throughout the gate

SCENARIO = {
    "delay_spread_median_s": 1e-7,
    "delay_spread_log_std": 0.3,
    "aoa_spread_median_deg": 40.0,
    "aoa_spread_log_std": 0.2,
    "aod_spread_median_deg": 20.0,
    "aod_spread_log_std": 0.2,
    "eoa_spread_median_deg": 5.0,
    "eoa_spread_log_std": 0.2,
    "eod_spread_median_deg": 3.0,
    "eod_spread_log_std": 0.2,
    "shadow_std_db": 3.0,
    "r_tau": 2.5,
    "clusters_per_user": 7,
    "carrier_hz": 3.5e9,
    "correlation_distance_m": 50.0,
    "cluster_angle_spread_deg": 3.0,
}


def two_user_config(
    separation_m: float,
    seed: int,
    *,
    n_elements: int = 64,
    n_snapshots: int = 1,
):
    raw = {
        "seed": seed,
        "scenario": dict(SCENARIO),
        "layout": {
            "stationarity_user_m": AURA_RADIUS_M,
            "bs_stationarity_m": 0.8,
            "array": {
                "n_elements": n_elements,
                "spacing_m": 0.05,
                "origin_m": [0.0, 0.0, 10.0],
            },
            "users": [
                {
                    "user_id": 1,
                    "start_m": [30.0, 0.0, 1.5],
                    "heading_deg": 90.0,
                    "n_snapshots": n_snapshots,
                    "snapshot_spacing_m": 0.5,
                },
                {
                    "user_id": 2,
                    "start_m": [30.0 + separation_m, 0.0, 1.5],
                    "heading_deg": 90.0,
                    "n_snapshots": n_snapshots,
                    "snapshot_spacing_m": 0.5,
                },
            ],
        },
    }
    return parse_config(raw)


def mean_pair_correlation(separation_m: float, seeds) -> float:
    vals = [
        run(two_user_config(separation_m, seed)).metrics.pair_correlation_mean[(1, 2)]
        for seed in seeds
    ]
    return float(np.mean(vals))


@pytest.fixture
def check(pytestconfig):
    reporter = pytestconfig.pluginmanager.get_plugin("terminalreporter")

    def emit(line: str) -> None:
        if reporter is not None:
            reporter.write_line(line)
        else:  # pragma: no cover - plugin disabled
            print(line)

    @contextmanager
    def _criterion(number: int, label: str):
        try:
            yield
        except BaseException:
            emit(f"[acceptance] {number:02d} {label}: FAIL")
            raise
        emit(f"[acceptance] {number:02d} {label}: PASS")

    return _criterion


# ---------------------------------------------------------------------------
# 1. Two-user proportion law
# ---------------------------------------------------------------------------


def test_c01_proportion_law(check):
    with check(1, "proportion-law"):
        radius = 4.0
        for d, expected in [(0.0, 1.0), (2.0, 0.75), (4.0, 0.5), (6.0, 0.25), (8.0, 0.0)]:
            positions = {1: (0.0, 0.0, 1.5), 2: (d, 0.0, 1.5)}
            auras = {u: Aura(p, radius) for u, p in positions.items()}
            components = connected_components(build_overlap_graph(auras))
            if d < 2 * radius:
                assert components == ((1, 2),)
                raw = compute_proportions((1, 2), positions, radius)
            else:
                # auras no longer overlap: the pair is never formed
                assert components == ((1,), (2,))
                raw = compute_proportions((1,), {1: positions[1]}, radius)
            assert abs(raw.get((1, 2), 0.0) - expected) <= 1e-12


# ---------------------------------------------------------------------------
# 2. Exact per-user cluster-count conservation
# ---------------------------------------------------------------------------


def test_c02_count_conservation(check):
    with check(2, "count-conservation"):
        rng = np.random.default_rng(202)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            positions = {
                u + 1: (float(x), float(y), 1.5)
                for u, (x, y) in enumerate(rng.uniform(0.0, 30.0, size=(n, 2)))
            }
            radius = float(rng.uniform(2.0, 9.0))
            total = int(rng.integers(1, 30))
            auras = {u: Aura(p, radius) for u, p in positions.items()}
            per_user = {u: 0 for u in positions}
            for comp in connected_components(build_overlap_graph(auras)):
                raw = compute_proportions(comp, positions, radius)
                for group in normalize_and_count(raw, total).groups:
                    for u in group.members:
                        per_user[u] += group.count
            assert all(count == total for count in per_user.values())


# ---------------------------------------------------------------------------
# 3. Connected components against a transitive-closure oracle
# ---------------------------------------------------------------------------


def test_c03_components_oracle(check):
    with check(3, "components-oracle"):
        rng = np.random.default_rng(303)
        n = 12
        for _ in range(1000):
            xy = rng.uniform(0.0, 40.0, size=(n, 2))
            radius = float(rng.uniform(1.0, 8.0))
            auras = {
                u + 1: Aura((float(x), float(y), 1.5), radius)
                for u, (x, y) in enumerate(xy)
            }
            got = {frozenset(c) for c in connected_components(build_overlap_graph(auras))}

            dist = np.hypot(
                xy[:, 0][:, None] - xy[:, 0][None, :],
                xy[:, 1][:, None] - xy[:, 1][None, :],
            )
            reach = (dist < 2 * radius) | np.eye(n, dtype=bool)
            for _ in range(4):  # 2^4 >= n, so the closure is complete
                reach = reach @ reach
            expected = {frozenset(np.flatnonzero(row) + 1) for row in reach}
            assert got == expected


# ---------------------------------------------------------------------------
# 4. Focal-point closure and bisection oracle
# ---------------------------------------------------------------------------


def _focal(apos, user, e_hat, d_c):
    """One departure solve (solve_focal_lengths with A = 1), which must
    not be degenerate: the anchor-to-bounce length and the bounce point."""
    e_len, unit, degenerate = solve_focal_lengths(
        np.array([d_c]), np.subtract(user, apos)[None], np.asarray(e_hat)[None]
    )
    assert not degenerate[0]
    return float(e_len[0]), np.add(apos, e_len[0] * unit[0])


def test_c04_focal_closure(check):
    with check(4, "focal-closure"):
        # Worked cases: anchor at origin, user 10 m along +x, 20 m total.
        apos = (0.0, 0.0, 0.0)
        user = (10.0, 0.0, 0.0)
        perp, _ = _focal(apos, user, np.array([0.0, 1.0, 0.0]), 20.0)
        assert perp == pytest.approx(7.5, rel=1e-12)
        through, _ = _focal(apos, user, np.array([1.0, 0.0, 0.0]), 20.0)
        assert through == pytest.approx(15.0, rel=1e-12)

        rng = np.random.default_rng(404)
        count = 10_000
        anchors = rng.uniform([-50, -50, 0], [50, 50, 30], size=(count, 3))
        users = rng.uniform([-50, -50, 0], [50, 50, 3], size=(count, 3))
        az = np.radians(rng.uniform(-180.0, 180.0, size=count))
        el = np.radians(rng.uniform(-89.0, 89.0, size=count))
        e_hat = np.stack(
            [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=1
        )
        d_c = rng.uniform(1e-9, 1e-6, size=count) * 299_792_458.0 + np.linalg.norm(
            users - anchors, axis=1
        )

        lo = np.zeros_like(d_c)
        hi = d_c.copy()
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            f = mid + np.linalg.norm(anchors + mid[:, None] * e_hat - users, axis=1) - d_c
            hi = np.where(f >= 0, mid, hi)
            lo = np.where(f < 0, mid, lo)
        oracle = 0.5 * (lo + hi)

        for i in range(count):
            a = anchors[i]
            u = users[i]
            e_len, focal = _focal(a, u, e_hat[i], float(d_c[i]))
            closure = e_len + math.dist(focal, u)
            assert abs(closure - d_c[i]) / d_c[i] <= 1e-9
            assert abs(e_len - oracle[i]) <= 1e-6


# ---------------------------------------------------------------------------
# 5. Cluster parameter counts for every sub-array split
# ---------------------------------------------------------------------------


def test_c05_parameter_count(check):
    with check(5, "parameter-count"):
        for n_subarrays, n_elements in [(1, 16), (2, 32), (4, 64), (8, 128)]:
            config = two_user_config(3.0, seed=5, n_elements=n_elements)
            layout = config.layout
            assert layout.array.n_subarrays == n_subarrays
            lsp = draw_lsp(config.scenario, layout, config.seed)
            table = share_table_for_segment(layout, 0, config.total_clusters_per_user)
            clusters = assemble_clusters(table, lsp, layout, config.scenario, config.seed)
            assert clusters.clusters
            for cluster in clusters.clusters.values():
                assert len(cluster.aod_az_deg) == len(cluster.aod_el_deg) == n_subarrays
            clusters = attach_focal_points(clusters, layout, lsp, config.seed)
            for cluster in clusters.clusters.values():
                assert len(cluster.aod_az_deg) == len(cluster.geometry.fbs) == n_subarrays
            # Table columns: 4 + 2A scalars (delay, power, AoA az/el, AoD
            # az/el per sub-array), then the LBS and A FBS positions.
            columns = param_header(n_subarrays).split("\t")
            n_scalars = 4 + 2 * n_subarrays
            scalars, positions = columns[:n_scalars], columns[n_scalars:]
            assert not any(c.endswith(("_x_m", "_y_m", "_z_m")) for c in scalars)
            points = ["lbs"] + [f"fbs{a}" for a in range(n_subarrays)]
            assert positions == [f"{p}_{c}_m" for p in points for c in "xyz"]
            assert len(scalars) + len(points) == 5 + 3 * n_subarrays


# ---------------------------------------------------------------------------
# 6. Co-location limit
# ---------------------------------------------------------------------------


def test_c06_colocation_limit(check, tmp_path):
    with check(6, "co-location-limit"):
        config = two_user_config(0.0, seed=6, n_elements=32, n_snapshots=4)
        result = run(config)
        paths = write_outputs(result, tmp_path / "out")
        assert (
            paths["clusters_user1"].read_bytes() == paths["clusters_user2"].read_bytes()
        )
        np.testing.assert_array_equal(
            result.tensor.coefficients[0], result.tensor.coefficients[1]
        )
        np.testing.assert_array_equal(result.tensor.delays[0], result.tensor.delays[1])
        assert abs(result.metrics.pair_correlation_mean[(1, 2)] - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# 7. Separation limit
# ---------------------------------------------------------------------------


def test_c07_separation_limit(check):
    with check(7, "separation-limit"):
        separation = 4 * AURA_RADIUS_M  # well beyond the 2R overlap reach
        correlations = []
        for seed in range(100):
            result = run(two_user_config(separation, seed))
            table = result.segments[0].share_table
            ids_1 = set(table.clusters_of_user(1))
            ids_2 = set(table.clusters_of_user(2))
            assert ids_1 and ids_2 and ids_1.isdisjoint(ids_2)
            correlations.append(result.metrics.pair_correlation_mean[(1, 2)])
        assert float(np.mean(correlations)) < 0.15


# ---------------------------------------------------------------------------
# 8. Monotone correlation vs separation
# ---------------------------------------------------------------------------


def test_c08_monotone_consistency(check):
    with check(8, "monotone-consistency"):
        R = AURA_RADIUS_M
        seeds = range(100)
        means = [mean_pair_correlation(sep, seeds) for sep in (0.0, R / 2, R, 2 * R, 4 * R)]
        assert means[0] == pytest.approx(1.0, abs=1e-12)
        inversions = [
            later - earlier
            for earlier, later in zip(means, means[1:])
            if later > earlier
        ]
        assert len(inversions) <= 1
        assert all(gap <= 0.03 for gap in inversions)


# ---------------------------------------------------------------------------
# 9. Per-sub-array departure angles witness non-stationarity
# ---------------------------------------------------------------------------


def test_c09_per_subarray_angles(check):
    with check(9, "per-subarray-angles"):
        for seed in range(100):
            config = two_user_config(3.0, seed, n_elements=64)
            layout = config.layout
            lsp = draw_lsp(config.scenario, layout, seed)
            table = share_table_for_segment(layout, 0, config.total_clusters_per_user)
            clusters = assemble_clusters(table, lsp, layout, config.scenario, seed)
            for cluster in clusters.clusters.values():
                assert np.unique(cluster.aod_az_deg).size == 4

        # A single stationarity-sized array collapses to one angle per cluster.
        config = two_user_config(3.0, seed=9, n_elements=16)
        layout = config.layout
        assert layout.array.n_subarrays == 1
        lsp = draw_lsp(config.scenario, layout, 9)
        table = share_table_for_segment(layout, 0, config.total_clusters_per_user)
        clusters = assemble_clusters(table, lsp, layout, config.scenario, 9)
        for cluster in clusters.clusters.values():
            assert cluster.aod_az_deg.shape == (1,)


# ---------------------------------------------------------------------------
# 10. Spherical vs planar steering across distance
# ---------------------------------------------------------------------------


def _broadside_view(layout, distance_m):
    subs = layout.array.subarrays
    center = subs[0].center
    fbs = np.array([(center[0], distance_m, center[2]) for _ in subs])
    e_len = np.array([math.dist(s.center, f) for s, f in zip(subs, fbs)])
    return OwnerView(
        user_id=1,
        cluster_id=0,
        recalc_mode="generator",
        delay_s=1e-7,
        power=1.0,
        aoa_az_deg=0.0,
        aoa_el_deg=0.0,
        aod_az_deg=np.zeros(len(subs)),
        aod_el_deg=np.zeros(len(subs)),
        lbs=np.array([20.0, 0.0, 1.5]),
        fbs=fbs,
        e_len_m=e_len,
        interior_raw_m=5.0,
        boresight=False,
    )


def test_c10_spherical_limit(check):
    with check(10, "spherical-limit"):
        # One 1 m sub-array (21 elements, 5 cm pitch) at 3.5 GHz.
        layout = make_point_layout(
            {1: (20.0, 0.0, 1.5)},
            AURA_RADIUS_M,
            n_elements=21,
            element_spacing_m=0.05,
            bs_stationarity_m=1.1,
        )
        assert layout.array.n_subarrays == 1
        far = planar_vs_spherical_error(
            _broadside_view(layout, 1e6), layout, carrier_hz=3.5e9
        )
        near = planar_vs_spherical_error(
            _broadside_view(layout, 2.0), layout, carrier_hz=3.5e9
        )
        assert far[0] < 1e-3
        assert near[0] > 0.5


# ---------------------------------------------------------------------------
# 11. Recalculation fixed point and mode threshold
# ---------------------------------------------------------------------------


def test_c11_recalc_fixed_point(check):
    with check(11, "recalc-fixed-point"):
        config = two_user_config(3.0, seed=11, n_elements=32)
        layout = config.layout
        lsp = draw_lsp(config.scenario, layout, config.seed)
        table = share_table_for_segment(layout, 0, config.total_clusters_per_user)
        clusters = assemble_clusters(table, lsp, layout, config.scenario, config.seed)
        clusters = attach_focal_points(clusters, layout, lsp, config.seed)
        views = share_clusters(clusters, layout)

        shared = [c for c in clusters.clusters.values() if len(c.owner_set) == 2]
        assert shared
        for cluster in shared:
            generator_view = views.views[(cluster.generating_user, cluster.cluster_id)]
            owner_pos = layout.segment_start_position(cluster.generating_user, 0)
            for fn in (recalc_kept_parameters, recalc_kept_focal_point):
                view = fn(cluster, 99, owner_pos, layout, generator_view.power)
                assert view.delay_s == generator_view.delay_s
                assert view.aoa_az_deg == generator_view.aoa_az_deg
                assert view.aoa_el_deg == generator_view.aoa_el_deg
                assert np.array_equal(view.aod_az_deg, generator_view.aod_az_deg)
                assert np.array_equal(view.aod_el_deg, generator_view.aod_el_deg)
                assert np.array_equal(view.lbs, generator_view.lbs)
                assert np.array_equal(view.fbs, generator_view.fbs)
                assert np.array_equal(view.e_len_m, generator_view.e_len_m)

        # The mode flips exactly at three segment lengths, strict below.
        segment_length = 5.0
        owner = (0.0, 0.0, 1.5)
        probe = Cluster(
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
            geometry=ClusterGeometry(
                np.array([3 * segment_length, 0.0, 1.5]),
                np.zeros((0, 3)),
                np.zeros(1),
                0.0,
            ),
        )
        assert choose_recalc_mode(probe, owner, segment_length) == MODE_KEPT_PARAMETERS
        inside = np.array([3 * segment_length - 1e-9, 0.0, 1.5])
        probe = replace(probe, geometry=probe.geometry._replace(lbs=inside))
        assert choose_recalc_mode(probe, owner, segment_length) == MODE_KEPT_FOCAL


# ---------------------------------------------------------------------------
# 12. Determinism across runs and synthesis thread counts
# ---------------------------------------------------------------------------

BLAS_CAPS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _cli_run(config_path, out_dir, **blas_caps):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_CAPS}
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "auramimo.cli",
            "run",
            "--config",
            str(config_path),
            "--seed",
            "42",
            "--out-dir",
            str(out_dir),
        ],
        capture_output=True,
        text=True,
        env={**env, **blas_caps},
    )
    assert proc.returncode == 0, proc.stderr
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_c12_determinism(check, tmp_path):
    with check(12, "determinism"):
        raw = {
            "seed": 0,
            "scenario": dict(SCENARIO),
            "layout": {
                "stationarity_user_m": AURA_RADIUS_M,
                "bs_stationarity_m": 0.8,
                "array": {
                    # Four departure geometries per synthesis block: several
                    # blocks, so more than one synthesis thread has work.
                    "n_elements": 256,
                    "spacing_m": 0.05,
                    "origin_m": [0.0, 0.0, 10.0],
                },
                "users": [
                    {
                        "user_id": 1,
                        "start_m": [30.0, 0.0, 1.5],
                        "heading_deg": 90.0,
                        "n_snapshots": 4,
                        "snapshot_spacing_m": 0.5,
                    },
                    {
                        "user_id": 2,
                        "start_m": [33.0, 0.0, 1.5],
                        "heading_deg": 90.0,
                        "n_snapshots": 4,
                        "snapshot_spacing_m": 0.5,
                    },
                ],
            },
        }
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(raw))

        # Every written file, metrics.tsv too: its correlations come from
        # BLAS Gram products.
        first = _cli_run(config_path, tmp_path / "r1")
        assert {"channel.bin", "metrics.tsv", "share_table.tsv"} <= first.keys()
        second = _cli_run(config_path, tmp_path / "r2")
        assert first == second
        assert read_tensor_binary(tmp_path / "r1" / "channel.bin").seed == 42

        # Uncapped BLAS leaves synthesis one thread; a one-thread BLAS gives
        # it one per CPU, each filling the blocks of its own geometries.
        capped = _cli_run(config_path, tmp_path / "capped", OPENBLAS_NUM_THREADS="1")
        assert capped == first
