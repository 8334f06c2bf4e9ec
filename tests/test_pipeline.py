"""End-to-end pipeline runs: determinism, multi-segment stitching, outputs."""

from __future__ import annotations

import dataclasses
import importlib
import math
import threading
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from auramimo import (
    MODE_GENERATOR,
    MODE_KEPT_FOCAL,
    MODE_KEPT_PARAMETERS,
    ChannelTensor,
    coefficients,
    correlation_metrics,
    parse_config,
    pipeline,
    read_tensor_binary,
    sharing,
    synthesize,
)
from auramimo.geom import SPEED_OF_LIGHT_M_S, angles_from_vector
from auramimo.pipeline import run, write_outputs
from conftest import make_random_config, synthesize_segment

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
    "clusters_per_user": 6,
    "carrier_hz": 3.5e9,
    "correlation_distance_m": 50.0,
    "cluster_angle_spread_deg": 3.0,
}


def make_run_config(
    *,
    seed=11,
    n_snapshots=4,
    separation_m=3.0,
    n_elements=32,
    out_format="binary",
    n_users=2,
):
    raw = {
        "seed": seed,
        "scenario": dict(SCENARIO),
        "output": {"format": out_format},
        "layout": {
            "stationarity_user_m": 5.0,
            "bs_stationarity_m": 0.8,
            "array": {
                "n_elements": n_elements,
                "spacing_m": 0.042,
                "origin_m": [0.0, 0.0, 10.0],
            },
            "users": [
                {
                    "user_id": k + 1,
                    "start_m": [30.0 + k * separation_m, 0.0, 1.5],
                    "heading_deg": 90.0,
                    "n_snapshots": n_snapshots,
                    "snapshot_spacing_m": 0.5,
                }
                for k in range(n_users)
            ],
        },
    }
    return parse_config(raw)


def test_run_smoke_and_output_files(tmp_path):
    config = make_run_config()
    result = run(config)

    assert result.tensor.coefficients.shape == (2, 1, 32, 6, 4)
    assert result.tensor.delays.shape == (2, 6, 4)
    assert len(result.segments) == 1

    paths = write_outputs(result, tmp_path / "out")
    for kind in ("tensor", "share_table", "clusters_user1", "clusters_user2",
                 "cluster_views", "metrics"):
        assert paths[kind].exists(), kind

    # one row per cluster slot per segment, plus the header
    lines = paths["clusters_user1"].read_text().splitlines()
    assert len(lines) == 1 + 6
    # every user has all of its cluster slots in the view table too
    view_lines = paths["cluster_views"].read_text().splitlines()
    assert len(view_lines) == 1 + 2 * 6

    metrics_text = paths["metrics"].read_text()
    assert "pair_correlation_mean\t1\t2" in metrics_text
    assert "shared_clusters\t1\t2" in metrics_text
    assert "planar_error_max_rad" in metrics_text


def test_repeat_runs_are_byte_identical(tmp_path):
    paths_a = write_outputs(run(make_run_config()), tmp_path / "a")
    paths_b = write_outputs(run(make_run_config()), tmp_path / "b")
    assert paths_a.keys() == paths_b.keys()
    for kind in paths_a:
        assert paths_a[kind].read_bytes() == paths_b[kind].read_bytes(), kind


def test_multi_segment_run_concatenates_snapshots(tmp_path):
    config = make_run_config(n_snapshots=20)  # 5 m / 0.5 m -> two 10-snapshot segments
    result = run(config)

    assert len(result.segments) == 2
    assert result.tensor.coefficients.shape[4] == 20
    assert result.tensor.delays.shape[2] == 20

    ids0 = set(result.segments[0].share_table.cluster_ids)
    ids1 = set(result.segments[1].share_table.cluster_ids)
    assert ids0 and ids1
    assert ids0.isdisjoint(ids1)
    assert min(ids1) > max(ids0)

    paths = write_outputs(result, tmp_path / "out")
    lines = paths["clusters_user1"].read_text().splitlines()
    assert len(lines) == 1 + 2 * 6
    segments_seen = {line.split("\t")[0] for line in lines[1:]}
    assert segments_seen == {"0", "1"}


def test_colocated_users_get_identical_outputs(tmp_path):
    config = make_run_config(separation_m=0.0)
    result = run(config)

    # a single fully shared set of clusters, seen identically by both users
    by_user = result.segments[0].cluster_set.by_user
    assert by_user[1] == by_user[2]
    np.testing.assert_array_equal(
        result.tensor.coefficients[0], result.tensor.coefficients[1]
    )
    np.testing.assert_array_equal(result.tensor.delays[0], result.tensor.delays[1])

    paths = write_outputs(result, tmp_path / "out")
    assert (
        paths["clusters_user1"].read_bytes() == paths["clusters_user2"].read_bytes()
    )


def test_written_tensor_round_trips_through_reader(tmp_path):
    config = make_run_config()
    result = run(config)
    paths = write_outputs(result, tmp_path / "out")
    tensor = read_tensor_binary(paths["tensor"])
    assert tensor.seed == config.seed
    assert tensor.carrier_hz == pytest.approx(config.carrier_hz)
    np.testing.assert_allclose(
        tensor.coefficients,
        result.tensor.coefficients.astype(np.complex64).astype(np.complex128),
    )
    np.testing.assert_array_equal(tensor.delays, result.tensor.delays)


def test_text_tensor_holds_the_binary_tensor_values(tmp_path):
    binary = write_outputs(run(make_run_config()), tmp_path / "binary")
    text = write_outputs(run(make_run_config(out_format="text")), tmp_path / "text")
    tensor = read_tensor_binary(binary["tensor"])
    rows = [line.split("\t") for line in text["tensor"].read_text().splitlines()[3:]]
    assert len(rows) == tensor.coefficients.size
    # Rows run in C order over (user, rx, tx, cluster, snapshot).
    values = np.array([complex(float(r[5]), float(r[6])) for r in rows])
    assert np.array_equal(values, tensor.coefficients.ravel())
    # Delays repeat per tx element; the tx 0 rows are (user, cluster, snapshot).
    delays = np.array([float(r[7]) for r in rows if r[2] == "0"])
    assert np.array_equal(delays, tensor.delays.ravel())


def test_shared_cluster_counts_match_the_share_table(tmp_path):
    config = make_run_config(n_snapshots=30, separation_m=2.5, n_users=3)
    paths = write_outputs(run(config), tmp_path / "out")
    # Each user's cluster ids per segment, read back from share_table.tsv.
    ids: dict[tuple[str, str], set[str]] = {}
    for line in paths["share_table"].read_text().splitlines()[1:]:
        segment, members, *_, cluster_ids = line.split("\t")
        for user in members.split("+"):
            key = (segment, user)
            ids.setdefault(key, set()).update(filter(None, cluster_ids.split("+")))
    segments = {segment for segment, _ in ids}
    assert len(segments) == 3

    rows = [
        line.split("\t")[1:]
        for line in paths["metrics"].read_text().splitlines()
        if line.startswith("shared_clusters\t")
    ]
    assert [(u, v) for u, v, _ in rows] == [("1", "2"), ("1", "3"), ("2", "3")]
    for u, v, count in rows:
        assert int(count) == sum(len(ids[s, u] & ids[s, v]) for s in segments)
    assert len({count for _, _, count in rows}) > 1


def test_run_tensor_equals_concatenated_segment_tensors():
    config = make_run_config(n_snapshots=20)  # two 10-snapshot segments
    result = run(config)
    parts = [
        synthesize_segment(
            seg.views,
            config.layout,
            config.carrier_hz,
            config.seed,
            cluster_angle_spread_deg=config.scenario.cluster_angle_spread_deg,
        )
        for seg in result.segments
    ]
    assert len(parts) == 2
    assert result.tensor.user_ids == parts[0].user_ids
    # The run holds the complex128 segment values rounded to complex64.
    assert result.tensor.coefficients.dtype == np.complex64
    assert parts[0].coefficients.dtype == np.complex128
    assert np.array_equal(
        result.tensor.coefficients,
        np.concatenate([t.coefficients for t in parts], axis=4).astype(np.complex64),
    )
    assert np.array_equal(result.tensor.delays, np.concatenate([t.delays for t in parts], axis=2))


def test_run_checks_every_coefficient_once(monkeypatch):
    checked = []
    original = ChannelTensor.__post_init__

    def spy(self):
        checked.append(self.coefficients.size + self.delays.size)
        original(self)

    monkeypatch.setattr(ChannelTensor, "__post_init__", spy)
    result = run(make_run_config(n_snapshots=20))  # two segments
    assert checked == [result.tensor.coefficients.size + result.tensor.delays.size]


@pytest.mark.parametrize("bad", ["nan coefficient", "negative delay"])
def test_bad_value_in_one_segment_fails_the_run(monkeypatch, bad):
    original = pipeline.synthesize

    def poisoned(views, *args, out, **kwargs):
        original(views, *args, out=out, **kwargs)
        if views.segment_index == 1:
            if bad == "nan coefficient":
                out[0][1, 0, 5, 2, 3] = np.nan
            else:
                out[1][0, 4, 0] = -1e-9

    monkeypatch.setattr(pipeline, "synthesize", poisoned)
    with pytest.raises(ValueError, match="non-finite|nonnegative"):
        run(make_run_config(n_snapshots=20))


def test_segment_synthesis_fills_out_from_every_thread(monkeypatch):
    result = run(make_run_config())
    seg, layout = result.segments[0], result.config.layout
    # One geometry per block, on the calling thread and one worker.
    monkeypatch.setattr(coefficients, "BLOCK_VALUES", 32 * 20)
    monkeypatch.setattr(coefficients, "_cpu_count", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    original = coefficients._departure_phase
    caller = threading.get_ident()

    def in_worker(bad):
        # The worker's blocks go bad; the calling thread's stay as they were.
        def phase(*a):
            return original(*a) if threading.get_ident() == caller else bad(*a)

        return phase

    # Each thread writes its blocks into the caller's arrays, unchecked:
    # the run's tensor check is the one that rejects bad values.
    monkeypatch.setattr(
        coefficients,
        "_departure_phase",
        in_worker(lambda *a: np.full_like(original(*a), np.nan)),
    )
    out = (np.zeros_like(result.tensor.coefficients), np.zeros_like(result.tensor.delays))
    assert synthesize(seg.views, layout, 3.5e9, seed=11, out=out) is None
    finite = np.isfinite(out[0]).all(axis=(1, 2, 4))
    assert finite.any() and not finite.all()
    assert np.all(out[1] > 0)

    # An exception raised inside a worker reaches the caller.
    def fail(*a):
        raise FloatingPointError("block failed")

    monkeypatch.setattr(coefficients, "_departure_phase", in_worker(fail))
    with pytest.raises(FloatingPointError, match="block failed"):
        synthesize(seg.views, layout, 3.5e9, seed=11, out=out)


def _by_value(fbs):
    """An FBS set by its bytes: equal sets, equal keys."""
    return fbs.tobytes()


def test_each_segment_builds_one_owner_views(monkeypatch):
    # share_clusters hands recalculate_views each slot's cluster row; only
    # the complete set of a segment is an OwnerViews.
    built = []
    original = sharing.OwnerViews.__post_init__

    def counting(self):
        built.append(self.segment_index)
        original(self)

    monkeypatch.setattr(sharing.OwnerViews, "__post_init__", counting)
    result = run(make_run_config(n_snapshots=20))
    assert len(result.segments) == 2
    assert built == [seg.views.segment_index for seg in result.segments] == [0, 1]


def test_planar_error_once_per_segment(monkeypatch):
    calls = []
    original = pipeline.planar_vs_spherical_error

    def spy(fbs, layout, carrier_hz):
        calls.append(fbs)
        return original(fbs, layout, carrier_hz)

    monkeypatch.setattr(pipeline, "planar_vs_spherical_error", spy)
    for separation in (0.0, 3.0):  # co-located owners share every FBS set
        config = make_run_config(separation_m=separation, n_snapshots=20)
        calls.clear()
        result = run(config)
        assert len(calls) == len(result.segments) == 2
        # One call over the views' geometry rows, one per FBS set solved.
        # A kept-focal-point view names its generator view's row, so the
        # rows are those of the generator and kept-parameters views.
        for fbs, seg in zip(calls, result.segments):
            views = seg.views.views.values()
            distinct = {_by_value(v.fbs) for v in views}
            assert fbs is seg.views.geometry.fbs
            assert {_by_value(row) for row in fbs} == distinct
            assert distinct == {
                _by_value(v.fbs) for v in views if v.recalc_mode != MODE_KEPT_FOCAL
            }
            assert len(fbs) < len(seg.views.views)
        # The max over every view, one view at a time, as before.
        worst = np.zeros(config.layout.array.n_subarrays)
        for seg in result.segments:
            for v in seg.views.views.values():
                errors = original(v.fbs[None], config.layout, config.carrier_hz)[0]
                worst = np.maximum(worst, errors)
        assert result.metrics.planar_error_max_rad == dict(enumerate(worst.tolist()))


def test_share_tables_start_each_segment_after_the_last(monkeypatch):
    bases = []
    original = pipeline.share_table_for_segment

    def spy(*args, id_base):
        bases.append(id_base)
        return original(*args, id_base=id_base)

    monkeypatch.setattr(pipeline, "share_table_for_segment", spy)
    config = make_run_config(n_snapshots=20)  # two segments
    tables = list(pipeline.share_tables(config))
    assert [t.segment_index for t in tables] == [0, 1]
    assert bases == [0, max(tables[0].cluster_ids) + 1]
    assert [seg.share_table for seg in run(config).segments] == tables


def _tsv_rows(path):
    return [line.split("\t") for line in path.read_text().splitlines()[1:]]


def _check_tables_agree(config, out):
    """The written tables against each other and the reread tensor: powers,
    the two view tables, delays, angles, and the shared-cluster and
    planar-error rows of metrics.tsv."""
    users = config.layout.user_ids
    views = {(r[0], r[1], int(r[2])): r[4:] for r in _tsv_rows(out / "cluster_views.tsv")}
    owned = {}  # (segment, user) -> cluster ids
    for user in users:
        power = {}
        for row in _tsv_rows(out / f"clusters_user{user}.tsv"):
            # The view's parameter columns, as its cluster_views.tsv row.
            assert row[5:] == views.pop((row[0], row[1], user), None), (user, row[:2])
            owned.setdefault((row[0], user), set()).add(row[1])
            power[row[0]] = power.get(row[0], 0.0) + float(row[6])
        assert all(abs(total - 1.0) <= 1e-12 for total in power.values()), (user, power)
    assert not views  # every view row belongs to a user's table

    # Every table row's delay is read off the reread tensor: its delay at
    # the segment's start less |rx0 - reference centre| / c, exactly. A
    # user's rows of a segment are its cluster slots, in order.
    tensor = read_tensor_binary(out / "channel.bin")
    array = config.layout.array
    ref_center = array.subarray_centers[array.reference_subarray]
    for k, user in enumerate(users):
        slots = {}
        for row in _tsv_rows(out / f"clusters_user{user}.tsv"):
            segment = config.layout.segments[int(row[0])]
            c = slots[segment.index] = slots.get(segment.index, -1) + 1
            rx0 = config.layout.segment_start_position(user, segment.index)
            direct = math.dist(rx0, ref_center) / SPEED_OF_LIGHT_M_S
            want = tensor.delays[k, c, segment.first_snapshot] - direct
            assert float(row[5]) == want, (user, row[:2])

    # Every row's angles are read from its own focal-point columns: AoD from
    # each sub-array centre to its FBS, AoA from the owner's segment-start
    # position to the LBS, or along the direct path to the reference
    # centre when the LBS sits at the owner.
    n_sub = array.n_subarrays
    for row in _tsv_rows(out / "cluster_views.tsv"):
        values = np.array(row[4:], dtype=float)
        lbs, fbs = values[4 + 2 * n_sub : 7 + 2 * n_sub], values[7 + 2 * n_sub :]
        rx0 = config.layout.segment_start_position(int(row[2]), int(row[0]))
        arrival = (ref_center if np.array_equal(lbs, rx0) else lbs) - rx0
        legs = np.vstack([arrival, fbs.reshape(n_sub, 3) - array.subarray_centers])
        want = np.column_stack(angles_from_vector(legs)).ravel()  # (az, el) per leg
        assert values[2 : 4 + 2 * n_sub].tolist() == want.tolist(), row[:4]

    metrics = _tsv_rows(out / "metrics.tsv")
    shared = {(int(r[1]), int(r[2])): int(r[3]) for r in metrics if r[0] == "shared_clusters"}
    segments = {segment for segment, _ in owned}
    assert shared == {
        (u, v): sum(len(owned[s, u] & owned[s, v]) for s in segments)
        for i, u in enumerate(users)
        for v in users[i + 1 :]
    }

    # The worst planar error of every view's FBS set, one view at a time.
    worst = np.zeros(n_sub)
    for row in _tsv_rows(out / "cluster_views.tsv"):
        fbs = np.array(row[-3 * n_sub :], dtype=float).reshape(1, n_sub, 3)
        errors = pipeline.planar_vs_spherical_error(fbs, config.layout, config.carrier_hz)
        worst = np.maximum(worst, errors[0])
    planar = {int(r[1]): float(r[3]) for r in metrics if r[0] == "planar_error_max_rad"}
    assert planar == dict(enumerate(worst.tolist()))


def test_random_runs_write_consistent_files(tmp_path):
    # Seeded random layouts with co-located owners and short segments,
    # so that kept-parameters views occur.
    seen = {"kept-parameters": 0, "co-located": 0, "clamped": 0}
    for seed in range(20):
        config = make_random_config(seed)
        users = config.layout.user_ids
        dirs = [tmp_path / f"seed{seed}-{i}" for i in range(2)]
        for out in dirs:
            result = run(config)
            write_outputs(result, out)
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), (seed, name)

        totals = {(s.index, u): 0 for s in config.layout.segments for u in users}
        for row in _tsv_rows(dirs[0] / "share_table.tsv"):
            for u in row[1].split("+"):
                totals[int(row[0]), int(u)] += int(row[4])
        assert set(totals.values()) == {config.total_clusters_per_user}, (seed, totals)

        # The reader numbers users by tensor position, in ascending id order.
        tensor = read_tensor_binary(dirs[0] / "channel.bin")
        reread = correlation_metrics(tensor).pair_correlation_mean
        reread = {(users[i], users[j]): v for (i, j), v in reread.items()}
        written = {
            (int(r[1]), int(r[2])): float(r[3])
            for r in _tsv_rows(dirs[0] / "metrics.tsv")
            if r[0] == "pair_correlation_mean"
        }
        # The run and the file hold the same complex64 values.
        assert reread == written, seed

        _check_tables_agree(config, dirs[0])
        views = [v for seg in result.segments for v in seg.views.views.values()]
        seen["clamped"] += any(v.interior_raw_m < 0.0 for v in views)

        # The run counts shared clusters from its share-table groups; the
        # owners' cluster ids give the same pairs, in the same order.
        per_segment = [
            {u: set(ids) for u, ids in seg.cluster_set.by_user.items()}
            for seg in result.segments
        ]
        by_user = {
            (u, v): sum(len(ids[u] & ids[v]) for ids in per_segment)
            for u, v in combinations(users, 2)
        }
        assert list(result.metrics.shared_cluster_counts.items()) == list(by_user.items())
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.metrics.shared_cluster_counts = {}

        modes = {v.recalc_mode for seg in result.segments for v in seg.views.views.values()}
        seen["kept-parameters"] += MODE_KEPT_PARAMETERS in modes
        starts = [tuple(config.layout.segment_start_position(u, 0)) for u in users]
        seen["co-located"] += len(set(starts)) < len(starts)
    assert min(seen.values()) >= 5, seen


def test_run_logs_one_clamp_warning(caplog):
    # One summary per run, not one line per segment; synthesis logs nothing.
    seen = {"clamped": 0, "unclamped": 0}
    for seed in range(20):
        caplog.clear()
        with caplog.at_level("DEBUG", logger="auramimo"):
            result = run(make_random_config(seed))
        views = [v for seg in result.segments for v in seg.views.views.values()]
        clamped = sum(v.interior_raw_m < 0.0 for v in views)
        if not clamped:
            seen["unclamped"] += 1
            assert caplog.records == [], seed
            continue
        seen["clamped"] += 1
        [record] = caplog.records
        assert (record.name, record.levelname) == ("auramimo.pipeline", "WARNING")
        assert record.getMessage() == (
            f"interior path length clamped to 0 for {clamped} of {len(views)} cluster views"
        )
    assert min(seen.values()) >= 2, seen


def test_run_metrics_are_read_only(tmp_path):
    result = run(make_random_config(1))
    metrics = result.metrics
    with pytest.raises(TypeError):
        metrics.shared_cluster_counts[(1, 2)] = 99
    with pytest.raises(TypeError):
        metrics.planar_error_max_rad[0] = 0.0
    corr = next(iter(metrics.pair_correlation.values()))
    with pytest.raises(ValueError, match="read-only"):
        corr[0] = 0.5
    # A copy made with replace() is read-only too, and leaves the source alone.
    counts = dict(metrics.shared_cluster_counts)
    changed = dataclasses.replace(metrics, shared_cluster_counts=counts)
    counts[(1, 2)] = 99
    assert changed.shared_cluster_counts == metrics.shared_cluster_counts
    with pytest.raises(TypeError):
        changed.shared_cluster_counts[(1, 2)] = 99
    rows = _tsv_rows(write_outputs(result, tmp_path)["metrics"])
    assert sum(r[0] == "shared_clusters" for r in rows) == len(metrics.shared_cluster_counts)


@pytest.mark.parametrize("seed", [3, 901, 4242])
def test_smoke_workload_writes_consistent_files(tmp_path, monkeypatch, seed):
    # The benchmark's smoke config: the one with kept-parameters views
    # (1-4 per run) next to generator and kept-focal-point ones.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    config = parse_config(importlib.import_module("workloads").make_config("smoke", seed))
    result = run(config)
    write_outputs(result, tmp_path)
    modes = {v.recalc_mode for seg in result.segments for v in seg.views.views.values()}
    assert modes == {MODE_GENERATOR, MODE_KEPT_FOCAL, MODE_KEPT_PARAMETERS}
    _check_tables_agree(config, tmp_path)
