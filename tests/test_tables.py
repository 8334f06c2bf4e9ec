"""Output tables against the value-by-value writers they replaced."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from auramimo import (
    MODE_KEPT_FOCAL,
    MODE_KEPT_PARAMETERS,
    SPEED_OF_LIGHT_M_S,
    parse_config,
    tables,
)
from auramimo.pipeline import run, write_outputs
from auramimo.tensorio import write_tensor_binary, write_tensor_text
from conftest import subarray_sizes
from test_pipeline import SCENARIO

# ---------------------------------------------------------------------------
# Reference: the per-value formatting and the table loops, as they were
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _direction(x, y, z):
    """(azimuth, elevation) in degrees of one direction, value by value:
    azimuth wrapped to (-180, 180]. The scalar atan2 and hypot are numpy's,
    as math.atan2 and math.hypot differ from them in the last bit on some
    inputs."""
    az = (math.degrees(np.arctan2(y, x)) + 180.0) % 360.0 - 180.0
    el = math.degrees(np.arctan2(z, np.hypot(x, y)))
    return (180.0 if az == -180.0 else az), el


def _view_param_columns(view, delay_s, rx0, array):
    """A view's columns; its angles read from its focal points, the AoA
    from `rx0` or, when the LBS sits there, toward the reference centre."""
    lbs, rx0 = view.lbs.tolist(), rx0.tolist()
    target = array.subarray_centers[array.reference_subarray].tolist() if lbs == rx0 else lbs
    aoa = _direction(*(t - r for t, r in zip(target, rx0)))
    cols = [_fmt(delay_s), _fmt(view.power), *map(_fmt, aoa)]
    for fbs, center in zip(view.fbs.tolist(), array.subarray_centers.tolist()):
        cols += map(_fmt, _direction(*(f - c for f, c in zip(fbs, center))))
    cols += [_fmt(float(c)) for c in view.lbs]
    for a in range(array.n_subarrays):
        cols += [_fmt(float(c)) for c in view.fbs[a]]
    return cols


def _param_header(n_subarrays):
    head = ["delay_s", "power", "aoa_az_deg", "aoa_el_deg"]
    for a in range(n_subarrays):
        head += [f"aod_az_deg_{a}", f"aod_el_deg_{a}"]
    head += ["lbs_x_m", "lbs_y_m", "lbs_z_m"]
    for a in range(n_subarrays):
        head += [f"fbs{a}_x_m", f"fbs{a}_y_m", f"fbs{a}_z_m"]
    return head


def _view_delays(result) -> dict[tuple[int, int, int], float]:
    """Each view's delay by (segment, user, cluster id): the tensor's at
    the segment's first snapshot, in the slot of the user's c-th cluster,
    less |rx0 - reference sub-array centre| / c."""
    layout = result.config.layout
    ref_center = layout.array.subarray_centers[layout.array.reference_subarray]
    delays = {}
    for seg in result.segments:
        segment = layout.segments[seg.share_table.segment_index]
        for k, user in enumerate(layout.user_ids):
            rx0 = layout.segment_start_position(user, segment.index)
            direct = math.dist(rx0, ref_center) / SPEED_OF_LIGHT_M_S
            for c, cluster_id in enumerate(seg.cluster_set.by_user[user]):
                tensor_delay = float(result.tensor.delays[k, c, segment.first_snapshot])
                delays[segment.index, user, cluster_id] = tensor_delay - direct
    return delays


def _reference_write(result, out: Path) -> dict[str, Path]:
    config = result.config
    out.mkdir(parents=True)
    array = config.layout.array
    n_subarrays = array.n_subarrays
    delays = _view_delays(result)
    paths = {}
    if config.out_format == "binary":
        paths["tensor"] = out / "channel.bin"
        write_tensor_binary(result.tensor, paths["tensor"])
    else:
        paths["tensor"] = out / "channel.tsv"
        write_tensor_text(result.tensor, paths["tensor"])

    paths["share_table"] = out / "share_table.tsv"
    with open(paths["share_table"], "w") as f:
        f.write("segment\tmembers\tproportion\tscaled_proportion\tcount\tcluster_ids\n")
        for seg in result.segments:
            for g in seg.share_table.groups:
                members = "+".join(str(u) for u in g.members)
                cluster_ids = "+".join(str(c) for c in g.cluster_ids)
                f.write(
                    f"{seg.share_table.segment_index}\t{members}\t"
                    f"{_fmt(g.proportion)}\t{_fmt(g.scaled_proportion)}\t"
                    f"{g.count}\t{cluster_ids}\n"
                )

    header = _param_header(n_subarrays)
    for user in config.layout.user_ids:
        path = paths[f"clusters_user{user}"] = out / f"clusters_user{user}.tsv"
        with open(path, "w") as f:
            f.write(
                "segment\tcluster_id\tmembers\tgenerating_user\tboresight\t"
                + "\t".join(header)
                + "\n"
            )
            for seg in result.segments:
                segment = seg.share_table.segment_index
                for cluster_id in seg.cluster_set.by_user[user]:
                    view = seg.views.views[(user, cluster_id)]
                    cluster = seg.cluster_set.clusters[cluster_id]
                    group = next(
                        g for g in seg.share_table.groups if cluster_id in g.cluster_ids
                    )
                    members = "+".join(str(u) for u in group.members)
                    delay = delays[segment, user, cluster_id]
                    rx0 = config.layout.segment_start_position(user, segment)
                    f.write(
                        f"{segment}\t{view.cluster_id}\t"
                        f"{members}\t{cluster.generating_user}\t"
                        f"{int(cluster.boresight)}\t"
                        + "\t".join(_view_param_columns(view, delay, rx0, array))
                        + "\n"
                    )

    paths["cluster_views"] = out / "cluster_views.tsv"
    with open(paths["cluster_views"], "w") as f:
        f.write("segment\tcluster_id\towner\trecalc_mode\t" + "\t".join(header) + "\n")
        for seg in result.segments:
            for (user, cluster_id) in sorted(seg.views.views):
                view = seg.views.views[(user, cluster_id)]
                segment = seg.share_table.segment_index
                delay = delays[segment, user, cluster_id]
                rx0 = config.layout.segment_start_position(user, segment)
                f.write(
                    f"{segment}\t{cluster_id}\t{user}\t"
                    f"{view.recalc_mode}\t"
                    + "\t".join(_view_param_columns(view, delay, rx0, array))
                    + "\n"
                )

    paths["metrics"] = out / "metrics.tsv"
    with open(paths["metrics"], "w") as f:
        f.write("metric\tkey1\tkey2\tvalue\n")
        metrics = result.metrics
        for (u, v), mean in sorted(metrics.pair_correlation_mean.items()):
            f.write(f"pair_correlation_mean\t{u}\t{v}\t{_fmt(mean)}\n")
        for (u, v), per_snap in sorted(metrics.pair_correlation.items()):
            f.write(f"pair_correlation\t{u}\t{v}\t" + "+".join(map(_fmt, per_snap)) + "\n")
        for (u, v), count in sorted(metrics.shared_cluster_counts.items()):
            f.write(f"shared_clusters\t{u}\t{v}\t{count}\n")
        for sub, err in sorted(metrics.planar_error_max_rad.items()):
            f.write(f"planar_error_max_rad\t{sub}\t\t{_fmt(err)}\n")
    return paths


# ---------------------------------------------------------------------------
# Seeded runs
# ---------------------------------------------------------------------------


def _seeded_config(rng, seed):
    """A small random run: 2-4 users on parallel tracks (some sharing a
    start), several segments, 1-24 elements in one or more sub-arrays."""
    n_users = int(rng.integers(2, 5))
    starts = []
    for _ in range(n_users):
        if starts and rng.random() < 0.3:
            starts.append(starts[int(rng.integers(len(starts)))])
        else:
            starts.append([*map(float, rng.uniform([20.0, -3.0], [36.0, 3.0])), 1.5])
    n_snap = int(rng.integers(2, 9))
    spacing = float(rng.uniform(0.5, 2.0))
    n_elements = int(rng.integers(1, 25))
    bs_stationarity = 10.0 if rng.random() < 0.3 else float(rng.uniform(0.05, 0.4))
    raw = {
        "seed": seed,
        "scenario": dict(SCENARIO, clusters_per_user=int(rng.integers(2, 6))),
        "output": {"format": "text" if rng.random() < 0.3 else "binary"},
        "layout": {
            "stationarity_user_m": float(rng.uniform(1.0, 4.0)),
            "bs_stationarity_m": bs_stationarity,
            "array": {
                "n_elements": n_elements,
                "spacing_m": 0.042,
                "origin_m": [0.0, 0.0, 10.0],
            },
            "users": [
                {
                    "user_id": u + 1,
                    "start_m": start,
                    "heading_deg": 90.0,
                    "n_snapshots": n_snap,
                    "snapshot_spacing_m": spacing,
                }
                for u, start in enumerate(starts)
            ],
        },
    }
    return parse_config(raw)


def _formatted_values(view, delay_s):
    """Every value a view's parameter row formats that the run stores."""
    return [delay_s, view.power, *view.lbs, *view.fbs.ravel()]


def test_tables_equal_value_by_value_writers(tmp_path):
    rng = np.random.default_rng(41)
    seen = dict.fromkeys(
        "kept-focal kept-parameters colocated clamped one-subarray uneven "
        "segments text binary".split(),
        0,
    )
    for trial in range(48):
        config = _seeded_config(rng, 700 + trial)
        result = run(config)
        got = write_outputs(result, tmp_path / f"new{trial}")
        want = _reference_write(result, tmp_path / f"old{trial}")
        assert list(got) == list(want), trial
        for kind in want:
            assert got[kind].read_bytes() == want[kind].read_bytes(), (trial, kind)

        # Every value is a float, so the reference's str branch never applies.
        delays = _view_delays(result)
        for seg in result.segments:
            for (user, cluster_id), view in seg.views.views.items():
                delay = delays[seg.share_table.segment_index, user, cluster_id]
                assert all(isinstance(x, float) for x in _formatted_values(view, delay)), trial
                assert view.lbs.dtype == view.fbs.dtype == np.float64

        layout = config.layout
        views = [v for seg in result.segments for v in seg.views.views.values()]
        modes = {v.recalc_mode for v in views}
        seen["kept-focal"] += MODE_KEPT_FOCAL in modes
        seen["kept-parameters"] += MODE_KEPT_PARAMETERS in modes
        seen["clamped"] += any(v.interior_raw_m < 0.0 for v in views)
        starts = [tuple(layout.segment_start_position(u, 0)) for u in layout.user_ids]
        seen["colocated"] += len(set(starts)) < len(starts)
        sizes = subarray_sizes(layout.array)
        seen["one-subarray"] += len(sizes) == 1
        seen["uneven"] += len(set(sizes)) > 1
        seen["segments"] += len(layout.segments) > 1
        seen[config.out_format] += 1
    assert min(seen.values()) >= 10, seen


def test_each_view_row_is_formatted_once(tmp_path, monkeypatch):
    # Once per segment, in one matrix; the user tables and
    # cluster_views.tsv write the same strings.
    calls = []
    original = tables._param_rows

    def spy(views, tensor, layout):
        calls.append(original(views, tensor, layout))
        return calls[-1]

    monkeypatch.setattr(tables, "_param_rows", spy)
    config = _seeded_config(np.random.default_rng(5), 5)
    result = run(config)
    paths = write_outputs(result, tmp_path / "out")
    n_views = sum(len(seg.views.views) for seg in result.segments)
    assert len(result.segments) > 1 and len(config.layout.user_ids) > 1
    assert len(calls) == len(result.segments)
    formatted = sorted(row for rows in calls for row in rows.values())
    assert len(formatted) == n_views

    def written(kind, n_key_columns):
        lines = paths[kind].read_text().splitlines()[1:]
        return [line.split("\t", n_key_columns)[-1] for line in lines]

    assert sorted(written("cluster_views", 4)) == formatted
    users = config.layout.user_ids
    assert sorted(r for u in users for r in written(f"clusters_user{u}", 5)) == formatted
