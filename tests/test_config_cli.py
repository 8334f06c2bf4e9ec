"""Config parsing and the command-line entry point."""

from __future__ import annotations

import copy
import dataclasses
import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from auramimo import (
    ConfigError,
    RunConfig,
    load_config,
    parse_config,
    read_tensor_binary,
)
from auramimo import cli, pipeline
from auramimo.cli import main
from auramimo.layout import MAX_COORDINATE_M
from auramimo.tables import METRICS_HEADER, SHARE_HEADER
from auramimo.tensorio import _HEADER_DTYPE, MAGIC

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
    "clusters_per_user": 5,
    "carrier_hz": 3.5e9,
    "correlation_distance_m": 50.0,
    "cluster_angle_spread_deg": 3.0,
}


def base_raw(**extra) -> dict:
    raw = {
        "seed": 7,
        "scenario": dict(SCENARIO),
        "layout": {
            "stationarity_user_m": 5.0,
            "bs_stationarity_m": 0.8,
            "array": {
                "n_elements": 32,
                "spacing_m": 0.042,
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
    raw.update(extra)
    return raw


def write_config(tmp_path, raw=None, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw if raw is not None else base_raw()))
    return path


# ---------------------------------------------------------------- parsing

def test_parse_config_defaults_and_fields():
    config = parse_config(base_raw())
    assert config.seed == 7
    assert config.out_dir == "out"
    assert config.out_format == "binary"
    assert config.total_clusters_per_user == 5
    assert config.carrier_hz == 3.5e9
    assert config.layout.user_ids == (1, 2)
    assert len(config.layout.array.element_positions) == 32


def test_parse_config_explicit_points_and_elements():
    raw = base_raw()
    raw["layout"]["users"][0] = {
        "user_id": 1,
        "snapshot_spacing_m": 0.5,
        "points_m": [[30.0, 0.0, 1.5], [30.0, 0.5, 1.5], [30.0, 1.0, 1.5], [30.0, 1.5, 1.5]],
    }
    raw["layout"]["array"] = {
        "element_positions_m": [[0.0, 0.0, 10.0], [0.05, 0.0, 10.0]],
    }
    config = parse_config(raw)
    track = config.layout.track_of(1)
    assert track.points[1][1] == pytest.approx(0.5)
    assert len(config.layout.array.element_positions) == 2


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda r: r.pop("scenario"), "scenario"),
        (lambda r: r["layout"].pop("users"), "users"),
        (lambda r: r["layout"]["users"][0].pop("snapshot_spacing_m"), "snapshot_spacing_m"),
        (lambda r: r["layout"]["array"].pop("spacing_m"), "spacing_m"),
        (lambda r: r["layout"].pop("stationarity_user_m"), "stationarity_user_m"),
    ],
)
def test_missing_keys_name_the_key(mutate, fragment):
    raw = base_raw()
    mutate(raw)
    with pytest.raises(ConfigError, match=fragment):
        parse_config(raw)


def test_bad_output_format_rejected():
    raw = base_raw(output={"format": "csv"})
    with pytest.raises(ConfigError, match="csv"):
        parse_config(raw)


# write_outputs writes text for every format but "binary", so a format
# that did not come through parse_config is checked as well.
BAD_FORMATS = ["bin", "", "Binary", None]
FORMAT_ERROR = r"^config\.output\.format must be one of \('binary', 'text'\), got "


@pytest.mark.parametrize("value", BAD_FORMATS)
def test_bad_output_format_rejected_by_replace(value):
    config = parse_config(base_raw())
    with pytest.raises(ConfigError, match=FORMAT_ERROR + re.escape(repr(value))):
        dataclasses.replace(config, out_format=value)


@pytest.mark.parametrize("value", BAD_FORMATS)
def test_bad_output_format_rejected_by_construction(value):
    config = parse_config(base_raw())
    fields = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    with pytest.raises(ConfigError, match=FORMAT_ERROR + re.escape(repr(value))):
        RunConfig(**{**fields, "out_format": value})


# str() turned null into ./None and ["a"] into ./['a'], and "" wrote
# into the working directory.
@pytest.mark.parametrize("value", [None, ["a"], "", 5, {"dir": "out"}, True])
def test_bad_output_dir_exits_2_before_any_stage(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("a stage ran"))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    raw = base_raw(output={"format": "binary", "dir": value})
    with pytest.raises(ConfigError, match=r"^config\.output\.dir must be a non-empty string"):
        parse_config(raw)
    assert main(["run", "--config", str(write_config(tmp_path, raw))]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("ConfigError: config.output.dir must be")
    assert len(captured.err.strip().splitlines()) == 1
    assert list(work.iterdir()) == []


def test_empty_out_dir_override_exits_2_before_any_stage(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("a stage ran"))
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--out-dir", ""]) == 2
    assert capsys.readouterr().err.startswith("ConfigError: config.output.dir must be")
    assert sorted(p.name for p in tmp_path.iterdir()) == [cfg.name]


# Each draw overflowed (exp, or 10**(-shadow/10)) into numpy warnings and
# then a ValueError (exit 3), the shadowing one only after synthesis.
OVERFLOWING = {
    "delay_spread_log_std": "draw a sigma_tau_s not finite and > 0",
    "aoa_spread_log_std": "draw a sigma_aoa_deg not finite and > 0",
    "aod_spread_log_std": "draw a sigma_aod_deg not finite and > 0",
    "eoa_spread_log_std": "draw a sigma_eoa_deg not finite and > 0",
    "eod_spread_log_std": "draw a sigma_eod_deg not finite and > 0",
    "shadow_std_db": "powers do not normalize",
}


@pytest.mark.parametrize("key", OVERFLOWING)
def test_overflowing_scenario_draw_exits_2_with_one_line(tmp_path, capsys, key):
    raw = base_raw()
    raw["scenario"][key] = 1e300
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, raw)), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("InvalidScenario: ") and OVERFLOWING[key] in err and key in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


# An excess path past about 1.3e154 m overflowed the focal solve's squared
# length into numpy warnings, then ended in ValueError (exit 3) after a
# full synthesis.
@pytest.mark.parametrize("key,value", [("r_tau", 1e200), ("delay_spread_median_s", 1e300)])
def test_overflowing_delay_exits_2_before_synthesis(tmp_path, capsys, monkeypatch, key, value):
    monkeypatch.setattr(pipeline, "synthesize", lambda *a, **k: pytest.fail("synthesis ran"))
    raw = base_raw()
    raw["scenario"][key] = value
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, raw)), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("InvalidScenario: r_tau ")
    assert "delay_spread_median_s" in err and "overflows" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_scenario_errors_wrapped_with_context():
    raw = base_raw()
    raw["scenario"]["r_tau"] = 0.5
    with pytest.raises(ConfigError, match="scenario"):
        parse_config(raw)


def test_unsynchronized_tracks_rejected_at_parse():
    raw = base_raw()
    raw["layout"]["users"][1]["n_snapshots"] = 9
    with pytest.raises(ConfigError, match="layout"):
        parse_config(raw)


def test_bad_position_shape_rejected():
    raw = base_raw()
    raw["layout"]["users"][0]["start_m"] = [30.0, 0.0]
    with pytest.raises(ConfigError, match="start_m"):
        parse_config(raw)


def test_config_with_retired_workers_key_still_loads():
    # Synthesis threads follow the CPUs; a "workers" key is ignored.
    config = parse_config(base_raw(workers=2))
    plain = parse_config(base_raw())
    assert (config.seed, config.scenario) == (plain.seed, plain.scenario)
    assert (config.out_dir, config.out_format) == (plain.out_dir, plain.out_format)
    for a, b in zip(config.layout.tracks, plain.layout.tracks, strict=True):
        assert np.array_equal(a.points, b.points)
    assert np.array_equal(
        config.layout.array.element_positions, plain.layout.array.element_positions
    )


# A misspelled optional key took its default: "heading" ran the track
# along +x, "outptu" wrote binary. Keys of the other form of a track or an
# array were ignored the same way.
UNKNOWN_KEYS = [
    pytest.param((), "outptu", {"format": "text"}, id="root"),
    pytest.param(("scenario",), "carrier_ghz", 3.5, id="scenario"),
    pytest.param(("layout",), "stationarity_m", 5.0, id="layout"),
    pytest.param(("layout", "array"), "n_element", 32, id="array"),
    pytest.param(("layout", "users", 1), "heading", 90.0, id="user"),
    pytest.param(("output",), "fromat", "text", id="output"),
    pytest.param(("layout", "users", 1), "points_m", [[33.0, 0.0, 1.5]], id="user-both-forms"),
    pytest.param(
        ("layout", "array"), "element_positions_m", [[0.0, 0.0, 10.0]], id="array-both-forms"
    ),
]


@pytest.mark.parametrize("path,key,value", UNKNOWN_KEYS)
def test_unknown_key_exits_2_naming_its_path(tmp_path, capsys, path, key, value):
    raw = base_raw(output={"format": "binary"})
    spec = raw
    for step in path:
        spec = spec[step]
    spec[key] = value
    # Beside a point list the first key of the linear form is the unknown one.
    bad = {"points_m": "start_m", "element_positions_m": "n_elements"}.get(key, key)
    key_path = "config" + "".join(
        f"[{step}]" if isinstance(step, int) else f".{step}" for step in (*path, bad)
    )
    with pytest.raises(ConfigError) as excinfo:
        parse_config(raw)
    assert str(excinfo.value).startswith(f"{key_path}: unknown key (known: ")
    assert main(["plan", "--config", str(write_config(tmp_path, raw))]) == 2
    assert capsys.readouterr().err.startswith(f"ConfigError: {key_path}: unknown key")


@pytest.mark.parametrize(
    "path",
    [("layout",), ("layout", "array"), ("layout", "users", 0), ("output",)],
    ids=["layout", "array", "user", "output"],
)
def test_non_object_exits_2_naming_its_path(tmp_path, capsys, path):
    # A number as the array ended in a TypeError traceback.
    raw = base_raw(output={"format": "binary"})
    spec = raw
    for step in path[:-1]:
        spec = spec[step]
    spec[path[-1]] = 5
    key_path = "config" + "".join(
        f"[{step}]" if isinstance(step, int) else f".{step}" for step in path
    )
    assert main(["plan", "--config", str(write_config(tmp_path, raw))]) == 2
    assert capsys.readouterr().err == f"ConfigError: {key_path} must be an object\n"


def _with_point(key: str, value: float) -> dict:
    raw = base_raw()
    layout = raw["layout"]
    if key == "start_m":
        layout["users"][1]["start_m"] = [33.0, value, 1.5]
    elif key == "points_m":
        layout["users"][0] = {
            "user_id": 1,
            "snapshot_spacing_m": 0.5,
            "points_m": [[30.0, 0.0, 1.5], [30.0, 0.5, value]],
        }
        layout["users"][1]["n_snapshots"] = 2
    elif key == "element_positions_m":
        layout["array"] = {"element_positions_m": [[0.0, 0.0, 10.0], [value, 0.0, 10.0]]}
    else:
        layout["array"]["origin_m"] = [0.0, 0.0, value]
    return raw


KEY_PATHS = {
    "start_m": "config.layout.users[1].start_m",
    "points_m": "config.layout.users[0].points_m[1]",
    "element_positions_m": "config.layout.array.element_positions_m[1]",
    "origin_m": "config.layout.array.origin_m",
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("key", ["start_m", "points_m", "element_positions_m", "origin_m"])
def test_non_finite_coordinate_exits_2_with_one_line(tmp_path, capsys, monkeypatch, key, value):
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("a stage ran"))
    raw = _with_point(key, value)
    with pytest.raises(ConfigError) as excinfo:
        parse_config(raw)
    assert str(excinfo.value).startswith(f"{KEY_PATHS[key]}: coordinates must be finite")
    # json writes NaN and Infinity literals, which load_config reads back.
    cfg = write_config(tmp_path, raw)
    assert ("NaN" if np.isnan(value) else "Infinity") in cfg.read_text()
    code = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ConfigError: {KEY_PATHS[key]}: coordinates must be finite")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


# Where each far point is named: the track or array it fails to join.
FAR_PATHS = {
    "start_m": "config.layout.users[1]: track of user 2",
    "points_m": "config.layout.users[0]: track of user 1",
    "element_positions_m": "config.layout: array elements",
    "origin_m": "config.layout.array: array elements",
}
JUST_ABOVE_BOUND_M = float(np.nextafter(MAX_COORDINATE_M, np.inf))


def _run_exits_2_with_one_line(tmp_path, capsys, raw) -> str:
    """The one stderr line of `auramimo run` on `raw`, which must exit 2
    before any stage and write nothing."""
    cfg = write_config(tmp_path, raw)
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert not (tmp_path / "out").exists()
    return err


@pytest.mark.parametrize("value", [1e200, 1e150, JUST_ABOVE_BOUND_M, -JUST_ABOVE_BOUND_M])
@pytest.mark.parametrize("key", ["start_m", "points_m", "element_positions_m", "origin_m"])
def test_far_coordinate_exits_2_with_one_line(tmp_path, capsys, monkeypatch, key, value):
    # A user at 1e200 m printed numpy RuntimeWarnings before DegenerateGeometry;
    # at 1e150 m it ended in a misleading "no focal points".
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("a stage ran"))
    err = _run_exits_2_with_one_line(tmp_path, capsys, _with_point(key, value))
    assert err.startswith(
        f"ConfigError: {FAR_PATHS[key]}: coordinates must be finite and at most 1e+06 m"
    )


@pytest.mark.parametrize(
    "spacing_m,message",
    [
        (1e5, "track of user 1: coordinates must be finite and at most 1e+06 m"),
        # Large enough that the track's arithmetic would overflow.
        (1e308, "snapshot_spacing_m must be finite and at most 1e+06"),
    ],
    ids=["leaves", "overflows"],
)
def test_track_leaving_the_coordinate_bound_exits_2(
    tmp_path, capsys, monkeypatch, spacing_m, message
):
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("a stage ran"))
    raw = base_raw()
    for user in raw["layout"]["users"]:
        user["snapshot_spacing_m"] = spacing_m
        user["n_snapshots"] = 20
    err = _run_exits_2_with_one_line(tmp_path, capsys, raw)
    assert err.startswith(f"ConfigError: config.layout.users[0]: {message}")


def test_coordinate_at_the_bound_runs(tmp_path):
    raw = base_raw()
    raw["layout"]["users"][1]["start_m"] = [MAX_COORDINATE_M, 0.0, 1.5]
    raw["layout"]["array"]["origin_m"] = [0.0, -MAX_COORDINATE_M, 10.0]
    cfg = write_config(tmp_path, raw)
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "cluster_views.tsv").exists()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seed_range_ends_accepted(seed):
    assert parse_config(base_raw(seed=seed)).seed == seed


# A config value or a command-line override that would fail mid-run (2**64
# in the tensor header), be truncated (1.7) or reach numpy raw ("abc", -1).
BAD_SETTINGS = [
    ("seed", 2**64),
    ("seed", 1.7),
    ("seed", "abc"),
    ("seed", -1),
    ("seed", True),
]


@pytest.mark.parametrize("key,value", BAD_SETTINGS)
def test_bad_seed_or_workers_in_config_exits_2_before_any_stage(
    tmp_path, capsys, monkeypatch, key, value
):
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("a stage ran"))
    cfg = write_config(tmp_path, base_raw(**{key: value}))
    code = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"ConfigError: {key} must be an integer")
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag,value", [("--seed", str(2**64)), ("--seed", "-1")]
)
def test_bad_seed_or_workers_override_exits_2_before_any_stage(
    tmp_path, capsys, monkeypatch, flag, value
):
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("a stage ran"))
    cfg = write_config(tmp_path)
    code = main(["run", "--config", str(cfg), flag, value])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"ConfigError: {flag[2:]} must be")
    monkeypatch.setattr(cli, "share_tables", lambda config: pytest.fail("a stage ran"))
    assert main(["plan", "--config", str(cfg), flag, value]) == 2


# Integer keys were truncated by int() (1.7, 20.9, 64.5) or read a bool as
# 1 (true); non-numeric values reached int()/float() raw ("abc", "x").
BAD_KEYS = [
    (("users", 0, "user_id"), 1.7, "int"),
    (("users", 0, "user_id"), True, "int"),
    (("users", 0, "user_id"), "abc", "int"),
    (("users", 1, "n_snapshots"), 20.9, "int"),
    (("array", "n_elements"), 64.5, "int"),
    (("array", "n_elements"), "64", "int"),
    (("users", 0, "snapshot_spacing_m"), "x", "float"),
    (("users", 1, "heading_deg"), None, "float"),
    (("array", "spacing_m"), False, "float"),
    (("stationarity_user_m",), "5", "float"),
    (("bs_stationarity_m",), [0.8], "float"),
    # Infinity reached int() in partition_subarrays as an OverflowError.
    (("bs_stationarity_m",), float("inf"), "float"),
    (("stationarity_user_m",), float("nan"), "float"),
    (("users", 0, "snapshot_spacing_m"), -float("inf"), "float"),
    # An integer literal beyond the float range reached float() as an
    # OverflowError.
    pytest.param(("users", 0, "snapshot_spacing_m"), 10**400, "float", id="spacing-huge-int"),
    pytest.param(("stationarity_user_m",), 10**400, "float", id="stationarity-huge-int"),
]


@pytest.mark.parametrize("path,value,expected", BAD_KEYS)
def test_bad_typed_key_exits_2_naming_its_path(
    tmp_path, capsys, monkeypatch, path, value, expected
):
    monkeypatch.setattr(cli, "share_tables", lambda config: pytest.fail("a stage ran"))
    raw = base_raw()
    spec = raw["layout"]
    for step in path[:-1]:
        spec = spec[step]
    spec[path[-1]] = value
    key_path = "config.layout" + "".join(
        f"[{step}]" if isinstance(step, int) else f".{step}" for step in path
    )
    message = f"{key_path}: expected finite {expected}, got {value!r}"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(raw)
    assert str(excinfo.value) == message
    code = main(["plan", "--config", str(write_config(tmp_path, raw))])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"ConfigError: {message}\n"


# An integer literal beyond the float range in a coordinate or a scenario
# key crashed float() with an OverflowError; a fractional or boolean
# cluster count reached the scenario raw (a TypeError, or true read as 1
# cluster).
BAD_NUMBERS = [
    pytest.param(
        ("layout", "users", 1, "start_m"), [33.0, 10**400, 1.5], "int too large",
        id="start-huge-int",
    ),
    pytest.param(
        ("layout", "array", "axis"), [1.0, 10**400, 0.0], "int too large",
        id="axis-huge-int",
    ),
    pytest.param(
        ("scenario", "carrier_hz"), 10**400, "expected finite float",
        id="carrier-huge-int",
    ),
    pytest.param(
        ("scenario", "clusters_per_user"), 7.5, "expected finite int, got 7.5",
        id="clusters-fraction",
    ),
    pytest.param(
        ("scenario", "clusters_per_user"), True, "expected finite int, got True",
        id="clusters-bool",
    ),
    pytest.param(
        ("layout", "users", 1, "start_m"), [True, 0.0, 1.5], "must be numbers",
        id="start-bool",
    ),
    pytest.param(
        ("layout", "users", 1, "start_m"), [33.0, "0.5", 1.5], "must be numbers",
        id="start-string",
    ),
    pytest.param(
        ("layout", "users", 1, "points_m", 1), [True, 0.5, 1.5], "must be numbers",
        id="points-bool",
    ),
    pytest.param(
        ("layout", "array", "origin_m"), ["0", 0.0, 10.0], "must be numbers",
        id="origin-string",
    ),
    pytest.param(
        ("layout", "array", "element_positions_m", 1), [0.042, False, 10.0],
        "must be numbers", id="elements-bool",
    ),
    pytest.param(
        ("layout", "array", "axis"), [True, False, False], "must be numbers",
        id="axis-bool",
    ),
]


def _explicit_points(raw: dict) -> dict:
    """`raw` with user 2's track and the array given as point lists."""
    raw["layout"]["users"][1] = {
        "user_id": 2,
        "points_m": [[33.0, 0.5 * i, 1.5] for i in range(4)],
        "snapshot_spacing_m": 0.5,
    }
    raw["layout"]["array"] = {
        "element_positions_m": [[0.042 * i, 0.0, 10.0] for i in range(32)]
    }
    return raw


@pytest.mark.parametrize("path,value,fragment", BAD_NUMBERS)
def test_out_of_range_number_exits_2_naming_its_path(
    tmp_path, capsys, monkeypatch, path, value, fragment
):
    monkeypatch.setattr(cli, "share_tables", lambda config: pytest.fail("a stage ran"))
    raw = base_raw()
    if {"points_m", "element_positions_m"} & set(path):
        raw = _explicit_points(raw)
        assert parse_config(copy.deepcopy(raw)).layout.user_ids == (1, 2)
    spec = raw
    for step in path[:-1]:
        spec = spec[step]
    spec[path[-1]] = value
    key_path = "config" + "".join(
        f"[{step}]" if isinstance(step, int) else f".{step}" for step in path
    )
    with pytest.raises(ConfigError) as excinfo:
        parse_config(raw)
    assert str(excinfo.value).startswith(f"{key_path}: ")
    assert fragment in str(excinfo.value)
    code = main(["plan", "--config", str(write_config(tmp_path, raw))])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ConfigError: {key_path}: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("value", ["abc", "1.7"])
def test_non_integer_seed_override_is_a_usage_error(tmp_path, capsys, value):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--config", str(cfg), "--seed", value])
    assert exit_info.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


def _readme_block(section: str, language: str) -> str:
    """The first `language` code block of the README's `section`."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    text = readme.split(f"## {section}", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", text, re.S).group(1)


def test_readme_quick_start_config_plans(tmp_path, capsys):
    # The quick start's JSON block is the config a new reader copies first.
    raw = json.loads(_readme_block("Quick start", "json"))
    parse_config(raw)
    assert main(["plan", "--config", str(write_config(tmp_path, raw))]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(SHARE_HEADER + "\n") and captured.err == ""
    assert len(captured.out.splitlines()) > 1


def test_readme_library_use_example_runs(tmp_path, monkeypatch, capsys):
    # The Library-use block, run on the quick start's config as cfg.json.
    raw = json.loads(_readme_block("Quick start", "json"))
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, raw)
    namespace: dict = {}
    exec(_readme_block("Library use", "python"), namespace)
    h, tau = namespace["h"], namespace["tau"]
    assert h.ndim == 5 and h.dtype == np.complex64
    assert tau.shape == (h.shape[0], h.shape[3], h.shape[4])
    assert (tmp_path / raw["output"]["dir"] / "channel.bin").is_file()
    assert "(1, 2)" in capsys.readouterr().out


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


# ---------------------------------------------------------------- CLI

def test_cli_run_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 0
    captured = capsys.readouterr()
    assert (out_dir / "channel.bin").exists()
    assert (out_dir / "share_table.tsv").exists()
    assert (out_dir / "metrics.tsv").exists()
    assert "channel.bin" in captured.out


def test_cli_run_format_and_seed_overrides(tmp_path):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_a), "--format", "text"]) == 0
    assert (out_a / "channel.tsv").exists()
    assert not (out_a / "channel.bin").exists()

    assert main(["run", "--config", str(cfg), "--out-dir", str(out_b), "--seed", "99"]) == 0
    tensor = read_tensor_binary(out_b / "channel.bin")
    assert tensor.seed == 99


def test_cli_plan_prints_share_rows(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["plan", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("segment\tmembers")
    # two users, at least one row each, no synthesis artifacts on disk
    assert len(lines) >= 3
    assert not (tmp_path / "out").exists()


def _correlation_rows(lines, kind):
    rows = (line.split("\t") for line in lines)
    return {(r[1], r[2]): [float(x) for x in r[3].split("+")] for r in rows if r[0] == kind}


def test_cli_metrics_reads_tensor_back(tmp_path, capsys):
    # The tensor holds users in id order but no ids: `metrics` keys pairs
    # by tensor position 0..U-1.
    raw = base_raw()
    users = raw["layout"]["users"]
    users.insert(1, dict(users[0], user_id=9, start_m=[36.0, 0.0, 1.5]))
    cfg = write_config(tmp_path, raw)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["metrics", "--tensor", str(out_dir / "channel.bin")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == METRICS_HEADER
    assert {line.split("\t")[0] for line in out[1:]} == {
        "pair_correlation_mean",
        "pair_correlation",
    }
    written = (out_dir / "metrics.tsv").read_text().splitlines()
    position = {"1": "0", "2": "1", "9": "2"}
    for kind in ("pair_correlation_mean", "pair_correlation"):
        want = {
            (position[u], position[v]): values
            for (u, v), values in _correlation_rows(written, kind).items()
        }
        got = _correlation_rows(out, kind)
        assert got.keys() == want.keys() == {("0", "1"), ("0", "2"), ("1", "2")}
        for key, values in want.items():
            assert len(got[key]) == len(values) == (1 if kind.endswith("mean") else 4)
            # The run holds the complex64 values the tensor file stores.
            assert got[key] == values, (kind, key)


def test_cli_config_error_exits_2(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError:")


def test_cli_clique_cap_exits_2_without_traceback(tmp_path, capsys):
    # 21 users 0.2 m apart: every pair is closer than 2r = 10 m.
    raw = base_raw()
    template = raw["layout"]["users"][0]
    raw["layout"]["users"] = [
        dict(template, user_id=u, start_m=[30.0 + 0.2 * u, 0.0, 1.5]) for u in range(1, 22)
    ]
    cfg = write_config(tmp_path, raw)
    code = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("ComponentTooLarge:")
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("command", ["plan", "run"])
@pytest.mark.parametrize(
    "path",
    [("layout", "array", "n_elements"), ("scenario", "clusters_per_user")],
    ids=["n_elements", "clusters_per_user"],
)
def test_cli_unallocatable_size_exits_3_with_one_line(tmp_path, capsys, command, path):
    # 10**15 elements or clusters per user asks for about 8 PB at once, past
    # any 64-bit user address space, so the allocation fails before
    # touching memory; it ended in a traceback. The clusters' id tuple
    # raises a MemoryError without a message, which reads "out of memory".
    raw = base_raw(output={"dir": str(tmp_path / "out"), "format": "binary"})
    section = raw
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = 10**15
    assert main([command, "--config", str(write_config(tmp_path, raw))]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("MemoryError: ")
    assert len(captured.err.splitlines()) == 1 and captured.err.strip() != "MemoryError:"


def test_cli_bad_tensor_exits_3(tmp_path, capsys):
    bogus = tmp_path / "bogus.bin"
    bogus.write_bytes(b"definitely not a tensor")
    code = main(["metrics", "--tensor", str(bogus)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("ValueError:")


@pytest.mark.parametrize("n_bytes", [0, 1, 35])
def test_cli_truncated_tensor_header_exits_3(tmp_path, capsys, n_bytes):
    # Fewer header bytes than the 36 after the magic reached np.frombuffer,
    # whose message named neither the header nor the sizes.
    cut = tmp_path / "cut.bin"
    cut.write_bytes(MAGIC + b"\x00" * n_bytes)
    assert main(["metrics", "--tensor", str(cut)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"ValueError: truncated header: {n_bytes} of 36 bytes\n"
    assert captured.out == ""


def test_cli_tensor_header_larger_than_file_exits_3(tmp_path, capsys):
    # A header claiming ~1.4 PiB of coefficients, then 100 bytes.
    header = np.zeros(1, dtype=_HEADER_DTYPE)
    header["dims"][0] = (1000, 1, 100000, 1000, 1000)
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(MAGIC + header.tobytes() + b"\x00" * 100)
    code = main(["metrics", "--tensor", str(corrupt)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("ValueError: truncated coefficient block")
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize(
    "dims, rows",
    [
        # No snapshots: empty per-snapshot rows and means of 0.
        ((2, 1, 4, 3, 0), ["pair_correlation_mean\t0\t1\t0.0", "pair_correlation\t0\t1\t"]),
        # No clusters: zero-norm channels correlate 0.
        ((2, 1, 4, 0, 2), ["pair_correlation_mean\t0\t1\t0.0", "pair_correlation\t0\t1\t0.0+0.0"]),
        ((0, 1, 4, 3, 2), []),
    ],
)
def test_cli_metrics_on_header_only_tensor(tmp_path, capsys, dims, rows):
    header = np.zeros(1, dtype=_HEADER_DTYPE)
    header["dims"][0] = dims
    empty = tmp_path / "empty.bin"
    empty.write_bytes(MAGIC + header.tobytes())
    assert main(["metrics", "--tensor", str(empty)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [METRICS_HEADER, *rows]
    assert captured.err == ""


def test_cli_plan_prints_the_written_share_table(tmp_path, capsys):
    raw = base_raw()
    for user in raw["layout"]["users"]:
        user["n_snapshots"] = 20  # two segments
    cfg = write_config(tmp_path, raw)
    assert main(["plan", "--config", str(cfg)]) == 0
    planned = capsys.readouterr().out
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    assert planned == (tmp_path / "out" / "share_table.tsv").read_text()
    assert len(planned.splitlines()) > 3


def _huge_stationarity_smoke(monkeypatch, interval):
    """The benchmark's smoke config with a 1e300 m stationarity interval
    over a 1e-10 m step: a ratio beyond the float range."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    raw = importlib.import_module("workloads").make_config("smoke", 3)
    layout = raw["layout"]
    if interval == "user":
        layout["stationarity_user_m"] = 1e300
        for user in layout["users"]:
            user["snapshot_spacing_m"] = 1e-10
    else:
        layout["bs_stationarity_m"] = 1e300
        layout["array"]["spacing_m"] = 1e-10
    return raw


@pytest.mark.parametrize("interval", ["user", "bs"])
def test_huge_stationarity_ratio_is_one_chunk(tmp_path, capsys, monkeypatch, interval):
    # floor(1e300 / 1e-10) is infinite, and int() of it raised OverflowError
    # in both partitions; the interval spans every sample, so the run is
    # stationary: one segment, or one sub-array.
    raw = _huge_stationarity_smoke(monkeypatch, interval)
    cfg, out = write_config(tmp_path, raw), tmp_path / "out"
    assert main(["plan", "--config", str(cfg)]) == 0
    planned = capsys.readouterr().out
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert capsys.readouterr().err == ""
    layout = parse_config(raw).layout
    header = (out / "cluster_views.tsv").read_text().splitlines()[0].split("\t")
    segments = {line.split("\t")[0] for line in planned.splitlines()[1:]}
    if interval == "user":
        assert len(layout.segments) == 1 and segments == {"0"}
    else:
        assert layout.array.n_subarrays == 1
        assert "fbs0_x_m" in header and "fbs1_x_m" not in header


def test_cli_tensor_with_trailing_bytes_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    tensor = out_dir / "channel.bin"
    tensor.write_bytes(tensor.read_bytes() + b"\x00" * 16)
    code = main(["metrics", "--tensor", str(tensor)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("ValueError: trailing bytes: 16 beyond")
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err + captured.out
