"""Config parsing and the command-line entry point."""

from __future__ import annotations

import json

import numpy as np
import pytest

from auramimo import (
    ConfigError,
    load_config,
    parse_config,
    read_tensor_binary,
)
from auramimo import cli
from auramimo.cli import main
from auramimo.tables import METRICS_HEADER
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


@pytest.mark.parametrize("value", ["abc", "1.7"])
def test_non_integer_seed_override_is_a_usage_error(tmp_path, capsys, value):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--config", str(cfg), "--seed", value])
    assert exit_info.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


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
            # The tensor file stores float32 coefficients.
            assert np.max(np.abs(np.subtract(got[key], values))) <= 1e-6, (kind, key)


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


def test_cli_bad_tensor_exits_3(tmp_path, capsys):
    bogus = tmp_path / "bogus.bin"
    bogus.write_bytes(b"definitely not a tensor")
    code = main(["metrics", "--tensor", str(bogus)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("ValueError:")


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
