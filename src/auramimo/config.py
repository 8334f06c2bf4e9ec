"""Run configuration: a single JSON document with explicit units in every
key name. Tracks are either explicit point lists or compact linear
specs; the array is either an explicit element list or a uniform linear
array spec. Parsing normalizes, validates, and builds the layout, so a
parsed config is always runnable."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

from .errors import ChannelModelError, ConfigError
from .layout import Track, UserLayout, build_layout, linear_track, uniform_linear_array
from .lsp import ScenarioConfig

FORMATS = ("binary", "text")


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig
    layout: UserLayout
    seed: int
    out_dir: str
    out_format: str

    def __post_init__(self) -> None:
        # Here, not in parse_config, so command-line overrides are checked too.
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")

    @property
    def total_clusters_per_user(self) -> int:
        return self.scenario.clusters_per_user

    @property
    def carrier_hz(self) -> float:
        return self.scenario.carrier_hz


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key '{key}'")
    return mapping[key]


def _typed(mapping: dict, key: str, context: str, kind: type):
    """mapping[key] as `kind`: an int key takes an integer, a float key an
    integer or a finite float; a bool is neither."""
    value = _require(mapping, key, context)
    real = kind is float and isinstance(value, float) and math.isfinite(value)
    if not (_is_int(value) or real):
        raise ConfigError(
            f"{context}.{key}: expected finite {kind.__name__}, got {value!r}"
        )
    return kind(value)


def _position(value, context: str) -> tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{context}: expected [x, y, z], got {value!r}")
    try:
        point = float(value[0]), float(value[1]), float(value[2])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{context}: {e}") from None
    if not all(map(math.isfinite, point)):
        raise ConfigError(f"{context}: coordinates must be finite, got {list(point)}")
    return point


def _parse_tracks(users: list, context: str) -> list[Track]:
    if not isinstance(users, list) or not users:
        raise ConfigError(f"{context}: 'users' must be a non-empty list")
    tracks = []
    for idx, spec in enumerate(users):
        ctx = f"{context}.users[{idx}]"
        if not isinstance(spec, dict):
            raise ConfigError(f"{ctx}: expected an object")
        user_id = _typed(spec, "user_id", ctx, int)
        spacing = _typed(spec, "snapshot_spacing_m", ctx, float)
        try:
            if "points_m" in spec:
                points = tuple(
                    _position(p, f"{ctx}.points_m[{i}]")
                    for i, p in enumerate(spec["points_m"])
                )
                tracks.append(
                    Track(user_id=user_id, points=points, snapshot_spacing_m=spacing)
                )
            else:
                start = _position(_require(spec, "start_m", ctx), f"{ctx}.start_m")
                spec = {"heading_deg": 0.0, **spec}
                tracks.append(
                    linear_track(
                        user_id=user_id,
                        start=start,
                        heading_deg=_typed(spec, "heading_deg", ctx, float),
                        n_snapshots=_typed(spec, "n_snapshots", ctx, int),
                        snapshot_spacing_m=spacing,
                    )
                )
        except ValueError as e:
            raise ConfigError(f"{ctx}: {e}") from None
    return tracks


def _parse_elements(array_spec: dict, context: str):
    if "element_positions_m" in array_spec:
        return [
            _position(p, f"{context}.element_positions_m[{i}]")
            for i, p in enumerate(array_spec["element_positions_m"])
        ]
    origin = _position(_require(array_spec, "origin_m", context), f"{context}.origin_m")
    axis = array_spec.get("axis", [1.0, 0.0, 0.0])
    if not isinstance(axis, (list, tuple)) or len(axis) != 3:
        raise ConfigError(f"{context}.axis: expected [x, y, z]")
    n_elements = _typed(array_spec, "n_elements", context, int)
    spacing = _typed(array_spec, "spacing_m", context, float)
    try:
        return uniform_linear_array(
            n_elements=n_elements,
            spacing_m=spacing,
            origin=origin,
            axis=tuple(float(a) for a in axis),
        )
    except ValueError as e:
        raise ConfigError(f"{context}: {e}") from None


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    scen_raw = _require(raw, "scenario", "config")
    if not isinstance(scen_raw, dict):
        raise ConfigError("config.scenario must be an object")
    try:
        scenario = ScenarioConfig(**scen_raw)
    except TypeError as e:
        raise ConfigError(f"config.scenario: {e}") from None
    except ChannelModelError as e:
        raise ConfigError(f"config.scenario: {e}") from None

    layout_raw = _require(raw, "layout", "config")
    if not isinstance(layout_raw, dict):
        raise ConfigError("config.layout must be an object")
    tracks = _parse_tracks(_require(layout_raw, "users", "config.layout"), "config.layout")
    elements = _parse_elements(
        _require(layout_raw, "array", "config.layout"), "config.layout.array"
    )
    stationarity_user_m = _typed(layout_raw, "stationarity_user_m", "config.layout", float)
    bs_stationarity_m = _typed(layout_raw, "bs_stationarity_m", "config.layout", float)
    try:
        layout = build_layout(
            tracks=tracks,
            array_elements=elements,
            stationarity_user_m=stationarity_user_m,
            bs_stationarity_m=bs_stationarity_m,
        )
    except (ChannelModelError, ValueError) as e:
        raise ConfigError(f"config.layout: {e}") from None

    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("config.output must be an object")
    out_format = output.get("format", "binary")
    if out_format not in FORMATS:
        raise ConfigError(
            f"config.output.format must be one of {FORMATS}, got {out_format!r}"
        )

    return RunConfig(
        scenario=scenario,
        layout=layout,
        seed=raw.get("seed", 0),
        out_dir=str(output.get("dir", "out")),
        out_format=out_format,
    )


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {p} is not valid JSON: {e}") from None
    return parse_config(raw)
