"""Run configuration: a single JSON document with explicit units in every
key name. Tracks are either explicit point lists or compact linear
specs; the array is either an explicit element list or a uniform linear
array spec. Parsing normalizes, validates, and builds the layout, so a
parsed config is always runnable."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
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
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ConfigError(
                f"config.output.dir must be a non-empty string, got {self.out_dir!r}"
            )
        if self.out_format not in FORMATS:
            raise ConfigError(
                f"config.output.format must be one of {FORMATS}, got {self.out_format!r}"
            )

    @property
    def total_clusters_per_user(self) -> int:
        return self.scenario.clusters_per_user

    @property
    def carrier_hz(self) -> float:
        return self.scenario.carrier_hz


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _object(value, context: str, known) -> dict:
    """`value` if it is an object whose keys are all in `known`: no typo
    silently takes a default."""
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be an object")
    for key in value:
        if key not in known:
            raise ConfigError(f"{context}.{key}: unknown key (known: {', '.join(known)})")
    return value


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key '{key}'")
    return mapping[key]


def _typed(mapping: dict, key: str, context: str, kind: type):
    """mapping[key] as `kind`: an int key takes an integer, a float key an
    integer or a float that is finite as a float; a bool is neither."""
    value = _require(mapping, key, context)
    ok = _is_int(value) or (kind is float and isinstance(value, float))
    try:
        ok = ok and (kind is int or math.isfinite(value))
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ConfigError(
            f"{context}.{key}: expected finite {kind.__name__}, got {value!r}"
        )
    return kind(value)


def _position(value, context: str) -> tuple[float, float, float]:
    """[x, y, z] as floats: integers or floats that are finite as floats;
    a bool or a string is not a coordinate."""
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{context}: expected [x, y, z], got {value!r}")
    if not all(_is_int(v) or isinstance(v, float) for v in value):
        raise ConfigError(f"{context}: coordinates must be numbers, got {value!r}")
    try:
        point = float(value[0]), float(value[1]), float(value[2])
    except OverflowError as e:  # an integer beyond the float range
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
        listed = isinstance(spec, dict) and "points_m" in spec
        form = ("points_m",) if listed else ("start_m", "heading_deg", "n_snapshots")
        _object(spec, ctx, ("user_id", "snapshot_spacing_m", *form))
        user_id = _typed(spec, "user_id", ctx, int)
        spacing = _typed(spec, "snapshot_spacing_m", ctx, float)
        try:
            if listed:
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
    explicit = isinstance(array_spec, dict) and "element_positions_m" in array_spec
    ula = ("origin_m", "axis", "n_elements", "spacing_m")
    _object(array_spec, context, ("element_positions_m",) if explicit else ula)
    if explicit:
        return [
            _position(p, f"{context}.element_positions_m[{i}]")
            for i, p in enumerate(array_spec["element_positions_m"])
        ]
    origin = _position(_require(array_spec, "origin_m", context), f"{context}.origin_m")
    axis = _position(array_spec.get("axis", [1.0, 0.0, 0.0]), f"{context}.axis")
    n_elements = _typed(array_spec, "n_elements", context, int)
    spacing = _typed(array_spec, "spacing_m", context, float)
    try:
        return uniform_linear_array(
            n_elements=n_elements, spacing_m=spacing, origin=origin, axis=axis
        )
    except ValueError as e:
        raise ConfigError(f"{context}: {e}") from None


def parse_config(raw: dict) -> RunConfig:
    # "workers" is retired: synthesis threads follow the CPUs.
    _object(raw, "config", ("seed", "scenario", "layout", "output", "workers"))
    scen_raw = _require(raw, "scenario", "config")
    _object(scen_raw, "config.scenario", [f.name for f in fields(ScenarioConfig)])
    for f in fields(ScenarioConfig):
        if f.name in scen_raw:
            _typed(scen_raw, f.name, "config.scenario", int if f.type == "int" else float)
    try:
        scenario = ScenarioConfig(**scen_raw)
    except (TypeError, ChannelModelError) as e:  # a missing key, an invalid scenario
        raise ConfigError(f"config.scenario: {e}") from None

    layout_raw = _require(raw, "layout", "config")
    layout_keys = ("users", "array", "stationarity_user_m", "bs_stationarity_m")
    _object(layout_raw, "config.layout", layout_keys)
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

    output = _object(raw.get("output", {}), "config.output", ("format", "dir"))
    return RunConfig(
        scenario=scenario,
        layout=layout,
        seed=raw.get("seed", 0),
        out_dir=output.get("dir", "out"),
        out_format=output.get("format", "binary"),
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
