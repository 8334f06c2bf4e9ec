"""Seeded benchmark workloads.

Each workload is a run configuration in the same JSON format that
`auramimo run --config` reads. The seed jitters every user's start
position by up to JITTER_M in x and y and is also the simulator seed, so
one seed fixes both the geometry and every draw. The jitter is small
enough that the aura-overlap structure of a workload (one component of
all users, or no overlap at all) is the same for every seed; the harness
asserts that structure before it times anything.

All workloads use the scenario of the README and tests/conftest.py
(7 clusters per user at 3.5 GHz), a 0.05 m ULA at (0, 0, 10), users on
parallel +y tracks with 0.5 m snapshot spacing, 5 m user stationarity
and 0.8 m BS stationarity (16 elements per sub-array).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from counters import segment_components

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

STATIONARITY_USER_M = 5.0
BS_STATIONARITY_M = 0.8
SNAPSHOT_SPACING_M = 0.5
ELEMENT_SPACING_M = 0.05
FIRST_USER_X_M = 30.0
USER_HEIGHT_M = 1.5
# Auras of radius 5 m overlap below 10 m: 3 +- 2*0.5 m spacings always
# overlap with their neighbours, 20 - 2*0.5 m spacings never do.
JITTER_M = 0.5

ONE_COMPONENT = "one-component"
NO_OVERLAP = "no-overlap"


@dataclass(frozen=True)
class Workload:
    n_users: int
    user_spacing_m: float
    n_elements: int
    n_snapshots: int
    workers: int
    structure: str


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "crowd": Workload(16, 3.0, 256, 50, 1, ONE_COMPONENT),
    "sparse": Workload(16, 20.0, 256, 100, 2, NO_OVERLAP),
    "wide": Workload(4, 3.0, 1024, 100, 1, ONE_COMPONENT),
    # Not a benchmark workload: the harness smoke test runs it.
    "smoke": Workload(2, 3.0, 64, 20, 1, ONE_COMPONENT),
}


def make_config(name: str, seed: int) -> dict:
    """The run configuration of workload `name` for `seed`."""
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    users = []
    for k in range(spec.n_users):
        x = FIRST_USER_X_M + k * spec.user_spacing_m + rng.uniform(-JITTER_M, JITTER_M)
        y = rng.uniform(-JITTER_M, JITTER_M)
        users.append(
            {
                "user_id": k + 1,
                "start_m": [x, y, USER_HEIGHT_M],
                "heading_deg": 90.0,
                "n_snapshots": spec.n_snapshots,
                "snapshot_spacing_m": SNAPSHOT_SPACING_M,
            }
        )
    return {
        "seed": seed,
        "workers": spec.workers,
        "scenario": dict(SCENARIO),
        "layout": {
            "stationarity_user_m": STATIONARITY_USER_M,
            "bs_stationarity_m": BS_STATIONARITY_M,
            "array": {
                "n_elements": spec.n_elements,
                "spacing_m": ELEMENT_SPACING_M,
                "origin_m": [0.0, 0.0, 10.0],
            },
            "users": users,
        },
        "output": {"dir": "out", "format": "binary"},
    }


def check_structure(name: str, config) -> None:
    """Raise ValueError unless every segment of the parsed `config` has
    the aura-component structure workload `name` was chosen for."""
    layout = config.layout
    for segment in layout.segments:
        sizes = sorted(len(c) for c in segment_components(layout, segment.index))
        if WORKLOADS[name].structure == ONE_COMPONENT:
            ok = sizes == [len(layout.user_ids)]
        else:
            ok = set(sizes) == {1}
        if not ok:
            raise ValueError(
                f"workload {name}: segment {segment.index} has component sizes "
                f"{sizes}, expected {WORKLOADS[name].structure}"
            )
