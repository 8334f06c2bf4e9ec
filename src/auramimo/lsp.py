"""Large-scale parameter draws with exponential spatial correlation.

Each LSP field (delay spread, four angular spreads) is log-normal:
value = median * exp(log_std * G) with G a zero-mean unit-variance
Gaussian field over segment-start positions whose correlation decays as
exp(-d / correlation_distance). The field is realized by an
eigendecomposition factor of the covariance sampled at exactly the
positions that are consumed, so no map rasterization is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidScenario, MissingLsp
from .layout import UserLayout

# RNG stream tags; every module draws from its own spawn key so that
# evaluation order and worker scheduling cannot shift any draw.
STREAM_LSP = 0
STREAM_CLUSTERS = 1
STREAM_SCATTERERS = 2


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario distributions and model constants.

    Log-normal fields are given as (median, log-std) pairs with the
    log-std in natural-log units; spreads are medians in seconds or
    degrees. `cluster_angle_spread_deg` is the intra-cluster azimuth
    spread applied to the deterministic scatterer offsets.
    """

    delay_spread_median_s: float
    delay_spread_log_std: float
    aoa_spread_median_deg: float
    aoa_spread_log_std: float
    aod_spread_median_deg: float
    aod_spread_log_std: float
    eoa_spread_median_deg: float
    eoa_spread_log_std: float
    eod_spread_median_deg: float
    eod_spread_log_std: float
    shadow_std_db: float
    r_tau: float
    clusters_per_user: int
    carrier_hz: float
    correlation_distance_m: float
    cluster_angle_spread_deg: float = 3.0

    def __post_init__(self) -> None:
        positive = [
            "delay_spread_median_s",
            "aoa_spread_median_deg",
            "aod_spread_median_deg",
            "eoa_spread_median_deg",
            "eod_spread_median_deg",
            "carrier_hz",
            "correlation_distance_m",
        ]
        for name in positive:
            if not getattr(self, name) > 0:
                raise InvalidScenario(f"{name} must be > 0, got {getattr(self, name)}")
        nonnegative = [
            "delay_spread_log_std",
            "aoa_spread_log_std",
            "aod_spread_log_std",
            "eoa_spread_log_std",
            "eod_spread_log_std",
            "shadow_std_db",
            "cluster_angle_spread_deg",
        ]
        for name in nonnegative:
            if getattr(self, name) < 0:
                raise InvalidScenario(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.r_tau > 1:
            raise InvalidScenario(f"r_tau must be > 1, got {self.r_tau}")
        if self.clusters_per_user < 1:
            raise InvalidScenario("clusters_per_user must be >= 1")
        if not math.isfinite(self.carrier_hz):
            raise InvalidScenario("carrier_hz must be finite")


@dataclass(frozen=True)
class LspValues:
    """Spreads of one user in one segment, finite and > 0 (see `draw_lsp`)."""

    sigma_tau_s: float
    sigma_aoa_deg: float
    sigma_aod_deg: float
    sigma_eoa_deg: float
    sigma_eod_deg: float


@dataclass(frozen=True)
class LspDraw:
    """All users' spreads for all segments of one seeded realization."""

    values: dict[tuple[int, int], LspValues] = field(repr=False, default_factory=dict)

    def of(self, user_id: int, segment_index: int) -> LspValues:
        try:
            return self.values[(user_id, segment_index)]
        except KeyError:
            raise MissingLsp(
                f"no LSP draw for user {user_id}, segment {segment_index}"
            ) from None


def correlated_normals(
    points: np.ndarray,
    correlation_distance_m: float,
    rng: np.random.Generator,
    n_draws: int = 1,
) -> np.ndarray:
    """Zero-mean unit-variance Gaussians over `points`, shape (n_draws, n).

    Correlation between two points is exp(-d / dc). Duplicate points are
    collapsed before factoring so coincident positions get bit-identical
    values; an infinite dc shares a single draw across all points. The
    covariance factor comes from an eigendecomposition with negative
    eigenvalues clipped, which handles the rank deficiency of nearly
    coincident points.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if math.isinf(correlation_distance_m):
        z = rng.standard_normal((n_draws, 1))
        return np.repeat(z, n, axis=1)

    unique, inverse = np.unique(pts, axis=0, return_inverse=True)
    m = unique.shape[0]
    diff = unique[:, None, :] - unique[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    cov = np.exp(-dist / correlation_distance_m)
    eigval, eigvec = np.linalg.eigh(cov)
    factor = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
    z = rng.standard_normal((n_draws, m))
    # One vector-matrix product per draw: a single (n_draws, m) product
    # rounds differently from drawing the fields one at a time.
    return (z[:, None, :] @ factor.T)[:, 0, inverse.ravel()]


_FIELD_SPECS = (
    ("sigma_tau_s", "delay_spread_median_s", "delay_spread_log_std"),
    ("sigma_aoa_deg", "aoa_spread_median_deg", "aoa_spread_log_std"),
    ("sigma_aod_deg", "aod_spread_median_deg", "aod_spread_log_std"),
    ("sigma_eoa_deg", "eoa_spread_median_deg", "eoa_spread_log_std"),
    ("sigma_eod_deg", "eod_spread_median_deg", "eod_spread_log_std"),
)


def draw_lsp(scenario: ScenarioConfig, layout: UserLayout, seed: int) -> LspDraw:
    """Seeded draw of every user's spreads at every segment start.

    Sample points are the segment-start positions in (user, segment)
    order; each LSP field uses an independent correlated Gaussian field,
    one row of a single `correlated_normals` call (the covariance is
    factored once), drawn in a fixed field order from a dedicated RNG
    stream so results do not depend on evaluation order. A field with a
    spread that is not finite and > 0 (a log-std so large that exp
    overflows or underflows) raises InvalidScenario naming its keys.
    """
    keys = [(u, s.index) for u in layout.user_ids for s in layout.segments]
    points = np.array([layout.segment_start_position(u, s) for (u, s) in keys])
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(STREAM_LSP,)))

    draws = correlated_normals(
        points, scenario.correlation_distance_m, rng, n_draws=len(_FIELD_SPECS)
    )
    per_field: dict[str, np.ndarray] = {}
    for (field_name, median_name, std_name), g in zip(_FIELD_SPECS, draws):
        median, log_std = getattr(scenario, median_name), getattr(scenario, std_name)
        with np.errstate(over="ignore", under="ignore"):
            spreads = median * np.exp(log_std * g)
        if not np.all(np.isfinite(spreads) & (spreads > 0)):
            raise InvalidScenario(
                f"{median_name} and {std_name} draw a {field_name} not finite and > 0"
            )
        per_field[field_name] = spreads

    values = {
        key: LspValues(**{name: float(per_field[name][i]) for name in per_field})
        for i, key in enumerate(keys)
    }
    return LspDraw(values=values)
