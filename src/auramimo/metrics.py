"""Run diagnostics: inter-user channel correlation, sharing statistics,
and the spherical-vs-planar phase deviation summary."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import ChannelTensor


@dataclass
class MetricsReport:
    """pair_correlation holds per-snapshot normalized inner products of
    the stacked (tx element x cluster) channel vectors; means are over
    snapshots. Sharing counts and planar errors are filled by the run
    pipeline (they need cluster tables, not just the tensor)."""

    pair_correlation: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    pair_correlation_mean: dict[tuple[int, int], float] = field(default_factory=dict)
    shared_cluster_counts: dict[tuple[int, int], int] = field(default_factory=dict)
    planar_error_max_rad: dict[int, float] = field(default_factory=dict)


def pair_correlation(h_u: np.ndarray, h_v: np.ndarray) -> np.ndarray:
    """|h_u^H h_v| / (|h_u| |h_v|) per snapshot for (vector, snapshot)
    matrices; zero-norm snapshots give 0."""
    num = np.abs(np.sum(np.conj(h_u) * h_v, axis=0))
    return _normalized(num, np.linalg.norm(h_u, axis=0) * np.linalg.norm(h_v, axis=0))


def _normalized(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return np.minimum(out, 1.0)


def correlation_metrics(tensor: ChannelTensor) -> MetricsReport:
    """pair_correlation of every user pair of a tensor; each user's norms
    and each pair's product are taken in one reused user-sized buffer."""
    n_users, n_rx, n_tx, n_clusters, n_snap = tensor.coefficients.shape
    # Stack rx antennas alongside tx x cluster; rx is 1 in practice.
    shape = (n_rx * n_tx * n_clusters, n_snap)
    h = [tensor.coefficients[i].reshape(shape) for i in range(n_users)]
    product = np.empty(shape, dtype=np.complex128)
    norm = []  # np.linalg.norm(h_i, axis=0), its arithmetic without its temporaries
    for h_i in h:
        np.multiply(np.conj(h_i, out=product), h_i, out=product)
        norm.append(np.sqrt(np.add.reduce(product.real, axis=0)))
    report = MetricsReport()
    for i in range(n_users - 1):
        for j in range(i + 1, n_users):
            np.multiply(np.conj(h[i], out=product), h[j], out=product)
            num = np.abs(np.sum(product, axis=0))
            corr = _normalized(num, norm[i] * norm[j])
            key = (tensor.user_ids[i], tensor.user_ids[j])
            report.pair_correlation[key] = corr
            report.pair_correlation_mean[key] = float(corr.mean())
    return report
