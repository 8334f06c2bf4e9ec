"""Run diagnostics: inter-user channel correlation, sharing statistics,
and the spherical-vs-planar phase deviation summary. A tensor alone gives
a report with empty sharing fields; `pipeline.run` builds the full one."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from types import MappingProxyType

import numpy as np

from .coefficients import ChannelTensor
from .geom import read_only

# Snapshots per copy out of the tensor: four complex128 values of one
# coefficient fill a 64-byte cache line. Copying one snapshot at a time
# made the crowd benchmark's metrics pass take either about 0.015 s or
# 0.035 s, depending on where the process's buffers landed; four at a
# time took 0.013-0.021 s in every process (2-CPU host).
SNAPSHOTS_PER_COPY = 4


@dataclass(frozen=True)
class MetricsReport:
    """pair_correlation: per-snapshot |h_u^H h_v| / (|h_u| |h_v|) of the
    stacked channel vectors, 0 where a norm is 0, read off each snapshot's
    Gram matrix; means are over snapshots. Sharing counts and planar errors
    need cluster tables, not a tensor: `pipeline.run` builds the report
    once, with them, from `correlation_metrics`' report. Each field is a
    read-only mapping over a copy of the one given."""

    pair_correlation: Mapping[tuple[int, int], np.ndarray] = field(default_factory=dict)
    pair_correlation_mean: Mapping[tuple[int, int], float] = field(default_factory=dict)
    shared_cluster_counts: Mapping[tuple[int, int], int] = field(default_factory=dict)
    planar_error_max_rad: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, MappingProxyType(dict(getattr(self, f.name))))


def _normalized(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return np.minimum(out, 1.0)


def correlation_metrics(tensor: ChannelTensor) -> MetricsReport:
    """pair_correlation of every user pair of a tensor. The snapshots are
    copied SNAPSHOTS_PER_COPY at a time into a reused contiguous (snapshot,
    user, stacked length) block; for each snapshot X in it, one BLAS
    product conj(X) X^T gives every pair's h_u^H h_v, and its real diagonal
    every user's squared norm. A tensor without snapshots reports means
    of 0."""
    n_users, n_rx, n_tx, n_clusters, n_snap = tensor.coefficients.shape
    h = tensor.coefficients.reshape(n_users, n_rx * n_tx * n_clusters, n_snap)
    block = np.empty((min(SNAPSHOTS_PER_COPY, n_snap), *h.shape[:2]), dtype=np.complex128)
    x_conj = np.empty(h.shape[:2], dtype=np.complex128)
    gram = np.empty((n_snap, n_users, n_users), dtype=np.complex128)
    for s0 in range(0, n_snap, SNAPSHOTS_PER_COPY):
        xs = block[: n_snap - s0]
        np.copyto(xs, h[..., s0 : s0 + len(xs)].transpose(2, 0, 1))
        for s, x in enumerate(xs, s0):
            np.conj(x, out=x_conj)
            np.matmul(x_conj, x.T, out=gram[s])
    gram = gram.transpose(1, 2, 0)  # (user, user, snapshot)
    norm = np.sqrt(gram[range(n_users), range(n_users)].real)
    first, second = np.triu_indices(n_users, 1)
    corr = read_only(_normalized(np.abs(gram[first, second]), norm[first] * norm[second]))
    keys = [(tensor.user_ids[i], tensor.user_ids[j]) for i, j in zip(first, second)]
    means = (float(c.mean()) if n_snap else 0.0 for c in corr)
    return MetricsReport(dict(zip(keys, corr)), dict(zip(keys, means)))
