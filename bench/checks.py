"""Output checks run on every sample. Each returns a list of failure
messages; an empty list means the check passed."""

from __future__ import annotations

import hashlib
from pathlib import Path

# Reread correlation against metrics.tsv; float32 storage of the tensor
# gives differences near 1e-10.
CORRELATION_TOLERANCE = 1e-6


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file `write_outputs` wrote, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def _tsv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split("\t") for line in lines[1:]]


def reread_matches_metrics(out_dir: Path, tensor, report, user_ids) -> list[str]:
    """The reread pair_correlation_mean equals metrics.tsv within the
    tolerance, pairs matched by tensor position (users in id order)."""
    position = {u: i for i, u in enumerate(sorted(user_ids))}
    written = {
        (position[int(r[1])], position[int(r[2])]): float(r[3])
        for r in _tsv_rows(out_dir / "metrics.tsv")
        if r[0] == "pair_correlation_mean"
    }
    ids = list(tensor.user_ids)
    reread = {
        (ids.index(a), ids.index(b)): value
        for (a, b), value in report.pair_correlation_mean.items()
    }
    if set(written) != set(reread):
        return [f"reread pairs {sorted(reread)} differ from metrics.tsv {sorted(written)}"]
    errors = []
    for key in sorted(written):
        diff = abs(written[key] - reread[key])
        if not diff <= CORRELATION_TOLERANCE:
            errors.append(f"pair {key}: metrics.tsv {written[key]!r}, reread {reread[key]!r}")
    return errors


def share_counts_conserved(
    out_dir: Path, user_ids, n_segments: int, clusters_per_user: int
) -> list[str]:
    """In share_table.tsv every user's group counts sum to
    clusters_per_user in every segment."""
    totals = {(s, u): 0 for s in range(n_segments) for u in user_ids}
    for r in _tsv_rows(out_dir / "share_table.tsv"):
        for u in r[1].split("+"):
            key = (int(r[0]), int(u))
            if key not in totals:
                return [f"share_table.tsv: unknown segment/user {key}"]
            totals[key] += int(r[4])
    return [
        f"share_table.tsv: segment {s} user {u} has {t} clusters, not {clusters_per_user}"
        for (s, u), t in sorted(totals.items())
        if t != clusters_per_user
    ]
