"""Aura-overlap grouping and cluster-count allocation.

Users whose auras overlap are connected in a proximity graph; its
connected components are the candidate sharing pools. Inside a
component, every subset of users that huddles within one aura radius of
its centroid gets a proportion of common clusters that shrinks linearly
with the subset's mean centroid distance; only cliques of users pairwise
closer than 2r can huddle, so only those (at most MAX_CLIQUES) are
enumerated. Proportions then become integer per-subset cluster counts so
that every user ends up with exactly the configured number of clusters.

All overlap and centroid-distance computations are horizontal (x, y):
auras are circles, not spheres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ComponentTooLarge
from .layout import Aura, UserLayout

# Enumeration is exponential: allow only as many cliques as one of this size has.
MAX_CLIQUE_USERS = 20
MAX_CLIQUES = 2**MAX_CLIQUE_USERS - MAX_CLIQUE_USERS - 1

# Cliques per array pass of the huddle test: keeps its arrays to a few MB
# (one pass per size took a 20-user clique's grouping from 232 to 348 MB).
HUDDLE_CHUNK = 4096

# Intended-integer guard for floor(proportion * total): products that land
# within this of an integer from below are treated as that integer.
_FLOOR_NUDGE = 1e-9


@dataclass(frozen=True)
class OverlapGraph:
    """Users as vertices, aura overlaps as edges (pairs stored u < v)."""

    vertices: tuple[int, ...]
    edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class GroupShare:
    """One sharing group in a segment's allocation table.

    `proportion` is the clamped raw share, `scaled_proportion` the value
    actually used for counting after per-user overload rescaling. For
    singleton groups `scaled_proportion` is the user's leftover share and
    `count` the leftover cluster count.
    """

    members: tuple[int, ...]
    proportion: float
    scaled_proportion: float
    count: int
    cluster_ids: tuple[int, ...]


@dataclass(frozen=True)
class ShareTable:
    """Per-segment allocation: groups with counts and cluster ids.

    Invariant (checked): for every user the counts of all groups
    containing that user sum to exactly `total_clusters_per_user`.
    """

    segment_index: int
    total_clusters_per_user: int
    groups: tuple[GroupShare, ...]

    def __post_init__(self) -> None:
        totals: dict[int, int] = {}
        for g in self.groups:
            for u in g.members:
                totals[u] = totals.get(u, 0) + g.count
        bad = {u: t for u, t in totals.items() if t != self.total_clusters_per_user}
        if bad:
            raise ValueError(
                f"cluster-count conservation violated for users {sorted(bad)}: {bad}"
            )

    @property
    def users(self) -> tuple[int, ...]:
        return tuple(sorted({u for g in self.groups for u in g.members}))

    @property
    def cluster_ids(self) -> tuple[int, ...]:
        return tuple(sorted(c for g in self.groups for c in g.cluster_ids))


def build_overlap_graph(auras: dict[int, Aura]) -> OverlapGraph:
    """Edge between two users iff their aura centers are closer than the
    sum of the radii (strict; tangent circles do not couple)."""
    users = tuple(sorted(auras))
    radii = {a.radius_m for a in auras.values()}
    if len(radii) > 1:
        raise ValueError(f"aura radii must be identical, got {sorted(radii)}")
    edges = set()
    for u, v in combinations(users, 2):
        limit = auras[u].radius_m + auras[v].radius_m
        cu, cv = auras[u].center, auras[v].center
        if math.hypot(cu[0] - cv[0], cu[1] - cv[1]) < limit:
            edges.add((u, v))
    return OverlapGraph(vertices=users, edges=frozenset(edges))


def connected_components(graph: OverlapGraph) -> tuple[tuple[int, ...], ...]:
    """Maximal connected user sets, depth-first, sorted by smallest member."""
    adjacency: dict[int, set[int]] = {u: set() for u in graph.vertices}
    for u, v in graph.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)

    seen: set[int] = set()
    components: list[tuple[int, ...]] = []
    for u in graph.vertices:
        if u in seen:
            continue
        stack = [u]
        comp: list[int] = []
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            comp.append(node)
            stack.extend(sorted(adjacency[node] - seen, reverse=True))
        components.append(tuple(sorted(comp)))
    components.sort(key=lambda c: c[0])
    return tuple(components)


def _centroid_distances(points: np.ndarray) -> tuple[list[float], list[float]]:
    """Mean and max horizontal member distance to the subset centroid, of
    S subsets of N members each, from their points (S, N, 2)."""
    dists = np.linalg.norm(points - points.mean(axis=1, keepdims=True), axis=2)
    return dists.mean(axis=1).tolist(), dists.max(axis=1).tolist()


def _bits(mask: int):
    """Indices of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _clique_count(later: list[int], cap: int) -> int:
    """Multi-user cliques from the later-neighbour bitmasks; stops once past `cap`."""
    count, extends = 0, later
    while extends:
        count += sum(e.bit_count() for e in extends)
        extends = [e & later[v] for e in extends for v in _bits(e)] if count <= cap else []
    return count


def compute_proportions(
    component: tuple[int, ...],
    positions: dict[int, np.ndarray],
    radius_m: float,
) -> dict[tuple[int, ...], float]:
    """Raw sharing proportions for every subset of one component.

    Sizes are visited ascending. Singletons start at 1. An N-subset
    (N >= 2) whose members all lie strictly within one radius of the
    subset centroid gets p = 1 - md/radius (md = mean member distance to
    the centroid) and immediately debits p/(N-1) from each of its
    (N-1)-subsets; a subset whose members straggle beyond the radius
    shares nothing and debits nothing. Debits can drive values negative;
    downstream normalization clamps. Only cliques of members pairwise
    closer than 2r can huddle; they are tested in `combinations` order per
    size, and more than MAX_CLIQUES of them raise ComponentTooLarge first.
    """
    members = tuple(sorted(component))
    pts = np.array([positions[u][:2] for u in members])
    # The slack, far above the rounding of the centroid test, only adds pairs.
    limit = 2.0 * radius_m + 1e-9 * (2.0 * radius_m + np.abs(pts).max())
    close = np.triu(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1) < limit, 1)
    # Bit j of later[i]: j > i and members i and j are closer than the limit.
    later = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in close]
    if _clique_count(later, MAX_CLIQUES) > MAX_CLIQUES:
        raise ComponentTooLarge(
            f"component of {len(members)} users has over {MAX_CLIQUES} cliques of users pairwise "
            f"closer than {2 * radius_m:g} m, more than one {MAX_CLIQUE_USERS}-user clique has"
        )
    proportions: dict[tuple[int, ...], float] = {(u,): 1.0 for u in members}
    # A clique extended by each later member adjacent to all of it, ascending,
    # gives the next size in `combinations` order.
    cliques = [((u,), later[i]) for i, u in enumerate(members)]
    while cliques:
        cliques = [(c + (members[v],), ext & later[v]) for c, ext in cliques for v in _bits(ext)]
        for start in range(0, len(cliques), HUDDLE_CHUNK):
            chunk = cliques[start : start + HUDDLE_CHUNK]
            rows = np.searchsorted(members, [c for c, _ in chunk])
            mean, farthest = _centroid_distances(pts[rows])
            for (subset, _), md, far in zip(chunk, mean, farthest):
                if far >= radius_m:
                    continue  # subset does not huddle: shares nothing
                p = 1.0 - md / radius_m
                proportions[subset] = proportions.get(subset, 0.0) + p
                debit = p / (len(subset) - 1)
                for sub in combinations(subset, len(subset) - 1):
                    proportions[sub] = proportions.get(sub, 0.0) - debit
    return proportions


def normalize_and_count(
    raw_proportions: dict[tuple[int, ...], float],
    total_clusters_per_user: int,
    *,
    segment_index: int = 0,
    id_base: int = 0,
) -> ShareTable:
    """Turn raw proportions into an integer allocation table.

    Multi-user proportions are clamped to [0, 1]; any group whose most
    loaded member would exceed a total share of 1 is rescaled by that
    member's load; group count = floor(scaled * total); each user's
    leftover goes to their singleton group, which is therefore never
    negative. Cluster ids are assigned contiguously from `id_base` in a
    deterministic group order.
    """
    if total_clusters_per_user < 1:
        raise ValueError("total_clusters_per_user must be at least 1")
    users = sorted({u for subset in raw_proportions for u in subset})

    clamped = {
        s: min(1.0, max(0.0, p)) for s, p in raw_proportions.items() if len(s) >= 2
    }
    load = {u: sum(p for s, p in clamped.items() if u in s) for u in users}

    scaled: dict[tuple[int, ...], float] = {}
    counts: dict[tuple[int, ...], int] = {}
    for subset, p in clamped.items():
        worst = max(load[u] for u in subset)
        sp = p / worst if worst > 1.0 else p
        scaled[subset] = sp
        counts[subset] = int(sp * total_clusters_per_user + _FLOOR_NUDGE)

    order = sorted(counts, key=lambda s: (s[0], -len(s), s))
    kept = [s for s in order if counts[s] > 0 or scaled[s] > 0.0]

    groups: list[GroupShare] = []
    next_id = id_base
    singleton_used: dict[int, int] = {u: 0 for u in users}
    singleton_scaled: dict[int, float] = {u: 1.0 for u in users}
    for subset in kept:
        ids = tuple(range(next_id, next_id + counts[subset]))
        next_id += counts[subset]
        for u in subset:
            singleton_used[u] += counts[subset]
            singleton_scaled[u] -= scaled[subset]
        groups.append(
            GroupShare(
                members=subset,
                proportion=clamped[subset],
                scaled_proportion=scaled[subset],
                count=counts[subset],
                cluster_ids=ids,
            )
        )

    singles: list[GroupShare] = []
    for u in users:
        count = total_clusters_per_user - singleton_used[u]
        ids = tuple(range(next_id, next_id + count))
        next_id += count
        raw_single = raw_proportions.get((u,), 1.0)
        singles.append(
            GroupShare(
                members=(u,),
                proportion=min(1.0, max(0.0, raw_single)),
                scaled_proportion=max(0.0, singleton_scaled[u]),
                count=count,
                cluster_ids=ids,
            )
        )

    table = sorted(groups + singles, key=lambda g: (g.members[0], -len(g.members), g.members))
    return ShareTable(
        segment_index=segment_index,
        total_clusters_per_user=total_clusters_per_user,
        groups=tuple(table),
    )


def share_table_for_segment(
    layout: UserLayout,
    segment_index: int,
    total_clusters_per_user: int,
    *,
    id_base: int = 0,
) -> ShareTable:
    """Overlap graph -> components -> proportions -> counted table."""
    auras = {u: layout.aura_of(u, segment_index) for u in layout.user_ids}
    positions = {
        u: layout.segment_start_position(u, segment_index) for u in layout.user_ids
    }
    graph = build_overlap_graph(auras)
    raw: dict[tuple[int, ...], float] = {}
    for component in connected_components(graph):
        raw.update(compute_proportions(component, positions, layout.stationarity_user_m))
    return normalize_and_count(
        raw, total_clusters_per_user, segment_index=segment_index, id_base=id_base
    )
