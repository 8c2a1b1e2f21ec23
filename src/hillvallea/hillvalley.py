"""Hill-valley niche test and fitness-aware clustering.

Two solutions are presumed to share a niche when no interior point of the
segment between them is worse than both endpoints. Clustering sweeps a
selection best-first and attaches each solution to the first of its d+1
nearest better neighbours whose cluster passes the test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist


@dataclass(eq=False)
class Solution:
    """A point in the search space with its (minimization) fitness."""

    position: np.ndarray
    fitness: float


@dataclass(eq=False)
class Cluster:
    """Solutions presumed to share one niche; the founder (best) comes first."""

    members: list

    @property
    def founder(self) -> Solution:
        return self.members[0]

    def __len__(self) -> int:
        return len(self.members)

    def positions(self) -> np.ndarray:
        return np.array([s.position for s in self.members])


@dataclass(eq=False)
class ClusterSet:
    """Clusters ordered by founder fitness, best first.

    ``complete`` is False when the evaluation budget ran out mid-clustering
    and the remaining solutions were placed as untested singletons.
    """

    clusters: list
    complete: bool = True

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self):
        return iter(self.clusters)


def expected_edge_length(volume: float, n: int, d: int) -> float:
    """Spacing of n points spread evenly over a search space of given volume."""
    if volume <= 0 or n <= 0 or d <= 0:
        raise ValueError("volume, n and d must be positive")
    return (volume / n) ** (1.0 / d)


def test_point_count(edge_length: float, eel: float) -> int:
    """Number of interior test points for an edge: 1 + floor(length / eel)."""
    if eel <= 0:
        raise ValueError("expected edge length must be positive")
    return 1 + int(math.floor(edge_length / eel))


def hill_valley_test(x_left: Solution, x_right: Solution, n_test: int,
                     evaluate: Callable) -> tuple[bool, int]:
    """Test whether two solutions share a niche.

    Evaluates up to ``n_test`` equidistant points on the segment between the
    solutions and rejects at the first point strictly worse than both
    endpoints. Returns ``(same_niche, evaluations_spent)``. If the budget runs
    out mid-test the points seen so far decide, i.e. the test passes.
    """
    left = x_left.position
    right = x_right.position
    if left.shape != right.shape:
        raise ValueError("solutions have mismatched dimensions")
    worst = max(x_left.fitness, x_right.fitness)
    # strictly worse beyond floating noise at the endpoints' fitness scale,
    # so coincident converged solutions never read as separate niches
    bar = worst + 1e-12 * max(1.0, abs(worst))
    segment = left - right
    for k in range(1, n_test + 1):
        f = evaluate(right + (k / (n_test + 1)) * segment)
        if f is None:
            return True, k - 1
        if f > bar:
            return False, k
    return True, n_test


def _nearest_better(positions: np.ndarray, k: int,
                    chunk: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Per row i: indices and distances of up to k nearest rows j < i.

    Rows are assumed fitness-sorted, so "earlier" means "better". Output
    arrays have shape (n, k), padded with -1 / inf, each row in distance
    order. Rows below ``chunk`` are served by a masked distance matrix. Later
    rows, taken in doubling prefixes, query one k-d tree per prefix: rows in
    [P/2, P) ask the tree over [0, P) for 2k+4 neighbours and keep the first
    k with a smaller index; a row that finds fewer asks again for twice as
    many.
    """
    n = len(positions)
    idx = np.full((n, k), -1, dtype=np.int64)
    dist = np.full((n, k), np.inf)
    if n <= 1 or k == 0:
        return idx, dist

    m = min(chunk, n)
    local = cdist(positions[:m], positions[:m])
    local[~np.tri(m, k=-1, dtype=bool)] = np.inf  # j >= i: not a better row
    kl = min(k, m)
    sel = np.argpartition(local, kl - 1, axis=1)[:, :kl]
    near_d = np.take_along_axis(local, sel, axis=1)
    order = np.argsort(near_d, axis=1, kind="stable")
    dist[:m, :kl] = np.take_along_axis(near_d, order, axis=1)
    idx[:m, :kl] = np.take_along_axis(sel, order, axis=1)
    idx[:m][~np.isfinite(dist[:m])] = -1

    lo = m
    while lo < n:
        hi = min(2 * lo, n)
        tree = cKDTree(positions[:hi], balanced_tree=False, compact_nodes=False)
        rows = np.arange(lo, hi)
        want = 2 * k + 4
        while rows.size:
            asked = min(want, hi)
            near_d, near_i = tree.query(positions[rows], k=asked)
            better = near_i < rows[:, None]
            rank = np.cumsum(better, axis=1)
            # with the whole prefix asked for, every better row is in hand
            done = (rank[:, -1] >= k) | (asked == hi)
            r, c = np.nonzero(better & (rank <= k) & done[:, None])
            idx[rows[r], rank[r, c] - 1] = near_i[r, c]
            dist[rows[r], rank[r, c] - 1] = near_d[r, c]
            rows = rows[~done]
            want *= 2
        lo = hi
    return idx, dist


def _sorted_by_fitness(selection: Sequence[Solution]) -> list:
    return sorted(selection, key=lambda s: s.fitness)  # stable: input order breaks ties


def average_edge_length(selection: Sequence[Solution]) -> float:
    """Mean distance from each solution to its nearest better solution.

    Fallback spacing estimate for when the search-space volume is unknown.
    """
    ordered = _sorted_by_fitness(selection)
    if len(ordered) < 2:
        raise ValueError("need at least two solutions to measure edges")
    positions = np.array([s.position for s in ordered])
    _, dist = _nearest_better(positions, 1)
    return float(dist[1:, 0].mean())


def hill_valley_clustering(selection: Sequence[Solution], volume: float, d: int,
                           evaluate: Callable, *,
                           eel: Optional[float] = None) -> ClusterSet:
    """Partition a selection into presumed niches.

    Solutions are swept best-first; each is tested against the clusters of
    its d+1 nearest better neighbours (each candidate cluster at most once)
    with a test-point count proportional to the edge length, and founds a new
    cluster when every check fails. ``eel`` overrides the volume-based
    expected edge length. On budget exhaustion the solutions not yet swept
    found singleton clusters and the result is flagged incomplete.
    """
    if not selection:
        raise ValueError("selection must be nonempty")
    ordered = _sorted_by_fitness(selection)
    n = len(ordered)
    spacing = eel if eel is not None else expected_edge_length(volume, n, d)

    positions = np.array([s.position for s in ordered])
    nb_idx, nb_dist = _nearest_better(positions, min(d + 1, n - 1))

    members: list[list] = [[ordered[0]]]
    cluster_of = np.zeros(n, dtype=np.int64)
    complete = True
    for i in range(1, n):
        if getattr(evaluate, "exhausted", False):
            # untested tail: one singleton each
            for j in range(i, n):
                members.append([ordered[j]])
            complete = False
            break
        checked = set()
        joined = False
        for j in range(min(i, d + 1)):
            neighbour = nb_idx[i, j]
            cluster = cluster_of[neighbour]
            if cluster in checked:
                continue  # a rejected cluster rejects its later neighbours too
            checked.add(cluster)
            n_t = test_point_count(nb_dist[i, j], spacing)
            same, _ = hill_valley_test(ordered[neighbour], ordered[i], n_t, evaluate)
            if same:
                members[cluster].append(ordered[i])
                cluster_of[i] = cluster
                joined = True
                break
        if not joined:
            members.append([ordered[i]])
            cluster_of[i] = len(members) - 1

    return ClusterSet(clusters=[Cluster(m) for m in members], complete=complete)
