"""Hill-valley niche test and fitness-aware clustering.

Two solutions are presumed to share a niche when no interior point of the
segment between them is worse than both endpoints. Clustering sweeps a
selection best-first and attaches each solution to the first of its d+1
nearest better neighbours whose cluster passes the test.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .problems import BudgetedObjective


@dataclass(eq=False)
class Solution:
    """A point in the search space with its (minimization) fitness."""

    position: np.ndarray
    fitness: float


@dataclass(eq=False)
class Selection(Sequence):
    """Solutions as arrays, best first: row r is ``positions[r]`` with ``fitness[r]``.

    ``solutions`` maps rows to their objects; a row's is built when first read."""

    positions: np.ndarray
    fitness: np.ndarray
    solutions: dict

    def __len__(self) -> int:
        return len(self.fitness)

    def __getitem__(self, r: int) -> Solution:
        if r not in self.solutions:
            r = range(len(self))[r]  # one key per row; IndexError past either end
            self.solutions.setdefault(r, Solution(self.positions[r], float(self.fitness[r])))
        return self.solutions[r]


class Cluster:
    """Rows of a selection presumed to share one niche, best first."""

    def __init__(self, selection: Selection, rows: np.ndarray):
        self.selection, self.rows = selection, rows

    @property
    def members(self) -> list:
        return [self.selection[r] for r in self.rows.tolist()]

    @property
    def founder(self) -> Solution:
        return self.selection[self.rows[0]]

    def __len__(self) -> int:
        return len(self.rows)

    def positions(self) -> np.ndarray:
        return self.selection.positions[self.rows]


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


def _reject_bar(f_left, f_right):
    """Fitness above which a test point separates two solutions, elementwise:
    worse than both beyond floating noise at their fitness scale, so that
    coincident converged solutions never read as separate niches."""
    worst = np.where(f_right > f_left, f_right, f_left)  # Python's max(), NaN rule too
    return worst + 1e-12 * np.maximum(1.0, np.abs(worst))


def hill_valley_test(x_left: Solution, x_right: Solution, n_test: int,
                     evaluate: BudgetedObjective) -> tuple[bool, int]:
    """Test whether two solutions share a niche.

    The ``n_test`` equidistant points on the segment between the solutions
    are evaluated in one batch on a trial count; the test rejects at the first
    point strictly worse than both endpoints. The points up to that one (or
    all, if none is) are then charged in one take. Returns ``(same_niche,
    evaluations_charged)``. If the budget grants fewer, the charged points
    decide, i.e. the test passes.
    """
    left, right = x_left.position, x_right.position
    if left.shape != right.shape:
        raise ValueError("solutions have mismatched dimensions")
    t = np.arange(1, n_test + 1) / (n_test + 1)
    f = evaluate.trial(n_test).batch(right + t[:, None] * (left - right))
    worse = np.flatnonzero(f > _reject_bar(x_left.fitness, x_right.fitness))
    spent = int(worse[0]) + 1 if worse.size else n_test
    granted = evaluate.counter.take(evaluate.phase, spent)
    return granted < spent or not worse.size, granted


def _nearest_better(positions: np.ndarray, k: int,
                    chunk: int = 128) -> tuple[np.ndarray, np.ndarray]:
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


def _first_rejects(evaluate: BudgetedObjective, left, right, f_left, f_right,
                   n_test) -> np.ndarray:
    """Whether many hill-valley tests reject at their first point.

    Row i is :func:`hill_valley_test` from ``left[i]`` to ``right[i]`` with
    ``n_test[i]`` points (arguments broadcast), bit for bit. The points are
    evaluated in one batch on a trial count, uncharged.
    """
    X = right + np.reshape(1.0 / (n_test + 1.0), (-1, 1)) * (left - right)
    return evaluate.trial(len(X)).batch(X) > _reject_bar(f_left, f_right)


def hill_valley_clustering(selection: Selection, volume: float, d: int,
                           evaluate: BudgetedObjective) -> ClusterSet:
    """Partition a selection into presumed niches.

    Solutions are swept best-first; each is tested against the clusters of
    its d+1 nearest better neighbours (each candidate cluster at most once)
    with a test-point count proportional to the edge length, and founds a new
    cluster when every check fails. On budget exhaustion the solutions not
    yet swept found singleton clusters and the result is flagged incomplete.

    First test points are looked ahead in a batch per neighbour w, for the
    rows whose tests all rejected at their first point before w. A row whose
    first test passes at its only point joins that neighbour's cluster
    outside the loop, which runs over the other rows only and charges every
    evaluation in sweep order.
    """
    if not selection:
        raise ValueError("selection must be nonempty")
    positions, fitness = selection.positions, selection.fitness
    n = len(selection)
    spacing = expected_edge_length(volume, n, d)

    nb_idx, nb_dist = _nearest_better(positions, min(d + 1, max(n - 1, 1)))
    reject = np.zeros(nb_idx.shape, dtype=bool)
    easy = np.zeros(n, dtype=bool)
    # row i is reached only once each row before it has spent an evaluation
    rows = np.arange(1, min(n, evaluate.counter.remaining + 1))
    for w in range(nb_idx.shape[1]):
        rows = rows[rows > w]
        if not rows.size:
            break
        nb = nb_idx[rows, w]
        n_test = np.floor(nb_dist[rows, w] / spacing) + 1.0
        reject[rows, w] = _first_rejects(
            evaluate, positions[nb], positions[rows], fitness[nb], fitness[rows], n_test)
        if w == 0:  # passes at its first and only point
            easy[rows] = ~reject[rows, 0] & (n_test == 1.0)
        rows = rows[reject[rows, w]]
    # an easy row joins the first row up its neighbour chain that is not easy
    root = np.where(easy, nb_idx[:, 0], np.arange(n))
    while not np.array_equal(root[root], root):
        root = root[root]

    cluster_of = np.zeros(n, dtype=np.int64)
    n_clusters, prev, tail = 1, 0, n  # tail: first row of the untested tail
    for i in np.flatnonzero(~easy)[1:].tolist() + [n]:
        gap = i - prev - 1  # easy rows since the last row swept here
        if gap:
            granted = evaluate.counter.take(evaluate.phase, gap)
            if granted < gap:
                tail = prev + 1 + granted
                break
        if i == n:
            break
        if evaluate.exhausted:
            tail = i
            break
        checked = set()
        for j in range(min(i, d + 1)):
            neighbour = nb_idx[i, j]
            cluster = cluster_of[root[neighbour]]
            if cluster in checked:
                continue  # a rejected cluster rejects its later neighbours too
            checked.add(cluster)
            if reject[i, j] and evaluate.counter.take(evaluate.phase, 1):
                continue  # rejected at its looked-ahead first point
            same, _ = hill_valley_test(selection[neighbour], selection[i],
                                       test_point_count(nb_dist[i, j], spacing), evaluate)
            if same:
                cluster_of[i] = cluster
                break
        else:
            cluster_of[i] = n_clusters
            n_clusters += 1
        prev = i

    # the untested tail founds one singleton each
    labels = cluster_of[root]
    labels[tail:] = np.arange(n_clusters, n_clusters + n - tail)
    order, ends = np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels)).tolist()
    return ClusterSet([Cluster(selection, order[a:b]) for a, b in zip([0] + ends, ends)],
                      tail == n)
