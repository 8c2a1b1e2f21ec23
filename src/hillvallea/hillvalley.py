"""Hill-valley niche test and fitness-aware clustering.

Two solutions are presumed to share a niche when no interior point of the
segment between them is worse than both endpoints. Clustering sweeps a
selection best-first and attaches each solution to the first of its d+1
nearest better neighbours whose cluster passes the test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import BudgetedObjective


@dataclass(eq=False)
class Solution:
    """A point in the search space with its (minimization) fitness."""

    position: np.ndarray
    fitness: float


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


_FLOAT_MAX = np.finfo(float).max


def _reject_bar(f_left, f_right):
    """Fitness above which a test point separates two solutions, elementwise:
    worse than both beyond floating noise at their fitness scale, so that
    coincident converged solutions never read as separate niches. Two -inf
    ends give -inf: any point above -inf separates them."""
    worst = np.where(f_right > f_left, f_right, f_left)  # Python's max(), NaN rule too
    # a finite scale, so that -inf + scale stays -inf and never reads NaN
    return worst + 1e-12 * np.minimum(np.maximum(1.0, np.abs(worst)), _FLOAT_MAX)


def hill_valley_test(left: np.ndarray, right: np.ndarray, f_left: float, f_right: float,
                     n_test: int, evaluate: BudgetedObjective) -> tuple[bool, int]:
    """Test whether two solutions, at ``left`` and ``right`` with fitnesses
    ``f_left`` and ``f_right``, share a niche.

    The ``n_test`` equidistant points on the segment between the solutions
    are evaluated uncharged in batches of 8, 16, 32, ... points; the
    test rejects at the first point strictly worse than both endpoints. The
    points up to that one (or all, if none is) are then charged in one take.
    Returns ``(same_niche, evaluations_charged)``. If the budget grants
    fewer, the charged points decide, i.e. the test passes.
    """
    if left.shape != right.shape:
        raise ValueError("solutions have mismatched dimensions")
    t = np.arange(1, n_test + 1) / (n_test + 1)
    X, bar = right + t[:, None] * (left - right), _reject_bar(f_left, f_right)
    trial, spent, size, same = evaluate.trial(), 0, 8, True
    while same and spent < n_test:
        worse = np.flatnonzero(trial.batch(X[spent:spent + size]) > bar)
        same = not worse.size
        spent, size = min(n_test, spent + size) if same else spent + int(worse[0]) + 1, 2 * size
    granted = evaluate.counter.take(evaluate.phase, spent)
    return granted < spent or same, granted


#: Grid search: entries per candidate matrix, padding per run, lines per block.
_BLOCK, _SLACK, _LINES = 1 << 17, 8192, 1024


def _k_nearest(XT: np.ndarray, rows: np.ndarray, J: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``rows``, its k nearest earlier rows among ``J`` (which
    broadcasts), in (distance, index) order and padded with inf / -1. Squares
    are summed axis by axis, the sequential sum that ``cdist`` computes."""
    D = 0.0
    for x in XT:
        diff = np.take(x, J) - x[rows, None]
        D = np.add(D, np.multiply(diff, diff, out=diff), out=diff)
    D = np.where(J < rows[:, None], np.sqrt(D, out=D), np.inf)
    J, ar = np.broadcast_to(J, D.shape), np.arange(len(D))[:, None]
    part = np.argsort(D, axis=1)[:, :k + 1]
    near = D[ar, part]
    tie = ((near[:, 1:] == near[:, :-1]) & (near[:, 1:] < np.inf)).any(axis=1)
    if tie.any():
        part[tie] = np.lexsort((J[tie], D[tie]), axis=1)[:, :k + 1]
        near[tie] = D[np.flatnonzero(tie)[:, None], part[tie]]
    return near[:, :k], np.where(near[:, :k] < np.inf, J[ar, part[:, :k]], -1)


def _grid(P: np.ndarray, lo: int) -> tuple:
    """A uniform grid over the rows of P on its 3 widest axes, narrowest first
    (one cell on an axis narrower than a cell), its width refined once for 2
    rows per occupied cell. Returns the width, cells and key stride per axis,
    the rows by key, where each key's rows start, and the cell coordinates of
    rows [lo, len(P)), exact and whole."""
    hi, corner = len(P), P.min(axis=0)
    ext = P.max(axis=0) - corner
    axes = np.argsort(ext, kind="stable")[-3:]
    a = len(axes)
    while (w := (np.prod(ext[axes[-a:]]) / (hi / 2)) ** (1 / a)) >= ext[axes[-a]] and a > 1:
        a -= 1
    X, ext, w = P[:, axes] - corner[axes], ext[axes], w or 1.0  # w 0: all rows coincide
    for refine in (True, False):
        width = np.where(np.arange(len(axes)) < len(axes) - a, np.inf, w)
        n_cell = np.floor(ext / width).astype(np.int64) + 1
        U = X / width
        C = np.floor(U).astype(np.int64)
        stride = np.cumprod(np.append(n_cell[1:], 1)[::-1])[::-1]
        key = C @ stride
        if refine:
            occupied = np.count_nonzero(np.bincount(key))
            w = max(w * max(2.0 * occupied / hi, 0.25) ** (1 / a), ext[-1] / 2 ** 20)
    first = np.concatenate(([0], np.cumsum(np.bincount(key, minlength=np.prod(n_cell)))))
    return w, n_cell, stride, np.argsort(key), first, U[lo:], C[lo:]


def _side_by_side(grids: list) -> tuple:
    """:func:`_grid` tables side by side, with each table's base line and size,
    and the stacked cell coordinates of the grids' query rows."""
    w, n_cell, stride, orders, firsts, u, c = zip(*grids)
    size, runs = np.array([len(o) for o in orders]), np.array([len(f) for f in firsts])
    first = np.concatenate(firsts) + np.repeat(np.cumsum(size) - size, runs)
    return (np.array(w), np.array(n_cell), np.array(stride), np.concatenate(orders), first,
            np.cumsum(runs) - runs, size, np.vstack(u), np.vstack(c))


def _grid_search(positions: np.ndarray, XT: np.ndarray, m: int, k: int,
                 idx: np.ndarray, dist: np.ndarray) -> None:
    """Serve rows [m, n) from a :func:`_grid` per doubling prefix [0, 2 lo),
    lo = m, 2m, 4m, ..., in passes of at most R = 32 m rows: the first five
    prefixes' rows fit R together and go in step, a wider prefix goes alone,
    in R-row chunks sharing its one grid."""
    n, R = len(positions), 32 * m
    prefixes = m << np.arange(((n - 1) // m).bit_length())
    for los in [prefixes[:5], *prefixes[5:, None]]:
        tables = _side_by_side([_grid(positions[:2 * lo], lo) for lo in los])
        for s in range(los[0], min(2 * los[-1], n), R):
            _rounds(XT, k, tables, los, np.arange(s, min(s + R, 2 * los[-1], n)), idx, dist)


def _rounds(XT: np.ndarray, k: int, tables: tuple, los: np.ndarray, rows: np.ndarray,
            idx: np.ndarray, dist: np.ndarray) -> None:
    """Serve ``rows`` of a pass over the prefixes ``los``, all in step: each
    round, a row in [lo, 2 lo) gathers the rows of [0, 2 lo) in the block of
    cells within r of its own (r = 1, 2, 4, ...; past ``_LINES`` lines, the
    whole grid). A row is done once its k-th distance is below its distance
    to the block's nearest face, or the block holds the grid: exact, as a
    distance is never below its projection onto the grid axes."""
    w, n_cell, stride, order, first, base, size, U, C = tables
    n, a, r = XT.shape[1], C.shape[1], 1
    u, c, grid = U[rows - los[0]], C[rows - los[0]], np.searchsorted(los, rows, side="right") - 1
    while rows.size:
        nc, st, q = n_cell[grid], stride[grid], len(rows)
        if (2 * r + 1) ** (a - 1) > _LINES:
            start, count, face = first[base[grid]][:, None], size[grid][:, None], np.full(q, np.inf)
        else:  # the block as runs of keys, one per line of cells along the last axis
            line, valid = base[grid][:, None], np.ones((q, 1), dtype=bool)
            for g in range(a - 1):
                cg = c[:, g:g + 1] + np.arange(-r, r + 1)
                line = (line[:, :, None] + (cg * st[:, g:g + 1])[:, None, :]).reshape(q, -1)
                valid = (valid[:, :, None] & ((cg >= 0) & (cg < nc[:, g:g + 1]))[:, None, :]
                         ).reshape(q, -1)
            ends = np.clip(c[:, -1:, None] + [-r, r + 1], 0, nc[:, -1:, None])
            ends = first[np.where(valid[:, :, None], line[:, :, None] + ends, 0)]
            start, count = ends[..., 0], ends[..., 1] - ends[..., 0]
            low = np.where(c - r > 0, u - (c - r), np.inf).min(axis=1)
            high = np.where(c + r < nc - 1, (c + r + 1) - u, np.inf).min(axis=1)
            face = w[grid] * np.minimum(low, high) * (1 - 1e-9)
        # rows by candidate count, in runs whose padded matrices fit _BLOCK
        total = count.sum(axis=1)
        by_size = np.argsort(total, kind="stable")
        width, done, s = np.maximum(total[by_size], k), np.zeros(q, dtype=bool), 0
        while s < q:
            span = width[s:s + max(1, _BLOCK // width[s])]
            fits = np.count_nonzero((np.arange(1, len(span) + 1) * span <= _BLOCK)
                                    & (np.arange(len(span)) * (span - span[0]) <= _SLACK))
            i, s = by_size[s:s + max(1, fits)], s + max(1, fits)
            n_run, n_row = count[i].ravel(), total[i]
            flat = np.append(order[np.repeat(start[i].ravel() - np.cumsum(n_run) + n_run, n_run)
                                   + np.arange(n_run.sum())], n - 1)  # n - 1 pads: never earlier
            col = np.arange(width[s - 1])
            J = flat[np.where(col < n_row[:, None], (np.cumsum(n_row) - n_row)[:, None] + col, -1)]
            near, cand = _k_nearest(XT, rows[i], J, k)
            done[i] = ok = (near[:, -1] < face[i]) | (face[i] == np.inf)
            idx[rows[i[ok]]], dist[rows[i[ok]]] = cand[ok], near[ok]
        rows, u, c, grid, r = rows[~done], u[~done], c[~done], grid[~done], 2 * r


def _nearest_better(positions: np.ndarray, k: int,
                    chunk: int = 128) -> tuple[np.ndarray, np.ndarray]:
    """Per row i: indices and distances of up to k nearest rows j < i.

    Rows are assumed fitness-sorted, so "earlier" means "better". Output
    arrays have shape (n, k), padded with -1 / inf, each row in (distance,
    index) order. Rows below ``chunk`` are served by a masked distance
    matrix, later rows by :func:`_grid_search`.
    """
    n = len(positions)
    idx = np.full((n, k), -1, dtype=np.int64)
    dist = np.full((n, k), np.inf)
    if n <= 1 or k == 0:
        return idx, dist
    XT, m = np.ascontiguousarray(positions.T), min(chunk, n)
    rows = np.arange(m)
    dist[:m, :min(k, m)], idx[:m, :min(k, m)] = _k_nearest(XT, rows, rows[None, :], k)
    if m < n:
        _grid_search(positions, XT, m, k, idx, dist)
    return idx, dist


def _first_rejects(evaluate: BudgetedObjective, left, right, f_left, f_right,
                   n_test) -> np.ndarray:
    """Whether many hill-valley tests reject at their first point.

    Row i is :func:`hill_valley_test` from ``left[i]`` to ``right[i]`` with
    ``n_test[i]`` points (arguments broadcast), bit for bit. The points are
    evaluated in one batch, uncharged.
    """
    X = right + np.reshape(1.0 / (n_test + 1.0), (-1, 1)) * (left - right)
    return evaluate.trial().batch(X) > _reject_bar(f_left, f_right)


def hill_valley_clustering(positions: np.ndarray, fitness: np.ndarray, volume: float,
                           evaluate: BudgetedObjective) -> tuple[list, bool]:
    """Partition a selection, its (n, d) ``positions`` and n ``fitness``
    values sorted best first, into presumed niches.

    Rows are swept best-first; each is tested against the clusters of its
    d+1 nearest better neighbours (each candidate cluster at most once) with
    a test-point count proportional to the edge length, and founds a new
    cluster when every check fails. On budget exhaustion the rows not yet
    swept found singleton clusters.

    Returns ``(clusters, complete)``: each cluster is an array of its rows,
    best (its founder) first, and clusters come in founder order. ``complete``
    is False when the budget ran out mid-clustering.

    First test points are looked ahead in a batch per neighbour w, for the
    rows whose tests all rejected at their first point before w. A row whose
    first test passes at its only point joins that neighbour's cluster
    outside the loop, which runs over the other rows only and charges every
    evaluation in sweep order.
    """
    n, d = positions.shape
    if not n:
        raise ValueError("selection must be nonempty")
    spacing = expected_edge_length(volume, n, d)

    # row i is reached only once each row before it has spent an evaluation
    reach = min(n, evaluate.counter.remaining + 1)
    nb_idx, nb_dist = _nearest_better(positions[:reach], min(d + 1, max(n - 1, 1)))
    reject = np.zeros(nb_idx.shape, dtype=bool)
    easy = np.zeros(n, dtype=bool)
    rows = np.arange(1, reach)
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
    root = np.arange(n)
    root[:reach] = np.where(easy[:reach], nb_idx[:, 0], root[:reach])
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
            same, _ = hill_valley_test(positions[neighbour], positions[i], fitness[neighbour],
                                       fitness[i], test_point_count(nb_dist[i, j], spacing),
                                       evaluate)
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
    return [order[a:b] for a, b in zip([0] + ends, ends)], tail == n
