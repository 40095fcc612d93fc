"""Pareto-front utilities for the bi-objective (AR, PR) optimisation.

Conventions: points are (n, 2) arrays where both objectives are to be
*maximised* (callers negate minimisation objectives);
:func:`crowding_distance` also takes any number of objectives.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np


def pareto_mask(points: np.ndarray) -> np.ndarray:
    """Boolean mask of non-dominated rows of ``(n, 2)`` points (maximised).

    A row is dominated when another is >= in both objectives and > in one,
    so equal rows all survive.  Rows holding a NaN are never dominated and
    dominate nothing.  A sort-based sweep, O(n log n): with rows ordered by
    (x desc, y desc), a row is dominated iff some row of strictly larger x
    has y >= its y, or the first (highest-y) row of its equal-x group has a
    larger y.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("pareto_mask expects (n, 2) points")
    mask = np.ones(len(points), dtype=bool)
    rows = np.flatnonzero(~np.isnan(points).any(axis=1))
    if len(rows) < 2:
        return mask
    x, y = points[rows, 0], points[rows, 1]
    order = np.lexsort((-y, -x))
    x, y = x[order], y[order]
    new_group = np.empty(len(x), dtype=bool)
    new_group[0] = True
    np.not_equal(x[1:], x[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    group_start = starts[np.cumsum(new_group) - 1]
    # max y over every row before the group, i.e. of strictly larger x
    best_before = np.maximum.accumulate(y)[np.maximum(group_start - 1, 0)]
    dominated = ((group_start > 0) & (best_before >= y)) | (y[group_start] > y)
    mask[rows[order[dominated]]] = False
    return mask


def pareto_indices(points: np.ndarray) -> np.ndarray:
    """Indices of non-dominated rows."""
    return np.flatnonzero(pareto_mask(points))


def nondominated_sort(points: np.ndarray) -> List[np.ndarray]:
    """NSGA-II non-dominated sorting into fronts (best first).

    Fronts are peeled off with :func:`pareto_mask`; each holds ascending
    row indices.
    """
    points = np.asarray(points, dtype=np.float64)
    remaining = np.arange(len(points))
    fronts: List[np.ndarray] = []
    while len(remaining):
        on_front = pareto_mask(points[remaining])
        fronts.append(remaining[on_front])
        remaining = remaining[~on_front]
    return fronts


def crowding_distance(points: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance (inf at the extremes of each objective)."""
    points = np.asarray(points, dtype=np.float64)
    n, m = points.shape
    distance = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for k in range(m):
        order = np.argsort(points[:, k])
        span = points[order[-1], k] - points[order[0], k]
        distance[order[0]] = distance[order[-1]] = np.inf
        if span <= 0:
            continue
        gaps = (points[order[2:], k] - points[order[:-2], k]) / span
        distance[order[1:-1]] += gaps
    return distance


def hypervolume_2d(points: np.ndarray, reference: Sequence[float]) -> float:
    """Dominated hypervolume for two maximised objectives.

    ``reference`` is the worst corner; points not dominating it contribute
    nothing.
    """
    points = np.asarray(points, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("hypervolume_2d expects (n, 2) points")
    useful = points[np.all(points > ref, axis=1)]
    if len(useful) == 0:
        return 0.0
    front = useful[pareto_mask(useful)]
    front = front[np.argsort(-front[:, 0])]  # descending first objective
    volume = 0.0
    prev_y = ref[1]
    for x, y in front:
        if y > prev_y:
            volume += (x - ref[0]) * (y - prev_y)
            prev_y = y
    return float(volume)


def select_diverse(
    points: np.ndarray, k: int, front: Optional[np.ndarray] = None
) -> np.ndarray:
    """Pick up to ``k`` indices from the Pareto front, preferring spread.

    ``front`` is ``pareto_indices(points)`` when the caller already has it.
    """
    if front is None:
        front = pareto_indices(points)
    if len(front) <= k:
        return front
    distance = crowding_distance(points[front])
    order = np.argsort(-distance)
    return front[order[:k]]
