"""Hot numeric kernel: dense linear-sum assignment.

The solver is the O(n^3) shortest-augmenting-path algorithm with row/column
potentials (Kuhn-Munkres family), with the inner column scan vectorized in
numpy.
"""

from __future__ import annotations

import numpy as np

# perfbench/run.py reads this to record the solver lane; numpy is the only lane.
HAS_NUMBA = False


def _assignment_numpy(cost):
    """Shortest-augmenting-path assignment; minimizes total cost."""
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    col_row = np.full(n + 1, -1, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(n):
        col_row[n] = i
        j0 = n
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = col_row[j0]
            free = ~used[:n]
            cur = cost[i0, :n] - u[i0] - v[:n]
            better = free & (cur < minv[:n])
            minv[:n] = np.where(better, cur, minv[:n])
            way[:n][better] = j0
            masked = np.where(free, minv[:n], np.inf)
            j1 = int(np.argmin(masked))
            delta = masked[j1]
            u[col_row[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if col_row[j0] == -1:
                break
        while j0 != n:
            j1 = way[j0]
            col_row[j0] = col_row[j1]
            j0 = j1
    row_col = np.empty(n, dtype=np.int64)
    for j in range(n):
        row_col[col_row[j]] = j
    return row_col


def min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Row-to-column permutation minimizing the total cost of a square matrix."""
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {cost.shape}")
    if cost.size and not np.isfinite(cost).all():
        raise ValueError("cost matrix entries must be finite")
    if cost.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    return _assignment_numpy(cost)


def max_score_assignment(scores: np.ndarray) -> np.ndarray:
    """Row-to-column permutation maximizing the total score."""
    scores = np.asarray(scores, dtype=np.float64)
    return min_cost_assignment(-scores)
