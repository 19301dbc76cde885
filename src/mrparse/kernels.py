"""Hot numeric kernel: dense linear-sum assignment.

The solver is the shortest-augmenting-path algorithm with row/column
potentials (Kuhn-Munkres family), with the inner column scan vectorized in
numpy.  It takes any matrix with rows <= columns and assigns every row a
distinct column.  It starts from the row reduction of Jonker and Volgenant
(Computing 38, 1987): each row's potential is its minimum cost, and a row
whose cheapest column no earlier row took is assigned that column.  Only the
rows left over run an augmentation, each scanning all columns, so k rows over
n columns cost O(k^2 n) work in the worst case (O(n^3) for a square matrix)
and far less when most rows' cheapest columns differ.  A k x n rectangle is
the square problem padded with n - k rows of zeros, solved without the
padding (Crouse 2016, "On implementing 2D rectangular assignment
algorithms", IEEE TAES).
"""

from __future__ import annotations

import numpy as np

# perfbench/run.py reads this to record the solver lane; numpy is the only lane.
HAS_NUMBA = False


def _assignment_numpy(cost):
    """Shortest-augmenting-path assignment of n rows to m >= n columns.

    The row-reduced start sets u to the row minima, which keeps every reduced
    cost non-negative and v at 0 on the free columns, and gives each row, in
    order, its first cheapest column while that column is free; the rows left
    over are augmented one at a time.  Column m is the virtual start column
    of each augmentation.  When several assignments are optimal (tied
    scores), the start can reach a different one of them than augmenting
    every row would; untied matrices have one optimum, and it is reached.
    """
    n, m = cost.shape
    if n == 0:
        return np.empty(0, dtype=np.int64)
    best = cost.argmin(axis=1)
    u = cost[np.arange(n), best]
    v = np.zeros(m + 1)
    col_row = np.full(m + 1, -1, dtype=np.int64)
    way = np.zeros(m + 1, dtype=np.int64)
    left = []
    for i, j in enumerate(best.tolist()):
        if col_row[j] == -1:
            col_row[j] = i
        else:
            left.append(i)
    for i in left:
        col_row[m] = i
        j0 = m
        minv = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = col_row[j0]
            free = ~used[:m]
            cur = cost[i0] - u[i0] - v[:m]
            better = free & (cur < minv[:m])
            minv[:m] = np.where(better, cur, minv[:m])
            way[:m][better] = j0
            masked = np.where(free, minv[:m], np.inf)
            j1 = int(np.argmin(masked))
            delta = masked[j1]
            u[col_row[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if col_row[j0] == -1:
                break
        while j0 != m:
            j1 = way[j0]
            col_row[j0] = col_row[j1]
            j0 = j1
    row_col = np.empty(n, dtype=np.int64)
    assigned = np.flatnonzero(col_row[:m] >= 0)
    row_col[col_row[assigned]] = assigned
    return row_col


def max_score_assignment(scores: np.ndarray) -> np.ndarray:
    """Distinct column per row maximizing the total score.

    scores is a 2-D float64 matrix of finite entries with rows <= columns;
    matcher.optimal_assignment, the one caller, checks that before it
    passes the transpose.  A square matrix gives a row-to-column
    permutation.  Minimizing a cost matrix is maximizing its negation.
    """
    # the negation, in C order since the solver scans whole rows
    return _assignment_numpy(np.negative(scores, order="C"))
