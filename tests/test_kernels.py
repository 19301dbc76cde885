import numpy as np
import pytest

from mrparse import kernels
from oracles import brute_force_assignment


def test_identity_dominant():
    cost = -np.eye(4)
    assert kernels.max_score_assignment(-cost).tolist() == [0, 1, 2, 3]


def test_rejects_non_square():
    # rows <= columns is solved; more rows than columns has no assignment
    assert sorted(kernels.max_score_assignment(-np.zeros((2, 3))).tolist()) == [0, 1]
    with pytest.raises(ValueError):
        kernels.max_score_assignment(-np.zeros((3, 2)))


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        kernels.max_score_assignment(-np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_empty_matrix():
    assert kernels.max_score_assignment(-np.zeros((0, 0))).size == 0
    empty = kernels.max_score_assignment(np.zeros((0, 3)))
    assert empty.shape == (0,) and empty.dtype == np.int64


def test_negative_costs_supported():
    cost = np.array([[-5.0, 1.0], [1.0, -5.0]])
    assert kernels.max_score_assignment(-cost).tolist() == [0, 1]


def test_matches_brute_force_costs():
    rng = np.random.default_rng(99)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        scores = rng.random((n, n))
        perm = kernels.max_score_assignment(scores)
        total = float(scores[np.arange(n), perm].sum())
        _, oracle_total = brute_force_assignment(scores)
        assert total == oracle_total


def test_rectangular_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(200):
        m = int(rng.integers(0, 8))
        n = int(rng.integers(0, m + 1))
        scores = rng.random((n, m))
        if rng.random() < 0.3:
            scores = np.floor(scores * 3)  # tie-laden
        cols = kernels.max_score_assignment(scores)
        assert cols.shape == (n,)
        assert len(set(cols.tolist())) == n
        assert all(0 <= j < m for j in cols.tolist())
        total = float(scores[np.arange(n), cols].sum())
        _, oracle_total = brute_force_assignment(scores)
        assert total == oracle_total


def test_long_shape_matches_scipy():
    # the shapes of the long-sentence match problems: up to 24 targets
    # against 48 queries
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(31)
    for _ in range(150):
        n = int(rng.integers(1, 49))
        k = int(rng.integers(1, min(24, n) + 1))
        scores = rng.random((k, n))
        _, cols = optimize.linear_sum_assignment(scores, maximize=True)
        assert kernels.max_score_assignment(scores).tolist() == cols.tolist()


def test_untied_matches_brute_force_permutation():
    # continuous random scores have one optimum, so the columns themselves,
    # not only their total, must be the exhaustive argmax
    rng = np.random.default_rng(23)
    for _ in range(120):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, min(6, m) + 1))
        scores = rng.random((n, m))
        perm, _ = brute_force_assignment(scores)
        assert tuple(kernels.max_score_assignment(scores).tolist()) == perm
