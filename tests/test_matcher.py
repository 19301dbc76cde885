import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrparse import matcher
from mrparse.matcher import (ANCHOR_PROB_FLOOR, MASK_EPSILON, CapacityError, MatchError,
                             align_targets, break_ties,
                             build_problem, geomean_anchor, optimal_assignment,
                             tie_groups)
from oracles import brute_force_assignment, reference_build_problem, reference_tie_groups


class TestGeomean:
    def test_equal_values(self):
        assert geomean_anchor([0.9, 0.9, 0.9]) == pytest.approx(0.9)

    def test_sqrt(self):
        assert geomean_anchor([0.25, 1.0]) == pytest.approx(0.5)

    def test_single(self):
        assert geomean_anchor([0.7]) == pytest.approx(0.7)

    def test_no_underflow_long_products(self):
        values = [0.9] * 1000
        reference = np.exp(np.mean(np.log(np.full(1000, 0.9))))
        assert abs(geomean_anchor(values) - reference) < 1e-12
        assert abs(geomean_anchor(values) - 0.9) < 1e-12

    def test_zero_floored(self):
        assert geomean_anchor([0.0]) > 0.0
        assert geomean_anchor([1e-20]) == pytest.approx(ANCHOR_PROB_FLOOR, rel=1e-9, abs=0.0)

    def test_rows_match_single_rows(self):
        rng = np.random.default_rng(3)
        probs = rng.random((4, 6))
        probs[1, 2] = 0.0
        out = geomean_anchor(probs)
        assert out.shape == (4,)
        assert out.tolist() == [geomean_anchor(row) for row in probs]


class TestAnchorMask:
    def test_fully_permitted_identity(self):
        # every target anchored to every token: no anchor factor is masked
        rng = np.random.default_rng(0)
        anchor_probs = rng.random((3, 2))
        anchored = np.ones((3, 2), dtype=bool)
        problem = build_problem(rng.dirichlet(np.ones(2), size=3), anchor_probs,
                                np.array([0, 0, 1]), np.eye(2)[[0, 1, 1]], anchored)
        assert (problem.anchor_score == geomean_anchor(anchor_probs)[:, None]).all()

    def test_forbidden_row_gets_epsilon(self):
        # both targets anchored to token 1: the queries of token 0 are masked
        anchored = np.array([[False, True], [False, True]])
        problem = build_problem(np.full((2, 2), 0.5), np.full((2, 2), 0.5),
                                np.array([0, 1]), np.eye(2), anchored)
        assert (problem.anchor_score[0] == MASK_EPSILON).all()
        assert (problem.anchor_score[1] == 0.5).all()


class TestOptimalAssignment:
    def test_identity_dominant(self):
        scores = np.eye(3)
        result = optimal_assignment(scores)
        assert result.queries == (0, 1, 2)
        assert result.score == pytest.approx(3.0)

    def test_two_by_two(self):
        result = optimal_assignment(np.array([[0.1, 0.9], [0.9, 0.1]]))
        assert result.queries == (1, 0)
        assert result.score == pytest.approx(1.8)

    def test_random_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            scores = rng.random((6, 6))
            ours = optimal_assignment(scores)
            _, oracle = brute_force_assignment(scores)
            assert ours.score == oracle

    def test_monotonicity(self):
        rng = np.random.default_rng(8)
        scores = rng.random((5, 5))
        base = optimal_assignment(scores).score
        bumped = scores.copy()
        bumped[2, 3] += 0.5
        assert optimal_assignment(bumped).score >= base

    def test_non_square_rejected(self):
        with pytest.raises(MatchError):
            optimal_assignment(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # the one finiteness check on a score matrix: the solver behind it
        # takes the matrix as given
        with pytest.raises(MatchError, match="must be finite"):
            optimal_assignment(np.array([[1.0, bad], [0.0, 1.0]]))

    def test_queries_by_targets(self):
        scores = np.array([[0.1, 0.2], [0.9, 0.0], [0.0, 0.0], [0.3, 0.8]])
        result = optimal_assignment(scores)
        # targets 0 and 1 go to queries 1 and 3; queries 0 and 2 match nothing
        assert result.queries == (1, 3)
        assert result.score == 0.9 + 0.8

    def test_no_targets(self):
        result = optimal_assignment(np.zeros((3, 0)))
        assert result.queries == ()
        assert result.score == 0.0
        assert optimal_assignment(np.zeros((0, 0))).queries == ()


class TestBreakTies:
    def test_no_ties_unchanged(self):
        assignment = optimal_assignment(np.array([[0.9, 0.1], [0.1, 0.9]]))
        out = break_ties([], assignment, lambda queries: 0.0)
        assert out.queries == assignment.queries

    def test_swap_when_edge_loss_prefers(self):
        # two identical targets; edge loss prefers the swapped pairing
        assignment = optimal_assignment(np.full((2, 2), 0.5))

        def edge_loss(queries):
            return 0.0 if queries == (1, 0) else 1.0

        out = break_ties([[0, 1]], assignment, edge_loss)
        assert out.queries == (1, 0)

    def test_group_of_three_evaluates_all(self):
        assignment = optimal_assignment(np.full((3, 3), 0.4))
        seen = []

        def edge_loss(queries):
            seen.append(queries)
            return 0.0 if queries == (1, 2, 0) else 1.0

        out = break_ties([[0, 1, 2]], assignment, edge_loss)
        assert out.queries == (1, 2, 0)
        assert len(set(seen)) == 6  # all within-group permutations

    def test_rectangular_swaps_tied_targets_only(self):
        # four queries, three targets: targets 0 and 1 tie, target 2 does not
        scores = np.array([[0.9, 0.9, 0.0], [0.8, 0.8, 0.1], [0.1, 0.1, 0.2],
                           [0.0, 0.0, 0.9]])
        assignment = optimal_assignment(scores)
        first = assignment.queries
        assert sorted(first[:2]) == [0, 1] and first[2] == 3
        seen = []

        def edge_loss(queries):
            seen.append(queries)
            return 0.0 if queries != first else 1.0

        out = break_ties([[0, 1]], assignment, edge_loss)
        assert seen == [first, (first[1], first[0], first[2])]
        assert out.queries == (first[1], first[0], 3)
        assert out.score == assignment.score

    def test_oversized_group_falls_back_with_warning(self):
        n = matcher.MAX_TIE_GROUP + 2
        assignment = optimal_assignment(np.full((n, n), 0.4))
        out = break_ties([list(range(n))], assignment, lambda queries: 0.0)
        assert out.queries == assignment.queries
        assert out.warnings

    def test_combination_cap_falls_back_with_warning(self, monkeypatch):
        # two groups of 4: 24 * 24 = 576 combinations exceed a cap of 100
        scores = np.zeros((8, 8))
        scores[:, :4] = 0.5
        scores[:, 4:] = 0.3
        assignment = optimal_assignment(scores)
        monkeypatch.setattr(matcher, "MAX_TIE_COMBINATIONS", 100)
        out = break_ties([[0, 1, 2, 3], [4, 5, 6, 7]], assignment, lambda queries: 0.0)
        assert out.queries == assignment.queries
        assert out.warnings


def _queries(label_probs, anchor_probs, source):
    """The prediction arguments of build_problem and align_targets."""
    return (np.asarray(label_probs, dtype=float), np.asarray(anchor_probs, dtype=float),
            np.asarray(source))


def _flat_edge_loss(queries):
    """An edge loss equal on every candidate: break_ties keeps the first
    optimum."""
    return 0.0


def _targets(label_targets, anchor_sets, num_tokens):
    """The target arguments: stacked label rows, and each target's anchor
    token set as a row of anchored."""
    anchored = np.zeros((len(anchor_sets), num_tokens), dtype=bool)
    for j, tokens in enumerate(anchor_sets):
        anchored[j, list(tokens)] = True
    return np.array(label_targets, dtype=float), anchored


class TestAlignTargets:
    def test_pads_with_nulls(self):
        queries = _queries([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.4, 0.4, 0.2]],
                           np.full((3, 2), 0.5), [0, 0, 1])
        targets = _targets([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [{0}, {0}], 2)
        assignment = align_targets(*queries, *targets, edge_loglik=_flat_edge_loss)
        # two distinct queries of three: one is a null node
        assert len(set(assignment.queries)) == 2
        assert set(assignment.queries) <= {0, 1, 2}

    def test_no_targets(self):
        queries = _queries([[0.8, 0.2], [0.3, 0.7], [0.5, 0.5]],
                           np.full((3, 2), 0.5), [0, 0, 1])
        targets = _targets(np.empty((0, 2)), [], 2)
        problem = build_problem(*queries, *targets)
        assert problem.label_score.shape == problem.anchor_score.shape == (3, 0)
        assert problem.num_real_targets == 0
        assignment = align_targets(*queries, *targets, edge_loglik=_flat_edge_loss)
        assert assignment.queries == ()
        assert assignment.score == 0.0

    def test_capacity_error(self):
        queries = _queries([[1.0, 0.0]], np.full((1, 1), 0.5), [0])
        targets = _targets([[1.0, 0.0]] * 2, [{0}, {0}], 1)
        with pytest.raises(CapacityError):
            align_targets(*queries, *targets, edge_loglik=_flat_edge_loss)

    def test_two_queries_per_token_figure_scenario(self):
        # 3 tokens x 2 queries, 4 real nodes: exactly 2 queries become null
        rng = np.random.default_rng(3)
        num_queries, num_classes, num_tokens = 6, 5, 3
        label_probs = rng.dirichlet(np.ones(num_classes), size=num_queries)
        anchor_probs = rng.random((num_queries, num_tokens))
        queries = _queries(label_probs, anchor_probs, [0, 0, 1, 1, 2, 2])
        targets = _targets(np.eye(num_classes)[[j % num_classes for j in range(4)]],
                           [{j % num_tokens} for j in range(4)], num_tokens)
        assignment = align_targets(*queries, *targets, edge_loglik=_flat_edge_loss)
        assert len(set(assignment.queries)) == 4

    def test_mask_routes_target_to_anchored_token(self):
        # one-to-one anchoring: each target reachable only from its token
        rng = np.random.default_rng(4)
        label_probs = rng.dirichlet(np.ones(3), size=4)
        anchor_probs = np.full((4, 2), 0.5)
        queries = _queries(label_probs, anchor_probs, [0, 0, 1, 1])
        label_targets, anchored = _targets([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                                           [{0}, {1}], 2)
        assignment = align_targets(*queries, label_targets, anchored,
                                   edge_loglik=_flat_edge_loss)
        for target, query in enumerate(assignment.queries):
            assert anchored[target, queries[2][query]]

    def test_permutation_invariance_composition(self):
        rng = np.random.default_rng(6)
        num_queries, num_classes, num_tokens = 6, 7, 3
        label_probs = rng.dirichlet(np.ones(num_classes), size=num_queries)
        anchor_probs = rng.random((num_queries, num_tokens))
        queries = _queries(label_probs, anchor_probs, [0, 0, 1, 1, 2, 2])
        dists, anchor_sets = [], []
        for j in range(4):
            dists.append(rng.dirichlet(np.ones(num_classes)))
            anchor_sets.append({int(rng.integers(num_tokens))})
        label_targets, anchored = _targets(dists, anchor_sets, num_tokens)
        base = align_targets(*queries, label_targets, anchored,
                             edge_loglik=_flat_edge_loss)
        base_pairs = {(q, t) for t, q in enumerate(base.queries)}
        order = [2, 0, 3, 1]
        moved = align_targets(*queries, label_targets[order], anchored[order],
                              edge_loglik=_flat_edge_loss)
        moved_pairs = {(q, order[t]) for t, q in enumerate(moved.queries)}
        assert moved_pairs == base_pairs
        assert moved.score == pytest.approx(base.score, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100000))
def test_mask_soundness_property(seed):
    # when a feasible fully-unmasked matching exists, no real target is ever
    # matched through a masked entry
    rng = np.random.default_rng(seed)
    num_tokens = 3
    queries_per_token = 2
    num_queries = num_tokens * queries_per_token
    num_targets = int(rng.integers(1, num_tokens + 1))
    source = np.repeat(np.arange(num_tokens), queries_per_token)
    label_probs = rng.dirichlet(np.ones(num_targets + 1), size=num_queries)
    anchor_probs = rng.uniform(0.1, 0.9, (num_queries, num_tokens))
    # one target per distinct token: a perfect unmasked matching exists
    label_targets, anchored = _targets(np.eye(num_targets + 1)[:num_targets],
                                       [{j} for j in range(num_targets)], num_tokens)
    assignment = align_targets(*_queries(label_probs, anchor_probs, source),
                               label_targets, anchored, edge_loglik=_flat_edge_loss)
    for target, query in enumerate(assignment.queries):
        assert anchored[target, source[query]]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=1000000))
def test_assignment_permutation_invariance_property(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.random((n, n))
    base = optimal_assignment(scores)
    order = rng.permutation(n)
    moved = optimal_assignment(scores[:, order])
    assert moved.score == pytest.approx(base.score, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=24), st.integers(min_value=0, max_value=2**32 - 1))
@example(num_tokens=3, queries_per_token=2, num_targets=0, seed=0)
@example(num_tokens=3, queries_per_token=2, num_targets=6, seed=1)
@example(num_tokens=4, queries_per_token=2, num_targets=8, seed=2)
def test_build_problem_matches_reference(num_tokens, queries_per_token, num_targets, seed):
    num_queries = num_tokens * queries_per_token
    num_targets = min(num_targets, num_queries)
    rng = np.random.default_rng(seed)
    num_classes = int(rng.integers(2, 6))
    queries = _queries(rng.dirichlet(np.ones(num_classes), size=num_queries),
                       rng.uniform(0.0, 1.0, (num_queries, num_tokens)),
                       np.repeat(np.arange(num_tokens), queries_per_token))
    # anchor sets of every size, the empty set (no anchor tokens) included
    dists, anchor_sets = [], []
    for _ in range(num_targets):
        dists.append(rng.dirichlet(np.ones(num_classes)))
        anchor_sets.append(np.flatnonzero(rng.random(num_tokens) < rng.random()))
    if num_targets:
        anchor_sets[0] = ()
    targets = _targets(np.reshape(dists, (num_targets, num_classes)), anchor_sets,
                       num_tokens)
    built = build_problem(*queries, *targets)
    expected = reference_build_problem(*queries, *targets)
    assert built.num_real_targets == expected.num_real_targets == num_targets
    assert built.label_score.shape == built.anchor_score.shape == (num_queries, num_targets)
    assert np.array_equal(built.label_score, expected.label_score)
    assert np.array_equal(built.anchor_score, expected.anchor_score)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9),
       st.integers(min_value=0, max_value=2**32 - 1))
@example(num_queries=0, num_targets=0, seed=0)
@example(num_queries=6, num_targets=0, seed=1)
@example(num_queries=6, num_targets=6, seed=2)
@example(num_queries=1, num_targets=1, seed=3)
def test_rectangular_matches_padded_square(num_queries, num_targets, seed):
    # the [queries x targets] solve equals the square solve of the matrix
    # padded with zero-score null columns: same score bit for bit, the real
    # targets on the same queries
    num_targets = min(num_targets, num_queries)
    rng = np.random.default_rng(seed)
    scores = rng.random((num_queries, num_targets))
    padded = np.zeros((num_queries, num_queries))
    padded[:, :num_targets] = scores
    ours = optimal_assignment(scores)
    square = optimal_assignment(padded)
    assert ours.score == square.score
    assert ours.queries == square.queries[:num_targets]
    assert len(set(ours.queries)) == num_targets


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
@example(num_tokens=1, queries_per_token=1, num_targets=0, seed=0)
@example(num_tokens=3, queries_per_token=2, num_targets=6, seed=1)
def test_tie_groups_match_reference(num_tokens, queries_per_token, num_targets, seed):
    # each target copies one of three label prototype rows and one of three
    # anchor prototype rows, so equal rows recur; grouping by equal rows
    # equals grouping by equal score columns (tolerance 0) on the problem
    # the rows build
    num_queries = num_tokens * queries_per_token
    num_targets = min(num_targets, num_queries)
    rng = np.random.default_rng(seed)
    num_classes = int(rng.integers(2, 6))
    queries = _queries(rng.dirichlet(np.ones(num_classes), size=num_queries),
                       rng.uniform(0.0, 1.0, (num_queries, num_tokens)),
                       np.repeat(np.arange(num_tokens), queries_per_token))
    label_rows = rng.dirichlet(np.ones(num_classes), size=3)
    anchor_rows = rng.random((3, num_tokens)) < 0.5
    label_targets = label_rows[rng.integers(0, 3, num_targets)]
    anchored = anchor_rows[rng.integers(0, 3, num_targets)]
    problem = build_problem(*queries, label_targets, anchored)
    assert tie_groups(label_targets, anchored) == reference_tie_groups(problem, 0.0)
