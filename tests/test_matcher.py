import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrparse import matcher
from mrparse.matcher import (ANCHOR_PROB_FLOOR, CapacityError, MatchConfig, MatchError,
                             MatchProblem, PredictionSpec, TargetSpec,
                             align_targets, apply_anchor_mask, break_ties,
                             build_problem, geomean_anchor, match_score,
                             optimal_assignment)
from oracles import brute_force_assignment, reference_build_problem, reference_tie_groups


class TestMatchScore:
    def test_product(self):
        out = match_score(np.array([[0.8]]), np.array([[0.5]]))
        assert out[0, 0] == pytest.approx(0.4)

    def test_null_column_zero(self):
        label = np.array([[0.7, 0.0], [0.3, 0.0]])  # second target is null
        anchor = np.ones((2, 2))
        out = match_score(label, anchor)
        assert (out[:, 1] == 0.0).all()

    def test_shape_mismatch(self):
        with pytest.raises(MatchError):
            match_score(np.ones((2, 2)), np.ones((2, 3)))


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
        scores = np.random.default_rng(0).random((3, 3))
        out = apply_anchor_mask(scores, np.ones((3, 3), dtype=bool))
        assert (out == scores).all()

    def test_forbidden_row_gets_epsilon(self):
        scores = np.full((2, 2), 0.5)
        mask = np.array([[False, False], [True, True]])
        out = apply_anchor_mask(scores, mask, epsilon=1e-8)
        assert (out[0] == 1e-8).all()
        assert (out[1] == 0.5).all()


class TestOptimalAssignment:
    def test_identity_dominant(self):
        scores = np.eye(3)
        result = optimal_assignment(scores)
        assert result.perm == (0, 1, 2)
        assert result.score == pytest.approx(3.0)

    def test_two_by_two(self):
        result = optimal_assignment(np.array([[0.1, 0.9], [0.9, 0.1]]))
        assert result.perm == (1, 0)
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

    def test_queries_by_targets(self):
        scores = np.array([[0.1, 0.2], [0.9, 0.0], [0.0, 0.0], [0.3, 0.8]])
        result = optimal_assignment(scores)
        # targets 0 and 1 go to queries 1 and 3; nulls 2, 3 follow query order
        assert result.perm == (2, 0, 3, 1)
        assert result.score == 0.9 + 0.8

    def test_no_targets(self):
        result = optimal_assignment(np.zeros((3, 0)))
        assert result.perm == (0, 1, 2)
        assert result.score == 0.0
        assert optimal_assignment(np.zeros((0, 0))).perm == ()


def _problem(label, anchor):
    return MatchProblem(label_score=np.asarray(label, dtype=float),
                        anchor_score=np.asarray(anchor, dtype=float))


class TestBreakTies:
    def test_no_ties_unchanged(self):
        problem = _problem([[0.9, 0.1], [0.1, 0.9]], np.ones((2, 2)))
        assignment = optimal_assignment(problem.match_matrix())
        out = break_ties(problem, assignment, lambda perm: 0.0)
        assert out.perm == assignment.perm

    def test_swap_when_edge_loss_prefers(self):
        # two identical targets; edge loss prefers the swapped pairing
        problem = _problem([[0.5, 0.5], [0.5, 0.5]], np.ones((2, 2)))
        assignment = optimal_assignment(problem.match_matrix())

        def edge_loss(perm):
            return 0.0 if perm == (1, 0) else 1.0

        out = break_ties(problem, assignment, edge_loss)
        assert out.perm == (1, 0)

    def test_group_of_three_evaluates_all(self):
        problem = _problem(np.full((3, 3), 0.4), np.ones((3, 3)))
        assignment = optimal_assignment(problem.match_matrix())
        seen = []

        def edge_loss(perm):
            seen.append(perm)
            return 0.0 if perm == (2, 0, 1) else 1.0

        out = break_ties(problem, assignment, edge_loss)
        assert out.perm == (2, 0, 1)
        assert len(set(seen)) == 6  # all within-group permutations

    def test_oversized_group_falls_back_with_warning(self):
        n = 8
        problem = _problem(np.full((n, n), 0.4), np.ones((n, n)))
        assignment = optimal_assignment(problem.match_matrix())
        out = break_ties(problem, assignment, lambda perm: 0.0,
                         MatchConfig(max_tie_group=6))
        assert out.perm == assignment.perm
        assert out.warnings

    def test_combination_cap_falls_back_with_warning(self):
        # two groups of 4: 24 * 24 = 576 combinations exceed a cap of 100
        label = np.zeros((8, 8))
        label[:, :4] = 0.5
        label[:, 4:] = 0.3
        problem = _problem(label, np.ones((8, 8)))
        assignment = optimal_assignment(problem.match_matrix())
        out = break_ties(problem, assignment, lambda perm: 0.0,
                         MatchConfig(max_tie_group=6, max_tie_combinations=100))
        assert out.perm == assignment.perm
        assert out.warnings


def _prediction(label_probs, anchor_probs, source):
    return PredictionSpec(label_probs=np.asarray(label_probs, dtype=float),
                          anchor_probs=np.asarray(anchor_probs, dtype=float),
                          source_tokens=np.asarray(source))


class TestAlignTargets:
    def test_pads_with_nulls(self):
        predictions = _prediction(
            [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.4, 0.4, 0.2]],
            np.full((3, 2), 0.5), [0, 0, 1])
        targets = [TargetSpec(np.array([1.0, 0.0, 0.0]), frozenset({0})),
                   TargetSpec(np.array([0.0, 1.0, 0.0]), frozenset({0}))]
        assignment = align_targets(predictions, targets, MatchConfig(use_anchor_mask=False))
        assert sorted(assignment.perm) == [0, 1, 2]
        null_queries = [q for q, t in enumerate(assignment.perm) if t >= 2]
        assert len(null_queries) == 1

    def test_no_targets(self):
        predictions = _prediction([[0.8, 0.2], [0.3, 0.7], [0.5, 0.5]],
                                  np.full((3, 2), 0.5), [0, 0, 1])
        problem = build_problem(predictions, [])
        assert problem.label_score.shape == problem.anchor_score.shape == (3, 0)
        assert problem.num_real_targets == 0
        assignment = align_targets(predictions, [], edge_loglik=lambda perm: 0.0)
        assert assignment.perm == (0, 1, 2)
        assert assignment.score == 0.0

    def test_capacity_error(self):
        predictions = _prediction([[1.0, 0.0]], np.full((1, 1), 0.5), [0])
        targets = [TargetSpec(np.array([1.0, 0.0]), frozenset({0}))] * 2
        with pytest.raises(CapacityError):
            align_targets(predictions, targets)

    def test_two_queries_per_token_figure_scenario(self):
        # 3 tokens x 2 queries, 4 real nodes: exactly 2 queries become null
        rng = np.random.default_rng(3)
        num_queries, num_classes, num_tokens = 6, 5, 3
        label_probs = rng.dirichlet(np.ones(num_classes), size=num_queries)
        anchor_probs = rng.random((num_queries, num_tokens))
        predictions = _prediction(label_probs, anchor_probs, [0, 0, 1, 1, 2, 2])
        targets = []
        for j in range(4):
            dist = np.zeros(num_classes)
            dist[j % num_classes] = 1.0
            targets.append(TargetSpec(dist, frozenset({j % num_tokens})))
        assignment = align_targets(predictions, targets,
                                   MatchConfig(use_anchor_mask=False))
        nulls = [q for q, t in enumerate(assignment.perm) if t >= 4]
        assert len(nulls) == 2

    def test_mask_routes_target_to_anchored_token(self):
        # one-to-one anchoring: each target reachable only from its token
        rng = np.random.default_rng(4)
        label_probs = rng.dirichlet(np.ones(3), size=4)
        anchor_probs = np.full((4, 2), 0.5)
        predictions = _prediction(label_probs, anchor_probs, [0, 0, 1, 1])
        targets = [TargetSpec(np.array([1.0, 0.0, 0.0]), frozenset({0})),
                   TargetSpec(np.array([0.0, 1.0, 0.0]), frozenset({1}))]
        assignment = align_targets(predictions, targets, MatchConfig())
        for query, target in enumerate(assignment.perm):
            if target < 2:
                assert predictions.source_tokens[query] in targets[target].anchor_tokens

    def test_permutation_invariance_composition(self):
        rng = np.random.default_rng(6)
        num_queries, num_classes, num_tokens = 6, 7, 3
        label_probs = rng.dirichlet(np.ones(num_classes), size=num_queries)
        anchor_probs = rng.random((num_queries, num_tokens))
        predictions = _prediction(label_probs, anchor_probs, [0, 0, 1, 1, 2, 2])
        targets = []
        for j in range(4):
            dist = rng.dirichlet(np.ones(num_classes))
            targets.append(TargetSpec(dist, frozenset({int(rng.integers(num_tokens))})))
        base = align_targets(predictions, targets,
                             MatchConfig(use_anchor_mask=False))
        base_pairs = {(q, t) for q, t in enumerate(base.perm) if t < 4}
        order = [2, 0, 3, 1]
        shuffled = [targets[j] for j in order]
        moved = align_targets(predictions, shuffled,
                              MatchConfig(use_anchor_mask=False))
        moved_pairs = {(q, order[t]) for q, t in enumerate(moved.perm) if t < 4}
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
    targets = []
    for j in range(num_targets):
        dist = np.zeros(num_targets + 1)
        dist[j] = 1.0
        targets.append(TargetSpec(dist, frozenset({j})))
    predictions = _prediction(label_probs, anchor_probs, source)
    assignment = align_targets(predictions, targets,
                               MatchConfig(use_anchor_mask=True, mask_epsilon=1e-8))
    for query, target in enumerate(assignment.perm):
        if target < num_targets:
            assert int(source[query]) in targets[target].anchor_tokens


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
       st.booleans(), st.integers(min_value=0, max_value=24),
       st.integers(min_value=0, max_value=2**32 - 1))
@example(num_tokens=3, queries_per_token=2, use_mask=True, num_targets=0, seed=0)
@example(num_tokens=3, queries_per_token=2, use_mask=False, num_targets=6, seed=1)
@example(num_tokens=4, queries_per_token=2, use_mask=True, num_targets=8, seed=2)
def test_build_problem_matches_reference(num_tokens, queries_per_token, use_mask,
                                         num_targets, seed):
    num_queries = num_tokens * queries_per_token
    num_targets = min(num_targets, num_queries)
    rng = np.random.default_rng(seed)
    num_classes = int(rng.integers(2, 6))
    predictions = _prediction(rng.dirichlet(np.ones(num_classes), size=num_queries),
                              rng.uniform(0.0, 1.0, (num_queries, num_tokens)),
                              np.repeat(np.arange(num_tokens), queries_per_token))
    # anchor sets of every size, the empty set (no anchor tokens) included
    targets = [TargetSpec(rng.dirichlet(np.ones(num_classes)),
                          frozenset(np.flatnonzero(rng.random(num_tokens)
                                                   < rng.random()).tolist()))
               for _ in range(num_targets)]
    if num_targets:
        targets[0] = TargetSpec(targets[0].label_target, frozenset())
    config = MatchConfig(use_anchor_mask=use_mask, mask_epsilon=1e-8)
    built = build_problem(predictions, targets, config)
    expected = reference_build_problem(predictions, targets, config)
    assert built.num_real_targets == expected.num_real_targets == num_targets
    assert built.label_score.shape == built.anchor_score.shape == (num_queries, num_targets)
    assert np.array_equal(built.label_score, expected.label_score)
    assert np.array_equal(built.anchor_score, expected.anchor_score)


def _real_mapping(perm, num_targets):
    return {target: query for query, target in enumerate(perm) if target < num_targets}


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9),
       st.integers(min_value=0, max_value=2**32 - 1))
@example(num_queries=0, num_targets=0, seed=0)
@example(num_queries=6, num_targets=0, seed=1)
@example(num_queries=6, num_targets=6, seed=2)
@example(num_queries=1, num_targets=1, seed=3)
def test_rectangular_matches_padded_square(num_queries, num_targets, seed):
    # the [queries x targets] solve equals the square solve of the matrix
    # padded with zero-score null columns: same score bit for bit, same real
    # targets on the same queries; nulls go k, k+1, ... in query order
    num_targets = min(num_targets, num_queries)
    rng = np.random.default_rng(seed)
    scores = rng.random((num_queries, num_targets))
    padded = np.zeros((num_queries, num_queries))
    padded[:, :num_targets] = scores
    ours = optimal_assignment(scores)
    square = optimal_assignment(padded)
    assert ours.score == square.score
    assert _real_mapping(ours.perm, num_targets) == _real_mapping(square.perm, num_targets)
    assert sorted(ours.perm) == list(range(num_queries))
    null_targets = [t for t in ours.perm if t >= num_targets]
    assert null_targets == list(range(num_targets, num_queries))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=8),
       st.sampled_from([0.0, 2.0 ** -20, 1e-12]),
       st.integers(min_value=0, max_value=2**32 - 1))
@example(num_queries=1, num_targets=0, tolerance=1e-12, seed=0)
@example(num_queries=6, num_targets=6, tolerance=2.0 ** -20, seed=1)
def test_tie_groups_match_reference(num_queries, num_targets, tolerance, seed):
    # each target copies one of three prototype column pairs, and half of them
    # move one entry by 0, tolerance / 2, tolerance, the next float past it or
    # 2 * tolerance, so pairs sit on both sides of the tolerance edge (eighths
    # plus multiples of 2^-20 add exactly)
    num_targets = min(num_targets, num_queries)
    rng = np.random.default_rng(seed)
    offsets = [0.0, tolerance / 2, tolerance, np.nextafter(tolerance, 1.0), 2 * tolerance]
    picks = rng.integers(0, 3, num_targets)
    label = (rng.integers(0, 8, (num_queries, 3)) / 8.0)[:, picks]
    anchor = (rng.integers(1, 9, (num_queries, 3)) / 8.0)[:, picks]
    for j in range(num_targets):
        if rng.random() < 0.5:
            scores = label if rng.random() < 0.5 else anchor
            scores[rng.integers(num_queries), j] += offsets[rng.integers(len(offsets))]
    problem = MatchProblem(label_score=label, anchor_score=anchor)
    assert (matcher._tie_groups(problem, tolerance)
            == reference_tie_groups(problem, tolerance))
