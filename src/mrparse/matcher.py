"""Permutation-invariant query/node alignment.

Queries are matched to target nodes by maximizing the summed match score
(label score times geometric-mean anchor score) over the [queries x targets]
block; every target gets its own query and the leftover queries are null
nodes, numbered after the targets in ascending query order.  Ties between
interchangeable targets are broken by the edge loss across their within-group
permutations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernels

ANCHOR_PROB_FLOOR = 1e-12


class MatchError(Exception):
    pass


class CapacityError(MatchError):
    """More real targets than queries; the query budget is too small."""


@dataclass(frozen=True)
class MatchProblem:
    """Label and anchor score matrices of a matching instance, [queries x targets]."""

    label_score: np.ndarray
    anchor_score: np.ndarray

    @property
    def num_real_targets(self) -> int:
        return self.label_score.shape[1]


@dataclass(frozen=True)
class Assignment:
    """Query-to-target permutation and its total match score."""

    perm: tuple[int, ...]
    score: float
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class MatchConfig:
    use_anchor_mask: bool = True
    mask_epsilon: float = 1e-8
    tie_tolerance: float = 1e-12
    max_tie_group: int = 6
    max_tie_combinations: int = 5040


def geomean_anchor(probs) -> float | np.ndarray:
    """Geometric mean of per-token anchor probabilities, in log space.

    Reduces over the last axis, so a (queries, tokens) matrix gives one
    score per query; an empty row scores 1.  Keeps the anchor score
    magnitude independent of the token count; inputs are floored at
    ANCHOR_PROB_FLOOR before the log.
    """
    arr = np.maximum(np.asarray(probs, dtype=np.float64), ANCHOR_PROB_FLOOR)
    score = np.exp(np.log(arr).sum(axis=-1) / max(arr.shape[-1], 1))
    return float(score) if score.ndim == 0 else score


def apply_anchor_mask(scores: np.ndarray, anchoring: np.ndarray,
                      epsilon: float = 1e-8) -> np.ndarray:
    """Replace anchor factors by epsilon where the pairing is not permitted.

    anchoring[i, j] is True when target j is anchored to query i's source
    token; every other entry gets the small positive constant.
    """
    scores = np.asarray(scores, dtype=np.float64)
    anchoring = np.asarray(anchoring, dtype=bool)
    if scores.shape != anchoring.shape:
        raise MatchError(f"shape mismatch {scores.shape} vs {anchoring.shape}")
    return np.where(anchoring, scores, epsilon)


def optimal_assignment(scores: np.ndarray) -> Assignment:
    """Query-to-target assignment maximizing the summed score.

    scores is [queries x targets] with queries >= targets; every target gets
    its own query.  The result is an optimum of the matrix padded with
    zero-score null columns up to a square: perm[query] is the query's target,
    and the queries left over take the null targets k, k+1, ... (k targets) in
    ascending query order.  A non-square matrix is solved as its transposed
    targets x queries problem, k augmentations instead of one per query; a
    square one goes to the kernel as it is.  score is the row-order sum of the
    per-query gains, zero on the null queries, which is the padded matrix's
    sum.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] < scores.shape[1]:
        raise MatchError(f"score matrix must be [queries x targets] with queries >= "
                         f"targets, got shape {scores.shape}")
    if scores.size and not np.isfinite(scores).all():
        raise MatchError("score matrix entries must be finite")
    num_queries, num_targets = scores.shape
    if num_queries == num_targets:
        perm = kernels.max_score_assignment(scores)
    else:
        query_of_target = kernels.max_score_assignment(scores.T)
        perm = np.full(num_queries, -1, dtype=np.int64)
        perm[query_of_target] = np.arange(num_targets)
        perm[perm < 0] = np.arange(num_targets, num_queries)
    gains = np.zeros(num_queries)
    real = np.flatnonzero(perm < num_targets)
    gains[real] = scores[real, perm[real]]
    return Assignment(perm=tuple(perm.tolist()), score=float(gains.sum()))


def _tie_groups(problem: MatchProblem, tolerance: float) -> list[list[int]]:
    """Group real targets whose label and anchor columns coincide.

    Each target joins the first group whose first member it matches within
    tolerance in both matrices, or starts a new group.
    """
    k = problem.num_real_targets
    # label rows over anchor rows: one max covers both matrices
    columns = np.concatenate((problem.label_score, problem.anchor_score))
    same = (np.abs(columns[:, :, None] - columns[:, None, :]).max(axis=0, initial=0.0)
            <= tolerance).tolist()
    groups: list[list[int]] = []
    for j in range(k):
        for group in groups:
            if same[j][group[0]]:
                group.append(j)
                break
        else:
            groups.append([j])
    return [g for g in groups if len(g) > 1]


def break_ties(problem: MatchProblem, assignment: Assignment,
               edge_loglik: Callable[[tuple[int, ...]], float],
               config: MatchConfig = MatchConfig()) -> Assignment:
    """Among score-equivalent assignments, minimize the edge loss.

    Targets with identical label and anchor columns are interchangeable for
    the match score; the callback evaluates the edge negative log-likelihood
    of a candidate permutation, and the within-group permutation minimizing
    it wins.  Oversized tie groups fall back to the first optimum with a
    warning record.
    """
    groups = _tie_groups(problem, config.tie_tolerance)
    if not groups:
        return assignment
    for group in groups:
        if len(group) > config.max_tie_group:
            warning = (f"tie group of {len(group)} targets exceeds bound "
                       f"{config.max_tie_group}; keeping first optimum")
            return Assignment(assignment.perm, assignment.score,
                              assignment.warnings + (warning,))
    total = 1
    for group in groups:
        for k in range(2, len(group) + 1):
            total *= k
    if total > config.max_tie_combinations:
        warning = (f"{total} tie permutations exceed bound "
                   f"{config.max_tie_combinations}; keeping first optimum")
        return Assignment(assignment.perm, assignment.score,
                          assignment.warnings + (warning,))

    target_to_query = {j: i for i, j in enumerate(assignment.perm)}
    best_perm = assignment.perm
    best_loss = edge_loglik(assignment.perm)
    options = [list(itertools.permutations(group)) for group in groups]
    for combo in itertools.product(*options):
        perm = list(assignment.perm)
        for group, reordered in zip(groups, combo):
            for original, replacement in zip(group, reordered):
                perm[target_to_query[original]] = replacement
        candidate = tuple(perm)
        if candidate == assignment.perm:
            continue
        loss = edge_loglik(candidate)
        if loss < best_loss - 1e-15:
            best_loss = loss
            best_perm = candidate
    return Assignment(best_perm, assignment.score, assignment.warnings)


@dataclass(frozen=True)
class TargetSpec:
    """One gold node as seen by the matcher."""

    label_target: np.ndarray        # unsmoothed distribution over rule classes
    anchor_tokens: frozenset[int]   # token indices the node is anchored to


@dataclass(frozen=True)
class PredictionSpec:
    """Per-query head outputs needed for matching."""

    label_probs: np.ndarray    # [queries x classes]
    anchor_probs: np.ndarray   # [queries x tokens]
    source_tokens: np.ndarray  # [queries] source token index per query


def build_problem(predictions: PredictionSpec,
                  targets: Sequence[TargetSpec],
                  config: MatchConfig = MatchConfig()) -> MatchProblem:
    """Score every query against every target: [queries x targets] matrices."""
    num_queries, num_classes = predictions.label_probs.shape
    num_tokens = predictions.anchor_probs.shape[1]
    if len(targets) > num_queries:
        raise CapacityError(f"{len(targets)} target nodes exceed {num_queries} queries; "
                            f"increase the per-token query budget")
    # anchored[j, t]: target j is anchored to token t
    anchored = np.zeros((len(targets), num_tokens), dtype=bool)
    label_targets = np.empty((len(targets), num_classes))
    for j, target in enumerate(targets):
        anchored[j, list(target.anchor_tokens)] = True
        label_targets[j] = target.label_target
    # a stack of matrix-vector products: one matrix-matrix product would
    # round differently from scoring each target on its own
    label_score = (predictions.label_probs @ label_targets[:, :, None])[:, :, 0].T
    probs = predictions.anchor_probs
    anchor_score = geomean_anchor(np.where(anchored[:, None, :], probs, 1.0 - probs)).T
    if config.use_anchor_mask:
        anchor_score = apply_anchor_mask(anchor_score,
                                         anchored[:, predictions.source_tokens].T,
                                         config.mask_epsilon)
    return MatchProblem(label_score=label_score, anchor_score=anchor_score)


def align_targets(predictions: PredictionSpec, targets: Sequence[TargetSpec],
                  config: MatchConfig = MatchConfig(),
                  edge_loglik: Callable[[tuple[int, ...]], float] | None = None,
                  ) -> Assignment:
    """Solve the matching of queries to targets, then break ties.

    Returns the (tie-broken) optimal assignment; perm entries >= len(targets)
    denote null matches, numbered in ascending query order.
    """
    problem = build_problem(predictions, targets, config)
    assignment = optimal_assignment(problem.label_score * problem.anchor_score)
    if edge_loglik is not None:
        assignment = break_ties(problem, assignment, edge_loglik, config)
    return assignment
