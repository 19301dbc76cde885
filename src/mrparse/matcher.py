"""Permutation-invariant query/node alignment.

Queries are matched to target nodes by maximizing the summed match score
(label score times geometric-mean anchor score) over the [queries x targets]
block; every target gets its own query and the leftover queries are null
nodes.  A query scores a target's anchors only from a token the target is
anchored to.  Targets with equal gold rows are interchangeable, and their
ties are broken by the edge loss across their within-group permutations.

Both sides come in as arrays: the heads' label_probs [queries, classes] and
anchor_probs [queries, tokens] with each query's source token, and the
targets' label_targets [targets, classes] (unsmoothed rule distributions)
with anchored [targets, tokens], True where a target is anchored to a token.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import kernels

ANCHOR_PROB_FLOOR = 1e-12
# the anchor factor of a query paired with a target not anchored to its token
MASK_EPSILON = 1e-8
# tie-break bounds: a larger group than MAX_TIE_GROUP, or more within-group
# permutations than MAX_TIE_COMBINATIONS, keeps the first optimum
MAX_TIE_GROUP = 6
MAX_TIE_COMBINATIONS = 5040
# a score matrix with an entry of 2**MAX_SCORE_EXPONENT or more in magnitude
# is solved scaled down by a power of two, which is exact, so that the
# solver's potentials and the score sum stay finite
MAX_SCORE_EXPONENT = 1000


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
    """The query of each target, queries[j] target j's, and the total match
    score."""

    queries: tuple[int, ...]
    score: float
    warnings: tuple[str, ...] = ()


def geomean_anchor(probs) -> np.ndarray:
    """Geometric mean of per-token anchor probabilities, in log space.

    Reduces over the last axis, so a (queries, tokens) matrix gives one
    score per query; an empty row scores 1.  Keeps the anchor score
    magnitude independent of the token count; inputs are floored at
    ANCHOR_PROB_FLOOR before the log.
    """
    arr = np.maximum(np.asarray(probs, dtype=np.float64), ANCHOR_PROB_FLOOR)
    return np.exp(np.log(arr).sum(axis=-1) / max(arr.shape[-1], 1))


def optimal_assignment(scores: np.ndarray) -> Assignment:
    """Query-to-target assignment maximizing the summed score.

    scores is [queries x targets] with queries >= targets; every target gets
    its own query, queries[j] target j's, and the queries left over match
    nothing.  The matrix, square or not, is solved as its transposed
    targets x queries problem, one augmentation per target.  score is the
    row-order sum of the per-query gains, zero on the unmatched queries.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] < scores.shape[1]:
        raise MatchError(f"score matrix must be [queries x targets] with queries >= "
                         f"targets, got shape {scores.shape}")
    if scores.size and not np.isfinite(scores).all():
        raise MatchError("score matrix entries must be finite")
    num_queries, num_targets = scores.shape
    shift = max(int(np.frexp(np.abs(scores).max(initial=0.0))[1]) - MAX_SCORE_EXPONENT, 0)
    if shift:
        scores = scores * 2.0 ** -shift
    queries = kernels.max_score_assignment(scores.T)
    gains = np.zeros(num_queries)
    gains[queries] = scores[queries, np.arange(num_targets)]
    # a Python float product: a sum past the float range is inf, with no warning
    return Assignment(queries=tuple(queries.tolist()),
                      score=float(gains.sum()) * 2.0 ** shift)


def tie_groups(label_targets: np.ndarray, anchored: np.ndarray) -> list[list[int]]:
    """Targets whose label_targets and anchored rows are both equal, in
    groups of two or more ordered by first member, members ascending.

    Equal rows give bit-identical score columns, so the match score cannot
    tell a group's members apart.
    """
    groups: dict[tuple, list[int]] = {}
    for j, row in enumerate(np.hstack((label_targets, anchored)).tolist()):
        groups.setdefault(tuple(row), []).append(j)
    return [g for g in groups.values() if len(g) > 1]


def break_ties(groups: list[list[int]], assignment: Assignment,
               edge_loglik: Callable[[tuple[int, ...]], float]) -> Assignment:
    """Among score-equivalent assignments, minimize the edge loss.

    The targets of each group (tie_groups) are interchangeable for the match
    score; the callback evaluates the edge negative log-likelihood of a
    candidate's queries, and the within-group permutation minimizing it
    wins.  Oversized tie groups fall back to the first optimum with a
    warning record.
    """
    if not groups:
        return assignment
    oversized = [len(group) for group in groups if len(group) > MAX_TIE_GROUP]
    total = math.prod(math.factorial(len(group)) for group in groups)
    if oversized or total > MAX_TIE_COMBINATIONS:
        warning = (f"tie group of {oversized[0]} targets exceeds bound {MAX_TIE_GROUP}"
                   if oversized else
                   f"{total} tie permutations exceed bound {MAX_TIE_COMBINATIONS}")
        return replace(assignment, warnings=assignment.warnings
                       + (f"{warning}; keeping first optimum",))

    queries = assignment.queries
    best = queries
    best_loss = edge_loglik(queries)
    options = [list(itertools.permutations(group)) for group in groups]
    for combo in itertools.product(*options):
        new = list(queries)
        for group, reordered in zip(groups, combo):
            for original, replacement in zip(group, reordered):
                new[replacement] = queries[original]
        candidate = tuple(new)
        if candidate == queries:
            continue
        loss = edge_loglik(candidate)
        if loss < best_loss - 1e-15:
            best_loss = loss
            best = candidate
    return Assignment(best, assignment.score, assignment.warnings)


def build_problem(label_probs: np.ndarray, anchor_probs: np.ndarray,
                  source_tokens: np.ndarray, label_targets: np.ndarray,
                  anchored: np.ndarray) -> MatchProblem:
    """Score every query against every target: [queries x targets] matrices,
    the anchor factor MASK_EPSILON where the target is not anchored to the
    query's source token."""
    num_queries = label_probs.shape[0]
    if len(label_targets) > num_queries:
        raise CapacityError(f"{len(label_targets)} target nodes exceed {num_queries} "
                            f"queries; increase the per-token query budget")
    # a stack of matrix-vector products: one matrix-matrix product would
    # round differently from scoring each target on its own
    label_score = (label_probs @ label_targets[:, :, None])[:, :, 0].T
    anchor_score = geomean_anchor(np.where(anchored[:, None, :], anchor_probs,
                                           1.0 - anchor_probs)).T
    anchor_score = np.where(anchored[:, source_tokens].T, anchor_score, MASK_EPSILON)
    return MatchProblem(label_score=label_score, anchor_score=anchor_score)


def align_targets(label_probs: np.ndarray, anchor_probs: np.ndarray,
                  source_tokens: np.ndarray, label_targets: np.ndarray,
                  anchored: np.ndarray, *,
                  edge_loglik: Callable[[tuple[int, ...]], float]) -> Assignment:
    """Solve the matching of queries to targets, then break ties by
    edge_loglik.

    Returns the tie-broken optimal assignment: the query of each target.
    """
    problem = build_problem(label_probs, anchor_probs, source_tokens, label_targets,
                            anchored)
    assignment = optimal_assignment(problem.label_score * problem.anchor_score)
    return break_ties(tie_groups(label_targets, anchored), assignment, edge_loglik)
