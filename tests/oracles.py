"""Independent verification oracles used across the test suite.

These implementations deliberately avoid the production code paths: the
gradient checker uses central finite differences, the assignment oracle
enumerates permutations, and the rule-space oracle re-derives applicable
rules from scratch via apply_rule over a brute-force candidate sweep, the
match-problem reference builds one target column and one token at a time, and
the tie-group reference compares one pair of target columns at a time.
"""

from __future__ import annotations

import itertools

import numpy as np

from mrparse.matcher import MatchProblem, apply_anchor_mask, geomean_anchor
from mrparse.rules import (AbsoluteRule, LemmaRule, NumberRule, RuleSpaceBounds,
                           TokenRule, apply_rule, words_to_number)


def finite_difference(fn, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array."""
    grad = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(x.shape):
        forward = x.copy()
        forward[idx] += step
        backward = x.copy()
        backward[idx] -= step
        grad[idx] = (fn(forward) - fn(backward)) / (2.0 * step)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    num = np.linalg.norm(np.asarray(analytic) - np.asarray(numeric))
    den = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(num / den)


def brute_force_assignment(scores: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Exhaustive argmax of the score sum over distinct columns per row.

    Needs rows <= columns; a square matrix enumerates its permutations.
    """
    n, m = scores.shape
    best_perm = None
    best = -np.inf
    for perm in itertools.permutations(range(m), n):
        total = sum(scores[i, perm[i]] for i in range(n))
        if total > best:
            best = total
            best_perm = perm
    return best_perm, float(best)


def reference_build_problem(predictions, targets, config) -> MatchProblem:
    """matcher.build_problem written one target column and one token at a time."""
    num_queries = predictions.label_probs.shape[0]
    num_tokens = predictions.anchor_probs.shape[1]
    label_score = np.zeros((num_queries, num_queries))
    anchor_score = np.ones((num_queries, num_queries))
    for j, target in enumerate(targets):
        label_score[:, j] = predictions.label_probs @ target.label_target
        observed = np.empty((num_queries, num_tokens))
        for t in range(num_tokens):
            if t in target.anchor_tokens:
                observed[:, t] = predictions.anchor_probs[:, t]
            else:
                observed[:, t] = 1.0 - predictions.anchor_probs[:, t]
        anchor_score[:, j] = geomean_anchor(observed)
        if config.use_anchor_mask:
            permitted = np.isin(predictions.source_tokens,
                                sorted(target.anchor_tokens))
            anchor_score[:, j] = apply_anchor_mask(anchor_score[:, j], permitted,
                                                   config.mask_epsilon)
    return MatchProblem(label_score=label_score, anchor_score=anchor_score,
                        num_real_targets=len(targets))


def reference_tie_groups(problem: MatchProblem, tolerance: float) -> list[list[int]]:
    """matcher._tie_groups written as one column comparison at a time."""
    groups: list[list[int]] = []
    for j in range(problem.num_real_targets):
        for group in groups:
            k = group[0]
            if (np.abs(problem.label_score[:, j] - problem.label_score[:, k]).max(initial=0.0)
                    <= tolerance
                    and np.abs(problem.anchor_score[:, j]
                               - problem.anchor_score[:, k]).max(initial=0.0) <= tolerance):
                group.append(j)
                break
        else:
            groups.append([j])
    return [g for g in groups if len(g) > 1]


def enumerate_rules_oracle(tokens, lemmas, label,
                           bounds: RuleSpaceBounds = RuleSpaceBounds()):
    """Exhaustive sweep of the bounded rule space filtered by apply_rule.

    Candidate affixes are all label prefixes/suffixes up to the bound, so the
    sweep covers every seven-tuple whose application could possibly equal the
    label; membership is decided solely by apply_rule.
    """
    found = {AbsoluteRule(label)}
    if bounds.number_rule and tokens and words_to_number(tokens) == label:
        found.add(NumberRule())
    prefixes = {label[:k] for k in range(min(bounds.max_affix_len, len(label)) + 1)}
    suffixes = {label[-k:] if k else "" for k in
                range(min(bounds.max_affix_len, len(label)) + 1)}
    for kind in (TokenRule, LemmaRule):
        for drop_left in range(bounds.max_token_drop + 1):
            for drop_right in range(bounds.max_token_drop + 1):
                for sep in bounds.separators:
                    for strip_left in range(bounds.max_char_strip + 1):
                        for strip_right in range(bounds.max_char_strip + 1):
                            for prefix in prefixes:
                                for suffix in suffixes:
                                    rule = kind(drop_left, drop_right, sep,
                                                strip_left, strip_right,
                                                prefix, suffix)
                                    if apply_rule(rule, tokens, lemmas) == label:
                                        found.add(rule)
    return found
