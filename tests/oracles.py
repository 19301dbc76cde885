"""Independent verification oracles used across the test suite.

These implementations deliberately avoid the production code paths: the
gradient checker uses central finite differences, the assignment oracle
enumerates permutations, and the rule-space oracle re-derives applicable
rules from scratch via apply_rule over a brute-force candidate sweep, the
match-problem reference builds one target column and one token at a time,
the tie-group reference compares one pair of target columns at a time, and the
rule-problem and flavor-2 anchoring references enumerate rules once per node
and once per (node, token) candidate, with no sharing between equal items.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np

from mrparse.graph import Anchor, graph_tokens
from mrparse.matcher import MatchProblem, apply_anchor_mask, geomean_anchor
from mrparse.rules import (AbsoluteRule, LemmaRule, NumberRule, RuleSetProblem,
                           RuleSpaceBounds, TokenRule, apply_rule,
                           assign_artificial_anchors, enumerate_applicable_rules,
                           minimal_rule_set, rule_sort_key, words_to_number)


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
    label_score = np.zeros((num_queries, len(targets)))
    anchor_score = np.ones((num_queries, len(targets)))
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
    return MatchProblem(label_score=label_score, anchor_score=anchor_score)


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


def reference_rule_problem(items, bounds: RuleSpaceBounds = RuleSpaceBounds(),
                           names=None) -> RuleSetProblem:
    """rules.build_problem with one rule enumeration per item."""
    per_node_rules = [enumerate_applicable_rules(tokens, lemmas, label, bounds)
                      for tokens, lemmas, label in items]
    universe = sorted({r for rules in per_node_rules for r in rules}, key=rule_sort_key)
    index = {rule: i for i, rule in enumerate(universe)}
    per_node = tuple(frozenset(index[r] for r in rules) for rules in per_node_rules)
    node_names = tuple(names) if names is not None else tuple(
        f"node {i}" for i in range(len(items)))
    return RuleSetProblem(universe=tuple(universe), per_node=per_node,
                          node_names=node_names)


def reference_anchor_flavor2_corpus(graphs, bounds: RuleSpaceBounds = RuleSpaceBounds(),
                                    cache_dir=None):
    """rules.anchor_flavor2_corpus with one rule enumeration per (node, token)."""
    entries = []
    all_rules = set()
    per_graph_tokens = []
    for gi, g in enumerate(graphs):
        tokens = graph_tokens(g)
        per_graph_tokens.append(tokens)
        for ni, node in enumerate(g.nodes):
            if node.label is None:
                continue
            candidates = []
            for token in tokens:
                rules_here = {
                    r for r in enumerate_applicable_rules([token.form], [token.lemma],
                                                          node.label, bounds)
                    if not isinstance(r, AbsoluteRule)}
                candidates.append(rules_here)
                all_rules |= rules_here
            all_rules.add(AbsoluteRule(node.label))
            entries.append((gi, ni, candidates))

    universe = sorted(all_rules, key=rule_sort_key)
    index = {rule: i for i, rule in enumerate(universe)}
    per_node = []
    names = []
    candidate_indices = []
    for gi, ni, candidates in entries:
        indexed = [frozenset(index[r] for r in c) for c in candidates]
        union = frozenset().union(*indexed) if indexed else frozenset()
        label = graphs[gi].nodes[ni].label
        union |= {index[AbsoluteRule(label)]}
        per_node.append(union)
        names.append(f"graph {graphs[gi].id} node {graphs[gi].nodes[ni].id}")
        candidate_indices.append(indexed)

    problem = RuleSetProblem(universe=tuple(universe), per_node=tuple(per_node),
                             node_names=tuple(names))
    solution = minimal_rule_set(problem, cache_dir=cache_dir)
    kept = assign_artificial_anchors(candidate_indices, solution)

    out = list(graphs)
    for (gi, ni, _), kept_candidates in zip(entries, kept):
        tokens = per_graph_tokens[gi]
        anchors = tuple(Anchor(tokens[a].start, tokens[a].end) for a in kept_candidates)
        g = out[gi]
        nodes = list(g.nodes)
        nodes[ni] = replace(nodes[ni], anchors=anchors)
        out[gi] = replace(g, nodes=tuple(nodes))
    return out, problem, solution
