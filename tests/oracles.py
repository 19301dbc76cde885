"""Independent verification oracles used across the test suite.

These implementations deliberately avoid the production code paths: the
gradient checker uses central finite differences, the assignment oracle
enumerates permutations, and the rule-space oracle re-derives applicable
rules from scratch via apply_rule over a brute-force candidate sweep, the
match-problem reference builds one target column and one token at a time,
the tie-group reference compares one pair of target columns at a time, and the
rule-problem and flavor-2 anchoring references enumerate rules once per node
and once per (node, token) candidate, with no sharing between equal items,
the hitting-set reference solves on bitmasks over the whole universe, the
enumerator reference searches the whole label for every strip pair, and the
layer-norm reference takes its means with ndarray.mean.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Sequence

import numpy as np

from mrparse.graph import Anchor, graph_tokens
from mrparse.hitting import InfeasibleError
from mrparse.matcher import MatchProblem, apply_anchor_mask, geomean_anchor
from mrparse.model import LN_EPS
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


def reference_layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer norm over the last axis, means by ndarray.mean."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    variance = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(variance + LN_EPS)
    normed = centered * inv
    return gain * normed + bias, (normed, inv, gain)


def reference_layer_norm_backward(cache, dy: np.ndarray):
    """(dx, dgain, dbias) of reference_layer_norm_forward, dgain and dbias
    summed over the rows axis only."""
    normed, inv, gain = cache
    dgain = (dy * normed).sum(axis=-2)
    dbias = dy.sum(axis=-2)
    dnormed = dy * gain
    dx = inv * (dnormed - dnormed.mean(axis=-1, keepdims=True)
                - normed * (dnormed * normed).mean(axis=-1, keepdims=True))
    return dx, dgain, dbias


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


def reference_enumerate_applicable_rules(tokens, lemmas, label,
                                         bounds: RuleSpaceBounds = RuleSpaceBounds()):
    """rules.enumerate_applicable_rules searching the whole label once per
    (kind, drops, separator, strip pair), with no sharing between equal
    joined strings and no affix window."""
    found = {AbsoluteRule(label)}
    if bounds.number_rule and tokens and words_to_number(tokens) == label:
        found.add(NumberRule())
    for kind, source in ((TokenRule, tokens), (LemmaRule, lemmas)):
        if not source:
            continue
        n = len(source)
        for drop_left in range(min(bounds.max_token_drop, n - 1) + 1):
            for drop_right in range(min(bounds.max_token_drop, n - 1 - drop_left) + 1):
                surviving = source[drop_left:n - drop_right]
                for sep in bounds.separators:
                    joined = sep.join(surviving)
                    max_left = min(bounds.max_char_strip, len(joined) - 1)
                    for strip_left in range(max_left + 1):
                        max_right = min(bounds.max_char_strip,
                                        len(joined) - 1 - strip_left)
                        for strip_right in range(max_right + 1):
                            core = joined[strip_left:len(joined) - strip_right]
                            start = 0
                            while True:
                                pos = label.find(core, start)
                                if pos < 0:
                                    break
                                prefix = label[:pos]
                                suffix = label[pos + len(core):]
                                if (len(prefix) <= bounds.max_affix_len
                                        and len(suffix) <= bounds.max_affix_len):
                                    found.add(kind(drop_left, drop_right, sep,
                                                   strip_left, strip_right,
                                                   prefix, suffix))
                                start = pos + 1
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


# ---------------------------------------------------------------------------
# hitting set over element masks

def _ref_to_masks(sets: Sequence[frozenset[int]]) -> list[int]:
    masks = []
    for i, s in enumerate(sets):
        if not s:
            raise InfeasibleError(i)
        mask = 0
        for e in s:
            mask |= 1 << e
        masks.append(mask)
    return masks


def _ref_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _ref_dedupe_and_prune(masks: list[int]) -> list[int]:
    # drop duplicate constraints and supersets of other constraints
    unique = sorted(set(masks), key=lambda m: (bin(m).count("1"), m))
    kept: list[int] = []
    for mask in unique:
        if not any(k & mask == k for k in kept):
            kept.append(mask)
    return kept


def _ref_greedy_cover(masks: list[int]) -> list[int]:
    remaining = list(masks)
    chosen = []
    while remaining:
        counts: dict[int, int] = {}
        for mask in remaining:
            for e in _ref_bits(mask):
                counts[e] = counts.get(e, 0) + 1
        best = max(sorted(counts), key=lambda e: counts[e])
        chosen.append(best)
        bit = 1 << best
        remaining = [m for m in remaining if not m & bit]
    return chosen


def _ref_packing_bound(masks: list[int]) -> int:
    # pairwise-disjoint constraints each need their own element
    packed = 0
    count = 0
    for mask in sorted(masks, key=lambda m: (bin(m).count("1"), m)):
        if not mask & packed:
            packed |= mask
            count += 1
    return count


def _ref_min_size(masks: list[int], allowed: int, budget: int) -> int | None:
    """Smallest hitting set size within budget using allowed elements, else None."""
    masks = [m & allowed for m in masks]
    if any(m == 0 for m in masks):
        return None
    masks = _ref_dedupe_and_prune(masks)
    if not masks:
        return 0
    if budget <= 0 or _ref_packing_bound(masks) > budget:
        return None

    # forced singletons
    forced = 0
    while True:
        singles = [m for m in masks if bin(m).count("1") == 1]
        if not singles:
            break
        for m in singles:
            forced |= m
        masks = [m for m in masks if not m & forced]
        if not masks:
            break
    n_forced = bin(forced).count("1")
    if n_forced > budget:
        return None
    if not masks:
        return n_forced

    # element dominance: drop e when its constraint set is a subset of f's
    coverage: dict[int, int] = {}
    for i, mask in enumerate(masks):
        for e in _ref_bits(mask):
            coverage[e] = coverage.get(e, 0) | (1 << i)
    elems = sorted(coverage)
    dominated = set()
    for e in elems:
        for f in elems:
            if f == e or f in dominated:
                continue
            if coverage[e] != coverage[f]:
                if coverage[e] & coverage[f] == coverage[e]:
                    dominated.add(e)
                    break
            elif f < e:
                dominated.add(e)
                break
    keep = [e for e in elems if e not in dominated]
    allowed_mask = 0
    for e in keep:
        allowed_mask |= 1 << e
    masks = [m & allowed_mask for m in masks]

    best: int | None = None
    upper = len(_ref_greedy_cover(masks))
    if n_forced + min(upper, budget + 1) <= budget:
        best = upper

    def search(current: list[int], used: int) -> None:
        nonlocal best
        if not current:
            if best is None or used < best:
                best = used
            return
        limit = budget - n_forced if best is None else min(best - 1, budget - n_forced)
        if used + _ref_packing_bound(current) > limit:
            return
        pivot = min(current, key=lambda m: (bin(m).count("1"), m))
        bit_gain = {e: sum(1 for m in current if m & (1 << e)) for e in _ref_bits(pivot)}
        for e in sorted(bit_gain, key=lambda e: (-bit_gain[e], e)):
            bit = 1 << e
            search([m for m in current if not m & bit], used + 1)

    search(masks, 0)
    return None if best is None else n_forced + best


def reference_minimal_hitting_set(sets: Sequence[frozenset[int]],
                        universe_size: int) -> tuple[int, ...]:
    """hitting.minimal_hitting_set with bitmasks over the whole universe.

    Every input set becomes a mask before any deduplication, and the
    branch-and-bound and the lexicographic refinement run on those
    element masks, with no grouping of elements into coverage classes.
    """
    masks = _ref_to_masks(sets)
    masks = _ref_dedupe_and_prune(masks)
    full = (1 << universe_size) - 1
    optimum = _ref_min_size(masks, full, universe_size)
    assert optimum is not None

    chosen: list[int] = []
    remaining = masks
    allowed = full
    while remaining:
        need = optimum - len(chosen)
        useful = 0
        for m in remaining:
            useful |= m
        for e in _ref_bits(allowed & useful):
            bit = 1 << e
            rest = [m for m in remaining if not m & bit]
            higher = allowed & ~((bit << 1) - 1)  # indices strictly above e
            if not rest:
                sub = 0
            else:
                sub = _ref_min_size(rest, higher, need - 1)
            if sub is not None and sub <= need - 1:
                chosen.append(e)
                remaining = rest
                allowed = higher
                break
        else:  # pragma: no cover - optimum guarantees progress
            raise AssertionError("lexicographic refinement failed")
    return tuple(chosen)
