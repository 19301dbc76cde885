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
layer-norm reference takes its means with ndarray.mean, and the sentence
backward reference runs the decoder block backward once per task and sums
the weighted results, and the group backward reference runs the
per-sentence backward that preceded it once per sentence of the group, and
the sentence-loss reference takes every head's loss and backward one
sentence at a time, as the trainer did before the group losses, with the
edge, property and top losses of one sentence kept here as they were (the
multi-class edge-label gradient summing over parallel edges, and no top
bias), and the mixture-of-softmaxes and query layer references form their
model-dimension contractions with np.einsum, as the layers did before they
used matmul, and the decode reference parses one sentence at a time, with
its own property, top and edge head calls and a loop over every query pair,
as predict_batch did before it decoded a group at once.
The rule-order key spells the canonical order out field by field instead
of comparing tuples.  The reference graph parser is
the per-node, per-edge and per-token helper version that preceded the
one-pass parse_graph, kept as it was.
The label-target reference applies every rule of the table to every
node's anchored tokens, as the trainer did before it read the targets off
the solved rule-set problem.
The rule-problem references take rule sets from enumerate_applicable_rules
here, which runs rules.enumerate_applicable_rules on a rule table of its own,
reads back the rules its ids stand for and expands each token or lemma rule
of a one-token join, which the package enumerates with the first separator
only, to every separator, so the references stay all-separator.
without_one_token_separator_variants removes from such a reference problem
the separator variants no multi-token item derives, which the package never
puts in a problem.  canonical_problem re-indexes a rule
problem, whose universe is in first-found order, into canonical rule order,
so index-level pins and references compare against one fixed numbering.
The rule-problem digest, the brute-force hitting set, the loss bundle, the
sentence total loss, the one-query label head loss, the per-sentence views
of a group pass and the target-row selection and shuffle of an example
serve only the tests.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

from mrparse import heads, model, rules, trainer, transform
from mrparse.graph import (FRAMEWORKS, Anchor, Edge, Graph, GraphParseError,
                           GraphSchemaError, Node, Token, anchored_token_indices,
                           graph_tokens, whitespace_tokens)
from mrparse.heads import HeadError
from mrparse.hitting import InfeasibleError
from mrparse.matcher import MASK_EPSILON, MatchProblem, geomean_anchor
from mrparse.model import LN_EPS
from mrparse.rules import (ABSOLUTE, LEMMA, MAX_AFFIX_LEN, MAX_CHAR_STRIP,
                           MAX_TOKEN_DROP, NUMBER, SEPARATORS, TOKEN, AbsoluteRule,
                           LemmaRule, NumberRule, RuleSetProblem, TokenRule,
                           apply_rule, assign_artificial_anchors, minimal_rule_set,
                           rule_to_line, words_to_number)


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
    summed over every axis but the last in one multi-axis reduction."""
    normed, inv, gain = cache
    leading = tuple(range(dy.ndim - 1))
    dgain = (dy * normed).sum(axis=leading)
    dbias = dy.sum(axis=leading)
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


def reference_build_problem(label_probs, anchor_probs, source_tokens, label_targets,
                            anchored) -> MatchProblem:
    """matcher.build_problem written one target column and one token at a time."""
    num_queries, num_tokens = anchor_probs.shape
    label_score = np.zeros((num_queries, len(label_targets)))
    anchor_score = np.ones((num_queries, len(label_targets)))
    for j, target in enumerate(label_targets):
        label_score[:, j] = label_probs @ target
        observed = np.empty((num_queries, num_tokens))
        for t in range(num_tokens):
            if anchored[j, t]:
                observed[:, t] = anchor_probs[:, t]
            else:
                observed[:, t] = 1.0 - anchor_probs[:, t]
        anchor_score[:, j] = geomean_anchor(observed)
        permitted = np.isin(source_tokens, np.flatnonzero(anchored[j]))
        anchor_score[:, j] = np.where(permitted, anchor_score[:, j], MASK_EPSILON)
    return MatchProblem(label_score=label_score, anchor_score=anchor_score)


def reference_tie_groups(problem: MatchProblem, tolerance: float) -> list[list[int]]:
    """Targets grouped by their score columns, one column comparison at a
    time: each joins the first group whose first member's label and anchor
    columns it matches within tolerance, or starts a new one; groups of two
    or more are kept.  At tolerance 0 this is the tie rule of
    matcher.tie_groups, read from the problem instead of the gold rows."""
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


_REFERENCE_KIND_RANK = {TOKEN: 0, LEMMA: 1, NUMBER: 2, ABSOLUTE: 3}


def reference_rule_key(rule):
    """The canonical rule order spelled out field by field: kind rank, then
    the seven-tuple fields of token and lemma rules, or an absolute rule's
    label."""
    if rule.kind in (TOKEN, LEMMA):
        fields = (rule.drop_left, rule.drop_right, rule.separator,
                  rule.strip_left, rule.strip_right, rule.prefix, rule.suffix)
    elif rule.kind == ABSOLUTE:
        fields = (rule.label,)
    else:
        fields = ()
    return (_REFERENCE_KIND_RANK[rule.kind], fields)


def enumerate_rules_oracle(tokens, lemmas, label):
    """Exhaustive sweep of the rule space filtered by apply_rule.

    Candidate affixes are all label prefixes/suffixes up to MAX_AFFIX_LEN, so
    the sweep covers every seven-tuple whose application could possibly equal
    the label; membership is decided solely by apply_rule.
    """
    found = {AbsoluteRule(label)}
    if tokens and words_to_number(tokens) == label:
        found.add(NumberRule())
    prefixes = {label[:k] for k in range(min(MAX_AFFIX_LEN, len(label)) + 1)}
    suffixes = {label[-k:] if k else "" for k in
                range(min(MAX_AFFIX_LEN, len(label)) + 1)}
    for kind in (TokenRule, LemmaRule):
        for drop_left in range(MAX_TOKEN_DROP + 1):
            for drop_right in range(MAX_TOKEN_DROP + 1):
                for sep in SEPARATORS:
                    for strip_left in range(MAX_CHAR_STRIP + 1):
                        for strip_right in range(MAX_CHAR_STRIP + 1):
                            for prefix in prefixes:
                                for suffix in suffixes:
                                    rule = kind(drop_left, drop_right, sep,
                                                strip_left, strip_right,
                                                prefix, suffix)
                                    if apply_rule(rule, tokens, lemmas) == label:
                                        found.add(rule)
    return found


def reference_enumerate_applicable_rules(tokens, lemmas, label):
    """rules.enumerate_applicable_rules searching the whole label once per
    (kind, drops, separator, strip pair), with no sharing between equal
    joined strings and no affix window."""
    found = {AbsoluteRule(label)}
    if tokens and words_to_number(tokens) == label:
        found.add(NumberRule())
    for kind, source in ((TokenRule, tokens), (LemmaRule, lemmas)):
        if not source:
            continue
        n = len(source)
        for drop_left in range(min(MAX_TOKEN_DROP, n - 1) + 1):
            for drop_right in range(min(MAX_TOKEN_DROP, n - 1 - drop_left) + 1):
                surviving = source[drop_left:n - drop_right]
                for sep in SEPARATORS:
                    joined = sep.join(surviving)
                    max_left = min(MAX_CHAR_STRIP, len(joined) - 1)
                    for strip_left in range(max_left + 1):
                        max_right = min(MAX_CHAR_STRIP,
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
                                if (len(prefix) <= MAX_AFFIX_LEN
                                        and len(suffix) <= MAX_AFFIX_LEN):
                                    found.add(kind(drop_left, drop_right, sep,
                                                   strip_left, strip_right,
                                                   prefix, suffix))
                                start = pos + 1
    return found


def enumerate_applicable_rules(tokens, lemmas, label):
    """The set of rules rules.enumerate_applicable_rules finds, read off the
    ids it returns through a rule table of this call's own, with each token
    or lemma rule of a one-token join expanded to every separator: the
    all-separator rule set."""
    ids = {}
    found = rules.enumerate_applicable_rules(tokens, lemmas, label, ids)
    universe = list(ids)
    expanded = set()
    for rule in (universe[i] for i in found):
        if rule.kind in (TOKEN, LEMMA) and one_token_join(rule, tokens, lemmas):
            expanded.update(rule._replace(separator=sep) for sep in SEPARATORS)
        else:
            expanded.add(rule)
    return expanded


def one_token_join(rule, tokens, lemmas) -> bool:
    """Whether a token or lemma rule's drops leave one token of its source."""
    source = tokens if rule.kind == TOKEN else lemmas
    return len(source) - rule.drop_left - rule.drop_right == 1


def without_one_token_separator_variants(problem: RuleSetProblem,
                                         items) -> RuleSetProblem:
    """A problem with one rule set per item, less every separator variant
    (token or lemma rule, separator other than SEPARATORS[0]) that no item
    derives through a join of two or more tokens; the universe keeps its
    order."""
    keep = set()
    for (tokens, lemmas, _), found in zip(items, problem.per_node):
        for i in found:
            rule = problem.universe[i]
            if rule.separator == SEPARATORS[0] or \
                    not one_token_join(rule, tokens, lemmas):
                keep.add(i)
    kept = sorted(keep)
    index = {old: new for new, old in enumerate(kept)}
    return RuleSetProblem(
        universe=tuple(problem.universe[i] for i in kept),
        per_node=tuple(frozenset(index[i] for i in found if i in index)
                       for found in problem.per_node),
        node_names=problem.node_names)


def canonical_problem(problem: RuleSetProblem, solution: Sequence[int] = ()):
    """(problem, solution) re-indexed so that the universe is in canonical
    rule order: the node sets and the solution name the same rules."""
    universe = sorted(problem.universe, key=reference_rule_key)
    index = {rule: i for i, rule in enumerate(universe)}
    old_to_new = [index[rule] for rule in problem.universe]
    per_node = tuple(frozenset(old_to_new[i] for i in s) for s in problem.per_node)
    return (RuleSetProblem(universe=tuple(universe), per_node=per_node,
                           node_names=problem.node_names),
            tuple(sorted(old_to_new[i] for i in solution)))


def reference_rule_problem(items, *, names) -> RuleSetProblem:
    """rules.build_problem with one rule enumeration per item."""
    per_node_rules = [enumerate_applicable_rules(tokens, lemmas, label)
                      for tokens, lemmas, label in items]
    universe = sorted({r for rules in per_node_rules for r in rules},
                      key=reference_rule_key)
    index = {rule: i for i, rule in enumerate(universe)}
    per_node = tuple(frozenset(index[r] for r in rules) for rules in per_node_rules)
    return RuleSetProblem(universe=tuple(universe), per_node=per_node,
                          node_names=tuple(names))


def problem_digest(problem: RuleSetProblem) -> str:
    """sha256 of a rule problem's universe (as table lines) and node sets."""
    payload = json.dumps([[rule_to_line(r) for r in problem.universe],
                          [sorted(s) for s in problem.per_node]],
                         ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def reference_anchor_flavor2_corpus(graphs):
    """rules.anchor_flavor2_corpus with one rule enumeration per (node, token)
    and every separator; returns (anchored graphs, problem, solution)."""
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
                                                          node.label)
                    if r.kind != ABSOLUTE}
                candidates.append(rules_here)
                all_rules |= rules_here
            all_rules.add(AbsoluteRule(node.label))
            entries.append((gi, ni, candidates))

    universe = sorted(all_rules, key=reference_rule_key)
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
    solution = minimal_rule_set(problem)
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


def reference_label_targets(pre: Graph, table: Sequence) -> np.ndarray:
    """trainer.build_example's label targets [nodes, rules + 1] as it derived
    them before it took them from the solved rule-set problem: every rule of
    the table applied to each node's anchored forms and lemmas."""
    tokens = graph_tokens(pre)
    rows = np.empty((len(pre.nodes), len(table) + 1))
    for j, node in enumerate(pre.nodes):
        indices = anchored_token_indices(node, tokens)
        forms = [tokens[i].form for i in indices]
        lemmas = [tokens[i].lemma for i in indices]
        rows[j] = rules.build_rule_target(
            [r for r, rule in enumerate(table)
             if apply_rule(rule, forms, lemmas) == node.label], len(table))
    return rows


# ---------------------------------------------------------------------------
# hitting set over element masks

def reference_kept_constraints(sets: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """hitting._kept_constraints by the pairwise scan: each distinct set,
    shortest first, is kept unless some kept set is inside it."""
    kept: list[frozenset[int]] = []
    for s in sorted(dict.fromkeys(sets), key=len):
        if not any(k <= s for k in kept):
            kept.append(s)
    return kept


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


class UniverseTooLargeError(Exception):
    pass


def brute_force_min_hitting_set(sets: Sequence[frozenset[int]],
                                universe_size: int) -> tuple[int, ...]:
    """Exact minimum by subset enumeration in increasing cardinality.

    Ties break to the lexicographically smallest index set.  Only valid for
    universes of at most 20 elements.
    """
    if universe_size > 20:
        raise UniverseTooLargeError(f"universe size {universe_size} exceeds 20")
    masks = _ref_to_masks(sets)
    for size in range(universe_size + 1):
        for combo in itertools.combinations(range(universe_size), size):
            chosen = 0
            for e in combo:
                chosen |= 1 << e
            if all(mask & chosen for mask in masks):
                return combo
    raise InfeasibleError(0)  # unreachable: every nonempty set is hittable


# ---------------------------------------------------------------------------
# graph parsing: one helper per node, edge and token, each check a call

def _ref_require(condition: bool, message: str, field_name: str):
    if not condition:
        raise GraphSchemaError(message, field_name)


def _ref_integer(value, field_name: str) -> int:
    if type(value) is not int:
        raise GraphSchemaError("must be an integer", field_name)
    return value


def _ref_text(value, field_name: str) -> str:
    if type(value) is not str:
        raise GraphSchemaError("must be text", field_name)
    return value


def _ref_pairs_from_parallel(obj: dict, names_key: str, values_key: str, where: str):
    names = obj.get(names_key)
    values = obj.get(values_key)
    if names is None and values is None:
        return ()
    _ref_require(isinstance(names, list) and isinstance(values, list),
                 f"{names_key}/{values_key} must be parallel arrays", where)
    _ref_require(len(names) == len(values),
                 f"{names_key} and {values_key} differ in length", where)
    return tuple((_ref_text(n, where), v) for n, v in zip(names, values))


_REF_NODE_KEYS = {"id", "label", "properties", "values", "anchors"}
_REF_EDGE_KEYS = {"source", "target", "label", "attributes", "values"}
_REF_GRAPH_KEYS = {"id", "flavor", "framework", "input", "tops", "nodes", "edges",
                   "tokens"}


def _ref_parse_node(obj, tops: set[int]) -> Node:
    _ref_require(isinstance(obj, dict), "node must be an object", "nodes")
    node_id = _ref_integer(obj.get("id"), "nodes.id")
    anchors = []
    anchors_raw = obj.get("anchors")
    _ref_require(anchors_raw is None or isinstance(anchors_raw, list),
                 "anchors must be an array", "nodes.anchors")
    for a in anchors_raw or ():
        _ref_require(isinstance(a, dict) and "from" in a and "to" in a,
                     "anchor must carry 'from' and 'to'", "nodes.anchors")
        anchors.append(Anchor(_ref_integer(a["from"], "nodes.anchors.from"),
                              _ref_integer(a["to"], "nodes.anchors.to")))
    label = obj.get("label")
    _ref_require(label is None or isinstance(label, str), "label must be text",
                 "nodes.label")
    properties = tuple((k, _ref_text(v, "nodes.values")) for k, v in
                       _ref_pairs_from_parallel(obj, "properties", "values",
                                                "nodes.properties"))
    extras = tuple(sorted((k, v) for k, v in obj.items() if k not in _REF_NODE_KEYS))
    return Node(id=node_id, label=label, properties=properties,
                anchors=tuple(anchors), is_top=node_id in tops, extras=extras)


def _ref_parse_edge(obj, node_ids: set[int]) -> Edge:
    _ref_require(isinstance(obj, dict), "edge must be an object", "edges")
    for endpoint in ("source", "target"):
        if _ref_integer(obj.get(endpoint), f"edges.{endpoint}") not in node_ids:
            raise GraphSchemaError(f"edge cites nonexistent node id {obj[endpoint]}",
                                   f"edges.{endpoint}")
    label = obj.get("label")
    _ref_require(isinstance(label, str), "edge label must be text", "edges.label")
    attributes = _ref_pairs_from_parallel(obj, "attributes", "values", "edges.attributes")
    extras = tuple(sorted((k, v) for k, v in obj.items() if k not in _REF_EDGE_KEYS))
    return Edge(source=obj["source"], target=obj["target"], label=label,
                attributes=attributes, extras=extras)


def _ref_parse_token(obj) -> Token:
    _ref_require(isinstance(obj, dict) and "form" in obj, "token must carry 'form'",
                 "tokens")
    form = _ref_text(obj["form"], "tokens.form")
    start = _ref_integer(obj["from"], "tokens.from") if "from" in obj else 0
    end = _ref_integer(obj["to"], "tokens.to") if "to" in obj else start + len(form)
    lemma = _ref_text(obj["lemma"], "tokens.lemma") if "lemma" in obj else form.lower()
    return Token(form=form, start=start, end=end, lemma=lemma)


def reference_parse_graph(line: str) -> Graph:
    """The graph parser before the one-pass rewrite.  It differs from
    parse_graph only in reading a falsy non-array tops, nodes or edges (0,
    "", false, {}) as empty."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        byte_offset = len(line[:exc.pos].encode("utf-8"))
        raise GraphParseError(exc.msg, byte_offset) from None
    _ref_require(isinstance(obj, dict), "top-level value must be an object", "<root>")
    _ref_require(type(obj.get("id")) in (str, int), "graph id required", "id")
    framework = obj.get("framework")
    _ref_require(framework in FRAMEWORKS, f"framework must be one of {FRAMEWORKS}",
                 "framework")
    flavor = obj.get("flavor")
    _ref_require(_ref_integer(flavor, "flavor") in (1, 2), "flavor must be 1 or 2",
                 "flavor")
    text = obj.get("input")
    _ref_require(isinstance(text, str), "input sentence required", "input")

    tops_raw = obj.get("tops") or ()
    _ref_require(isinstance(tops_raw, (list, tuple)), "tops must be an array", "tops")
    tops = set()
    for t in tops_raw:
        tops.add(_ref_integer(t, "tops"))

    nodes_raw = obj.get("nodes") or ()
    _ref_require(isinstance(nodes_raw, (list, tuple)), "nodes must be an array", "nodes")
    nodes = tuple(_ref_parse_node(n, tops) for n in nodes_raw)
    node_ids = {n.id for n in nodes}
    for t in tops:
        if t not in node_ids:
            raise GraphSchemaError(f"top cites nonexistent node id {t}", "tops")

    edges_raw = obj.get("edges") or ()
    _ref_require(isinstance(edges_raw, (list, tuple)), "edges must be an array", "edges")
    edges = tuple(_ref_parse_edge(e, node_ids) for e in edges_raw)

    tokens = None
    if obj.get("tokens") is not None:
        _ref_require(isinstance(obj["tokens"], list), "tokens must be an array", "tokens")
        tokens = tuple(_ref_parse_token(t) for t in obj["tokens"])

    extras = tuple(sorted((k, v) for k, v in obj.items() if k not in _REF_GRAPH_KEYS))
    return Graph(id=str(obj["id"]), framework=framework, flavor=flavor, input=text,
                 nodes=nodes, edges=edges, tokens=tokens, extras=extras)


# ---------------------------------------------------------------------------
# weighted total loss

@dataclass
class LossBundle:
    """Per-task losses and their adaptive weights."""

    losses: dict[str, float]
    weights: dict[str, float]

    def __post_init__(self):
        missing = set(self.losses) - set(self.weights)
        if missing:
            raise HeadError(f"weights missing for tasks {sorted(missing)}")


def total_loss(bundle: LossBundle) -> float:
    """Weighted sum of the partial task losses."""
    return float(sum(bundle.weights[t] * loss for t, loss in sorted(bundle.losses.items())))


def pairing(example, assignment, num_queries: int) -> list:
    """(query, its gold node's (rule target row, anchor token indices) or
    None for a null match) for every one of the num_queries queries of one
    sentence, in query order; the rules of the row derive the node's label
    from its anchored tokens, so the pair stands for (label, anchors)."""
    target_of = {query: target for target, query in enumerate(assignment.queries)}
    return [(query, (tuple(example.label_targets[target_of[query]].tolist()),
                     tuple(np.flatnonzero(example.anchored[target_of[query]]).tolist()))
             if query in target_of else None)
            for query in range(num_queries)]


def with_targets(example, rows: Sequence[int], **changes):
    """example with its target rows taken in the order rows gives (repeats
    allowed), and the fields in changes replaced."""
    rows = list(rows)
    taken = dict(label_targets=example.label_targets[rows],
                 anchored=example.anchored[rows], is_property=example.is_property[rows])
    return replace(example, **{**taken, **changes})


def shuffle_targets(example, rng):
    """example with its gold nodes in an order rng draws, the edges and the
    top renumbered alike."""
    order = rng.permutation(len(example.label_targets)).tolist()
    inverse = {old: new for new, old in enumerate(order)}
    return with_targets(
        example, order, edges=np.array([(inverse[a], inverse[b], label) for a, b, label
                                        in example.edges.tolist()]).reshape(-1, 3),
        top_index=inverse[example.top_index] if example.top_index is not None else None)


def sentence_total_loss(params: dict, config, example,
                        weights: Optional[dict[str, float]] = None,
                        ) -> tuple[float, list]:
    """Total loss of one sentence through a group of one, gradients
    discarded; used by invariance checks."""
    fwd = trainer.forward_sentence(params, config, example.token_ids[None])
    assignment = trainer.match_queries(fwd, 0, example, params)
    losses, _ = trainer.sentence_losses(params, config, [example], fwd, [assignment])
    weights = weights or {t: 1.0 for t in losses}
    total = total_loss(LossBundle(losses=losses, weights=weights))
    return total, pairing(example, assignment, fwd.hidden.shape[1])


def sentence_passes(fwd, params: dict) -> list:
    """Per-sentence views of a group pass: each array split on its sentence
    axis, except source_tokens and the parameters the caches hold."""
    shared = {id(value) for value in params.values()} | {id(fwd.source_tokens)}
    count = fwd.hidden.shape[0]

    def split(tree) -> list:
        kind = type(tree)
        if kind is np.ndarray and id(tree) not in shared:
            return list(tree)
        if (kind is tuple or kind is list) and tree:
            return [kind(parts) for parts in zip(*map(split, tree))]
        return [tree] * count

    arrays = tuple(getattr(fwd, f.name) for f in fields(fwd))
    return [trainer.ForwardPass(*row) for row in split(arrays)]


def reference_edge_losses(params: dict, example, states: np.ndarray) -> dict:
    """The edge losses of one sentence's matched states, one row per target,
    as task -> (loss, head parameter grads, grad wrt states), with the
    presence matrix and the label targets built one edge at a time, one
    (pair, label id) entry per gold edge."""
    m = len(states)
    presence = np.zeros((m, m))
    pairs, labels = [], []
    for a, b, label_id in example.edges.tolist():
        presence[a, b] = 1.0
        pairs.append((a, b))
        labels.append(label_id)
    out = {}
    logits, cache = heads.biaffine_forward(states, states, params["edgep.u"])
    loss, du, dstates = reference_edge_presence_loss(logits, cache, presence)
    out["edge_presence"] = (loss, {"edgep.u": du}, dstates)
    logits, cache = heads.biaffine_forward(states, states, params["edgel.u"])
    loss, du, dstates = reference_edge_label_loss(logits, cache, pairs, labels)
    out["edge_label"] = (loss, {"edgel.u": du}, dstates)
    return out


def reference_edge_presence_loss(head_logits: np.ndarray, cache, targets: np.ndarray):
    """Mean BCE over all ordered node pairs of one sentence: (loss, du, dstates)."""
    logits = head_logits[0]
    count = logits.size
    if count == 0:
        return 0.0, np.zeros_like(cache[2]), np.zeros((0, cache[0].shape[1] - 1))
    loss, dlogits = heads.bce(logits, targets)
    du, dx, dy = heads.biaffine_backward(cache, dlogits[None, :, :] / count)
    return float(loss.sum()) / count, du, dx + dy


def reference_edge_label_loss(head_logits: np.ndarray, cache, gold_pairs, gold_labels):
    """Softmax cross-entropy of edge labels on the gold pairs of one
    sentence, one pair and class index at a time.  Returns (loss, du,
    dstates)."""
    dlogits = np.zeros_like(head_logits)
    loss = 0.0
    count = len(gold_pairs)
    for (a, b), label in zip(gold_pairs, gold_labels):
        pair_loss, grad = heads.nll(head_logits[:, a, b], label)
        loss += float(pair_loss.sum())
        dlogits[:, a, b] += grad / count
    du, dx, dy = heads.biaffine_backward(cache, dlogits)
    return (loss / count if count else 0.0), du, dx + dy


def reference_property_loss(states: np.ndarray, w: np.ndarray, b: float,
                            targets: np.ndarray):
    """Mean BCE of one sentence's property logits: (loss, dw, db, dstates)."""
    n = len(states)
    if n == 0:
        return 0.0, np.zeros_like(w), 0.0, np.zeros_like(states)
    loss, dlogits = heads.bce(states @ w + b, targets)
    dlogits = dlogits / n
    return float(loss.sum()) / n, states.T @ dlogits, float(dlogits.sum()), \
        dlogits[:, None] * w[None, :]


def reference_top_loss(states: np.ndarray, w: np.ndarray, gold: int):
    """Cross-entropy of one sentence's gold top node: (loss, dw, dstates)."""
    loss, dlogits = heads.nll(states @ w, gold)
    return float(loss), states.T @ dlogits, dlogits[:, None] * w[None, :]


def reference_sentence_losses(params: dict, config, example, fwd, assignment,
                              ) -> tuple[dict[str, float], trainer.SentenceGrads]:
    """trainer.sentence_losses as it was before the group losses: one
    sentence's 2-D pass (a sentence_passes view), its label and anchor
    losses and their backward taken on their own, the targets taken one
    query at a time.  Returns (losses, grads), grads.dhidden [tasks,
    queries, dim]."""
    num_queries = fwd.hidden.shape[0]
    num_targets = len(example.label_targets)

    losses: dict[str, float] = {}
    head: dict[str, dict[str, np.ndarray]] = {}
    row = {task: k for k, task in enumerate(trainer.TASKS)}
    dhidden = np.zeros((len(trainer.TASKS),) + fwd.hidden.shape)

    # label loss over every query (null queries get the null class target),
    # each query's target smoothed on its own
    num_classes = fwd.label_probs.shape[-1]
    target_of = {query: target for target, query in enumerate(assignment.queries)}
    null_target = np.zeros(num_classes)
    null_target[-1] = 1.0
    smoothing = config.label_smoothing
    target_matrix = np.stack([
        (1.0 - smoothing) * target + smoothing / num_classes if smoothing else target
        for target in (example.label_targets[target_of[query]] if query in target_of
                       else null_target for query in range(num_queries))])
    loss_label, dprob_matrix = heads.label_loss(fwd.label_probs, target_matrix,
                                                config.focal_gamma)
    losses["label"] = loss_label
    head["label"], dhidden[row["label"]] = heads.mos_backward_batch(
        fwd.mos_cache, dprob_matrix / num_queries)

    # anchor loss over queries matched to real nodes
    anchor_targets = np.zeros_like(fwd.anchor_probs)
    mask = np.zeros(num_queries, dtype=bool)
    for target, query in enumerate(assignment.queries):
        mask[query] = True
        anchor_targets[query] = example.anchored[target]
    losses["anchor"], du, dhidden[row["anchor"]], anchor_dmemory = heads.anchor_loss(
        fwd.anchor_cache, anchor_targets, mask)
    head["anchor"] = {"anchor.u": du}

    # the other heads see only the matched queries, sel (no repeats): the
    # query of each target in turn
    sel = list(assignment.queries)
    states = fwd.hidden[sel]

    for task, (loss, grads, dstates) in reference_edge_losses(
            params, example, states).items():
        losses[task] = loss
        dhidden[row[task], sel] = dstates
        head[task] = grads

    prop_targets = np.array([1.0 if example.is_property[j] else 0.0
                             for j in range(num_targets)])
    loss, dw, db, dstates = reference_property_loss(states, params["prop.w"],
                                                    float(params["prop.b"]), prop_targets)
    losses["property"] = loss
    dhidden[row["property"], sel] = dstates
    head["property"] = {"prop.w": dw, "prop.b": np.array(db)}

    if example.top_index is not None:
        loss, dw, dstates = reference_top_loss(states, params["top.w"],
                                               example.top_index)
        losses["top"] = loss
        dhidden[row["top"], sel] = dstates
        head["top"] = {"top.w": dw}

    grads = trainer.SentenceGrads(head=head, dhidden=dhidden,
                                  anchor_dmemory=anchor_dmemory)
    return losses, grads


def label_head_loss(h: np.ndarray, params, target: np.ndarray, gamma: float):
    """Focal label loss of one query through the mixture head, composed from
    the batch forward, the loss and the batch backward: (loss, dh, grads)."""
    probs, cache = heads.mos_forward_batch(h[None, :], params)
    loss, dprobs = heads.label_loss(probs, target[None, :], gamma)
    grads, dh = heads.mos_backward_batch(cache, dprobs)
    return loss, dh[0], grads


def reference_mos_forward(h: np.ndarray, params: dict):
    """heads.mos_forward_batch with the component projection as an einsum;
    the same (probs, cache)."""
    x = np.tanh(np.einsum("kde,...ne->...nkd", params["label.proj_w"], h)
                + params["label.proj_b"])
    gates = heads.sigmoid(h @ params["label.gate_w"].T + params["label.gate_b"])
    weights = gates / gates.sum(axis=-1)[..., None]
    components = heads.softmax(x @ params["label.out_w"] + params["label.out_b"])
    probs = np.einsum("...nk,...nkv->...nv", weights, components)
    return probs, (h, params, x, gates, weights, components)


def reference_mos_backward(cache, dprobs: np.ndarray):
    """heads.mos_backward_batch with the output, projection and input
    gradients as einsums; the same (grads, dh)."""
    lead = dprobs.shape[:-1]
    h, params, x, gates, weights, components = cache
    h, x, gates, weights, components, dprobs = (
        a.reshape((-1,) + a.shape[len(lead):])
        for a in (h, x, gates, weights, components, dprobs))
    dcomponents = weights[:, :, None] * dprobs[:, None, :]
    dweights = np.einsum("nkv,nv->nk", components, dprobs)
    dlogits = components * (dcomponents
                            - (dcomponents * components).sum(axis=-1, keepdims=True))
    dx = dlogits @ params["label.out_w"].T
    dpre = (1.0 - x * x) * dx
    totals = gates.sum(axis=-1, keepdims=True)
    dgates = (dweights - (dweights * weights).sum(axis=-1, keepdims=True)) / totals
    dgate_logits = gates * (1.0 - gates) * dgates
    grads = {"label.proj_w": np.einsum("nkd,ne->kde", dpre, h),
             "label.proj_b": dpre.sum(axis=0),
             "label.gate_w": dgate_logits.T @ h, "label.gate_b": dgate_logits.sum(axis=0),
             "label.out_w": np.einsum("nkd,nkv->dv", x, dlogits),
             "label.out_b": dlogits.sum(axis=(0, 1))}
    dh = (np.einsum("nkd,kde->ne", dpre, params["label.proj_w"])
          + dgate_logits @ params["label.gate_w"])
    return grads, dh.reshape(lead + dh.shape[-1:])


def reference_queries_forward(params: dict, e: np.ndarray):
    """model.queries_forward with the slot projection as an einsum; the same
    (states, source, cache)."""
    w, b = params["query.w"], params["query.b"]
    num_tokens = e.shape[-2]
    q = np.tanh(np.einsum("tde,...ne->...ntd", w, e) + b)
    states = q.reshape(e.shape[:-2] + (num_tokens * w.shape[0], -1))
    return states, np.repeat(np.arange(num_tokens), w.shape[0]), (e, q)


def reference_queries_backward(params: dict, cache, dstates: np.ndarray, grads: dict):
    """model.queries_backward with the weight and input gradients as einsums."""
    e, q = cache
    dpre = (1.0 - q * q) * dstates.reshape(q.shape)
    rows = dpre.reshape((-1,) + q.shape[-2:])
    model.add_grad(grads, "query.w",
                   np.einsum("ntd,ne->tde", rows, e.reshape(-1, e.shape[-1])))
    model.add_grad(grads, "query.b", rows.sum(axis=0))
    return np.einsum("...ntd,tde->...ne", dpre, params["query.w"])


def reference_backward_sentence(params: dict, fwd, grads, weights: dict,
                                scale: float) -> tuple[dict, list[dict]]:
    """trainer.backward_sentence with one 2-D decoder backward per task.

    Each task's output gradient goes through model.block_backward on its own,
    into its own grads; the total is sum_t weights[t] * scale * grad_t over
    the tasks in trainer.TASKS order.  Returns (total grads, the
    unweighted decoder grads of each task in that order).
    """
    total: dict = {}
    per_task = []
    dquery_total = np.zeros_like(fwd.hidden)
    dmemory_total = np.zeros_like(grads.anchor_dmemory)
    for row, task in enumerate(trainer.TASKS):
        decoder: dict = {}
        dquery, dmemory = model.block_backward(params, "dec", fwd.dec_cache,
                                               grads.dhidden[row], decoder)
        if task == "anchor":
            dmemory = dmemory + grads.anchor_dmemory
        per_task.append(decoder)
        weight = weights[task]
        for key, grad in {**decoder, **grads.head.get(task, {})}.items():
            model.add_grad(total, key, weight * scale * grad)
        dquery_total += weight * dquery
        dmemory_total += weight * dmemory
    de = model.queries_backward(params, fwd.query_cache, scale * dquery_total, total)
    model.encode_backward(params, fwd.enc_cache, de + scale * dmemory_total, total)
    return total, per_task


def per_sentence_backward(params: dict, fwd, grads, weights: dict, scale: float,
                          total_grads: dict, task_sums: dict):
    """trainer.backward_sentence as it was before the group backward: one
    sentence's 2-D pass and sentence_losses grads, head grads included."""
    for key, grad in model.ffn_out_grads("dec", fwd.dec_cache, grads.dhidden).items():
        model.add_grad(task_sums, key, grad, scale)
    dy = sum(weights[task] * grads.dhidden[row] for row, task in enumerate(trainer.TASKS))
    dquery, dmemory = model.block_backward(params, "dec", fwd.dec_cache, scale * dy,
                                           total_grads)
    dmemory += (scale * weights["anchor"]) * grads.anchor_dmemory
    for task, head in grads.head.items():
        for key, grad in head.items():
            model.add_grad(total_grads, key, weights[task] * scale * grad)
    de = model.queries_backward(params, fwd.query_cache, dquery, total_grads)
    model.encode_backward(params, fwd.enc_cache, de + dmemory, total_grads)


def reference_group_backward(params: dict, fwd, dhidden: np.ndarray,
                             anchor_dmemory: np.ndarray, weights: dict,
                             scale: float) -> tuple[dict, dict]:
    """The group backward as per_sentence_backward summed over the group's
    sentences in group order; dhidden is [tasks, sentences, queries, dim] and
    anchor_dmemory [sentences, tokens, dim].  Returns (total grads, task sums)."""
    total: dict = {}
    task_sums: dict = {}
    for row, sentence in enumerate(sentence_passes(fwd, params)):
        grads = trainer.SentenceGrads(head={}, dhidden=dhidden[:, row],
                                      anchor_dmemory=anchor_dmemory[row])
        per_sentence_backward(params, sentence, grads, weights, scale,
                              total, task_sums)
    return total, task_sums


def reference_decode(trained, sentence: str) -> Graph:
    """trainer.predict as it was before it decoded a group at once: the
    forward of the one sentence, then its graph from the 2-D decoder states
    and head outputs."""
    params = trained.params
    meta = trained.meta
    config = meta.config
    tokens = whitespace_tokens(sentence)
    if not tokens:
        return Graph(id="pred-0", framework="eds", flavor=1, input=sentence, tokens=tokens)
    fwd = trainer.forward_sentence(params, config, meta.token_ids(tokens)[None])
    hidden, label_probs, anchor_probs = fwd.hidden[0], fwd.label_probs[0], fwd.anchor_probs[0]
    null_class = len(meta.rule_table)
    candidates = [q for q in range(hidden.shape[0])
                  if int(np.argmax(label_probs[q])) != null_class]

    # decode labels/anchors, dropping duplicate (label, anchors) realizations
    accepted = []
    decoded = []
    seen = set()
    for query in candidates:
        anchored = [t for t in range(len(tokens))
                    if anchor_probs[query, t] >= 0.5]
        forms = [tokens[t].form for t in anchored]
        lemmas = [tokens[t].lemma for t in anchored]
        label = rules.decode_label(label_probs[query], forms, lemmas,
                                   meta.rule_table)
        if label is None:
            # no rule realizes a label from the anchored tokens: a null
            continue
        anchors = ()
        if anchored:
            anchors = (Anchor(min(tokens[t].start for t in anchored),
                              max(tokens[t].end for t in anchored)),)
        signature = (label, anchors)
        if signature in seen:
            continue
        seen.add(signature)
        accepted.append(query)
        decoded.append((label, anchors))

    nodes = []
    property_flags = set()
    if accepted:
        prop_probs = heads.sigmoid(hidden[accepted] @ params["prop.w"]
                                   + float(params["prop.b"]))
        top = int(np.argmax(heads.softmax(hidden[accepted] @ params["top.w"])))
    for position, (label, anchors) in enumerate(decoded):
        nodes.append(Node(id=position, label=label, anchors=anchors,
                          is_top=position == top))
        if prop_probs[position] >= 0.5:
            property_flags.add(position)

    edges = []
    if accepted:
        states = hidden[accepted]
        p_logits, _ = heads.biaffine_forward(states, states, params["edgep.u"])
        presence = heads.sigmoid(p_logits[0])
        l_logits, _ = heads.biaffine_forward(states, states, params["edgel.u"])
        for a in range(len(accepted)):
            for b in range(len(accepted)):
                if a != b and presence[a, b] >= 0.5:
                    label_id = int(np.argmax(l_logits[:, a, b]))
                    edges.append(Edge(source=a, target=b,
                                      label=meta.edge_labels[label_id]))

    out = Graph(id="pred-0", framework="eds", flavor=1, input=sentence,
                nodes=tuple(nodes), edges=tuple(edges), tokens=tokens)
    if property_flags:
        out = transform.fold_property_nodes(out, property_flags)
    if meta.inverted_labels:
        out = transform.reinvert_edges_for_top(
            out, invertible_labels=set(meta.inverted_labels))
    return out
