"""Relative label encoding: rule space, applicability, minimal rule set.

A node label is encoded not as an atomic class but as a transformation rule
applied to the node's anchored tokens.  Four rule kinds exist: token rules
and lemma rules (seven-tuples: drop counts, separator, strip counts,
affixes), a number rule turning word numerals into digits, and absolute
fallback rules that emit a fixed label.  The retained rule inventory is the
exact minimum subset hitting every node's applicable-rule set.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import hitting
from .graph import Anchor, Graph, anchored_token_indices, graph_tokens


class RuleError(Exception):
    pass


class InfeasibleEncodingError(RuleError):
    """A node has no applicable retained rule."""


class DecodeError(RuleError):
    pass


@dataclass(frozen=True)
class TokenRule:
    """Drop tokens, join with a separator, strip characters, add affixes."""

    drop_left: int
    drop_right: int
    separator: str
    strip_left: int
    strip_right: int
    prefix: str
    suffix: str


@dataclass(frozen=True)
class LemmaRule:
    """As TokenRule but applied to the lemma sequence."""

    drop_left: int
    drop_right: int
    separator: str
    strip_left: int
    strip_right: int
    prefix: str
    suffix: str


@dataclass(frozen=True)
class NumberRule:
    """Transform an English word-numeral phrase into its digit string."""


@dataclass(frozen=True)
class AbsoluteRule:
    """Emit a fixed label regardless of the anchored tokens."""

    label: str


RelativeRule = Union[TokenRule, LemmaRule, NumberRule, AbsoluteRule]

_KIND_ORDER = {TokenRule: 0, LemmaRule: 1, NumberRule: 2, AbsoluteRule: 3}


def rule_sort_key(rule: RelativeRule):
    """Canonical total order over rules; fixes classifier output indexing."""
    if isinstance(rule, (TokenRule, LemmaRule)):
        fields = (rule.drop_left, rule.drop_right, rule.separator,
                  rule.strip_left, rule.strip_right, rule.prefix, rule.suffix)
    elif isinstance(rule, AbsoluteRule):
        fields = (rule.label,)
    else:
        fields = ()
    return (_KIND_ORDER[type(rule)], fields)


@dataclass(frozen=True)
class RuleSpaceBounds:
    """Finite search space for rule enumeration."""

    max_token_drop: int = 2
    max_char_strip: int = 4
    separators: tuple[str, ...] = ("", "+", "-", "_", " ")
    max_affix_len: int = 6
    number_rule: bool = True


# ---------------------------------------------------------------------------
# word numerals

_UNITS = {"zero": 0, "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
          "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10,
          "eleven": 11, "twelve": 12, "thirteen": 13, "fourteen": 14,
          "fifteen": 15, "sixteen": 16, "seventeen": 17, "eighteen": 18,
          "nineteen": 19}
_TENS = {"twenty": 20, "thirty": 30, "forty": 40, "fifty": 50, "sixty": 60,
         "seventy": 70, "eighty": 80, "ninety": 90}


def words_to_number(tokens: Sequence[str]) -> Optional[str]:
    """Parse an English cardinal phrase (up to 999,999) into digits.

    Compound forms with hyphens and "and" are accepted; returns None when the
    phrase is not a recognized numeral.
    """
    words = []
    for token in tokens:
        for part in token.lower().replace("-", " ").split():
            if part != "and":
                words.append(part)
    if not words:
        return None
    total = 0
    current = 0
    for word in words:
        if word in _UNITS:
            current += _UNITS[word]
        elif word in _TENS:
            current += _TENS[word]
        elif word == "hundred":
            current = max(current, 1) * 100
        elif word == "thousand":
            total += max(current, 1) * 1000
            current = 0
        else:
            return None
    value = total + current
    if value == 0 and words != ["zero"]:
        return None
    return str(value)


# ---------------------------------------------------------------------------
# rule application

def apply_rule(rule: RelativeRule, tokens: Sequence[str],
               lemmas: Sequence[str]) -> Optional[str]:
    """Apply a rule to anchored tokens/lemmas; None when inapplicable.

    Seven-tuple rules are inapplicable when no token survives the drops or
    when the strip counts do not leave at least one character of the joined
    string.
    """
    if isinstance(rule, AbsoluteRule):
        return rule.label
    if isinstance(rule, NumberRule):
        return words_to_number(tokens)
    source = lemmas if isinstance(rule, LemmaRule) else tokens
    end = len(source) - rule.drop_right
    if rule.drop_left >= end:
        return None
    joined = rule.separator.join(source[rule.drop_left:end])
    if rule.strip_left + rule.strip_right >= len(joined):
        return None
    core = joined[rule.strip_left:len(joined) - rule.strip_right]
    return rule.prefix + core + rule.suffix


def enumerate_applicable_rules(tokens: Sequence[str], lemmas: Sequence[str],
                               label: str,
                               bounds: RuleSpaceBounds = RuleSpaceBounds(),
                               ) -> set[RelativeRule]:
    """All rules within bounds that map the anchoring onto the label.

    The absolute rule for the label is always included; the number rule is
    included when the tokens parse to exactly the label.
    """
    found: set[RelativeRule] = {AbsoluteRule(label)}
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


# ---------------------------------------------------------------------------
# minimal rule set

@dataclass(frozen=True)
class RuleSetProblem:
    """Indexed rule universe plus each node's applicable subset."""

    universe: tuple[RelativeRule, ...]
    per_node: tuple[frozenset[int], ...]
    node_names: tuple[str, ...] = ()


def label_items(graphs: Sequence[Graph]) -> tuple[list[tuple], list[str]]:
    """(anchored forms, anchored lemmas, label) of every labelled node of
    preprocessed graphs, and each node's "graph <id> node <id>" name."""
    items = []
    names = []
    for g in graphs:
        tokens = graph_tokens(g)
        for node in g.nodes:
            if node.label is None:
                continue
            indices = anchored_token_indices(node, tokens)
            items.append(([tokens[i].form for i in indices],
                          [tokens[i].lemma for i in indices], node.label))
            names.append(f"graph {g.id} node {node.id}")
    return items, names


def build_problem(items: Sequence[tuple[Sequence[str], Sequence[str], str]],
                  bounds: RuleSpaceBounds = RuleSpaceBounds(),
                  names: Sequence[str] | None = None) -> RuleSetProblem:
    """Enumerate per-node rule sets and index the shared universe."""
    per_node_rules = [enumerate_applicable_rules(tokens, lemmas, label, bounds)
                      for tokens, lemmas, label in items]
    universe = sorted({r for rules in per_node_rules for r in rules}, key=rule_sort_key)
    index = {rule: i for i, rule in enumerate(universe)}
    per_node = tuple(frozenset(index[r] for r in rules) for rules in per_node_rules)
    node_names = tuple(names) if names is not None else tuple(
        f"node {i}" for i in range(len(items)))
    return RuleSetProblem(universe=tuple(universe), per_node=per_node,
                          node_names=node_names)


def _problem_digest(problem: RuleSetProblem) -> str:
    payload = json.dumps([[rule_to_line(r) for r in problem.universe],
                          [sorted(s) for s in problem.per_node]],
                         ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def minimal_rule_set(problem: RuleSetProblem,
                     cache_dir: str | None = None) -> tuple[int, ...]:
    """Exact minimum rule subset hitting every node's applicable set.

    Deterministic: ties between minimum-cardinality solutions break to the
    lexicographically smallest index set.  Solutions are cached per problem
    content hash when cache_dir is given.
    """
    for i, subset in enumerate(problem.per_node):
        if not subset:
            name = problem.node_names[i] if i < len(problem.node_names) else f"node {i}"
            raise InfeasibleEncodingError(f"{name} has no applicable rules")
    cache_path = None
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        cache_path = os.path.join(cache_dir, _problem_digest(problem) + ".json")
        if os.path.exists(cache_path):
            with open(cache_path, encoding="utf-8") as handle:
                return tuple(json.load(handle))
    try:
        solution = hitting.minimal_hitting_set(problem.per_node, len(problem.universe))
    except hitting.InfeasibleError as exc:
        name = problem.node_names[exc.constraint_index]
        raise InfeasibleEncodingError(f"{name} has no applicable rules") from None
    if cache_path is not None:
        tmp = cache_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(list(solution), handle)
        os.replace(tmp, cache_path)
    return solution


# ---------------------------------------------------------------------------
# rule tables

_KIND_NAMES = {TokenRule: "token", LemmaRule: "lemma",
               NumberRule: "number", AbsoluteRule: "absolute"}


def rule_to_line(rule: RelativeRule) -> str:
    """One rule per line: kind tag plus JSON-encoded fields, tab-separated."""
    kind = _KIND_NAMES[type(rule)]
    if isinstance(rule, (TokenRule, LemmaRule)):
        fields = [rule.drop_left, rule.drop_right, rule.separator,
                  rule.strip_left, rule.strip_right, rule.prefix, rule.suffix]
    elif isinstance(rule, AbsoluteRule):
        fields = [rule.label]
    else:
        fields = []
    return "\t".join([kind] + [json.dumps(f, ensure_ascii=False) for f in fields])


def rule_from_line(line: str) -> RelativeRule:
    parts = line.rstrip("\n").split("\t")
    kind, fields = parts[0], [json.loads(p) for p in parts[1:]]
    if kind in ("token", "lemma"):
        cls = TokenRule if kind == "token" else LemmaRule
        if len(fields) != 7:
            raise RuleError(f"{kind} rule needs 7 fields, got {len(fields)}")
        return cls(int(fields[0]), int(fields[1]), str(fields[2]),
                   int(fields[3]), int(fields[4]), str(fields[5]), str(fields[6]))
    if kind == "number":
        return NumberRule()
    if kind == "absolute":
        if len(fields) != 1:
            raise RuleError("absolute rule needs exactly 1 field")
        return AbsoluteRule(str(fields[0]))
    raise RuleError(f"unknown rule kind {kind!r}")


def save_rule_table(rules: Sequence[RelativeRule], path: str):
    with open(path, "w", encoding="utf-8") as handle:
        for rule in rules:
            handle.write(rule_to_line(rule))
            handle.write("\n")


def load_rule_table(path: str) -> tuple[RelativeRule, ...]:
    with open(path, encoding="utf-8") as handle:
        return tuple(rule_from_line(line) for line in handle if line.strip())


# ---------------------------------------------------------------------------
# targets and decoding

def build_rule_target(applicable_retained: Iterable[int], num_rules: int,
                      smoothing: float, is_null: bool = False) -> np.ndarray:
    """Target distribution over the retained rules plus the final null class.

    Real nodes get uniform mass over their applicable retained rules; null
    nodes get the null class.  Label smoothing mixes with the uniform
    distribution over all classes at the given rate.
    """
    size = num_rules + 1
    target = np.zeros(size)
    if is_null:
        target[num_rules] = 1.0
    else:
        indices = sorted(applicable_retained)
        if not indices:
            raise InfeasibleEncodingError("real node with no applicable retained rule")
        target[indices] = 1.0 / len(indices)
    if smoothing:
        target = (1.0 - smoothing) * target + smoothing / size
    return target


def decode_label(rule_probs: np.ndarray, tokens: Sequence[str],
                 lemmas: Sequence[str],
                 rules: Sequence[RelativeRule]) -> Optional[str]:
    """Invert the encoding: best applicable rule wins, None when null wins.

    Inapplicable rules are skipped in probability order; when every rule is
    inapplicable the highest-probability absolute rule is the fallback.
    """
    if len(rule_probs) != len(rules) + 1:
        raise DecodeError(f"got {len(rule_probs)} probabilities for {len(rules)} rules")
    order = np.argsort(-rule_probs, kind="stable")
    if order[0] == len(rules):
        return None
    for index in order:
        if index == len(rules):
            continue
        label = apply_rule(rules[index], tokens, lemmas)
        if label is not None:
            return label
    for index in order:
        if index != len(rules) and isinstance(rules[index], AbsoluteRule):
            return rules[index].label
    raise DecodeError("no applicable rule and no absolute fallback")


# ---------------------------------------------------------------------------
# artificial anchoring for unanchored (flavor 2) graphs

def assign_artificial_anchors(candidate_rule_sets: Sequence[Sequence[frozenset[int]]],
                              minimal_set: Iterable[int]) -> list[list[int]]:
    """Pick the anchor candidates whose rule sets intersect the minimal set.

    candidate_rule_sets[n][a] holds the rule indices that derive node n's
    label from candidate anchoring a; a candidate is retained iff it shares a
    rule with the minimal set.  Nodes whose label survives only through
    absolute rules end up unanchored.
    """
    retained = frozenset(minimal_set)
    return [[a for a, rules_for_candidate in enumerate(candidates)
             if rules_for_candidate & retained]
            for candidates in candidate_rule_sets]


def anchor_flavor2_corpus(graphs: Sequence[Graph],
                          bounds: RuleSpaceBounds = RuleSpaceBounds(),
                          cache_dir: str | None = None,
                          ) -> tuple[list[Graph], RuleSetProblem, tuple[int, ...]]:
    """Create one-to-one artificial anchors for unanchored graphs.

    For every node, each single token of the sentence is a candidate anchor;
    a candidate contributes the non-absolute rules deriving the label from
    that token alone.  The minimal rule set is solved over the union sets and
    anchors keep exactly the candidates compatible with it.
    """
    entries = []  # (graph idx, node idx, per-candidate rule sets, union set)
    all_rules: set[RelativeRule] = set()
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

    from dataclasses import replace as _replace
    out = list(graphs)
    for (gi, ni, _), kept_candidates in zip(entries, kept):
        tokens = per_graph_tokens[gi]
        anchors = tuple(Anchor(tokens[a].start, tokens[a].end) for a in kept_candidates)
        g = out[gi]
        nodes = list(g.nodes)
        nodes[ni] = _replace(nodes[ni], anchors=anchors)
        out[gi] = _replace(g, nodes=tuple(nodes))
    return out, problem, solution
