"""Relative label encoding: rule space, applicability, minimal rule set.

A node label is encoded not as an atomic class but as a transformation rule
applied to the node's anchored tokens.  Four rule kinds exist: token rules
and lemma rules (seven-tuples: drop counts, separator, strip counts,
affixes), a number rule turning word numerals into digits, and absolute
fallback rules that emit a fixed label.  Every rule is one Rule tuple: the
kind rank (TOKEN, LEMMA, NUMBER, ABSOLUTE), the seven-tuple fields, then the
absolute label, with 0 or "" where a kind has no field, so plain tuple order
is the canonical order that indexes the classifier output.  The retained
rule inventory is the exact minimum subset hitting every node's
applicable-rule set.  A rule-set problem numbers its rules in the order the
enumeration first finds them, and the solver breaks ties in canonical rule
order through the smallest rule of each coverage class (see hitting), so
the chosen rules do not depend on that numbering.

A join that leaves one token is the same string whatever the separator, so
its rules are enumerated with the smallest separator, SEPARATORS[0], only:
every other separator variant derives exactly what this twin derives, and
the twin sorts first, so the lexicographically smallest minimum rule set
never needs the variant.  Where a join of two or more tokens does derive a
variant, build_problem adds it back to every item whose twin derives the
label from one token, so the chosen rules are those of the all-separator
problem.

Which strips and affixes map a string onto a label is searched in one
place, _core_hits, once per distinct joined string in an enumeration and
once per distinct (form or lemma, label) in an artificial anchoring problem,
whose one-token candidates take no drops and the separator SEPARATORS[0].
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import hitting
from .graph import Anchor, Graph, Node, anchored_token_indices, graph_tokens


class RuleError(Exception):
    pass


class InfeasibleEncodingError(RuleError):
    """A node has no applicable retained rule."""


class DecodeError(RuleError):
    pass


class Rule(NamedTuple):
    """A rule of any kind; plain tuple order is the canonical rule order."""

    kind: int
    drop_left: int
    drop_right: int
    separator: str
    strip_left: int
    strip_right: int
    prefix: str
    suffix: str
    label: str


TOKEN, LEMMA, NUMBER, ABSOLUTE = range(4)
KIND_NAMES = ("token", "lemma", "number", "absolute")

_new = tuple.__new__


def TokenRule(drop_left: int, drop_right: int, separator: str, strip_left: int,
              strip_right: int, prefix: str, suffix: str) -> Rule:
    return _new(Rule, (TOKEN, drop_left, drop_right, separator, strip_left,
                       strip_right, prefix, suffix, ""))


def LemmaRule(drop_left: int, drop_right: int, separator: str, strip_left: int,
              strip_right: int, prefix: str, suffix: str) -> Rule:
    return _new(Rule, (LEMMA, drop_left, drop_right, separator, strip_left,
                       strip_right, prefix, suffix, ""))


def NumberRule() -> Rule:
    return _new(Rule, (NUMBER, 0, 0, "", 0, 0, "", "", ""))


def AbsoluteRule(label: str) -> Rule:
    return _new(Rule, (ABSOLUTE, 0, 0, "", 0, 0, "", "", label))


# the finite rule space: tokens dropped per end, characters stripped per end,
# token separators (smallest first) and the longest prefix or suffix
MAX_TOKEN_DROP = 2
MAX_CHAR_STRIP = 4
SEPARATORS = ("", "+", "-", "_", " ")
MAX_AFFIX_LEN = 6


# ---------------------------------------------------------------------------
# word numerals

_UNITS = {"one": 1, "two": 2, "three": 3, "four": 4, "five": 5, "six": 6,
          "seven": 7, "eight": 8, "nine": 9, "ten": 10, "eleven": 11,
          "twelve": 12, "thirteen": 13, "fourteen": 14, "fifteen": 15,
          "sixteen": 16, "seventeen": 17, "eighteen": 18, "nineteen": 19}
_TENS = {"twenty": 20, "thirty": 30, "forty": 40, "fifty": 50, "sixty": 60,
         "seventy": 70, "eighty": 80, "ninety": 90}


def words_to_number(tokens: Sequence[str]) -> Optional[str]:
    """Parse an English cardinal phrase (up to 999,999) into digits.

    Compound forms with hyphens and "and" are accepted; returns None when the
    phrase is not a recognized numeral.  "thousand" splits the phrase into
    two groups and appears at most once; within a group each word fills
    lower decimal places than the word before it ("ten" to "nineteen" fill
    the tens and the units), and "hundred" multiplies at most one unit word
    before it.  "zero" is a numeral only on its own.
    """
    words = []
    for token in tokens:
        for part in token.lower().replace("-", " ").split():
            if part != "and":
                words.append(part)
    if not words:
        return None
    if words == ["zero"]:
        return "0"
    total = 0
    current = 0
    place = 1000  # the lowest place filled so far in this group
    for word in words:
        if word == "thousand":
            if total:
                return None
            total = max(current, 1) * 1000
            current, place = 0, 1000
        elif word == "hundred":
            if current > 9:
                return None
            current = max(current, 1) * 100
            place = 100
        else:
            value = _UNITS.get(word) or _TENS.get(word)
            # a word fills the tens place from "ten" up and the units place
            # below "twenty"; the highest it fills must lie below place
            if value is None or (10 if value >= 10 else 1) >= place:
                return None
            current += value
            place = 10 if value >= 20 else 1
    return str(total + current)


# ---------------------------------------------------------------------------
# rule application

def apply_rule(rule: Rule, tokens: Sequence[str],
               lemmas: Sequence[str]) -> Optional[str]:
    """Apply a rule to anchored tokens/lemmas; None when inapplicable.

    Seven-tuple rules are inapplicable when no token survives the drops or
    when the strip counts do not leave at least one character of the joined
    string.
    """
    (kind, drop_left, drop_right, separator, strip_left, strip_right,
     prefix, suffix, label) = rule
    if kind == ABSOLUTE:
        return label
    if kind == NUMBER:
        return words_to_number(tokens)
    source = lemmas if kind == LEMMA else tokens
    end = len(source) - drop_right
    if drop_left >= end:
        return None
    joined = separator.join(source[drop_left:end])
    if strip_left + strip_right >= len(joined):
        return None
    return prefix + joined[strip_left:len(joined) - strip_right] + suffix


def _core_hits(joined: str, label: str) -> list[tuple[int, int, str, str, str]]:
    """The (strip_left, strip_right, prefix, suffix, "") Rule fields that map
    joined onto label: the one search for which strips and affixes derive a
    label from a string.

    With M = len(label) and A = MAX_AFFIX_LEN, a core of length c fits only
    at positions max(0, M - A - c) .. A, so strip pairs whose core length
    lies outside [M - 2A, M] are skipped and the label is searched only in
    that window.  Every core is a non-empty substring of joined, so a string
    that shares no character with the label has no hits.
    """
    hits: list[tuple[int, int, str, str, str]] = []
    if set(joined).isdisjoint(label):
        return hits
    size = len(label)
    affix = MAX_AFFIX_LEN
    strip = MAX_CHAR_STRIP
    for strip_left in range(min(strip, len(joined) - 1) + 1):
        rest = len(joined) - strip_left
        # core length c = rest - strip_right, shortest first: a core absent
        # from label[:A + c] is a prefix of every longer core, so those are
        # absent too
        c = max(rest - strip, 1, size - 2 * affix)
        while c <= rest and c <= size:
            core = joined[strip_left:strip_left + c]
            end = affix + c
            pos = label.find(core, 0, end)
            if pos < 0:
                break
            if pos < size - affix - c:
                pos = label.find(core, size - affix - c, end)
            while pos >= 0:
                hits.append((strip_left, rest - c, label[:pos], label[pos + c:], ""))
                pos = label.find(core, pos + 1, end)
            c += 1
    return hits


def enumerate_applicable_rules(tokens: Sequence[str], lemmas: Sequence[str],
                               label: str, ids: dict[Rule, int]) -> frozenset[int]:
    """The ids of the rules of the rule space that map the anchoring onto
    the label; token and lemma rules that leave one token take the separator
    SEPARATORS[0] only (see the module docstring).

    ids is the problem's rule table: a rule found for the first time gets
    the next id, len(ids), so the table lists the rules in first-found order.
    The absolute rule for the label is always included; the number rule is
    included when the tokens parse to exactly the label.  Each distinct
    joined string is searched once (_core_hits); every (kind, drops,
    separator) that joins to it reuses the hits.
    """
    found = {ids.setdefault(AbsoluteRule(label), len(ids))}
    if tokens and label.isdigit() and words_to_number(tokens) == label:
        found.add(ids.setdefault(NumberRule(), len(ids)))
    matches: dict[str, list[tuple[int, int, str, str, str]]] = {}
    for kind, source in ((TOKEN, tokens), (LEMMA, lemmas)):
        if not source:
            continue
        n = len(source)
        for drop_left in range(min(MAX_TOKEN_DROP, n - 1) + 1):
            for drop_right in range(min(MAX_TOKEN_DROP, n - 1 - drop_left) + 1):
                surviving = source[drop_left:n - drop_right]
                for sep in SEPARATORS if len(surviving) > 1 else SEPARATORS[:1]:
                    joined = sep.join(surviving)
                    hits = matches.get(joined)
                    if hits is None:
                        hits = matches[joined] = _core_hits(joined, label)
                    head = (kind, drop_left, drop_right, sep)
                    for hit in hits:
                        rule = _new(Rule, head + hit)
                        found.add(ids.setdefault(rule, len(ids)))
    return frozenset(found)


# ---------------------------------------------------------------------------
# minimal rule set

@dataclass(frozen=True)
class RuleSetProblem:
    """The rules that can be chosen, in first-found order, plus each node's
    applicable subset of their indices."""

    universe: tuple[Rule, ...]
    per_node: tuple[frozenset[int], ...]
    node_names: tuple[str, ...]


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


def build_problem(items: Sequence[tuple[Sequence[str], Sequence[str], str]], *,
                  names: Sequence[str]) -> RuleSetProblem:
    """Enumerate the rule set of each distinct item once into one rule table;
    the universe lists the rules in the order they were first found, which
    the solution does not depend on (see minimal_rule_set).  names[i] names
    item i in infeasibility messages.

    Every separator variant in the table came from a join of two or more
    tokens; one pass adds it to each item whose set holds its SEPARATORS[0]
    twin through a one-token join (see the module docstring).
    """
    ids: dict[Rule, int] = {}
    keys = [(tuple(tokens), tuple(lemmas), label) for tokens, lemmas, label in items]
    found = {key: enumerate_applicable_rules(*key, ids) for key in dict.fromkeys(keys)}
    variants: dict[int, list[tuple[int, Rule]]] = {}  # twin id -> (id, variant)
    for rule, i in ids.items():
        if rule.separator:
            twin = ids.get(rule._replace(separator=SEPARATORS[0]))
            if twin is not None:
                variants.setdefault(twin, []).append((i, rule))
    if variants:
        for key, rule_ids in found.items():
            # key[rule.kind] is the rule's source: forms for TOKEN, lemmas for LEMMA
            added = [i for twin in rule_ids if twin in variants
                     for i, rule in variants[twin]
                     if len(key[rule.kind]) - rule.drop_left - rule.drop_right == 1]
            if added:
                found[key] = rule_ids.union(added)
    return RuleSetProblem(universe=tuple(ids), per_node=tuple(found[key] for key in keys),
                          node_names=tuple(names))


def minimal_rule_set(problem: RuleSetProblem) -> tuple[int, ...]:
    """Exact minimum rule subset hitting every node's applicable set, as
    universe indices sorted by rule.

    Deterministic: ties between minimum-cardinality solutions break to the
    smallest rule set in canonical rule order, compared lexicographically,
    whatever order the universe lists the rules in.
    """
    try:
        return hitting.minimal_hitting_set(problem.per_node, problem.universe)
    except hitting.InfeasibleError as exc:
        name = problem.node_names[exc.constraint_index]
        raise InfeasibleEncodingError(f"{name} has no applicable rules") from None


# ---------------------------------------------------------------------------
# rule tables

def rule_to_line(rule: Rule) -> str:
    """One rule per line: kind tag plus JSON-encoded fields, tab-separated."""
    kind = rule.kind
    if kind == ABSOLUTE:
        fields = [rule.label]
    elif kind == NUMBER:
        fields = []
    else:
        fields = rule[1:8]
    return "\t".join([KIND_NAMES[kind]] + [json.dumps(f, ensure_ascii=False)
                                            for f in fields])


def rule_from_line(line: str) -> Rule:
    """Inverse of rule_to_line; counts must be non-negative JSON integers and
    separators, affixes and labels JSON strings."""
    parts = line.rstrip("\n").split("\t")
    kind = parts[0]
    try:
        fields = [json.loads(p) for p in parts[1:]]
    except json.JSONDecodeError as exc:
        raise RuleError(f"bad JSON field: {exc}") from None
    types = [type(f) for f in fields]
    if kind in ("token", "lemma"):
        cls = TokenRule if kind == "token" else LemmaRule
        if len(fields) != 7:
            raise RuleError(f"{kind} rule needs 7 fields, got {len(fields)}")
        counts = (fields[0], fields[1], fields[3], fields[4])
        if types != [int, int, str, int, int, str, str] or min(counts) < 0:
            raise RuleError(f"{kind} rule needs non-negative integer counts and "
                            "a string separator and affixes")
        return cls(*fields)
    if kind == "number":
        if fields:
            raise RuleError(f"number rule takes no fields, got {len(fields)}")
        return NumberRule()
    if kind == "absolute":
        if types != [str]:
            raise RuleError("absolute rule needs exactly 1 string field")
        return AbsoluteRule(fields[0])
    raise RuleError(f"unknown rule kind {kind!r}")


def save_rule_table(rules: Sequence[Rule], path: str):
    with open(path, "w", encoding="utf-8") as handle:
        for rule in rules:
            handle.write(rule_to_line(rule))
            handle.write("\n")


def load_rule_table(path: str) -> tuple[Rule, ...]:
    table = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.strip():
                try:
                    table.append(rule_from_line(line))
                except RuleError as exc:
                    raise RuleError(f"{path}:{lineno}: {exc}") from None
    return tuple(table)


# ---------------------------------------------------------------------------
# targets and decoding

def build_rule_target(applicable_retained: Iterable[int], num_rules: int) -> np.ndarray:
    """Target distribution of a real node over the retained rules plus the
    final null class: uniform mass over its applicable retained rules."""
    target = np.zeros(num_rules + 1)
    indices = sorted(applicable_retained)
    if not indices:
        raise InfeasibleEncodingError("real node with no applicable retained rule")
    target[indices] = 1.0 / len(indices)
    return target


def decode_label(rule_probs: np.ndarray, tokens: Sequence[str],
                 lemmas: Sequence[str],
                 rules: Sequence[Rule]) -> Optional[str]:
    """Invert the encoding: the most probable applicable rule's label.

    Inapplicable rules are skipped in probability order.  None when the null
    class is the most probable, or when no rule applies (a table without an
    absolute rule can fail to realize a label from the anchored tokens).
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
    return None


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


def anchor_flavor2_corpus(graphs: Sequence[Graph]) -> list[Graph]:
    """The graphs with one-to-one artificial anchors on the nodes of their
    flavor-2 (unanchored) graphs; graphs of other flavors pass through
    unchanged and take no part in the rule problem.

    For every node, each single token of the sentence is a candidate anchor;
    a candidate contributes the non-absolute rules deriving the label from
    that token alone.  A candidate is one token, so its token and lemma rules
    are the hits of its form and of its lemma (_core_hits) under no drops and
    the separator SEPARATORS[0] (see the module docstring), no separator
    variant needs adding back, and the number rule is added where the form
    parses to the label; each distinct (string, label) is searched once per
    problem.  The minimal rule set is solved over the union sets and anchors
    keep exactly the candidates compatible with it.  All candidates share one
    rule table, so the universe is in first-found order; the solver orders
    the rules canonically.
    """
    ids: dict[Rule, int] = {}
    entries = []  # (graph idx, node idx, per-candidate (form, lemma, label) keys)
    per_graph_tokens = {}
    for gi, g in enumerate(graphs):
        if g.flavor != 2:
            continue
        tokens = per_graph_tokens[gi] = graph_tokens(g)
        for ni, node in enumerate(g.nodes):
            if node.label is not None:
                entries.append((gi, ni, [(t.form, t.lemma, node.label) for t in tokens]))
    hits: dict[tuple[str, str], list[tuple[int, int, str, str, str]]] = {}
    candidates = {}
    for key in dict.fromkeys(k for _, _, keys in entries for k in keys):
        form, lemma, label = key
        found = set()
        if label.isdigit() and words_to_number([form]) == label:
            found.add(ids.setdefault(NumberRule(), len(ids)))
        for kind, source in ((TOKEN, form), (LEMMA, lemma)):
            source_hits = hits.get((source, label))
            if source_hits is None:
                source_hits = hits[source, label] = _core_hits(source, label)
            head = (kind, 0, 0, SEPARATORS[0])
            for hit in source_hits:
                found.add(ids.setdefault(_new(Rule, head + hit), len(ids)))
        candidates[key] = frozenset(found)
    per_node = []
    names = []
    candidate_indices = []
    for gi, ni, keys in entries:
        node = graphs[gi].nodes[ni]
        sets = [candidates[key] for key in keys]
        absolute = ids.setdefault(AbsoluteRule(node.label), len(ids))
        per_node.append(frozenset().union(*sets) | {absolute})
        names.append(f"graph {graphs[gi].id} node {node.id}")
        candidate_indices.append(sets)

    solution = minimal_rule_set(RuleSetProblem(
        universe=tuple(ids), per_node=tuple(per_node), node_names=tuple(names)))
    kept = assign_artificial_anchors(candidate_indices, solution)

    anchored: dict[int, list] = {}  # graph idx -> its nodes, anchored ones replaced
    for (gi, ni, _), kept_candidates in zip(entries, kept):
        tokens = per_graph_tokens[gi]
        nodes = anchored.get(gi)
        if nodes is None:
            nodes = anchored[gi] = list(graphs[gi].nodes)
        n = nodes[ni]
        nodes[ni] = Node(n.id, n.label, n.properties, tuple(
            Anchor(tokens[a].start, tokens[a].end) for a in kept_candidates),
            n.is_top, n.extras)
    out = list(graphs)
    for gi, nodes in anchored.items():
        g = graphs[gi]
        out[gi] = Graph(g.id, g.framework, g.flavor, g.input, tuple(nodes), g.edges,
                        g.tokens, g.extras)
    return out
