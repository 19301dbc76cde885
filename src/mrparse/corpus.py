"""Deterministic synthetic corpus of sentences with gold semantic graphs.

Five sentence templates over a small lexicon exercise the whole pipeline:
suffix-morphology labels (gerund verbs), word numerals, labels with no
surface overlap (forcing absolute rules), noun properties (nodeification),
one inverted-edge pattern and tokens carrying two nodes (so the per-token
query budget matters).
"""

from __future__ import annotations

import numpy as np

from .graph import Anchor, Edge, Graph, Node, whitespace_tokens

PERSON_NAMES = ("Alice", "Bob", "Carol", "Dave", "Erin", "Frank",
                "Grace", "Henry", "Ivy", "Jack")
PLACE_NAMES = ("Paris", "London", "Tokyo", "Oslo", "Cairo", "Quito")
# gerunds whose base form restores a silent e: strip "ing" and append "e"
VERBS_E = ("diving", "taking", "giving", "making", "riding", "hiding",
           "baking", "saving", "waving", "smiling", "racing", "dancing")
# gerunds whose base form is the stem: strip "ing"
VERBS_PLAIN = ("jumping", "walking", "talking", "helping", "singing",
               "reading", "feeding", "watching", "playing", "cooking")
NOUNS = ("cat", "dog", "box", "car", "tree", "bird", "fish", "house",
         "book", "lamp", "door", "cake", "ship", "star", "moon", "rock",
         "leaf", "wolf", "bear", "frog")
DETERMINERS = (("the", "_the_q"), ("a", "_a_q"))
NUMERAL_TENS = ("twenty", "thirty", "forty", "fifty", "sixty", "seventy",
                "eighty", "ninety")
NUMERAL_UNITS = ("one", "two", "three", "four", "five", "six", "seven",
                 "eight", "nine")
_TEN_VALUES = {w: (i + 2) * 10 for i, w in enumerate(NUMERAL_TENS)}
_UNIT_VALUES = {w: i + 1 for i, w in enumerate(NUMERAL_UNITS)}


def _verb_label(token: str) -> str:
    stem = token[:-3]
    return stem + "e" if token in VERBS_E else stem


def _noun_label(token: str) -> str:
    return f"_{token}_n"


def _sentence(graph_id: str, words: list[str], nodes: list[dict],
              edges: list[tuple[int, int, str]], top: int) -> Graph:
    text = " ".join(words)
    tokens = whitespace_tokens(text)
    built = []
    for i, spec in enumerate(nodes):
        token_span = spec["tokens"]
        start = tokens[token_span[0]].start
        end = tokens[token_span[-1]].end
        built.append(Node(id=i, label=spec["label"],
                          properties=tuple(spec.get("properties", ())),
                          anchors=(Anchor(start, end),),
                          is_top=(i == top)))
    return Graph(id=graph_id, framework="eds", flavor=1, input=text,
                 nodes=tuple(built),
                 edges=tuple(Edge(source=s, target=t, label=l) for s, t, l in edges),
                 tokens=tokens)


def _template_intransitive(rng, graph_id):
    # "the cat is diving"
    det, det_label = DETERMINERS[rng.integers(len(DETERMINERS))]
    noun = NOUNS[rng.integers(len(NOUNS))]
    verb = (VERBS_E + VERBS_PLAIN)[rng.integers(len(VERBS_E) + len(VERBS_PLAIN))]
    words = [det, noun, "is", verb]
    nodes = [{"label": det_label, "tokens": (0,)},
             {"label": _noun_label(noun), "tokens": (1,)},
             {"label": _verb_label(verb), "tokens": (3,)}]
    edges = [(0, 1, "BV"), (2, 1, "ARG1")]
    return _sentence(graph_id, words, nodes, edges, top=2)


def _template_transitive(rng, graph_id):
    # "Alice is taking the box"
    name = PERSON_NAMES[rng.integers(len(PERSON_NAMES))]
    verb = (VERBS_E + VERBS_PLAIN)[rng.integers(len(VERBS_E) + len(VERBS_PLAIN))]
    det, det_label = DETERMINERS[rng.integers(len(DETERMINERS))]
    noun = NOUNS[rng.integers(len(NOUNS))]
    words = [name, "is", verb, det, noun]
    nodes = [{"label": "person", "tokens": (0,)},
             {"label": _verb_label(verb), "tokens": (2,)},
             {"label": det_label, "tokens": (3,)},
             {"label": _noun_label(noun), "tokens": (4,)}]
    edges = [(1, 0, "ARG1"), (1, 3, "ARG2"), (2, 3, "BV")]
    return _sentence(graph_id, words, nodes, edges, top=1)


def _template_numeral(rng, graph_id):
    # "forty two birds are singing"; the plural noun carries a property
    ten = NUMERAL_TENS[rng.integers(len(NUMERAL_TENS))]
    unit = NUMERAL_UNITS[rng.integers(len(NUMERAL_UNITS))]
    noun = NOUNS[rng.integers(len(NOUNS))]
    verb = (VERBS_E + VERBS_PLAIN)[rng.integers(len(VERBS_E) + len(VERBS_PLAIN))]
    value = str(_TEN_VALUES[ten] + _UNIT_VALUES[unit])
    words = [ten, unit, noun + "s", "are", verb]
    nodes = [{"label": value, "tokens": (0, 1)},
             {"label": _noun_label(noun), "tokens": (2,),
              "properties": (("num", "pl"),)},
             {"label": _verb_label(verb), "tokens": (4,)}]
    edges = [(0, 1, "quantity"), (2, 1, "ARG1")]
    return _sentence(graph_id, words, nodes, edges, top=2)


def _template_possessive(rng, graph_id):
    # "the dog of Carol is jumping"; the possessive edge is stored inverted
    det, det_label = DETERMINERS[rng.integers(len(DETERMINERS))]
    noun = NOUNS[rng.integers(len(NOUNS))]
    name = PERSON_NAMES[rng.integers(len(PERSON_NAMES))]
    verb = (VERBS_E + VERBS_PLAIN)[rng.integers(len(VERBS_E) + len(VERBS_PLAIN))]
    words = [det, noun, "of", name, "is", verb]
    nodes = [{"label": det_label, "tokens": (0,)},
             {"label": _noun_label(noun), "tokens": (1,)},
             {"label": "person", "tokens": (3,)},
             {"label": _verb_label(verb), "tokens": (5,)}]
    edges = [(0, 1, "BV"), (3, 1, "ARG1"), (1, 2, "poss-of")]
    return _sentence(graph_id, words, nodes, edges, top=3)


def _template_locative(rng, graph_id):
    # "Dave is walking near Paris"
    name = PERSON_NAMES[rng.integers(len(PERSON_NAMES))]
    verb = (VERBS_E + VERBS_PLAIN)[rng.integers(len(VERBS_E) + len(VERBS_PLAIN))]
    place = PLACE_NAMES[rng.integers(len(PLACE_NAMES))]
    words = [name, "is", verb, "near", place]
    nodes = [{"label": "person", "tokens": (0,)},
             {"label": _verb_label(verb), "tokens": (2,)},
             {"label": "place", "tokens": (4,)}]
    edges = [(1, 0, "ARG1"), (1, 2, "LOC")]
    return _sentence(graph_id, words, nodes, edges, top=1)


_TEMPLATES = (_template_intransitive, _template_transitive, _template_numeral,
              _template_possessive, _template_locative)


def synth_corpus(seed: int, size: int) -> list[Graph]:
    """Deterministic corpus of gold graphs; same seed, same corpus."""
    if size < 1:
        raise ValueError("corpus size must be at least 1")
    rng = np.random.default_rng(seed)
    graphs = []
    for index in range(size):
        template = _TEMPLATES[rng.integers(len(_TEMPLATES))]
        graphs.append(template(rng, f"toy-{index}"))
    return graphs
